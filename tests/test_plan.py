"""Rank-table plans against the per-element reference formulas.

Placement, delivery and decoding XOR pre-split subfile ints picked by the
plan's colex-rank tables; every table is checked here against the formula
it replaces (compute_y, x_segment, recover_segment, FileLibrary blocks),
on a grid that includes r=0, r=K'-1 and r=K' and subfile widths of 1, 3,
8 and 13 bits.
"""

import itertools
import random

import pytest

from privcache.bitvec import Bits
from privcache.combinat import enumerate_r_subsets, subset_unrank
from privcache.plan import scheme_plan
from privcache.scheme import (
    AuxDemand,
    FileLibrary,
    SchemeParams,
    SessionRandomness,
    _segment_values,
    build_delivery,
    build_v,
    place,
    recover_segment,
    x_segment,
)
from privcache.yma import build_u_vector, compute_y

# (N, K, r): K' = 3 at r = 0, K'-1, K'; the rest leave non-stored signals
# (K' - N >= r + 1) for the reconstruction tables
INSTANCES = [(2, 2, 0), (2, 2, 2), (2, 2, 3), (2, 3, 1), (2, 4, 2), (3, 2, 2), (3, 3, 2), (4, 2, 1)]
WIDTHS = [1, 3, 8, 13]
GRID = [(n, k, r, w) for (n, k, r), w in zip(INSTANCES, itertools.cycle(WIDTHS))] + [
    (2, 3, 2, w) for w in WIDTHS
]


def library(n, k, r, width, seed=0):
    params = SchemeParams.minimal(n, k, r, width)
    return params, FileLibrary.random(params, random.Random(seed))


@pytest.mark.parametrize("n,k,r,width", GRID)
def test_subfiles_are_file_blocks(n, k, r, width):
    params, files = library(n, k, r, width)
    for fi in range(n):
        assert files.subfiles[fi] == tuple(
            files.files[fi].block(rank, width).value for rank in range(params.subfile_count)
        )


@pytest.mark.parametrize("n,k,r,width", GRID)
def test_place_equals_compute_y(n, k, r, width):
    params, files = library(n, k, r, width, seed=1)
    kp = params.positions
    stored = [idx for idx in enumerate_r_subsets(kp, r + 1) if idx.members[0] < n]
    for key in range(n):
        for cache in place(files, params, SessionRandomness(n, (key,) * k)):
            u = build_u_vector(n, k, cache.user, key)
            assert list(cache.signals) == stored
            assert cache.signals == {idx: compute_y(files, u, idx) for idx in stored}


@pytest.mark.parametrize("n,k,r,width", GRID)
def test_non_stored_signals_equal_compute_y(n, k, r, width):
    params, files = library(n, k, r, width, seed=2)
    plan = scheme_plan(params)
    kp = params.positions
    for key in range(n):
        for cache in place(files, params, SessionRandomness(n, (key,) * k)):
            u = build_u_vector(n, k, cache.user, key)
            by_rank = {rank: cache.signals[idx] for idx, rank in zip(plan.stored, plan.stored_ranks)}
            for rank, sources in plan.reconstruction[cache.user]:
                got = Bits.zeros(width)
                for j in sources:
                    got = got ^ by_rank[j]
                assert got == compute_y(files, u, subset_unrank(rank, r + 1, kp))


@pytest.mark.parametrize("n,k,r,width", GRID)
def test_delivered_and_recovered_segments_equal_reference(n, k, r, width):
    params, files = library(n, k, r, width, seed=3)
    plan = scheme_plan(params)
    subsets = enumerate_r_subsets(params.positions, r - 1)
    for digits in itertools.product(range(n), repeat=k):
        d = AuxDemand(digits, n)
        selector = build_v(d).members
        for t_d in selector:
            x = build_delivery(files, d, t_d)
            assert x.segments == {
                (fi, s): x_segment(files, d, s, fi)
                for fi in range(n)
                for s in subsets
                if t_d not in s
            }
            values = _segment_values(plan, x, selector)
            for fi in range(n):
                assert values[fi] == [recover_segment(x, s, fi).value for s in subsets]
