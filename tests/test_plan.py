"""Rank-table plans against the per-element reference formulas.

Placement, delivery and decoding XOR pre-split subfile ints picked by the
plan's colex-rank tables; every table is checked here against the formula
it replaces (`reference.compute_y`, `reference.x_segment`, FileLibrary
blocks), on a grid that includes r=0, r=K'-1 and r=K' and subfile widths
of 1, 3, 8 and 13 bits.
"""

import itertools
import random
import subprocess
import sys

import pytest

import privcache.plan as plan_module
from privcache import verify
from privcache.combinat import ScaleLimitError, admit_plan, scheme_counts
from privcache.reference import compute_y, enumerate_r_subsets, stored_signal_indices, x_segment
from privcache.scheme import (
    AuxDemand,
    FileLibrary,
    SchemeParams,
    SessionRandomness,
    build_delivery,
    build_v,
    decode,
    place,
)
from privcache.yma import build_u_vector

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
            assert stored_signal_indices(params) == stored
            assert cache.signals == tuple(compute_y(files, u, idx).value for idx in stored)


@pytest.mark.parametrize("n,k,r,width", GRID)
def test_non_stored_signals_equal_compute_y(n, k, r, width):
    params, files = library(n, k, r, width, seed=2)
    signals = enumerate_r_subsets(params.positions, r + 1)
    for key in range(n):
        for cache in place(files, params, SessionRandomness(n, (key,) * k)):
            u = build_u_vector(n, k, cache.user, key)
            # stored signals pass through; the rest follow plan.reconstruction
            values = cache.signal_values
            assert values == [compute_y(files, u, idx).value for idx in signals]


@pytest.mark.parametrize("n,k,r,width", GRID)
def test_delivered_and_recovered_segments_equal_reference(n, k, r, width):
    params, files = library(n, k, r, width, seed=3)
    subsets = enumerate_r_subsets(params.positions, r - 1)
    for digits in itertools.product(range(n), repeat=k):
        d = AuxDemand(digits, n)
        selector = build_v(d).members
        for t_d in selector:
            x = build_delivery(files, d, t_d)
            assert x.segments == tuple(
                x_segment(files, d, s, fi).value
                for fi in range(n)
                for s in subsets
                if t_d not in s
            )
            values = x.segment_values
            for fi in range(n):
                assert values[fi] == [x_segment(files, d, s, fi).value for s in subsets]


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 5) for k in range(1, 5)])
def test_virtual_rows_shift_by_the_key(n, k):
    # decode reads position t's file as (virtual[user][t] + key) mod N
    plan = SchemeParams.minimal(n, k, 1).plan
    for user in range(k):
        for key in range(n):
            shifted = tuple((v + key) % n for v in plan.virtual[user])
            assert shifted == build_u_vector(n, k, user, key).entries


def test_payload_expansions_are_built_once():
    params, files = library(2, 3, 2, 1)
    caches = place(files, params, SessionRandomness(2, (1, 0, 1)))
    broadcasts = [
        build_delivery(files, AuxDemand(digits, 2), t)
        for digits in itertools.product(range(2), repeat=3)
        for t in AuxDemand(digits, 2).selector
    ]
    cache = caches[0]
    signals = cache.signal_values
    segments = [x.segment_values for x in broadcasts]
    assert cache.signal_values is signals
    for x, first in zip(broadcasts, segments):
        demand = (x.aux.digits[0] + cache.key) % 2
        assert decode(cache, x, 0, demand) == files.files[demand]
        assert x.segment_values is first
    assert cache.signal_values is signals
    assert all(x.segment_values is first for x, first in zip(broadcasts, segments))


@pytest.mark.parametrize("n,k,r", INSTANCES)
def test_scheme_counts_are_the_plan_table_lengths(n, k, r):
    plan = SchemeParams.minimal(n, k, r).plan
    subfiles, stored, rebuilt, per_file = scheme_counts(n, k, r)
    assert subfiles == len(plan.subfile_up)
    assert stored == len(plan.stored_ranks)
    assert [len(ranks) for ranks in plan.delivered] == [per_file] * len(plan.delivered)
    assert [len(rows) for rows in plan.reconstruction] == [rebuilt] * k


def test_a_plan_near_the_top_level_builds_without_the_middle_levels():
    # (2,30,29) passes the plan guard, but a generator that built levels
    # 1..r on the way up would list C(31, 15) ~ 3e8 subsets; the child's
    # address space is capped so such a generator fails with MemoryError
    pytest.importorskip("resource")
    code = (
        "import resource\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        "cap = 256 << 20 if hard == resource.RLIM_INFINITY else min(256 << 20, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
        "from privcache.combinat import colex_subsets\n"
        "from privcache.plan import scheme_plan\n"
        "assert colex_subsets(31, 30) == [tuple(x for x in range(31) if x != s) for s in range(30, -1, -1)]\n"
        "assert len(scheme_plan(2, 30, 29).subfile_up) == 465\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_plan_cost_counts_the_reconstruction_rows():
    # (2,30,4): C(31, 4) = 31,465 subfiles times K' = 31 up-row entries, plus
    # 30 users times C(29, 5) = 118,755 rebuilt signals times 2^5 subsets,
    # 975,415 + 114,004,800 entries; priced alike with or without a build
    for price in (admit_plan, plan_module.scheme_plan):
        with pytest.raises(ScaleLimitError, match=r"N=2 K=30 r=4 costs ~114980215 table entries"):
            price(2, 30, 4)


@pytest.mark.parametrize("n,k,r", [(16, 2, 6), (2, 30, 4)])
def test_plan_guard_refuses_before_any_table_is_built(monkeypatch, n, k, r):
    # (16,2,6) needs more than 3 GB; (2,30,4) takes minutes in its reconstruction rows
    def unbuilt(*args):
        raise AssertionError("table built before the plan size was checked")

    monkeypatch.setattr(plan_module, "_down", unbuilt)
    monkeypatch.setattr(plan_module, "colex_subsets", unbuilt)
    with pytest.raises(ScaleLimitError, match="exceeds the cap"):
        plan_module.scheme_plan(n, k, r)
    with pytest.raises(verify.ScaleLimitError, match="exceeds the cap"):
        SchemeParams.minimal(n, k, r).plan
