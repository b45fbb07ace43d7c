import itertools
import random

import pytest

from helpers import (
    basis_library,
    build_u_vector_blockwise,
    leader_set,
    payload_entry,
    scheme_point,
    seeded_library,
    xor_symbols,
)
from privcache.bitvec import Bits
from privcache.combinat import binomial, colex_rank
from privcache.reference import SubsetIndex, compute_y, enumerate_r_subsets, stored_signal_indices, subfile
from privcache.scheme import (
    CacheContent,
    FileLibrary,
    SchemeParams,
    g_map,
)
from privcache.yma import (
    UVector,
    build_u_vector,
    yma_delivery,
)

# Virtual demand vectors for two files and three users, one row per key digit.
U_TABLE = {
    (0, 0): (0, 1, 0, 0),
    (1, 0): (0, 1, 0, 1),
    (2, 0): (0, 1, 1, 1),
    (0, 1): (1, 0, 1, 1),
    (1, 1): (1, 0, 1, 0),
    (2, 1): (1, 0, 0, 0),
}


def test_u_vectors_match_worked_example():
    for (user, key), entries in U_TABLE.items():
        assert build_u_vector(2, 3, user, key).entries == entries


def test_u_vector_three_files_closed_form():
    assert build_u_vector(3, 2, 0, 0).entries == (0, 1, 2, 0, 1)


def test_u_vector_parameter_validation():
    with pytest.raises(ValueError):
        build_u_vector(2, 3, 3, 0)
    with pytest.raises(ValueError):
        build_u_vector(2, 3, 0, 2)
    with pytest.raises(ValueError):
        build_u_vector(1, 3, 0, 0)


def test_blockwise_construction_agrees_with_closed_form():
    for n, k_users in itertools.product((2, 3, 4), (1, 2, 3, 4)):
        for user in range(k_users):
            for key in range(n):
                assert build_u_vector(n, k_users, user, key) == build_u_vector_blockwise(
                    n, k_users, user, key
                )


def test_leader_coverage():
    # every demanded value appears at a leader position
    for n, k_users in itertools.product((2, 3, 4), (1, 2, 3, 4)):
        for user in range(k_users):
            for key in range(n):
                u = build_u_vector(n, k_users, user, key)
                leaders = {u.entries[j] for j in leader_set(n)}
                assert leaders == set(range(n))
                assert set(u.entries) <= leaders


def test_u_entries_are_labeled_demand_digits():
    # position t demands exactly what user k asks for under the t-th
    # labeled demand, shifted by the key
    for n, k_users in itertools.product((2, 3), (1, 2, 3)):
        positions = n * k_users - k_users + 1
        for user in range(k_users):
            for key in range(n):
                u = build_u_vector(n, k_users, user, key)
                for t in range(positions):
                    want = (g_map(t, n, k_users).digits[user] + key) % n
                    assert u.entries[t] == want


def test_uvector_requires_leader_block():
    with pytest.raises(ValueError):
        UVector((0, 0, 1, 1), 2)  # first two entries must cover both files


def test_compute_y_worked_examples():
    params, files = basis_library(2, 3, 2)
    u = build_u_vector(2, 3, 1, 0)
    expected = {
        (0, 1, 2): [(0, {1, 2}), (1, {0, 2}), (0, {0, 1})],
        (0, 1, 3): [(0, {1, 3}), (1, {0, 3}), (1, {0, 1})],
        (0, 2, 3): [(0, {2, 3}), (0, {0, 3}), (1, {0, 2})],
        (1, 2, 3): [(1, {2, 3}), (0, {1, 3}), (1, {1, 2})],
    }
    for members, terms in expected.items():
        got = compute_y(files, u, SubsetIndex(members, 4))
        assert got == xor_symbols(params, terms)


def test_compute_y_zero_files():
    params = SchemeParams.minimal(2, 3, 2)
    files = FileLibrary(params, (Bits.zeros(6), Bits.zeros(6)))
    u = build_u_vector(2, 3, 1, 0)
    for r_plus in enumerate_r_subsets(4, 3):
        assert compute_y(files, u, r_plus) == Bits.zeros(1)


def test_compute_y_single_bit_parity():
    # one-bit subfiles: the signal is the parity of the three named bits
    params = SchemeParams.minimal(2, 3, 2)
    rng = random.Random(3)
    files = FileLibrary.random(params, rng)
    u = build_u_vector(2, 3, 1, 0)
    got = compute_y(files, u, SubsetIndex((1, 2, 3), 4))
    bits = [
        subfile(files, 1, SubsetIndex((2, 3), 4)),
        subfile(files, 0, SubsetIndex((1, 3), 4)),
        subfile(files, 1, SubsetIndex((1, 2), 4)),
    ]
    assert got.value == bits[0].value ^ bits[1].value ^ bits[2].value


def test_compute_y_size_mismatch():
    params, files = seeded_library(2, 3, 2)
    u = build_u_vector(2, 3, 0, 0)
    with pytest.raises(ValueError):
        compute_y(files, u, SubsetIndex((0, 1), 4))


def test_delivery_indices_all_leader_intersecting_232():
    params, files = seeded_library(2, 3, 2)
    signals = yma_delivery(files, build_u_vector(2, 3, 1, 0))
    indices = stored_signal_indices(params)
    assert len(signals) == len(indices)
    assert {idx.members for idx in indices} == {
        (0, 1, 2),
        (0, 1, 3),
        (0, 2, 3),
        (1, 2, 3),
    }


def test_delivery_count_formula():
    for n, k_users, r in [(2, 4, 2), (2, 3, 2), (3, 3, 1), (3, 2, 2)]:
        params, files = seeded_library(n, k_users, r, bits_per_subfile=1)
        kp = params.positions
        signals = yma_delivery(files, build_u_vector(n, k_users, 0, 0))
        assert len(signals) == binomial(kp, r + 1) - binomial(kp - n, r + 1)
    # the (2,4,2) instance in numbers: C(5,3) - C(3,3) = 9
    params, files = seeded_library(2, 4, 2, bits_per_subfile=1)
    assert len(yma_delivery(files, build_u_vector(2, 4, 0, 0))) == 9


def test_delivery_empty_at_maximal_split():
    params, files = seeded_library(2, 3, 4, bits_per_subfile=2)
    assert yma_delivery(files, build_u_vector(2, 3, 0, 0)) == ()


def test_delivery_size_matches_memory():
    for n, k_users, r in [(2, 3, 2), (2, 4, 2), (3, 2, 1), (3, 3, 2), (2, 3, 0)]:
        params, files = seeded_library(n, k_users, r, bits_per_subfile=2)
        signals = yma_delivery(files, build_u_vector(n, k_users, 0, 0))
        stored_bits = len(signals) * params.subfile_bits
        point = scheme_point(params.num_files, params.num_users, params.r)
        assert stored_bits == point.memory * params.file_bits


def test_reconstruction_expansion_frozen():
    # non-leader index {2,3,4} with demands (0,1,0,1,1): the exchange
    # identity expands into exactly these five stored signals
    u = build_u_vector(2, 4, 2, 0)
    assert u.entries == (0, 1, 0, 1, 1)
    plan = SchemeParams.minimal(2, 4, 2).plan
    expected_terms = [(0, 3, 4), (1, 2, 4), (1, 2, 3), (0, 1, 4), (0, 1, 3)]
    sources = dict(plan.reconstruction[2])[colex_rank((2, 3, 4))]
    assert sources == tuple(sorted(colex_rank(members) for members in expected_terms))
    assert set(sources) <= set(plan.stored_ranks)


@pytest.mark.parametrize("n,k_users,r", [(2, 4, 2), (3, 3, 2), (2, 4, 1), (3, 2, 1), (4, 2, 1)])
def test_reconstruction_matches_direct_computation(n, k_users, r):
    params, files = seeded_library(n, k_users, r, seed=11, bits_per_subfile=4)
    kp = params.positions
    non_leader = [
        SubsetIndex(tuple(m + n for m in s.members), kp)
        for s in enumerate_r_subsets(kp - n, r + 1)
    ]
    checked = 0
    for user in range(k_users):
        for key in range(n):
            u = build_u_vector(n, k_users, user, key)
            cache = CacheContent(user, key, yma_delivery(files, u), params)
            for index in non_leader:
                assert payload_entry(cache, index) == compute_y(files, u, index)
                checked += 1
    assert checked == len(non_leader) * k_users * n


def test_reconstruction_passthrough_for_stored_indices():
    params, files = seeded_library(2, 3, 2)
    cache = CacheContent(0, 1, yma_delivery(files, build_u_vector(2, 3, 0, 1)), params)
    for index, value in zip(stored_signal_indices(params), cache.signals, strict=True):
        assert payload_entry(cache, index).value == value


def test_reconstruction_zero_files():
    params = SchemeParams.minimal(2, 4, 2)
    files = FileLibrary(params, (Bits.zeros(10), Bits.zeros(10)))
    cache = CacheContent(2, 0, yma_delivery(files, build_u_vector(2, 4, 2, 0)), params)
    assert payload_entry(cache, SubsetIndex((2, 3, 4), 5)) == Bits.zeros(1)
