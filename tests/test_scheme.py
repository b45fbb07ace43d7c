import itertools
import random
from fractions import Fraction

import pytest

from helpers import basis_library, payload_entry, seeded_library, symbol, xor_symbols
from privcache.bitvec import Bits
from privcache.combinat import SubsetIndex, binomial, enumerate_r_subsets
from privcache.scheme import (
    AuxDemand,
    CacheContent,
    DeliverySignal,
    DemandClass,
    FileLibrary,
    SchemeParams,
    SessionRandomness,
    assemble_delivery,
    aux_demand,
    build_delivery,
    build_v,
    cache_header,
    decode,
    delivered_segment_indices,
    delivery_header,
    f_map,
    g_map,
    memory_rate_of,
    place,
    x_segment,
)
from privcache.yma import build_u_vector, yma_delivery

# Transmission table for two files and three users at r=2: auxiliary demand
# -> (selector set, table's t-choice, segments as subfile-pair lists per slot).
TRANSMISSIONS = {
    (0, 0, 0): ({0}, 0, {1: [(0, 1)], 2: [(0, 2)], 3: [(0, 3)]}),
    (1, 1, 1): ({1}, 1, {0: [(0, 1)], 2: [(1, 2)], 3: [(1, 3)]}),
    (0, 0, 1): ({2}, 2, {0: [(0, 2)], 1: [(1, 2)], 3: [(2, 3)]}),
    (1, 1, 0): ({0, 1, 2}, 0, {1: [(0, 1), (1, 2)], 2: [(0, 2), (1, 2)], 3: [(0, 3), (1, 3), (2, 3)]}),
    (0, 1, 1): ({3}, 3, {0: [(0, 3)], 1: [(1, 3)], 2: [(2, 3)]}),
    (1, 0, 0): ({0, 1, 3}, 0, {1: [(0, 1), (1, 3)], 2: [(0, 2), (1, 2), (2, 3)], 3: [(0, 3), (1, 3)]}),
    (0, 1, 0): ({0, 2, 3}, 0, {1: [(0, 1), (1, 2), (1, 3)], 2: [(0, 2), (2, 3)], 3: [(0, 3), (2, 3)]}),
    (1, 0, 1): ({1, 2, 3}, 1, {0: [(0, 1), (0, 2), (0, 3)], 2: [(1, 2), (2, 3)], 3: [(1, 3), (2, 3)]}),
}

GRID = [(2, 2, 1), (2, 3, 1), (2, 3, 2), (2, 3, 3), (2, 4, 2), (3, 2, 1), (3, 3, 1), (3, 3, 2)]


def all_demand_vectors(n, k):
    return list(itertools.product(range(n), repeat=k))


# ---------------------------------------------------------------- parameters


def test_params_derived_quantities():
    p = SchemeParams(2, 3, 2, 6)
    assert p.positions == 4
    assert p.subfile_count == 6
    assert p.subfile_bits == 1


def test_params_validation():
    with pytest.raises(ValueError):
        SchemeParams(1, 3, 2, 6)
    with pytest.raises(ValueError):
        SchemeParams(2, 0, 2, 6)
    with pytest.raises(ValueError):
        SchemeParams(2, 3, 5, 6)  # r > K'
    with pytest.raises(ValueError):
        SchemeParams(2, 3, 2, 7)  # not divisible by C(4,2)=6
    with pytest.raises(ValueError):
        SchemeParams(2, 3, 2, 0)


def test_library_validation_and_subfiles():
    params = SchemeParams(2, 3, 2, 12)
    files = FileLibrary.random(params, random.Random(0))
    # block layout follows colex rank
    for n in range(2):
        for i, r_set in enumerate(enumerate_r_subsets(4, 2)):
            assert files.subfile(n, r_set) == files.files[n].block(i, 2)
    with pytest.raises(ValueError):
        FileLibrary(params, (Bits.zeros(12),))
    with pytest.raises(ValueError):
        files.subfile(0, SubsetIndex((0,), 4))


def test_library_bytes_roundtrip():
    params = SchemeParams(2, 3, 2, 18)
    files = FileLibrary.random(params, random.Random(5))
    assert FileLibrary.from_bytes(params, files.to_bytes()) == files


# ------------------------------------------------------------ aux demand map


def test_aux_demand_worked_examples():
    d = aux_demand((0, 1, 1), (0, 0, 1), 2)
    assert d.digits == (0, 1, 0)
    # (0,1,0) is a single-nonzero vector, hence class D1 by the partition
    assert d.demand_class is DemandClass.D1
    d = aux_demand((0, 0, 1), (0, 0, 1), 2)
    assert d.digits == (0, 0, 0)
    assert d.demand_class is DemandClass.D0


def test_aux_demand_zero_keys_is_identity():
    for demands in all_demand_vectors(3, 3):
        assert aux_demand(demands, (0, 0, 0), 3).digits == demands


def test_aux_demand_validation():
    with pytest.raises(ValueError):
        aux_demand((0, 1), (0,), 2)
    with pytest.raises(ValueError):
        aux_demand((0, 2), (0, 0), 2)


def test_classification_matches_pattern_oracle():
    # rebuild the partition from its set definitions and compare
    for n, k in itertools.product((2, 3, 4), (1, 2, 3, 4)):
        d0 = {(n - 1,) * k} | {
            (a,) * (k - j) + ((a + 1) % n,) * j for j in range(k) for a in range(n - 1)
        }
        d1 = {
            tuple(a if i == j else 0 for i in range(k))
            for j in range(k)
            for a in range(1, n)
        }
        assert len(d0) == n * k - k + 1
        for digits in all_demand_vectors(n, k):
            got = AuxDemand(digits, n).demand_class
            if digits in d0:
                assert got is DemandClass.D0, digits
            elif digits in d1:
                assert got is DemandClass.D1, digits
            else:
                assert got is DemandClass.D2, digits


# ----------------------------------------------------------------- labeling


def test_labeling_worked_examples():
    assert g_map(3, 2, 3).digits == (0, 1, 1)
    assert g_map(1, 2, 3).digits == (1, 1, 1)
    assert f_map(AuxDemand((1, 1, 1), 2)) == 1
    assert f_map(AuxDemand((0, 1, 1), 2)) == 3


def test_labeling_bijection():
    for n, k in itertools.product((2, 3, 4), (1, 2, 3, 4)):
        kp = n * k - k + 1
        seen = set()
        for t in range(kp):
            d = g_map(t, n, k)
            assert d.demand_class is DemandClass.D0
            assert f_map(d) == t
            seen.add(d.digits)
        assert len(seen) == kp


def test_labeling_errors():
    with pytest.raises(ValueError):
        g_map(4, 2, 3)
    with pytest.raises(ValueError):
        f_map(AuxDemand((1, 1, 0), 2))


# ------------------------------------------------------------ selector sets


def test_selector_table():
    for digits, (members, _, _) in TRANSMISSIONS.items():
        v = build_v(AuxDemand(digits, 2))
        assert set(v.members) == members, digits
        assert v.set_form == frozenset(members)
        assert len(v.bits) == 4


def test_selector_d0_is_label_indicator():
    for n, k in itertools.product((2, 3, 4), (1, 2, 3, 4)):
        for t in range(n * k - k + 1):
            d = g_map(t, n, k)
            assert build_v(d).members == (t,)


def test_selector_nonempty_always():
    for n, k in itertools.product((2, 3), (1, 2, 3)):
        for digits in all_demand_vectors(n, k):
            assert build_v(AuxDemand(digits, n)).members


# ------------------------------------------------------------------ segments


def test_segment_worked_examples():
    params, files = basis_library(2, 3, 2)
    d = AuxDemand((1, 1, 0), 2)
    for n in range(2):
        got = x_segment(files, d, SubsetIndex((2,), 4), n)
        assert got == xor_symbols(params, [(n, {0, 2}), (n, {1, 2})])
    d0 = AuxDemand((0, 0, 0), 2)
    for n in range(2):
        assert x_segment(files, d0, SubsetIndex((1,), 4), n) == symbol(params, n, {0, 1})
        # selector inside the index set: empty XOR, zero string
        assert x_segment(files, d0, SubsetIndex((0,), 4), n) == Bits.zeros(params.subfile_bits)


def test_segment_table_complete():
    params, files = basis_library(2, 3, 2)
    for digits, (_, _, columns) in TRANSMISSIONS.items():
        d = AuxDemand(digits, 2)
        for slot, pairs in columns.items():
            for n in range(2):
                got = x_segment(files, d, SubsetIndex((slot,), 4), n)
                assert got == xor_symbols(params, [(n, set(p)) for p in pairs]), (digits, slot, n)


def test_segment_size_validation():
    params, files = seeded_library(2, 3, 2)
    with pytest.raises(ValueError):
        x_segment(files, AuxDemand((0, 0, 0), 2), SubsetIndex((0, 1), 4), 0)


# ------------------------------------------------------------------ delivery


def test_delivery_matches_table_rows():
    params, files = basis_library(2, 3, 2)
    for digits, (members, t_d, columns) in TRANSMISSIONS.items():
        x = build_delivery(files, AuxDemand(digits, 2), t_d)
        assert x.t_d == t_d
        layout = delivered_segment_indices(params, t_d)
        assert len(x.segments) == len(layout)
        assert {s.members[0] for (_, s) in layout} == set(range(4)) - {t_d}
        for slot, pairs in columns.items():
            for n in range(2):
                got = payload_entry(x, (n, SubsetIndex((slot,), 4)))
                assert got == xor_symbols(params, [(n, set(p)) for p in pairs])


def test_delivery_d0_equals_direct_subfile_listing():
    # with t = label, a class-D0 broadcast is exactly the subfiles whose
    # index contains the label, one per (file, index) pair
    for n_files, k_users, r in [(2, 3, 2), (3, 2, 1), (2, 4, 2)]:
        params, files = basis_library(n_files, k_users, r)
        kp = params.positions
        for t in range(kp):
            d = g_map(t, n_files, k_users)
            x = build_delivery(files, d, t)
            got = sorted(x.segments)
            want = sorted(
                files.subfile(n, r_set).value
                for n in range(n_files)
                for r_set in enumerate_r_subsets(kp, r)
                if t in r_set
            )
            assert got == want, (n_files, k_users, r, t)


def test_delivery_segment_count_and_rate():
    for n, k, r in GRID:
        params, files = seeded_library(n, k, r, bits_per_subfile=2)
        d = AuxDemand(tuple([1] + [0] * (k - 1)), n)
        x = build_delivery(files, d, build_v(d).members[0])
        kp = params.positions
        assert len(x.segments) == n * binomial(kp - 1, r - 1)
        point = memory_rate_of(params)
        assert x.payload_bits == point.rate * params.file_bits


def test_delivery_rejects_bad_t():
    params, files = seeded_library(2, 3, 2)
    with pytest.raises(ValueError):
        build_delivery(files, AuxDemand((0, 0, 0), 2), 1)  # selector is {0}


def test_delivery_bytes_roundtrip():
    params, files = seeded_library(2, 3, 2, bits_per_subfile=3)
    for digits in all_demand_vectors(2, 3):
        d = AuxDemand(digits, 2)
        for t in build_v(d).members:
            x = build_delivery(files, d, t)
            back = DeliverySignal.from_bytes(params, x.to_bytes())
            assert back == x


# ------------------------------------------------------------------ recovery


def test_recover_worked_examples():
    params, files = basis_library(2, 3, 2)
    cases = [
        ((1, 1, 0), 0, [(0, 1), (0, 2)]),
        ((1, 0, 0), 0, [(0, 1), (0, 3)]),
        ((0, 1, 0), 0, [(0, 2), (0, 3)]),
        ((1, 0, 1), 1, [(1, 2), (1, 3)]),
    ]
    for digits, t_d, pairs in cases:
        x = build_delivery(files, AuxDemand(digits, 2), t_d)
        for n in range(2):
            got = payload_entry(x, (n, SubsetIndex((t_d,), 4)))
            assert got == xor_symbols(params, [(n, set(p)) for p in pairs])


def test_recover_zero_for_labeled_demand():
    params, files = basis_library(2, 3, 2)
    for t in range(4):
        d = g_map(t, 2, 3)
        x = build_delivery(files, d, t)
        for n in range(2):
            assert payload_entry(x, (n, SubsetIndex((t,), 4))) == Bits.zeros(params.subfile_bits)


@pytest.mark.parametrize("n,k,r", [(2, 3, 2), (3, 2, 1), (2, 4, 2), (3, 2, 2)])
def test_recover_equals_segment_everywhere(n, k, r):
    params, files = seeded_library(n, k, r, seed=9, bits_per_subfile=2)
    kp = params.positions
    for digits in all_demand_vectors(n, k):
        d = AuxDemand(digits, n)
        for t_d in build_v(d).members:
            x = build_delivery(files, d, t_d)
            for s in enumerate_r_subsets(kp, r - 1):
                for fi in range(n):
                    assert payload_entry(x, (fi, s)) == x_segment(files, d, s, fi)


def test_recover_passthrough_is_identical_object_value():
    params, files = seeded_library(2, 3, 2)
    d = AuxDemand((1, 1, 0), 2)
    x = build_delivery(files, d, 0)
    s = SubsetIndex((1,), 4)
    position = delivered_segment_indices(params, 0).index((0, s))
    assert payload_entry(x, (0, s)).value == x.segments[position]


# ----------------------------------------------------------------- placement


def test_place_matches_signal_layer():
    params, files = seeded_library(2, 3, 2, seed=4)
    rand = SessionRandomness(2, (0, 0, 1))
    caches = place(files, params, rand)
    for k, cache in enumerate(caches):
        assert cache.user == k
        assert cache.key == rand.keys[k]
        u = build_u_vector(2, 3, k, cache.key)
        assert cache.signals == yma_delivery(files, u)


def test_place_full_cache_at_r_zero():
    # r=0: each cache holds every file once, permuted by the key
    params, files = seeded_library(3, 2, 0, seed=1, bits_per_subfile=9)
    caches = place(files, params, SessionRandomness(3, (2, 0)))
    empty = SubsetIndex((), params.positions)
    for cache in caches:
        assert len(cache.signals) == 3
        for i in range(3):
            idx = SubsetIndex((i,), params.positions)
            assert payload_entry(cache, idx) == files.subfile((cache.key + i) % 3, empty)
    assert memory_rate_of(params).memory == 3


def test_place_key_only_at_maximal_split():
    params, files = seeded_library(2, 3, 4, seed=2, bits_per_subfile=5)
    caches = place(files, params, SessionRandomness(2, (1, 0, 1)))
    for cache in caches:
        assert cache.signals == ()
        assert cache.payload_bits == 0
    assert memory_rate_of(params).memory == 0


def test_cache_bytes_roundtrip():
    params, files = seeded_library(2, 3, 2, bits_per_subfile=4)
    for cache in place(files, params, SessionRandomness(2, (1, 0, 1))):
        back = CacheContent.from_bytes(params, cache.user, cache.to_bytes())
        assert back == cache


# ------------------------------------------------------------------ decoding


def test_decode_worked_example_constant_aux():
    # keys (0,0,1), demands (0,0,1): auxiliary demand (0,0,0); user 1
    # recovers subfile {1,2} of file 0 from one signal and two segments
    params, files = basis_library(2, 3, 2)
    keys = (0, 0, 1)
    demands = (0, 0, 1)
    caches = place(files, params, SessionRandomness(2, keys))
    d = aux_demand(demands, keys, 2)
    assert d.digits == (0, 0, 0)
    x = build_delivery(files, d, 0)
    y = payload_entry(caches[1], SubsetIndex((0, 1, 2), 4))
    piece = y ^ payload_entry(x, (1, SubsetIndex((2,), 4))) ^ payload_entry(x, (0, SubsetIndex((1,), 4)))
    assert piece == symbol(params, 0, {1, 2})
    # and the full decode returns the whole demanded file
    assert decode(caches[1], x, 1, demands[1]) == files.files[0]


def test_decode_worked_example_composite_aux():
    # keys (0,0,1), demands (0,1,1): auxiliary demand (0,1,0); user 1
    # needs two signals plus one direct and one recovered segment
    params, files = basis_library(2, 3, 2)
    keys = (0, 0, 1)
    demands = (0, 1, 1)
    caches = place(files, params, SessionRandomness(2, keys))
    d = aux_demand(demands, keys, 2)
    assert d.digits == (0, 1, 0)
    x = build_delivery(files, d, 0)
    # the recovered slot-0 segment equals the two-subfile XOR
    for n in range(2):
        assert payload_entry(x, (n, SubsetIndex((0,), 4))) == xor_symbols(
            params, [(n, {0, 2}), (n, {0, 3})]
        )
    y1 = payload_entry(caches[1], SubsetIndex((0, 1, 2), 4))
    y2 = payload_entry(caches[1], SubsetIndex((0, 1, 3), 4))
    piece = (
        y1
        ^ y2
        ^ payload_entry(x, (0, SubsetIndex((1,), 4)))
        ^ payload_entry(x, (1, SubsetIndex((0,), 4)))
    )
    assert piece == symbol(params, 1, {0, 1})
    assert decode(caches[1], x, 1, demands[1]) == files.files[1]


def test_decode_zero_files_gives_zero():
    params = SchemeParams.minimal(2, 3, 2, 2)
    files = FileLibrary(params, (Bits.zeros(12), Bits.zeros(12)))
    caches = place(files, params, SessionRandomness(2, (1, 0, 0)))
    d = aux_demand((1, 1, 0), (1, 0, 0), 2)
    x = build_delivery(files, d, 2)
    for k in range(3):
        assert decode(caches[k], x, k, (d.digits[k] + caches[k].key) % 2) == Bits.zeros(12)


@pytest.mark.parametrize("n,k,r", [(2, 3, 2), (3, 2, 1), (2, 4, 2), (2, 1, 1), (3, 1, 2), (2, 3, 4), (3, 2, 0)])
def test_decode_end_to_end(n, k, r):
    params, files = seeded_library(n, k, r, seed=21, bits_per_subfile=3)
    rng = random.Random(17)
    for _ in range(4):
        keys = tuple(rng.randrange(n) for _ in range(k))
        demands = tuple(rng.randrange(n) for _ in range(k))
        caches = place(files, params, SessionRandomness(n, keys))
        d = aux_demand(demands, keys, n)
        members = build_v(d).members
        x = build_delivery(files, d, members[rng.randrange(len(members))])
        for user in range(k):
            assert decode(caches[user], x, user, demands[user]) == files.files[demands[user]]


def test_decode_error_cases():
    params, files = seeded_library(2, 3, 2)
    caches = place(files, params, SessionRandomness(2, (0, 0, 0)))
    d = aux_demand((1, 0, 0), (0, 0, 0), 2)
    x = build_delivery(files, d, 0)
    with pytest.raises(ValueError):
        decode(caches[0], x, 1, 1)  # wrong user for this cache
    with pytest.raises(ValueError):
        decode(caches[0], x, 0, 0)  # demand inconsistent with key and aux digit


# ----------------------------------------------------------- rate accounting


def test_memory_rate_worked_values():
    from privcache.tradeoff import RatePoint

    assert memory_rate_of(SchemeParams(2, 3, 2, 6)) == RatePoint(Fraction(2, 3), Fraction(1))
    p = memory_rate_of(SchemeParams(2, 3, 3, 4))
    assert (p.memory, p.rate) == (Fraction(1, 4), Fraction(3, 2))
    for n, k in [(2, 3), (3, 2), (4, 4)]:
        p0 = memory_rate_of(SchemeParams.minimal(n, k, 0))
        assert (p0.memory, p0.rate) == (n, 0)
        kp = n * k - k + 1
        pmax = memory_rate_of(SchemeParams.minimal(n, k, kp))
        assert (pmax.memory, pmax.rate) == (0, n)


def test_exact_size_accounting_on_grid():
    for n, k, r in GRID:
        params, files = seeded_library(n, k, r, seed=31, bits_per_subfile=2)
        point = memory_rate_of(params)
        caches = place(files, params, SessionRandomness(n, ((k % n),) * k))
        for cache in caches:
            assert cache.payload_bits == point.memory * params.file_bits


# ---------------------------------------------------------------- randomness


def test_session_randomness_reproducible():
    params = SchemeParams.minimal(2, 3, 2)
    a = SessionRandomness.from_seed(params, 123)
    b = SessionRandomness.from_seed(params, 123)
    assert a.keys == b.keys
    d = AuxDemand((1, 1, 0), 2)
    assert [a.choose_t(d) for _ in range(8)] == [b.choose_t(d) for _ in range(8)]


def test_session_randomness_streams_independent():
    # the t stream depends on the seed alone, not on the key digits
    params = SchemeParams.minimal(2, 3, 2)
    d = AuxDemand((1, 1, 0), 2)
    a = SessionRandomness.from_seed(params, 9)
    b = SessionRandomness(2, (0, 0, 0), seed=9)
    assert [a.choose_t(d) for _ in range(6)] == [b.choose_t(d) for _ in range(6)]


def test_session_randomness_pinning():
    rand = SessionRandomness(2, (0, 1, 0), t_choices={(1, 1, 0): 2})
    assert rand.choose_t(AuxDemand((1, 1, 0), 2)) == 2
    with pytest.raises(ValueError):
        SessionRandomness(2, (0, 1, 0), t_choices={(0, 0, 0): 3}).choose_t(AuxDemand((0, 0, 0), 2))
    with pytest.raises(ValueError):
        SessionRandomness(2, (0, 1, 0)).choose_t(AuxDemand((1, 1, 0), 2))  # no seed, no pin


def test_session_randomness_key_validation():
    with pytest.raises(ValueError):
        SessionRandomness(2, (0, 2, 0))


def test_assemble_delivery_uses_chosen_t():
    params, files = seeded_library(2, 3, 2)
    rand = SessionRandomness(2, (0, 0, 0), t_choices={(0, 1, 0): 3})
    x = assemble_delivery(files, AuxDemand((0, 1, 0), 2), rand)
    assert x.t_d == 3


# ---------------------------------------------------------- demand identity


def test_demand_identity_on_random_files():
    # XOR over the selector's labeled demands reproduces the demanded file,
    # both raw and key-shifted
    for n, k in [(2, 3), (3, 2), (3, 3)]:
        params, files = seeded_library(n, k, 1, seed=77, bits_per_subfile=2)
        for digits in all_demand_vectors(n, k):
            d = AuxDemand(digits, n)
            labeled = [g_map(t, n, k) for t in build_v(d).members]
            for user in range(k):
                for shift in range(n):
                    acc = Bits.zeros(params.file_bits)
                    for ld in labeled:
                        acc = acc ^ files.files[(ld.digits[user] + shift) % n]
                    assert acc == files.files[(digits[user] + shift) % n]


# ------------------------------------------------------------- wire parsing


@pytest.mark.parametrize("r", [0, 2])
def test_wire_rejects_truncated_blobs(r):
    params, files = seeded_library(2, 3, r)
    cache_blob = place(files, params, SessionRandomness(2, (1, 0, 1)))[0].to_bytes()
    x_blob = build_delivery(files, AuxDemand((0, 0, 0), 2), 0).to_bytes()
    for cut in range(len(cache_blob)):
        with pytest.raises(ValueError):
            CacheContent.from_bytes(params, 0, cache_blob[:cut])
    for cut in range(len(x_blob)):
        with pytest.raises(ValueError):
            DeliverySignal.from_bytes(params, x_blob[:cut])


def test_wire_rejects_out_of_range_digits():
    params, files = seeded_library(2, 3, 2)
    cache = place(files, params, SessionRandomness(2, (1, 0, 1)))[0]
    blob = cache.to_bytes()
    for key in (2, 5, 255):
        with pytest.raises(ValueError):
            CacheContent.from_bytes(params, 0, bytes([key]) + blob[1:])
    blob = build_delivery(files, AuxDemand((0, 0, 0), 2), 0).to_bytes()
    with pytest.raises(ValueError):
        DeliverySignal.from_bytes(params, bytes([5]) + blob[1:])


def test_wire_headers_fill_every_field_to_its_limit():
    assert delivery_header((0, 1, 255), 0xFFFF, 2**32 - 1) == bytes((0, 1, 255)) + b"\xff" * 6
    assert cache_header(255, 2**32 - 1) == b"\xff" * 5
    assert cache_header(0, 0) == bytes(5)


@pytest.mark.parametrize(
    "encode, field",
    [
        (lambda: delivery_header((0, 256, 1), 0, 8), "demand digit 256"),
        (lambda: delivery_header((0, -1, 1), 0, 8), "demand digit -1"),
        (lambda: delivery_header((0, 1), 2**16, 8), "t_d 65536"),
        (lambda: delivery_header((0, 1), 0, 2**32), "payload_bits 4294967296"),
        (lambda: cache_header(256, 8), "key digit 256"),
        (lambda: cache_header(1, 2**32), "payload_bits 4294967296"),
    ],
)
def test_wire_headers_name_fields_that_do_not_fit(encode, field):
    with pytest.raises(ValueError, match=field):
        encode()


def test_decode_rejects_out_of_range_user_and_key():
    params, files = seeded_library(2, 3, 2)
    d = aux_demand((1, 0, 0), (0, 0, 0), 2)
    x = build_delivery(files, d, 0)
    cache = place(files, params, SessionRandomness(2, (0, 0, 0)))[0]
    with pytest.raises(ValueError):
        decode(CacheContent(0, 2, cache.signals, params), x, 0, 1)
    with pytest.raises(ValueError):
        decode(CacheContent(-1, 0, cache.signals, params), x, -1, 0)


def test_decode_rejects_wrong_size_payloads():
    params, files = seeded_library(2, 3, 2)
    x = build_delivery(files, aux_demand((1, 0, 0), (0, 0, 0), 2), 0)
    cache = place(files, params, SessionRandomness(2, (0, 0, 0)))[0]
    assert decode(cache, x, 0, 1) == files.files[1]
    for signals in (cache.signals[:-1], cache.signals + (0,)):
        with pytest.raises(ValueError, match="signals, expected 4"):
            decode(CacheContent(0, 0, signals, params), x, 0, 1)
    for segments in (x.segments[:-1], x.segments + (0,)):
        with pytest.raises(ValueError, match="segments, expected 6"):
            decode(cache, DeliverySignal(x.aux, x.t_d, segments, params), 0, 1)


def test_cache_from_bytes_rejects_users_outside_k():
    params, files = seeded_library(2, 3, 2)
    blob = place(files, params, SessionRandomness(2, (1, 0, 1)))[2].to_bytes()
    assert CacheContent.from_bytes(params, 2, blob).user == 2
    for user in (3, 99, -1):
        with pytest.raises(ValueError, match=f"user {user} out of range for 3 users"):
            CacheContent.from_bytes(params, user, blob)


def test_decode_names_a_user_outside_k():
    params, files = seeded_library(2, 3, 2)
    x = build_delivery(files, aux_demand((1, 0, 0), (0, 0, 0), 2), 0)
    cache = place(files, params, SessionRandomness(2, (0, 0, 0)))[0]
    stray = CacheContent(99, 0, cache.signals, params)
    with pytest.raises(ValueError, match="user 99 out of range for 3 users"):
        decode(stray, x, 99, 1)
