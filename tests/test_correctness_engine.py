"""The correctness engine against its sweep oracle, over every library and at its caps.

`verify.verify_correctness_exhaustive` runs each (aux digits, user, key
digit) decode once per distinct segment expansion among the t-choices;
`helpers.sweep_correctness` reads a decode table once per (demand vector,
key vector, t-choice, user) tuple.  They must agree on scope, case count
and the failure list, failures in sweep order.
"""

import itertools

import pytest

from helpers import basis_library, seeded_library, sweep_correctness
from privcache import scheme, verify
from privcache.bitvec import Bits
from privcache.scheme import AuxDemand, DeliverySignal, FileLibrary, SchemeParams
from privcache.verify import ScaleLimitError, verify_correctness_exhaustive

INSTANCES = [(2, 1, 1), (2, 3, 2), (3, 2, 2), (3, 3, 1), (4, 2, 1)]


def flip_first_segment(x: DeliverySignal) -> DeliverySignal:
    segments = list(x.segments)
    segments[0] ^= 1
    return DeliverySignal(x.aux, x.t_d, tuple(segments), x.params)


def one_broadcast(k):
    """Corrupt the broadcasts of one aux digit vector: (1, 1, 0) at K = 3,
    the target of `test_correctness_detects_corrupted_segment`."""
    target = (1,) * (k - 1) + (0,)
    return lambda x: flip_first_segment(x) if x.aux.digits == target else x


def one_t(k):
    """Corrupt every broadcast sent with t_d = 1."""
    return lambda x: flip_first_segment(x) if x.t_d == 1 else x


def target(k):
    """(1, ..., 1, 0): three t's in its selector set at K >= 2, one at K = 1."""
    return (1,) * (k - 1) + (0,)


def one_digits_t(k):
    """Corrupt the broadcast of (1, ..., 1, 0) sent with the last t of its
    selector set; its other t's stay intact."""
    return lambda x: flip_first_segment(x) if x.aux.digits == target(k) and x.t_d == x.aux.selector[-1] else x


def relabelled_t(k):
    """Send the segments of (1, ..., 1, 0)'s first t under its second t.

    No fault at K = 1, where every selector set holds one t, nor at r = 1,
    where the one segment per file, at the empty set, avoids every t."""

    def relabel(x):
        if x.aux.digits == target(k) and len(x.aux.selector) > 1 and x.t_d == x.aux.selector[0]:
            return DeliverySignal(x.aux, x.aux.selector[1], x.segments, x.params)
        return x

    return relabel


def report(engine, params, files, mutate=None):
    got = engine(params, files, mutate)
    return got.scope, got.cases_run, got.failures


@pytest.mark.parametrize(
    "mutation",
    [None, one_broadcast, one_t, one_digits_t, relabelled_t],
    ids=["intact", "one-broadcast", "one-t", "one-digits-t", "relabelled-t"],
)
@pytest.mark.parametrize("instance", INSTANCES, ids=lambda nkr: "-".join(map(str, nkr)))
def test_engine_matches_the_sweep(instance, mutation):
    params, files = seeded_library(*instance, seed=8)
    mutate = None if mutation is None else mutation(instance[1])
    want = report(sweep_correctness, params, files, mutate)
    assert report(verify_correctness_exhaustive, params, files, mutate) == want
    _, k, r = instance
    benign = mutation is relabelled_t and (k == 1 or r == 1)
    assert bool(want[2]) == (mutation is not None and not benign)


@pytest.mark.parametrize("mutation, pick", [(one_digits_t, -1), (relabelled_t, 0)], ids=["one-digits-t", "relabelled-t"])
@pytest.mark.parametrize("instance", [(2, 3, 2), (3, 2, 2), (3, 3, 2)], ids=lambda nkr: "-".join(map(str, nkr)))
def test_only_the_corrupted_t_fails(instance, mutation, pick):
    # the other t's of (1, ..., 1, 0) keep the intact expansion and form a
    # group of their own, so they pass
    n, k = instance[:2]
    params, files = seeded_library(*instance, seed=8)
    corrupted = AuxDemand(target(k), n).selector[pick]
    failures = verify_correctness_exhaustive(params, files, mutation(k)).failures
    assert failures
    assert {t for (_, _, t, _), _, _ in failures} == {corrupted}
    assert {tuple((d - s) % n for d, s in zip(demands, keys)) for (demands, keys, _, _), _, _ in failures} == {target(k)}


def count_decodes(monkeypatch) -> list:
    """Record every run of the decode loop, `scheme._xor_decode`."""
    calls = []
    kernel = scheme._xor_decode

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(scheme, "_xor_decode", counted)
    return calls


@pytest.mark.parametrize("instance", [(2, 3, 2), (3, 2, 2)], ids=lambda nkr: "-".join(map(str, nkr)))
def test_one_decode_per_distinct_expansion(monkeypatch, instance):
    # intact, every t of an aux digit vector sends the same expansion: one
    # decode per (digits, user, key digit), N^K * K * N, against the
    # sweep's N^K * |V| * K * N
    n, k = instance[:2]
    params, files = seeded_library(*instance, seed=8)
    calls = count_decodes(monkeypatch)
    assert verify_correctness_exhaustive(params, files).passed
    assert len(calls) == n**k * k * n
    # one_t splits the corrupted t = 1 broadcast off every selector set that
    # holds 1 and another t: K * N more decodes each
    selectors = [AuxDemand(d, n).selector for d in itertools.product(range(n), repeat=k)]
    split = sum(1 in selector and len(selector) > 1 for selector in selectors)
    assert split
    calls.clear()
    assert verify_correctness_exhaustive(params, files, one_t(k)).failures
    assert len(calls) == (n**k + split) * k * n


def test_decode_runs_the_same_loop(monkeypatch):
    params, files = seeded_library(2, 3, 2, seed=8)
    caches = verify._caches_by_key(params, files)
    x = verify._deliveries(params, files)[((1, 1, 0), 2)]
    calls = count_decodes(monkeypatch)
    assert scheme.decode(caches[(0, 1)], x, 0, 0) == files.files[0]
    assert len(calls) == 1
    # the broadcast enters the loop as its selector and expansion alone
    assert calls[0] == (caches[(0, 1)], x.aux.selector, x.segment_values)


def expected_cases(n, k):
    selectors = sum(len(AuxDemand(d, n).selector) for d in itertools.product(range(n), repeat=k))
    return n**k * selectors * k


@pytest.mark.parametrize(
    "instance", [(2, 3, 2), (3, 2, 2), (2, 4, 1), (4, 2, 1)], ids=lambda nkr: "-".join(map(str, nkr))
)
def test_every_one_bit_subfile_library_decodes(instance):
    # each basis subfile is a one-hot mask of the 1-bit-subfile library's
    # bits and decoding is GF(2)-linear, so a pass covers every such library
    params, basis = basis_library(*instance)
    got = verify_correctness_exhaustive(params, basis)
    assert got.passed
    assert got.cases_run == expected_cases(*instance[:2])
    corrupted = verify_correctness_exhaustive(params, basis, one_broadcast(instance[1]))
    assert corrupted.failures
    assert corrupted.failures == sweep_correctness(params, basis, one_broadcast(instance[1])).failures


def test_a_failing_check_stands_for_its_preimages():
    # (2,3,2): each failing (a, t, k, s) check is reported as its
    # N^(K-1) = 4 (D, S, t, k) tuples, all masking to a
    params, files = seeded_library(2, 3, 2, seed=8)
    failures = verify_correctness_exhaustive(params, files, one_broadcast(3)).failures
    assert len(failures) % 4 == 0
    assert [f[0] for f in failures] == sorted(f[0] for f in failures)
    checks = {
        (tuple((d - s) % 2 for d, s in zip(demands, keys)), t, k, keys[k])
        for (demands, keys, t, k), _, _ in failures
    }
    assert len(failures) == 4 * len(checks)
    assert {digits for digits, _, _, _ in checks} == {(1, 1, 0)}


class Built(Exception):
    """Raised in place of the first cache the engine would place."""


def refuse_building(monkeypatch):
    def built(*args):
        raise Built

    monkeypatch.setattr(verify, "_caches_by_key", built)
    monkeypatch.setattr(verify, "_deliveries", built)


def zero_library(params):
    return FileLibrary(params, tuple(Bits.zeros(params.file_bits) for _ in range(params.num_files)))


@pytest.mark.parametrize("n, k, r", [(2, 9, 2), (2, 10, 1), (2, 15, 0)])
def test_the_guards_admit_runs_past_the_old_enumeration_cap(monkeypatch, n, k, r):
    # (2,10,1) would sweep 57,671,680 tuples; it makes 225,280 decodes at most
    refuse_building(monkeypatch)
    params = SchemeParams.minimal(n, k, r)
    with pytest.raises(Built):
        verify_correctness_exhaustive(params, zero_library(params))


def test_decode_calls_are_capped_as_cases(monkeypatch):
    # r = 0: one subfile per decode, so (2,16,0)'s 35,651,584 decode calls
    # pass the decode-work cap but not the case cap
    refuse_building(monkeypatch)
    params = SchemeParams.minimal(2, 16, 0)
    assert verify._correctness_work(params) == 35_651_584 <= verify._DECODE_WORK_CAP
    with pytest.raises(ScaleLimitError, match=r"correctness check of ~35651584 cases exceeds the cap"):
        verify_correctness_exhaustive(params, zero_library(params))


@pytest.mark.parametrize(
    "digits, bits, message",
    [
        ((1, 1, 1), 1, "demand 0 inconsistent with key 0 and auxiliary digit 1"),
        ((1, 1, 0), 2, "broadcast was built under different parameters"),
    ],
    ids=["other-aux-digits", "other-parameters"],
)
def test_a_foreign_broadcast_is_refused_inside_a_group(digits, bits, message):
    # over zero libraries every expansion is zero, so the foreign broadcast
    # sent in (1, 1, 0)'s last t slot matches its slot's other expansions;
    # it must still be checked as a decode of its own
    params = SchemeParams.minimal(2, 3, 2)
    files = zero_library(params)
    wide = SchemeParams.minimal(2, 3, 2, bits)
    foreign = next(x for (d, _), x in verify._deliveries(wide, zero_library(wide)).items() if d == digits)

    def send_foreign(x):
        return foreign if x.aux.digits == (1, 1, 0) and x.t_d == x.aux.selector[-1] else x

    for engine in (sweep_correctness, verify_correctness_exhaustive):
        with pytest.raises(ValueError, match=message):
            engine(params, files, send_foreign)
