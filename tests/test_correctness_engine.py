"""The correctness engine against its sweep oracle, over every library and at its caps.

`verify.verify_correctness_exhaustive` checks each (aux digits, t, user,
key digit) decode once; `helpers.sweep_correctness` reads a decode table
once per (demand vector, key vector, t-choice, user) tuple.  They must
agree on scope, case count and the failure list, failures in sweep order.
"""

import itertools

import pytest

from helpers import basis_library, seeded_library, sweep_correctness
from privcache import verify
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


def report(engine, params, files, mutate=None):
    got = engine(params, files, mutate)
    return got.scope, got.cases_run, got.failures


@pytest.mark.parametrize("mutation", [None, one_broadcast, one_t], ids=["intact", "one-broadcast", "one-t"])
@pytest.mark.parametrize("instance", INSTANCES, ids=lambda nkr: "-".join(map(str, nkr)))
def test_engine_matches_the_sweep(instance, mutation):
    params, files = seeded_library(*instance, seed=8)
    mutate = None if mutation is None else mutation(instance[1])
    want = report(sweep_correctness, params, files, mutate)
    assert report(verify_correctness_exhaustive, params, files, mutate) == want
    assert bool(want[2]) == (mutation is not None)


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
