"""The privacy engine against its weight-map oracle, and its masking.

`verify._privacy` passes a run whose per-digit rotations all hold the
same multiset without enumerating it; otherwise it compares each
completion's histogram as a sorted list of cell ids and weighs outcome
bytes only when two lists differ.  `helpers.weight_map_privacy` weighs
every completion.  Both must give the same report for every engine,
masked and unmasked, also when wire headers collide, which only the
weight maps can see.  A header fault changes no cell id, so it reaches
the weight maps through the unmasked control; a masking that is not a
bijection sends masked runs there too.
"""

import itertools

import pytest

from helpers import seeded_library, weight_map_privacy
from privcache import verify
from privcache.scheme import aux_demand
from privcache.verify import (
    CONDITIONAL,
    FULL_MARGINAL,
    _all_digit_vectors,
    _masked,
    _rotation,
    verify_distribution_lemma,
    verify_privacy,
)

INSTANCES = [(2, 2, 1), (2, 3, 2), (3, 2, 1), (2, 4, 1), (3, 3, 1)]


def conditional(params, files, masked):
    return verify_privacy(params, CONDITIONAL, masked=masked)


def lemma1(params, files, masked):
    return verify_distribution_lemma(params, masked=masked)


def full_marginal(params, files, masked):
    return verify_privacy(params, FULL_MARGINAL, masked=masked)


def strip_aux_digits(headers):
    """Broadcast headers without their aux digits: demands with different
    selector sets (and so different t weights) share outcomes."""

    def faulty(params):
        broadcasts, caches = headers(params)
        k = params.num_users
        return {d: {t: x[k:] for t, x in ts.items()} for d, ts in broadcasts.items()}, caches

    return faulty


def mark_one_t(headers):
    """Broadcast headers that only say whether t is its selector set's
    first member: every other t of every demand shares one outcome."""

    def faulty(params):
        broadcasts, caches = headers(params)
        marked = {d: {t: bytes([t == min(ts)]) for t in ts} for d, ts in broadcasts.items()}
        return marked, caches

    return faulty


def report(engine, params, files, masked):
    got = engine(params, files, masked)
    return got.scope, got.cases_run, got.failures


@pytest.mark.parametrize("fault", [None, strip_aux_digits, mark_one_t], ids=["headers", "stripped", "marked"])
@pytest.mark.parametrize("masked", [True, False], ids=["masked", "unmasked"])
@pytest.mark.parametrize("engine", [conditional, lemma1, full_marginal])
@pytest.mark.parametrize("instance", INSTANCES, ids=lambda nkr: "-".join(map(str, nkr)))
def test_engine_reports_what_the_weight_map_oracle_reports(instance, engine, masked, fault, monkeypatch):
    params, files = seeded_library(*instance, seed=20, bits_per_subfile=1)
    if fault is not None:
        monkeypatch.setattr(verify, "_headers", fault(verify._headers))
    got = report(engine, params, files, masked)
    monkeypatch.setattr(verify, "_privacy", weight_map_privacy)
    assert got == report(engine, params, files, masked)


@pytest.mark.parametrize("engine", [conditional, lemma1, full_marginal])
@pytest.mark.parametrize("instance", INSTANCES, ids=lambda nkr: "-".join(map(str, nkr)))
def test_repeated_cells_weigh_as_often_as_they_are_sent(instance, engine, monkeypatch):
    # a masking that is not a bijection puts some cells on the air more
    # than once, and how often differs between completions; the factor
    # check, the enumeration and the oracle's `_masked` all read it
    def lossy(digit, n):
        return [max(digit - s, 0) for s in range(n)]

    monkeypatch.setattr(verify, "_rotation", lossy)
    n, k, _ = instance
    top = (n - 1,) * k
    assert list(verify._masked(top, n)) == list(itertools.product(lossy(n - 1, n), repeat=k))
    params, files = seeded_library(*instance, seed=20, bits_per_subfile=1)
    got = report(engine, params, files, True)
    assert got[2]
    assert got[1] == k * n**k
    monkeypatch.setattr(verify, "_privacy", weight_map_privacy)
    assert got == report(engine, params, files, True)


@pytest.mark.parametrize("fault", [None, strip_aux_digits], ids=["headers", "stripped"])
@pytest.mark.parametrize("engine", [conditional, lemma1, full_marginal])
@pytest.mark.parametrize("instance", INSTANCES, ids=lambda nkr: "-".join(map(str, nkr)))
def test_a_masking_of_digit_zero_alone_is_weighed_cell_by_cell(instance, engine, fault, monkeypatch):
    # the reference completion (every other demand 0) sends one cell per key
    # vector, the others fewer cells more often: some of the reference's
    # outcomes are missing from each other histogram, and with the aux digits
    # stripped, outcomes of selector sets of different sizes collide, so the
    # counts hang on each cell's 1/|V| weight
    def zero_only(digit, n):
        return [(digit - s) % n for s in range(n)] if digit == 0 else [digit] * n

    monkeypatch.setattr(verify, "_rotation", zero_only)
    if fault is not None:
        monkeypatch.setattr(verify, "_headers", fault(verify._headers))
    params, files = seeded_library(*instance, seed=20, bits_per_subfile=1)
    got = report(engine, params, files, True)
    assert got[2]
    monkeypatch.setattr(verify, "_privacy", weight_map_privacy)
    assert got == report(engine, params, files, True)


def test_colliding_headers_are_judged_by_their_bytes(monkeypatch):
    # unmasked, every completion's cells differ from the reference's, so each
    # one is weighed: with the aux digits stripped, fewer outcomes differ than
    # with whole headers; with one t marked, some completions weigh the same
    params, files = seeded_library(2, 3, 2, seed=20, bits_per_subfile=1)
    headers = verify._headers

    def differing(fault):
        monkeypatch.setattr(verify, "_headers", fault(headers))
        failures = conditional(params, files, False).failures
        return len(failures), sum(int(actual.split()[0]) for _, _, actual in failures)

    assert differing(lambda h: h) == (18, 136)
    assert differing(strip_aux_digits) == (18, 96)
    assert differing(mark_one_t) == (10, 40)


@pytest.mark.parametrize("engine", [conditional, lemma1, full_marginal])
@pytest.mark.parametrize("instance", [nkr for nkr in INSTANCES if nkr[0] >= 3], ids=lambda nkr: "-".join(map(str, nkr)))
def test_equal_digit_sets_sent_unequally_often_fail_the_factor_check(instance, engine, monkeypatch):
    # every digit reaches the aux digits {0, 1}, but 0 sends 1 twice and the
    # others send 0 twice: the factor check compares multisets, not sets
    def uneven(digit, n):
        return [min(s, 1) for s in range(n)] if digit == 0 else [int(s == n - 1) for s in range(n)]

    monkeypatch.setattr(verify, "_rotation", uneven)
    params, files = seeded_library(*instance, seed=20, bits_per_subfile=1)
    got = report(engine, params, files, True)
    assert got[2]
    monkeypatch.setattr(verify, "_privacy", weight_map_privacy)
    assert got == report(engine, params, files, True)


@pytest.mark.parametrize("instance", INSTANCES, ids=lambda nkr: "-".join(map(str, nkr)))
def test_any_per_digit_bijection_passes_the_factor_check(instance, monkeypatch):
    # (d + s) mod N is not the scheme's masking, but it rotates every digit
    # through every value, so the factor check passes it as the oracle does
    monkeypatch.setattr(verify, "_rotation", lambda digit, n: [(digit + s) % n for s in range(n)])
    params, files = seeded_library(*instance, seed=20, bits_per_subfile=1)
    for engine in (conditional, lemma1, full_marginal):
        got = report(engine, params, files, True)
        assert not got[2]
        with monkeypatch.context() as m:
            m.setattr(verify, "_privacy", weight_map_privacy)
            assert got == report(engine, params, files, True)


@pytest.mark.parametrize("n, k", [(1, 1), (1, 3), (2, 1), (2, 4), (3, 1), (3, 3), (4, 2), (5, 2)])
def test_masking_is_the_schemes_aux_demand(n, k):
    keys = _all_digit_vectors(n, k)
    for d in range(n):
        assert _rotation(d, n) == [aux_demand((d,), (s,), n).digits[0] for s in range(n)]
    for demands in itertools.product(range(n), repeat=k):
        want = [aux_demand(demands, s, n).digits for s in keys]
        assert list(_masked(demands, n)) == want
        assert list(itertools.product(*[_rotation(d, n) for d in demands])) == want
