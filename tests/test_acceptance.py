"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a single [acceptance] PASS/FAIL line (visible with
``pytest -s`` or ``-rA``) and asserts the criterion at its exact
tolerance -- bit equality for scheme outputs, rational equality for
distributions and region arithmetic, plus the stated runtime budgets.
"""

import itertools
import subprocess
import sys
import time
from fractions import Fraction

from helpers import (
    basis_library,
    converse_value,
    envelope_value,
    payload_entry,
    scheme_point,
    seeded_library,
    xor_symbols,
)
from privcache import tradeoff
from privcache.reference import SubsetIndex, enumerate_r_subsets, x_segment
from privcache.scheme import (
    AuxDemand,
    SchemeParams,
    SessionRandomness,
    build_delivery,
    build_v,
    place,
)
from privcache.tradeoff import tight_intervals, tightness_rows
from privcache.verify import (
    CONDITIONAL,
    FULL_MARGINAL,
    oracle_demand_identity,
    oracle_y_reconstruction,
    verify_correctness_exhaustive,
    verify_distribution_lemma,
    verify_privacy,
)
from privcache.yma import build_u_vector

F = Fraction

GRID = [(2, 2, 1), (2, 3, 1), (2, 3, 2), (2, 3, 3), (2, 4, 2), (3, 2, 1), (3, 3, 1), (3, 3, 2)]

U_TABLE = {
    (0, 0): (0, 1, 0, 0),
    (1, 0): (0, 1, 0, 1),
    (2, 0): (0, 1, 1, 1),
    (0, 1): (1, 0, 1, 1),
    (1, 1): (1, 0, 1, 0),
    (2, 1): (1, 0, 0, 0),
}

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


def _criterion(number, name, problems, elapsed, budget):
    ok = not problems and elapsed < budget
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {status} {number}. {name} ({elapsed:.2f}s < {budget}s)")
    assert not problems, f"criterion {number} ({name}): {problems[:5]}"
    assert elapsed < budget, f"criterion {number} over budget: {elapsed:.2f}s >= {budget}s"


def test_criterion_1_golden_example_reproduction():
    start = time.perf_counter()
    problems = []
    for (user, key), entries in U_TABLE.items():
        got = build_u_vector(2, 3, user, key).entries
        if got != entries:
            problems.append(("u-vector", user, key, got))
    params, files = basis_library(2, 3, 2)
    for digits, (members, t_d, columns) in TRANSMISSIONS.items():
        d = AuxDemand(digits, 2)
        if set(build_v(d).members) != members:
            problems.append(("selector", digits, build_v(d).members))
        x = build_delivery(files, d, t_d)
        for slot, pairs in columns.items():
            for n in range(2):
                want = xor_symbols(params, [(n, set(p)) for p in pairs])
                if payload_entry(x, (n, SubsetIndex((slot,), 4))) != want:
                    problems.append(("segment", digits, slot, n))
    _criterion(1, "golden example reproduction", problems, time.perf_counter() - start, 1.0)


def test_criterion_2_exhaustive_correctness():
    start = time.perf_counter()
    problems = []
    for i, (n, k, r) in enumerate(GRID):
        params, files = seeded_library(n, k, r, seed=100 + i, bits_per_subfile=1)
        report = verify_correctness_exhaustive(params, files)
        if not report.passed:
            problems.append(((n, k, r), len(report.failures)))
    _criterion(2, "exhaustive correctness on the grid", problems, time.perf_counter() - start, 60.0)


def test_criterion_3_exact_privacy():
    start = time.perf_counter()
    problems = []
    params = SchemeParams.minimal(2, 3, 2, 5)
    if not verify_privacy(params, CONDITIONAL).passed:
        problems.append("conditional mode failed")
    minimal = SchemeParams.minimal(2, 3, 2)
    if not verify_privacy(minimal, FULL_MARGINAL).passed:
        problems.append("full-marginal mode failed")
    if verify_privacy(params, CONDITIONAL, masked=False).passed:
        problems.append("unmasked negative control did not fail")
    _criterion(3, "exact privacy at (2,3,2)", problems, time.perf_counter() - start, 120.0)


def test_criterion_4_distribution_lemma():
    start = time.perf_counter()
    problems = []
    for n, k, r in [(2, 2, 1), (2, 3, 2)]:
        params = SchemeParams.minimal(n, k, r, 2)
        if not verify_distribution_lemma(params).passed:
            problems.append((n, k, r))
    _criterion(4, "joint distribution equality", problems, time.perf_counter() - start, 60.0)


def test_criterion_5_rate_memory_accounting():
    start = time.perf_counter()
    problems = []
    for n, k, r in GRID + [(2, 3, 0), (2, 3, 4), (3, 2, 0), (3, 2, 5)]:
        params, files = seeded_library(n, k, r, seed=400, bits_per_subfile=2)
        point = scheme_point(params.num_files, params.num_users, params.r)
        for key in range(n):
            caches = place(files, params, SessionRandomness(n, (key,) * k))
            if any(c.payload_bits != point.memory * params.file_bits for c in caches):
                problems.append(("cache size", n, k, r, key))
        for digits in itertools.product(range(n), repeat=k):
            d = AuxDemand(digits, n)
            for t in build_v(d).members:
                x = build_delivery(files, d, t)
                if x.payload_bits != point.rate * params.file_bits:
                    problems.append(("delivery size", n, k, r, digits, t))
    sample = scheme_point(2, 3, 2)
    if (sample.memory, sample.rate) != (F(2, 3), F(1)):
        problems.append(("(2,3,2) point", sample))
    for n, k in [(2, 3), (3, 2)]:
        kp = n * k - k + 1
        p0 = scheme_point(n, k, 0)
        pm = scheme_point(n, k, kp)
        if (p0.memory, p0.rate) != (F(n), F(0)) or (pm.memory, pm.rate) != (F(0), F(n)):
            problems.append(("endpoints", n, k))
    _criterion(5, "exact M*F / R*F accounting", problems, time.perf_counter() - start, 60.0)


def test_criterion_6_reconstruction_oracles():
    start = time.perf_counter()
    problems = []
    for i, (n, k, r) in enumerate(GRID):
        params, files = seeded_library(n, k, r, seed=500 + i, bits_per_subfile=2)
        if not oracle_demand_identity(params, files).passed:
            problems.append(("demand identity", n, k, r))
        report = oracle_y_reconstruction(params, files)
        if not report.passed:
            problems.append(("signal reconstruction", n, k, r))
        if (n, k, r) in [(2, 4, 2), (3, 3, 2)] and report.cases_run == 0:
            problems.append(("reconstruction unexpectedly vacuous", n, k, r))
        # segment recovery: recovered segments equal directly computed ones
        kp = params.positions
        for digits in itertools.product(range(n), repeat=k):
            d = AuxDemand(digits, n)
            for t in build_v(d).members:
                x = build_delivery(files, d, t)
                for s in enumerate_r_subsets(kp, r - 1):
                    if t not in s:
                        continue
                    for fi in range(n):
                        if payload_entry(x, (fi, s)) != x_segment(files, d, s, fi):
                            problems.append(("segment recovery", n, k, r, digits, t, s.members, fi))
    _criterion(6, "decoding-support oracles", problems, time.perf_counter() - start, 60.0)


def test_criterion_7_three_user_exact_tradeoff():
    start = time.perf_counter()
    problems = []
    den, corners, _ = tradeoff._two_file_curves(3)
    corners = [(F(m, den), F(r, den)) for m, r in corners]
    expected = [(F(0), F(2)), (F(1, 4), F(3, 2)), (F(2, 3), F(1)), (F(1), F(2, 3)), (F(3, 2), F(1, 4)), (F(2), F(0))]
    if corners != expected:
        problems.append(("corners", corners))

    def closed_form(m):
        return max(2 - 2 * m, F(9 - 6 * m, 5), F(5 - 3 * m, 3), F(9 - 5 * m, 6), F(2 - m, 2))

    rows = tightness_rows(3, F(1, 100), F)
    if len(rows) != 201:
        problems.append(("rows", len(rows)))
    for m, ach, conv, _ in rows:
        if ach != closed_form(m) or ach != conv:
            problems.append(("mismatch at", m))
    _criterion(7, "three-user exact tradeoff curve", problems, time.perf_counter() - start, 1.0)


def test_criterion_8_two_file_tight_ranges():
    start = time.perf_counter()
    problems = []
    for k in (2, 3, 4, 5, 6):
        curves = tradeoff._two_file_curves(k)
        low, high = F(2, k), F(2 * (k - 1), k + 1)
        grid = sorted({F(i, 100) for i in range(201)} | {low, high})
        for m in grid:
            ach, conv = envelope_value(curves, m), converse_value(k, m)
            if ach < conv:
                problems.append(("achievable below converse", k, m))
            if (m <= low or m >= high) and ach != conv:
                problems.append(("gap inside certified range", k, m))
    _criterion(8, "two-file certified tight ranges", problems, time.perf_counter() - start, 30.0)


def test_criterion_8_tight_set_on_whole_intervals():
    # the exact tight set, compared at every breakpoint of both curves
    start = time.perf_counter()
    problems = []
    for k in range(2, 65):
        want = [(F(0), F(2))] if k <= 3 else [(F(0), F(2, k)), (F(2 * (k - 1), k + 1), F(2))]
        got = tight_intervals(k)
        if got != want:
            problems.append((k, got))
    _criterion(8, "two-file tight set, exact on [0, 2]", problems, time.perf_counter() - start, 30.0)


def test_criterion_9_deterministic_transcripts():
    start = time.perf_counter()
    argv = [
        sys.executable, "-m", "privcache",
        "simulate", "--n", "2", "--k", "3", "--r", "2", "--seed", "7", "--demands", "0,1,1",
    ]
    runs = [subprocess.run(argv, capture_output=True, check=True) for _ in range(2)]
    problems = []
    if runs[0].stdout != runs[1].stdout:
        problems.append("stdout differs between identical runs")
    if b"decoded 3/3 users" not in runs[0].stdout:
        problems.append("simulation did not decode all users")
    _criterion(9, "byte-identical seeded transcripts", problems, time.perf_counter() - start, 30.0)
