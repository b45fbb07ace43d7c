import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    RowsBuilt,
    envelope_by_pairwise_max,
    grid_rows_by_rows,
    hull_corners_by_pairs,
    refuse_tradeoff_rows,
    tight_intervals_by_rows,
)
from privcache import tradeoff
from privcache.tradeoff import (
    LinearBound,
    RatePoint,
    TightnessRow,
    TradeoffCurve,
    companion_points,
    converse_bounds,
    converse_eval,
    lower_convex_envelope,
    ratio_text,
    scheme_points,
    tight_intervals,
    tightness_pairs,
    tightness_report,
    tightness_rows,
    upper_envelope,
)

F = Fraction


def test_scheme_points_two_files_three_users():
    pts = {(p.memory, p.rate) for p in scheme_points(2, 3)}
    assert {(F(0), F(2)), (F(1, 4), F(3, 2)), (F(2, 3), F(1))} <= pts
    assert (F(2), F(0)) in pts  # r = 0 endpoint
    assert len(pts) == 5


def test_scheme_points_r_zero_endpoint():
    for n, k in [(2, 3), (3, 4), (5, 2)]:
        assert (scheme_points(n, k)[0].memory, scheme_points(n, k)[0].rate) == (n, 0)


def test_scheme_points_two_files_penultimate_split():
    # r = K-1 simplifies to (2/K, 2(K-1)/(K+1))
    for k in range(2, 9):
        p = scheme_points(2, k)[k - 1]
        assert (p.memory, p.rate) == (F(2, k), F(2 * (k - 1), k + 1))


def test_scheme_points_validation():
    with pytest.raises(ValueError):
        scheme_points(1, 3)
    with pytest.raises(ValueError):
        scheme_points(2, 0)


def test_companion_points_three_users():
    pts = [(p.memory, p.rate) for p in companion_points(3)]
    assert (F(2), F(0)) in pts
    assert (F(3, 2), F(1, 4)) in pts
    assert (F(1), F(2, 3)) in pts


def test_companion_point_general_form():
    # the r = K instance swaps to (2K/(K+1), 1/(K+1))
    for k in range(2, 8):
        pts = {(p.memory, p.rate) for p in companion_points(k)}
        assert (F(2 * k, k + 1), F(1, k + 1)) in pts


def test_companion_swap_is_involution():
    pts = scheme_points(2, 4)
    assert [p.swapped().swapped() for p in pts] == pts


def test_envelope_six_corners():
    env = lower_convex_envelope(scheme_points(2, 3) + companion_points(3))
    assert [(c.memory, c.rate) for c in env.corners] == [
        (F(0), F(2)),
        (F(1, 4), F(3, 2)),
        (F(2, 3), F(1)),
        (F(1), F(2, 3)),
        (F(3, 2), F(1, 4)),
        (F(2), F(0)),
    ]


def test_envelope_single_point():
    env = lower_convex_envelope([RatePoint(F(1), F(1))])
    assert env.corners == (RatePoint(F(1), F(1)),)
    assert env.value_at(F(1)) == 1


def test_envelope_discards_dominated_and_collinear_points():
    pts = [RatePoint(F(0), F(2)), RatePoint(F(2), F(0)), RatePoint(F(1), F(3, 2)), RatePoint(F(1), F(1))]
    env = lower_convex_envelope(pts)
    # (1, 3/2) is dominated; (1, 1) lies on the segment and is not a corner
    assert [(c.memory, c.rate) for c in env.corners] == [(F(0), F(2)), (F(2), F(0))]


def test_envelope_interpolation():
    env = lower_convex_envelope(scheme_points(2, 3) + companion_points(3))
    assert env.value_at(F(1, 2)) == F(3, 2) + (F(1, 2) - F(1, 4)) * (F(1) - F(3, 2)) / (F(2, 3) - F(1, 4))
    with pytest.raises(ValueError):
        env.value_at(F(5, 2))


def test_curve_invariants_enforced():
    with pytest.raises(ValueError):
        TradeoffCurve((RatePoint(F(0), F(1)), RatePoint(F(0), F(2))))  # M not increasing
    with pytest.raises(ValueError):
        TradeoffCurve((RatePoint(F(0), F(1)), RatePoint(F(1), F(2))))  # increasing rate
    with pytest.raises(ValueError):
        TradeoffCurve(
            (RatePoint(F(0), F(2)), RatePoint(F(1), F(3, 2)), RatePoint(F(2), F(0)))
        )  # concave kink: slope falls from -1/2 to -3/2


def test_converse_bounds_three_users():
    bounds = {(b.alpha, b.beta, b.gamma) for b in converse_bounds(3)}
    assert (F(12), F(12), F(20)) in bounds  # k=2, both mirrors coincide
    assert (F(20), F(24), F(36)) in bounds  # k=3
    assert (F(24), F(20), F(36)) in bounds  # k=3 mirrored
    assert (F(2), F(1), F(2)) in bounds and (F(1), F(2), F(2)) in bounds
    assert len(converse_bounds(3)) == 2 * 2 + 2


def test_converse_bounds_mirror_pairs():
    for k_users in (2, 3, 4, 5):
        bounds = converse_bounds(k_users)
        entropy = [b for b in bounds if b.label.startswith("entropy")]
        coeffs = {(b.alpha, b.beta) for b in entropy}
        assert all((beta, alpha) in coeffs for alpha, beta in coeffs)


def test_converse_bounds_validation():
    with pytest.raises(ValueError):
        converse_bounds(1)
    with pytest.raises(ValueError):
        LinearBound(F(1), F(-1), F(0))


def test_converse_eval_three_users():
    assert converse_eval(3, F(2, 3)) == 1
    assert converse_eval(3, 0) == 2
    assert converse_eval(3, 2) == 0
    with pytest.raises(ValueError):
        converse_eval(3, F(5, 2))


def test_tightness_three_users_everywhere():
    rows = tightness_report(3, F(1, 100))
    assert len(rows) == 201
    assert all(r.tight for r in rows)
    assert all(r.achievable == r.converse for r in rows)


def test_tightness_four_users_gap_region():
    rows = tightness_report(4, F(1, 100))
    for r in rows:
        assert r.achievable >= r.converse
        inside = F(1, 2) < r.memory < F(6, 5)
        assert r.tight == (not inside), r.memory


def test_tightness_two_users_everywhere():
    # the two-user curve is exact on all of [0, 2]
    rows = tightness_report(2, F(1, 50))
    assert all(r.tight for r in rows)


def test_tightness_grid_includes_endpoints():
    rows = tightness_report(3, F(1, 3))
    mems = [r.memory for r in rows]
    assert mems[0] == 0 and mems[-1] == 2


@pytest.mark.parametrize("k, step", [(3, F(1, 100)), (5, F(3, 7)), (32, F(1, 200))])
def test_tightness_pairs_are_the_report_rows_in_lowest_terms(k, step):
    # the integer rows the CLI prints, and the Fraction rows Python callers get
    pairs = tightness_pairs(k, step)
    for (m, ach, conv, tight), row in zip(pairs, tightness_report(k, step), strict=True):
        for pair, value in ((m, row.memory), (ach, row.achievable), (conv, row.converse)):
            assert all(type(x) is int for x in pair) and pair[1] > 0
            assert pair == (value.numerator, value.denominator)
        assert tight is row.tight


def test_tightness_step_validation():
    with pytest.raises(ValueError):
        tightness_report(3, 0)


@pytest.mark.parametrize("step", [F(1, 50001), F(2, 100001), F("1e-9")])
def test_grid_over_100001_rows_is_refused_before_any_row(monkeypatch, step):
    refuse_tradeoff_rows(monkeypatch)
    with pytest.raises(ValueError, match="more than 100001 rows"):
        tightness_report(3, step)


def test_grid_of_exactly_100001_rows_is_admitted(monkeypatch):
    # a step of 1/50000 passes the cap and goes on to build its rows
    refuse_tradeoff_rows(monkeypatch)
    with pytest.raises(RowsBuilt):
        tightness_report(3, F(1, 50000))


@pytest.mark.parametrize(
    "build",
    [lambda k: tightness_report(k, F(1)), tight_intervals,
     pytest.param(lambda k: tightness_pairs(k, F(1)), id="tightness_pairs")],
)
def test_user_count_over_1000_is_refused_before_any_curve(monkeypatch, build):
    refuse_tradeoff_rows(monkeypatch)
    for k in (1001, 100_000):
        with pytest.raises(ValueError, match="exceeds the cap of 1000"):
            build(k)


@pytest.mark.parametrize(
    "build",
    [lambda k: tightness_report(k, F(1)), tight_intervals,
     pytest.param(lambda k: tightness_pairs(k, F(1)), id="tightness_pairs")],
)
def test_user_count_of_exactly_1000_is_admitted(monkeypatch, build):
    # K = 1000 passes the cap and goes on to build its curves
    refuse_tradeoff_rows(monkeypatch)
    with pytest.raises(RowsBuilt):
        build(1000)


def test_rate_point_validation():
    with pytest.raises(ValueError):
        RatePoint(F(-1), F(0))


def test_upper_envelope_pops_dominated_and_clips_to_zero_two():
    s1 = LinearBound(F(2), F(1), F(2))  # R = 2 - 2M
    s2 = LinearBound(F(1), F(2), F(2))  # R = 1 - M/2, overtakes s1 at M = 2/3
    below = LinearBound(F(1), F(1), F(1, 2))  # never on top: popped
    parallel = LinearBound(F(2), F(1), F(1))  # parallel to s1, lower
    left = LinearBound(F(10), F(1), F(19, 10))  # on top only for M < -1/80
    right = LinearBound(F(0), F(1), F(-1))  # on top only for M > 4
    pieces = upper_envelope([right, below, s2, parallel, left, s1])
    assert pieces == ((F(0), s1), (F(2, 3), s2))
    assert upper_envelope([s2]) == ((F(0), s2),)
    with pytest.raises(ValueError):
        upper_envelope([])
    with pytest.raises(ValueError):
        upper_envelope([s1, LinearBound(F(1), F(0), F(1))])


@st.composite
def point_sets(draw):
    coord = st.builds(Fraction, st.integers(0, 12), st.integers(1, 4))
    points = draw(st.lists(st.builds(RatePoint, coord, coord), min_size=1, max_size=8))
    # duplicates and collinear points: midpoints of drawn pairs, a point with itself included
    pairs = draw(st.lists(st.tuples(st.sampled_from(points), st.sampled_from(points)), max_size=4))
    points += [RatePoint((a.memory + b.memory) / 2, (a.rate + b.rate) / 2) for a, b in pairs]
    return draw(st.permutations(points))


@st.composite
def bound_sets(draw):
    coeff = st.builds(Fraction, st.integers(-18, 18), st.integers(1, 3))
    beta = st.builds(Fraction, st.integers(1, 9), st.integers(1, 3))
    bounds = draw(st.lists(st.builds(LinearBound, coeff, beta, coeff), min_size=1, max_size=7))
    # parallel lines and duplicates: scaled copies of drawn lines, shifted or not
    copies = draw(st.lists(st.tuples(st.sampled_from(bounds), coeff, st.integers(1, 3)), max_size=3))
    bounds += [LinearBound(b.alpha * k, b.beta * k, (b.gamma + shift) * k) for b, shift, k in copies]
    # concurrent lines: a pencil R = r + s * (M - m) through one point (m, r)
    m, r = draw(coeff) / 6, draw(coeff)
    bounds += [LinearBound(-s, 1, r - s * m) for s in draw(st.lists(coeff, max_size=4))]
    return draw(st.permutations(bounds))


@settings(max_examples=300, deadline=None)
@given(point_sets())
def test_lower_convex_envelope_matches_the_pairwise_oracle(points):
    corners = lower_convex_envelope(points).corners
    assert [(c.memory, c.rate) for c in corners] == hull_corners_by_pairs(points)
    assert all(type(c.memory) is Fraction and type(c.rate) is Fraction for c in corners)


@settings(max_examples=300, deadline=None)
@given(bound_sets())
@example([LinearBound(0, 1, 1), LinearBound(1, 1, 2), LinearBound(2, 1, 3)])  # the middle one tops only M = 1
def test_upper_envelope_matches_the_pairwise_max_oracle(bounds):
    pieces = upper_envelope(bounds)
    lines = [(start, -b.alpha / b.beta, b.gamma / b.beta) for start, b in pieces]
    assert lines == envelope_by_pairwise_max(bounds)
    assert all(type(start) is Fraction and any(b is x for x in bounds) for start, b in pieces)


ORACLE_STEPS = [F(1, 200), F(3, 7), F(5, 3), F(2)]


@pytest.mark.parametrize("k", range(2, 65))
def test_tightness_rows_match_pointwise_oracle(k):
    # the envelope walk against value_at and the max over all 2K lines;
    # a row is tight exactly when its memory lies in a tight interval
    envelope = lower_convex_envelope(scheme_points(2, k) + companion_points(k))
    intervals = tight_intervals(k)
    steps = ORACLE_STEPS + ([F(1, 1000)] if k in (2, 3, 32, 64) else [])
    for step in steps:
        for row in tightness_report(k, step):
            ach, conv = envelope.value_at(row.memory), converse_eval(k, row.memory)
            assert row == TightnessRow(row.memory, ach, conv, ach == conv), (k, step)
            assert row.tight == any(lo <= row.memory <= hi for lo, hi in intervals), (k, row)


def test_tight_intervals_validation():
    with pytest.raises(ValueError):
        tight_intervals(1)


@settings(max_examples=150, deadline=None)
@given(k=st.integers(2, 96), q=st.integers(1, 500), p=st.integers(1, 1500))
@example(k=32, q=200, p=1)  # the benchmark's grid
@example(k=5, q=7, p=3)  # 3/7 does not divide 2
@example(k=4, q=1, p=3)  # a step above 2: the rows 0 and 2
def test_cell_walk_matches_the_row_walk(k, q, p):
    # steps p/q with p in [1, 3q]: steps that do not divide 2 and steps above 2 both occur
    step = F((p - 1) % (3 * q) + 1, q)
    pairs = grid_rows_by_rows(k, step, tradeoff._reduced)
    assert tightness_pairs(k, step) == pairs
    assert tightness_rows(k, step, ratio_text) == grid_rows_by_rows(k, step, ratio_text)
    report = tightness_report(k, step)
    assert [(r.memory, r.achievable, r.converse, r.tight) for r in report] == grid_rows_by_rows(k, step, F)
    assert all(type(r.tight) is bool for r in report)


def test_tight_intervals_match_the_row_walk():
    for k in range(2, 201):
        assert tight_intervals(k) == tight_intervals_by_rows(k), k


@pytest.mark.parametrize("users", [range(2, 301), [1000]], ids=["2-300", "1000"])
def test_integer_curves_match_the_fraction_path(users):
    # the corners built from `scheme_counts` and the converse pieces, against
    # the public envelopes of the Fraction points and bounds
    for k in users:
        den, corners, pieces = tradeoff._two_file_curves(k)
        envelope = lower_convex_envelope(scheme_points(2, k) + companion_points(k))
        assert [(F(m, den), F(r, den)) for m, r in corners] == [(c.memory, c.rate) for c in envelope.corners], k
        expected = [(start, b.alpha, b.beta, b.gamma, b.label) for start, b in upper_envelope(converse_bounds(k))]
        assert [(F(num, d), a, b, g, tag) for num, d, a, b, g, tag in pieces] == expected, k


def _no_binomial(*args):
    raise AssertionError(f"a binomial was computed for {args}")


@pytest.mark.parametrize("k", [2, 3, 32, 1000])
def test_the_curves_compute_no_binomial(monkeypatch, k):
    # the two-file corners come from their closed form, not from `scheme_counts`
    expected = tight_intervals(k), tightness_rows(k, "1/200", ratio_text)
    monkeypatch.setattr(tradeoff, "scheme_counts", _no_binomial)
    monkeypatch.setattr(math, "comb", _no_binomial)
    assert (tight_intervals(k), tightness_rows(k, "1/200", ratio_text)) == expected


@pytest.mark.parametrize("k", [65, 128, 257, 500, 999, 1000])
def test_tight_intervals_are_the_abstracts_past_64_users(k):
    # [0, 2/K] and [2(K-1)/(K+1), 2], the ranges the paper proves tight
    assert tight_intervals(k) == [(0, F(2, k)), (F(2 * (k - 1), k + 1), 2)]


def _fraction_unbuilt(step):
    raise AssertionError(f"a Fraction was built for {step!r}")


@pytest.mark.parametrize("build", [tightness_pairs, tightness_report])
@pytest.mark.parametrize("step", ["1e-30000000", "1E+99999999999", "1e-0_000_000_010_001", "2e10001"])
def test_a_decimal_exponent_past_10000_is_refused_before_any_fraction(monkeypatch, build, step):
    # Fraction("1e-30000000") would build 10^30000000 first (about 39 s)
    monkeypatch.setattr(tradeoff, "_frac", _fraction_unbuilt)
    refuse_tradeoff_rows(monkeypatch)
    with pytest.raises(ValueError, match=r"^decimal exponent outside \[-10000, 10000\]$"):
        build(3, step)


def test_a_coarse_decimal_step_inside_the_range_gives_the_rows_zero_and_two():
    # 10^5000 is built in well under a millisecond; a step above 2 keeps both ends
    assert tightness_pairs(3, "1e5000") == [((0, 1), (2, 1), (2, 1), True), ((2, 1), (0, 1), (0, 1), True)]
    assert tightness_pairs(3, "1e-4") == tightness_pairs(3, F(1, 10000))


@pytest.mark.parametrize(
    "step, message",
    [
        ("1e-5000", "grid step 1/2^16609 gives more than 100001 rows on [0, 2]"),
        (F(3, 10**5000), "grid step 3/2^16609 gives more than 100001 rows on [0, 2]"),
        (F(1, 50001), "grid step 1/50001 gives more than 100001 rows on [0, 2]"),
        (F(-1, 10**5000), "grid step must be positive, got -1/2^16609"),
        (-(10**1000), "grid step must be positive, got -2^3321"),
        (-(2**100), f"grid step must be positive, got -{2**100}"),
    ],
    ids=["1e-5000", "3e-5000", "1/50001", "-1e-5000", "-1e1000", "-2^100"],
)
def test_refused_steps_print_through_the_count_formatter(monkeypatch, step, message):
    # terms past 2000 bits print as 2^(bits - 1), not through str(Fraction),
    # which raises past the int-to-str limit
    refuse_tradeoff_rows(monkeypatch)
    with pytest.raises(ValueError) as info:
        tightness_report(3, step)
    assert str(info.value) == message
