import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    RowsBuilt,
    converse_value,
    envelope_by_pairwise_max,
    envelope_value,
    grid_rows_by_rows,
    hull_corners_by_pairs,
    reduced,
    refuse_tradeoff_rows,
    scheme_point,
    tight_intervals_by_rows,
)
from privcache import combinat, tradeoff
from privcache.tradeoff import ratio_text, tight_intervals, tightness_rows

F = Fraction


def test_scheme_points_two_files_three_users():
    pts = {scheme_point(2, 3, r) for r in range(5)}
    assert {(F(0), F(2)), (F(1, 4), F(3, 2)), (F(2, 3), F(1))} <= pts
    assert (F(2), F(0)) in pts  # r = 0 endpoint
    assert len(pts) == 5


def test_scheme_points_r_zero_endpoint():
    for n, k in [(2, 3), (3, 4), (5, 2)]:
        assert scheme_point(n, k, 0) == (n, 0)


def test_scheme_points_two_files_penultimate_split():
    # r = K-1 simplifies to (2/K, 2(K-1)/(K+1)), on the envelope, and a corner of it past K = 2
    for k in range(2, 9):
        assert scheme_point(2, k, k - 1) == (F(2, k), F(2 * (k - 1), k + 1))
        curves = tradeoff._two_file_curves(k)
        assert envelope_value(curves, F(2, k)) == F(2 * (k - 1), k + 1)
        assert ((2 * (k + 1), 2 * k * (k - 1)) in curves[1]) is (k > 2)  # over den = K(K+1)


def test_scheme_points_validation():
    with pytest.raises(ValueError):
        combinat.scheme_counts(1, 3, 0)
    with pytest.raises(ValueError):
        combinat.scheme_counts(2, 0, 0)


def test_companion_point_general_form():
    # the companion of the r = K corner is (2K/(K+1), 1/(K+1)), over den = K(K+1)
    for k in range(2, 9):
        den, corners, _ = tradeoff._two_file_curves(k)
        assert den == k * (k + 1)
        assert (2 * k * k, k) in corners


CORNER_USERS = [2, 3, 4, 5, 6, 7, 8, 16, 32, 64]


@pytest.mark.parametrize("k", CORNER_USERS + [1000])
def test_the_corners_are_closed_under_the_companion_swap(k):
    # the companion scheme mirrors every scheme corner, so the envelope is its own mirror in M = R
    den, corners, _ = tradeoff._two_file_curves(k)
    assert set(corners) == {(r, m) for m, r in corners}
    assert corners[0] == (0, 2 * den) and corners[-1] == (2 * den, 0)


@pytest.mark.parametrize("k", CORNER_USERS)
def test_every_corner_meets_every_converse_line(k):
    # an achievable point lies in the converse region: alpha*M + beta*R >= gamma, over den
    den, corners, _ = tradeoff._two_file_curves(k)
    lines = tradeoff._converse_coefficients(k)
    assert all(a * m + b * r >= g * den for m, r in corners for a, b, g, _ in lines)


@pytest.mark.parametrize("k", CORNER_USERS)
def test_the_tight_end_segments_lie_on_converse_lines(k):
    # on [0, 2/K] and [2(K-1)/(K+1), 2] every achievable segment meets one converse line at both ends
    den, corners, _ = tradeoff._two_file_curves(k)
    lines = tradeoff._converse_coefficients(k)
    low = [p for p in corners if p[0] <= 2 * (k + 1)]  # 2/K over den = K(K+1)
    high = [p for p in corners if p[0] >= 2 * k * (k - 1)]  # 2(K-1)/(K+1) over den
    assert len(low) >= 2 and len(high) >= 2
    for part in (low, high):
        for (m0, r0), (m1, r1) in zip(part, part[1:]):
            assert any(a * m0 + b * r0 == g * den == a * m1 + b * r1 for a, b, g, _ in lines), (m0, r0)


def test_envelope_six_corners():
    # (0, 2), (1/4, 3/2), (2/3, 1) and their companions (1, 2/3), (3/2, 1/4), (2, 0)
    den, corners, _ = tradeoff._two_file_curves(3)
    assert den == 12
    assert corners == [(0, 24), (3, 18), (8, 12), (12, 8), (18, 3), (24, 0)]


def test_envelope_single_point():
    assert tradeoff._lower_hull([(1, 1)]) == [(1, 1)]


def test_envelope_discards_dominated_and_collinear_points():
    # over den 2: (1, 3/2) is dominated; (1, 1) lies on the segment and is not a corner
    assert tradeoff._lower_hull([(0, 4), (4, 0), (2, 3), (2, 2)]) == [(0, 4), (4, 0)]


def test_envelope_interpolation():
    memory, ach, _, _ = tightness_rows(3, F(1, 2), F)[1]
    assert memory == F(1, 2)
    assert ach == F(3, 2) + (F(1, 2) - F(1, 4)) * (F(1) - F(3, 2)) / (F(2, 3) - F(1, 4))


def test_converse_bounds_three_users():
    lines = {line[:3] for line in tradeoff._converse_coefficients(3)}
    assert (12, 12, 20) in lines  # k=2, both mirrors coincide
    assert (20, 24, 36) in lines  # k=3
    assert (24, 20, 36) in lines  # k=3 mirrored
    assert (2, 1, 2) in lines and (1, 2, 2) in lines  # the cut-sets
    assert len(tradeoff._converse_coefficients(3)) == 2 * 2 + 2


def test_converse_bounds_mirror_pairs():
    for k_users in (2, 3, 4, 5):
        lines = tradeoff._converse_coefficients(k_users)
        coeffs = {(a, b) for a, b, _, label in lines if label.startswith("entropy")}
        assert all((beta, alpha) in coeffs for alpha, beta in coeffs)


def test_converse_bounds_validation():
    with pytest.raises(ValueError):
        tradeoff._converse_coefficients(1)


def test_converse_eval_three_users():
    converse = {memory: conv for memory, _, conv, _ in tightness_rows(3, F(2, 3), F)}
    assert converse[F(2, 3)] == 1
    assert converse[0] == 2
    assert converse[2] == 0


def test_tightness_three_users_everywhere():
    rows = tightness_rows(3, F(1, 100), F)
    assert len(rows) == 201
    assert all(tight for *_, tight in rows)
    assert all(ach == conv for _, ach, conv, _ in rows)


def test_tightness_four_users_gap_region():
    for memory, ach, conv, tight in tightness_rows(4, F(1, 100), F):
        assert ach >= conv
        inside = F(1, 2) < memory < F(6, 5)
        assert tight == (not inside), memory


def test_tightness_two_users_everywhere():
    # the two-user curve is exact on all of [0, 2]
    assert all(tight for *_, tight in tightness_rows(2, F(1, 50), F))


def test_tightness_grid_includes_endpoints():
    mems = [memory for memory, *_ in tightness_rows(3, F(1, 3), F)]
    assert mems[0] == 0 and mems[-1] == 2


@pytest.mark.parametrize("k, step", [(3, F(1, 100)), (5, F(3, 7)), (32, F(1, 200))])
def test_reduced_pairs_are_the_fraction_rows_in_lowest_terms(k, step):
    # the same rows with each value a reduced pair and with each a Fraction
    pairs = tightness_rows(k, step, reduced)
    for (m, ach, conv, tight), row in zip(pairs, tightness_rows(k, step, F), strict=True):
        for pair, value in zip((m, ach, conv), row):
            assert all(type(x) is int for x in pair) and pair[1] > 0
            assert pair == (value.numerator, value.denominator)
        assert tight is row[3]


def test_tightness_step_validation():
    with pytest.raises(ValueError):
        tightness_rows(3, 0, F)


@pytest.mark.parametrize("step", [F(1, 50001), F(2, 100001), F("1e-9")])
def test_grid_over_100001_rows_is_refused_before_any_row(monkeypatch, step):
    refuse_tradeoff_rows(monkeypatch)
    with pytest.raises(ValueError, match="more than 100001 rows"):
        tightness_rows(3, step, F)


def test_grid_of_exactly_100001_rows_is_admitted(monkeypatch):
    # a step of 1/50000 passes the cap and goes on to build its rows
    refuse_tradeoff_rows(monkeypatch)
    with pytest.raises(RowsBuilt):
        tightness_rows(3, F(1, 50000), F)


BUILDS = [
    pytest.param(lambda k: tightness_rows(k, F(1), F), id="fraction-rows"),
    pytest.param(tight_intervals, id="tight_intervals"),
    pytest.param(lambda k: tightness_rows(k, F(1), ratio_text), id="text-rows"),
]


@pytest.mark.parametrize("build", BUILDS)
def test_user_count_over_1000_is_refused_before_any_curve(monkeypatch, build):
    refuse_tradeoff_rows(monkeypatch)
    for k in (1001, 100_000):
        with pytest.raises(ValueError, match="exceeds the cap of 1000"):
            build(k)


@pytest.mark.parametrize("build", BUILDS)
def test_user_count_of_exactly_1000_is_admitted(monkeypatch, build):
    # K = 1000 passes the cap and goes on to build its curves
    refuse_tradeoff_rows(monkeypatch)
    with pytest.raises(RowsBuilt):
        build(1000)


def test_upper_hull_pops_dominated_and_clips_to_zero_two():
    s1 = (2, 1, 2, "s1")  # R = 2 - 2M
    s2 = (1, 2, 2, "s2")  # R = 1 - M/2, overtakes s1 at M = 2/3
    below = (2, 2, 1, "below")  # R = 1/2 - M, never on top: popped
    parallel = (2, 1, 1, "parallel")  # parallel to s1, lower
    left = (100, 10, 19, "left")  # on top only for M < -1/80
    right = (0, 1, -1, "right")  # on top only for M > 4
    pieces = tradeoff._upper_hull([right, below, s2, parallel, left, s1])
    assert [(F(num, den), *line) for num, den, *line in pieces] == [(0, *s1), (F(2, 3), *s2)]
    assert tradeoff._upper_hull([s2]) == [(0, 1, *s2)]


@st.composite
def point_sets(draw):
    # memories and rates n/d with d in [1, 4], as integers over 24: even, so midpoints stay integers
    coord = st.builds(lambda n, d: n * (24 // d), st.integers(0, 12), st.integers(1, 4))
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=8))
    # duplicates and collinear points: midpoints of drawn pairs, a point with itself included
    pairs = draw(st.lists(st.tuples(st.sampled_from(points), st.sampled_from(points)), max_size=4))
    points += [((a[0] + b[0]) // 2, (a[1] + b[1]) // 2) for a, b in pairs]
    return draw(st.permutations(points))


def _integer_line(alpha: Fraction, beta: Fraction, gamma: Fraction, tag: int) -> tuple:
    """alpha*M + beta*R >= gamma scaled to integer coefficients."""
    scale = math.lcm(alpha.denominator, beta.denominator, gamma.denominator)
    return (*(int(c * scale) for c in (alpha, beta, gamma)), tag)


@st.composite
def line_sets(draw):
    coeff = st.builds(Fraction, st.integers(-18, 18), st.integers(1, 3))
    beta = st.builds(Fraction, st.integers(1, 9), st.integers(1, 3))
    bounds = draw(st.lists(st.tuples(coeff, beta, coeff), min_size=1, max_size=7))
    # parallel lines and duplicates: scaled copies of drawn lines, shifted or not
    copies = draw(st.lists(st.tuples(st.sampled_from(bounds), coeff, st.integers(1, 3)), max_size=3))
    bounds += [(a * k, b * k, (g + shift) * k) for (a, b, g), shift, k in copies]
    # concurrent lines: a pencil R = r + s * (M - m) through one point (m, r)
    m, r = draw(coeff) / 6, draw(coeff)
    bounds += [(-s, F(1), r - s * m) for s in draw(st.lists(coeff, max_size=4))]
    return draw(st.permutations([_integer_line(*b, tag) for tag, b in enumerate(bounds)]))


@settings(max_examples=300, deadline=None)
@given(point_sets())
def test_lower_hull_matches_the_pairwise_oracle(points):
    corners = tradeoff._lower_hull(points)
    assert corners == hull_corners_by_pairs(points)
    assert all(type(m) is int and type(r) is int for m, r in corners)


@settings(max_examples=300, deadline=None)
@given(line_sets())
@example([(0, 1, 1, 0), (1, 1, 2, 1), (2, 1, 3, 2)])  # the middle one tops only M = 1
def test_upper_hull_matches_the_pairwise_max_oracle(lines):
    pieces = tradeoff._upper_hull(lines)
    assert [(F(num, den), F(-a, b), F(g, b)) for num, den, a, b, g, _ in pieces] == envelope_by_pairwise_max(lines)
    assert all(type(num) is int and type(den) is int and tuple(line) in lines for num, den, *line in pieces)


ORACLE_STEPS = [F(1, 200), F(3, 7), F(5, 3), F(2)]


@pytest.mark.parametrize("k", range(2, 65))
def test_tightness_rows_match_pointwise_oracle(k):
    # the cell walk against interpolation on the corners and the max over all 2K lines;
    # a row is tight exactly when its memory lies in a tight interval
    curves = tradeoff._two_file_curves(k)
    intervals = tight_intervals(k)
    steps = ORACLE_STEPS + ([F(1, 1000)] if k in (2, 3, 32, 64) else [])
    for step in steps:
        for row in tightness_rows(k, step, F):
            memory = row[0]
            ach, conv = envelope_value(curves, memory), converse_value(k, memory)
            assert row == (memory, ach, conv, ach == conv), (k, step)
            assert row[3] == any(lo <= memory <= hi for lo, hi in intervals), (k, row)


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
    for value in (reduced, ratio_text, F):
        assert tightness_rows(k, step, value) == grid_rows_by_rows(k, step, value)
    assert all(type(tight) is bool for *_, tight in tightness_rows(k, step, F))


def test_tight_intervals_match_the_row_walk():
    for k in range(2, 201):
        assert tight_intervals(k) == tight_intervals_by_rows(k), k


@pytest.mark.parametrize("users", [range(2, 301), [1000]], ids=["2-300", "1000"])
def test_integer_curves_match_the_fraction_path(monkeypatch, users):
    # the closed-form corners `_two_file_curves` hulls, as a point set, against the
    # scheme's corners from `scheme_counts` and their companions, M and R swapped
    hulled = []
    hull = tradeoff._lower_hull
    monkeypatch.setattr(tradeoff, "_lower_hull", lambda pairs: hulled.append(pairs) or hull(pairs))
    for k in users:
        den, _, _ = tradeoff._two_file_curves(k)
        points = {scheme_point(2, k, r) for r in range(k + 2)}
        assert {(F(m, den), F(r, den)) for m, r in hulled.pop()} == points | {(r, m) for m, r in points}, k


def _no_binomial(*args):
    raise AssertionError(f"a binomial was computed for {args}")


@pytest.mark.parametrize("k", [2, 3, 32, 1000])
def test_the_curves_compute_no_binomial(monkeypatch, k):
    # the two-file corners come from their closed form, not from `scheme_counts`
    expected = tight_intervals(k), tightness_rows(k, "1/200", ratio_text)
    monkeypatch.setattr(combinat, "scheme_counts", _no_binomial)
    monkeypatch.setattr(math, "comb", _no_binomial)
    assert (tight_intervals(k), tightness_rows(k, "1/200", ratio_text)) == expected


@pytest.mark.parametrize("k", [65, 128, 257, 500, 999, 1000])
def test_tight_intervals_are_the_abstracts_past_64_users(k):
    # [0, 2/K] and [2(K-1)/(K+1), 2], the ranges the paper proves tight
    assert tight_intervals(k) == [(0, F(2, k)), (F(2 * (k - 1), k + 1), 2)]


def _fraction_unbuilt(step):
    raise AssertionError(f"a Fraction was built for {step!r}")


@pytest.mark.parametrize("value", [ratio_text, F], ids=["text", "fraction"])
@pytest.mark.parametrize("step", ["1e-30000000", "1E+99999999999", "1e-0_000_000_010_001", "2e10001"])
def test_a_decimal_exponent_past_10000_is_refused_before_any_fraction(monkeypatch, value, step):
    # Fraction("1e-30000000") would build 10^30000000 first (about 39 s)
    monkeypatch.setattr(tradeoff, "_frac", _fraction_unbuilt)
    refuse_tradeoff_rows(monkeypatch)
    with pytest.raises(ValueError, match=r"^decimal exponent outside \[-10000, 10000\]$"):
        tightness_rows(3, step, value)


def test_a_coarse_decimal_step_inside_the_range_gives_the_rows_zero_and_two():
    # 10^5000 is built in well under a millisecond; a step above 2 keeps both ends
    assert tightness_rows(3, "1e5000", reduced) == [((0, 1), (2, 1), (2, 1), True), ((2, 1), (0, 1), (0, 1), True)]
    assert tightness_rows(3, "1e-4", reduced) == tightness_rows(3, F(1, 10000), reduced)


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
        tightness_rows(3, step, F)
    assert str(info.value) == message
