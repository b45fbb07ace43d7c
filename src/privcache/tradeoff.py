"""Exact memory-rate tradeoff of the two-file case, in integers.

The achievable curve is the lower convex envelope of the scheme's corners
and the companion scheme's (`_lower_hull`, integer cross products over
one common denominator); the converse curve is the upper envelope of the
two-file converse lines, integer (alpha, beta, gamma) whose pieces start
at integer (numerator, denominator) pairs (`_upper_hull`).  The scheme
corners come from their closed form, all over K(K+1), with no binomial,
lcm or `Fraction` (`_two_file_curves`).  Both curves are piecewise linear
on [0, 2]; one walk by cells (`_compare`, a cell being an achievable
segment paired with a converse piece) compares them on a grid
(`tightness_rows`, each value made by the caller from its unreduced
integer pair: the CLI's text by `combinat.ratio_text`, or a `Fraction`)
or at the union of their breakpoints (`tight_intervals`), which settles
every M in [0, 2] exactly.  A str grid step's decimal exponent is checked
before any `Fraction` is built for it (`grid_step_fraction`).
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, Sequence

from .combinat import _count, ratio_text

_GRID_ROW_CAP = 100_001  # a grid step of 1/50000; finer steps are refused
# best of 5 on a 2-vCPU Xeon: the curves cost ~K (5 ms at K = 1000) and tight_intervals ~K^1.5
# (0.02-0.03 s at K = 1000, 0.95 s at K = 8000); tightness_rows on 100,001 rows at K = 1000,
# each value a reduced pair, takes 0.17-0.19 s, nearly all of it the rows
_USER_CAP = 1000
_STEP_EXPONENT_CAP = 10_000
# a str grid step scales by at most 10^10000 (under 1 ms to build); Fraction("1e-30000000")
# would spend about 39 s building 10^30000000 before the row cap could refuse it
_DECIMAL_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _lower_hull(pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Lower boundary of the convex hull of integer (memory, rate) pairs, as
    its corners by increasing memory.  Collinear and dominated pairs are
    discarded; corners past the minimum-rate vertex are memory-dominated
    and dropped as well."""
    hull: list[tuple[int, int]] = []
    for p in sorted(set(pairs)):
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) > 0:
                break
            hull.pop()
        hull.append(p)
    best = min(range(len(hull)), key=lambda i: (hull[i][1], hull[i][0]))
    return hull[: best + 1]


def _converse_coefficients(num_users: int) -> list[tuple[int, int, int, str]]:
    """The two-file converse region for K users, as the (alpha, beta, gamma,
    label) of each half-plane alpha*M + beta*R >= gamma.

    Two entropy-derived lines per k in [2, K],
    (k+1)(k+2) M + 2k(k+1) R >= 2k(k+3) and its coefficient mirror,
    plus the two cut-set lines 2M + R >= 2 and M + 2R >= 2.
    """
    if num_users < 2:
        raise ValueError(f"need at least 2 users, got {num_users}")
    lines = []
    for k in range(2, num_users + 1):
        a, b, g = (k + 1) * (k + 2), 2 * k * (k + 1), 2 * k * (k + 3)
        lines += [(a, b, g, f"entropy-k{k}-a"), (b, a, g, f"entropy-k{k}-b")]
    return lines + [(2, 1, 2, "cutset-s1"), (1, 2, 2, "cutset-s2")]


def _upper_hull(lines: list[tuple]) -> list[tuple]:
    """Pointwise largest of integer (alpha, beta, gamma, tag) lines, beta > 0,
    on [0, 2], as pieces (start numerator, start denominator, alpha, beta,
    gamma, tag): a piece's line is the largest from its start up to the
    next piece's (or 2), and the first piece starts at 0.  Lines are taken
    by increasing slope (the larger intercept wins among parallel ones); a
    hull stack drops each line the next one overtakes no later than that
    line's own start; pieces outside [0, 2] are clipped."""
    hull: list[tuple] = []
    # by slope -alpha/beta, then by intercept gamma/beta
    for a, b, g, tag in sorted(lines, key=cmp_to_key(
            lambda u, v: (v[0] * u[1] - u[0] * v[1]) or (u[2] * v[1] - v[2] * u[1]))):
        if hull and hull[-1][2] * b == a * hull[-1][3]:
            hull.pop()  # parallel, with an intercept no larger
        start = (None, 1)  # minus infinity
        while hull:
            top_num, top_den, top_a, top_b, top_g, _ = hull[-1]
            num, den = b * top_g - top_b * g, b * top_a - top_b * a
            if top_num is None or num * top_den > top_num * den:
                start = (num, den)
                break
            hull.pop()
        hull.append((*start, a, b, g, tag))
    ends = [piece[0] for piece in hull[1:]] + [None]
    return [
        (0, 1, *piece[2:]) if piece[0] is None or piece[0] < 0 else piece
        for piece, end in zip(hull, ends)
        if (piece[0] is None or piece[0] < 2 * piece[1]) and (end is None or end > 0)
    ]


def _two_file_curves(num_users: int) -> tuple:
    """(den, corners, pieces) for K users: the achievable envelope's corners
    from 0 to 2 as integer (memory, rate) pairs over den (`_lower_hull`),
    and the converse `_upper_hull`.  At N = 2, K' = K + 1 and the scheme
    corner of split r, M = (C(K',r+1) - C(K'-2,r+1)) / C(K',r) and
    R = 2r/K', is M = (K+1-r)(2K-r) / (K(K+1)), R = 2r/(K+1), so every
    corner is put straight over den = K(K+1), with no binomial, gcd or
    `Fraction`."""
    k = num_users
    pieces = _upper_hull(_converse_coefficients(k))
    pairs = [((k + 1 - r) * (2 * k - r), 2 * r * k) for r in range(k + 2)]
    # the companion scheme achieves each scheme corner with M and R swapped
    return k * (k + 1), _lower_hull(pairs + [(r, m) for m, r in pairs]), pieces


def _compare(curves: tuple, q: int, memories: Sequence[int], value) -> list[tuple]:
    """The walk by cells: a row (memory, achievable, converse, tight) per
    memory a/q, for a in `memories` (ascending ints in [0, 2q]), each value
    made by value(numerator, denominator) from its unreduced integer pair:
    `ratio_text`, a reduced pair or a `Fraction`.

    A cell is one achievable segment paired with one converse piece.  It
    holds the memories from the later of their starts to the earlier of
    their ends (a memory on a boundary goes to the later cell), found by
    bisection.  A pointer moves only when a cell's first memory is past its
    end, and only then are its terms recomputed: the segment's achievable
    value (a_term + a*b_term) / d_term, or the piece's converse value
    (c_term - alpha*a) / e_term.  Their cross difference over q is
    d0 + a*d1, so a cell is tight at every memory, at one, or at none,
    with no per-row comparison.
    """
    den, corners, pieces = curves
    rows: list[tuple] = []
    past = 2 * q + 1  # past every memory: the end of the last segment and of the last piece
    i = j = -1
    lo = segment_end = piece_end = 0  # each end is the first memory numerator past it
    while lo < len(memories):
        a = memories[lo]
        if segment_end <= a:
            while segment_end <= a:
                i += 1
                segment_end = -(-corners[i + 1][0] * q // den) if i + 2 < len(corners) else past
            (x0, y0), (x1, y1) = corners[i : i + 2]
            intercept, b_term, run = y0 * (x1 - x0) - x0 * (y1 - y0), den * (y1 - y0), den * (x1 - x0)
            a_term, d_term = q * intercept, q * run
        if piece_end <= a:
            while piece_end <= a:
                j += 1
                piece_end = -(-pieces[j + 1][0] * q // pieces[j + 1][1]) if j + 1 < len(pieces) else past
            _, _, alpha, beta, gamma, _ = pieces[j]
            c_term, e_term = q * gamma, q * beta
        hi = bisect_left(memories, min(segment_end, piece_end), lo + 1)
        cell = memories[lo:hi]
        # the cross difference over q
        d0, d1 = q * (intercept * beta - gamma * run), b_term * beta + alpha * run
        if d0 == d1 == 0:
            achieved = [value(a_term + a * b_term, d_term) for a in cell]
            rows += zip([value(a, q) for a in cell], achieved, achieved, [True] * len(cell))
        else:
            first = len(rows)
            rows += [(value(a, q), value(a_term + a * b_term, d_term), value(c_term - alpha * a, e_term), False)
                     for a in cell]
            root, off = divmod(-d0, d1) if d1 else (None, 1)
            k = bisect_left(memories, root, lo, hi) if off == 0 else hi
            if k < hi and memories[k] == root:
                achieved = value(a_term + root * b_term, d_term)
                rows[first + k - lo] = (value(root, q), achieved, achieved, True)
        lo = hi
    return rows


def _check_user_count(num_users: int) -> None:
    """Refuse a user count the two-file curves cannot be built for in time."""
    if num_users > _USER_CAP:
        raise ValueError(f"K={num_users} users exceeds the cap of {_USER_CAP} for the tradeoff curves")


def grid_step_fraction(grid_step) -> Fraction:
    """The grid step as a `Fraction`.  A str step's decimal exponent is
    checked first, so no `Fraction` is built for one outside
    [-_STEP_EXPONENT_CAP, _STEP_EXPONENT_CAP]."""
    if isinstance(grid_step, str):
        exponent = _DECIMAL_EXPONENT.search(grid_step)
        digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
        if len(digits) > len(str(_STEP_EXPONENT_CAP)) or int(digits or 0) > _STEP_EXPONENT_CAP:
            raise ValueError(f"decimal exponent outside [-{_STEP_EXPONENT_CAP}, {_STEP_EXPONENT_CAP}]")
    return _frac(grid_step)


def _step_text(step: Fraction) -> str:
    """The step for a refusal message, as `str(step)` but with each term
    past 2000 bits as 2^(bits - 1) (`combinat._count`)."""
    text = "-" * (step < 0) + _count(abs(step.numerator))
    return text if step.denominator == 1 else f"{text}/{_count(step.denominator)}"


def tightness_rows(num_users: int, grid_step, value) -> list[tuple]:
    """Achievable-vs-converse comparison over a rational grid on [0, 2]:
    the rows (memory, achievable, converse, tight) at i * grid_step for
    i = 0, 1, ..., and 2 if the step does not divide it, each value made
    by value(numerator, denominator) from its unreduced integer pair
    (`_compare`); `Fraction` gives exact rationals.  The user count, the
    step and the row count are checked before any curve is built."""
    _check_user_count(num_users)
    step = grid_step_fraction(grid_step)
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {_step_text(step)}")
    if 2 / step > _GRID_ROW_CAP - 1:
        raise ValueError(f"grid step {_step_text(step)} gives more than {_GRID_ROW_CAP} rows on [0, 2]")
    curves = _two_file_curves(num_users)
    p, q = step.numerator, step.denominator
    return _compare(curves, q, [*range(0, 2 * q + 1, p)] + [2 * q] * (2 * q % p != 0), value)


def tight_intervals(num_users: int) -> list[tuple[Fraction, Fraction]]:
    """The exact set of M in [0, 2] where achievable equals converse, as
    ascending, disjoint closed intervals (lo, hi); lo == hi marks a point.

    Both curves are linear between consecutive points of the union of
    their breakpoints, so such a piece is tight exactly when both of its
    ends are.  The breakpoints are walked over one denominator, the lcm of
    theirs.
    """
    _check_user_count(num_users)
    den, corners, pieces = curves = _two_file_curves(num_users)
    q = math.lcm(den, *(d for _, d, *_ in pieces))
    breaks = sorted({m * (q // den) for m, _ in corners} | {num * (q // d) for num, d, *_ in pieces})
    intervals: list[list[int]] = []
    previous_tight = False
    # each value is its bare numerator over q: no gcd, and only the memories are read
    for memory, _, _, tight in _compare(curves, q, breaks, lambda num, den: num):
        if tight and previous_tight:
            intervals[-1][1] = memory
        elif tight:
            intervals.append([memory, memory])
        previous_tight = tight
    return [(Fraction(lo, q), Fraction(hi, q)) for lo, hi in intervals]
