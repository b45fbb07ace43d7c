"""Exact-rational memory-rate tradeoff machinery.

Achievable corner points, lower convex envelopes (memory-sharing), and the
two-file converse region: the entropy-based half-planes plus the two
cut-set lines.  All arithmetic is done in fractions.Fraction; floats only
ever appear in rendered output, and as the infinite ends of
`upper_envelope`'s hull stack, which are compared but never computed with.

Both two-file curves are piecewise linear on [0, 2]: the achievable one is
the lower convex envelope of its corners, the converse one the upper
envelope of the 2K lines (`upper_envelope`, built once per K by a hull
stack).  `tightness_report` compares them on a grid in one merge pass over
both piece lists; `tight_intervals` compares them at the union of their
breakpoints, which settles every M in [0, 2] exactly, not just grid points.

`RatePoint`, `LinearBound`, `TradeoffCurve` and `TightnessRow` are frozen
records (`_record.FrozenRecord`) with explicit constructors; the first two
store their coordinates as `Fraction`s whatever number they are given.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from ._record import FrozenRecord
from .combinat import position_count, scheme_counts

_GRID_ROW_CAP = 100_001  # a grid step of 1/50000; finer steps are refused
_USER_CAP = 1000  # the curves cost about K^2.3: ~0.24 s at K = 1000, hours at K = 100000


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class RatePoint(FrozenRecord):
    """An exact (memory, rate) pair, both in units of files."""

    memory: Fraction
    rate: Fraction

    def __init__(self, memory: Fraction, rate: Fraction) -> None:
        memory, rate = _frac(memory), _frac(rate)
        fields = self.__dict__
        fields["memory"] = memory
        fields["rate"] = rate
        fields["_values"] = (memory, rate)
        if memory < 0 or rate < 0:
            raise ValueError(f"negative coordinate in ({memory}, {rate})")

    def swapped(self) -> RatePoint:
        return RatePoint(self.rate, self.memory)


class LinearBound(FrozenRecord):
    """A half-plane alpha*M + beta*R >= gamma with beta > 0."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    label: str

    def __init__(self, alpha: Fraction, beta: Fraction, gamma: Fraction, label: str = "") -> None:
        alpha, beta, gamma = _frac(alpha), _frac(beta), _frac(gamma)
        fields = self.__dict__
        fields["alpha"] = alpha
        fields["beta"] = beta
        fields["gamma"] = gamma
        fields["label"] = label
        fields["_values"] = (alpha, beta, gamma, label)
        if beta < 0 or (alpha == 0 and beta == 0):
            raise ValueError(f"invalid bound coefficients ({alpha}, {beta})")

    def rate_at(self, memory) -> Fraction:
        if self.beta == 0:
            raise ValueError("vertical bound has no rate value")
        return (self.gamma - self.alpha * _frac(memory)) / self.beta


EnvelopePieces = tuple[tuple[Fraction, LinearBound], ...]
"""(start memory, bound) pieces of a piecewise-linear curve on [0, 2]."""


def scheme_point(num_files: int, num_users: int, r: int) -> RatePoint:
    """Exact (M, R) of the virtual-user scheme with split parameter r.

    With K' = N*K-K+1:  M = (C(K',r+1) - C(K'-N,r+1)) / C(K',r), the
    signals per cache over the subfiles per file (`scheme_counts`), and
    R = N*C(K'-1,r-1) / C(K',r) = N*r / K'.
    """
    subfiles, stored, _, _ = scheme_counts(num_files, num_users, r)
    rate = Fraction(num_files * r, position_count(num_files, num_users))
    return RatePoint(Fraction(stored, subfiles), rate)


def scheme_points(num_files: int, num_users: int) -> list[RatePoint]:
    """The achievable corner family: one scheme_point per r in [0, N*K-K+1]."""
    n, k = num_files, num_users
    if n < 2 or k < 1:
        raise ValueError(f"need N >= 2 and K >= 1, got ({n}, {k})")
    return [scheme_point(n, k, r) for r in range(position_count(n, k) + 1)]


def companion_points(num_users: int) -> list[RatePoint]:
    """Corner points of the companion two-file scheme.

    The companion construction achieves each scheme point with cache size
    and delivery rate swapped; it is only certified for two files, so this
    takes no file-count argument.
    """
    return [p.swapped() for p in scheme_points(2, num_users)]


class TradeoffCurve(FrozenRecord):
    """A convex, non-increasing piecewise-linear map memory -> rate."""

    corners: tuple[RatePoint, ...]

    def __init__(self, corners: tuple[RatePoint, ...]) -> None:
        fields = self.__dict__
        fields["corners"] = corners
        fields["_values"] = (corners,)
        if not corners:
            raise ValueError("curve needs at least one corner")
        prev_slope = None
        for a, b in zip(corners, corners[1:]):
            if b.memory <= a.memory:
                raise ValueError("corner memories must strictly increase")
            slope = (b.rate - a.rate) / (b.memory - a.memory)
            if slope > 0:
                raise ValueError("curve must be non-increasing")
            if prev_slope is not None and slope < prev_slope:
                raise ValueError("curve must be convex")
            prev_slope = slope

    @property
    def memory_span(self) -> tuple[Fraction, Fraction]:
        return self.corners[0].memory, self.corners[-1].memory

    def value_at(self, memory) -> Fraction:
        m = _frac(memory)
        lo, hi = self.memory_span
        if not lo <= m <= hi:
            raise ValueError(f"memory {m} outside curve span [{lo}, {hi}]")
        i = bisect_right(self.corners, m, key=lambda c: c.memory) - 1
        if i == len(self.corners) - 1:
            return self.corners[-1].rate
        return _interpolate(self.corners[i], self.corners[i + 1], m)


def _interpolate(a: RatePoint, b: RatePoint, m: Fraction) -> Fraction:
    """Rate at memory m on the segment from corner a to corner b."""
    return a.rate + (m - a.memory) * (b.rate - a.rate) / (b.memory - a.memory)


def lower_convex_envelope(points) -> TradeoffCurve:
    """Lower boundary of the convex hull of the given points.

    Collinear and dominated points are discarded; corners past the
    minimum-rate vertex are memory-dominated and dropped as well.
    """
    pts = sorted({(p.memory, p.rate) for p in points})
    if not pts:
        raise ValueError("no points given")
    hull: list[tuple[Fraction, Fraction]] = []
    for p in pts:
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    best = min(range(len(hull)), key=lambda i: (hull[i][1], hull[i][0]))
    return TradeoffCurve(tuple(RatePoint(m, r) for m, r in hull[: best + 1]))


def converse_bounds(num_users: int) -> list[LinearBound]:
    """The two-file converse region for K users as explicit half-planes.

    Two entropy-derived lines per k in [2, K],
    (k+1)(k+2) M + 2k(k+1) R >= 2k(k+3) and its coefficient mirror,
    plus the two cut-set lines 2M + R >= 2 and M + 2R >= 2.
    """
    k_users = num_users
    if k_users < 2:
        raise ValueError(f"need at least 2 users, got {k_users}")
    bounds = []
    for k in range(2, k_users + 1):
        a, b, g = (k + 1) * (k + 2), 2 * k * (k + 1), 2 * k * (k + 3)
        bounds.append(LinearBound(Fraction(a), Fraction(b), Fraction(g), f"entropy-k{k}-a"))
        bounds.append(LinearBound(Fraction(b), Fraction(a), Fraction(g), f"entropy-k{k}-b"))
    bounds.append(LinearBound(Fraction(2), Fraction(1), Fraction(2), "cutset-s1"))
    bounds.append(LinearBound(Fraction(1), Fraction(2), Fraction(2), "cutset-s2"))
    return bounds


def upper_envelope(bounds: Sequence[LinearBound]) -> EnvelopePieces:
    """Pointwise largest of the given bounds on [0, 2], as (start memory,
    bound) pieces: pieces[i][1] is the largest bound from pieces[i][0] up to
    the next start (or 2).  The first piece starts at 0.

    Lines are taken by increasing slope -alpha/beta (the larger intercept
    wins among parallel ones); a hull stack drops each line the next one
    overtakes no later than that line's own start, and pieces outside
    [0, 2] are clipped away.
    """
    if not bounds or any(b.beta == 0 for b in bounds):
        raise ValueError("upper envelope needs at least one bound, none vertical")
    lines = sorted(
        ((-b.alpha / b.beta, b.gamma / b.beta, b) for b in bounds),
        key=lambda line: line[:2],
    )
    hull: list[tuple[Fraction | float, Fraction, Fraction, LinearBound]] = []
    for slope, intercept, bound in lines:
        if hull and hull[-1][1] == slope:
            hull.pop()  # parallel, with an intercept no larger
        start = -math.inf
        while hull:
            top_start, top_slope, top_intercept, _ = hull[-1]
            start = (top_intercept - intercept) / (slope - top_slope)
            if start > top_start:
                break
            hull.pop()
            start = -math.inf
        hull.append((start, slope, intercept, bound))
    ends = [piece[0] for piece in hull[1:]] + [math.inf]
    return tuple(
        (max(start, Fraction(0)), bound)
        for (start, _, _, bound), end in zip(hull, ends)
        if start < 2 and end > 0
    )


def converse_eval(num_users: int, memory) -> Fraction:
    """Best (largest) converse rate bound at the given cache size.

    Takes the max over every line; the reference the envelope walk in
    tightness_report and tight_intervals is tested against."""
    m = _frac(memory)
    if not 0 <= m <= 2:
        raise ValueError(f"memory {m} outside [0, 2]")
    return max(b.rate_at(m) for b in _converse_lines(num_users))


@lru_cache(maxsize=128)
def _converse_lines(num_users: int) -> tuple[LinearBound, ...]:
    # frozen bounds, so one tuple per K is shared by every converse_eval call
    return tuple(converse_bounds(num_users))


class TightnessRow(FrozenRecord):
    memory: Fraction
    achievable: Fraction
    converse: Fraction
    tight: bool

    def __init__(self, memory: Fraction, achievable: Fraction, converse: Fraction, tight: bool) -> None:
        fields = self.__dict__
        fields["memory"] = memory
        fields["achievable"] = achievable
        fields["converse"] = converse
        fields["tight"] = tight
        fields["_values"] = (memory, achievable, converse, tight)


def _two_file_curves(num_users: int) -> tuple[TradeoffCurve, EnvelopePieces]:
    """The achievable envelope (corners from 0 to 2) and converse pieces for K users."""
    envelope = lower_convex_envelope(
        scheme_points(2, num_users) + companion_points(num_users)
    )
    return envelope, upper_envelope(converse_bounds(num_users))


def _compare(
    envelope: TradeoffCurve, pieces: EnvelopePieces, memories: Iterable[Fraction]
) -> Iterator[TightnessRow]:
    """One merge pass: a row per memory, which must ascend within [0, 2].

    One pointer walks the achievable corners and one the converse pieces,
    so each row costs one interpolation and one rate_at.
    """
    corners = envelope.corners
    i = j = 0
    for m in memories:
        while i + 2 < len(corners) and corners[i + 1].memory <= m:
            i += 1
        while j + 1 < len(pieces) and pieces[j + 1][0] <= m:
            j += 1
        ach = _interpolate(corners[i], corners[i + 1], m)
        conv = pieces[j][1].rate_at(m)
        yield TightnessRow(m, ach, conv, ach == conv)


def _check_user_count(num_users: int) -> None:
    """Refuse a user count the two-file curves cannot be built for in time."""
    if num_users > _USER_CAP:
        raise ValueError(f"K={num_users} users exceeds the cap of {_USER_CAP} for the tradeoff curves")


def tightness_report(num_users: int, grid_step) -> list[TightnessRow]:
    """Achievable-vs-converse comparison over a rational grid on [0, 2]."""
    _check_user_count(num_users)
    step = _frac(grid_step)
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    if 2 / step > _GRID_ROW_CAP - 1:
        raise ValueError(f"grid step {step} gives more than {_GRID_ROW_CAP} rows on [0, 2]")
    envelope, pieces = _two_file_curves(num_users)
    grid = [i * step for i in range(int(2 / step) + 1)]
    if grid[-1] != 2:
        grid.append(Fraction(2))
    return list(_compare(envelope, pieces, grid))


def tight_intervals(num_users: int) -> list[tuple[Fraction, Fraction]]:
    """The exact set of M in [0, 2] where achievable equals converse, as
    ascending, disjoint closed intervals (lo, hi); lo == hi marks a point.

    Both curves are linear between consecutive points of the union of
    their breakpoints, so such a piece is tight exactly when both of its
    ends are.
    """
    _check_user_count(num_users)
    envelope, pieces = _two_file_curves(num_users)
    breaks = sorted({c.memory for c in envelope.corners} | {start for start, _ in pieces})
    intervals: list[tuple[Fraction, Fraction]] = []
    previous_tight = False
    for row in _compare(envelope, pieces, breaks):
        if row.tight and previous_tight:
            intervals[-1] = (intervals[-1][0], row.memory)
        elif row.tight:
            intervals.append((row.memory, row.memory))
        previous_tight = row.tight
    return intervals
