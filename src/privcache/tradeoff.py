"""Exact-rational memory-rate tradeoff machinery.

Achievable corner points, lower convex envelopes (memory-sharing), and the
two-file converse region: the entropy-based half-planes plus the two
cut-set lines.  All arithmetic is done in fractions.Fraction; floats only
ever appear in rendered output.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .combinat import binomial, position_count


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class RatePoint:
    """An exact (memory, rate) pair, both in units of files."""

    memory: Fraction
    rate: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "memory", _frac(self.memory))
        object.__setattr__(self, "rate", _frac(self.rate))
        if self.memory < 0 or self.rate < 0:
            raise ValueError(f"negative coordinate in ({self.memory}, {self.rate})")

    def swapped(self) -> RatePoint:
        return RatePoint(self.rate, self.memory)


@dataclass(frozen=True)
class LinearBound:
    """A half-plane alpha*M + beta*R >= gamma with beta > 0."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    label: str = ""

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            object.__setattr__(self, name, _frac(getattr(self, name)))
        if self.beta < 0 or (self.alpha == 0 and self.beta == 0):
            raise ValueError(f"invalid bound coefficients ({self.alpha}, {self.beta})")

    def rate_at(self, memory) -> Fraction:
        if self.beta == 0:
            raise ValueError("vertical bound has no rate value")
        return (self.gamma - self.alpha * _frac(memory)) / self.beta


def scheme_point(num_files: int, num_users: int, r: int) -> RatePoint:
    """Exact (M, R) of the virtual-user scheme with split parameter r.

    With K' = N*K-K+1:  M = (C(K',r+1) - C(K'-N,r+1)) / C(K',r)  and
    R = N*r / K'.
    """
    n = num_files
    kp = position_count(n, num_users)
    memory = Fraction(binomial(kp, r + 1) - binomial(kp - n, r + 1), binomial(kp, r))
    return RatePoint(memory, Fraction(n * r, kp))


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


@dataclass(frozen=True)
class TradeoffCurve:
    """A convex, non-increasing piecewise-linear map memory -> rate."""

    corners: tuple[RatePoint, ...]

    def __post_init__(self) -> None:
        if not self.corners:
            raise ValueError("curve needs at least one corner")
        prev_slope = None
        for a, b in zip(self.corners, self.corners[1:]):
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
        mems = [c.memory for c in self.corners]
        i = bisect_right(mems, m) - 1
        if i == len(self.corners) - 1:
            return self.corners[-1].rate
        a, b = self.corners[i], self.corners[i + 1]
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


def converse_eval(num_users: int, memory) -> Fraction:
    """Best (largest) converse rate bound at the given cache size."""
    m = _frac(memory)
    if not 0 <= m <= 2:
        raise ValueError(f"memory {m} outside [0, 2]")
    return max(b.rate_at(m) for b in converse_bounds(num_users))


@dataclass(frozen=True)
class TightnessRow:
    memory: Fraction
    achievable: Fraction
    converse: Fraction
    tight: bool


def tightness_report(num_users: int, grid_step) -> list[TightnessRow]:
    """Achievable-vs-converse comparison over a rational grid on [0, 2]."""
    step = _frac(grid_step)
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    envelope = lower_convex_envelope(
        scheme_points(2, num_users) + companion_points(num_users)
    )
    bounds = converse_bounds(num_users)
    rows = []
    grid = [i * step for i in range(int(2 / step) + 1)]
    if grid[-1] != 2:
        grid.append(Fraction(2))
    for m in grid:
        ach = envelope.value_at(m)
        conv = max(b.rate_at(m) for b in bounds)
        rows.append(TightnessRow(m, ach, conv, ach == conv))
    return rows
