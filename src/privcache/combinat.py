"""Exact binomials and colexicographic ranking of fixed-size subsets.

Colex order compares subsets by their largest element first, which gives
O(size) rank/unrank without lookup tables and keeps the order of small
subsets stable when the universe grows.  It is the single canonical order
used for subfile layout and signal serialization throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


def binomial(n: int, k: int) -> int:
    """C(n, k) as an exact integer; 0 when k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"negative n {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def position_count(num_files: int, num_users: int) -> int:
    """K' = N*K - K + 1, the size of the scheme's position universe."""
    return num_files * num_users - num_users + 1


@dataclass(frozen=True)
class SubsetIndex:
    """A subset of [0, universe) stored as a strictly increasing tuple."""

    members: tuple[int, ...]
    universe: int

    def __post_init__(self) -> None:
        if self.universe <= 0:
            raise ValueError(f"universe must be positive, got {self.universe}")
        prev = -1
        for m in self.members:
            if m <= prev:
                raise ValueError(f"members not strictly increasing: {self.members}")
            prev = m
        if prev >= self.universe:
            raise ValueError(f"member {prev} outside universe {self.universe}")

    @classmethod
    def of(cls, members, universe: int) -> SubsetIndex:
        """Build from any iterable of distinct elements."""
        return cls(tuple(sorted(members)), universe)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def without(self, x: int) -> SubsetIndex:
        if x not in self.members:
            raise ValueError(f"{x} not a member of {self.members}")
        return SubsetIndex(tuple(m for m in self.members if m != x), self.universe)

    def adding(self, x: int) -> SubsetIndex:
        if x in self.members:
            raise ValueError(f"{x} already in {self.members}")
        return SubsetIndex(tuple(sorted(self.members + (x,))), self.universe)


def colex_rank(members: Sequence[int]) -> int:
    """Colex rank of a strictly increasing member sequence among the
    subsets of its size."""
    return sum(math.comb(c, j + 1) for j, c in enumerate(members))


def subset_rank(s: SubsetIndex) -> int:
    """Colex rank of `s` among the size-|s| subsets of its universe."""
    return colex_rank(s.members)


def subset_unrank(rank: int, size: int, universe: int) -> SubsetIndex:
    """Inverse of subset_rank: the size-`size` subset of colex rank `rank`."""
    total = binomial(universe, size)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range [0, {total})")
    members = [0] * size
    n, k, r = universe, size, rank
    while k > 0:
        n -= 1
        offset = binomial(n, k)
        if r >= offset:
            r -= offset
            k -= 1
            members[k] = n
    return SubsetIndex(tuple(members), universe)


def enumerate_r_subsets(universe: int, r: int) -> list[SubsetIndex]:
    """All C(universe, r) subsets of size r, in colex order.

    Out-of-range r (negative or above the universe) yields the empty list,
    matching the binomial convention.
    """
    if universe <= 0:
        raise ValueError(f"universe must be positive, got {universe}")
    if r < 0 or r > universe:
        return []

    def gen(n: int, k: int) -> list[tuple[int, ...]]:
        if k == 0:
            return [()]
        out = []
        for top in range(k - 1, n):
            out.extend(rest + (top,) for rest in gen(top, k - 1))
        return out

    return [SubsetIndex(t, universe) for t in gen(universe, r)]
