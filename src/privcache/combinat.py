"""Exact binomials, the scheme's closed-form sizes, and the colexicographic
order of fixed-size subsets, held as increasing tuples.

`scheme_counts` is the one place a payload size is computed, so nothing
builds a plan table just to count.

Colex order compares subsets by their largest element first, which gives
O(size) ranks without lookup tables and keeps the order of small subsets
stable when the universe grows.  It is the single canonical order used for
subfile layout and signal serialization throughout the package: `plan`
builds its levels with `colex_subsets` and ranks with `colex_rank`.  The
subset objects of the reference layer (`reference.SubsetIndex`, its rank
and unrank) wrap the same tuples.
"""

from __future__ import annotations

import math
from itertools import combinations
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


class ScaleLimitError(ValueError):
    """The requested enumeration is too large to run exhaustively."""


def _count(value: int) -> str:
    """`value` for a refusal message: in decimal, or past 2000 bits (603
    digits, under any int-to-str limit Python allows) as 2^(bits - 1)."""
    bits = value.bit_length()
    return str(value) if bits <= 2000 else f"2^{bits - 1}"


def scheme_counts(num_files: int, num_users: int, r: int) -> tuple[int, int, int, int]:
    """Every payload size of (N, K, r), in closed form, with K' = N*K - K + 1.

    Returns (subfiles per file, signals per cache, signals each cache
    rebuilds, segments per broadcast file): C(K', r) r-subsets;
    C(K', r+1) - C(K'-N, r+1) leader-intersecting (r+1)-subsets, the stored
    ones; the C(K'-N, r+1) others; and C(K'-1, r-1) (r-1)-subsets avoiding
    t_d.  An instance with N < 2, K < 1 or r outside [0, K'] raises
    ValueError.
    """
    if num_files < 2:
        raise ValueError(f"need at least 2 files, got {num_files}")
    if num_users < 1:
        raise ValueError(f"need at least 1 user, got {num_users}")
    positions = position_count(num_files, num_users)
    if not 0 <= r <= positions:
        raise ValueError(f"r={r} outside [0, {positions}]")
    subfiles = binomial(positions, r)
    rebuilt = binomial(positions - num_files, r + 1)
    # C(K'-1, r-1) = C(K', r) * r / K' exactly, one binomial fewer.
    return subfiles, binomial(positions, r + 1) - rebuilt, rebuilt, subfiles * r // positions


def colex_rank(members: Sequence[int]) -> int:
    """Colex rank of a strictly increasing member sequence among the
    subsets of its size."""
    return sum(math.comb(c, j + 1) for j, c in enumerate(members))


def colex_subsets(universe: int, size: int) -> list[tuple[int, ...]]:
    """All C(universe, size) size-subsets of [0, universe) as increasing
    tuples, in colex order; [] when size is negative or above the universe.

    Lexicographic order over descending members, each tuple and the list
    then reversed, is colex order; nothing but the result is held.
    """
    if size < 0 or size > universe:
        return []
    subsets = [c[::-1] for c in combinations(range(universe - 1, -1, -1), size)]
    subsets.reverse()
    return subsets
