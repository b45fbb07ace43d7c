"""Exact binomials, the scheme's closed-form sizes, and the colexicographic
order of fixed-size subsets, held as increasing tuples.

`scheme_counts` is the one place the scheme's counts are computed, so
nothing builds a plan table just to count; `scheme.SchemeParams` holds
them, and every size derived from them, once per instance.  It prices
C(K', r) before computing it and refuses a count of more than
`COUNT_BITS_CAP` bits.  `admit_plan_counts` prices the tables of
`plan.scheme_plan` from those counts and the sizes of the two levels
below r before any table is built:
`verify.admit` passes it `SchemeParams.counts`, and `scheme_plan` calls
`admit_plan`, which computes them from (N, K, r) first.  `_count` writes
a count into a refusal, and `ratio_text` writes a ratio of two counts as
`str(Fraction)` prints it, with no `Fraction` built.

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


def ratio_text(num: int, den: int) -> str:
    """num/den (den > 0) as `str(Fraction(num, den))` prints it: `n`, or
    `n/d` in lowest terms."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


COUNT_BITS_CAP = 1 << 16
"""The most bits C(K', r) may have: 65,536 (19,729 decimal digits), which
`math.comb` computes in about 0.1 s (CPython 3.11 on a 2-vCPU VM; the
cost grows faster than linearly), where C(10^9 + 1, 5 * 10^8) would take
hours.  The largest count any shipped check admits, C(20001, 10000),
has 19,994 bits."""


def _binomial_bits_exceed(n: int, k: int, cap: int) -> bool:
    """Whether C(n, k) has more than `cap` bits, computing it only near the cap.

    With k the smaller side, 2^k <= (n/k)^k <= C(n, k) < 2^n, so n <= cap
    admits and k >= cap refuses at once.  Otherwise log2 C(n, k) is
    estimated to well under a bit: below n = 2^40 from three `math.lgamma`
    terms, each good to a few ulps; above it as log2(n^k / k!), which
    `math.log2` reads off an int of any size and which exceeds
    log2 C(n, k) by k*log2(n/(n-k+1)) < 2^-7 bits for k < 2^16.  An
    estimate within a bit of the cap is settled by the exact count.
    """
    k = min(k, n - k)
    if n <= cap or k >= cap:
        return n > cap
    if n < 1 << 40:
        log2c = (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / math.log(2)
    else:
        log2c = k * math.log2(n) - math.lgamma(k + 1) / math.log(2)
    if abs(log2c - cap) > 1:  # bit_length is floor(log2 C) + 1
        return log2c > cap
    return math.comb(n, k).bit_length() > cap


def scheme_counts(num_files: int, num_users: int, r: int) -> tuple[int, int, int, int]:
    """Every payload size of (N, K, r), in closed form, with K' = N*K - K + 1.

    Returns (subfiles per file, signals per cache, signals each cache
    rebuilds, segments per broadcast file): C(K', r) r-subsets;
    C(K', r+1) - C(K'-N, r+1) leader-intersecting (r+1)-subsets, the stored
    ones; the C(K'-N, r+1) others; and C(K'-1, r-1) (r-1)-subsets avoiding
    t_d.  An instance with N < 2, K < 1 or r outside [0, K'] raises
    ValueError, and one whose C(K', r) has more than `COUNT_BITS_CAP` bits
    raises `ScaleLimitError` before any binomial is computed.
    """
    if num_files < 2:
        raise ValueError(f"need at least 2 files, got {num_files}")
    if num_users < 1:
        raise ValueError(f"need at least 1 user, got {num_users}")
    positions = position_count(num_files, num_users)
    if not 0 <= r <= positions:
        raise ValueError(f"r={r} outside [0, {positions}]")
    if _binomial_bits_exceed(positions, r, COUNT_BITS_CAP):
        raise ScaleLimitError(
            f"C(K', r) = C({_count(positions)}, {_count(r)}) has more than "
            f"{COUNT_BITS_CAP} bits, which exceeds the cap"
        )
    subfiles = binomial(positions, r)
    rebuilt = binomial(positions - num_files, r + 1)
    # C(K'-1, r-1) = C(K', r) * r / K' exactly, one binomial fewer.
    return subfiles, binomial(positions, r + 1) - rebuilt, rebuilt, subfiles * r // positions


# in `admit_plan_counts`' cost units; built one per fresh process on a 2-vCPU VM,
# the costliest plans under the cap take 2-4 s or 100-220 MiB with the column
# tables: (2,100,1) 1.95M units 2.6-4.2 s / 102 MiB, (6,4,5) 1.71M 2.5-4.2 s /
# 110 MiB, (13,2,5) 1.45M 1.5-3.0 s / 220 MiB (the row tables they replace:
# 102, 117 and 249 MiB in the same runs); above it, with the row tables,
# (5,5,5) 2.99M took 8.3 s and (16,2,5) 5.9M 15 s / 918 MiB.  Near r = K' the
# expansion tables dominate: (2,150,151), 1.73M units, simulates in 0.3 s / 42 MiB,
# while (2,400,401), 32.3M units, ran out of a 600,000 KiB address space building
# them when they were not priced
_PLAN_COST_CAP = 2_000_000


def admit_plan(num_files: int, num_users: int, r: int) -> int:
    """`admit_plan_counts` on the counts of (N, K, r); returns K'."""
    return admit_plan_counts(num_files, num_users, r, scheme_counts(num_files, num_users, r))


def admit_plan_counts(num_files: int, num_users: int, r: int, counts: tuple[int, int, int, int]) -> int:
    """Refuse (N, K, r) whose plan (`plan.scheme_plan`) costs more than
    `_PLAN_COST_CAP`, from its `scheme_counts` alone, and return K'.

    Two terms dominate the cost of building a plan: the decoding columns,
    K' entries for each of the C(K', r) subfiles, and the reconstruction rows,
    C(K'-N, r+1) per user, each built from the 2^(r+1) subsets of its
    (r+1)-subset.  Near r = K', where both are small, the delivery and
    expansion columns dominate instead: K' entries for each of the
    C(K', r-1) and C(K', r-2) subsets one and two levels down.  The cost is
    the larger of the two sums.
    """
    positions = position_count(num_files, num_users)
    subfiles, _, rebuilt, _ = counts
    expansion = positions * (binomial(positions, r - 1) + binomial(positions, r - 2))
    cost = max(subfiles * positions + num_users * rebuilt * 2 ** (r + 1), expansion)
    if cost > _PLAN_COST_CAP:
        raise ScaleLimitError(
            f"the plan of N={num_files} K={num_users} r={r} costs ~{_count(cost)} table "
            f"entries, which exceeds the cap of {_PLAN_COST_CAP}"
        )
    return positions


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
