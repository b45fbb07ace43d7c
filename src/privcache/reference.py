"""The per-element reference layer: subsets as objects, and the scheme's
formulas evaluated one signal, segment or subfile at a time.

Placement, delivery and decoding run on the column tables of `plan`
and never read this module.  It holds the definitions those tables are
tested against: a subfile read by its r-subset (`subfile`), the YMA XOR
signal (`compute_y`), the broadcast segment (`x_segment`), the wire order
of payloads as subsets, and the demand classes with the label map `f_map`
(its inverse, `scheme.g_map`, stays with the label layout).  Only the
tests and the signal-reconstruction oracle import it; that oracle
(`verify.oracle_y_reconstruction`, `verify --suite reconstruction`) does
so when it runs, so a session, the correctness and privacy verifiers, the
demand-identity oracle and the tradeoff layer never compile it.  The lazy
`privcache` namespace maps the names it exports here.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

from . import yma
from ._record import FrozenRecord
from .bitvec import Bits
from .combinat import binomial, colex_rank, colex_subsets
from .scheme import build_v

if TYPE_CHECKING:
    from .scheme import AuxDemand, FileLibrary, SchemeParams
    from .yma import UVector


class SubsetIndex(FrozenRecord):
    """A subset of [0, universe) stored as a strictly increasing tuple."""

    members: tuple[int, ...]
    universe: int

    def __init__(self, members: tuple[int, ...], universe: int) -> None:
        self._store(members, universe)
        if universe <= 0:
            raise ValueError(f"universe must be positive, got {universe}")
        prev = -1
        for m in members:
            if m <= prev:
                raise ValueError(f"members not strictly increasing: {members}")
            prev = m
        if prev >= universe:
            raise ValueError(f"member {prev} outside universe {universe}")

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
    """All C(universe, r) subsets of size r, in colex order
    (`combinat.colex_subsets`).

    Out-of-range r (negative or above the universe) yields the empty list,
    matching the binomial convention.
    """
    if universe <= 0:
        raise ValueError(f"universe must be positive, got {universe}")
    return [SubsetIndex(t, universe) for t in colex_subsets(universe, r)]


def subfile(files: FileLibrary, n: int, index: SubsetIndex) -> Bits:
    """Subfile (n, R): the subset_rank(R)-th block of file n."""
    params = files.params
    if index.universe != params.positions or len(index) != params.r:
        raise ValueError(f"bad subfile index {index}")
    return files.files[n].block(subset_rank(index), params.subfile_bits)


def compute_y(files: FileLibrary, u: UVector, r_plus: SubsetIndex) -> Bits:
    """The XOR signal indexed by an (r+1)-subset of positions.

    XOR over i in r_plus of the subfile of file u[i] indexed by
    r_plus minus {i}.
    """
    if len(r_plus) != files.params.r + 1:
        raise ValueError(f"index size {len(r_plus)} != r+1 = {files.params.r + 1}")
    acc = Bits.zeros(files.params.subfile_bits)
    for i in r_plus:
        acc = acc ^ subfile(files, u.entries[i], r_plus.without(i))
    return acc


def x_segment(files: FileLibrary, d: AuxDemand, s: SubsetIndex, n: int) -> Bits:
    """Broadcast segment for file n at an (r-1)-subset S.

    XOR of the subfiles indexed by {v} union S over the selector positions
    v outside S; the empty XOR is the all-zero string.
    """
    params = files.params
    if len(s) != params.r - 1:
        raise ValueError(f"segment index size {len(s)} != r-1 = {params.r - 1}")
    acc = Bits.zeros(params.subfile_bits)
    for v in build_v(d).members:
        if v not in s:
            acc = acc ^ subfile(files, n, s.adding(v))
    return acc


def stored_signal_indices(params: SchemeParams) -> list[SubsetIndex]:
    """Wire order of cache signals: the leader-intersecting (r+1)-subsets
    in colex order."""
    signals = enumerate_r_subsets(params.positions, params.r + 1)
    return [signals[rank] for rank in params.plan.stored_ranks]


def delivered_segment_indices(params: SchemeParams, t_d: int) -> list[tuple[int, SubsetIndex]]:
    """Wire order of broadcast segments: n ascending, then the
    (r-1)-subsets avoiding t_d in colex order."""
    if not 0 <= t_d < params.positions:
        raise ValueError(f"t={t_d} outside the {params.positions} positions")
    subsets = enumerate_r_subsets(params.positions, params.r - 1)
    ranks = params.plan.delivered[t_d].indices
    return [(n, subsets[i]) for n in range(params.num_files) for i in ranks]


class DemandClass(Enum):
    D0 = "D0"
    D1 = "D1"
    D2 = "D2"


def _two_run(digits: tuple[int, ...], num_files: int) -> tuple[int, int] | None:
    """(a, j) when the digits are (a, ..., a, a+1, ..., a+1) ending in j >= 0
    digits a+1 with a+1 < N, else None."""
    a = digits[0]
    j = len(digits) - next((i for i, v in enumerate(digits) if v != a), len(digits))
    if j and (a + 1 >= num_files or any(v != a + 1 for v in digits[-j:])):
        return None
    return a, j


def classify(d: AuxDemand) -> DemandClass:
    """Partition class of an auxiliary demand vector.

    D0 holds the constant vectors and the two-run vectors (a, ..., a,
    a+1, ..., a+1) with a <= N-2 (no wraparound); D1 the remaining
    single-nonzero vectors; D2 the rest.  The one vector matching both
    patterns (0,...,0,1) goes to D0; its selector set is a singleton
    either way, so delivery is unaffected.
    """
    if _two_run(d.digits, d.num_files) is not None:
        return DemandClass.D0
    if sum(1 for v in d.digits if v) == 1:
        return DemandClass.D1
    return DemandClass.D2


def f_map(d: AuxDemand) -> int:
    """Label in [0, K') of a class-D0 demand, the two-run vector (a, ...,
    a, a+1, ..., a+1) ending in j digits a+1: `yma._label(a, j)`."""
    run = _two_run(d.digits, d.num_files)
    if run is None:
        raise ValueError(f"{d.digits} is not a class-D0 demand")
    return yma._label(*run, d.num_files, d.num_users)
