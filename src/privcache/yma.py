"""Virtual-demand vectors and the YMA-style XOR signal layer.

Cache contents of the private scheme are delivery signals of the
uncoded-placement-optimal multicast (YMA) scheme evaluated under carefully
constructed "virtual" demand vectors.  This module builds those vectors,
computes the XOR signals Y indexed by (r+1)-subsets of the position
universe, filters them down to the leader-intersecting ones that are
actually stored, and reconstructs the non-stored ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Mapping

from .bitvec import Bits
from .combinat import SubsetIndex

if TYPE_CHECKING:
    from .scheme import FileLibrary


@dataclass(frozen=True)
class UVector:
    """A virtual demand vector of length N*K - K + 1 over file indices.

    The first N positions always carry the N distinct file indices (the
    leaders); every later entry repeats one of them.
    """

    entries: tuple[int, ...]
    num_files: int

    def __post_init__(self) -> None:
        n = self.num_files
        if n < 2:
            raise ValueError(f"need at least 2 files, got {n}")
        if len(self.entries) < n:
            raise ValueError("vector shorter than the file count")
        if sorted(self.entries[:n]) != list(range(n)):
            raise ValueError(f"first {n} entries must cover all files: {self.entries}")
        if any(not 0 <= e < n for e in self.entries):
            raise ValueError(f"entry out of range in {self.entries}")

    def __len__(self) -> int:
        return len(self.entries)

    def leader_of(self, value: int) -> int:
        """The unique leader position demanding `value`."""
        for j in range(self.num_files):
            if self.entries[j] == value:
                return j
        raise ValueError(f"no leader demands {value}")


def build_u_vector(num_files: int, num_users: int, user: int, key: int) -> UVector:
    """Virtual demand vector for one (user, key digit) pair, closed form.

    Position i demands, modulo N: key + i on the leader block i < N, then
    key + ((i-1) mod (N-1)) up to position (K-user)(N-1), and
    key + ((i-1) mod (N-1)) + 1 beyond it.
    """
    n, k_users = num_files, num_users
    if n < 2:
        raise ValueError(f"need at least 2 files, got {n}")
    if not 0 <= user < k_users:
        raise ValueError(f"user {user} out of range for {k_users} users")
    if not 0 <= key < n:
        raise ValueError(f"key digit {key} out of range for {n} files")
    split = (k_users - user) * (n - 1)
    entries = []
    for i in range(n * k_users - k_users + 1):
        if i < n:
            entries.append((key + i) % n)
        elif i <= split:
            entries.append((key + (i - 1) % (n - 1)) % n)
        else:
            entries.append((key + (i - 1) % (n - 1) + 1) % n)
    return UVector(tuple(entries), n)


def compute_y(files: FileLibrary, u: UVector, r_plus: SubsetIndex) -> Bits:
    """The XOR signal indexed by an (r+1)-subset of positions.

    XOR over i in r_plus of the subfile of file u[i] indexed by
    r_plus minus {i}.
    """
    if len(r_plus) != files.params.r + 1:
        raise ValueError(f"index size {len(r_plus)} != r+1 = {files.params.r + 1}")
    acc = Bits.zeros(files.params.subfile_bits)
    for i in r_plus:
        acc = acc ^ files.subfile(u.entries[i], r_plus.without(i))
    return acc


def yma_delivery(files: FileLibrary, u: UVector) -> dict[SubsetIndex, Bits]:
    """All leader-intersecting XOR signals for one virtual demand vector.

    This is exactly the portion of the YMA delivery that gets stored as
    cache content: C(K', r+1) - C(K'-N, r+1) signals.  Each is compute_y's
    XOR, taken by rank from the library's plan and pre-split subfiles.
    """
    params = files.params
    if len(u) != params.positions:
        raise ValueError(f"vector length {len(u)} != universe {params.positions}")
    plan = files.plan
    width = params.subfile_bits
    rows = [files.subfiles[e] for e in u.entries]
    out: dict[SubsetIndex, Bits] = {}
    for index, terms in zip(plan.stored, plan.stored_terms):
        acc = 0
        for i, rank in terms:
            acc ^= rows[i][rank]
        out[index] = Bits(acc, width)
    return out


def reconstruct_y(
    delivered: Mapping[SubsetIndex, Bits], u: UVector, r_plus: SubsetIndex
) -> Bits:
    """Recover a non-stored signal from the leader-intersecting ones.

    For an index B disjoint from the leader set, the signal equals the XOR
    over every nonempty subset F of B with pairwise-distinct demands of the
    stored signal indexed by (B minus F) union the leaders of F's demands.
    This exchange identity is validated against compute_y by a brute-force
    oracle in the verification module before anything relies on it.
    """
    members = r_plus.members
    if any(m < u.num_files for m in members):
        return delivered[r_plus]
    width = next(iter(delivered.values())).length if delivered else 0
    acc = Bits.zeros(width)
    rest = set(members)
    for size in range(1, len(members) + 1):
        for f_set in combinations(members, size):
            values = [u.entries[i] for i in f_set]
            if len(set(values)) != len(values):
                continue
            swapped = (rest - set(f_set)) | {u.leader_of(v) for v in values}
            acc = acc ^ delivered[SubsetIndex.of(swapped, r_plus.universe)]
    return acc
