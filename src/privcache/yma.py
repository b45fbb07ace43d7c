"""Virtual-demand vectors and the YMA-style XOR signal layer.

Cache contents of the private scheme are delivery signals of the
uncoded-placement-optimal multicast (YMA) scheme evaluated under "virtual"
demand vectors, read off the label layout of the K' positions (`_label`,
`_unlabel`; `scheme` builds its labels and selectors on the same pair).
This module builds those vectors and computes, with the plan's column
tables and the one XOR kernel (`bitvec.xor_columns`), the XOR signals Y
indexed by the leader-intersecting (r+1)-subsets of the position
universe, the ones that are actually stored.  The non-stored ones are
rebuilt at decoding time from the plan's exchange-identity tables
(`plan.SchemePlan.reconstruction`).  The reference XOR signal formula,
one signal at a time, is `reference.compute_y`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ._record import FrozenRecord
from .bitvec import xor_columns
from .combinat import position_count

if TYPE_CHECKING:
    from .scheme import FileLibrary


class UVector(FrozenRecord):
    """A virtual demand vector of length N*K - K + 1 over file indices.

    The first N positions always carry the N distinct file indices (the
    leaders); every later entry repeats one of them.
    """

    entries: tuple[int, ...]
    num_files: int

    def __init__(self, entries: tuple[int, ...], num_files: int) -> None:
        self._store(entries, num_files)
        n = num_files
        if n < 2:
            raise ValueError(f"need at least 2 files, got {n}")
        if len(entries) < n:
            raise ValueError("vector shorter than the file count")
        if sorted(entries[:n]) != list(range(n)):
            raise ValueError(f"first {n} entries must cover all files: {entries}")
        if any(not 0 <= e < n for e in entries):
            raise ValueError(f"entry out of range in {entries}")

    def __len__(self) -> int:
        return len(self.entries)


def _label(a: int, j: int, num_files: int, num_users: int) -> int:
    """Position of the class-D0 demand (a, ..., a, a+1, ..., a+1) ending in
    j digits a+1: a for j = 0 and a+1 for j = K (the constant vectors, on
    the leaders), (N-1)*j + a + 1 otherwise."""
    if j == 0:
        return a
    if j == num_users:
        return a + 1
    return (num_files - 1) * j + a + 1


def _unlabel(t: int, num_files: int) -> tuple[int, int]:
    """Inverse of `_label`: the (a, j) of position t, j = 0 on the leaders."""
    if t < num_files:
        return t, 0
    j, a = divmod(t - 1, num_files - 1)
    return a, j


def build_u_vector(num_files: int, num_users: int, user: int, key: int) -> UVector:
    """Virtual demand vector for one (user, key digit) pair: entry t is the
    user's digit under the class-D0 demand labelled t (`scheme.g_map`) plus
    the key, modulo N."""
    n, k_users = num_files, num_users
    if n < 2:
        raise ValueError(f"need at least 2 files, got {n}")
    if not 0 <= user < k_users:
        raise ValueError(f"user {user} out of range for {k_users} users")
    if not 0 <= key < n:
        raise ValueError(f"key digit {key} out of range for {n} files")
    runs = [_unlabel(t, n) for t in range(position_count(n, k_users))]
    return UVector(tuple((key + a + (user >= k_users - j)) % n for a, j in runs), n)


def yma_delivery(files: FileLibrary, u: UVector) -> tuple[int, ...]:
    """All leader-intersecting XOR signals for one virtual demand vector.

    This is exactly the portion of the YMA delivery that gets stored as
    cache content, as `subfile_bits`-wide ints in the colex order of the
    plan's `stored_ranks`.  Each is `reference.compute_y`'s XOR, run by
    `bitvec.xor_columns` on the plan's `stored_columns` over a
    position-major pool: position t holds the subfiles of file u[t], so
    the vector's file map is read once per position, never per term.
    """
    params = files.params
    if len(u) != params.positions:
        raise ValueError(f"vector length {len(u)} != universe {params.positions}")
    columns = params.plan.stored_columns  # the plan's size guard runs before any file is split
    pool: list[int] = []
    for e in u.entries:
        pool += files.subfiles[e]
    return tuple(xor_columns(columns, pool))
