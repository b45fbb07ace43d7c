"""Rank-indexed XOR plans for placement, delivery and decoding.

Every payload bit of the scheme is a fixed XOR of library subfiles.  Which
subfiles it takes depends only on (N, K, r), the key digit and the
auxiliary demand, never on the library bits.  A SchemePlan holds that
structure as flat tables of colex ranks, built once per (N, K, r) and kept
in a small bounded cache.  The hot loops in `yma.yma_delivery`,
`scheme.build_delivery` and `scheme.decode` then XOR plain ints, picked by
rank out of the library's pre-split subfiles; no subset object is built
per signal or segment.

Tables are indexed by the colex rank of an l-subset of the K' positions
("level l"): an `up` row gives, for each position t, the level-(l+1) rank
of the subset plus t, or -1 when t is already a member; a `down` row lists
(t, level-(l-1) rank of the subset minus t) for each member t.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import TYPE_CHECKING, NamedTuple

from .combinat import SubsetIndex, colex_rank, enumerate_r_subsets
from .yma import build_u_vector

if TYPE_CHECKING:
    from .scheme import SchemeParams

Up = tuple[tuple[int, ...], ...]
Down = tuple[tuple[tuple[int, int], ...], ...]

_PLAN_CACHE_SIZE = 8


class SchemePlan(NamedTuple):
    """Colex-rank tables of one (N, K, r); see the module docstring."""

    num_files: int
    # cache side: the leader-intersecting (r+1)-subsets, colex order, with
    # their level-(r+1) ranks and their (position, r-subset rank) terms
    stored: tuple[SubsetIndex, ...]
    stored_ranks: tuple[int, ...]
    stored_terms: Down
    signal_count: int
    # broadcast side: every (r-1)-subset in colex order, and its neighbours
    segments: tuple[SubsetIndex, ...]
    segment_up: Up
    segment_down: Down
    # neighbours of the (r-2)-subsets, for segments that contain t_d
    base_up: Up
    # neighbours of the r-subsets, one row per subfile
    subfile_up: Up
    subfile_down: Down
    # reconstruction[user]: (rank of a non-stored signal, level-(r+1) ranks
    # of the stored signals it XORs, each listed once by parity)
    reconstruction: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]


def scheme_plan(params: SchemeParams) -> SchemePlan:
    """The plan of `params`; it does not depend on the file length."""
    return _plan(params.num_files, params.num_users, params.r)


def _down(subsets: list[tuple[int, ...]]) -> Down:
    """For each subset, (member t, colex rank of the subset minus t)."""
    rows = []
    for members in subsets:
        kept = [comb(c, j + 1) for j, c in enumerate(members)]  # below the removed one
        shifted = [comb(c, j) for j, c in enumerate(members)]  # above it
        below, above = 0, sum(shifted)
        row = []
        for j, c in enumerate(members):
            above -= shifted[j]
            row.append((c, below + above))
            below += kept[j]
        rows.append(tuple(row))
    return tuple(rows)


def _up(count: int, positions: int, down_above: Down) -> Up:
    """Invert the next level's down rows: rank of subset plus t, or -1."""
    rows = [[-1] * positions for _ in range(count)]
    for rank, row in enumerate(down_above):
        for t, lower in row:
            rows[lower][t] = rank
    return tuple(tuple(row) for row in rows)


def _flat_reconstruction(
    entries: tuple[int, ...], outside: list[tuple[int, tuple[int, ...]]]
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """`yma.reconstruct_y`'s exchange identity as rank lists for one user.

    A non-stored index B XORs, for every nonempty F within B whose demands
    are pairwise distinct, the stored signal at (B minus F) plus the
    leaders of F's demands.  Terms reached an even number of times cancel.
    `entries` is the user's virtual demand vector for key digit 0, whose
    leader of value v is position v.  Another key adds the same digit to
    every entry, which keeps both the distinctness and each entry's leader
    position, so the lists hold for every key.
    """
    out = []
    for rank, members in outside:
        sources: set[int] = set()
        for size in range(1, len(members) + 1):
            for f_set in combinations(members, size):
                leaders = {entries[i] for i in f_set}
                if len(leaders) != size:
                    continue
                swapped = sorted(leaders)
                swapped += (m for m in members if m not in f_set)
                sources ^= {colex_rank(swapped)}
        out.append((rank, tuple(sorted(sources))))
    return tuple(out)


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(num_files: int, num_users: int, r: int) -> SchemePlan:
    positions = num_files * num_users - num_users + 1
    subsets = {size: enumerate_r_subsets(positions, size) for size in range(r - 2, r + 2)}
    level = {size: [s.members for s in found] for size, found in subsets.items()}
    signals_down = _down(level[r + 1])
    stored_ranks = [rank for rank, members in enumerate(level[r + 1]) if members[0] < num_files]
    outside = [
        (rank, members) for rank, members in enumerate(level[r + 1]) if members[0] >= num_files
    ]
    subfile_down = _down(level[r])
    segment_down = _down(level[r - 1])
    return SchemePlan(
        num_files=num_files,
        stored=tuple(subsets[r + 1][rank] for rank in stored_ranks),
        stored_ranks=tuple(stored_ranks),
        stored_terms=tuple(signals_down[rank] for rank in stored_ranks),
        signal_count=len(level[r + 1]),
        segments=tuple(subsets[r - 1]),
        segment_up=_up(len(level[r - 1]), positions, subfile_down),
        segment_down=segment_down,
        base_up=_up(len(level[r - 2]), positions, segment_down),
        subfile_up=_up(len(level[r]), positions, signals_down),
        subfile_down=subfile_down,
        reconstruction=tuple(
            _flat_reconstruction(build_u_vector(num_files, num_users, user, 0).entries, outside)
            for user in range(num_users)
        ),
    )
