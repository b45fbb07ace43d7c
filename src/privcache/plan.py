"""Rank-indexed XOR plans for placement, delivery and decoding.

Every payload bit of the scheme is a fixed XOR of library subfiles.  Which
subfiles it takes depends only on (N, K, r), the key digit and the
auxiliary demand, never on the library bits.  A SchemePlan holds that
structure as flat tables of colex ranks, built once per (N, K, r), kept in
a small bounded cache and read as `SchemeParams.plan`.  The hot loops in
`yma.yma_delivery`, `scheme.build_delivery` and `scheme.decode` then XOR
plain ints, picked by rank out of the library's pre-split subfiles; no
subset object is built per signal or segment.  Payloads are tuples of
those ints in wire order: a cache's stored signals in `stored_ranks`
order, a broadcast's segments file by file, each in colex order of the
(r-1)-subsets avoiding t_d.  `delivered[t]` lists the segments sent when
t_d = t and `rebuilt[t]` how `DeliverySignal.segment_values` rebuilds the
others; `reconstruction` rebuilds a cache's other signals for
`CacheContent.signal_values`, and `virtual` is each user's key-0 vector.

Tables are indexed by the colex rank of an l-subset of the K' positions
("level l"): an `up` row gives, for each position t, the level-(l+1) rank
of the subset plus t, or -1 when t is already a member; a `down` row lists
(t, level-(l-1) rank of the subset minus t) for each member t.

Only placement, delivery, decoding, the payload expansions and the
wire-order helpers read a plan; payload sizes come from
`combinat.scheme_counts`, which also prices a plan before it is built.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import NamedTuple

from .combinat import ScaleLimitError, _count, colex_rank, colex_subsets, position_count, scheme_counts
from .yma import build_u_vector

Up = tuple[tuple[int, ...], ...]
Down = tuple[tuple[tuple[int, int], ...], ...]

_PLAN_CACHE_SIZE = 8
# in `scheme_plan`'s cost units; built one per fresh process on a 2-vCPU VM,
# the costliest plans under the cap take 4-5 s or 100-250 MiB: (2,100,1)
# 1.95M units 4.2 s, (6,4,5) 1.71M 4.7 s, (13,2,5) 1.45M 3.6 s / 251 MiB;
# above it (5,5,5) 2.99M takes 8.3 s and (16,2,5) 5.9M 15 s / 918 MiB
_PLAN_COST_CAP = 2_000_000


class SchemePlan(NamedTuple):
    """Colex-rank tables of one (N, K, r); see the module docstring."""

    # cache side: level-(r+1) ranks of the leader-intersecting (r+1)-subsets,
    # colex order, with their (position, r-subset rank) terms
    stored_ranks: tuple[int, ...]
    stored_terms: Down
    signal_count: int
    # broadcast side: neighbours of every (r-1)-subset, colex order
    segment_up: Up
    # per position t: the ranks of the (r-1)-subsets avoiding t, sent when
    # t_d = t; and (rank, up row of the subset minus t) of those holding t
    delivered: tuple[tuple[int, ...], ...]
    rebuilt: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]
    # neighbours of the r-subsets, one row per subfile
    subfile_up: Up
    subfile_down: Down
    # virtual[user]: the user's virtual demand vector for key digit 0
    virtual: tuple[tuple[int, ...], ...]
    # reconstruction[user]: (rank of a non-stored signal, level-(r+1) ranks
    # of the stored signals it XORs, each listed once by parity)
    reconstruction: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]


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
    """The exchange identity of the non-stored signals, as rank lists.

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
def scheme_plan(num_files: int, num_users: int, r: int) -> SchemePlan:
    """The plan of (N, K, r); it does not depend on the file length.

    Two terms dominate the cost of building it: the up rows of the C(K', r)
    subfiles, K' entries each, and the reconstruction rows, C(K'-N, r+1)
    per user, each built from the 2^(r+1) subsets of its (r+1)-subset.
    Above `_PLAN_COST_CAP` it raises `ScaleLimitError` before any table is
    built.
    """
    positions = position_count(num_files, num_users)
    subfiles, _, rebuilt, _ = scheme_counts(num_files, num_users, r)
    cost = subfiles * positions + num_users * rebuilt * 2 ** (r + 1)
    if cost > _PLAN_COST_CAP:
        raise ScaleLimitError(
            f"the plan of N={num_files} K={num_users} r={r} costs ~{_count(cost)} table "
            f"entries, which exceeds the cap of {_PLAN_COST_CAP}"
        )
    level = {size: colex_subsets(positions, size) for size in range(r - 2, r + 2)}
    signals_down = _down(level[r + 1])
    stored_ranks = [rank for rank, members in enumerate(level[r + 1]) if members[0] < num_files]
    outside = [
        (rank, members) for rank, members in enumerate(level[r + 1]) if members[0] >= num_files
    ]
    subfile_down = _down(level[r])
    segment_up = _up(len(level[r - 1]), positions, subfile_down)
    segment_down = _down(level[r - 1])
    base_up = _up(len(level[r - 2]), positions, segment_down)
    virtual = tuple(build_u_vector(num_files, num_users, user, 0).entries for user in range(num_users))
    return SchemePlan(
        stored_ranks=tuple(stored_ranks),
        stored_terms=tuple(signals_down[rank] for rank in stored_ranks),
        signal_count=len(level[r + 1]),
        segment_up=segment_up,
        delivered=tuple(tuple(i for i, up in enumerate(segment_up) if up[t] >= 0) for t in range(positions)),
        rebuilt=tuple(
            tuple((i, base_up[b]) for i, row in enumerate(segment_down) for u, b in row if u == t)
            for t in range(positions)
        ),
        subfile_up=_up(len(level[r]), positions, signals_down),
        subfile_down=subfile_down,
        virtual=virtual,
        reconstruction=tuple(_flat_reconstruction(entries, outside) for entries in virtual),
    )
