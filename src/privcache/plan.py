"""Column pickers for placement, delivery, decoding and the segment expansion.

Every payload bit of the scheme is a fixed XOR of library subfiles.  Which
subfiles it takes depends only on (N, K, r), the key digit and the
auxiliary demand, never on the library bits.  A SchemePlan holds that
structure as column tables, built once per (N, K, r), kept in a small
bounded cache and read as `SchemeParams.plan`.  A `Column` lists, for
every output slot (a stored signal, a segment or a subfile), the index in
a flat pool of ints of one XOR term of that slot, and carries a prebuilt
`operator.itemgetter` that gathers them all; `bitvec.xor_columns`, the one
kernel, XORs the gathered columns slot by slot, with no Python step per
term.  A slot with no term in a column points at the pool's zero
sentinel, which the pool holds right after its values.  The pools:

  * placement (`yma.yma_delivery`): position-major, C(K', r) subfiles per
    position, those of the file the position of the user's virtual vector
    names (`stored_columns[c]`: the term of each stored (r+1)-subset at its
    c-th member; every signal has r + 1 terms, so no sentinel);
  * delivery (`scheme._segment_rows`): one file's subfiles, then the
    sentinel (`segment_columns[v]`: the subfile at S plus v for every
    (r-1)-subset S, per position v); `delivered[t]` then picks, in colex
    order, the segments avoiding t, which a broadcast with t_d = t sends;
  * segment expansion (`DeliverySignal.segment_values`): one file's
    segments in colex order, zero where t_d sent none, then the sentinel
    (`base_columns[t]`: the segment at B plus t for every (r-2)-subset B;
    `base_columns[t_d]` also names the segment each rebuilt value fills);
  * decoding (`scheme._xor_decode`): the cache's `signal_values`, the
    sentinel, then the segment expansion of every position in position
    order (`decode_up[t]`: the signal at R plus t for every subfile R;
    `decode_down[c]`: the segment at R minus its c-th member).

Payloads are tuples of those ints in wire order: a cache's stored signals
in `stored_ranks` order, a broadcast's segments file by file in
`delivered[t_d]` order.  `reconstruction` rebuilds a cache's other signals
for `CacheContent.signal_values` row by row: its rows hold up to
2^(r+1) - 1 terms, in lengths that vary within a plan, and padding them
to columns would add 29-70% more terms on (2,100,1), (4,4,3) and
(6,4,5), each an XOR with the sentinel, and grow the table that
dominates those plans.  `virtual` is each user's key-0 vector.

Ranks are colex ranks among the l-subsets of the K' positions ("level
l").  Only placement, delivery, decoding, the payload expansions and the
wire-order helpers read a plan; payload sizes come from
`combinat.scheme_counts`, and `combinat.admit_plan` prices a plan from
them before it is built.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .combinat import admit_plan, binomial, colex_rank, colex_subsets
from .yma import build_u_vector

_PLAN_CACHE_SIZE = 8


class Column(NamedTuple):
    """One XOR term of every output slot: its index in a flat pool of ints,
    slot by slot, and the gather that reads them all as one sequence."""

    indices: tuple[int, ...]
    pick: Callable[[Sequence[int]], Sequence[int]]


def column(indices: Iterable[int]) -> Column:
    """The column of `indices`; its gather is an `operator.itemgetter`, which
    keeps the very tuple it is given, so the indices are held once."""
    held = tuple(indices)
    if len(held) == 1:  # itemgetter of one index returns the bare item
        return Column(held, itemgetter(slice(held[0], held[0] + 1)))
    return Column(held, itemgetter(*held) if held else itemgetter(slice(0)))


class SchemePlan(NamedTuple):
    """Column tables of one (N, K, r); see the module docstring."""

    # cache side: level-(r+1) ranks of the leader-intersecting (r+1)-subsets,
    # colex order; column c: the term of each at its c-th member
    stored_ranks: tuple[int, ...]
    stored_columns: tuple[Column, ...]
    signal_count: int
    # broadcast side: C(K', r-1) segments S per file; per position v, the
    # subfile rank of S plus v
    segment_count: int
    segment_columns: tuple[Column, ...]
    # per position t: the ranks of the (r-1)-subsets avoiding t, sent when t_d = t
    delivered: tuple[Column, ...]
    # per position t, over the (r-2)-subsets B: the segment rank of B plus t
    base_columns: tuple[Column, ...]
    # decoding, over the subfiles R: per position t, the signal at R plus t;
    # per member index c, the segment at R minus its c-th member
    decode_up: tuple[Column, ...]
    decode_down: tuple[Column, ...]
    # virtual[user]: the user's virtual demand vector for key digit 0
    virtual: tuple[tuple[int, ...], ...]
    # reconstruction[user]: (rank of a non-stored signal, level-(r+1) ranks
    # of the stored signals it XORs, each listed once by parity)
    reconstruction: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]


def _down(subsets: list[tuple[int, ...]]) -> Iterator[list[int]]:
    """For each subset, the colex rank of the subset minus each member, in
    member order."""
    for members in subsets:
        kept = [comb(c, j + 1) for j, c in enumerate(members)]  # below the removed one
        shifted = [comb(c, j) for j, c in enumerate(members)]  # above it
        below, above = 0, sum(shifted)
        lowers = []
        for j in range(len(members)):
            above -= shifted[j]
            lowers.append(below + above)
            below += kept[j]
        yield lowers


def _up(subsets: list[tuple[int, ...]], downs: list[list[int]], below: int, positions: int) -> list[list[int]]:
    """Per position t, over the `below` subsets one level down: the rank of
    the subset plus t among `subsets`, or len(subsets) (the pool's zero
    sentinel) when t is already a member."""
    rows = [[len(subsets)] * below for _ in range(positions)]
    for rank, (members, lowers) in enumerate(zip(subsets, downs)):
        for t, lower in zip(members, lowers):
            rows[t][lower] = rank
    return rows


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
    `admit_plan` prices it first, so a refused plan builds no table."""
    positions = admit_plan(num_files, num_users, r)
    level = {size: colex_subsets(positions, size) for size in range(r - 1, r + 2)}
    downs = {size: list(_down(level[size])) for size in (r + 1, r, r - 1)}
    signals, subfiles, segments = (len(level[size]) for size in (r + 1, r, r - 1))
    stored_ranks = [rank for rank, members in enumerate(level[r + 1]) if members[0] < num_files]
    outside = [
        (rank, members) for rank, members in enumerate(level[r + 1]) if members[0] >= num_files
    ]
    # placement pool: the subfiles of position t start at t * subfiles
    stored: list[list[int]] = [[] for _ in range(r + 1)]
    for rank in stored_ranks:
        for terms, t, lower in zip(stored, level[r + 1][rank], downs[r + 1][rank]):
            terms.append(t * subfiles + lower)
    # decoding pool: signals, the zero, then position t's segments at
    # signals + 1 + t * segments
    down: list[list[int]] = [[] for _ in range(r)]
    for members, lowers in zip(level[r], downs[r]):
        for terms, t, lower in zip(down, members, lowers):
            terms.append(signals + 1 + t * segments + lower)
    segment_up = _up(level[r], downs[r], segments, positions)
    virtual = tuple(build_u_vector(num_files, num_users, user, 0).entries for user in range(num_users))
    return SchemePlan(
        stored_ranks=tuple(stored_ranks),
        stored_columns=tuple(map(column, stored)),
        signal_count=signals,
        segment_count=segments,
        segment_columns=tuple(map(column, segment_up)),
        delivered=tuple(column(i for i, rank in enumerate(row) if rank != subfiles) for row in segment_up),
        base_columns=tuple(map(column, _up(level[r - 1], downs[r - 1], binomial(positions, r - 2), positions))),
        decode_up=tuple(map(column, _up(level[r + 1], downs[r + 1], subfiles, positions))),
        decode_down=tuple(map(column, down)),
        virtual=virtual,
        reconstruction=tuple(_flat_reconstruction(entries, outside) for entries in virtual),
    )
