"""End-to-end demand-private coded caching scheme.

Placement fills each user's cache with the leader-filtered XOR signals
for a secret per-user key digit; delivery broadcasts XOR segments that
depend on the demands only through the key-masked auxiliary demand, so
the broadcast itself carries no information about who requested what.

The module is organized around the life of one session:

  * SchemeParams / FileLibrary      -- problem instance; each file split
                                       once into its C(K', r) subfile ints
  * SessionRandomness               -- key digits and t-index choices
  * place                           -- cache contents (key + signals)
  * aux_demand, build_v, g_map      -- auxiliary demand, its selector set and
                                       the labelled demands, all built on
                                       `yma`'s label layout
  * assemble_delivery               -- broadcast construction
  * decode                          -- receiver side

Placement, delivery, the segment expansion and decoding run on the
column tables of `SchemeParams.plan`, built once per (N, K, r): each
signal, segment and decoded subfile is an XOR of pre-split subfile ints,
and one kernel, `bitvec.xor_columns`, XORs the columns the plan's pickers
gather out of a flat pool, with no Python step per term.  Caches and
broadcasts are frozen and hold those ints as flat tuples in wire order
(the plan's `stored_ranks` and `delivered` columns); their constructors
reject any other shape, so every entry point, `from_bytes` included, gets
one set of checks, sized by the closed-form `SchemeParams.counts` rather
than the plan.  Each expands itself once, however many decodes read it
(`CacheContent.signal_values`, `DeliverySignal.segment_values`); `decode`
joins the subfiles that `_xor_decode`, the one decode, rebuilds from the
cache, the selector and the segment expansion, shifting `plan.virtual` by
the key, and the correctness verifier compares those subfiles without the
join, once per distinct expansion.  A delivery is two steps, the segment
rows of the selector (`_segment_rows`) and the part of them that t_d
sends (`_broadcast`), so the verifier builds the rows once per auxiliary
demand.  The per-element formulas those tables are tested against
(`subfile`, `compute_y`, `x_segment`, the wire order as subsets, the
demand classes and `f_map`) live in `reference`, which no session loads.

Every value class here is a `_record.FrozenRecord` with an explicit
constructor: it stores its fields with one `_store` call, in declaration
order, then runs its checks, so an instance that exists has passed them;
equality, hash and repr come from the declared fields, and
`cached_property` values stay outside them.

`SchemeParams` is the one place an instance's sizes are computed: the
closed-form counts, the library's N*F bits, each payload's bits and the
broadcast's segment count.  Every guard, header, report and command reads
them from there; the seeded draw refuses a file, and then a library, past
`bitvec.admit_draw`'s limit (`FileLibrary.admit_random`).

Loading this module loads neither `plan` nor `tradeoff`: `SchemeParams.plan`
imports `plan` on first use, and nothing here imports `tradeoff`, so a
session, and the `params` command, never compiles the tradeoff layer or
`fractions`.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, Sequence

from . import yma
from ._record import FrozenRecord
from .bitvec import Bits, admit_draw, pack_blocks, split_blocks, xor_columns
from .combinat import ScaleLimitError, _count, position_count, scheme_counts

if TYPE_CHECKING:
    from .plan import SchemePlan

_TD_BYTES = 2
_LEN_BYTES = 4


class SchemeParams(FrozenRecord):
    """Problem instance: N files, K users, split parameter r, file length F.

    The position universe has K' = N*K - K + 1 elements; each file splits
    into C(K', r) equal subfiles, so F must be divisible by that count.
    """

    num_files: int
    num_users: int
    r: int
    file_bits: int

    def __init__(self, num_files: int, num_users: int, r: int, file_bits: int) -> None:
        self._store(num_files, num_users, r, file_bits)
        subfiles = self.subfile_count  # checks N, K and r
        if file_bits < 1:
            raise ValueError(f"file length must be positive, got {file_bits}")
        if file_bits % subfiles:
            raise ValueError(f"file length {file_bits} not divisible by {subfiles} subfiles")

    @property
    def positions(self) -> int:
        return position_count(self.num_files, self.num_users)

    @cached_property
    def counts(self) -> tuple[int, int, int, int]:
        """(subfiles per file, signals per cache, signals each cache
        rebuilds, segments per broadcast file), from `scheme_counts`."""
        return scheme_counts(self.num_files, self.num_users, self.r)

    @property
    def subfile_count(self) -> int:
        return self.counts[0]

    @property
    def subfile_bits(self) -> int:
        return self.file_bits // self.subfile_count

    @property
    def library_bits(self) -> int:
        """Bits of the whole library, N*F."""
        return self.num_files * self.file_bits

    @property
    def broadcast_segments(self) -> int:
        """Segments per broadcast: C(K'-1, r-1) for each of the N files."""
        return self.num_files * self.counts[3]

    @property
    def cache_payload_bits(self) -> int:
        """Bits of a cache's payload, M*F: its stored signals, one subfile wide each."""
        return self.counts[1] * self.subfile_bits

    @property
    def delivery_payload_bits(self) -> int:
        """Bits of a broadcast's payload, R*F: its segments, one subfile wide each."""
        return self.broadcast_segments * self.subfile_bits

    @cached_property
    def plan(self) -> SchemePlan:
        """The column tables of (N, K, r), shared by every file length."""
        # imported on first use, so loading this module (or reaching a session
        # name through the lazy `privcache` namespace) never compiles it
        from .plan import scheme_plan

        return scheme_plan(self.num_files, self.num_users, self.r)

    @classmethod
    def minimal(cls, num_files: int, num_users: int, r: int, bits_per_subfile: int = 1) -> SchemeParams:
        """Smallest admissible file length (one or a few bits per subfile)."""
        count = scheme_counts(num_files, num_users, r)[0]
        return cls(num_files, num_users, r, count * bits_per_subfile)


class FileLibrary(FrozenRecord):
    """N equal-length files with subfile addressing by r-subset index.

    Subfile (n, R) is the block of file n at the colex rank of R, so the
    colex enumeration of r-subsets doubles as the block layout.
    """

    params: SchemeParams
    files: tuple[Bits, ...]

    def __init__(self, params: SchemeParams, files: tuple[Bits, ...]) -> None:
        self._store(params, files)
        if len(files) != params.num_files:
            raise ValueError(f"expected {params.num_files} files, got {len(files)}")
        for w in files:
            if w.length != params.file_bits:
                raise ValueError(f"file length {w.length} != {params.file_bits}")

    @cached_property
    def subfiles(self) -> tuple[tuple[int, ...], ...]:
        """`subfiles[n][rank]` is the subfile of file n at that colex rank,
        as an int; every file is split once, on first use."""
        width = self.params.subfile_bits
        return tuple(w.block_values(width) for w in self.files)

    @classmethod
    def random(cls, params: SchemeParams, rng: random.Random) -> FileLibrary:
        cls.admit_random(params)
        return cls(params, tuple(Bits.random(params.file_bits, rng) for _ in range(params.num_files)))

    @staticmethod
    def admit_random(params: SchemeParams) -> None:
        """Refuse a library `random` cannot draw, without drawing: a file, and
        then the whole library, past `bitvec.admit_draw`'s limit."""
        try:
            admit_draw(params.file_bits)
            admit_draw(params.library_bits)
        except ValueError as exc:
            raise ScaleLimitError(f"cannot generate the library: {exc}") from None

    def to_bytes(self) -> bytes:
        """Raw concatenation of all N files, padded to a byte boundary."""
        return pack_blocks([w.value for w in self.files], self.params.file_bits)

    @classmethod
    def from_bytes(cls, params: SchemeParams, data: bytes) -> FileLibrary:
        width = params.file_bits
        return cls(params, tuple(Bits(v, width) for v in split_blocks(data, params.library_bits, width)))


class AuxDemand(FrozenRecord):
    """Key-masked demand vector, the only demand-dependent delivery input."""

    digits: tuple[int, ...]
    num_files: int

    def __init__(self, digits: tuple[int, ...], num_files: int) -> None:
        self._store(digits, num_files)
        if not digits:
            raise ValueError("empty demand vector")
        if any(not 0 <= v < num_files for v in digits):
            raise ValueError(f"digit out of range in {digits}")

    @cached_property
    def selector(self) -> tuple[int, ...]:
        """Members of build_v(self), ascending, read off the selector mask;
        built once per demand."""
        mask = _selector_mask(self.digits, self.num_files)
        if not mask:
            raise ValueError("empty selector set")
        return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)

    @property
    def num_users(self) -> int:
        return len(self.digits)

    @property
    def positions(self) -> int:
        return position_count(self.num_files, self.num_users)


def aux_demand(demands: Sequence[int], keys: Sequence[int], num_files: int) -> AuxDemand:
    """Digit-wise demands minus keys, modulo the file count."""
    if len(demands) != len(keys):
        raise ValueError(f"length mismatch: {len(demands)} demands, {len(keys)} keys")
    for v in (*demands, *keys):
        if not 0 <= v < num_files:
            raise ValueError(f"digit {v} out of range for {num_files} files")
    return AuxDemand(tuple((d - s) % num_files for d, s in zip(demands, keys)), num_files)


def g_map(label: int, num_files: int, num_users: int) -> AuxDemand:
    """Inverse of `reference.f_map` (`yma._unlabel`): the class-D0 demand
    at a label."""
    kp = position_count(num_files, num_users)
    if not 0 <= label < kp:
        raise ValueError(f"label {label} outside [0, {kp})")
    a, j = yma._unlabel(label, num_files)
    return AuxDemand((a,) * (num_users - j) + (a + 1,) * j, num_files)


class VVector(FrozenRecord):
    """Binary selector over the position universe, as bits and as members.

    The selected positions label exactly the class-D0 demands whose
    digit-wise XOR composition reproduces the demand this selector was
    built for; they drive both segment construction and decoding.
    """

    bits: tuple[int, ...]

    def __init__(self, bits: tuple[int, ...]) -> None:
        self._store(bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"non-binary selector {bits}")
        if not any(bits):
            raise ValueError("empty selector set")

    @classmethod
    def from_mask(cls, mask: int, length: int) -> VVector:
        return cls(tuple(mask >> j & 1 for j in range(length)))

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(j for j, b in enumerate(self.bits) if b)


def _selector_mask(digits: tuple[int, ...], num_files: int) -> int:
    """Selector bit mask: bit 0 (the zero demand's label), then for each
    step a -> a+1 of user k's digit, the labels of the two two-run demands
    that differ only at user k (ending in K-k and K-k-1 digits a+1), so
    each user's labelled digits are odd in number only at its own digit."""
    k_users = len(digits)
    mask = 1
    for k, digit in enumerate(digits):
        for a in range(digit):
            mask ^= 1 << yma._label(a, k_users - k, num_files, k_users)
            mask ^= 1 << yma._label(a, k_users - k - 1, num_files, k_users)
    return mask


def build_v(d: AuxDemand) -> VVector:
    """Selector vector for an auxiliary demand, composed digit by digit
    from the label layout (`_selector_mask`) for every demand alike: the
    labelled demands it selects XOR to d user by user, and for a class-D0
    demand it is the single indicator of its label (`reference.f_map`)."""
    return VVector.from_mask(_selector_mask(d.digits, d.num_files), d.positions)


def _field(value: int, size: int, name: str) -> bytes:
    """`value` as a big-endian unsigned field of `size` bytes."""
    try:
        return value.to_bytes(size, "big")
    except OverflowError:
        raise ValueError(f"{name} {_count(value)} does not fit in {size} byte(s)") from None


def delivery_header(digits: Sequence[int], t_d: int, payload_bits: int) -> bytes:
    """Wire header of a broadcast: d digits, t_d, payload bit length."""
    digit_bytes = b"".join(_field(v, 1, "demand digit") for v in digits)
    return digit_bytes + _field(t_d, _TD_BYTES, "t_d") + _field(payload_bits, _LEN_BYTES, "payload_bits")


def cache_header(key: int, payload_bits: int) -> bytes:
    """Wire header of a cache: key digit, payload bit length."""
    return _field(key, 1, "key digit") + _field(payload_bits, _LEN_BYTES, "payload_bits")


class DeliverySignal(FrozenRecord):
    """One broadcast: auxiliary demand, chosen index t_d, and segments,
    `subfile_bits`-wide ints in wire order (`plan.delivered[t_d]` per file); any
    other aux demand, t_d or segment count raises ValueError.  The count,
    N * C(K'-1, r-1) whatever t_d is, is `SchemeParams.broadcast_segments`, so
    building or parsing a broadcast never builds the plan."""

    aux: AuxDemand
    t_d: int
    segments: tuple[int, ...]
    params: SchemeParams

    def __init__(self, aux: AuxDemand, t_d: int, segments: tuple[int, ...], params: SchemeParams) -> None:
        self._store(aux, t_d, segments, params)
        if aux.num_users != params.num_users or aux.num_files != params.num_files:
            raise ValueError("auxiliary demand does not match parameters")
        if t_d not in aux.selector:
            raise ValueError(f"t={t_d} not in the selector set of {aux.digits}")
        expected = params.broadcast_segments
        if len(segments) != expected:
            raise ValueError(f"broadcast holds {len(segments)} segments, expected {expected}")

    @property
    def payload_bits(self) -> int:
        return self.params.delivery_payload_bits

    @cached_property
    def segment_values(self) -> list[list[int]]:
        """Every segment as ints by file and colex rank; built once, read-only.

        Segments avoiding t_d are read off the broadcast.  A segment S
        containing t_d XORs the delivered segments at S minus t_d plus t, over
        the selector positions t outside S; the empty XOR is zero.  With the
        unsent segments still zero, `xor_columns` on the plan's
        `base_columns` of the selector positions other than t_d gives that
        XOR for every (r-2)-subset B at once, the one of S = B plus t_d when
        B avoids t_d; `base_columns[t_d]` names that S, and sends the value
        of a B holding t_d, zero, to the sentinel.
        """
        plan, t_d = self.params.plan, self.t_d
        sent = plan.delivered[t_d].indices
        count = len(sent)
        into = plan.base_columns[t_d].indices  # B -> S, or the sentinel when t_d is in B
        # no column when r < 2 (every segment is sent) or t_d is the only
        # selector position (every unsent segment is the empty XOR, zero)
        columns = [plan.base_columns[t] for t in self.aux.selector if t != t_d] if into else []
        values = []
        for n in range(self.params.num_files):
            row = [0] * (plan.segment_count + 1)  # the last is the zero sentinel
            for i, value in zip(sent, self.segments[n * count : (n + 1) * count]):
                row[i] = value
            if columns:
                rebuilt = [*xor_columns(columns, row)]
                for i, value in zip(into, rebuilt):
                    row[i] = value  # a B holding t_d rebuilds 0 into the sentinel
            row.pop()
            values.append(row)
        return values

    def to_bytes(self) -> bytes:
        """Canonical wire form: d digits, t_d, bit length, packed segments."""
        payload = pack_blocks(self.segments, self.params.subfile_bits)
        return delivery_header(self.aux.digits, self.t_d, self.payload_bits) + payload

    @classmethod
    def from_bytes(cls, params: SchemeParams, data: bytes) -> DeliverySignal:
        k = params.num_users
        if len(data) < k + _TD_BYTES + _LEN_BYTES:
            raise ValueError(f"broadcast of {len(data)} bytes is shorter than its header")
        d = AuxDemand(tuple(data[:k]), params.num_files)
        t_d = int.from_bytes(data[k : k + _TD_BYTES], "big")
        nbits = int.from_bytes(data[k + _TD_BYTES : k + _TD_BYTES + _LEN_BYTES], "big")
        segments = split_blocks(data[k + _TD_BYTES + _LEN_BYTES :], nbits, params.subfile_bits)
        return cls(d, t_d, segments, params)


def build_delivery(files: FileLibrary, d: AuxDemand, t_d: int) -> DeliverySignal:
    """Deterministic delivery for a fixed t-index choice."""
    params = files.params
    if d.num_users != params.num_users or d.num_files != params.num_files:
        raise ValueError("auxiliary demand does not match parameters")
    if t_d not in d.selector:  # DeliverySignal names the selector set
        return DeliverySignal(d, t_d, (), params)
    return _broadcast(files, d, t_d, _segment_rows(files, d))


def _segment_rows(files: FileLibrary, d: AuxDemand) -> list[list[int]]:
    """`reference.x_segment` of every (r-1)-subset S of every file, by file
    and colex rank: the subfiles at S plus v over v in the selector, by
    `xor_columns` on the plan's `segment_columns`.  Every t_d of the
    selector sends a part of them (`_broadcast`)."""
    plan = files.params.plan
    columns = [*map(plan.segment_columns.__getitem__, d.selector)]
    return [[*xor_columns(columns, row + (0,))] for row in files.subfiles]


def _broadcast(files: FileLibrary, d: AuxDemand, t_d: int, rows: list[list[int]]) -> DeliverySignal:
    """The broadcast for t_d: file by file, the segments of `rows` that avoid
    t_d (`plan.delivered[t_d]`)."""
    params = files.params
    sent = params.plan.delivered[t_d].pick
    segments: list[int] = []
    for row in rows:
        segments += sent(row)
    return DeliverySignal(d, t_d, tuple(segments), params)


def assemble_delivery(files: FileLibrary, d: AuxDemand, rand: SessionRandomness) -> DeliverySignal:
    """Delivery with the t-index drawn (or pinned) by the session randomness."""
    return build_delivery(files, d, rand.choose_t(d))


class CacheContent(FrozenRecord):
    """One user's cache: secret key digit plus the stored XOR signals,
    `subfile_bits`-wide ints in the order of `plan.stored_ranks`;
    any other user, key digit or signal count (`SchemeParams.counts`)
    raises ValueError."""

    user: int
    key: int
    signals: tuple[int, ...]
    params: SchemeParams

    def __init__(self, user: int, key: int, signals: tuple[int, ...], params: SchemeParams) -> None:
        self._store(user, key, signals, params)
        if not 0 <= user < params.num_users:
            raise ValueError(f"user {user} out of range for {params.num_users} users")
        if not 0 <= key < params.num_files:
            raise ValueError(f"key digit {key} out of range for {params.num_files} files")
        _, expected, _, _ = params.counts
        if len(signals) != expected:
            raise ValueError(f"cache holds {len(signals)} signals, expected {expected}")

    @property
    def payload_bits(self) -> int:
        return self.params.cache_payload_bits

    @cached_property
    def signal_values(self) -> list[int]:
        """Every (r+1)-subset signal as ints by colex rank; built once, read-only.

        Stored signals are read off the cache.  A non-stored one XORs the
        stored signals the plan's exchange identity lists for this user.
        """
        plan = self.params.plan
        values = [0] * plan.signal_count
        for rank, value in zip(plan.stored_ranks, self.signals):
            values[rank] = value
        for rank, sources in plan.reconstruction[self.user]:
            acc = 0
            for j in sources:
                acc ^= values[j]
            values[rank] = acc
        return values

    def to_bytes(self) -> bytes:
        """Canonical wire form: key digit, bit length, signals in colex order."""
        payload = pack_blocks(self.signals, self.params.subfile_bits)
        return cache_header(self.key, self.payload_bits) + payload

    @classmethod
    def from_bytes(cls, params: SchemeParams, user: int, data: bytes) -> CacheContent:
        if len(data) < 1 + _LEN_BYTES:
            raise ValueError(f"cache of {len(data)} bytes is shorter than its header")
        nbits = int.from_bytes(data[1 : 1 + _LEN_BYTES], "big")
        signals = split_blocks(data[1 + _LEN_BYTES :], nbits, params.subfile_bits)
        return cls(user, data[0], signals, params)


def place(files: FileLibrary, params: SchemeParams, rand: SessionRandomness) -> list[CacheContent]:
    """Fill every cache: user k stores the signals for its key digit."""
    if files.params != params:
        raise ValueError("library was split under different parameters")
    if len(rand.keys) != params.num_users or rand.num_files != params.num_files:
        raise ValueError("session randomness does not match parameters")
    params.plan  # its size guard refuses the instance before any per-user work
    caches = []
    for k, key in enumerate(rand.keys):
        u = yma.build_u_vector(params.num_files, params.num_users, k, key)
        caches.append(CacheContent(k, key, yma.yma_delivery(files, u), params))
    return caches


def decode(cache: CacheContent, x: DeliverySignal, user: int, demand: int) -> Bits:
    """Recover the demanded file from one cache and one broadcast: the
    subfiles of `_decoded_subfiles`, joined in colex order."""
    return Bits.from_blocks(_decoded_subfiles(cache, x, user, demand), cache.params.subfile_bits)


def _decoded_subfiles(cache: CacheContent, x: DeliverySignal, user: int, demand: int) -> list[int]:
    """The demanded file's subfiles as ints, in colex order of their r-subsets.

    Checks that the cache, the broadcast and the demand belong together,
    then runs `_xor_decode` on the broadcast's selector and segment
    expansion.  Segments missing from the broadcast (`segment_values`) are
    rebuilt once per payload, never assumed; both payloads checked their
    shape when built.
    """
    params = cache.params
    if user != cache.user:
        raise ValueError(f"cache belongs to user {cache.user}, not {user}")
    if x.params != params:
        raise ValueError("broadcast was built under different parameters")
    d = x.aux
    if (d.digits[user] + cache.key) % params.num_files != demand:
        raise ValueError(
            f"demand {demand} inconsistent with key {cache.key} and auxiliary digit {d.digits[user]}"
        )
    return _xor_decode(cache, d.selector, x.segment_values)


def _xor_decode(cache: CacheContent, selector: tuple[int, ...], expansion: list[list[int]]) -> list[int]:
    """The one decode, shared by `decode` and the correctness verifier.

    Subfile by subfile (r-subsets R in colex order): XOR the signals at
    {t} union R for selector positions t outside R with the segments at
    R minus {t} for t in R, where the segment's file index is the user's
    digit under the t-th labeled demand (`SchemeParams.plan.virtual`),
    shifted by the cache key.  `bitvec.xor_columns` runs it on the plan's
    `decode_down` columns and the selector's `decode_up` columns, over the
    cache's signals, the zero sentinel and each position's segments.
    Signals missing from the cache (`signal_values`) are rebuilt once per
    cache.  The broadcast enters only as its selector and its segment
    expansion by file and colex rank (`DeliverySignal.segment_values`),
    never as t_d or the sent segments, so broadcasts with equal selectors
    and expansions decode alike.
    """
    params = cache.params
    plan, n, key = params.plan, params.num_files, cache.key
    pool = [*cache.signal_values, 0]
    # position t's segments are those of the user's digit under the t-th
    # labeled demand (g_map), shifted by the key
    for v in plan.virtual[cache.user]:
        pool += expansion[(v + key) % n]
    return [*xor_columns([*plan.decode_down, *map(plan.decode_up.__getitem__, selector)], pool)]


class SessionRandomness:
    """Key digits and t-index choices for one session, seed-reproducible.

    One seed derives two independent streams (key generation and
    t-selection), so either side can be pinned in tests without touching
    the other.  Explicit `t_choices` pins override the stream; unpinned
    demands draw a fresh uniform t per delivery event.
    """

    def __init__(
        self,
        num_files: int,
        keys: Sequence[int],
        seed: int | str | None = None,
        t_choices: Mapping[tuple[int, ...], int] | None = None,
    ) -> None:
        if any(not 0 <= s < num_files for s in keys):
            raise ValueError(f"key digit out of range in {tuple(keys)}")
        self.num_files = num_files
        self.keys = tuple(keys)
        self.t_choices = dict(t_choices or {})
        self._t_rng = random.Random(f"{seed}:t") if seed is not None else None

    @classmethod
    def from_seed(cls, params: SchemeParams, seed: int | str) -> SessionRandomness:
        key_rng = random.Random(f"{seed}:keys")
        keys = tuple(key_rng.randrange(params.num_files) for _ in range(params.num_users))
        return cls(params.num_files, keys, seed=seed)

    def choose_t(self, d: AuxDemand) -> int:
        members = d.selector
        pinned = self.t_choices.get(d.digits)
        if pinned is not None:
            if pinned not in members:
                raise ValueError(f"pinned t={pinned} not in selector set {members}")
            return pinned
        if self._t_rng is None:
            raise ValueError("no seed given and no pinned choice for this demand")
        return members[self._t_rng.randrange(len(members))]
