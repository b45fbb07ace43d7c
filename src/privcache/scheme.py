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
  * aux_demand, build_v             -- auxiliary demand and its selector set
  * x_segment, assemble_delivery    -- broadcast construction
  * decode                          -- receiver side
  * memory_rate_of                  -- exact (M, R) accounting

Placement, delivery and decoding run on the rank tables of
`plan.SchemePlan`, built once per (N, K, r): each signal, segment and
decoded subfile is an XOR of pre-split subfile ints picked by colex rank.
Caches and broadcasts hold those ints as flat tuples in wire order
(`stored_signal_indices`, `delivered_segment_indices`).  The receiver
expands them with the two exchange identities, `_signal_values` and
`_segment_values`.  The per-element formulas (`FileLibrary.subfile`,
`yma.compute_y`, `x_segment`) stay as the references those tables are
tested against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Mapping, Sequence

from . import yma
from .bitvec import Bits
from .combinat import SubsetIndex, binomial, enumerate_r_subsets, position_count, subset_rank
from .tradeoff import RatePoint, scheme_point

if TYPE_CHECKING:
    from .plan import SchemePlan

_TD_BYTES = 2
_LEN_BYTES = 4
# selector masks are pure in (digits, N); verify sweeps ask for each many times
_SELECTOR_CACHE_SIZE = 4096


@dataclass(frozen=True)
class SchemeParams:
    """Problem instance: N files, K users, split parameter r, file length F.

    The position universe has K' = N*K - K + 1 elements; each file splits
    into C(K', r) equal subfiles, so F must be divisible by that count.
    """

    num_files: int
    num_users: int
    r: int
    file_bits: int

    def __post_init__(self) -> None:
        if self.num_files < 2:
            raise ValueError(f"need at least 2 files, got {self.num_files}")
        if self.num_users < 1:
            raise ValueError(f"need at least 1 user, got {self.num_users}")
        if not 0 <= self.r <= self.positions:
            raise ValueError(f"r={self.r} outside [0, {self.positions}]")
        if self.file_bits < 1:
            raise ValueError(f"file length must be positive, got {self.file_bits}")
        if self.file_bits % self.subfile_count:
            raise ValueError(
                f"file length {self.file_bits} not divisible by "
                f"{self.subfile_count} subfiles"
            )

    @property
    def positions(self) -> int:
        return position_count(self.num_files, self.num_users)

    @property
    def subfile_count(self) -> int:
        return binomial(self.positions, self.r)

    @property
    def subfile_bits(self) -> int:
        return self.file_bits // self.subfile_count

    @classmethod
    def minimal(cls, num_files: int, num_users: int, r: int, bits_per_subfile: int = 1) -> SchemeParams:
        """Smallest admissible file length (one or a few bits per subfile)."""
        count = binomial(position_count(num_files, num_users), r)
        return cls(num_files, num_users, r, count * bits_per_subfile)


@dataclass(frozen=True)
class FileLibrary:
    """N equal-length files with subfile addressing by r-subset index.

    Subfile (n, R) is the subset_rank(R)-th block of file n, so the colex
    enumeration of r-subsets doubles as the block layout.
    """

    params: SchemeParams
    files: tuple[Bits, ...]

    def __post_init__(self) -> None:
        if len(self.files) != self.params.num_files:
            raise ValueError(f"expected {self.params.num_files} files, got {len(self.files)}")
        for w in self.files:
            if w.length != self.params.file_bits:
                raise ValueError(f"file length {w.length} != {self.params.file_bits}")

    @cached_property
    def subfiles(self) -> tuple[tuple[int, ...], ...]:
        """`subfiles[n][rank]` is the subfile of file n at that colex rank,
        as an int; every file is split once, on first use."""
        width = self.params.subfile_bits
        return tuple(w.block_values(width) for w in self.files)

    @property
    def plan(self) -> SchemePlan:
        return _plan_of(self.params)

    def subfile(self, n: int, index: SubsetIndex) -> Bits:
        if index.universe != self.params.positions or len(index) != self.params.r:
            raise ValueError(f"bad subfile index {index}")
        return self.files[n].block(subset_rank(index), self.params.subfile_bits)

    @classmethod
    def random(cls, params: SchemeParams, rng: random.Random) -> FileLibrary:
        return cls(params, tuple(Bits.random(params.file_bits, rng) for _ in range(params.num_files)))

    def to_bytes(self) -> bytes:
        """Raw concatenation of all N files, padded to a byte boundary."""
        return Bits.concat(self.files).to_bytes()

    @classmethod
    def from_bytes(cls, params: SchemeParams, data: bytes) -> FileLibrary:
        total = Bits.from_bytes(data, params.num_files * params.file_bits)
        return cls(params, tuple(Bits(v, params.file_bits) for v in total.block_values(params.file_bits)))


def _plan_of(params: SchemeParams) -> SchemePlan:
    # imported on first use: `import privcache` then does not compile the
    # plan module for callers that never place, deliver or decode
    from .plan import scheme_plan

    return scheme_plan(params)


class DemandClass(Enum):
    D0 = "D0"
    D1 = "D1"
    D2 = "D2"


def classify(digits: tuple[int, ...], num_files: int) -> DemandClass:
    """Partition class of an auxiliary demand vector.

    D0 holds the constant vectors and the two-run vectors (a, ..., a,
    a+1, ..., a+1) with a <= N-2 (no wraparound); D1 the remaining
    single-nonzero vectors; D2 the rest.  The one vector matching both
    patterns (0,...,0,1) goes to D0; its selector set is a singleton
    either way, so delivery is unaffected.
    """
    n = num_files
    first = digits[0]
    if all(v == first for v in digits):
        return DemandClass.D0
    if first <= n - 2:
        i0 = next(i for i, v in enumerate(digits) if v != first)
        if digits[i0] == first + 1 and all(v == digits[i0] for v in digits[i0:]):
            return DemandClass.D0
    if sum(1 for v in digits if v) == 1:
        return DemandClass.D1
    return DemandClass.D2


@dataclass(frozen=True)
class AuxDemand:
    """Key-masked demand vector, the only demand-dependent delivery input."""

    digits: tuple[int, ...]
    num_files: int
    demand_class: DemandClass = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not self.digits:
            raise ValueError("empty demand vector")
        if any(not 0 <= v < self.num_files for v in self.digits):
            raise ValueError(f"digit out of range in {self.digits}")
        object.__setattr__(self, "demand_class", classify(self.digits, self.num_files))

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


def f_map(d: AuxDemand) -> int:
    """Label of a class-D0 demand in [0, K'): a for the constant vector
    a*1, and (N-1)*k + a + 1 for the two-run vector ending in k digits."""
    if d.demand_class is not DemandClass.D0:
        raise ValueError(f"{d.digits} is not a class-D0 demand")
    first = d.digits[0]
    if all(v == first for v in d.digits):
        return first
    i0 = next(i for i, v in enumerate(d.digits) if v != first)
    return (d.num_files - 1) * (d.num_users - i0) + first + 1


def g_map(label: int, num_files: int, num_users: int) -> AuxDemand:
    """Inverse of f_map: the class-D0 demand carrying the given label."""
    n, k_users = num_files, num_users
    kp = position_count(n, k_users)
    if not 0 <= label < kp:
        raise ValueError(f"label {label} outside [0, {kp})")
    if label < n:
        return AuxDemand((label,) * k_users, n)
    k = (label - 1) // (n - 1)
    a = (label - 1) % (n - 1)
    return AuxDemand((a,) * (k_users - k) + ((a + 1) % n,) * k, n)


@dataclass(frozen=True)
class VVector:
    """Binary selector over the position universe, as bits and as a set.

    The selected positions label exactly the class-D0 demands whose
    digit-wise XOR composition reproduces the demand this selector was
    built for; they drive both segment construction and decoding.
    """

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"non-binary selector {self.bits}")
        if not any(self.bits):
            raise ValueError("empty selector set")

    @classmethod
    def from_mask(cls, mask: int, length: int) -> VVector:
        return cls(tuple(mask >> j & 1 for j in range(length)))

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(j for j, b in enumerate(self.bits) if b)

    @property
    def set_form(self) -> frozenset[int]:
        return frozenset(self.members)


def _single_selector_mask(num_files: int, num_users: int, a: int, k: int) -> int:
    """Selector mask for a demand with a single nonzero digit a at user k."""
    n, k_users = num_files, num_users
    mask = 1
    if k == 0:
        for b in range(1, a + 1):
            mask ^= (1 << b) ^ (1 << ((n - 1) * (k_users - 1) + b))
    elif k <= k_users - 2:
        for b in range(1, a + 1):
            mask ^= (1 << ((n - 1) * (k_users - k) + b)) ^ (1 << ((n - 1) * (k_users - k - 1) + b))
    else:
        for b in range(1, a + 1):
            mask ^= (1 << ((n - 1) + b)) ^ (1 << (b - 1))
    return mask


@lru_cache(maxsize=_SELECTOR_CACHE_SIZE)
def _selector_mask(digits: tuple[int, ...], num_files: int) -> int:
    k_users = len(digits)
    if not any(digits):
        return 1
    if k_users == 1:
        # Single-user demands are all class D0; the selector is the label bit.
        return 1 << digits[0]
    nonzero = [(i, v) for i, v in enumerate(digits) if v]
    if len(nonzero) == 1:
        (i, v), = nonzero
        return _single_selector_mask(num_files, k_users, v, i)
    mask = 1
    for i, v in nonzero:
        mask ^= _single_selector_mask(num_files, k_users, v, i) ^ 1
    return mask


def build_v(d: AuxDemand) -> VVector:
    """Selector vector for an auxiliary demand.

    The zero demand selects position 0; single-nonzero demands use the
    per-user exchange rule; everything else XOR-composes the single-digit
    selectors.  For class-D0 demands the result is always the single
    indicator of f_map(d).
    """
    return VVector.from_mask(_selector_mask(d.digits, d.num_files), d.positions)


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
            acc = acc ^ files.subfile(n, s.adding(v))
    return acc


def _delivered_ranks(plan: SchemePlan, t_d: int) -> list[int]:
    """Colex ranks of the (r-1)-subsets avoiding t_d: the segments sent."""
    return [i for i, up in enumerate(plan.segment_up) if up[t_d] >= 0]


def delivered_segment_indices(params: SchemeParams, t_d: int) -> list[tuple[int, SubsetIndex]]:
    """Wire order of broadcast segments: n ascending, then the
    (r-1)-subsets avoiding t_d in colex order."""
    subsets = enumerate_r_subsets(params.positions, params.r - 1)
    ranks = _delivered_ranks(_plan_of(params), t_d)
    return [(n, subsets[i]) for n in range(params.num_files) for i in ranks]


def _field(value: int, size: int, name: str) -> bytes:
    """`value` as a big-endian unsigned field of `size` bytes."""
    try:
        return value.to_bytes(size, "big")
    except OverflowError:
        raise ValueError(f"{name} {value} does not fit in {size} byte(s)") from None


def delivery_header(digits: Sequence[int], t_d: int, payload_bits: int) -> bytes:
    """Wire header of a broadcast: d digits, t_d, payload bit length."""
    digit_bytes = b"".join(_field(v, 1, "demand digit") for v in digits)
    return digit_bytes + _field(t_d, _TD_BYTES, "t_d") + _field(payload_bits, _LEN_BYTES, "payload_bits")


def cache_header(key: int, payload_bits: int) -> bytes:
    """Wire header of a cache: key digit, payload bit length."""
    return _field(key, 1, "key digit") + _field(payload_bits, _LEN_BYTES, "payload_bits")


@dataclass
class DeliverySignal:
    """One broadcast: auxiliary demand, chosen index t_d, and segments,
    `subfile_bits`-wide ints in the order of delivered_segment_indices."""

    aux: AuxDemand
    t_d: int
    segments: tuple[int, ...]
    params: SchemeParams

    @property
    def payload_bits(self) -> int:
        return len(self.segments) * self.params.subfile_bits

    def to_bytes(self) -> bytes:
        """Canonical wire form: d digits, t_d, bit length, packed segments."""
        payload = Bits.from_blocks(self.segments, self.params.subfile_bits)
        return delivery_header(self.aux.digits, self.t_d, payload.length) + payload.to_bytes()

    @classmethod
    def from_bytes(cls, params: SchemeParams, data: bytes) -> DeliverySignal:
        k = params.num_users
        if len(data) < k + _TD_BYTES + _LEN_BYTES:
            raise ValueError(f"broadcast of {len(data)} bytes is shorter than its header")
        digits = tuple(data[:k])
        t_d = int.from_bytes(data[k : k + _TD_BYTES], "big")
        nbits = int.from_bytes(data[k + _TD_BYTES : k + _TD_BYTES + _LEN_BYTES], "big")
        payload = Bits.from_bytes(data[k + _TD_BYTES + _LEN_BYTES :], nbits)
        d = AuxDemand(digits, params.num_files)
        if t_d not in build_v(d).set_form:
            raise ValueError(f"t={t_d} not in the selector set of {digits}")
        count = params.num_files * len(_delivered_ranks(_plan_of(params), t_d))
        if nbits != count * params.subfile_bits:
            raise ValueError(f"payload of {nbits} bits does not match {count} segments")
        return cls(d, t_d, payload.block_values(params.subfile_bits), params)


def build_delivery(files: FileLibrary, d: AuxDemand, t_d: int) -> DeliverySignal:
    """Deterministic delivery for a fixed t-index choice."""
    params = files.params
    if d.num_users != params.num_users or d.num_files != params.num_files:
        raise ValueError("auxiliary demand does not match parameters")
    selector = build_v(d).members
    if t_d not in selector:
        raise ValueError(f"t={t_d} not in the selector set of {d.digits}")
    plan = files.plan
    # x_segment for every (r-1)-subset S avoiding t_d: ranks of S plus v
    ups = [plan.segment_up[i] for i in _delivered_ranks(plan, t_d)]
    wanted = [[up[v] for v in selector if up[v] >= 0] for up in ups]
    segments = []
    for row in files.subfiles:
        for ranks in wanted:
            acc = 0
            for j in ranks:
                acc ^= row[j]
            segments.append(acc)
    return DeliverySignal(d, t_d, tuple(segments), params)


def assemble_delivery(files: FileLibrary, d: AuxDemand, rand: SessionRandomness) -> DeliverySignal:
    """Delivery with the t-index drawn (or pinned) by the session randomness."""
    return build_delivery(files, d, rand.choose_t(d))


def stored_signal_indices(params: SchemeParams) -> list[SubsetIndex]:
    """Wire order of cache signals: the leader-intersecting (r+1)-subsets
    in colex order."""
    signals = enumerate_r_subsets(params.positions, params.r + 1)
    return [signals[rank] for rank in _plan_of(params).stored_ranks]


def _check_user(params: SchemeParams, user: int) -> None:
    if not 0 <= user < params.num_users:
        raise ValueError(f"user {user} out of range for {params.num_users} users")


@dataclass
class CacheContent:
    """One user's cache: secret key digit plus the stored XOR signals,
    `subfile_bits`-wide ints in the order of stored_signal_indices."""

    user: int
    key: int
    signals: tuple[int, ...]
    params: SchemeParams

    @property
    def payload_bits(self) -> int:
        return len(self.signals) * self.params.subfile_bits

    def to_bytes(self) -> bytes:
        """Canonical wire form: key digit, bit length, signals in colex order."""
        payload = Bits.from_blocks(self.signals, self.params.subfile_bits)
        return cache_header(self.key, payload.length) + payload.to_bytes()

    @classmethod
    def from_bytes(cls, params: SchemeParams, user: int, data: bytes) -> CacheContent:
        _check_user(params, user)
        if len(data) < 1 + _LEN_BYTES:
            raise ValueError(f"cache of {len(data)} bytes is shorter than its header")
        key = data[0]
        if key >= params.num_files:
            raise ValueError(f"key digit {key} out of range for {params.num_files} files")
        nbits = int.from_bytes(data[1 : 1 + _LEN_BYTES], "big")
        payload = Bits.from_bytes(data[1 + _LEN_BYTES :], nbits)
        count = len(_plan_of(params).stored_ranks)
        if nbits != count * params.subfile_bits:
            raise ValueError(f"payload of {nbits} bits does not match {count} signals")
        return cls(user, key, payload.block_values(params.subfile_bits), params)


def place(files: FileLibrary, params: SchemeParams, rand: SessionRandomness) -> list[CacheContent]:
    """Fill every cache: user k stores the signals for its key digit."""
    if files.params != params:
        raise ValueError("library was split under different parameters")
    if len(rand.keys) != params.num_users or rand.num_files != params.num_files:
        raise ValueError("session randomness does not match parameters")
    caches = []
    for k, key in enumerate(rand.keys):
        u = yma.build_u_vector(params.num_files, params.num_users, k, key)
        caches.append(CacheContent(k, key, yma.yma_delivery(files, u), params))
    return caches


def _signal_values(plan: SchemePlan, cache: CacheContent) -> list[int]:
    """Every (r+1)-subset signal of a cache, as ints by colex rank.

    Stored signals are read off the cache.  A non-stored one XORs the
    stored signals the plan's exchange identity lists for the cache's user.
    """
    stored = plan.stored_ranks
    if len(cache.signals) != len(stored):
        raise ValueError(f"cache holds {len(cache.signals)} signals, expected {len(stored)}")
    values = [0] * plan.signal_count
    for rank, value in zip(stored, cache.signals):
        values[rank] = value
    for rank, sources in plan.reconstruction[cache.user]:
        acc = 0
        for j in sources:
            acc ^= values[j]
        values[rank] = acc
    return values


def _segment_values(plan: SchemePlan, x: DeliverySignal, selector: Sequence[int]) -> list[list[int]]:
    """Every segment of a broadcast, as ints by file and colex rank.

    Segments avoiding t_d are read off the broadcast.  A segment S
    containing t_d XORs the delivered segments at S minus t_d plus t, over
    the selector positions t outside S; the empty XOR is zero.
    """
    t_d = x.t_d
    delivered = _delivered_ranks(plan, t_d)
    count = len(delivered)
    expected = plan.num_files * count
    if len(x.segments) != expected:
        raise ValueError(f"broadcast holds {len(x.segments)} segments, expected {expected}")
    recovered = []
    for i, down in enumerate(plan.segment_down):
        base = dict(down).get(t_d)
        if base is not None:
            up = plan.base_up[base]
            recovered.append((i, [up[t] for t in selector if t != t_d and up[t] >= 0]))
    values = []
    for n in range(plan.num_files):
        row = [0] * len(plan.segment_up)
        for i, value in zip(delivered, x.segments[n * count : (n + 1) * count]):
            row[i] = value
        for i, ranks in recovered:
            acc = 0
            for j in ranks:
                acc ^= row[j]
            row[i] = acc
        values.append(row)
    return values


def decode(cache: CacheContent, x: DeliverySignal, user: int, demand: int) -> Bits:
    """Recover the demanded file from one cache and one broadcast.

    Subfile by subfile (r-subsets R in colex order): XOR the signals at
    {t} union R for selector positions t outside R with the segments at
    R minus {t} for t in R, where the segment's file index is the user's
    digit under the t-th labeled demand, shifted by the cache key.
    Signals missing from the cache (`_signal_values`) and segments missing
    from the broadcast (`_segment_values`) are reconstructed, never
    assumed.  A cache or broadcast with the wrong number of entries raises
    ValueError.
    """
    params = cache.params
    n = params.num_files
    _check_user(params, user)
    if user != cache.user:
        raise ValueError(f"cache belongs to user {cache.user}, not {user}")
    if x.params != params:
        raise ValueError("broadcast was built under different parameters")
    d = x.aux
    if (d.digits[user] + cache.key) % n != demand:
        raise ValueError(
            f"demand {demand} inconsistent with key {cache.key} and auxiliary digit {d.digits[user]}"
        )
    # position t's demand is the user's digit under the t-th labeled demand
    # (g_map), shifted by the key
    file_digit = yma.build_u_vector(n, params.num_users, user, cache.key).entries
    plan = _plan_of(params)
    selector = build_v(d).members
    signals = _signal_values(plan, cache)
    segments = _segment_values(plan, x, selector)
    parts = []
    for up, down in zip(plan.subfile_up, plan.subfile_down):
        acc = 0
        for t in selector:
            j = up[t]
            if j >= 0:
                acc ^= signals[j]
        for t, j in down:
            acc ^= segments[file_digit[t]][j]
        parts.append(acc)
    return Bits.from_blocks(parts, params.subfile_bits)


def memory_rate_of(params: SchemeParams) -> RatePoint:
    """Exact (M, R) of this parameterization (tradeoff.scheme_point)."""
    return scheme_point(params.num_files, params.num_users, params.r)


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
        self.seed = seed
        self.t_choices = dict(t_choices or {})
        self._t_rng = random.Random(f"{seed}:t") if seed is not None else None

    @classmethod
    def from_seed(cls, params: SchemeParams, seed: int | str) -> SessionRandomness:
        key_rng = random.Random(f"{seed}:keys")
        keys = tuple(key_rng.randrange(params.num_files) for _ in range(params.num_users))
        return cls(params.num_files, keys, seed=seed)

    def choose_t(self, d: AuxDemand) -> int:
        members = build_v(d).members
        pinned = self.t_choices.get(d.digits)
        if pinned is not None:
            if pinned not in members:
                raise ValueError(f"pinned t={pinned} not in selector set {members}")
            return pinned
        if self._t_rng is None:
            raise ValueError("no seed given and no pinned choice for this demand")
        return members[self._t_rng.randrange(len(members))]
