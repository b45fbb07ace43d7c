"""Exhaustive verification engines.

Correctness and privacy read one table of broadcasts, built once per
call for every (auxiliary demand, t) the scheme can send.  Correctness
sweeps every (demand vector, key vector, t-choice, user) tuple over it
and checks bit-exact decoding, each cache and broadcast expanded once
over `SchemeParams.plan` (`signal_values`, `segment_values`, `virtual`).
Privacy is one histogram check: per user and own-demand value, the exact
distribution of the serialized observable (broadcast and cache, plus the
demanded file for Lemma 1) must be identical across every completion of
the other demands; no sampling, no floats.  The observable is serialized
directly for one concrete library.  Full-marginal mode covers every
1-bit-subfile library of up to 512 bits at once without enumerating them:
an outcome is the pair of wire headers, and its payload is uniform over
the image of the basis library's GF(2) masks, so header weights decide
the verdict and mask ranks count the differing outcomes.  The oracle engines brute-force
the file identity and check decoding's signal reconstruction against its
definition.
"""

from __future__ import annotations

import itertools
import operator
import time
from dataclasses import dataclass, field
from functools import cache
from math import lcm
from typing import Callable, Iterable

from . import yma
from .bitvec import Bits
from .combinat import enumerate_r_subsets
from .scheme import (
    AuxDemand,
    CacheContent,
    DeliverySignal,
    FileLibrary,
    SchemeParams,
    SessionRandomness,
    aux_demand,
    build_delivery,
    cache_header,
    delivery_header,
    g_map,
    place,
    decode,
)

_CASE_CAP = 20_000_000
# the symbolic full-marginal tables are payload-count x library-bits wide
# (the basis library alone is library-bits^2); under 512 bits the slowest
# instance the case cap admits is unmasked (16,2,1), ~11 s on a 2-vCPU VM
_MARGINAL_BIT_CAP = 512

CONDITIONAL = "conditional-on-files"
FULL_MARGINAL = "full-marginal"


class ScaleLimitError(ValueError):
    """The requested enumeration is too large to run exhaustively."""


@dataclass
class VerificationReport:
    """Outcome of one verification run; empty failures means pass."""

    scope: str
    cases_run: int
    failures: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        verdict = "PASS" if self.passed else f"FAIL ({len(self.failures)} failures)"
        return f"{verdict} {self.scope} [cases={self.cases_run}, {self.elapsed:.2f}s]"

    def to_dict(self) -> dict:
        return {
            "scope": self.scope,
            "passed": self.passed,
            "cases_run": self.cases_run,
            "failures": [
                {"configuration": repr(c), "expected": repr(e), "actual": repr(a)}
                for c, e, a in self.failures
            ],
            "elapsed_seconds": self.elapsed,
        }


def _all_digit_vectors(num_files: int, length: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(num_files), repeat=length))


def _caches_by_key(params: SchemeParams, files: FileLibrary) -> dict[tuple[int, int], CacheContent]:
    """Cache content per (user, key digit), via the real placement path."""
    out = {}
    for s in range(params.num_files):
        rand = SessionRandomness(params.num_files, (s,) * params.num_users)
        for cache in place(files, params, rand):
            out[(cache.user, s)] = cache
    return out


def _guard_enumeration(params: SchemeParams, label: str) -> None:
    n, k = params.num_files, params.num_users
    estimate = n ** (2 * k) * params.positions * k
    if estimate > _CASE_CAP:
        raise ScaleLimitError(f"{label} enumeration of ~{estimate} cases exceeds the cap")


def _deliveries(params: SchemeParams, files: FileLibrary) -> dict[tuple[tuple[int, ...], int], DeliverySignal]:
    """Every broadcast the scheme can send, keyed by (auxiliary digits, t)."""
    table = {}
    for digits in _all_digit_vectors(params.num_files, params.num_users):
        d = AuxDemand(digits, params.num_files)
        for t in d.selector:
            table[(digits, t)] = build_delivery(files, d, t)
    return table


def _selectors(table: Iterable[tuple[tuple[int, ...], int]]) -> dict[tuple[int, ...], list[int]]:
    """Selector set of each auxiliary digit vector, read off a table's keys."""
    out: dict[tuple[int, ...], list[int]] = {}
    for digits, t in table:
        out.setdefault(digits, []).append(t)
    return out


def verify_correctness_exhaustive(
    params: SchemeParams,
    files: FileLibrary,
    mutate_delivery: Callable[[DeliverySignal], DeliverySignal] | None = None,
) -> VerificationReport:
    """Decode check over all demands, all keys, all t-choices, all users.

    `mutate_delivery` taps the broadcast before it reaches the decoders;
    fault-injection tests use it to confirm that corruption is detected
    and reported with the exact failing (D, S, t, k) tuples.
    """
    _guard_enumeration(params, "correctness")
    start = time.perf_counter()
    n, k_users = params.num_files, params.num_users
    caches = _caches_by_key(params, files)
    deliveries = _deliveries(params, files)
    if mutate_delivery is not None:
        deliveries = {key: mutate_delivery(x) for key, x in deliveries.items()}
    selectors = _selectors(deliveries)
    # a decode depends on (broadcast, user, key digit) alone, the demand being (d_k + key) mod N
    decoded = {
        ((digits, t), k, s): decode(caches[(k, s)], x, k, (digits[k] + s) % n)
        for (digits, t), x in deliveries.items() for k in range(k_users) for s in range(n)
    }
    failures = []
    cases = 0
    vectors = _all_digit_vectors(n, k_users)
    for demands in vectors:
        for keys in vectors:
            digits = aux_demand(demands, keys, n).digits
            for t in selectors[digits]:
                for k in range(k_users):
                    got = decoded[((digits, t), k, keys[k])]
                    want = files.files[demands[k]]
                    cases += 1
                    if got != want:
                        failures.append(((demands, keys, t, k), want.to01(), got.to01()))
    scope = f"correctness N={n} K={k_users} r={params.r} F={params.file_bits}"
    return VerificationReport(scope, cases, failures, time.perf_counter() - start)


def _privacy(
    params: SchemeParams,
    what: str,
    masked: bool,
    observables: Callable[[], tuple[dict, dict, Callable[[int, bytes], int] | None]],
) -> VerificationReport:
    """The one histogram check behind every privacy verdict.

    `observables()` builds two tables of outcome lists,
    `broadcasts[(aux digits, t)]` and `held[(k, key digit, own demand)]`,
    what user k holds besides the broadcast.  The engines here put one
    outcome in each list; a reference that enumerates libraries puts one per
    library, and entry i of a broadcast list pairs with entry i of a held list.
    For each user k, own demand dk and completion of the other demands,
    broadcast + held is weighted over every key vector, every t in the
    selector set (uniformly) and every entry; the histogram must be the same
    for all completions.  Every completion's weights sum to the same total,
    so the integer weight maps are equal exactly when the distributions
    are.  The third value, `spread(k, outcome)`, says how many observable
    outcomes one table outcome of user k stands for (one each if None); a
    failure reports their sum over the outcomes whose weights differ.  The
    tables are built after the guard, on the report's clock.
    """
    _guard_enumeration(params, "privacy")
    n, k_users = params.num_files, params.num_users
    try:  # the observables carry digits up to N-1 in the wire headers
        delivery_header((n - 1,), 0, 0)
    except ValueError as exc:
        raise ScaleLimitError(f"privacy serializes every observable: {exc}") from None
    start = time.perf_counter()
    broadcasts, held, spread = observables()
    selectors = _selectors(broadcasts)
    weight_lcm = lcm(*(len(ts) for ts in selectors.values()))
    # the unmasked negative control drives the broadcast by the raw demands
    drive = aux_demand if masked else (lambda demands, keys, num_files: AuxDemand(demands, num_files))
    vectors = _all_digit_vectors(n, k_users)
    # per aux digit vector, the broadcasts of its selector set, each weighted 1/|V|
    on_air = {
        digits: ([broadcasts[(digits, t)] for t in ts], weight_lcm // len(ts))
        for digits, ts in selectors.items()
    }
    # per demand vector, what each key vector (in `vectors` order) puts on
    # the air; shared by every user and holding only references into on_air
    sent = {demands: [on_air[drive(demands, keys, n).digits] for keys in vectors] for demands in vectors}
    completions = _all_digit_vectors(n, k_users - 1)
    cases = 0
    failures = []
    for k in range(k_users):
        for dk in range(n):
            tails = [held[(k, s, dk)] for s in range(n)]
            reference = ref_completion = None
            for completion in completions:
                demands = completion[:k] + (dk,) + completion[k:]
                weights: dict[bytes, int] = {}
                for keys, (xs, w) in zip(vectors, sent[demands]):
                    tail = tails[keys[k]]
                    for x in xs:
                        for key in map(operator.add, x, tail):
                            weights[key] = weights.get(key, 0) + w
                cases += 1
                if reference is None:
                    reference, ref_completion = weights, completion
                elif weights != reference:
                    outcomes = weights.keys() | reference.keys()
                    differ = [o for o in outcomes if weights.get(o, 0) != reference.get(o, 0)]
                    count = len(differ) if spread is None else sum(spread(k, o) for o in differ)
                    failures.append(
                        (
                            (k, dk, completion),
                            f"distribution identical to completion {ref_completion}",
                            f"{count} outcomes differ",
                        )
                    )
    scope = (
        f"privacy[{what}] N={n} K={k_users} r={params.r}"
        + ("" if masked else " (unmasked negative control)")
    )
    return VerificationReport(scope, cases, failures, time.perf_counter() - start)


def _serialized(params: SchemeParams, files: FileLibrary, with_demand_file: bool) -> tuple[dict, dict, None]:
    """Observable tables of one concrete library, via the real serializers."""
    broadcasts = {key: [x.to_bytes()] for key, x in _deliveries(params, files).items()}
    wanted = [f.to_bytes() if with_demand_file else b"" for f in files.files]
    held = {}
    for (k, s), cache in _caches_by_key(params, files).items():
        z = cache.to_bytes()
        for dk, w in enumerate(wanted):
            held[(k, s, dk)] = [z + w]
    return broadcasts, held, None


def verify_privacy(
    params: SchemeParams,
    mode: str = CONDITIONAL,
    files: FileLibrary | None = None,
    masked: bool = True,
) -> VerificationReport:
    """Exact distribution-equality test of the observable (X_D, Z_k).

    Conditional mode fixes the library and enumerates keys and t-choices;
    full-marginal mode marginalizes over every 1-bit-subfile library as
    well, exactly and without enumerating them (`_privacy_marginal`), up
    to 512 library bits.  For every user k and own demand value, the
    histogram must be identical across all completions of the other
    demands -- exactly, as rationals.
    With masked=False the broadcast is driven by the raw demands instead
    of the key-masked ones; that variant must fail and serves as the
    negative control for the test machinery itself.
    """
    if mode in (CONDITIONAL, "conditional"):
        if files is None:
            raise ValueError("conditional mode needs a file library")
        return _privacy(params, CONDITIONAL, masked, lambda: _serialized(params, files, False))
    if mode == FULL_MARGINAL:
        return _privacy_marginal(params, masked)
    raise ValueError(f"unknown privacy mode {mode!r}")


def _basis_library(params: SchemeParams) -> tuple[SchemeParams, FileLibrary, int]:
    """Library whose subfile (n, R) is the matching one-hot bit mask.

    Running the real placement and delivery code over it yields, for every
    payload bit, the mask of true library bits that XOR into it: payload
    bits are GF(2)-linear in the library bits, so the masks stand for every
    1-bit-subfile library at once.
    """
    count = params.subfile_count
    total = params.num_files * count
    wide = SchemeParams(params.num_files, params.num_users, params.r, count * total)
    files = []
    for fi in range(params.num_files):
        blocks = [Bits(1 << (fi * count + j), total) for j in range(count)]
        files.append(Bits.concat(blocks))
    return wide, FileLibrary(wide, tuple(files)), total


def _gf2_rank(vectors: Iterable[int]) -> int:
    """Rank over GF(2) of bit-mask rows, by elimination on leading bits."""
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length()
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = v
                break
            v ^= pivot
    return len(pivots)


def _privacy_marginal(params: SchemeParams, masked: bool) -> VerificationReport:
    """Full-marginal privacy over every 1-bit-subfile library, exactly.

    Given the demands, an observable's header (d, t, key digit s_k) fixes
    the payload map: the broadcast and cache masks of the basis library.
    Over a uniform library the payload is uniform on the image of those
    masks, 2^rank outcomes each with the same weight.  So each table entry
    holds one outcome, the real wire headers, and two completions'
    distributions are equal exactly when their header weights are; a
    differing header stands for 2^rank differing outcomes.  Ranks are
    computed on failures only, once per (d, t, k, s).  The tables are as
    wide as the library has bits, so those are capped at 512.
    """
    if params.subfile_bits != 1:
        raise ScaleLimitError("full-marginal mode needs 1-bit subfiles")
    n = params.num_files
    total_bits = n * params.subfile_count
    if total_bits > _MARGINAL_BIT_CAP:
        raise ScaleLimitError(
            f"full-marginal mode over {total_bits} library bits exceeds the "
            f"{_MARGINAL_BIT_CAP}-bit cap"
        )

    def observables() -> tuple[dict, dict, Callable[[int, bytes], int]]:
        wide_params, basis, _ = _basis_library(params)
        deliveries = _deliveries(wide_params, basis)
        caches = _caches_by_key(wide_params, basis)
        broadcasts = {
            (digits, t): [delivery_header(digits, t, len(x.segments))] for (digits, t), x in deliveries.items()
        }
        tails = [cache_header(s, len(caches[(0, s)].signals)) for s in range(n)]
        held = {(k, s, dk): [tails[s]] for k, s in caches for dk in range(n)}
        origin = {x[0] + tail: (key, s) for key, x in broadcasts.items() for s, tail in enumerate(tails)}

        @cache
        def rank(key: tuple[tuple[int, ...], int], k: int, s: int) -> int:
            return _gf2_rank(deliveries[key].segments + caches[(k, s)].signals)

        def spread(k: int, outcome: bytes) -> int:
            key, s = origin[outcome]
            return 1 << rank(key, k, s)

        return broadcasts, held, spread

    return _privacy(params, f"full-marginal over {1 << total_bits} libraries", masked, observables)


def verify_distribution_lemma(
    params: SchemeParams, files: FileLibrary, masked: bool = True
) -> VerificationReport:
    """Equality of the joint (X_D, Z_k, W_{D_k}) histogram across D_{-k}.

    Same enumeration as conditional privacy with the demanded file's bits
    appended to the observable; given the library, the demanded file is a
    function of the own demand alone, so any inequality points at the
    broadcast or cache leaking the other users' demands.
    """
    return _privacy(params, "joint with demanded file", masked, lambda: _serialized(params, files, True))


def oracle_demand_identity(params: SchemeParams, files: FileLibrary) -> VerificationReport:
    """Brute-force check of the selector/label file identity.

    For every auxiliary demand d, user k, and key shift: the XOR of the
    files demanded by user k under the labeled demands in d's selector
    set equals the file demanded under d (shifted), bit for bit.  Whole
    files are compared, which covers every subfile index at once.
    """
    start = time.perf_counter()
    n, k_users = params.num_files, params.num_users
    cases = 0
    failures = []
    for digits in _all_digit_vectors(n, k_users):
        d = AuxDemand(digits, n)
        members = d.selector
        labeled = [g_map(t, n, k_users).digits for t in members]
        for k in range(k_users):
            for shift in range(n):
                acc = Bits.zeros(params.file_bits)
                for label_digits in labeled:
                    acc = acc ^ files.files[(label_digits[k] + shift) % n]
                want = files.files[(digits[k] + shift) % n]
                cases += 1
                if acc != want:
                    failures.append(((digits, k, shift), want.to01(), acc.to01()))
    scope = f"demand-identity N={n} K={k_users} (all d, users, shifts)"
    return VerificationReport(scope, cases, failures, time.perf_counter() - start)


def oracle_y_reconstruction(params: SchemeParams, files: FileLibrary) -> VerificationReport:
    """Brute-force gate for the non-leader signal reconstruction identity.

    For every user and key digit, decoding's signal expansion
    (`CacheContent.signal_values` of the placed cache) must equal compute_y
    at every index outside the leader block; vacuously passes when no such
    index exists (K' - N < r + 1).
    """
    start = time.perf_counter()
    n, k_users = params.num_files, params.num_users
    non_leader = [
        (rank, index)
        for rank, index in enumerate(enumerate_r_subsets(params.positions, params.r + 1))
        if index.members[0] >= n
    ]
    caches = _caches_by_key(params, files)
    cases = 0
    failures = []
    for k in range(k_users):
        for s in range(n):
            u = yma.build_u_vector(n, k_users, k, s)
            signals = caches[(k, s)].signal_values
            for rank, index in non_leader:
                got = Bits(signals[rank], params.subfile_bits)
                want = yma.compute_y(files, u, index)
                cases += 1
                if got != want:
                    failures.append(((k, s, index.members), want.to01(), got.to01()))
    scope = f"signal-reconstruction N={n} K={k_users} r={params.r} ({len(non_leader)} non-leader indices)"
    return VerificationReport(scope, cases, failures, time.perf_counter() - start)
