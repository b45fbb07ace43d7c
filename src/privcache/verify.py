"""Exhaustive verification engines.

Correctness and privacy read one table of broadcasts, built once per
call for every (auxiliary demand, t) the scheme can send.  Correctness
sweeps every (demand vector, key vector, t-choice, user) tuple over it
and checks bit-exact decoding.  Privacy is one histogram check: per user
and own-demand value, the exact distribution of the serialized
observable (broadcast and cache, plus the demanded file for Lemma 1)
must be identical across every completion of the other demands; no
sampling, no floats.  The observable is serialized directly for one
concrete library, or by mask parities for every 1-bit-subfile library
in full-marginal mode.  The oracle engines brute-force the file identity
and check decoding's signal reconstruction against its definition.
"""

from __future__ import annotations

import itertools
import operator
import time
from dataclasses import dataclass, field
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
    _signal_values,
    aux_demand,
    build_delivery,
    build_v,
    g_map,
    place,
    decode,
)

_CASE_CAP = 20_000_000
_MARGINAL_BIT_CAP = 14

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
        for t in build_v(d).members:
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
    failures = []
    cases = 0
    vectors = _all_digit_vectors(n, k_users)
    for demands in vectors:
        for keys in vectors:
            digits = aux_demand(demands, keys, n).digits
            for t in selectors[digits]:
                x = deliveries[(digits, t)]
                for k in range(k_users):
                    got = decode(caches[(k, keys[k])], x, k, demands[k])
                    cases += 1
                    if got != files.files[demands[k]]:
                        failures.append(
                            (
                                (demands, keys, t, k),
                                files.files[demands[k]].to01(),
                                got.to01(),
                            )
                        )
    scope = f"correctness N={n} K={k_users} r={params.r} F={params.file_bits}"
    return VerificationReport(scope, cases, failures, time.perf_counter() - start)


def _privacy(
    params: SchemeParams,
    what: str,
    masked: bool,
    observables: Callable[[], tuple[dict, dict]],
) -> VerificationReport:
    """The one histogram check behind every privacy verdict.

    `observables()` builds two tables holding one serialization per
    library considered: `broadcasts[(aux digits, t)]` and
    `held[(k, key digit, own demand)]`, what user k holds besides the
    broadcast.  For each user k, own demand dk and completion of the other
    demands, broadcast + held is weighted over every key vector, every t
    in the selector set (uniformly) and every library; the histogram must
    be the same for all completions.  Every completion's weights sum to the
    same total (N^K * lcm * libraries), so the integer weight maps are equal
    exactly when the distributions are.  The tables are built after the
    guard, on the report's clock.
    """
    _guard_enumeration(params, "privacy")
    start = time.perf_counter()
    broadcasts, held = observables()
    n, k_users = params.num_files, params.num_users
    selectors = _selectors(broadcasts)
    weight_lcm = lcm(*(len(ts) for ts in selectors.values()))
    # the unmasked negative control drives the broadcast by the raw demands
    drive = aux_demand if masked else (lambda demands, keys, num_files: AuxDemand(demands, num_files))
    key_vectors = _all_digit_vectors(n, k_users)
    completions = _all_digit_vectors(n, k_users - 1)
    cases = 0
    failures = []
    for k in range(k_users):
        for dk in range(n):
            reference = ref_completion = None
            for completion in completions:
                demands = completion[:k] + (dk,) + completion[k:]
                weights: dict[bytes, int] = {}
                for keys in key_vectors:
                    digits = drive(demands, keys, n).digits
                    ts = selectors[digits]
                    w = weight_lcm // len(ts)
                    tail = held[(k, keys[k], dk)]
                    for t in ts:
                        for key in map(operator.add, broadcasts[(digits, t)], tail):
                            weights[key] = weights.get(key, 0) + w
                cases += 1
                if reference is None:
                    reference, ref_completion = weights, completion
                elif weights != reference:
                    outcomes = weights.keys() | reference.keys()
                    differ = sum(weights.get(o, 0) != reference.get(o, 0) for o in outcomes)
                    failures.append(
                        (
                            (k, dk, completion),
                            f"distribution identical to completion {ref_completion}",
                            f"{differ} outcomes differ",
                        )
                    )
    scope = (
        f"privacy[{what}] N={n} K={k_users} r={params.r}"
        + ("" if masked else " (unmasked negative control)")
    )
    return VerificationReport(scope, cases, failures, time.perf_counter() - start)


def _serialized(params: SchemeParams, files: FileLibrary, with_demand_file: bool) -> tuple[dict, dict]:
    """Observable tables of one concrete library, via the real serializers."""
    broadcasts = {key: [x.to_bytes()] for key, x in _deliveries(params, files).items()}
    wanted = [f.to_bytes() if with_demand_file else b"" for f in files.files]
    held = {}
    for (k, s), cache in _caches_by_key(params, files).items():
        z = cache.to_bytes()
        for dk, w in enumerate(wanted):
            held[(k, s, dk)] = [z + w]
    return broadcasts, held


def verify_privacy(
    params: SchemeParams,
    mode: str = CONDITIONAL,
    files: FileLibrary | None = None,
    masked: bool = True,
) -> VerificationReport:
    """Exact distribution-equality test of the observable (X_D, Z_k).

    Conditional mode fixes the library and enumerates keys and t-choices;
    full-marginal mode additionally enumerates every 1-bit-subfile library.
    For every user k and own demand value, the histogram must be identical
    across all completions of the other demands -- exactly, as rationals.
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
    payload bit, the mask of true library bits that XOR into it; each
    concrete library is then evaluated by bit parities against the masks.
    """
    count = params.subfile_count
    total = params.num_files * count
    wide = SchemeParams(params.num_files, params.num_users, params.r, count * total)
    files = []
    for fi in range(params.num_files):
        blocks = [Bits(1 << (fi * count + j), total) for j in range(count)]
        files.append(Bits.concat(blocks))
    return wide, FileLibrary(wide, tuple(files)), total


def _pack_parities(masks: tuple[int, ...], lib: int) -> Bits:
    value = 0
    for i, mask in enumerate(masks):
        value |= ((mask & lib).bit_count() & 1) << i
    return Bits(value, len(masks))


def _marginal_serializations(params: SchemeParams):
    """Serialized broadcast and cache per (…, library index).

    Payload bits are GF(2)-linear in the library bits, so one placement
    and delivery pass over the one-hot basis library yields a bit mask per
    payload position; each concrete library is then serialized by mask
    parities.  The layout is byte-identical to DeliverySignal.to_bytes /
    CacheContent.to_bytes with 1-bit subfiles.
    """
    from .scheme import cache_header, delivery_header

    wide_params, basis, total_bits = _basis_library(params)
    libraries = range(1 << total_bits)

    xd_ser: dict[tuple[tuple[int, ...], int], list[bytes]] = {}
    for (digits, t), wide in _deliveries(wide_params, basis).items():
        header = delivery_header(digits, t, len(wide.segments))
        xd_ser[(digits, t)] = [header + _pack_parities(wide.segments, lib).to_bytes() for lib in libraries]

    zk_ser: dict[tuple[int, int], list[bytes]] = {}
    for (k, s), cache in _caches_by_key(wide_params, basis).items():
        header = cache_header(s, len(cache.signals))
        zk_ser[(k, s)] = [header + _pack_parities(cache.signals, lib).to_bytes() for lib in libraries]
    return xd_ser, zk_ser, libraries


def _privacy_marginal(params: SchemeParams, masked: bool) -> VerificationReport:
    if params.subfile_bits != 1:
        raise ScaleLimitError("full-marginal mode needs 1-bit subfiles")
    total_bits = params.num_files * params.subfile_count
    if total_bits > _MARGINAL_BIT_CAP:
        raise ScaleLimitError(
            f"full-marginal mode over {total_bits} library bits exceeds the "
            f"{_MARGINAL_BIT_CAP}-bit cap"
        )

    def observables() -> tuple[dict, dict]:
        xd_ser, zk_ser, _ = _marginal_serializations(params)
        held = {(k, s, dk): z for (k, s), z in zk_ser.items() for dk in range(params.num_files)}
        return xd_ser, held

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
        members = build_v(d).members
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
    (`scheme._signal_values` over the placed cache) must equal compute_y
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
    plan = files.plan
    caches = _caches_by_key(params, files)
    cases = 0
    failures = []
    for k in range(k_users):
        for s in range(n):
            u = yma.build_u_vector(n, k_users, k, s)
            signals = _signal_values(plan, caches[(k, s)])
            for rank, index in non_leader:
                got = Bits(signals[rank], params.subfile_bits)
                want = yma.compute_y(files, u, index)
                cases += 1
                if got != want:
                    failures.append(((k, s, index.members), want.to01(), got.to01()))
    scope = f"signal-reconstruction N={n} K={k_users} r={params.r} ({len(non_leader)} non-leader indices)"
    return VerificationReport(scope, cases, failures, time.perf_counter() - start)
