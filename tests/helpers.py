"""Shared test utilities: seeded libraries, symbolic one-hot libraries,
and the slow reference implementations the library code is checked against.

A "basis" library gives every subfile a distinct one-hot bit pattern, so
an XOR of subfiles equals the characteristic vector of the XORed symbol
set.  That turns the worked-example tables into exact symbolic equality
checks on real code paths.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from privcache.bitvec import Bits
from privcache.combinat import binomial, position_count, scheme_counts
from privcache.reference import SubsetIndex, subset_rank
from privcache.scheme import (
    CacheContent,
    FileLibrary,
    SchemeParams,
    aux_demand,
    cache_header,
    decode,
    delivery_header,
)
from privcache import tradeoff, verify
from privcache.verify import VerificationReport, _basis_library, _caches_by_key, _deliveries
from privcache.yma import UVector


def xor_all(parts: Sequence[Bits], length: int) -> Bits:
    """XOR a sequence of equal-length strings; empty input gives zeros."""
    acc = Bits.zeros(length)
    for part in parts:
        acc = acc ^ part
    return acc


def reference_to_bytes(b: Bits) -> bytes:
    """Bit-by-bit MSB-first packing: bit j sets bit 7 - j%8 of byte j//8."""
    out = bytearray((b.length + 7) // 8)
    v = b.value
    j = 0
    while v:
        if v & 1:
            out[j >> 3] |= 0x80 >> (j & 7)
        v >>= 1
        j += 1
    return bytes(out)


def reference_from_bytes(data: bytes, length: int) -> Bits:
    """Bit-by-bit inverse of reference_to_bytes; pad bits are ignored."""
    value = 0
    for j in range(length):
        if data[j >> 3] & (0x80 >> (j & 7)):
            value |= 1 << j
    return Bits(value, length)


def leader_set(num_files: int) -> range:
    """Leader positions are always the first `num_files` ones."""
    return range(num_files)


def build_u_vector_blockwise(num_files: int, num_users: int, user: int, key: int) -> UVector:
    """Two-step construction of yma.build_u_vector's vector, a cross-check.

    First lay out an intermediate length-K vector (key repeated K-user
    times, then key+1 repeated user times); then expand block 0 to all N
    values and every later block to its first N-1 successive values.
    """
    n = num_files
    if not 0 <= user < num_users or not 0 <= key < n:
        raise ValueError("parameter out of range")
    intermediate = [key] * (num_users - user) + [(key + 1) % n] * user
    entries = [(intermediate[0] + j) % n for j in range(n)]
    for i in range(1, num_users):
        entries.extend((intermediate[i] + j) % n for j in range(n - 1))
    return UVector(tuple(entries), n)


def seeded_library(n, k, r, seed=0, bits_per_subfile=8):
    params = SchemeParams.minimal(n, k, r, bits_per_subfile)
    return params, FileLibrary.random(params, random.Random(seed))


def library_from_bit_index(params: SchemeParams, lib: int) -> FileLibrary:
    """The 1-bit-subfile library whose concatenated file bits spell `lib`."""
    if params.subfile_bits != 1:
        raise ValueError("bit-indexed libraries need 1-bit subfiles")
    count = params.subfile_count
    files = tuple(
        Bits(lib >> (fi * count) & ((1 << count) - 1), count)
        for fi in range(params.num_files)
    )
    return FileLibrary(params, files)


def basis_library(n, k, r):
    """`verify._basis_library` of (N, K, r): its wide params and library."""
    params, files, _ = _basis_library(SchemeParams.minimal(n, k, r))
    return params, files


def pack_parities(masks: tuple[int, ...], lib: int) -> Bits:
    """Payload bits of library `lib`: bit i is the parity of `lib & masks[i]`."""
    value = 0
    for i, mask in enumerate(masks):
        value |= ((mask & lib).bit_count() & 1) << i
    return Bits(value, len(masks))


@lru_cache(maxsize=1)  # the masked and unmasked oracle runs of one instance share it
def marginal_serializations(params: SchemeParams):
    """Serialized broadcast and cache per (…, library index), read-only.

    Payload bits are GF(2)-linear in the library bits, so one placement
    and delivery pass over the one-hot basis library yields a bit mask per
    payload position; each concrete library is then serialized by mask
    parities.  The layout is byte-identical to DeliverySignal.to_bytes /
    CacheContent.to_bytes with 1-bit subfiles.
    """
    wide_params, basis, total_bits = _basis_library(params)
    libraries = range(1 << total_bits)

    xd_ser: dict[tuple[tuple[int, ...], int], list[bytes]] = {}
    for (digits, t), wide in _deliveries(wide_params, basis).items():
        header = delivery_header(digits, t, len(wide.segments))
        xd_ser[(digits, t)] = [header + pack_parities(wide.segments, lib).to_bytes() for lib in libraries]

    zk_ser: dict[tuple[int, int], list[bytes]] = {}
    for (k, s), cache in _caches_by_key(wide_params, basis).items():
        header = cache_header(s, len(cache.signals))
        zk_ser[(k, s)] = [header + pack_parities(cache.signals, lib).to_bytes() for lib in libraries]
    return xd_ser, zk_ser, libraries


def enumerated_marginal_privacy(params: SchemeParams, masked: bool = True) -> VerificationReport:
    """Full-marginal privacy by enumeration, the oracle of the exact engine.

    Its own histogram loop over every library's byte serializations: for
    each user k, own demand and completion of the other demands, the
    weight of each (broadcast bytes, cache bytes) pair over every key
    vector, t in the selector set and library must equal the first
    completion's; a failure counts the pairs whose weights differ.
    """
    xd_ser, zk_ser, libraries = marginal_serializations(params)
    n, k_users = params.num_files, params.num_users
    selectors: dict[tuple[int, ...], list[int]] = {}
    for digits, t in xd_ser:
        selectors.setdefault(digits, []).append(t)
    scale = math.lcm(*map(len, selectors.values()))  # t is uniform over the selector set
    vectors = list(itertools.product(range(n), repeat=k_users))
    cases, failures = 0, []
    for k in range(k_users):
        # per (broadcast digits, key digit): every byte pair over t and libraries
        pairs = {
            (digits, s): [x + y for t in ts for x, y in zip(xd_ser[(digits, t)], zk_ser[(k, s)])]
            for digits, ts in selectors.items()
            for s in range(n)
        }
        for dk in range(n):
            reference = ref_completion = None
            for completion in itertools.product(range(n), repeat=k_users - 1):
                demands = completion[:k] + (dk,) + completion[k:]
                counts: dict[bytes, int] = {}
                for keys in vectors:
                    sent = aux_demand(demands, keys, n).digits if masked else demands
                    share = scale // len(selectors[sent])
                    for pair in pairs[(sent, keys[k])]:
                        counts[pair] = counts.get(pair, 0) + share
                cases += 1
                if reference is None:
                    reference, ref_completion = counts, completion
                elif counts != reference:
                    differ = sum(counts.get(o) != reference.get(o) for o in counts.keys() | reference.keys())
                    failures.append(
                        (
                            (k, dk, completion),
                            f"distribution identical to completion {ref_completion}",
                            f"{differ} outcomes differ",
                        )
                    )
    scope = f"privacy[full-marginal over {len(libraries)} libraries] N={n} K={k_users} r={params.r}"
    return VerificationReport(scope + ("" if masked else " (unmasked negative control)"), cases, failures)


def weight_map_privacy(params: SchemeParams, what: str, masked: bool, spread=None) -> VerificationReport:
    """`verify._privacy` by one integer weight map per completion, its oracle.

    Same signature and report: for each user k, own demand and completion,
    every header pair from `verify._headers` (looked up at call time, so a
    patched one is seen) is weighed over every key vector and t in the
    selector set, and the map is compared with the first completion's; a
    failure counts the outcomes whose weights differ, each standing for
    `spread(k, outcome)` outcomes when given.  Keys mask the demands through
    `verify._masked`, also looked up at call time.
    """
    n, k_users = params.num_files, params.num_users
    broadcasts, caches = verify._headers(params)
    scale = math.lcm(*(len(ts) for ts in broadcasts.values()))
    vectors = list(itertools.product(range(n), repeat=k_users))
    cases, failures = 0, []
    for k in range(k_users):
        for dk in range(n):
            reference = ref_completion = None
            for completion in itertools.product(range(n), repeat=k_users - 1):
                demands = completion[:k] + (dk,) + completion[k:]
                weights: dict[bytes, int] = {}
                sent = verify._masked(demands, n) if masked else itertools.repeat(demands)
                for keys, digits in zip(vectors, sent):
                    ts = broadcasts[digits]
                    for x in ts.values():
                        outcome = x + caches[keys[k]]
                        weights[outcome] = weights.get(outcome, 0) + scale // len(ts)
                cases += 1
                if reference is None:
                    reference, ref_completion = weights, completion
                elif weights != reference:
                    differ = [o for o in weights.keys() | reference.keys() if weights.get(o) != reference.get(o)]
                    count = len(differ) if spread is None else sum(spread(k, o) for o in differ)
                    failures.append(
                        (
                            (k, dk, completion),
                            f"distribution identical to completion {ref_completion}",
                            f"{count} outcomes differ",
                        )
                    )
    scope = f"privacy[{what}] N={n} K={k_users} r={params.r}"
    return VerificationReport(scope + ("" if masked else " (unmasked negative control)"), cases, failures)


def sweep_correctness(params: SchemeParams, files: FileLibrary, mutate_delivery=None) -> VerificationReport:
    """`verify.verify_correctness_exhaustive` by a sweep over every (demand
    vector, key vector, t-choice, user) tuple, its oracle.

    Same signature and report: every broadcast and cache comes from
    `verify._deliveries` and `verify._caches_by_key`, each decoded once per
    (broadcast, user, key digit) through `scheme.decode`, and that table is
    read once per tuple, with demands masked by keys through `verify._masked`;
    a failure is ((D, S, t, k), wanted bits, decoded bits), in sweep order.
    """
    n, k_users = params.num_files, params.num_users
    verify._guard_cases("correctness enumeration", n ** (2 * k_users) * params.positions * k_users)
    caches = _caches_by_key(params, files)
    deliveries = _deliveries(params, files)
    selectors = {x.aux.digits: x.aux.selector for x in deliveries.values()}
    if mutate_delivery is not None:
        deliveries = {key: mutate_delivery(x) for key, x in deliveries.items()}
    # a decode depends on (broadcast, user, key digit) alone, the demand being (d_k + key) mod N
    decoded = {
        ((digits, t), k, s): decode(caches[(k, s)], x, k, (digits[k] + s) % n)
        for (digits, t), x in deliveries.items() for k in range(k_users) for s in range(n)
    }
    failures = []
    cases = 0
    vectors = verify._all_digit_vectors(n, k_users)
    for demands in vectors:
        for keys, digits in zip(vectors, verify._masked(demands, n)):
            for t in selectors[digits]:
                for k in range(k_users):
                    got = decoded[((digits, t), k, keys[k])]
                    want = files.files[demands[k]]
                    cases += 1
                    if got != want:
                        failures.append(((demands, keys, t, k), want.to01(), got.to01()))
    scope = f"correctness N={n} K={k_users} r={params.r} F={params.file_bits}"
    return VerificationReport(scope, cases, failures)


def symbol(params: SchemeParams, file_index: int, members) -> Bits:
    """Expected one-hot pattern of subfile (file_index, set(members))."""
    count = binomial(params.positions, params.r)
    rank = subset_rank(SubsetIndex.of(members, params.positions))
    return Bits(1 << (file_index * count + rank), n_basis_width(params))


def n_basis_width(params: SchemeParams) -> int:
    return params.num_files * binomial(params.positions, params.r)


def xor_symbols(params: SchemeParams, terms) -> Bits:
    """XOR of expected one-hots for [(file_index, members), ...]."""
    return xor_all([symbol(params, fi, mem) for fi, mem in terms], n_basis_width(params))


def payload_entry(payload, index) -> Bits:
    """The signal or segment at `index`, expanded the way `decode` does it.

    For a cache, `index` is an (r+1)-subset, looked up in
    `CacheContent.signal_values`; for a broadcast, it is (file, (r-1)-subset),
    looked up in `DeliverySignal.segment_values`.  Stored entries pass through
    unchanged; the others come from the exchange identities.
    """
    if isinstance(payload, CacheContent):
        value = payload.signal_values[subset_rank(index)]
    else:
        n, s = index
        value = payload.segment_values[n][subset_rank(s)]
    return Bits(value, payload.params.subfile_bits)


class RatePoint(NamedTuple):
    """An exact (memory, rate) pair, both in units of files."""

    memory: Fraction
    rate: Fraction


def scheme_point(num_files: int, num_users: int, r: int) -> RatePoint:
    """Exact (M, R) of the virtual-user scheme with split parameter r.

    With K' = N*K-K+1:  M = (C(K',r+1) - C(K'-N,r+1)) / C(K',r), the
    signals per cache over the subfiles per file (`scheme_counts`), and
    R = N*C(K'-1,r-1) / C(K',r) = N*r / K'.
    """
    subfiles, stored, _, _ = scheme_counts(num_files, num_users, r)
    return RatePoint(Fraction(stored, subfiles), Fraction(num_files * r, position_count(num_files, num_users)))


def reduced(num: int, den: int) -> tuple[int, int]:
    """num/den (den > 0) in lowest terms: the pair `Fraction(num, den)` holds."""
    g = math.gcd(num, den)
    return num // g, den // g


def hull_corners_by_pairs(points) -> list[tuple[int, int]]:
    """Brute-force corners of `tradeoff._lower_hull` of (memory, rate) pairs.

    Of the distinct points up to the minimum-rate vertex (least rate, then
    least memory), a point is a corner exactly when no pair of other points
    lies on or below it: no a, b with a.memory <= p.memory <= b.memory whose
    segment, or for a == b at p's memory whose own rate, is at most p's
    rate at p's memory.
    """
    pts = set(points)
    vertex = min(pts, key=lambda p: (p[1], p[0]))

    def covered(m, r):
        for (am, ar), (bm, br) in itertools.product(pts - {(m, r)}, repeat=2):
            if am == bm == m and ar == br <= r:
                return True
            # the segment's rate at m, ar + (m - am)(br - ar)/(bm - am), is at most r
            if am <= m <= bm and am < bm and (ar - r) * (bm - am) + (m - am) * (br - ar) <= 0:
                return True
        return False

    return sorted(p for p in pts if p[0] <= vertex[0] and not covered(*p))


def envelope_by_pairwise_max(lines) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Brute-force pieces of `tradeoff._upper_hull` of (alpha, beta, gamma, tag)
    lines, as (start, slope, intercept).

    Between consecutive points of {0, 2} and the pairwise intersections
    inside (0, 2), one line is the pointwise max: take it at each interval's
    midpoint, and merge neighbouring intervals on the same line.
    """
    lines = {(Fraction(-a, b), Fraction(g, b)) for a, b, g, *_ in lines}
    cuts = {Fraction(0), Fraction(2)}
    for (s1, c1), (s2, c2) in itertools.combinations(lines, 2):
        if s1 != s2 and 0 < (c2 - c1) / (s1 - s2) < 2:
            cuts.add((c2 - c1) / (s1 - s2))
    cuts = sorted(cuts)
    pieces: list[tuple[Fraction, Fraction, Fraction]] = []
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2
        top = max(lines, key=lambda line: line[0] * mid + line[1])
        if not pieces or pieces[-1][1:] != top:
            pieces.append((lo, *top))
    return pieces


def envelope_value(curves: tuple, memory: Fraction) -> Fraction:
    """The achievable rate at `memory` in [0, 2], interpolated pointwise
    between the corners of `tradeoff._two_file_curves`."""
    den, corners, _ = curves
    points = [(Fraction(m, den), Fraction(r, den)) for m, r in corners]
    for (m0, r0), (m1, r1) in zip(points, points[1:]):
        if m0 <= memory <= m1:
            return r0 + (memory - m0) * (r1 - r0) / (m1 - m0)
    raise ValueError(f"memory {memory} outside [0, 2]")


def converse_value(num_users: int, memory: Fraction) -> Fraction:
    """The best converse rate bound at `memory`: the max over every line
    alpha*M + beta*R >= gamma of `tradeoff._converse_coefficients`."""
    return max(Fraction(g - a * memory, b) for a, b, g, _ in tradeoff._converse_coefficients(num_users))


def compare_by_rows(curves: tuple, memories, value):
    """The per-row merge pass the cell walk (`tradeoff._compare`) replaced,
    kept as its oracle: a row (memory, achievable, converse, tight) per
    memory a/q, given as (a, q) with q > 0 and ascending within [0, 2],
    each value made by value(numerator, denominator); one pointer walks the
    achievable segments and one the converse pieces, and each row is
    compared by cross-multiplying."""
    den, corners, pieces = curves
    i = j = 0
    for a, q in memories:
        a_den = a * den
        while i + 2 < len(corners) and corners[i + 1][0] * q <= a_den:
            i += 1
        while j + 1 < len(pieces) and pieces[j + 1][0] * q <= a * pieces[j + 1][1]:
            j += 1
        (x0, y0), (x1, y1) = corners[i], corners[i + 1]
        ach_num, ach_den = q * (y0 * (x1 - x0) - x0 * (y1 - y0)) + a_den * (y1 - y0), q * den * (x1 - x0)
        _, _, alpha, beta, gamma, _ = pieces[j]
        conv_num, conv_den = gamma * q - alpha * a, beta * q
        tight = ach_num * conv_den == conv_num * ach_den
        ach = value(ach_num, ach_den)
        yield value(a, q), ach, ach if tight else value(conv_num, conv_den), tight


def grid_rows_by_rows(num_users: int, step: Fraction, value) -> list[tuple]:
    """`tradeoff.tightness_rows` by `compare_by_rows`: the grid i * step,
    and 2 if the step does not divide it."""
    p, q = step.numerator, step.denominator
    grid = [(i * p, q) for i in range(2 * q // p + 1)] + [(2 * q, q)] * (2 * q % p != 0)
    return list(compare_by_rows(tradeoff._two_file_curves(num_users), grid, value))


def tight_intervals_by_rows(num_users: int) -> list[tuple[Fraction, Fraction]]:
    """`tradeoff.tight_intervals` by `compare_by_rows`, each breakpoint in
    lowest terms over its own denominator."""
    den, corners, pieces = curves = tradeoff._two_file_curves(num_users)
    breaks = {reduced(m, den) for m, _ in corners} | {reduced(n, d) for n, d, *_ in pieces}
    intervals: list[list[tuple[int, int]]] = []
    previous_tight = False
    for memory, _, _, tight in compare_by_rows(curves, sorted(breaks, key=lambda m: Fraction(*m)), lambda n, d: (n, d)):
        if tight and previous_tight:
            intervals[-1][1] = memory
        elif tight:
            intervals.append([memory, memory])
        previous_tight = tight
    return [(Fraction(*lo), Fraction(*hi)) for lo, hi in intervals]


class RowsBuilt(Exception):
    """Raised in place of building the tradeoff curves, before any grid row."""


def refuse_tradeoff_rows(monkeypatch) -> None:
    """Make `tightness_rows` and `tight_intervals` raise
    RowsBuilt once past their user-count and step checks, before any curve
    is built."""

    def refuse(num_users):
        raise RowsBuilt(num_users)

    monkeypatch.setattr(tradeoff, "_two_file_curves", refuse)


def oracle_cli_parser(argv: list[str]):
    """The parser `privcache.cli.main` built for every argv before each
    command got a parser of its own: every command with its help, but
    arguments only for the invoked one, the first token not starting with
    '-' (the top level has only -h).  The flags are written out here, not
    borrowed from the CLI, so a flag the CLI drops or changes shows."""
    import argparse

    from privcache import cli

    def add_instance_flags(p):
        p.add_argument("--n", type=int, required=True, help="number of files (N >= 2)")
        p.add_argument("--k", type=int, required=True, help="number of users (K >= 1)")
        p.add_argument("--r", type=int, required=True, help="split parameter in [0, N*K-K+1]")
        p.add_argument("--f", type=int, default=None, help="file length in bits (default: minimal)")
        p.add_argument(
            "--subfile-bits", type=int, default=1,
            help="bits per subfile when --f is not given (default 1)",
        )

    parser = argparse.ArgumentParser(
        prog="privcache",
        description="Demand-private coded caching: simulation, verification, tradeoff region",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    invoked = next((tok for tok in argv if not tok.startswith("-")), None)

    p = sub.add_parser("params", help="print exact (M, R) and size accounting")
    if invoked == "params":
        add_instance_flags(p)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=cli.cmd_params)

    p = sub.add_parser("simulate", help="run one placement/delivery/decode session")
    if invoked == "simulate":
        add_instance_flags(p)
        p.add_argument("--seed", default="0", help="session seed (default 0)")
        p.add_argument("--demands", default=None, help="comma-separated demand digits")
        p.add_argument("--library", default=None, help="raw library file (with .json sidecar)")
        p.set_defaults(func=cli.cmd_simulate)

    p = sub.add_parser("verify", help="run exhaustive verification suites")
    if invoked == "verify":
        p.add_argument(
            "--suite", choices=("correctness", "privacy", "lemma1", "identities", "reconstruction", "all"),
            default="all",
        )
        add_instance_flags(p)
        p.add_argument("--seed", default="0", help="library seed (default 0)")
        p.add_argument(
            "--mode",
            choices=("conditional-on-files", "conditional", "full-marginal"),
            default="conditional-on-files",
            help="privacy flavor (default conditional-on-files)",
        )
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=cli.cmd_verify)

    p = sub.add_parser("tradeoff", help="emit achievable vs converse rows over [0, 2]")
    if invoked == "tradeoff":
        p.add_argument("--k", type=int, required=True, help="number of users (2 <= K <= 1000)")
        p.add_argument("--grid", default="1/100", help="grid step as a fraction (default 1/100)")
        p.add_argument("--format", choices=("csv", "json", "text"), default="csv")
        p.add_argument("--out", default=None, help="write to a file instead of stdout")
        p.set_defaults(func=cli.cmd_tradeoff)

    return parser
