"""Exhaustive verification engines.

Correctness builds every broadcast the scheme can send, one per
(auxiliary digits a, t), and every cache, one per (user k, key digit s).
A user sees the demands only through a = D - S (mod N), so a decode
depends on (a, t, k, s) alone and must return file (a_k + s) mod N.  It
reads the broadcast only through its selector and segment expansion
(`scheme._xor_decode`, the decoder's own loop), so decodes are
quotiented over t: the broadcasts of one a are grouped by equal
expansion, each (group, k, s) decode runs once, and its subfiles are
compared with the library's split for every t of the group.  A correct
scheme sends one expansion per a, so one decode per (a, k, s).  For a
fixed key vector D -> a is a bijection, so one check stands for N^(K-1)
(demand vector, key vector, t, user) tuples; the report counts those
tuples, and a failing check is reported as every one of them.
Correctness is capped by its decode calls (the case cap) and by the
subfiles they rebuild (`_correctness_work`), never by the N^(2K) tuples
it stands for; both price the worst case, one expansion per t, so their
values did not change with the quotient.  Privacy is one histogram
check: per user and own-demand value, the exact distribution of the
observable must be identical across every completion of the other
demands; no sampling, no floats.  An outcome is the pair of wire headers
(broadcast and cache), sized by the closed-form `SchemeParams.counts`
with no library or plan built, so privacy also runs on instances whose
plan the size guard refuses: given a library, each payload is a function
of its header, so the conditional and Lemma 1 verdicts hold for every
library of that shape, and those engines take no library.  Each key
vector puts one (aux digits, key digit) cell on a user's air, and the
cell law over uniform keys is a product over the demand digits, so a
factor check over the N^2 rotated digits passes every masking that
sends each demand digit through the same multiset of aux digits, with
no enumeration: equal cell multisets give equal histograms for any
outcome function of the cell.  A pass builds
one widest header pair and no header table.  Any other masking, such as
the unmasked negative control, is enumerated under the case cap: a
histogram is compared as the sorted ids of its cells, and only two lists
that differ are expanded into integer weight maps, which decide the
verdict and count the differing outcomes.  The factor check and the
enumeration mask demands by keys through one `_rotation`, of which
`_masked`, read by the test oracles, is the product.  Full-marginal mode
covers every 1-bit-subfile library of up to 512 bits at once: a header's
payload is uniform over the image of the basis library's GF(2) masks, so
header weights decide the verdict and mask ranks count the differing
outcomes.  The oracle engines brute-force the file identity and check
decoding's signal reconstruction against its definition
(`reference.compute_y`, imported by that oracle alone), each under its
own case cap; they diagnose the decoder's building blocks and are not the
proof of correctness.
Every suite's refusals are written once, in `admit`, and read `params`
(and the privacy mode) alone: its caps, for correctness and
reconstruction the plan's price, and for the suites that read library
bits the seeded draw's limit.  Each engine calls its suite's set first,
and `cli.cmd_verify` calls the sets of all selected suites before any
suite runs or any library bit is drawn, so a refused run builds and
draws nothing.
`ScaleLimitError` lives in `combinat`, next to the counts the guards
read, and is re-exported here.  A run's outcome is a
`VerificationReport`, a mutable `_record.Record`: field-wise equality
and repr, unhashable, with a fresh failure list per report.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from functools import cache
from math import lcm
from operator import getitem
from typing import Callable, Iterable, Iterator

from . import yma
from ._record import Record
from .bitvec import Bits
from .combinat import ScaleLimitError, _count, admit_plan
from .scheme import (
    AuxDemand,
    CacheContent,
    DeliverySignal,
    FileLibrary,
    SchemeParams,
    SessionRandomness,
    build_delivery,
    cache_header,
    delivery_header,
    g_map,
    place,
    _decoded_subfiles,
)

_CASE_CAP = 20_000_000
# correctness decodes each (aux digits, user, key) once per distinct segment
# expansion among the t's, each decode rebuilding all C(K', r) subfiles; the
# cap and `_correctness_work` price the worst case, one expansion per t, so
# neither changed with that quotient.  This many subfiles is about a minute
# at the slowest cost per subfile measured on a 2-vCPU VM (550-880 ns; it
# grows with r and with |V| / K')
_DECODE_WORK_CAP = 60_000_000
# the oracles' own caps, each about a minute at its slowest per-case cost
# measured on a 2-vCPU VM: signal reconstruction 15-62 us per case (it grows
# with r and the subfile width), the demand identity 9-15 us (it grows with N)
_RECONSTRUCTION_CASE_CAP = 1_000_000
_IDENTITY_CASE_CAP = 4_000_000
# the symbolic full-marginal tables are payload-count x library-bits wide
# (the basis library alone is library-bits^2); under 512 bits the slowest
# instance the case cap admits is unmasked (16,2,1), ~11 s on a 2-vCPU VM
_MARGINAL_BIT_CAP = 512

CONDITIONAL = "conditional-on-files"
FULL_MARGINAL = "full-marginal"


class VerificationReport(Record):
    """Outcome of one verification run; empty failures means pass."""

    scope: str
    cases_run: int
    failures: list
    elapsed: float

    def __init__(self, scope: str, cases_run: int, failures: list | None = None, elapsed: float = 0.0) -> None:
        self.scope = scope
        self.cases_run = cases_run
        self.failures = [] if failures is None else failures
        self.elapsed = elapsed

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


def _rotation(digit: int, num_files: int) -> list[int]:
    """The `aux_demand` digits of one demand digit d under the key digits
    s = 0..N-1, in order: (d - s) mod N (d in range)."""
    return [(digit - s) % num_files for s in range(num_files)]


def _masked(demands: tuple[int, ...], num_files: int) -> Iterator[tuple[int, ...]]:
    """`aux_demand` digits of `demands` under every key vector, in
    `_all_digit_vectors` order: the product of each demand digit's
    `_rotation`."""
    return itertools.product(*[_rotation(d, num_files) for d in demands])


def _caches_by_key(params: SchemeParams, files: FileLibrary) -> dict[tuple[int, int], CacheContent]:
    """Cache content per (user, key digit), via the real placement path."""
    out = {}
    for s in range(params.num_files):
        rand = SessionRandomness(params.num_files, (s,) * params.num_users)
        for cache in place(files, params, rand):
            out[(cache.user, s)] = cache
    return out


def _guard_cases(label: str, cases: int, cap: int = _CASE_CAP) -> None:
    if cases > cap:
        raise ScaleLimitError(f"{label} of ~{_count(cases)} cases exceeds the cap")


def _guard_enumeration(params: SchemeParams, label: str) -> None:
    n, k = params.num_files, params.num_users
    _guard_cases(f"{label} enumeration", n ** (2 * k) * params.positions * k)


def _deliveries(params: SchemeParams, files: FileLibrary) -> dict[tuple[tuple[int, ...], int], DeliverySignal]:
    """Every broadcast the scheme can send, keyed by (auxiliary digits, t)."""
    table = {}
    for digits in _all_digit_vectors(params.num_files, params.num_users):
        d = AuxDemand(digits, params.num_files)
        for t in d.selector:
            table[(digits, t)] = build_delivery(files, d, t)
    return table


def _headers(params: SchemeParams) -> tuple[dict[tuple[int, ...], dict[int, bytes]], list[bytes]]:
    """Wire headers, sized by `SchemeParams.counts`, with no library or plan built.

    `broadcasts[d][t]` heads `DeliverySignal.to_bytes` for auxiliary digits
    d and t in d's selector set; `caches[s]` heads `CacheContent.to_bytes`
    for key digit s.
    """
    n, x_bits = params.num_files, params.delivery_payload_bits
    broadcasts = {
        digits: {t: delivery_header(digits, t, x_bits) for t in AuxDemand(digits, n).selector}
        for digits in _all_digit_vectors(n, params.num_users)
    }
    caches = [cache_header(s, params.cache_payload_bits) for s in range(n)]
    return broadcasts, caches


def _correctness_work(params: SchemeParams) -> int:
    """Subfiles the correctness check rebuilds, at most: one decode per
    (auxiliary digits, t, user, key), each rebuilding all C(K', r) subfiles;
    the worst case, where no two t's of a digit vector share an expansion.
    A selector holds at most K' positions, and exactly one when K = 1 (every
    one-user demand is constant), so K = 1 is priced exactly."""
    n, k_users = params.num_files, params.num_users
    t_choices = 1 if k_users == 1 else params.positions
    return n**k_users * t_choices * k_users * n * params.subfile_count


def admit(params: SchemeParams, suite: str, mode: str = CONDITIONAL) -> bool:
    """Refuse a run of `suite` (a `cli.SUITES` name other than "all") that
    its caps price too large, from `params` (and the privacy `mode`) alone,
    so nothing is drawn or built to refuse it; return whether the suite
    reads library bits.

    Every engine calls its own suite's set first; `cmd_verify` calls the
    sets of all selected suites, in `cli.SUITES` order, before any runs,
    and draws a library only if one of them reads it.  Privacy and Lemma 1
    weigh wire headers alone: in full-marginal mode 1-bit subfiles and
    `_MARGINAL_BIT_CAP`; then the widest header pair (every digit N-1,
    t = K'-1, the real lengths) is serialized, so a field too narrow for
    its value (N > 256) is refused before the N x N rotation table; then
    the case cap on the K·N^K cases a report claims.  The suites that read
    library bits: correctness's case cap on its decode calls, then
    `_DECODE_WORK_CAP` on the subfiles they rebuild, or an oracle's own
    case cap; then, for the two that place caches, the plan
    (`combinat.admit_plan`); then the seeded library's draw
    (`FileLibrary.admit_random`).
    """
    n, k_users = params.num_files, params.num_users
    if suite in ("privacy", "lemma1"):
        if suite == "privacy" and mode == FULL_MARGINAL:
            if params.subfile_bits != 1:
                raise ScaleLimitError("full-marginal mode needs 1-bit subfiles")
            total_bits = n * params.subfile_count
            if total_bits > _MARGINAL_BIT_CAP:
                raise ScaleLimitError(
                    f"full-marginal mode over {_count(total_bits)} library bits exceeds the "
                    f"{_MARGINAL_BIT_CAP}-bit cap"
                )
        try:
            delivery_header((n - 1,) * k_users, params.positions - 1, params.delivery_payload_bits)
            cache_header(n - 1, params.cache_payload_bits)
        except ValueError as exc:
            raise ScaleLimitError(f"privacy weighs every wire header: {exc}") from None
        _guard_cases("privacy verdict", k_users * n**k_users)
        return False
    if suite == "correctness":
        work = _correctness_work(params)
        # each check is one decode call, of C(K', r) subfiles
        _guard_cases("correctness check", work // params.subfile_count)
        if work > _DECODE_WORK_CAP:
            raise ScaleLimitError(f"correctness decoding of ~{_count(work)} subfiles exceeds the cap")
    elif suite == "identities":
        _guard_cases("demand-identity enumeration", n**k_users * k_users * n, _IDENTITY_CASE_CAP)
    elif suite == "reconstruction":
        rebuilt = params.counts[2]
        _guard_cases("signal-reconstruction enumeration", k_users * n * rebuilt, _RECONSTRUCTION_CASE_CAP)
    if suite != "identities":  # correctness and reconstruction place caches
        admit_plan(n, k_users, params.r)
    FileLibrary.admit_random(params)
    return True


def verify_correctness_exhaustive(
    params: SchemeParams,
    files: FileLibrary,
    mutate_delivery: Callable[[DeliverySignal], DeliverySignal] | None = None,
) -> VerificationReport:
    """Decode check over all demands, all keys, all t-choices, all users.

    A user sees the demands only through the broadcast's auxiliary digits
    a = D - S (mod N), so a decode depends on (a, t, user k, key digit s)
    alone and must return file (a_k + s) mod N.  Every broadcast is built,
    one per (a, t), by the real delivery, and each rebuilds its missing
    segments (`segment_values`).  The decode loop (`scheme._xor_decode`)
    reads a broadcast only through its selector and that expansion, so the
    checks are quotiented over t: the broadcasts of one a are grouped by
    equal parameters, aux digits and expansion, and each (group, k, s)
    decode runs once, subfile by subfile against the library's split.  It
    counts as one check for every t of its group, and a failing decode
    fails every one of them.  For a fixed key vector, D -> a is a
    bijection, so one check stands for the N^(K-1) tuples (D, S, t, k) with
    S_k = s, and `cases_run` counts those tuples.  Its caps (`admit`) still
    price one decode per t, the worst case, with their values unchanged.

    `mutate_delivery` taps the broadcast before it reaches the decoders;
    fault-injection tests use it to confirm that corruption is detected
    and reported with the exact failing (D, S, t, k) tuples
    (`_failing_tuples`).
    """
    n, k_users = params.num_files, params.num_users
    admit(params, "correctness")
    start = time.perf_counter()
    caches = _caches_by_key(params, files)
    deliveries = _deliveries(params, files)
    if mutate_delivery is not None:
        deliveries = {key: mutate_delivery(x) for key, x in deliveries.items()}
    # per aux digit vector, its broadcasts grouped by what a decode reads of
    # them: parameters, aux digits and segment expansion; each group is
    # [representative, its t's]
    groups: dict[tuple[int, ...], list[tuple[DeliverySignal, list[int]]]] = {}
    for (digits, t), x in deliveries.items():
        same = groups.setdefault(digits, [])
        for rep, ts in same:
            if rep.params == x.params and rep.aux == x.aux and rep.segment_values == x.segment_values:
                ts.append(t)
                break
        else:
            same.append((x, [t]))
    wanted = [list(row) for row in files.subfiles]
    checks = 0
    failed = []
    for digits, same in groups.items():
        for x, ts in same:
            for k in range(k_users):
                for s in range(n):
                    demand = (digits[k] + s) % n
                    got = _decoded_subfiles(caches[(k, s)], x, k, demand)
                    checks += len(ts)
                    if got != wanted[demand]:
                        failed.append((digits, ts, k, s, got))
    failures = _failing_tuples(params, files, failed)
    scope = f"correctness N={n} K={k_users} r={params.r} F={params.file_bits}"
    return VerificationReport(scope, checks * n ** (k_users - 1), failures, time.perf_counter() - start)


def _failing_tuples(params: SchemeParams, files: FileLibrary, failed: list[tuple]) -> list[tuple]:
    """Each failing decode (aux digits a, the t's of its broadcast group,
    user k, key digit s, decoded subfiles) as its N^(K-1) tuples (D, S, t, k)
    per t: every key vector S with S_k = s, and D = (a + S) mod N.  Sorted,
    they come in the order of a sweep over D, then S, then t, then k, each
    with (wanted, decoded) file bits, joined once per decode."""
    n = params.num_files
    out = []
    for digits, ts, k, s, got in failed:
        want = files.files[(digits[k] + s) % n].to01()
        got_bits = Bits.from_blocks(got, params.subfile_bits).to01()
        choices = [range(n)] * len(digits)
        choices[k] = (s,)
        for keys in itertools.product(*choices):
            demands = tuple((a + v) % n for a, v in zip(digits, keys))
            out += [((demands, keys, t, k), want, got_bits) for t in ts]
    out.sort(key=lambda failure: failure[0])
    return out


def _privacy(
    params: SchemeParams,
    what: str,
    masked: bool,
    spread: Callable[[int, bytes], int] | None = None,
) -> VerificationReport:
    """The one histogram check behind every privacy verdict.

    An outcome of user k is the pair of wire headers it sees, broadcast
    (d, t, length) and cache (key digit, length), from `_headers`.  For each
    user k, own demand dk and completion of the other demands, outcomes are
    weighted over every key vector and every t in the selector set
    (uniformly); the histogram must be the same for all completions.  All
    completions' weights sum to the same total, so equal integer weight
    maps mean equal distributions.  With the library fixed, each payload is
    a function of its header, the blob's prefix, so the byte histogram of
    (X_D, Z_k) is an injective image of the header histogram, and W_{D_k}
    is a constant of each (k, dk) group, so appending it for Lemma 1
    changes neither equality nor counts: the verdict holds for every
    library of the shape.  `spread(k, outcome)` says how many observable
    outcomes one header pair stands for (one if None); a failure reports
    their sum over the outcomes whose weights differ.

    Its callers have run `admit`, which serializes the widest header pair,
    so every header fits its fields.  A key vector S puts one cell
    on user k's air: the aux digits (rotation(d_j)[s_j] for every j) and
    the key digit s_k, standing for its |V| header pairs at weight 1/|V|
    each.  Over uniform keys the multiset of cells is a product over the
    coordinates: the multiset {rotation(d_j)[s] : s} for each j != k, and
    for k the pairs (rotation(d_k)[s], s), fixed by dk.  So if every
    digit's rotation holds the same multiset (the factor check, N^2 digit
    comparisons), every completion puts the same cell multiset on the air,
    and any outcome function of the cell has the same histogram: the run
    passes with the K·N^K cases the report claims, which `admit` capped,
    with no header table.  The check passes the scheme's masking, the rotation
    (d - s) mod N, and any other per-digit bijection.

    Otherwise (the unmasked control, whose rotation is the constant
    [d]·N, or a masking that is not a bijection) the completions are
    enumerated under the case cap, refused before `_headers` runs.  A
    histogram is a function of the multiset of its cells, so it is compared
    as the sorted list of their ids: equal lists hold the same weighted
    header pairs, so they have the same weights.  Only unequal lists are
    expanded into outcome-bytes -> integer weight maps; those decide the
    verdict and count the differing outcomes, so two cells whose header
    pairs collide are still judged by their bytes.
    """
    start = time.perf_counter()
    n, k_users = params.num_files, params.num_users
    # the aux digit a demand digit takes under key digits 0..N-1: masked, its
    # `_rotation`; the unmasked negative control sends the raw digit
    rotations = [_rotation(v, n) if masked else [v] * n for v in range(n)]
    control = "" if masked else " (unmasked negative control)"
    scope = f"privacy[{what}] N={n} K={k_users} r={params.r}{control}"
    # the factor check; with one user there is no other demand to compare
    if k_users == 1 or len({tuple(sorted(r)) for r in rotations}) == 1:
        return VerificationReport(scope, k_users * n**k_users, [], time.perf_counter() - start)
    _guard_enumeration(params, "privacy")
    broadcasts, caches = _headers(params)
    weight_lcm = lcm(*(len(ts) for ts in broadcasts.values()))
    vectors = _all_digit_vectors(n, k_users)
    # cell ids per aux digit vector, by key digit s; cells[id] is the cell's
    # outcomes (its selector set's header pairs) and their weight, 1/|V| each
    cells = []
    on_air = {}
    for digits, ts in broadcasts.items():
        on_air[digits] = range(len(cells), len(cells) + n)
        cells += [([x + z for x in ts.values()], weight_lcm // len(ts)) for z in caches]
    # per demand vector, what each key vector (in `vectors` order) puts on
    # the air; shared by every user and holding only references into on_air
    sent = {
        demands: list(map(on_air.__getitem__, itertools.product(*map(rotations.__getitem__, demands))))
        for demands in vectors
    }

    def weights(ids: list[int]) -> dict[bytes, int]:
        out: dict[bytes, int] = {}
        for cell, times in Counter(ids).items():
            outcomes, w = cells[cell]
            for outcome in outcomes:
                out[outcome] = out.get(outcome, 0) + times * w
        return out

    completions = _all_digit_vectors(n, k_users - 1)
    cases = 0
    failures = []
    for k in range(k_users):
        own_keys = [keys[k] for keys in vectors]
        for dk in range(n):
            reference = ref_weights = ref_completion = None
            for completion in completions:
                demands = completion[:k] + (dk,) + completion[k:]
                ids = sorted(map(getitem, sent[demands], own_keys))
                cases += 1
                if reference is None:
                    reference, ref_completion = ids, completion
                elif ids != reference:
                    if ref_weights is None:
                        ref_weights = weights(reference)
                    got = weights(ids)
                    if got != ref_weights:
                        outcomes = got.keys() | ref_weights.keys()
                        differ = [o for o in outcomes if got.get(o, 0) != ref_weights.get(o, 0)]
                        count = len(differ) if spread is None else sum(spread(k, o) for o in differ)
                        failures.append(
                            (
                                (k, dk, completion),
                                f"distribution identical to completion {ref_completion}",
                                f"{count} outcomes differ",
                            )
                        )
    return VerificationReport(scope, cases, failures, time.perf_counter() - start)


def verify_privacy(
    params: SchemeParams, mode: str = CONDITIONAL, *, masked: bool = True
) -> VerificationReport:
    """Exact distribution-equality test of the observable (X_D, Z_k).

    Conditional mode fixes the library and weighs every key and t-choice;
    it weighs wire headers alone, so it takes no library and its verdict
    holds for every library of the shape.  Full-marginal mode marginalizes over
    every 1-bit-subfile library as well, exactly and without enumerating
    them (`_privacy_marginal`), up to 512 library bits.  For every user k
    and own demand value, the histogram must be identical across all
    completions of the other demands -- exactly, as rationals.
    With masked=False the broadcast is driven by the raw demands instead
    of the key-masked ones; that variant must fail and serves as the
    negative control for the test machinery itself.
    """
    if mode not in (CONDITIONAL, "conditional", FULL_MARGINAL):
        raise ValueError(f"unknown privacy mode {mode!r}")
    admit(params, "privacy", mode)
    if mode == FULL_MARGINAL:
        return _privacy_marginal(params, masked)
    return _privacy(params, CONDITIONAL, masked)


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
    masks, 2^rank outcomes each with the same weight.  So two completions'
    distributions are equal exactly when their header weights are, and a
    differing header pair stands for 2^rank differing outcomes.  The basis
    library's tables, as wide as the library has bits (capped at 512), are
    built on the first failure only, and each rank once per (d, t, k, s).
    `admit` has capped the library bits.
    """
    total_bits = params.num_files * params.subfile_count

    @cache
    def tables() -> tuple[dict, dict, dict]:
        """Header pair -> ((d, t), s), and the basis library's broadcasts and caches."""
        broadcasts, caches = _headers(params)
        sent = [((digits, t), x) for digits, ts in broadcasts.items() for t, x in ts.items()]
        origin = {x + z: (key, s) for key, x in sent for s, z in enumerate(caches)}
        wide_params, basis, _ = _basis_library(params)
        return origin, _deliveries(wide_params, basis), _caches_by_key(wide_params, basis)

    @cache
    def spread(k: int, outcome: bytes) -> int:
        origin, deliveries, caches = tables()
        key, s = origin[outcome]
        return 1 << _gf2_rank(deliveries[key].segments + caches[(k, s)].signals)

    return _privacy(params, f"full-marginal over {1 << total_bits} libraries", masked, spread)


def verify_distribution_lemma(params: SchemeParams, *, masked: bool = True) -> VerificationReport:
    """Equality of the joint (X_D, Z_k, W_{D_k}) histogram across D_{-k}.

    Same check as conditional privacy, and it takes no library either: given
    the library, the demanded file is a function of the own demand alone, a
    constant of each histogram, so the verdict holds for every library of
    the shape, and any inequality points at the broadcast or cache leaking
    the other users' demands.
    """
    admit(params, "lemma1")
    return _privacy(params, "joint with demanded file", masked)


def oracle_demand_identity(params: SchemeParams, files: FileLibrary) -> VerificationReport:
    """Brute-force check of the selector/label file identity.

    For every auxiliary demand d, user k, and key shift: the XOR of the
    files demanded by user k under the labeled demands in d's selector
    set equals the file demanded under d (shifted), bit for bit.  Whole
    files are compared, which covers every subfile index at once.
    """
    n, k_users = params.num_files, params.num_users
    admit(params, "identities")
    start = time.perf_counter()
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
    (`CacheContent.signal_values` of the placed cache) must equal
    `reference.compute_y` at every index outside the leader block;
    vacuously passes when no such index exists (K' - N < r + 1).
    """
    n, k_users = params.num_files, params.num_users
    # the plan guard in `admit`, whose up-row cost C(K', r)*K' bounds the
    # C(K', r+1) subsets enumerated below, refuses before anything is built
    admit(params, "reconstruction")
    start = time.perf_counter()
    caches = _caches_by_key(params, files)
    # the one verifier that runs the per-element reference layer, so only
    # it compiles that module
    from .reference import compute_y, enumerate_r_subsets

    non_leader = [
        (rank, index)
        for rank, index in enumerate(enumerate_r_subsets(params.positions, params.r + 1))
        if index.members[0] >= n
    ]
    cases = 0
    failures = []
    for k in range(k_users):
        for s in range(n):
            u = yma.build_u_vector(n, k_users, k, s)
            signals = caches[(k, s)].signal_values
            for rank, index in non_leader:
                got = Bits(signals[rank], params.subfile_bits)
                want = compute_y(files, u, index)
                cases += 1
                if got != want:
                    failures.append(((k, s, index.members), want.to01(), got.to01()))
    scope = f"signal-reconstruction N={n} K={k_users} r={params.r} ({len(non_leader)} non-leader indices)"
    return VerificationReport(scope, cases, failures, time.perf_counter() - start)
