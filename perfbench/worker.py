"""One benchmark process: one workload, one seed, one fresh interpreter.

run.py starts this script as a child and reads the single JSON object it
prints.  Modes:

  --setup-only          build the inputs, time the set-up, print setup_s
  --seconds S           closed loop for about S seconds (end-to-end run)
  --fixed               the workload's fixed amount of work (trace runs);
                        add --trace to wrap privcache with tracing.py and
                        --spans FILE to write the spans out

Only `random`, `sys` and `time` are imported before set-up is timed, so
setup_s covers importing privcache, building the parameters and the
library, and (session-wire) parsing the library bytes.
"""

import random
import sys
import time

SESSION_PROFILE = (3, 5, 7)
"""Selector-set sizes of the demand rounds in one session.  A round's
cost grows with |V|, so every session plays this fixed mix (order and
members drawn from the seed) and round medians compare like with like."""

SESSIONS = {
    # name: (N, K, r, bits per subfile, copies of SESSION_PROFILE per session, wire)
    "session-mib": (4, 4, 3, 8192, 1, False),
    "session-wire": (4, 4, 3, 128, 6, True),
}
FIXED_REPEATS = {"session-mib": 2, "session-wire": 2, "exhaustive": 10}
"""Sessions or passes of a --fixed run (the traced runs)."""
MIN_REPEATS = 3
"""Sessions or passes an end-to-end run always does, whatever --seconds says."""
MAX_SESSIONS = 1000
TRADEOFF_SHA256 = "12628147764fe7fad9f7b8a2e57ad0f4fb653f4fd1e742e1c15a1479431dd380"
"""sha256 of `privcache tradeoff --k 32 --grid 1/200 --format csv`; the
rows are exact rationals, so the file never varies."""

WORKLOADS = (*SESSIONS, "exhaustive")


def _bit_reverse_table() -> bytes:
    return bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _files_from_bytes(data: bytes, num_files: int, file_bits: int) -> list[int]:
    """Oracle for the MSB-first library layout, independent of privcache."""
    total = int.from_bytes(data.translate(_bit_reverse_table()), "little")
    mask = (1 << file_bits) - 1
    return [total >> (n * file_bits) & mask for n in range(num_files)]


# ---------------------------------------------------------------- inputs


def session_library(name: str, seed: int):
    """The library as the program receives it: ints (mib) or raw bytes (wire)."""
    n, k, r, sub_bits, _, wire = SESSIONS[name]
    kp = n * k - k + 1
    from math import comb

    file_bits = comb(kp, r) * sub_bits
    rng = random.Random(f"perfbench:{name}:{seed}:library")
    if wire:
        return rng.randbytes(n * file_bits // 8), file_bits
    return [rng.getrandbits(file_bits) for _ in range(n)], file_bits


def session_plans(pc, name: str, seed: int, count: int) -> list[dict]:
    """Keys, t-seed and demand rounds of each session, all from the seed.

    Rounds are stratified by selector size: the auxiliary demand of each
    round is drawn from the vectors whose selector set has the size the
    profile asks for, then shifted by the session keys into user demands.
    """
    import itertools

    n, k, _, _, copies, _ = SESSIONS[name]
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for digits in itertools.product(range(n), repeat=k):
        size = len(pc.build_v(pc.AuxDemand(digits, n)).members)
        by_size.setdefault(size, []).append(digits)
    plans = []
    for i in range(count):
        rng = random.Random(f"perfbench:{name}:{seed}:session:{i}")
        keys = tuple(rng.randrange(n) for _ in range(k))
        sizes = list(SESSION_PROFILE) * copies
        rng.shuffle(sizes)
        rounds = []
        for size in sizes:
            aux = rng.choice(by_size[size])
            rounds.append((size, tuple((a + s) % n for a, s in zip(aux, keys))))
        plans.append({"keys": keys, "t_seed": f"perfbench-{seed}-{i}", "rounds": rounds})
    return plans


def exhaustive_calls(seed: int, csv_path: str) -> list[tuple[str, list[str], dict]]:
    """(stage, argv, expectation) of one exhaustive pass, in run order.

    Each call takes 0.05-0.3 s, so a run repeats every call many times;
    see README.md for why the instances are this small.
    """
    lib = f"perfbench-{seed}"
    verify = ["verify", "--seed", lib, "--format", "json"]
    return [
        ("correctness",
         verify + ["--suite", "correctness", "--n", "2", "--k", "3", "--r", "2"],
         {"cases": 384, "scope": "correctness N=2 K=3 r=2"}),
        ("correctness",
         verify + ["--suite", "correctness", "--n", "3", "--k", "2", "--r", "2"],
         {"cases": 342, "scope": "correctness N=3 K=2 r=2"}),
        ("privacy",
         verify + ["--suite", "privacy", "--mode", "full-marginal", "--n", "2", "--k", "3", "--r", "1"],
         {"cases": 24, "scope": "full-marginal over 256 libraries"}),
        ("privacy",
         verify + ["--suite", "lemma1", "--n", "3", "--k", "3", "--r", "2", "--subfile-bits", "8"],
         {"cases": 81, "scope": "joint with demanded file"}),
        ("tradeoff",
         ["tradeoff", "--k", "32", "--grid", "1/200", "--format", "csv", "--out", csv_path],
         {"sha256": TRADEOFF_SHA256}),
    ]


# ---------------------------------------------------------------- set-up


def setup(name: str, seed: int, src: str):
    """Time import + params + library; returns (setup_s, pc, params, files, expected_ints)."""
    if name in SESSIONS:
        library, file_bits = session_library(name, seed)
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import privcache as pc

    if name in SESSIONS:
        n, k, r, _, _, wire = SESSIONS[name]
        params = pc.SchemeParams(n, k, r, file_bits)
        if wire:
            files = pc.FileLibrary.from_bytes(params, library)
        else:
            files = pc.FileLibrary(params, tuple(pc.Bits(v, file_bits) for v in library))
        setup_s = time.perf_counter() - t0
        expected = _files_from_bytes(library, n, file_bits) if wire else library
        return setup_s, pc, params, files, expected
    import privcache.cli  # noqa: F401  (exhaustive drives the CLI)

    return time.perf_counter() - t0, pc, None, None, None


class Ledger:
    """Attempted/failed operations plus the timing samples of one process."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.witness: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)


class Calibration:
    """Fastest run, in this process, of a fixed stdlib-only kernel.

    The kernel mixes small-object churn with big-int shifts, like the
    workloads.  It is sampled between units of work throughout a run;
    run.py divides the stage metrics by its fastest time (README.md,
    "Estimators").
    """

    def __init__(self) -> None:
        self.big = random.Random(0).getrandbits(1 << 23)
        self.mask = (1 << 4096) - 1
        self.best = float("inf")

    def sample(self) -> None:
        t0 = time.perf_counter()
        table = {}
        for i in range(12000):
            table[(i, i & 7)] = i ^ 0x5A
        acc = 0
        for i in range(60):
            acc ^= (self.big >> (i * 4099)) & self.mask
        self.best = min(self.best, time.perf_counter() - t0)


class NoContext:
    """Stand-in for tracing.Tracer's context label when tracing is off."""

    ctx = ""


# ---------------------------------------------------------------- sessions


def run_session(pc, params, files, expected, plan, wire, ledger, hooks, label, cal):
    """Place all caches, then play every demand round of `plan`."""
    import hashlib

    n, k_users = params.num_files, params.num_users
    perf = time.perf_counter
    rand = pc.SessionRandomness(n, plan["keys"], seed=plan["t_seed"])
    hooks.ctx = label
    cal.sample()
    try:
        t0 = perf()
        caches = pc.place(files, params, rand)
        t1 = perf()
        blobs, parsed, wire_s = [], [], []
        if wire:
            for u, cache in enumerate(caches):
                t2 = perf()
                blobs.append(cache.to_bytes())
                parsed.append(pc.CacheContent.from_bytes(params, u, blobs[u]))
                wire_s.append(perf() - t2)
    except Exception as exc:  # recorded as failures; the run goes on
        ledger.check(False, f"{label} placement: {exc!r}")
        return
    ok = True
    for u in range(len(blobs)):
        ledger.witness.append(hashlib.sha256(blobs[u]).hexdigest())
        ok &= ledger.check(parsed[u] == caches[u], f"{label} cache {u} wire round-trip")
    if ok:  # only placements that checked out give timing samples
        ledger.add("place_call_s", t1 - t0)
        ledger.add("place_s", t1 - t0 + sum(wire_s))
        for u, took in enumerate(wire_s):
            ledger.add(f"cache{u}_wire_s", took)
    if wire:
        caches = parsed
    for i, (size, demands) in enumerate(plan["rounds"]):
        hooks.ctx = f"{label}.r{i}"
        cal.sample()
        try:
            t0 = perf()
            d = pc.aux_demand(demands, rand.keys, n)
            x = pc.assemble_delivery(files, d, rand)
            if wire:
                blob = x.to_bytes()
                received = pc.DeliverySignal.from_bytes(params, blob)
            else:
                received = x
            t1 = perf()
            got = [pc.decode(caches[u], received, u, demands[u]) for u in range(k_users)]
            t2 = perf()
        except Exception as exc:
            ledger.check(False, f"{label} round {i} {demands}: {exc!r}")
            continue
        ok = True
        if wire:
            ledger.witness.append(hashlib.sha256(blob).hexdigest())
            ok &= ledger.check(received == x, f"{label} round {i} broadcast wire round-trip")
        for u in range(k_users):
            want = expected[demands[u]]
            same = got[u].length == params.file_bits and got[u].value == want
            ok &= ledger.check(same, f"{label} round {i} user {u} decode of file {demands[u]}")
        if ok:  # only rounds that checked out give timing samples
            ledger.add("round_s", t2 - t0)
            ledger.add("decode_s", t2 - t1)
            ledger.add("round_v", size)


def another(done: int, start: float, seconds, fixed: int) -> bool:
    """Whether to start one more session or pass.

    A --fixed run does exactly `fixed`; an end-to-end run does at least
    MIN_REPEATS and then goes on while the mean so far says the next one
    ends within `seconds`.
    """
    if seconds is None:
        return done < fixed
    elapsed = time.perf_counter() - start
    return done < MIN_REPEATS or elapsed + elapsed / done <= seconds


def run_sessions(pc, name, seed, params, files, expected, seconds, ledger, hooks, cal):
    wire = SESSIONS[name][5]
    plans = session_plans(pc, name, seed, FIXED_REPEATS[name] if seconds is None else MAX_SESSIONS)
    for u, want in enumerate(expected):
        ledger.check(files.files[u].value == want, f"library file {u}")
    start = time.perf_counter()
    for i, plan in enumerate(plans):
        if not another(i, start, seconds, len(plans)):
            break
        run_session(pc, params, files, expected, plan, wire, ledger, hooks, f"s{i}", cal)


# ---------------------------------------------------------------- exhaustive


def run_exhaustive(pc, seed, seconds, ledger, hooks, cal, out_dir):
    import contextlib
    import hashlib
    import io
    import json
    import os

    csv_path = os.path.join(out_dir, f"tradeoff-{os.getpid()}.csv")
    perf = time.perf_counter
    start = perf()
    passes = 0
    while another(passes, start, seconds, FIXED_REPEATS["exhaustive"]):
        cal.sample()
        for j, (stage, argv, want) in enumerate(exhaustive_calls(seed, csv_path)):
            hooks.ctx = f"p{passes}.{stage}"
            out = io.StringIO()
            try:
                t0 = perf()
                with contextlib.redirect_stdout(out):
                    code = pc.cli.main(argv)
                took = perf() - t0
            except (Exception, SystemExit) as exc:
                ledger.check(False, f"{' '.join(argv)}: {exc!r}")
                continue
            ok = code == 0
            if ok and stage == "tradeoff":
                with open(csv_path, "rb") as fh:
                    ok = hashlib.sha256(fh.read()).hexdigest() == want["sha256"]
                os.remove(csv_path)
            elif ok:
                try:
                    (report,) = json.loads(out.getvalue())
                    ok = (report["passed"] and report["cases_run"] == want["cases"]
                          and want["scope"] in report["scope"])
                except (ValueError, KeyError, TypeError):
                    ok = False
            if ledger.check(ok, f"privcache {' '.join(argv)} (exit {code})"):
                ledger.add(f"call{j}_s", took)  # failed calls give no sample
        passes += 1


# ---------------------------------------------------------------- main


def main(argv: list[str]) -> int:
    import argparse

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True, help="checkout root (holds src/privcache)")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--fixed", action="store_true")
    p.add_argument("--trace", action="store_true", help="wrap privcache with tracing.py")
    p.add_argument("--spans", default=None, help="with --trace: write the spans here")
    p.add_argument("--out-dir", required=True, help="directory for scratch and witness files")
    args = p.parse_args(argv)

    import os

    src = os.path.join(args.root, "src")
    setup_s, pc, params, files, expected = setup(args.workload, args.seed, src)
    if not os.path.abspath(pc.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"privcache imported from {pc.__file__}, not from {src}", file=sys.stderr)
        return 2

    import json
    import resource

    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    ledger = Ledger()
    cal = Calibration()
    tracer = hooks = NoContext()
    if args.trace:
        import tracing

        tracer = hooks = tracing.Tracer()
        tracer.install()
    t0 = time.perf_counter()
    try:
        if args.workload in SESSIONS:
            run_sessions(pc, args.workload, args.seed, params, files, expected,
                         args.seconds, ledger, hooks, cal)
        else:
            run_exhaustive(pc, args.seed, args.seconds, ledger, hooks, cal, args.out_dir)
    finally:
        work_s = time.perf_counter() - t0
        if args.trace:
            tracer.uninstall()
    result.update(
        work_s=work_s,
        attempted=ledger.attempted,
        failed=ledger.failed,
        errors=ledger.errors,
        samples=ledger.samples,
        calibration_s=cal.best,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if args.workload in SESSIONS and SESSIONS[args.workload][5]:
        result["witness"] = ledger.witness
    if args.trace:
        result["trace"] = tracer.report()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
