"""privcache benchmark: end-to-end metrics, or a traced per-layer breakdown.

    python3 perfbench/run.py --workload session-mib --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

Run from the root of a checkout; privcache is imported from its `src/`.
Each workload runs in fresh single-threaded child processes (worker.py),
one at a time, as a closed loop with one caller.  With --trace 0 the run
times the workload for about --seconds and prints the end-to-end
metrics; with --trace 1 it runs the workload's fixed work three times
(untraced, traced, traced again) and prints the per-layer metrics, the
tracing overhead, and whether the two traced runs counted the same.
Human-readable lines come first; the last line is one JSON object.
See README.md in this directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 16
"""Extra set-up-only processes per end-to-end run, half before and half
after the main one; setup_s is the median of these and the main
process's own set-up."""
CALIBRATION_REF_S = 0.016
"""The calibration kernel's fastest time on the host where README.md's
baseline was recorded; stage metrics are scaled to that speed."""
TIME_LIMIT_S = 170
"""Per workload in the run, children included."""

END_TO_END = {
    # metric: unit; README.md says what stage1..3 are on each workload
    "setup_s": "s",
    "stage1_s": "s",
    "stage2_s": "s",
    "stage3_s": "s",
    "peak_rss_mib": "MiB",
}
TRACE_METRICS = {
    # metric: unit, on top of tracing.METRICS
    "trace.overhead_ratio": "ratio",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.bench_self_s": "s",
    "trace.count_mismatches": "count",
    "trace.absent_targets": "count",
}


class ChildFailed(RuntimeError):
    pass


def child(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return its JSON result."""
    timeout = max(1.0, deadline - time.monotonic())
    cmd = [sys.executable, WORKER, "--root", ROOT, "--out-dir", OUT, *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{' '.join(args)}: no result within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(args)}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        raise ChildFailed(f"{' '.join(args)}: unreadable result {proc.stdout[-500:]!r}") from exc


def spread(samples: list[float]) -> str:
    """Median, plus the highest percentile with at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.6f} of {n}"
    if n >= 20:
        q = 100 * (n - 10) // n
        text += f", p{q} {ordered[math.ceil(q * n / 100) - 1]:.6f}"
    return text


def stage_metrics(name: str, seed: int, samples: dict) -> tuple[dict, list]:
    """stage1_s..stage3_s from one run's samples, plus the lines to print.

    Each stage is built from the fastest sample of each short unit of
    work it consists of (README.md, "Estimators").
    """
    rows = []
    if name in worker.SESSIONS:
        wire = sorted(k for k in samples if k.startswith("cache") and k.endswith("_wire_s"))
        stage1 = min(samples["place_call_s"]) + sum(min(samples[k]) for k in wire)
        metrics = {
            "stage1_s": stage1,
            "stage2_s": fastest_mix(samples["round_s"], samples["round_v"]),
            "stage3_s": fastest_mix(samples["decode_s"], samples["round_v"]),
        }
        parts = "place()" + (f" + {len(wire)} cache wire round-trips" if wire else "")
        for label, key, metric, how in (
            ("place_s", "place_s", "stage1_s", f"fastest {parts}"),
            ("round_p50_s", "round_s", "stage2_s", "fastest round per |V|, mean over the mix"),
            ("decode_p50_s", "decode_s", "stage3_s", "fastest decode per |V|, mean over the mix"),
        ):
            rows.append((label, f"{statistics.median(samples[key]):.6f}", "s",
                         f"{spread(samples[key])}; {how} {metrics[metric]:.6f}, scaled below -> {metric}"))
        return metrics, rows
    calls = worker.exhaustive_calls(seed, "<csv>")
    metrics = {}
    for i, stage in enumerate(("correctness", "privacy", "tradeoff"), start=1):
        value = 0.0
        for j, (name_j, argv, _) in enumerate(calls):
            if name_j == stage:
                value += min(samples[f"call{j}_s"])
                rows.append((f"  {shown(argv)}",
                             f"{statistics.median(samples[f'call{j}_s']):.6f}", "s",
                             f"{spread(samples[f'call{j}_s'])}; fastest {min(samples[f'call{j}_s']):.6f}"))
        metrics[f"stage{i}_s"] = value
        rows.append((f"{stage}_s", f"{value:.6f}", "s",
                     f"sum of the fastest calls above, scaled below -> stage{i}_s"))
        if stage == "correctness":
            cases = sum(want["cases"] for name_j, _, want in calls if name_j == stage)
            rows.append(("correctness_cases_per_s", f"{cases / value:.2f}", "1/s",
                         f"{cases} cases per pass / correctness_s"))
    return metrics, rows


def shown(argv: list[str]) -> str:
    """A CLI call without its --seed, --format and --out flags."""
    kept = [a for i, a in enumerate(argv)
            if a not in ("--seed", "--format", "--out")
            and (i == 0 or argv[i - 1] not in ("--seed", "--format", "--out"))]
    return " ".join(kept)


def fastest_mix(times: list[float], sizes: list[int]) -> float:
    """Fastest round of each selector size, averaged over the session profile."""
    best: dict[int, float] = {}
    for took, size in zip(times, sizes):
        best[size] = min(took, best.get(size, took))
    return statistics.fmean(best[size] for size in worker.SESSION_PROFILE if size in best)


def line(name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:<36} {value:>14} {unit:<6} {note}")


def witness_lines(name: str, seed: int, blobs: list[str]) -> None:
    """sha256 of every cache and broadcast blob, for byte-identity review."""
    _, k, _, _, copies, _ = worker.SESSIONS[name]
    first = k + len(worker.SESSION_PROFILE) * copies
    path = os.path.join(OUT, f"wire-{name}-seed{seed}.txt")
    with open(path, "w") as fh:
        fh.write("\n".join(blobs) + "\n")
    digest = hashlib.sha256("".join(blobs[:first]).encode()).hexdigest()
    print(f"  wire witness (information only): session 0, {first} blobs, sha256 {digest}")
    print(f"  all {len(blobs)} blob digests in {os.path.relpath(path, ROOT)}")


def end_to_end(name: str, seed: int, seconds: float, deadline: float) -> dict:
    base = ["--workload", name, "--seed", str(seed)]
    probe = base + ["--setup-only"]
    setups = [child(probe, deadline)["setup_s"] for _ in range(SETUP_PROBES // 2)]
    main = child(base + ["--seconds", str(seconds)], deadline)
    setups.append(main["setup_s"])
    setups += [child(probe, deadline)["setup_s"] for _ in range(SETUP_PROBES // 2)]
    samples = main["samples"]
    try:
        metrics, rows = stage_metrics(name, seed, samples)
    except (KeyError, ValueError) as exc:  # a stage with no successful sample
        raise ChildFailed(f"{name}: no timing samples for {exc}: {main['errors']}") from exc
    scale = CALIBRATION_REF_S / main["calibration_s"]
    for metric in ("stage1_s", "stage2_s", "stage3_s"):
        metrics[metric] *= scale
    metrics.update(setup_s=statistics.median(setups), peak_rss_mib=main["peak_rss_mib"])

    print(f"{name} seed={seed} seconds={seconds}: closed loop, one caller, one process")
    line("setup_s", f"{metrics['setup_s']:.6f}", "s", spread(setups) + " -> setup_s")
    for label, value, unit, note in rows:
        line(label, value, unit, note)
    line("calibration kernel", f"{main['calibration_s'] * 1e3:.4f}", "ms",
         f"fastest; stage*_s above are scaled by {scale:.4f} to the reference {CALIBRATION_REF_S * 1e3:g} ms")
    line("peak_rss_mib", f"{metrics['peak_rss_mib']:.3f}", "MiB", "ru_maxrss of the workload process")
    ratio = main["failed"] / main["attempted"] if main["attempted"] else 1.0
    line("failed_ratio", f"{ratio:.6f}", "ratio", f"{main['failed']} of {main['attempted']} operations")
    for err in main["errors"]:
        print(f"  FAILED: {err}")
    if "witness" in main:
        witness_lines(name, seed, main["witness"])
    return {
        "correct": main["failed"] == 0 and main["attempted"] > 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {m: {"value": metrics[m], "unit": END_TO_END[m]} for m in END_TO_END},
    }


def traced(name: str, seed: int, deadline: float) -> dict:
    import tracing

    base = ["--workload", name, "--seed", str(seed), "--fixed"]
    plain = child(base, deadline)
    spans = os.path.join(OUT, f"spans-{name}-seed{seed}.csv.gz")
    first = child(base + ["--trace", "--spans", spans], deadline)
    second = child(base + ["--trace"], deadline)

    one, two = first["trace"]["metrics"], second["trace"]["metrics"]
    counted = [m for m, unit in tracing.METRICS.items() if unit in ("count", "bytes", "ratio")]
    mismatched = [m for m in counted if one[m] != two[m]]
    if first["attempted"] != second["attempted"]:
        mismatched.append("attempted")
    untraced_s, traced_s = plain["work_s"], first["work_s"]
    metrics = dict(one)
    metrics.update({
        "trace.overhead_ratio": (traced_s - untraced_s) / untraced_s,
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.bench_self_s": first["trace"]["bench_self_s"],
        "trace.count_mismatches": len(mismatched),
        "trace.absent_targets": len(first["trace"]["absent"]),
    })

    print(f"{name} seed={seed}: fixed work, traced per-layer breakdown")
    layer_sum = 0.0
    for layer in tracing.LAYERS:
        value = metrics[f"{layer}.self_s"]
        layer_sum += value
        line(f"{layer}.self_s", f"{value:.6f}", "s", f"{value / traced_s:6.1%} of traced")
    line("benchmark's own code", f"{metrics['trace.bench_self_s']:.6f}", "s",
         f"{metrics['trace.bench_self_s'] / traced_s:6.1%} of traced (checks, loop)")
    line("sum of layer self times", f"{layer_sum:.6f}", "s")
    line("traced total", f"{traced_s:.6f}", "s", "= layers + benchmark's own code")
    line("untraced total", f"{untraced_s:.6f}", "s", "same work, no wrappers")
    line("trace.overhead_ratio", f"{metrics['trace.overhead_ratio']:.4f}", "ratio")
    for metric, unit in tracing.METRICS.items():
        if unit != "s" and not metric.endswith("self_s"):
            line(metric, f"{metrics[metric]:g}", unit)
    print(f"  steadiness: second traced run counted {'the same' if not mismatched else 'DIFFERENTLY: ' + ', '.join(mismatched)}")
    for target in first["trace"]["absent"]:
        print(f"  absent: {target}")
    print(f"  spans in {os.path.relpath(spans, ROOT)}")
    failed = plain["failed"] + first["failed"] + second["failed"]
    for err in plain["errors"] + first["errors"] + second["errors"]:
        print(f"  FAILED: {err}")
    if "witness" in plain:
        witness_lines(name, seed, plain["witness"])
    units = dict(tracing.METRICS, **TRACE_METRICS)
    return {
        "correct": failed == 0 and not mismatched,
        "attempted": plain["attempted"] + first["attempted"] + second["attempted"],
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*worker.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time per end-to-end run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "privcache", "__init__.py")):
        print(f"no privcache sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = worker.WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    results = {}
    try:
        for name in names:
            if args.trace:
                results[name] = traced(name, args.seed, deadline)
            else:
                results[name] = end_to_end(name, args.seed, args.seconds, deadline)
            if len(names) > 1:
                print(json.dumps(results[name]))
    except ChildFailed as exc:
        print(f"benchmark process failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
