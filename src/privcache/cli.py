"""Command-line surface: params, simulate, verify, tradeoff.

Exit codes are a stable contract: 0 on success, 1 on a verification or
decode failure, 2 on usage errors.  All randomness derives from --seed,
so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import verify as verify_mod
from .scheme import (
    FileLibrary,
    SchemeParams,
    SessionRandomness,
    assemble_delivery,
    aux_demand,
    decode,
    memory_rate_of,
    place,
)
from .tradeoff import tightness_report

SUITES = ("correctness", "privacy", "lemma1", "identities", "reconstruction", "all")


def _fmt(fr: Fraction) -> str:
    return str(fr)


def _add_instance_flags(p: argparse.ArgumentParser, need_r: bool = True) -> None:
    p.add_argument("--n", type=int, required=True, help="number of files (N >= 2)")
    p.add_argument("--k", type=int, required=True, help="number of users (K >= 1)")
    p.add_argument("--r", type=int, required=need_r, help="split parameter in [0, N*K-K+1]")
    p.add_argument("--f", type=int, default=None, help="file length in bits (default: minimal)")
    p.add_argument(
        "--subfile-bits", type=int, default=1,
        help="bits per subfile when --f is not given (default 1)",
    )


def _params_from(args, parser: argparse.ArgumentParser) -> SchemeParams:
    try:
        if args.f is not None:
            return SchemeParams(args.n, args.k, args.r, args.f)
        return SchemeParams.minimal(args.n, args.k, args.r, args.subfile_bits)
    except ValueError as exc:
        parser.error(str(exc))


def _load_library(args, params: SchemeParams, parser: argparse.ArgumentParser) -> tuple[FileLibrary, str]:
    if args.library:
        path = Path(args.library)
        sidecar = path.with_name(path.name + ".json")
        try:
            meta = json.loads(sidecar.read_text())
            if meta["N"] != params.num_files or meta["F"] != params.file_bits:
                parser.error(
                    f"library sidecar says N={meta['N']} F={meta['F']}, "
                    f"but the run uses N={params.num_files} F={params.file_bits}"
                )
            files = FileLibrary.from_bytes(params, path.read_bytes())
        except (OSError, ValueError, KeyError) as exc:
            parser.error(f"cannot load library {path}: {exc}")
        return files, f"file {path}"
    rng = random.Random(f"{args.seed}:library")
    return FileLibrary.random(params, rng), f"seeded ({args.seed})"


def cmd_params(args, parser) -> int:
    params = _params_from(args, parser)
    point = memory_rate_of(params)
    # M and R in units of subfiles; both are exact integers
    stored = int(point.memory * params.subfile_count)
    segments = int(point.rate * params.subfile_count)
    info = {
        "N": params.num_files,
        "K": params.num_users,
        "r": params.r,
        "F": params.file_bits,
        "positions": params.positions,
        "subfiles_per_file": params.subfile_count,
        "subfile_bits": params.subfile_bits,
        "stored_signals_per_user": stored,
        "broadcast_segments": segments,
        "M": _fmt(point.memory),
        "M_float": float(point.memory),
        "R": _fmt(point.rate),
        "R_float": float(point.rate),
        "cache_payload_bits": stored * params.subfile_bits,
        "delivery_payload_bits": segments * params.subfile_bits,
    }
    if args.format == "json":
        print(json.dumps(info, indent=2))
    else:
        print(f"N={info['N']} K={info['K']} r={info['r']} F={info['F']}")
        print(f"positions (K')          : {info['positions']}")
        print(f"subfiles per file       : {info['subfiles_per_file']}")
        print(f"subfile bits            : {info['subfile_bits']}")
        print(f"stored signals per user : {info['stored_signals_per_user']}")
        print(f"broadcast segments      : {info['broadcast_segments']}")
        print(f"M = {info['M']}  ({info['M_float']:.6f})")
        print(f"R = {info['R']}  ({info['R_float']:.6f})")
        print(f"cache payload bits      : {info['cache_payload_bits']} (= M*F)")
        print(f"delivery payload bits   : {info['delivery_payload_bits']} (= R*F)")
    return 0


def cmd_simulate(args, parser) -> int:
    params = _params_from(args, parser)
    n, k_users = params.num_files, params.num_users
    files, origin = _load_library(args, params, parser)
    if args.demands:
        try:
            demands = tuple(int(tok) for tok in args.demands.split(","))
        except ValueError:
            parser.error(f"cannot parse --demands {args.demands!r}")
        if len(demands) != k_users or any(not 0 <= d < n for d in demands):
            parser.error(
                f"--demands needs {k_users} digits in [0, {n}), got {args.demands!r}"
            )
    else:
        rng = random.Random(f"{args.seed}:demands")
        demands = tuple(rng.randrange(n) for _ in range(k_users))

    rand = SessionRandomness.from_seed(params, args.seed)
    caches = place(files, params, rand)
    point = memory_rate_of(params)

    print(f"simulate N={n} K={k_users} r={params.r} F={params.file_bits} seed={args.seed}")
    print(f"library: {origin}")
    print(f"demands: {','.join(map(str, demands))}")
    print(f"keys:    {','.join(map(str, rand.keys))}")
    cache_bits = {cache.payload_bits for cache in caches}
    print(
        f"placement: {k_users} caches, payload {sorted(cache_bits)[0]} bits each "
        f"(M*F = {_fmt(point.memory * params.file_bits)})"
    )
    d = aux_demand(demands, rand.keys, n)
    x = assemble_delivery(files, d, rand)
    print(f"auxiliary demand: {','.join(map(str, d.digits))}  t={x.t_d}")
    print(
        f"delivery payload: {x.payload_bits} bits "
        f"(R*F = {_fmt(point.rate * params.file_bits)})"
    )
    ok = 0
    for k in range(k_users):
        got = decode(caches[k], x, k, demands[k])
        hit = got == files.files[demands[k]]
        ok += hit
        print(f"user {k}: demand {demands[k]} -> {'ok' if hit else 'MISMATCH'}")
    print(f"decoded {ok}/{k_users} users")
    return 0 if ok == k_users else 1


def cmd_verify(args, parser) -> int:
    params = _params_from(args, parser)
    rng = random.Random(f"{args.seed}:library")
    files = FileLibrary.random(params, rng)
    suites = SUITES[:-1] if args.suite == "all" else (args.suite,)
    reports = []
    try:
        for suite in suites:
            if suite == "correctness":
                reports.append(verify_mod.verify_correctness_exhaustive(params, files))
            elif suite == "privacy":
                fl = None if args.mode == verify_mod.FULL_MARGINAL else files
                reports.append(verify_mod.verify_privacy(params, args.mode, fl))
            elif suite == "lemma1":
                reports.append(verify_mod.verify_distribution_lemma(params, files))
            elif suite == "identities":
                reports.append(verify_mod.oracle_demand_identity(params, files))
            elif suite == "reconstruction":
                reports.append(verify_mod.oracle_y_reconstruction(params, files))
    except verify_mod.ScaleLimitError as exc:
        parser.error(str(exc))
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for report in reports:
            print(report.describe())
    return 0 if all(r.passed for r in reports) else 1


def cmd_tradeoff(args, parser) -> int:
    if args.k < 2:
        parser.error("tradeoff needs --k >= 2 (two-file converse machinery)")
    try:
        step = Fraction(args.grid)
        rows = tightness_report(args.k, step)
    except (ValueError, ZeroDivisionError) as exc:
        parser.error(f"bad --grid {args.grid!r}: {exc}")
    lines: list[str]
    if args.format == "csv":
        lines = ["M,R_ach,R_conv,tight"]
        lines += [
            f"{_fmt(r.memory)},{_fmt(r.achievable)},{_fmt(r.converse)},"
            f"{'true' if r.tight else 'false'}"
            for r in rows
        ]
    elif args.format == "json":
        lines = [
            json.dumps(
                [
                    {
                        "M": _fmt(r.memory),
                        "M_float": float(r.memory),
                        "R_ach": _fmt(r.achievable),
                        "R_ach_float": float(r.achievable),
                        "R_conv": _fmt(r.converse),
                        "R_conv_float": float(r.converse),
                        "tight": r.tight,
                    }
                    for r in rows
                ],
                indent=2,
            )
        ]
    else:
        lines = [f"{'M':>10} {'R_ach':>10} {'R_conv':>10} tight"]
        lines += [
            f"{_fmt(r.memory):>10} {_fmt(r.achievable):>10} {_fmt(r.converse):>10} "
            f"{'yes' if r.tight else 'no'}"
            for r in rows
        ]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privcache",
        description="Demand-private coded caching: simulation, verification, tradeoff region",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="print exact (M, R) and size accounting")
    _add_instance_flags(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("simulate", help="run one placement/delivery/decode session")
    _add_instance_flags(p)
    p.add_argument("--seed", default="0", help="session seed (default 0)")
    p.add_argument("--demands", default=None, help="comma-separated demand digits")
    p.add_argument("--library", default=None, help="raw library file (with .json sidecar)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run exhaustive verification suites")
    p.add_argument("--suite", choices=SUITES, default="all")
    _add_instance_flags(p)
    p.add_argument("--seed", default="0", help="library seed (default 0)")
    p.add_argument(
        "--mode",
        choices=(verify_mod.CONDITIONAL, "conditional", verify_mod.FULL_MARGINAL),
        default=verify_mod.CONDITIONAL,
        help="privacy flavor (default conditional-on-files)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tradeoff", help="emit achievable vs converse rows over [0, 2]")
    p.add_argument("--k", type=int, required=True, help="number of users (K >= 2)")
    p.add_argument("--grid", default="1/100", help="grid step as a fraction (default 1/100)")
    p.add_argument("--format", choices=("csv", "json", "text"), default="csv")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.set_defaults(func=cmd_tradeoff)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
