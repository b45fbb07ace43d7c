"""Command-line surface: params, simulate, verify, tradeoff.

Exit codes are a stable contract: 0 on success, 1 on a verification or
decode failure, 2 on usage errors.  All randomness derives from --seed,
so identical invocations produce byte-identical output.  `tradeoff` prints
each value as `tradeoff.ratio_text` writes it from the walk's integer
pair, as `str(Fraction)` would (`n` or `n/d`), and the pair's `n / d` as
each JSON float.  Each command imports its own layer when it runs, so
importing this module loads no other package module.  `main` builds only
the invoked command's parser, named `privcache <command>`, so argparse's
errors and a command's own usage errors both print that command's usage.
An argv that does not start with a command meets the top-level parser,
which prints help or exits 2 and runs no command.
"""

from __future__ import annotations

import argparse
import sys

SUITES = ("correctness", "privacy", "lemma1", "identities", "reconstruction", "all")
# `verify.CONDITIONAL`, its short alias and `verify.FULL_MARGINAL`, spelled
# out so that parsing loads no verifier
MODES = ("conditional-on-files", "conditional", "full-marginal")


def _add_instance_flags(p: argparse.ArgumentParser, need_r: bool = True) -> None:
    p.add_argument("--n", type=int, required=True, help="number of files (N >= 2)")
    p.add_argument("--k", type=int, required=True, help="number of users (K >= 1)")
    p.add_argument("--r", type=int, required=need_r, help="split parameter in [0, N*K-K+1]")
    p.add_argument("--f", type=int, default=None, help="file length in bits (default: minimal)")
    p.add_argument(
        "--subfile-bits", type=int, default=1,
        help="bits per subfile when --f is not given (default 1)",
    )


def _params_from(args, parser: argparse.ArgumentParser):
    from .scheme import SchemeParams

    try:
        if args.f is not None:
            return SchemeParams(args.n, args.k, args.r, args.f)
        return SchemeParams.minimal(args.n, args.k, args.r, args.subfile_bits)
    except ValueError as exc:
        parser.error(str(exc))


def _load_library(args, params, parser: argparse.ArgumentParser):
    if args.library is not None:
        import json
        from pathlib import Path

        from .scheme import FileLibrary

        path = Path(args.library)
        try:  # an empty path has no name to put a sidecar beside
            sidecar = path.with_name(path.name + ".json")
            meta = json.loads(sidecar.read_text())
            if not isinstance(meta, dict):
                parser.error(f"library sidecar {sidecar} is not a JSON object")
            if meta["N"] != params.num_files or meta["F"] != params.file_bits:
                parser.error(
                    f"library sidecar says N={meta['N']} F={meta['F']}, "
                    f"but the run uses N={params.num_files} F={params.file_bits}"
                )
            files = FileLibrary.from_bytes(params, path.read_bytes())
        except (OSError, ValueError, KeyError) as exc:
            parser.error(f"cannot load library {path}: {exc}")
        return files, f"file {path}"
    return _random_library(params, args.seed), f"seeded ({args.seed})"


def _random_library(params, seed: str):
    """The seeded library; a draw too long for the generator raises `ScaleLimitError`."""
    import random

    from .scheme import FileLibrary

    return FileLibrary.random(params, random.Random(f"{seed}:library"))


def cmd_params(args, parser) -> int:
    from .scheme import memory_rate_of

    params = _params_from(args, parser)
    point = memory_rate_of(params)
    info = {
        "N": params.num_files,
        "K": params.num_users,
        "r": params.r,
        "F": params.file_bits,
        "positions": params.positions,
        "subfiles_per_file": params.subfile_count,
        "subfile_bits": params.subfile_bits,
        "stored_signals_per_user": params.counts[1],
        "broadcast_segments": params.num_files * params.counts[3],
        "M": str(point.memory),
        "M_float": float(point.memory),
        "R": str(point.rate),
        "R_float": float(point.rate),
        "cache_payload_bits": params.cache_payload_bits,
        "delivery_payload_bits": params.delivery_payload_bits,
    }
    for name, value in info.items():
        try:  # Python prints no int of more than `sys.get_int_max_str_digits()` digits
            str(value)
        except ValueError:
            parser.error(f"{name} has too many decimal digits to print ({value.bit_length()} bits)")
    if args.format == "json":
        import json
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
    from .scheme import ScaleLimitError, SessionRandomness, assemble_delivery, aux_demand, decode, place

    params = _params_from(args, parser)
    n, k_users = params.num_files, params.num_users
    try:  # the plan's size guard, then the draw's limit, refuse the instance before any bit or digit is drawn
        params.plan
        files, origin = _load_library(args, params, parser)
    except ScaleLimitError as exc:
        parser.error(str(exc))
    if args.demands is not None:
        tokens = args.demands.split(",")
        try:
            demands = tuple(int(tok) for tok in tokens)
        except ValueError:
            demands = None
        if demands is None or list(map(str, demands)) != tokens:  # canonical digits only
            parser.error(f"cannot parse --demands {args.demands!r}")
        if len(demands) != k_users or any(not 0 <= d < n for d in demands):
            parser.error(
                f"--demands needs {k_users} digits in [0, {n}), got {args.demands!r}"
            )
    else:
        import random
        rng = random.Random(f"{args.seed}:demands")
        demands = tuple(rng.randrange(n) for _ in range(k_users))

    rand = SessionRandomness.from_seed(params, args.seed)
    caches = place(files, params, rand)

    print(f"simulate N={n} K={k_users} r={params.r} F={params.file_bits} seed={args.seed}")
    print(f"library: {origin}")
    print(f"demands: {','.join(map(str, demands))}")
    print(f"keys:    {','.join(map(str, rand.keys))}")
    cache_bits = params.cache_payload_bits  # every cache's `payload_bits`, which its constructor checks
    print(f"placement: {k_users} caches, payload {cache_bits} bits each (M*F = {cache_bits})")
    d = aux_demand(demands, rand.keys, n)
    x = assemble_delivery(files, d, rand)
    print(f"auxiliary demand: {','.join(map(str, d.digits))}  t={x.t_d}")
    print(f"delivery payload: {x.payload_bits} bits (R*F = {params.delivery_payload_bits})")
    ok = 0
    for k in range(k_users):
        got = decode(caches[k], x, k, demands[k])
        hit = got == files.files[demands[k]]
        ok += hit
        print(f"user {k}: demand {demands[k]} -> {'ok' if hit else 'MISMATCH'}")
    print(f"decoded {ok}/{k_users} users")
    return 0 if ok == k_users else 1


def cmd_verify(args, parser) -> int:
    from . import verify

    params = _params_from(args, parser)
    suites = SUITES[:-1] if args.suite == "all" else (args.suite,)
    try:  # every selected suite is priced, in `SUITES` order, before any runs or a bit is drawn
        reads_library = [verify.admit(params, suite, args.mode) for suite in suites]
    except verify.ScaleLimitError as exc:
        parser.error(str(exc))
    # a library is drawn once, and only for the suites that read one
    files = _random_library(params, args.seed) if any(reads_library) else None
    runs = {  # each engine is read off the module when it runs
        "correctness": lambda: verify.verify_correctness_exhaustive(params, files),
        "privacy": lambda: verify.verify_privacy(params, args.mode),
        "lemma1": lambda: verify.verify_distribution_lemma(params),
        "identities": lambda: verify.oracle_demand_identity(params, files),
        "reconstruction": lambda: verify.oracle_y_reconstruction(params, files),
    }
    reports = [runs[suite]() for suite in suites]
    if args.format == "json":
        import json
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for report in reports:
            print(report.describe())
    return 0 if all(r.passed for r in reports) else 1


def cmd_tradeoff(args, parser) -> int:
    from .tradeoff import grid_step_fraction, ratio_text, tightness_rows

    if args.k < 2:
        parser.error("tradeoff needs --k >= 2 (two-file converse machinery)")
    try:
        step = grid_step_fraction(args.grid)
    except (ValueError, ZeroDivisionError) as exc:
        parser.error(f"bad --grid {args.grid!r}: {exc}")
    if args.format == "json":  # the float of each unreduced pair, correctly rounded
        def value(num, den):
            return ratio_text(num, den), num / den
    else:
        value = ratio_text
    try:
        rows = tightness_rows(args.k, step, value)
    except ValueError as exc:
        parser.error(str(exc))
    lines: list[str]
    if args.format == "csv":
        lines = ["M,R_ach,R_conv,tight"]
        lines += [f"{m},{ach},{conv},{'true' if tight else 'false'}" for m, ach, conv, tight in rows]
    elif args.format == "json":  # `json.dumps(row dicts, indent=2)`, written directly
        items = [
            f'  {{\n    "M": "{m[0]}",\n    "M_float": {m[1]!r},\n'
            f'    "R_ach": "{ach[0]}",\n    "R_ach_float": {ach[1]!r},\n'
            f'    "R_conv": "{conv[0]}",\n    "R_conv_float": {conv[1]!r},\n'
            f'    "tight": {"true" if tight else "false"}\n  }}'
            for m, ach, conv, tight in rows
        ]
        lines = ["[\n" + ",\n".join(items) + "\n]"]
    else:
        lines = [f"{'M':>10} {'R_ach':>10} {'R_conv':>10} tight"]
        lines += [f"{m:>10} {ach:>10} {conv:>10} {'yes' if tight else 'no'}" for m, ach, conv, tight in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            parser.error(f"cannot write --out {args.out}: {exc}")
    else:
        sys.stdout.write(text)
    return 0


def _params_arguments(p: argparse.ArgumentParser) -> None:
    _add_instance_flags(p)
    p.add_argument("--format", choices=("text", "json"), default="text")


def _simulate_arguments(p: argparse.ArgumentParser) -> None:
    _add_instance_flags(p)
    p.add_argument("--seed", default="0", help="session seed (default 0)")
    p.add_argument("--demands", default=None, help="comma-separated demand digits")
    p.add_argument("--library", default=None, help="raw library file (with .json sidecar)")


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--suite", choices=SUITES, default="all")
    _add_instance_flags(p)
    p.add_argument("--seed", default="0", help="library seed (default 0)")
    p.add_argument(
        "--mode", choices=MODES, default=MODES[0], help="privacy flavor (default conditional-on-files)"
    )
    p.add_argument("--format", choices=("text", "json"), default="text")


def _tradeoff_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True, help="number of users (2 <= K <= 1000)")
    p.add_argument("--grid", default="1/100", help="grid step as a fraction (default 1/100)")
    p.add_argument("--format", choices=("csv", "json", "text"), default="csv")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")


def _commands() -> dict:
    """Each command's help line, argument adder and handler.  Built on every
    call, so a handler patched on this module is the one that runs."""
    return {
        "params": ("print exact (M, R) and size accounting", _params_arguments, cmd_params),
        "simulate": ("run one placement/delivery/decode session", _simulate_arguments, cmd_simulate),
        "verify": ("run exhaustive verification suites", _verify_arguments, cmd_verify),
        "tradeoff": ("emit achievable vs converse rows over [0, 2]", _tradeoff_arguments, cmd_tradeoff),
    }


def _parse(argv: list[str]) -> tuple[argparse.Namespace, argparse.ArgumentParser]:
    """The invoked command's arguments, and the parser that read them.

    A command named first gets a parser of its own arguments alone.  Any
    other argv meets the top-level parser with every command's arguments,
    which prints help (exit 0) or a usage error (exit 2), and never returns.
    """
    commands = _commands()
    if argv and argv[0] in commands:
        _, add_arguments, handler = commands[argv[0]]
        parser = argparse.ArgumentParser(prog=f"privcache {argv[0]}")
        add_arguments(parser)
        parser.set_defaults(func=handler)
        return parser.parse_args(argv[1:]), parser
    parser = argparse.ArgumentParser(
        prog="privcache",
        description="Demand-private coded caching: simulation, verification, tradeoff region",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in commands.items():
        add_arguments(sub.add_parser(name, help=help_text))
    parser.parse_args(argv)
    parser.error("the command must be the first argument")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args, parser = _parse(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
