import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import oracle_cli_parser, refuse_tradeoff_rows
from privcache import bitvec, cli, tradeoff
from privcache.cli import main
from privcache.reference import delivered_segment_indices, stored_signal_indices
from privcache.scheme import (
    AuxDemand,
    FileLibrary,
    SchemeParams,
    SessionRandomness,
    build_delivery,
    build_v,
    place,
)
from privcache.tradeoff import _reduced, ratio_text, tightness_report


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_cli_expect_usage_error(*argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_params_text(capsys):
    code, out = run_cli(capsys, "params", "--n", "2", "--k", "3", "--r", "2")
    assert code == 0
    assert "M = 2/3" in out
    assert "R = 1" in out
    assert "positions (K')          : 4" in out


@pytest.mark.parametrize("n, k, width", [(2, 1, 1), (2, 2, 3), (2, 3, 2), (3, 2, 1)])
def test_params_counts_match_real_caches_and_broadcasts(capsys, n, k, width):
    # every r from 0 to K': the M/R-derived counts are what the scheme sends
    for r in range(n * k - k + 2):
        code, out = run_cli(
            capsys, "params", "--n", str(n), "--k", str(k), "--r", str(r),
            "--subfile-bits", str(width), "--format", "json",
        )
        assert code == 0
        info = json.loads(out)
        params = SchemeParams.minimal(n, k, r, width)
        files = FileLibrary.random(params, random.Random(r))
        assert info["stored_signals_per_user"] == len(stored_signal_indices(params))
        for key in range(n):
            for cache in place(files, params, SessionRandomness(n, (key,) * k)):
                assert cache.payload_bits == info["cache_payload_bits"]
        for digits in itertools.product(range(n), repeat=k):
            d = AuxDemand(digits, n)
            for t in build_v(d).members:
                assert len(delivered_segment_indices(params, t)) == info["broadcast_segments"]
                assert build_delivery(files, d, t).payload_bits == info["delivery_payload_bits"]

def test_params_json(capsys):
    code, out = run_cli(capsys, "params", "--n", "2", "--k", "3", "--r", "3", "--format", "json")
    assert code == 0
    info = json.loads(out)
    assert info["M"] == "1/4" and info["R"] == "3/2"
    assert info["M_float"] == 0.25


def test_params_r_zero_and_max(capsys):
    code, out = run_cli(capsys, "params", "--n", "3", "--k", "2", "--r", "0", "--format", "json")
    assert json.loads(out)["M"] == "3" and json.loads(out)["R"] == "0"
    code, out = run_cli(capsys, "params", "--n", "2", "--k", "3", "--r", "4", "--format", "json")
    assert json.loads(out)["M"] == "0" and json.loads(out)["R"] == "2"


def test_params_usage_errors():
    run_cli_expect_usage_error("params", "--n", "2", "--k", "3", "--r", "9")
    run_cli_expect_usage_error("params", "--n", "2", "--k", "3", "--r", "2", "--f", "7")
    run_cli_expect_usage_error("params", "--n", "2", "--k", "3")  # missing --r


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_params_refuses_counts_too_long_to_print(capsys, fmt):
    # (2,14291,7146) is the smallest N = 2 instance whose F = C(14292, 7146)
    # has more than the 4300 decimal digits Python prints by default; one
    # user fewer, (2,14290,7145) has a 4300-digit F, which prints
    run_cli_expect_usage_error("params", "--n", "2", "--k", "14291", "--r", "7146", "--format", fmt)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "F has too many decimal digits to print (14285 bits)" in captured.err
    code, out = run_cli(capsys, "params", "--n", "2", "--k", "14290", "--r", "7145", "--format", fmt)
    assert code == 0
    assert len(str(SchemeParams.minimal(2, 14290, 7145).file_bits)) == 4300


def test_a_count_past_the_bit_cap_is_refused_at_once(capsys):
    # C(10^9 + 1, 5 * 10^8) is priced, not computed: math.comb would run for hours
    start = time.perf_counter()
    run_cli_expect_usage_error("params", "--n", "2", "--k", "1000000000", "--r", "500000000")
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("usage: privcache params ")
    assert err.endswith(
        "privcache params: error: C(K', r) = C(1000000001, 500000000) has more than 65536 bits, "
        "which exceeds the cap\n"
    )


def test_simulate_success_and_determinism(capsys):
    argv = ("simulate", "--n", "2", "--k", "3", "--r", "2", "--seed", "7", "--demands", "0,1,1")
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "decoded 3/3 users" in out1
    assert "demands: 0,1,1" in out1


def test_simulate_sampled_demands_deterministic(capsys):
    argv = ("simulate", "--n", "3", "--k", "2", "--r", "1", "--seed", "11")
    _, out1 = run_cli(capsys, *argv)
    _, out2 = run_cli(capsys, *argv)
    assert out1 == out2
    assert "decoded 2/2 users" in out1


def test_simulate_demand_validation():
    run_cli_expect_usage_error(
        "simulate", "--n", "2", "--k", "3", "--r", "2", "--demands", "0,1"
    )
    run_cli_expect_usage_error(
        "simulate", "--n", "2", "--k", "3", "--r", "2", "--demands", "0,1,7"
    )
    run_cli_expect_usage_error(
        "simulate", "--n", "2", "--k", "3", "--r", "2", "--demands", "a,b,c"
    )
    # an empty flag is not an absent one, and only canonical digits parse
    for demands in ("", " 1,0,1", "+1,0,1", "01,0,1", "0_1,0,1", "1,0,"):
        run_cli_expect_usage_error(
            "simulate", "--n", "2", "--k", "3", "--r", "2", "--demands", demands
        )
    run_cli_expect_usage_error("simulate", "--n", "2", "--k", "3", "--r", "2", "--library", "")


def test_simulate_loads_library_file(tmp_path, capsys):
    params = SchemeParams(2, 3, 2, 12)
    files = FileLibrary.random(params, random.Random(3))
    lib = tmp_path / "library.bin"
    lib.write_bytes(files.to_bytes())
    (tmp_path / "library.bin.json").write_text(json.dumps({"N": 2, "F": 12}))
    code, out = run_cli(
        capsys,
        "simulate", "--n", "2", "--k", "3", "--r", "2", "--f", "12",
        "--library", str(lib), "--seed", "5",
    )
    assert code == 0
    assert "decoded 3/3 users" in out


def test_simulate_library_sidecar_mismatch(tmp_path):
    params = SchemeParams(2, 3, 2, 12)
    files = FileLibrary.random(params, random.Random(3))
    lib = tmp_path / "library.bin"
    lib.write_bytes(files.to_bytes())
    (tmp_path / "library.bin.json").write_text(json.dumps({"N": 2, "F": 24}))
    run_cli_expect_usage_error(
        "simulate", "--n", "2", "--k", "3", "--r", "2", "--f", "12", "--library", str(lib)
    )


@pytest.mark.parametrize("sidecar", ["[1]", "null", '"x"', "3"])
def test_simulate_rejects_a_sidecar_that_is_not_an_object(tmp_path, capsys, sidecar):
    params = SchemeParams(2, 3, 2, 12)
    lib = tmp_path / "library.bin"
    lib.write_bytes(FileLibrary.random(params, random.Random(3)).to_bytes())
    (tmp_path / "library.bin.json").write_text(sidecar)
    run_cli_expect_usage_error(
        "simulate", "--n", "2", "--k", "3", "--r", "2", "--f", "12", "--library", str(lib)
    )
    assert f"library sidecar {tmp_path / 'library.bin.json'} is not a JSON object" in capsys.readouterr().err


def test_verify_all_passes(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "all", "--n", "2", "--k", "3", "--r", "2")
    assert code == 0
    assert out.count("PASS") == 5
    assert "FAIL" not in out


def test_verify_full_marginal(capsys):
    code, out = run_cli(
        capsys,
        "verify", "--suite", "privacy", "--n", "2", "--k", "2", "--r", "1",
        "--mode", "full-marginal",
    )
    assert code == 0
    assert "full-marginal" in out


def test_verify_json_format(capsys):
    code, out = run_cli(
        capsys,
        "verify", "--suite", "reconstruction", "--n", "2", "--k", "4", "--r", "2",
        "--format", "json",
    )
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["passed"] is True
    assert reports[0]["cases_run"] == 8


def test_verify_scale_guard_maps_to_usage_error():
    run_cli_expect_usage_error("verify", "--suite", "correctness", "--n", "2", "--k", "13", "--r", "2")


def test_verify_full_marginal_over_512_library_bits_is_a_usage_error(capsys):
    # 126,219,600 library bits: the symbolic tables could never fit in memory
    run_cli_expect_usage_error(
        "verify", "--suite", "privacy", "--mode", "full-marginal", "--n", "16", "--k", "2", "--r", "8"
    )
    assert "exceeds the 512-bit cap" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["privacy", "lemma1"])
def test_verify_refuses_demand_digits_wider_than_a_byte(capsys, suite):
    # the privacy engines weigh wire headers, one byte per demand digit: N = 257
    # is a usage error (exit 2), not a traceback (exit 1)
    run_cli_expect_usage_error("verify", "--suite", suite, "--n", "257", "--k", "1", "--r", "0")
    assert "demand digit 256 does not fit in 1 byte(s)" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["privacy", "lemma1"])
def test_wide_demand_digits_are_refused_before_the_rotation_table(monkeypatch, capsys, suite):
    # the rotation table is N x N digits: 4 * 10^8 of them at N = 20000
    def unbuilt(*args):
        raise AssertionError("rotation table built before the header width was checked")

    monkeypatch.setattr("privcache.verify._rotation", unbuilt)
    run_cli_expect_usage_error("verify", "--suite", suite, "--n", "257", "--k", "1", "--r", "0")
    assert "demand digit 256 does not fit in 1 byte(s)" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["correctness", "identities", "privacy", "lemma1"])
def test_case_counts_past_the_int_to_str_limit_are_usage_errors(capsys, suite):
    # 2^20000 demand vectors: a count with over 6,000 digits is printed as a power of two
    run_cli_expect_usage_error("verify", "--suite", suite, "--n", "2", "--k", "20000", "--r", "1")
    err = capsys.readouterr().err
    assert "cases exceeds the cap" in err
    assert "~2^" in err


@pytest.mark.parametrize(
    "argv",
    [("verify", "--suite", "privacy", "--n", "2", "--k", "20000", "--r", "10000"),
     ("simulate", "--n", "2", "--k", "3", "--r", "2", "--subfile-bits", "1" + "0" * 1000)],
)
def test_library_lengths_past_the_int_to_str_limit_are_usage_errors(capsys, argv):
    # files of C(K', r) or 6 * 10^1000 bits, a count of 1,000 to 6,000 digits, printed as a
    # power of two; simulate prices its plan first, so only a small plan reaches the library,
    # and privacy draws none, so its widest header names the broadcast length
    run_cli_expect_usage_error(*argv)
    err = capsys.readouterr().err
    if argv[0] == "verify":
        assert "privacy weighs every wire header: payload_bits 2^19993 does not fit in 4 byte(s)" in err
    else:
        assert "cannot generate the library: cannot draw 2^" in err
    assert "Exceeds the limit" not in err


@pytest.mark.parametrize("k, r", [(3000, 1500), (10000, 5000), (20000, 10000)])
def test_plan_costs_past_the_int_to_str_limit_are_usage_errors(capsys, k, r):
    # plan costs of 1,400 to 9,000 digits, printed as a power of two
    run_cli_expect_usage_error("simulate", "--n", "2", "--k", str(k), "--r", str(r))
    err = capsys.readouterr().err
    assert f"the plan of N=2 K={k} r={r} costs ~2^" in err
    assert "Exceeds the limit" not in err


def test_simulate_is_refused_by_the_plan_before_any_per_user_draw(monkeypatch, capsys):
    # K' = 10^8 + 1 one-bit subfiles per file: the plan guard refuses the run
    # before the library and 10^8 demand and key digits are drawn
    def no_draws(self, *args):
        raise AssertionError("per-user digits drawn")

    monkeypatch.setattr(random.Random, "randrange", no_draws)
    run_cli_expect_usage_error("simulate", "--n", "2", "--k", "100000000", "--r", "100000000")
    captured = capsys.readouterr()
    assert "the plan of N=2 K=100000000 r=100000000 costs ~" in captured.err
    assert "which exceeds the cap of 2000000" in captured.err
    assert captured.out == ""


def test_simulate_is_refused_by_the_plan_before_the_library_is_drawn(monkeypatch, capsys):
    # 16 files of 736,281 16-bit subfiles would be about 22 MiB of library
    monkeypatch.setattr(bitvec.Bits, "random", lambda *args: pytest.fail("library bits drawn"))
    run_cli_expect_usage_error("simulate", "--n", "16", "--k", "2", "--r", "6", "--subfile-bits", "16")
    captured = capsys.readouterr()
    assert "the plan of N=16 K=2 r=6 costs ~24472071 table entries" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("suite", ["correctness", "all"])
def test_verify_prices_correctness_before_the_library_is_drawn(monkeypatch, capsys, suite):
    # the 16-bit library would be about 22 MiB; correctness is refused by its price first
    monkeypatch.setattr(bitvec.Bits, "random", lambda *args: pytest.fail("library bits drawn"))
    run_cli_expect_usage_error(
        "verify", "--suite", suite, "--n", "16", "--k", "2", "--r", "6", "--subfile-bits", "16"
    )
    captured = capsys.readouterr()
    assert "correctness decoding of ~186980032512 subfiles exceeds the cap" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "suite, instance, refusal",
    [("identities", ("16", "6", "6", "1"),
      "demand-identity enumeration of ~1610612736 cases exceeds the cap"),
     ("reconstruction", ("16", "2", "6", "16"),
      "the plan of N=16 K=2 r=6 costs ~24472071 table entries, which exceeds the cap of 2000000")],
)
def test_verify_prices_the_oracles_before_the_library_is_drawn(monkeypatch, capsys, suite, instance, refusal):
    # (16,6,6) would draw 16 files of 666,563,898 bits (1.45 GB peak RSS when it
    # drew them), and the 16-bit (16,2,6) about 22 MiB
    monkeypatch.setattr(bitvec.Bits, "random", lambda *args: pytest.fail("library bits drawn"))
    n, k, r, width = instance
    run_cli_expect_usage_error(
        "verify", "--suite", suite, "--n", n, "--k", k, "--r", r, "--subfile-bits", width
    )
    captured = capsys.readouterr()
    assert f"privcache verify: error: {refusal}\n" in captured.err
    assert captured.out == ""


def test_verify_prices_every_suite_before_any_runs(monkeypatch, capsys):
    # correctness would pass at N = 257, but privacy's headers cannot carry
    # digit 256, so the run stops before any engine or draw
    from privcache import verify

    for engine in ("verify_correctness_exhaustive", "verify_privacy", "verify_distribution_lemma",
                   "oracle_demand_identity", "oracle_y_reconstruction"):
        monkeypatch.setattr(verify, engine, lambda *args, **kwargs: pytest.fail("a suite ran"))
    monkeypatch.setattr(bitvec.Bits, "random", lambda *args: pytest.fail("library bits drawn"))
    run_cli_expect_usage_error("verify", "--suite", "all", "--n", "257", "--k", "1", "--r", "0")
    captured = capsys.readouterr()
    assert "privacy weighs every wire header: demand digit 256 does not fit in 1 byte(s)" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "suite, scope",
    [("privacy", "privacy[conditional-on-files]"), ("lemma1", "privacy[joint with demanded file]")],
)
def test_conditional_privacy_and_lemma1_draw_no_library(monkeypatch, capsys, suite, scope):
    # (16,2,8) at 16-bit subfiles would draw 16 files of 126,219,600 bits
    def no_draws(self, k):
        raise AssertionError("bits drawn")

    monkeypatch.setattr(random.Random, "getrandbits", no_draws)
    code, out = run_cli(
        capsys, "verify", "--suite", suite, "--n", "16", "--k", "2", "--r", "8", "--subfile-bits", "16"
    )
    assert code == 0
    assert out.startswith(f"PASS {scope} N=16 K=2 r=8 [cases=512, ")


@pytest.mark.parametrize("suite", ["privacy", "lemma1"])
def test_privacy_runs_at_the_widest_admitted_digit(capsys, suite):
    # N = 256: every demand and key digit, up to 255, fits its one-byte field
    code, out = run_cli(capsys, "verify", "--suite", suite, "--n", "256", "--k", "1", "--r", "0")
    assert code == 0
    assert out.startswith("PASS privacy[") and " N=256 K=1 r=0 [cases=256, " in out


@pytest.mark.parametrize(
    "suite, n, k, r", [("identities", "2", "30", "0"), ("reconstruction", "2", "30", "5")]
)
def test_verify_oracles_over_the_case_cap_are_usage_errors(capsys, suite, n, k, r):
    run_cli_expect_usage_error("verify", "--suite", suite, "--n", n, "--k", k, "--r", r)
    assert "exceeds the cap" in capsys.readouterr().err


def test_reconstruction_oracle_is_refused_before_it_enumerates_subsets(monkeypatch, capsys):
    # K = 1 rebuilds no signal, so only the plan guard can refuse this run;
    # it must do so before the oracle lists all C(26, 13) (r+1)-subsets
    def refuse(*_):
        raise AssertionError("subsets enumerated before the plan guard")

    monkeypatch.setattr("privcache.reference.enumerate_r_subsets", refuse)
    monkeypatch.setattr("privcache.plan.colex_subsets", refuse)
    run_cli_expect_usage_error("verify", "--suite", "reconstruction", "--n", "26", "--k", "1", "--r", "12")
    assert "exceeds the cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--n", "16", "--k", "2", "--r", "6"),
        ("verify", "--suite", "correctness", "--n", "16", "--k", "2", "--r", "6"),
        ("simulate", "--n", "2", "--k", "30", "--r", "4"),
    ],
)
def test_runs_whose_plan_exceeds_the_cap_are_usage_errors(capsys, argv):
    run_cli_expect_usage_error(*argv)
    captured = capsys.readouterr()
    assert "exceeds the cap" in captured.err
    assert captured.out == ""


def test_correctness_over_the_decode_work_cap_is_a_usage_error(capsys):
    # (16,2,4) passes the case and plan caps; its decodes would take most of an hour
    run_cli_expect_usage_error("verify", "--suite", "correctness", "--n", "16", "--k", "2", "--r", "4")
    captured = capsys.readouterr()
    assert "correctness decoding of ~7990599680 subfiles exceeds the cap" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("suite", ["privacy", "lemma1"])
def test_verify_privacy_runs_where_the_plan_is_refused(capsys, suite):
    code, out = run_cli(capsys, "verify", "--suite", suite, "--n", "16", "--k", "2", "--r", "6")
    assert code == 0
    assert out.startswith("PASS ") and "[cases=512," in out


@pytest.mark.parametrize("suite", ["identities", "reconstruction"])
def test_verify_suites_that_do_not_serialize_accept_n_257(capsys, suite):
    code, out = run_cli(capsys, "verify", "--suite", suite, "--n", "257", "--k", "1", "--r", "0")
    assert code == 0
    assert out.startswith("PASS")


def test_verify_failure_exits_one(monkeypatch, capsys):
    from privcache.verify import VerificationReport

    def broken(params, files):
        return VerificationReport("stub", 1, [(("cfg",), "want", "got")], 0.0)

    # `cmd_verify` reads the engine off the verify module on every call
    monkeypatch.setattr("privcache.verify.verify_correctness_exhaustive", broken)
    code, out = run_cli(capsys, "verify", "--suite", "correctness", "--n", "2", "--k", "3", "--r", "2")
    assert code == 1
    assert out.startswith("FAIL (1 failures) stub [cases=1, ")


def test_a_patched_command_handler_is_seen_by_the_next_call(monkeypatch, capsys):
    # the parser binds each handler when `main` builds it, on every call
    assert run_cli(capsys, "tradeoff", "--k", "2", "--grid", "2")[0] == 0
    monkeypatch.setattr(cli, "cmd_tradeoff", lambda args, parser: 7)
    assert main(["tradeoff", "--k", "2"]) == 7


def test_tradeoff_csv_three_users(capsys):
    code, out = run_cli(capsys, "tradeoff", "--k", "3", "--grid", "1/100")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0].keys()) == ["M", "R_ach", "R_conv", "tight"]
    assert len(rows) == 201
    assert all(row["tight"] == "true" for row in rows)
    at_two_thirds = next(row for row in rows if row["M"] == "33/50")
    assert Fraction(at_two_thirds["R_ach"]) == Fraction(at_two_thirds["R_conv"])


def test_tradeoff_four_users_gap(capsys):
    code, out = run_cli(capsys, "tradeoff", "--k", "4", "--grid", "1/100")
    rows = list(csv.DictReader(io.StringIO(out)))
    for row in rows:
        m = Fraction(row["M"])
        inside = Fraction(1, 2) < m < Fraction(6, 5)
        assert row["tight"] == ("false" if inside else "true"), row


def test_tradeoff_json_roundtrip(capsys):
    code, out = run_cli(capsys, "tradeoff", "--k", "3", "--grid", "1/10", "--format", "json")
    rows = json.loads(out)
    assert len(rows) == 21
    for row in rows:
        # float fields equal the exact rationals to within representation
        assert row["M_float"] == float(Fraction(row["M"]))
        assert row["R_ach_float"] == float(Fraction(row["R_ach"]))
        assert row["R_conv_float"] == float(Fraction(row["R_conv"]))
        assert isinstance(row["tight"], bool)


@pytest.mark.parametrize(
    "flags, digest",
    [
        ("--k 32 --grid 1/200 --format csv", "12628147764fe7fad9f7b8a2e57ad0f4fb653f4fd1e742e1c15a1479431dd380"),
        ("--k 64 --grid 1/1000 --format csv", "350330d16d79da9ee4ee55288deab046c6a9ae91b11f7a0b7aa47eff15b42a11"),
        ("--k 4 --grid 1/100 --format json", "c65a7f2a44b2bea159f9dbeca2d9f57ad2de502f83519bb6b396b77d904f3569"),
        ("--k 5 --grid 3/7", "342d2e84e63589115af21de4e4244b2b307dc94c0eb08c967dc913a60ffb8f03"),
        ("--k 5 --grid 3/7 --format text", "0882afbcfb0db84c46cefc962b0931723a5ec861a135fac580bbcc6678b70c5f"),
        ("--k 64 --grid 1/1000 --format json", "8c2ff80bc7b20b4491b1e793d9d5c35717f5567e12a6ea285a5eff5fbed6f2f9"),
        ("--k 64 --grid 1/1000 --format text", "1cea7a33d7bcd8a51b793d9ea7d3d1a3114c14702e0ce57dbfea3beb25f622b8"),
    ],
)
def test_tradeoff_output_bytes_are_pinned(capsys, flags, digest):
    # digests recorded from the Fraction-arithmetic rows; the rows behind them hold Fractions
    argv = flags.split()
    code, out = run_cli(capsys, "tradeoff", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    for row in tightness_report(int(argv[1]), Fraction(argv[3])):
        assert all(type(x) is Fraction for x in (row.memory, row.achievable, row.converse)), row
        assert type(row.tight) is bool


@settings(max_examples=500, deadline=None)
@given(
    num=st.one_of(st.just(0), st.integers(min_value=0, max_value=2**64)),
    den=st.one_of(st.just(1), st.integers(min_value=1, max_value=2**64),
                  st.integers(min_value=1, max_value=2**12).map(lambda c: c << 19)),
    common=st.one_of(st.just(1), st.integers(min_value=2, max_value=2**20)),
)
@example(num=0, den=1, common=1)
@example(num=2, den=1, common=1)
@example(num=1, den=3, common=2**19)
def test_tradeoff_pair_text_and_float_match_fraction(num, den, common):
    # the rows reach the CLI as unreduced pairs, printed by `ratio_text` as `n`
    # or `n/d` with the unreduced `n / d` as the JSON float: the same bytes `str`
    # and `float` of a Fraction give, and `_reduced` holds the Fraction's pair
    n, d = num * common, den * common
    exact = Fraction(n, d)
    assert _reduced(n, d) == (exact.numerator, exact.denominator)
    assert ratio_text(n, d) == str(exact)
    assert n / d == float(exact)


def test_tradeoff_out_file(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    code, out = run_cli(capsys, "tradeoff", "--k", "3", "--grid", "1/4", "--out", str(out_path))
    assert code == 0
    assert out == ""
    content = out_path.read_text()
    assert content.startswith("M,R_ach,R_conv,tight\n")


def test_tradeoff_out_to_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    out_path = tmp_path / "missing" / "rows.csv"
    run_cli_expect_usage_error("tradeoff", "--k", "3", "--grid", "1/4", "--out", str(out_path))
    captured = capsys.readouterr()
    assert f"cannot write --out {out_path}" in captured.err
    assert captured.out == ""
    assert not out_path.parent.exists()


@pytest.mark.parametrize(
    "argv",
    [("simulate",)]
    + [("verify", "--suite", suite) for suite in ("correctness", "privacy", "lemma1", "identities",
                                                  "reconstruction", "all")],
)
def test_a_library_too_long_to_generate_is_a_usage_error(monkeypatch, capsys, argv):
    # 6 * 2^31-bit files: refused before a single random bit is drawn; privacy and
    # Lemma 1 draw no library, so their widest header pair refuses the length instead
    def no_draws(self, k):
        raise AssertionError("bits drawn")

    monkeypatch.setattr(random.Random, "getrandbits", no_draws)
    run_cli_expect_usage_error(*argv, "--n", "2", "--k", "3", "--r", "2", "--subfile-bits", "2147483648")
    captured = capsys.readouterr()
    if argv[-1] in ("privacy", "lemma1"):
        refusal = "privacy weighs every wire header: payload_bits 12884901888 does not fit in 4 byte(s)"
    else:
        refusal = "cannot draw 12884901888 random bits, the limit is 2^31 - 1"
    assert refusal in captured.err
    assert captured.out == ""


def test_full_marginal_privacy_draws_no_library(monkeypatch, capsys):
    # full-marginal privacy reads no library, so no random bit is drawn: with
    # 2^31-bit subfiles its own 1-bit guard refuses the run, and a passing run
    # prints what it printed when the library was drawn
    def no_draws(self, k):
        raise AssertionError("bits drawn")

    monkeypatch.setattr(random.Random, "getrandbits", no_draws)
    marginal = ("verify", "--suite", "privacy", "--mode", "full-marginal", "--n", "2", "--k", "3")
    run_cli_expect_usage_error(*marginal, "--r", "2", "--subfile-bits", "2147483648")
    captured = capsys.readouterr()
    assert "full-marginal mode needs 1-bit subfiles" in captured.err
    assert "cannot draw" not in captured.err
    assert captured.out == ""
    code, out = run_cli(capsys, *marginal, "--r", "1", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert isinstance(reports[0].pop("elapsed_seconds"), float)
    scope = "privacy[full-marginal over 256 libraries] N=2 K=3 r=1"
    assert reports == [{"scope": scope, "passed": True, "cases_run": 24, "failures": []}]


def test_params_of_a_library_too_long_to_generate_still_print(capsys):
    code, out = run_cli(capsys, "params", "--n", "2", "--k", "3", "--r", "2", "--subfile-bits", "2147483648")
    assert code == 0
    assert "F=12884901888" in out


def test_tradeoff_usage_errors():
    run_cli_expect_usage_error("tradeoff", "--k", "1")
    run_cli_expect_usage_error("tradeoff", "--k", "3", "--grid", "zero")
    run_cli_expect_usage_error("tradeoff", "--k", "3", "--grid", "0")


@pytest.mark.parametrize("grid", ["1/50001", "1e-9"])
def test_tradeoff_grid_over_100001_rows_is_a_usage_error(monkeypatch, capsys, grid):
    refuse_tradeoff_rows(monkeypatch)
    run_cli_expect_usage_error("tradeoff", "--k", "3", "--grid", grid)
    assert "more than 100001 rows" in capsys.readouterr().err


def test_tradeoff_grid_past_the_int_to_str_limit_prints_the_row_cap(monkeypatch, capsys):
    # 1e-5000 is 1/10^5000, whose denominator has more digits than str() prints
    refuse_tradeoff_rows(monkeypatch)
    run_cli_expect_usage_error("tradeoff", "--k", "3", "--grid", "1e-5000")
    err = capsys.readouterr().err
    assert err.endswith("error: grid step 1/2^16609 gives more than 100001 rows on [0, 2]\n")
    assert "Exceeds the limit" not in err


@pytest.mark.parametrize("grid", ["1e-30000000", "1e99999999999", "1e10001"])
def test_tradeoff_grid_exponent_past_10000_is_a_usage_error(monkeypatch, capsys, grid):
    # refused from the string: no Fraction is built for it
    monkeypatch.setattr(tradeoff, "_frac", lambda step: pytest.fail(f"a Fraction was built for {step!r}"))
    refuse_tradeoff_rows(monkeypatch)
    run_cli_expect_usage_error("tradeoff", "--k", "3", "--grid", grid)
    err = capsys.readouterr().err
    assert err.endswith(f"error: bad --grid '{grid}': decimal exponent outside [-10000, 10000]\n")


def test_tradeoff_coarse_decimal_grid_gives_both_ends(capsys):
    # a step above 2 with an exponent inside the range keeps its rows 0 and 2
    code, out = run_cli(capsys, "tradeoff", "--k", "3", "--grid", "1e5000")
    assert code == 0
    assert out == "M,R_ach,R_conv,tight\n0,2,2,true\n2,0,0,true\n"


@pytest.mark.parametrize("k", ["1001", "100000"])
def test_tradeoff_over_1000_users_is_a_usage_error(monkeypatch, capsys, k):
    refuse_tradeoff_rows(monkeypatch)
    run_cli_expect_usage_error("tradeoff", "--k", k, "--grid", "1")
    assert "exceeds the cap of 1000" in capsys.readouterr().err


def test_unknown_command_is_usage_error():
    run_cli_expect_usage_error("frobnicate")


EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


@pytest.mark.parametrize(
    "argv, code, stdout_digest, stderr_digest",
    [
        (["--help"], 0, "a463048318e4bbd7eaac418de804efd585e77eda66e41ff7a1b3a4548a1807c1", EMPTY_SHA256),
        (["params", "--help"], 0, "135d2550994b6c4eb31579d0e2947b8ebc3d30fbba292853ff799fb70715f382", EMPTY_SHA256),
        (["simulate", "--help"], 0, "e9a3baad93830d79618a10db9c775203affde366be75ca7b25a0afc041a084c9", EMPTY_SHA256),
        (["verify", "--help"], 0, "5fc10cb642edea9c180c9b2124018602392277b6edd0bf8f425049a53be76353", EMPTY_SHA256),
        (["tradeoff", "--help"], 0, "0ffb7399dafaf39fcda38462c3e40476a4082bf768f934c48759692506a5716d", EMPTY_SHA256),
        ([], 2, EMPTY_SHA256, "9fa95bc23379f8dda6212c0cb33943921a8e4ec4168f3e97e9efa70821585c47"),
        (["frobnicate"], 2, EMPTY_SHA256, "43815bb2cd09cce11e0ac5ecae09672e84762240ad52d426f11fbea5634d9d88"),
    ],
)
def test_help_and_usage_text_is_pinned(argv, code, stdout_digest, stderr_digest):
    # digests of a fresh `python -m privcache` at an 80-column terminal, taken
    # from a parser that added every subcommand's arguments up front
    env = dict(os.environ, COLUMNS="80")
    proc = subprocess.run([sys.executable, "-m", "privcache", *argv], capture_output=True, env=env)
    assert proc.returncode == code
    assert hashlib.sha256(proc.stdout).hexdigest() == stdout_digest
    assert hashlib.sha256(proc.stderr).hexdigest() == stderr_digest


@pytest.mark.parametrize(
    "argv, message",
    [
        (("simulate", "--n", "2", "--k", "3", "--r", "2", "--demands", ""), "cannot parse --demands ''"),
        (("verify", "--suite", "correctness", "--n", "2", "--k", "13", "--r", "2"),
         "correctness decoding of ~271351808 subfiles exceeds the cap"),
        (("verify", "--suite", "privacy", "--n", "2", "--k", "3", "--r", "2", "--bogus"),
         "unrecognized arguments: --bogus"),
    ],
)
def test_usage_errors_print_the_commands_own_usage(capsys, argv, message):
    # a command's own refusals (bad --demands, a ScaleLimitError) and argparse's
    # errors alike name the command, not the top-level parser
    run_cli_expect_usage_error(*argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: privcache {argv[0]} ")
    assert f"privcache {argv[0]}: error: {message}" in captured.err


VERIFY_ARGV = ["verify", "--suite", "privacy", "--n", "2", "--k", "3", "--r", "2"]


@pytest.mark.parametrize(
    "argv, code",
    [
        ([], 2),
        (["-h"], 0),
        (["-h", "verify"], 0),
        (["--", *VERIFY_ARGV], 2),
        (["--foo", *VERIFY_ARGV], 2),
        (["frobnicate"], 2),
    ],
)
def test_an_argv_not_led_by_a_command_exits_without_running_one(monkeypatch, capsys, argv, code):
    # the exit codes of the parser that read every argv, before each command got its own
    for name in ("cmd_params", "cmd_simulate", "cmd_verify", "cmd_tradeoff"):
        monkeypatch.setattr(cli, name, lambda args, parser: pytest.fail("a command ran"))
    for parse in (main, cli._parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == code
        captured = capsys.readouterr()
        assert (captured.out if code == 0 else captured.err).startswith("usage: privcache [-h]")


def test_a_top_level_parse_that_returns_is_still_a_usage_error(monkeypatch, capsys):
    # argparse releases that let `privcache -- verify` reach the command must not run it
    monkeypatch.setattr(
        argparse.ArgumentParser, "parse_args", lambda self, args=None, namespace=None: argparse.Namespace()
    )
    with pytest.raises(SystemExit) as exc:
        cli._parse(["--", "verify"])
    assert exc.value.code == 2
    assert "privcache: error: the command must be the first argument" in capsys.readouterr().err


def test_mode_names_are_the_verifiers_own():
    from privcache import verify

    assert cli.MODES == (verify.CONDITIONAL, "conditional", verify.FULL_MARGINAL)


def _outcome(parse, argv):
    """("ok", namespace dict) or ("exit", code, stdout, the text after "error: ")."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = parse(argv)
        except SystemExit as exc:
            return "exit", exc.code, out.getvalue(), err.getvalue().partition("error: ")[2]
    return "ok", {key: value for key, value in vars(namespace).items() if key != "command"}


_INTS = st.one_of(st.integers(-2, 12).map(str), st.sampled_from(["", "x", "1.5", "0x3", "1_0", "-"]))
_FLAG_VALUES = {
    "--n": _INTS, "--k": _INTS, "--r": _INTS, "--f": _INTS, "--subfile-bits": _INTS,
    "--seed": st.sampled_from(["0", "7", "abc", ""]),
    "--demands": st.sampled_from(["0,1,1", "", "x"]),
    "--library": st.sampled_from(["lib.bin", ""]),
    "--suite": st.sampled_from(cli.SUITES + ("bogus",)),
    "--mode": st.sampled_from(cli.MODES + ("marginal",)),
    "--format": st.sampled_from(["text", "json", "csv", "xml"]),
    "--grid": st.sampled_from(["1/100", "1/0", "x"]),
    "--out": st.sampled_from(["rows.csv", ""]),
}
_COMMANDS = ("params", "simulate", "verify", "tradeoff")
_JUNK = st.sampled_from(
    ["-h", "--help", "--", "--bogus", "junk", "-n", "--su", "--s", "--fo", "--n=3", "--mode=conditional",
     "-1", "", *_COMMANDS]
)
_PIECES = st.one_of(
    st.sampled_from(sorted(_FLAG_VALUES)).flatmap(lambda flag: _FLAG_VALUES[flag].map(lambda v: [flag, v])),
    st.tuples(*[st.integers(0, 4).map(str)] * 3).map(lambda v: ["--n", v[0], "--k", v[1], "--r", v[2]]),
    _JUNK.map(lambda tok: [tok]),
)


@settings(max_examples=400, deadline=None)
@given(
    first=st.one_of(st.sampled_from(_COMMANDS), _JUNK),
    pieces=st.lists(_PIECES, max_size=6),
)
@example(first="verify", pieces=[["--n", "2", "--k", "3", "--r", "2"]])
@example(first="--foo", pieces=[["verify"], ["--n", "x"], ["-h"]])
@example(first="tradeoff", pieces=[["--k", "3"], ["--"], ["--grid"]])
def test_parse_matches_the_parser_that_read_every_argv(first, pieces):
    # the same namespace where the old parser accepted an argv, the same exit code
    # where it did not; a command named first prints the same help and error text
    argv = [first] + [tok for piece in pieces for tok in piece]
    want = _outcome(lambda a: oracle_cli_parser(a).parse_args(a), argv)
    got = _outcome(lambda a: cli._parse(a)[0], argv)
    if want[0] == "ok" or first in _COMMANDS:
        assert got == want, argv
    else:
        assert got[:2] == want[:2], argv
