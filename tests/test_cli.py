import csv
import io
import itertools
import json
import random
from fractions import Fraction

import pytest

from privcache.cli import main
from privcache.scheme import (
    AuxDemand,
    FileLibrary,
    SchemeParams,
    SessionRandomness,
    build_delivery,
    build_v,
    delivered_segment_indices,
    place,
    stored_signal_indices,
)


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


def test_verify_failure_exits_one(monkeypatch, capsys):
    from privcache import cli as cli_mod
    from privcache.verify import VerificationReport

    def broken(params, files):
        return VerificationReport("stub", 1, [(("cfg",), "want", "got")], 0.0)

    monkeypatch.setattr(cli_mod.verify_mod, "verify_correctness_exhaustive", broken)
    code, out = run_cli(capsys, "verify", "--suite", "correctness", "--n", "2", "--k", "3", "--r", "2")
    assert code == 1
    assert "FAIL" in out


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


def test_tradeoff_out_file(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    code, out = run_cli(capsys, "tradeoff", "--k", "3", "--grid", "1/4", "--out", str(out_path))
    assert code == 0
    assert out == ""
    content = out_path.read_text()
    assert content.startswith("M,R_ach,R_conv,tight\n")


def test_tradeoff_usage_errors():
    run_cli_expect_usage_error("tradeoff", "--k", "1")
    run_cli_expect_usage_error("tradeoff", "--k", "3", "--grid", "zero")
    run_cli_expect_usage_error("tradeoff", "--k", "3", "--grid", "0")


def test_unknown_command_is_usage_error():
    run_cli_expect_usage_error("frobnicate")
