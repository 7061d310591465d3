"""CLI surface: subcommands, exit codes, file formats."""

import csv
import json

import numpy as np
import pytest

from pnorbit.cli import main


def test_verify_command_writes_report(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--case", "aiii:k=1,n=2", "--samples", "10",
                 "--seed", "7", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["case"] == "aiii:k=1,n=2"
    assert payload["calibration"] == {"s_K": 1, "s_0": -1}
    assert all(set(c) == {"name", "max_residual", "tolerance", "pass",
                          "skipped"} for c in payload["checks"])


def test_verify_usage_error_exit_code(capsys):
    assert main(["verify", "--case", "aiii:k=9,n=3"]) == 2
    assert "bad case descriptor" in capsys.readouterr().err


def test_verify_tolerance_override_can_fail(tmp_path):
    out = tmp_path / "r.json"
    code = main(["verify", "--case", "aiii:k=1,n=2", "--samples", "5",
                 "--tol", "pencil_chain_match=1e-30", "--output", str(out)])
    assert code == 1
    assert json.loads(out.read_text())["passed"] is False


def test_spectrum_command(capsys):
    assert main(["spectrum", "--case", "ci:n=2", "--seed", "5"]) == 0
    text = capsys.readouterr().out
    assert "max multiset discrepancy" in text
    disc = float(text.strip().splitlines()[-1].split(":")[1])
    assert disc <= 1e-7


def test_spectrum_identity_flag(capsys):
    assert main(["spectrum", "--case", "bdi:m=5", "--identity"]) == 0
    text = capsys.readouterr().out
    disc = float(text.strip().splitlines()[-1].split(":")[1])
    assert disc <= 1e-10


def test_polytope_command(tmp_path, capsys):
    out = tmp_path / "poly.csv"
    code = main(["polytope", "--case", "ci:n=1", "--samples", "500",
                 "--seed", "3", "--output", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sample", "l1_1"]
    assert len(rows) == 501
    vals = np.array([float(r[1]) for r in rows[1:]])
    assert vals.min() >= -1e-9 and vals.max() <= 2 + 1e-9
    # 17 significant digits, scientific, locale-independent
    assert "e" in rows[1][1] and "," not in rows[1][1]
    mantissa = rows[1][1].split("e")[0].replace("-", "").replace(".", "")
    assert len(mantissa) == 17
    summary = json.loads((tmp_path / "poly.csv.summary.json").read_text())
    assert summary["violations"] == 0
    assert set(summary["ranges"]) == {"l1_1"}


def test_polytope_bdi_labels(tmp_path):
    out = tmp_path / "bdi.csv"
    assert main(["polytope", "--case", "bdi:m=5", "--samples", "200",
                 "--output", str(out)]) == 0
    header = out.read_text().splitlines()[0].split(",")
    assert header == ["sample", "a1", "b1", "b2"]


def test_calibrate_command_deterministic(capsys):
    assert main(["calibrate", "--samples", "120"]) == 0
    first = capsys.readouterr().out
    assert main(["calibrate", "--samples", "120"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "s_K=+1, s_0=-1" in first
    assert "matches" in first
    assert "[0,2]" in first and "[-1,3]" in first


def test_calibrate_rejects_non_diii_case(capsys):
    assert main(["calibrate", "--case", "ci:n=2", "--samples", "50"]) == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--case", "ci:n=1", "--samples", "0"],
    ["verify", "--case", "ci:n=1", "--samples", "-3"],
    ["polytope", "--case", "ci:n=1", "--samples", "0"],
    ["calibrate", "--samples", "-1"],
    ["spectrum", "--case", "ci:n=2,foo=3"],
    ["spectrum", "--case", "ci:n=2,n=3"],
    ["verify", "--case", "aiii:k=1,n=2", "--samples", "3", "--tol", "lenard=nan"],
    ["verify", "--case", "aiii:k=1,n=2", "--samples", "3", "--tol", "lenard=-1"],
    ["verify", "--case", "aiii:k=1,n=2", "--samples", "3", "--tol", "lenard=inf"],
    ["verify", "--case", "aiii:k=1,n=2", "--samples", "2", "--seed", "-1"],
], ids=["verify-samples-0", "verify-samples-neg", "polytope-samples-0",
        "calibrate-samples-neg", "case-unknown-param", "case-repeated-param",
        "tol-nan", "tol-neg", "tol-inf", "seed-neg"])
def test_malformed_input_is_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["spectrum", "--case", "ci:n=2", "--samples", "3"],
    ["verify", "--case", "ci:n=1", "--format", "json"],
    ["polytope", "--case", "ci:n=1", "--format", "csv"],
], ids=["spectrum-samples", "verify-format", "polytope-format"])
def test_removed_options_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_negative_seed_is_masked_to_64_bits(tmp_path, capsys):
    # spectrum and polytope key their generator with seed & (2**64 - 1), so
    # -1 draws the same stream as 2**64 - 1
    seeds = ["-1", str(2**64 - 1)]
    outs = []
    for seed in seeds:
        assert main(["spectrum", "--case", "ci:n=2", "--seed", seed]) == 0
        outs.append(capsys.readouterr().out.splitlines())
    assert outs[0][0] == outs[1][0].replace(f"seed={seeds[1]}", "seed=-1")
    assert outs[0][1:] == outs[1][1:]
    csvs = []
    for i, seed in enumerate(seeds):
        out = tmp_path / f"poly{i}.csv"
        assert main(["polytope", "--case", "diii:n=3", "--samples", "300",
                     "--seed", seed, "--output", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]
