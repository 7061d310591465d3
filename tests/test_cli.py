"""CLI surface: subcommands, exit codes, file formats."""

import csv
import io
import json
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pnorbit import NumericalError, cli, hermsym, poisson, spectrum, verify
from pnorbit.cli import _csv_rows, main

from helpers import csv_rows_by_percent, fault_in_nr, record_calls


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


def test_verify_writes_strict_json_for_uncertified_checks(tmp_path,
                                                         monkeypatch, capsys):
    # with no gap-regular point four checks cannot be certified: their
    # residual is inf, which the report writes as null (strict JSON)
    def no_constant(name):
        raise ValueError(f"non-standard JSON constant {name}")

    monkeypatch.setattr(verify, "GAP_THRESHOLD", 10.0)
    out = tmp_path / "r.json"
    assert main(["verify", "--case", "aiii:k=2,n=4", "--samples", "3",
                 "--output", str(out)]) == 1
    payload = json.loads(out.read_text(), parse_constant=no_constant)
    nulls = {c["name"]: c["pass"] for c in payload["checks"]
             if c["max_residual"] is None}
    assert nulls == dict.fromkeys(("involution_kks", "involution_bruhat",
                                   "lenard", "nstar_dlambda"), False)
    assert capsys.readouterr().err.count("max=inf") == 4


def test_verify_failure_removes_only_a_regular_report(tmp_path, monkeypatch):
    # a suite that raises takes back the report it opened, but never
    # unlinks a device given as --output; the recorder only records, so
    # this test itself removes nothing
    def failing(*args, **kwargs):
        raise NumericalError("injected")

    removed = []
    monkeypatch.setattr(verify, "run_suite", failing)
    monkeypatch.setattr(os, "remove", removed.append)
    argv = ["verify", "--case", "aiii:k=1,n=2", "--samples", "3", "--output"]
    assert main(argv + [os.devnull]) == 3
    assert removed == []
    report = tmp_path / "r.json"
    assert main(argv + [str(report)]) == 3
    assert removed == [str(report)]


def test_verify_reports_a_complex_pencil_and_exits_1(tmp_path, monkeypatch):
    # a non-real pencil inside verify is a failed check with a report, not
    # a numerical failure (exit 3)
    verify.calibrate()
    monkeypatch.setattr(poisson, "_restricted", fault_in_nr(
        lambda case, nr: nr + 1e-6 * case.k_t if case.tag == "diii" else nr))
    out = tmp_path / "report.json"
    assert main(["verify", "--case", "diii:n=4", "--samples", "100",
                 "--seed", "2024", "--output", str(out)]) == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert not checks["pencil_reality"]["pass"]


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


def test_polytope_rows_cross_chunks_unchanged(tmp_path, capsys):
    # 4096 + 37 samples: two sampler chunks; every row must equal the row of
    # one sampler call over all samples, in the per-value format
    samples = 4096 + 37
    out = tmp_path / "poly.csv"
    assert main(["polytope", "--case", "diii:n=2", "--samples", str(samples),
                 "--seed", "11", "--output", str(out)]) == 0
    case = hermsym.parse_case("diii:n=2")
    _, ms = hermsym.batch_points(case, 11, 0, samples)
    labels, data, _ = spectrum.batch_free_values(case, spectrum.chain_batch(case, ms))
    want = ["sample," + ",".join(labels)] + [
        f"{i}," + ",".join(format(float(v), ".16e") for v in row)
        for i, row in enumerate(data)]
    assert out.read_text().splitlines() == want


@pytest.mark.parametrize("descriptor", ["aiii:k=2,n=4", "ci:n=3", "diii:n=4",
                                        "bdi:m=7"])
def test_polytope_output_independent_of_chunk_budget(descriptor, tmp_path,
                                                     monkeypatch, capsys):
    # a 4 KiB budget cuts 101 samples into 7 to 15 chunks, the last one
    # partial: the CSV and its summary are byte-identical to one chunk's
    argv = ["polytope", "--case", descriptor, "--samples", "101", "--seed", "5"]
    assert main(argv + ["--output", str(tmp_path / "whole.csv")]) == 0
    monkeypatch.setattr(hermsym, "SAMPLE_CHUNK_BYTES", 1 << 12)
    calls = record_calls(monkeypatch, hermsym, "batch_points")["batch_points"]
    assert main(argv + ["--output", str(tmp_path / "cut.csv")]) == 0
    counts = [count for _, _, _, count in calls]
    assert len(counts) >= 3 and counts[-1] < counts[0], counts
    for suffix in ("", ".summary.json"):
        assert ((tmp_path / f"cut.csv{suffix}").read_bytes()
                == (tmp_path / f"whole.csv{suffix}").read_bytes())


def _ulps(x, n):
    """x and its n neighbours on each side."""
    out, up, down = [x], x, x
    for _ in range(n):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return out


def _ties(q_max=3, count=200):
    """Doubles x with x 10^q = N + 1/2 exactly, N of 17 digits: the
    half-way cases of the 17th digit."""
    out = []
    for q in range(1, q_max + 1):
        for top in (10 ** 16, 9 * 10 ** 16):
            for j in range(count):
                tie = Fraction(2 * (top + j) + 1, 2 * 10 ** q)
                if Fraction(float(tie)) == tie:
                    out.append(float(tie))
    return out


# ±0, every 10^k from 1e-6 to 1e16 with 4 ulps on each side, 17th-digit
# ties and a literal that rounds to the next decade; the powers outside the
# kernel's range fall back with the other fallback values, among them the
# double nearest 1e-6 (below 1e-6: 9.9999999999999995e-07 by the % operator)
TIES = _ties()
POWERS = [v for k in range(-6, 17) for v in _ulps(float(f"1e{k}"), 4)]
IN_RANGE_EDGES = ([0.0, -0.0, 9.99999999999999999e5]
                  + [v for v in POWERS if 1e-6 < v < 1e16] + TIES)
FALLBACK_EDGES = ([v for v in POWERS if not 1e-6 < v < 1e16]
                  + [1e-7, 5e-324, 2.2250738585072014e-308 / 3, 1e300,
                     np.nan, np.inf, -np.inf])


@pytest.mark.parametrize("start", [0, 9, 10, 10 ** 18 - 1, 10 ** 18])
def test_csv_rows_match_the_percent_format_on_edges(start):
    # every edge value and its negative, in rows of two; the starts cross
    # the index widths 1 -> 2 and 18 -> 19 digits
    assert len(TIES) >= 40
    for values in (IN_RANGE_EDGES, IN_RANGE_EDGES + FALLBACK_EDGES):
        col = np.array(values)
        data = np.stack([col, -col], axis=1)
        assert _csv_rows(start, data) == csv_rows_by_percent(start, data)
    assert _csv_rows(0, np.array([[1e-6]])) == b"0,9.9999999999999995e-07\n"


@settings(max_examples=100, deadline=None)
@given(start=st.integers(0, 10 ** 18),
       data=arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 6)),
                   elements=st.one_of(st.floats(1e-6, 1e16), st.floats(-1e16, -1e-6),
                                      st.floats(-2.0, 2.0), st.floats())))
def test_csv_rows_match_the_percent_format(start, data):
    assert _csv_rows(start, data) == csv_rows_by_percent(start, data)


def test_polytope_formats_out_of_range_rows_by_percent(tmp_path, monkeypatch,
                                                       capsys):
    # values outside the kernel's range planted in the first, a middle and
    # the last row of every chunk (2048 samples on aiii:k=2,n=4): those rows
    # go to the % operator, and the CSV equals the oracle's bytes; the nan
    # and -inf rows (the first and last of each chunk) are violations
    free_value_map = spectrum.free_value_map
    chunks = []

    def planted(case, batch):
        data = free_value_map(case, batch)
        last = len(data) - 1
        data[0, 0], data[0, -1] = np.nan, 1e-7
        data[last // 2, 1] = 5e-324
        data[last, 0], data[last, -1] = -np.inf, 1e16
        chunks.append(data.copy())
        return data

    monkeypatch.setattr(spectrum, "free_value_map", planted)
    out = tmp_path / "poly.csv"
    assert main(["polytope", "--case", "aiii:k=2,n=4", "--samples", "3000",
                 "--seed", "7", "--output", str(out)]) == 1
    assert "(violations: 4)" in capsys.readouterr().out
    assert [len(c) for c in chunks] == [2048, 952]
    labels = spectrum.free_labels(hermsym.parse_case("aiii:k=2,n=4"))
    want = [("sample," + ",".join(labels) + "\n").encode()]
    starts = np.cumsum([0] + [len(c) for c in chunks])
    want += [csv_rows_by_percent(int(s), c) for s, c in zip(starts, chunks)]
    assert out.read_bytes() == b"".join(want)


def test_polytope_non_finite_values_fail_with_a_strict_summary(tmp_path,
                                                              monkeypatch):
    # a nan and an inf written to the CSV are violations (exit 1), and the
    # summary stays strict JSON: a non-finite range end is null
    free_value_map = spectrum.free_value_map

    def planted(case, batch):
        data = free_value_map(case, batch)
        data[3, 0], data[7, 0] = np.nan, np.inf
        return data

    monkeypatch.setattr(spectrum, "free_value_map", planted)
    out = tmp_path / "poly.csv"
    assert main(["polytope", "--case", "ci:n=1", "--samples", "10",
                 "--output", str(out)]) == 1

    def reject(token):
        raise AssertionError(f"non-strict JSON constant {token}")

    summary = json.loads((tmp_path / "poly.csv.summary.json").read_text(),
                         parse_constant=reject)
    assert summary["violations"] == 2
    assert summary["ranges"] == {"l1_1": {"min": None, "max": None}}


def test_verify_non_finite_range_fails_with_a_strict_report(tmp_path,
                                                           monkeypatch):
    # a nan free value fails the checks that read it (exit 1, not a
    # traceback), and the report stays strict JSON: the range end is null
    batch_free_values = spectrum.batch_free_values

    def planted(case, batch):
        labels, data, _ = batch_free_values(case, batch)
        data[1, 0] = np.nan
        return labels, data, np.sort(data, axis=1)

    monkeypatch.setattr(spectrum, "batch_free_values", planted)
    out = tmp_path / "report.json"
    assert main(["verify", "--case", "ci:n=1", "--samples", "5",
                 "--output", str(out)]) == 1

    def reject(token):
        raise AssertionError(f"non-strict JSON constant {token}")

    report = json.loads(out.read_text(), parse_constant=reject)
    assert report["ranges"] == {"l1_1": {"min": None, "max": None}}
    assert not report["passed"]


def test_polytope_bdi_labels(tmp_path):
    out = tmp_path / "bdi.csv"
    assert main(["polytope", "--case", "bdi:m=5", "--samples", "200",
                 "--output", str(out)]) == 0
    header = out.read_text().splitlines()[0].split(",")
    assert header == ["sample", "a1", "b1", "b2"]


def test_polytope_failure_leaves_no_csv(tmp_path, monkeypatch, capsys):
    # the first chunk (2048 samples: 512 KiB of complex 4 x 4 g) is written
    # before the second one fails: the command takes its partial CSV back
    # and writes no summary
    chain_batch = spectrum.chain_batch
    calls = []

    def failing_second(case, ms):
        calls.append(len(ms))
        if len(calls) == 2:
            raise NumericalError("injected")
        return chain_batch(case, ms)

    monkeypatch.setattr(spectrum, "chain_batch", failing_second)
    out = tmp_path / "poly.csv"
    assert main(["polytope", "--case", "ci:n=2", "--samples", "5000",
                 "--output", str(out)]) == 3
    assert calls == [2048, 2048]
    assert "injected" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_polytope_unwritable_summary_fails_before_sampling(tmp_path,
                                                         monkeypatch, capsys):
    # a directory squatting at the summary path: exit 2 before any
    # sampling, nothing printed, and the CSV opened with it taken back
    def sampler(*args):
        pytest.fail("batch_points ran before the summary was opened")
    monkeypatch.setattr(hermsym, "batch_points", sampler)
    out = tmp_path / "poly.csv"
    squat = tmp_path / "poly.csv.summary.json"
    squat.mkdir()
    assert main(["polytope", "--case", "ci:n=1", "--samples", "10",
                 "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [squat]


def test_polytope_device_output_opens_no_summary(monkeypatch, capsys):
    # a device --output gets no summary beside it; every open other than
    # the device's own is recorded, not performed, so nothing is created
    # under /dev
    opened = []

    def recording_open(path, *args, **kwargs):
        opened.append(path)
        if path == os.devnull:
            return open(path, *args, **kwargs)
        return io.StringIO()

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    assert main(["polytope", "--case", "ci:n=1", "--samples", "10",
                 "--output", os.devnull]) == 0
    assert opened == [os.devnull]
    assert "wrote 10 samples" in capsys.readouterr().out


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
    ["verify", "--case", "aiii:k=1,n=2", "--samples", "3", "--tol",
     "connection_blocks=1e-10"],
    ["verify", "--case", "aiii:k=1,n=2", "--samples", "2", "--seed", "-1"],
    ["verify", "--case", "aiii:k=1,n=2", "--samples", "2", "--seed", str(2**64)],
    ["polytope", "--case", "ci:n=1", "--samples", "5", "--seed", str(2**64)],
    ["spectrum", "--case", "ci:n=2", "--seed", str(2**64)],
    ["calibrate", "--samples", "5", "--seed", str(2**64)],
], ids=["verify-samples-0", "verify-samples-neg", "polytope-samples-0",
        "calibrate-samples-neg", "case-unknown-param", "case-repeated-param",
        "tol-nan", "tol-neg", "tol-inf", "tol-unknown-name", "seed-neg", "seed-2**64",
        "polytope-seed-2**64", "spectrum-seed-2**64", "calibrate-seed-2**64"])
def test_malformed_input_is_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "out"
    # calibrate writes no file and takes no --output
    output = [] if argv[0] == "calibrate" else ["--output", str(out)]
    assert main(argv + output) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if "--tol" in argv:
        # the message names the rejected tolerance
        assert argv[argv.index("--tol") + 1].partition("=")[0] in err
    # neither the output nor a polytope summary beside it
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["spectrum", "--case", "ci:n=2", "--samples", "3"],
    ["verify", "--case", "ci:n=1", "--format", "json"],
    ["polytope", "--case", "ci:n=1", "--format", "csv"],
    ["calibrate", "--output", "x"],
], ids=["spectrum-samples", "verify-format", "polytope-format",
        "calibrate-output"])
def test_removed_options_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--case", "aiii:k=1,n=2", "--samples", "2"],
    ["spectrum", "--case", "ci:n=1"],
    ["polytope", "--case", "ci:n=1", "--samples", "10"],
], ids=["verify", "spectrum", "polytope"])
def test_unwritable_output_is_usage_error(argv, tmp_path, capsys):
    # exit 1 means a check failed; an output that cannot be written is not
    # that, and it fails before the command prints its report
    out = tmp_path / "missing-dir" / "out"
    assert main(argv + ["--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--case", "aiii:k=1,n=2", "--samples", "2"],
    ["spectrum", "--case", "aiii:k=1,n=2"],
    ["polytope", "--case", "aiii:k=1,n=2", "--samples", "10"],
], ids=["verify", "spectrum", "polytope"])
@pytest.mark.parametrize("message", ["Unable to allocate 596. GiB", ""],
                         ids=["numpy", "bare"])
def test_out_of_memory_is_usage_error(argv, message, tmp_path, monkeypatch,
                                      capsys):
    # a case too large to build is malformed input: exit 2, no traceback
    def too_large(descriptor):
        raise MemoryError(message)
    monkeypatch.setattr(hermsym, "parse_case", too_large)
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message or 'out of memory'}\n"
    assert not out.exists()


def test_verify_unwritable_output_fails_before_the_suite(tmp_path, monkeypatch,
                                                       capsys):
    def suite(*args, **kwargs):
        pytest.fail("run_suite ran before --output was opened")
    monkeypatch.setattr(verify, "run_suite", suite)
    out = tmp_path / "missing-dir" / "out"
    assert main(["verify", "--case", "aiii:k=1,n=2", "--samples", "2",
                 "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_negative_seed_is_usage_error(tmp_path, capsys):
    # every subcommand keys its generator with hermsym.philox_key, which
    # takes seeds in [0, 2**64) only: a negative seed would alias a seed
    # of that range, so it is malformed input, exit 2 with a message, no
    # traceback and no output file
    out = str(tmp_path / "out")
    for argv in (["verify", "--case", "aiii:k=1,n=2", "--samples", "2",
                  "--output", out],
                 ["spectrum", "--case", "ci:n=2", "--output", out],
                 ["polytope", "--case", "diii:n=3", "--samples", "30",
                  "--output", out],
                 ["calibrate", "--samples", "30"]):
        assert main(argv + ["--seed", "-1"]) == 2, argv[0]
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be in [0, 2**64), got -1\n"
        assert captured.out == "", argv[0]
    assert list(tmp_path.iterdir()) == []
