"""The benchmark's workloads and their correctness gates.

Each workload is a list of cases and one kind of call into pnorbit's public
entry points.  A *pass* makes that call once per case, in order; the run
repeats passes in a closed loop (one caller, the next call starts when the
last returns).  Every call is checked after it is timed:

* ``verify``   -- ``verify.run_suite``; an operation is one check, and a
  failed check, or a raised suite, is a failed operation.
* ``polytope`` -- ``cli.main(["polytope", ...])`` writing CSV to a scratch
  directory; an operation is one sample.  A violating sample fails; a
  non-zero exit, or a CSV without a header plus one row per sample, fails
  every sample of the call.
* ``range``    -- ``verify.measure_diii_normalization``; an operation is one
  measurement, which fails unless it matches ``[0,2]`` within 1e-6.
"""

import contextlib
import io
import json
import os
import sys
from dataclasses import dataclass, field

from pnorbit import cli, hermsym, verify
from pnorbit.errors import CalibrationError, ConventionError, NumericalError

PNORBIT_ERRORS = (CalibrationError, ConventionError, NumericalError)
RANGE_TOL = 1e-6

DESK = ["aiii:k=2,n=4", "ci:n=3", "diii:n=4", "bdi:m=7"]
SMALL = ["aiii:k=1,n=2", "ci:n=1", "diii:n=2", "bdi:m=5"]


@dataclass(frozen=True)
class Workload:
    kind: str            # verify | polytope | range
    cases: list
    samples: int         # per case
    tiny_cases: list     # the self-test's sizes
    tiny_samples: int

    def sized(self, tiny):
        return (self.tiny_cases, self.tiny_samples) if tiny else (self.cases, self.samples)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "verify-desk": Workload("verify", DESK, 100, SMALL, 3),
    "verify-scale": Workload("verify", ["diii:n=6"], 20, ["diii:n=3"], 3),
    "polytope-sweep": Workload("polytope", DESK, 25000, SMALL, 300),
    "diii-range": Workload("range", ["diii:n=3"], 10000, ["diii:n=3"], 40),
}


@dataclass
class Outcome:
    """Checked result of one call for one case."""
    seconds: float
    samples: int
    attempted: int
    failed: int
    counts: dict = field(default_factory=dict)    # per-call work counters


def setup(workload, tiny=False):
    """What a user pays before the first call: calibration and case parsing."""
    cases, _ = workload.sized(tiny)
    verify.calibrate()
    return [hermsym.parse_case(text) for text in cases]


def _timed(fn, clock):
    start = clock()
    value = fn()
    return clock() - start, value


def run_verify(case, samples, seed, scratch, clock, tolerances=None):
    try:
        seconds, report = _timed(lambda: verify.run_suite(
            case, n_samples=samples, seed=seed, tolerances=tolerances), clock)
    except PNORBIT_ERRORS as exc:
        print(f"verify {case.descriptor()} raised: {exc}", file=sys.stderr)
        return Outcome(0.0, samples, 1, 1)
    failed = [c.name for c in report.checks if not c.passed]
    if failed:
        print(f"verify {report.case} failed checks: {failed}", file=sys.stderr)
    inv = next(c for c in report.checks if c.name == "involution_kks")
    accepted = min(50, samples)            # run_suite's involution target
    return Outcome(seconds, samples, len(report.checks), len(failed),
                   {"verify.gap_regular.accepted": accepted,
                    "verify.gap_regular.scanned": accepted + inv.skipped})


def run_polytope(case, samples, seed, scratch, clock, tolerances=None):
    path = os.path.join(scratch, f"{case.tag}.csv")
    argv = ["polytope", "--case", case.descriptor(), "--samples", str(samples),
            "--seed", str(seed), "--output", path]
    with contextlib.redirect_stdout(io.StringIO()):
        seconds, code = _timed(lambda: cli.main(argv), clock)
    summary = path + ".summary.json"
    try:
        with open(summary) as fh:
            violations = json.load(fh)["violations"]
        with open(path) as fh:
            header = fh.readline()
            rows = sum(1 for _ in fh)
        nbytes = os.path.getsize(path) + os.path.getsize(summary)
    except OSError:
        violations, header, rows, nbytes = samples, "", 0, 0
    failed = violations
    if code != 0 or not header.startswith("sample,") or rows != samples:
        print(f"polytope {case.descriptor()}: exit {code}, {rows} rows, "
              f"{violations} violations", file=sys.stderr)
        failed = samples
    return Outcome(seconds, samples, samples, failed, {"cli.polytope.bytes": nbytes})


def run_range(case, samples, seed, scratch, clock, tolerances=None):
    try:
        seconds, out = _timed(lambda: verify.measure_diii_normalization(
            n=case.params["n"], samples=samples, seed=seed), clock)
    except PNORBIT_ERRORS as exc:
        print(f"range {case.descriptor()} raised: {exc}", file=sys.stderr)
        return Outcome(0.0, samples, 1, 1)
    ok = (out["matches"] == "[0,2]" and out["min"] >= -RANGE_TOL
          and out["max"] <= 2 + RANGE_TOL)
    if not ok:
        print(f"range {case.descriptor()}: {out}", file=sys.stderr)
    return Outcome(seconds, samples, 1, 0 if ok else 1)


RUNNERS = {"verify": run_verify, "polytope": run_polytope, "range": run_range}


def run_pass(workload, cases, seed, scratch, clock, tiny=False, tolerances=None):
    """One call per case, each timed with `clock`; returns the checked
    Outcomes."""
    _, samples = workload.sized(tiny)
    runner = RUNNERS[workload.kind]
    return [runner(case, samples, seed, scratch, clock, tolerances) for case in cases]
