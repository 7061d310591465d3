"""pnorbit benchmark: one workload, one closed loop, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; pnorbit is imported from its ``src/``.
The run first times set-up in fresh processes (``setup_probe.py``), then
repeats passes of the workload for about S seconds.  One caller, and each
call starts when the last returns: pnorbit is a batch certifier, so there
is no open-loop rate.  Every call is checked (see ``workloads.py``).

* ``--trace 0`` measures untraced passes and reports the end-to-end
  metrics: the medians over the run's passes, plus set-up and peak memory.

Times are in reference seconds (``refspeed.py``): a fixed numpy kernel is
timed during every pass and in every set-up process, and each time is
scaled by the host speed it saw.  The report line keeps the raw wall times.
* ``--trace 1`` alternates untraced and traced passes and reports the
  per-layer metrics (``tracing.py``), each the median over traced passes,
  and the tracing overhead: median traced pass minus median untraced pass.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with the environment, pass counts and per-case medians.  A failed
operation makes the exit code 1; a checkout without a usable ``src/`` gives
exit code 2 and no result.
"""

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import refspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

SETUP_REPEATS = 3          # fresh processes per run; the median is reported
EXIT_OK, EXIT_INCORRECT, EXIT_USAGE = 0, 1, 2

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_s", "s"),
    ("samples_per_s", "1/s"),
]

PER_LAYER = [
    ("poisson.bruhat_matrix.calls", "count"),
    ("poisson.bruhat_matrix.self_s", "s"),
    ("poisson.kks_raw.calls", "count"),
    ("poisson.kks_raw.self_s", "s"),
    ("poisson.build_pair.calls", "count"),
    ("poisson.build_pair.self_s", "s"),
    ("poisson.svd_per_pair", "count"),
    ("poisson.pencil_eigenvalues.calls", "count"),
    ("poisson.pencil_eigenvalues.self_s", "s"),
    ("poisson.directional_derivatives.calls", "count"),
    ("poisson.directional_derivatives.total_s", "s"),
    ("poisson.directional_derivatives.self_s", "s"),
    ("poisson.flow_evals", "count"),
    ("poisson.jacobi_residual.total_s", "s"),
    ("poisson.lenard_check.total_s", "s"),
    ("poisson.nstar_eigen_residual.total_s", "s"),
    ("poisson.connection_check.self_s", "s"),
    ("verify.vertex_probe.total_s", "s"),
    ("verify.run_suite.self_s", "s"),
    ("verify.measure_diii_normalization.self_s", "s"),
    ("verify.gap_regular_yield", "ratio"),
    ("spectrum.chain_spectrum.calls", "count"),
    ("spectrum.chain_spectrum.self_s", "s"),
    ("hermsym.batch_points.calls", "count"),
    ("hermsym.batch_points.samples", "count"),
    ("hermsym.batch_points.self_s", "s"),
    ("numkernel.expm_antihermitian.matrices", "count"),
    ("numkernel.expm_antihermitian.self_s", "s"),
    ("spectrum.chain_batch.samples", "count"),
    ("spectrum.chain_batch.self_s", "s"),
    ("spectrum.batch_violations.self_s", "s"),
    ("cli.polytope.self_s", "s"),
    ("cli.polytope.bytes", "bytes"),
    ("spinrep.rep_call.calls", "count"),
    ("spinrep.rep_call.self_s", "s"),
    ("verify.calibrate.total_s", "s"),
    ("setup.import_s", "s"),
    ("trace.overhead_s", "s"),
]


class BenchError(Exception):
    """The checkout cannot be benchmarked (exit code 2, no result)."""


def import_pnorbit():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import pnorbit
    except ImportError as exc:
        raise BenchError(f"cannot import pnorbit from {SRC}: {exc}") from exc
    if not os.path.abspath(pnorbit.__file__).startswith(SRC + os.sep):
        raise BenchError(f"pnorbit was imported from {pnorbit.__file__}, not {SRC}")


def probe_setup(cases, repeats):
    """Median set-up timings, in reference seconds, over `repeats` fresh
    processes; `wall_setup_s` is the median in wall seconds.

    One extra process runs first and is discarded: it writes the bytecode
    cache and warms the file cache, which a user pays once, not per run.
    """
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), *cases]
    records = []
    for _ in range(repeats + 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        records.append(json.loads(proc.stdout.splitlines()[-1]))
    records = records[1:]
    out = {key: statistics.median(r[key] * r["scale"] for r in records)
           for key in ("setup_s", "import_s", "calibrate_s")}
    out["wall_setup_s"] = statistics.median(r["setup_s"] for r in records)
    return out


def _openblas_call(name, restype):
    """A function of the OpenBLAS bundled with numpy, or None."""
    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}{name}{suffix}", None)
                if fn is not None:
                    fn.restype = restype
                    return fn
    return None


def environment():
    """Versions, BLAS and CPU.  BLAS keeps the thread count users get,
    capped at the CPUs this process may run on."""
    import numpy as np
    import scipy
    nproc = len(os.sched_getaffinity(0))
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    get_threads = _openblas_call("get_num_threads", ctypes.c_int)
    threads = get_threads() if get_threads else None
    if threads is not None and threads > nproc:
        _openblas_call("set_num_threads", None)(nproc)
        threads = get_threads()
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "blas_threads": threads, "nproc": nproc, "cpu": cpu}


@dataclass
class Pass:
    outcomes: list        # workloads.Outcome per case
    tracer: object        # tracing.Tracer, or None for an untraced pass
    scale: float          # wall to reference seconds, from this pass's samples

    @property
    def wall_s(self):
        return sum(o.seconds for o in self.outcomes)

    @property
    def seconds(self):
        return self.wall_s * self.scale


def measure(one_pass, seconds, sampler, new_tracer=None):
    """Closed loop of passes for about `seconds`.

    one_pass(clock) times its calls with `clock`, the sampler's work clock.
    Without a tracer factory every pass is untraced; with one, untraced and
    traced passes alternate, each traced pass with a fresh tracer.  A new
    round starts only if it is expected to end within `seconds`, so long
    passes are never cut; one round always runs.
    Returns {traced: [Pass, ...]}.
    """
    modes = (False, True) if new_tracer else (False,)
    passes = {mode: [] for mode in modes}
    start = time.perf_counter()
    while True:
        for traced in modes:
            tracer = new_tracer(sampler.clock) if traced else None
            with sampler.running() as first:
                with tracer.installed() if traced else contextlib.nullcontext():
                    outcomes = one_pass(sampler.clock)
            passes[traced].append(Pass(outcomes, tracer, sampler.scale_since(first)))
        round_s = sum(statistics.median(p.wall_s for p in runs)
                      for runs in passes.values())
        if time.perf_counter() - start + round_s > seconds:
            return passes


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(p):
    """Per-layer metrics of one traced Pass (set-up and overhead excluded);
    times in reference seconds."""
    tracer = p.tracer
    counts = dict(tracer.counts)
    for o in p.outcomes:
        for key, n in o.counts.items():
            counts[key] = counts.get(key, 0) + n
    derived = {
        "poisson.svd_per_pair": _ratio(
            counts.get("poisson.linalg_svd", 0) + counts.get("poisson.linalg_pinv", 0),
            tracer.calls["poisson.build_pair"]),
        "verify.gap_regular_yield": _ratio(
            counts.get("verify.gap_regular.accepted", 0),
            counts.get("verify.gap_regular.scanned", 0)),
    }
    stats = {"calls": tracer.calls, "self_s": tracer.self_time, "total_s": tracer.total}
    out = {}
    for name, _ in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif stat in stats:
            value = stats[stat].get(span, 0)
            out[name] = value if stat == "calls" else value * p.scale
        else:
            out[name] = counts.get(name, 0)
    return out


def dump_spans(tracer, workload, seed):
    """Write the last traced pass's spans as [name, start, end, parent]."""
    os.makedirs(OUT_DIR, exist_ok=True)
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump([[n, s - t0, e - t0, p] for n, s, e, p in tracer.spans], fh)
    return path


def run_benchmark(name, seed, seconds, trace, tiny=False, tolerances=None,
                  setup_repeats=SETUP_REPEATS):
    """Run one workload; returns (result, report)."""
    import_pnorbit()
    import workloads
    workload = workloads.WORKLOADS[name]
    cases, _ = workload.sized(tiny)
    setup = probe_setup(cases, setup_repeats)
    env = environment()
    parsed = workloads.setup(workload, tiny)

    new_tracer = None
    if trace:
        from tracing import Tracer
        new_tracer = Tracer
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as scratch:
        passes = measure(lambda clock: workloads.run_pass(
            workload, parsed, seed, scratch, clock, tiny, tolerances),
            seconds, refspeed.SpeedSampler(), new_tracer)

    every = [o for runs in passes.values() for p in runs for o in p.outcomes]
    attempted = sum(o.attempted for o in every)
    failed = sum(o.failed for o in every)
    untraced = passes[False]
    pass_s = statistics.median(p.seconds for p in untraced)
    case_s = {text: statistics.median(p.outcomes[i].seconds * p.scale for p in untraced)
              for i, text in enumerate(cases)}
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "cases": cases, "samples_per_case": workload.sized(tiny)[1],
              "untraced_passes": len(untraced),
              "pass_s": [p.seconds for p in untraced],
              "wall_pass_s": [p.wall_s for p in untraced],
              "reference_scale": [p.scale for p in untraced],
              "case_s": case_s, "setup": setup, "setup_repeats": setup_repeats,
              "fail_ratio": _ratio(failed, attempted), "environment": env}

    if trace:
        traced = passes[True]
        per_pass = [layer_values(p) for p in traced]
        values = {key: statistics.median(v[key] for v in per_pass) for key, _ in PER_LAYER}
        values["verify.calibrate.total_s"] = setup["calibrate_s"]
        values["setup.import_s"] = setup["import_s"]
        values["trace.overhead_s"] = statistics.median(p.seconds for p in traced) - pass_s
        units = PER_LAYER
        report["traced_passes"] = len(traced)
        report["traced_pass_s"] = [p.seconds for p in traced]
        report["spans"] = dump_spans(traced[-1].tracer, name, seed)
    else:
        values = {
            "setup_s": setup["setup_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_s": pass_s,
            "samples_per_s": _ratio(sum(o.samples for o in untraced[0].outcomes), pass_s),
        }
        units = END_TO_END
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed,
              "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units}}
    return result, report


def exit_code(result):
    return EXIT_OK if result["correct"] else EXIT_INCORRECT


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        import_pnorbit()
        import workloads
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
        result, report = run_benchmark(args.workload, args.seed, args.seconds,
                                       args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for key, metric in result["metrics"].items():
        print(f"{key:<44} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    print(f"{'fail_ratio':<44} {report['fail_ratio']:>16.6g} "
          f"({result['failed']}/{result['attempted']})", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return exit_code(result)


if __name__ == "__main__":
    sys.exit(main())
