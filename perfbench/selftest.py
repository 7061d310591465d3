"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that, for every workload, an untraced run reports exactly the
end-to-end metrics of BENCHMARK.json and a traced run exactly its per-layer
metrics, each as a finite number with its unit; that a deliberately failing
input (``run_suite`` with a zero ``doubling`` tolerance) trips the gate, so
the run counts failures and exits 1; and that a directory holding only
BENCHMARK.json and the benchmark exits non-zero without printing a result.
Exits 0 when every check holds.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import run

SEED = 7


def expected(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def check_metrics(result, want, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{label}: metrics {got} != {want}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), \
            f"{label}: {name} = {m['value']!r}"
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, label


def check_bare_directory():
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-tmp-") as bare:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify-desk",
             "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0, "bare directory run exited 0"
    assert '"metrics"' not in proc.stdout, "bare directory run printed a result"


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    run.import_pnorbit()
    import workloads
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = expected(spec, key)
        assert want == dict(run.END_TO_END if trace == 0 else run.PER_LAYER), key
        for name in workloads.WORKLOADS:
            result, _ = run.run_benchmark(name, SEED, 1, trace, tiny=True,
                                          setup_repeats=1)
            check_metrics(result, want, f"{name} --trace {trace}")
            print(f"ok  {name:<16} --trace {trace}: {len(want)} metrics")

    result, _ = run.run_benchmark("verify-desk", SEED, 1, 0, tiny=True,
                                  tolerances={"doubling": 0.0}, setup_repeats=1)
    assert result["failed"] > 0 and not result["correct"], result
    assert run.exit_code(result) == run.EXIT_INCORRECT
    print(f"ok  zero doubling tolerance trips the gate "
          f"({result['failed']}/{result['attempted']} failed, exit 1)")

    check_bare_directory()
    print("ok  a directory without src/ exits non-zero without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
