"""The benchmark's span tracer still hooks every layer it reports.

perfbench/tracing.py reads some arguments of the traced functions by name
(for example directional_derivatives' ``case``); this guards it against
renamed parameters without running the benchmark.
"""

import importlib.util
from pathlib import Path

from pnorbit import cli, verify

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# every traced layer that run_suite reaches on an aiii case
VERIFY_LAYERS = [
    "hermsym.batch_points", "numkernel.expm_antihermitian",
    "spectrum.chain_batch",
    "spectrum.batch_free_values", "poisson.kks_raw", "poisson.bruhat_matrix",
    "poisson.build_pair", "poisson.pencil_eigenvalues",
    "poisson.directional_derivatives", "poisson.jacobi_residual",
    "poisson.lenard_check", "poisson.nstar_eigen_residual",
    "poisson.connection_check", "verify.run_suite", "verify.vertex_probe",
]

# the polytope path: sampler, exponential and chain extraction under the command
POLYTOPE_LAYERS = ["hermsym.batch_points", "numkernel.expm_antihermitian",
                   "spectrum.chain_batch", "cli.polytope"]


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_covers_the_verify_path():
    tracer = load_tracing().Tracer()
    # _targets resolves the arguments it reads by name when it builds them
    originals = {(owner, attr): owner.__dict__[attr]
                 for owner, attr, _ in tracer._targets()}
    with tracer.installed():
        verify.run_suite("aiii:k=1,n=2", 3)
    assert [name for name in VERIFY_LAYERS if not tracer.calls[name]] == []
    # the counters read those arguments at every call: count, x, ms, case
    for key in ("hermsym.batch_points.samples",
                "numkernel.expm_antihermitian.matrices",
                "spectrum.chain_batch.samples"):
        assert tracer.counts[key] > 0, key
    dim = 3                                     # su(2)
    assert tracer.counts["poisson.flow_evals"] == (
        2 * dim * tracer.calls["poisson.directional_derivatives"])
    # the bracket layer takes no SVD, per case or per point
    assert tracer.counts["poisson.linalg_svd"] == 0
    left_wrapped = [attr for (owner, attr), fn in originals.items()
                    if owner.__dict__[attr] is not fn]
    assert left_wrapped == []


def test_tracer_covers_the_bdi_spin_checks():
    tracer = load_tracing().Tracer()
    with tracer.installed():
        verify.run_suite("bdi:m=5", 3)
    assert tracer.calls["spinrep.rep_call"] > 0


def test_tracer_covers_the_spectrum_command(capsys):
    # run_suite reads the chain as chain_free_vector; the per-point view
    # chain_spectrum is reached by the spectrum command
    tracer = load_tracing().Tracer()
    with tracer.installed():
        assert cli.main(["spectrum", "--case", "ci:n=2"]) == 0
    assert tracer.calls["spectrum.chain_spectrum"] == 1
    assert tracer.counts["spectrum.chain_batch.samples"] == 1


def test_tracer_covers_the_polytope_path(tmp_path, capsys):
    tracer = load_tracing().Tracer()
    with tracer.installed():
        assert cli.main(["polytope", "--case", "ci:n=2", "--samples", "50",
                         "--output", str(tmp_path / "poly.csv")]) == 0
    assert [name for name in POLYTOPE_LAYERS if not tracer.calls[name]] == []
    assert tracer.counts["hermsym.batch_points.samples"] == 50
    assert tracer.counts["numkernel.expm_antihermitian.matrices"] >= 50
    assert tracer.counts["spectrum.chain_batch.samples"] == 50
