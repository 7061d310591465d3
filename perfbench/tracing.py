"""Span tracer for the benchmark's traced runs.

The tracer wraps public pnorbit functions at the module attribute where
their callers look them up, so no file under ``src/`` changes.  Each call
of a wrapped function records one span ``(name, start, end, parent)``; the
parent is the innermost wrapped call that was open when it started.  Spans
stay in memory, and the per-name aggregates below are kept as they close:

* ``calls``   -- number of calls
* ``total_s`` -- summed span duration
* ``self_s``  -- summed duration minus the part covered by child spans

Per-value helpers such as ``cli._fmt`` are deliberately not wrapped: they
run about a million times per polytope sweep and the wrapper would cost
more than the work.
"""

import functools
import inspect
import math
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from pnorbit import cli, hermsym, poisson, spectrum, spinrep, verify


def _arg(fn, name):
    """Reader of one argument of fn, by name, from a call's (args, kwargs)."""
    sig = inspect.signature(fn)
    pos = list(sig.parameters).index(name)
    default = sig.parameters[name].default

    def read(args, kwargs):
        if len(args) > pos:
            return args[pos]
        return kwargs.get(name, default)
    return read


def _stack_size(x):
    return math.prod(np.shape(x)[:-2])


class _Proxy:
    """Attribute view of a module with a few attributes replaced."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []                      # [name, start, end, parent index]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)     # work counters
        self._open = []                      # [span index, child seconds]

    def wrap(self, name, fn, counter=None):
        """fn wrapped to record a span under name; counter(args, kwargs)
        returns {count name: increment} for work counted at the call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                for key, n in counter(args, kwargs).items():
                    tracer.counts[key] += n
            parent = tracer._open[-1][0] if tracer._open else None
            span = [name, 0.0, 0.0, parent]
            frame = [len(tracer.spans), 0.0]
            tracer.spans.append(span)
            tracer._open.append(frame)
            start = span[1] = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = span[2] = tracer.clock()
                tracer._open.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.total[name] += duration
                tracer.self_time[name] += duration - frame[1]
                if tracer._open:
                    tracer._open[-1][1] += duration
        return traced

    def count_call(self, name, fn):
        """fn wrapped to count its calls under name, without a span."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _targets(self):
        """(owner, attribute, replacement) for every traced entry point."""
        bp_count = _arg(hermsym.batch_points, "count")
        expm_x = _arg(hermsym.expm_antihermitian, "x")
        chain_ms = _arg(spectrum.chain_batch, "ms")
        dd_case = _arg(poisson.directional_derivatives, "case")

        def expm_counter(args, kwargs):
            return {"numkernel.expm_antihermitian.matrices":
                    _stack_size(expm_x(args, kwargs))}

        # expm_antihermitian is imported by name into both hermsym and
        # poisson, so each binding is wrapped; both report as numkernel.
        spanned = [
            (hermsym, "batch_points", "hermsym.batch_points",
             lambda a, k: {"hermsym.batch_points.samples": bp_count(a, k)}),
            (hermsym, "expm_antihermitian", "numkernel.expm_antihermitian",
             expm_counter),
            (poisson, "expm_antihermitian", "numkernel.expm_antihermitian",
             expm_counter),
            (spectrum, "chain_spectrum", "spectrum.chain_spectrum", None),
            (spectrum, "chain_batch", "spectrum.chain_batch",
             lambda a, k: {"spectrum.chain_batch.samples": len(chain_ms(a, k))}),
            # reported by no metric: wrapped to keep it out of cli.polytope.self_s
            (spectrum, "batch_free_values", "spectrum.batch_free_values", None),
            (spectrum, "batch_violations", "spectrum.batch_violations", None),
            (poisson, "kks_raw", "poisson.kks_raw", None),
            (poisson, "bruhat_matrix", "poisson.bruhat_matrix", None),
            (poisson, "build_pair", "poisson.build_pair", None),
            (poisson, "pencil_eigenvalues", "poisson.pencil_eigenvalues", None),
            (poisson, "directional_derivatives", "poisson.directional_derivatives",
             lambda a, k: {"poisson.flow_evals": 2 * dd_case(a, k).alg.dim}),
            (poisson, "jacobi_residual", "poisson.jacobi_residual", None),
            (poisson, "lenard_check", "poisson.lenard_check", None),
            (poisson, "nstar_eigen_residual", "poisson.nstar_eigen_residual", None),
            (poisson, "connection_check", "poisson.connection_check", None),
            (verify, "run_suite", "verify.run_suite", None),
            (verify, "vertex_probe", "verify.vertex_probe", None),
            (verify, "measure_diii_normalization",
             "verify.measure_diii_normalization", None),
            (spinrep.SpinRepresentation, "__call__", "spinrep.rep_call", None),
            (cli, "cmd_polytope", "cli.polytope", None),
        ]
        out = [(owner, attr, self.wrap(name, getattr(owner, attr), counter))
               for owner, attr, name, counter in spanned]
        # poisson reaches np.linalg.svd / pinv through its own ``np`` global
        # (build_pair and BracketPair.__post_init__): count them there only.
        linalg = _Proxy(np.linalg,
                        svd=self.count_call("poisson.linalg_svd", np.linalg.svd),
                        pinv=self.count_call("poisson.linalg_pinv", np.linalg.pinv))
        out.append((poisson, "np", _Proxy(np, linalg=linalg)))
        return out

    @contextmanager
    def installed(self):
        """Install every wrapper; the originals are restored on exit."""
        saved = []
        try:
            for owner, attr, replacement in self._targets():
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
