"""Host-speed reference for the benchmark's timings.

On a shared host the same work can take twice as long from one minute to
the next.  Measured on a 2-core VM with a fixed 0.4 s unit of pnorbit work,
the unit ran between 0.25 s and 0.55 s within seven minutes.  Its thread CPU
time moved with its wall time, so the slowdown is in the host, not in
waiting.  Raw wall time then measures the host as much as the code.

So the run times a fixed reference kernel during the measured work, from a
timer signal every INTERVAL_S seconds, and reports *reference seconds*:

    reference seconds = work seconds * REFERENCE_S / mean kernel seconds

This is the time the work would take on a host state in which the kernel
takes REFERENCE_S.  Work seconds come from ``SpeedSampler.clock``, which
stops while the kernel runs, so the kernel's own time is not counted.  The
kernel does not touch pnorbit.  At a steady host speed, a change to pnorbit
moves reference seconds exactly as it moves wall seconds.  The kernel's mix
is the one pnorbit's layers run: stacked einsum, small eigh and svd, and a
Python loop.  The report line keeps the raw wall times.
"""

import signal
import time
from contextlib import contextmanager

import numpy as np

REFERENCE_S = 0.015        # about the kernel's time on the host named above
INTERVAL_S = 0.25

_rng = np.random.default_rng(12345)
_STACK = _rng.standard_normal((28, 8, 8)) + 1j * _rng.standard_normal((28, 8, 8))
_HERM = _rng.standard_normal((64, 6, 6))
_HERM = _HERM + _HERM.transpose(0, 2, 1)
_SQUARE = _rng.standard_normal((28, 28))


def _kernel():
    for _ in range(20):
        np.einsum("aij,bji->ab", _STACK, _STACK)
        np.linalg.eigh(_HERM)
        np.linalg.svd(_SQUARE)
        for block in _HERM[:20]:
            np.abs(block).max()


class SpeedSampler:
    """Kernel timings taken during measured work, and a work clock."""

    def __init__(self):
        self.samples = []           # kernel seconds, in the order taken
        self._kernel_total = 0.0

    def clock(self):
        """perf_counter minus the time spent in the kernel so far."""
        return time.perf_counter() - self._kernel_total

    def sample(self):
        start = time.perf_counter()
        _kernel()
        took = time.perf_counter() - start
        self.samples.append(took)
        self._kernel_total += took

    def scale_since(self, index):
        """Wall-to-reference factor from the samples taken since `index`."""
        taken = self.samples[index:]
        return REFERENCE_S * len(taken) / sum(taken)

    @contextmanager
    def running(self):
        """Sample now, then every INTERVAL_S seconds until the block exits.
        Yields the index of the first sample, for ``scale_since``."""
        first = len(self.samples)
        self.sample()
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield first
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
