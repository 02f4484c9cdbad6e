"""Machine-speed reference: a fixed numpy kernel timed between operations.

On a shared machine, Python-bound code runs at a speed that drifts by
tens of percent for minutes at a time, so two runs of identical work can
differ by 30% even at their fastest repeats.  The drift moves all
Python-bound work together.  This kernel does the kind of work that
dominates kdlab's hot path: an 8x8 Hermitian eigendecomposition, a
simplex projection of its spectrum, and a clamp in a discrete-Fourier
table.  It is written in plain numpy, so no change to kdlab can move it.
Its median time over a run, divided by ``NOMINAL_S``, is the run's
slowdown, and the end-to-end times are divided by it.  Over ten 25-second
runs of the witness workload, dividing cut the spread (IQR over median)
of ``run_s`` from 0.18 to 0.07; README.md gives the other workloads.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median time of one kernel call on the machine described in README.md, so
# that corrected times read close to raw ones there.
NOMINAL_S = 3.5e-3
INTERVAL_S = 0.1      # least time between two sampling points
CALLS_PER_SAMPLE = 3


class SpeedReference:
    def __init__(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(40, 8, 8)) + 1j * rng.normal(size=(40, 8, 8))
        self.matrices = [(m + m.conj().T) / 2 for m in raw]
        self.dft = np.exp(2j * np.pi * np.outer(np.arange(8), np.arange(8)) / 8)
        self.samples: list[float] = []
        self._last = -np.inf

    def kernel(self) -> None:
        X = self.dft
        ks = np.arange(1, 9)
        for a in self.matrices:
            w, v = np.linalg.eigh(a)
            u = np.sort(w)[::-1]
            css = np.cumsum(u) - 1.0
            k = np.max(np.nonzero(u - css / ks > 0)[0]) + 1
            m = (v * np.clip(w - css[k - 1] / k, 0.0, None)) @ v.conj().T
            table = X.conj().T * ((m @ X.T) / 8)
            np.linalg.norm(np.clip(table.real, 0.0, None).astype(complex) @ X)

    def sample_if_due(self) -> None:
        """Time a few kernel calls, unless the last ones were under INTERVAL_S ago."""
        if time.perf_counter() - self._last < INTERVAL_S:
            return
        for _ in range(CALLS_PER_SAMPLE):
            start = time.perf_counter()
            self.kernel()
            self._last = time.perf_counter()
            self.samples.append(self._last - start)

    def slowdown(self) -> float:
        return statistics.median(self.samples) / NOMINAL_S
