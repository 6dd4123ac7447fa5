"""Machine-speed calibration for the timed metrics.

The CPU speed of a small shared host can drift by half over tens of
seconds while nothing in the benchmark changes.  So a fixed kernel is
timed before a timed interval and between the items in it, and the
interval is reported in reference seconds: its raw seconds times the
kernel's reference time over its mean time in the interval.  Neither
kernel touches ballrep, so a change to ballrep moves the reported times
and leaves the kernels alone.

Two kernels, because in-process work and process start-up do not slow
down alike: ``compute_seconds`` (Python bytecode and small and large numpy
operations, the mix ballrep itself runs) for in-process workloads, and
``startup_seconds`` (a bare interpreter start) for set-up and for the
command-line workload.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

_SMALL = np.linspace(0.1, 1.0, 8)
_LARGE = np.linspace(0.1, 1.0, 8192)


def compute_seconds() -> float:
    """Time one run of the fixed in-process kernel."""
    start = time.perf_counter()
    s = 0
    for i in range(30000):
        s += (i * 7) % 13
    for _ in range(1000):
        s += float(np.prod(_SMALL ** 3))
    for _ in range(80):
        s += float(np.sum(_LARGE ** 2.5 * _LARGE))
    return time.perf_counter() - start


def startup_seconds() -> float:
    """Time one start of a bare interpreter."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start


# about each kernel's time on the 2-core Intel Xeon the benchmark was built on
REFERENCE_S = {compute_seconds: 0.014, startup_seconds: 0.070}


class Clock:
    """Kernel samples taken between the items of one timed interval."""

    def __init__(self, kernel=compute_seconds, samples: int = 1):
        self.kernel = kernel
        self.samples = [kernel() for _ in range(samples)]

    def tick(self):
        self.samples.append(self.kernel())

    def scale(self) -> float:
        """Reference time over the mean kernel time; starts a new interval."""
        factor = REFERENCE_S[self.kernel] / statistics.fmean(self.samples)
        self.samples = [self.samples[-1]]
        return factor
