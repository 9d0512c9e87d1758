"""Host-speed calibration of the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts by 30% or more over
minutes, for every program alike.  So each worker times a fixed reference
kernel, benchmark code that no change to the library touches, every
``EVERY_S`` seconds between two jobs, and the timings are reported at a
reference speed: a latency ``t`` measured while the kernel took ``k`` seconds
is reported as ``t * REF_S / k``, where ``k`` is the median kernel time within
``WINDOW_S`` seconds of the job.  A change that makes the library slower or
faster moves the job times and not the kernel, so it shows in full.  The
wall-clock figures are kept beside the calibrated ones in the result file.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: kernel time of the reference host (a 2-vCPU x86-64 virtual machine);
#: calibrated timings read as if measured on it
REF_S = 4.0e-3
#: wall time between two kernel samples of a run (about 2% of it)
EVERY_S = 0.25
#: half-width of the window of kernel samples that calibrates a job
WINDOW_S = 5.0

_SMALL = np.linspace(0.01, 1.0, 64)
_LARGE = np.linspace(0.01, 1.0, 256)


def _interpreted() -> float:
    acc = 0.0
    table = {}
    for i in range(12000):
        acc += (i * 0.5) ** 0.5
        table[i & 63] = acc
    return acc


def _small_arrays() -> float:
    v = _SMALL
    for _ in range(300):
        v = np.sort(np.log1p(v) * 1.0001 + v @ v * 1e-6)
    return float(v[0])


def _large_arrays() -> float:
    m = np.add.outer(_LARGE, _LARGE)
    for _ in range(8):
        m = np.minimum(m, m.T * 0.999 + 0.001)
    return float(m[0, 0])


#: the kernel's parts: an interpreted loop, small numpy calls and array
#: passes over a 256x256 matrix, about 1.4 ms each on the reference host
PARTS = (_interpreted, _small_arrays, _large_arrays)


def kernel() -> list:
    """Time each part of the kernel once; return their times in seconds."""
    times = []
    for part in PARTS:
        t0 = time.perf_counter()
        part()
        times.append(time.perf_counter() - t0)
    return times


class Meter:
    """Kernel samples of one process: (perf_counter at start, seconds, and
    the seconds of each part)."""

    def __init__(self, warmup: int = 3):
        for _ in range(warmup):
            kernel()
        self.samples: list = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        parts = kernel()
        self.samples.append((t0, sum(parts), *parts))

    def due(self) -> bool:
        return not self.samples or time.perf_counter() - self.samples[-1][0] >= EVERY_S

    def median(self) -> float:
        return statistics.median(s[1] for s in self.samples)


def calibrate(starts: list, latencies: list, samples: list) -> list:
    """Latencies at the reference speed, each by the median kernel time of
    the samples within WINDOW_S of the job's start (all samples if none)."""
    times = [s[0] for s in samples]
    out = []
    for t0, latency in zip(starts, latencies):
        lo = bisect.bisect_left(times, t0 - WINDOW_S)
        hi = bisect.bisect_right(times, t0 + WINDOW_S)
        near = [s[1] for s in samples[lo:hi]] or [s[1] for s in samples]
        out.append(latency * REF_S / statistics.median(near))
    return out
