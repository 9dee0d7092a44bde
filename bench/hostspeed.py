"""A frozen reference computation that measures the host's current speed.

On a shared machine the speed of the CPU the benchmark gets drifts by up to
2x within a minute, and every workload slows and speeds up together.  The
closed loop times ``kernel()`` after every op, outside the op's timed
interval, and around every set-up spawn.  Each latency is then scaled by
``REFERENCE_MS`` over the kernel's median in the same quarter-second chunk
of the run, which cancels the common drift.  On a 2-vCPU Xeon, over nine
20-second windows of the example op, it cut the quartile spread of p50
from 0.26 to 0.022 of the median, and of p95 from 0.24 to 0.051.

The kernel mixes what the workloads do: JSON parsing, dict and float
loops, numpy element loops and log/exp, CSV writing.  It never calls
evicrit, so a change to the package cannot move it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
import time

import numpy as np

#: typical time of kernel() on the machine the benchmark was defined on
#: (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4; measured 1.2-2.5 ms, median
#: 2.1 ms); scaled latencies read as milliseconds on that machine
REFERENCE_MS = 2.0
#: the drift is slower than this, so one speed factor per chunk suffices
CHUNK_S = 0.25

_rng = np.random.default_rng(20190424)
_MATRICES = np.exp(_rng.normal(size=(4, 60, 60)))
_TEXT = json.dumps({"rows": _rng.uniform(size=(40, 40)).tolist()})


def kernel() -> str:
    doc = json.loads(_TEXT)
    acc: dict[int, float] = {}
    for i, row in enumerate(doc["rows"]):
        for j, v in enumerate(row):
            key = (i * 7 + j) % 31
            acc[key] = acc.get(key, 0.0) + v * v
    total = math.fsum(acc.values())
    m = np.exp(np.log(_MATRICES).mean(axis=0))
    n = m.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            m[j, i] = 1.0 / m[i, j]
    buf = io.StringIO()
    writer = csv.writer(buf)
    for key, value in sorted(acc.items()):
        writer.writerow((key, repr(value / total), repr(float(m[key % n, 0]))))
    return buf.getvalue()


def timed_kernel() -> float:
    """Seconds one run of kernel() takes now."""
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


def factor(kernel_times: list[float]) -> float:
    """The host's speed factor: median kernel time over REFERENCE_MS (above 1
    is slower than the reference)."""
    return 1e3 * statistics.median(kernel_times) / REFERENCE_MS


def scaled(starts: list[float], latencies: list[float],
           kernel_times: list[float]) -> tuple[list[float], float]:
    """Latencies scaled to the reference speed, plus the run's speed factor.

    ``starts`` are op start times in seconds from the loop's start, and
    ``kernel_times[i]`` is the kernel run that followed op ``i``.
    """
    by_chunk: dict[int, list[float]] = {}
    for start, k in zip(starts, kernel_times):
        by_chunk.setdefault(int(start // CHUNK_S), []).append(k)
    chunk_factor = {c: factor(ks) for c, ks in by_chunk.items()}
    out = [lat / chunk_factor[int(start // CHUNK_S)] for start, lat in zip(starts, latencies)]
    return out, factor(kernel_times)
