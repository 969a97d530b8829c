"""Machine-speed probe: scales measured times to a reference speed.

The benchmark runs on small shared hosts whose speed drifts.  On the
2-CPU container the benchmark was built on, one `mesh-best` repetition
took 2.3 s and another, a few minutes later, 6.3 s.  The CPU time moved
with it, so the drift is a slower CPU, not waiting, and a slow phase
outlasts a whole run, so repetitions cannot average it away.

So every repetition times three fixed kernels that share no code with the
program: a numpy Floyd–Warshall sweep, a scipy Dijkstra all-pairs run and
a pure-Python dictionary loop.  Their arrays are small, so they do not
move the peak resident set.  It times them at process start, after its
set-up and after its last timed phase.  The geometric mean of the
kernels' slowdowns against the reference times below is the speed
factor, and the reported times are the measured ones divided by it:
seconds at the reference speed.  A change to the program cannot move the
probe, so it moves the scaled times exactly as it moves the measured
ones.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.sparse.csgraph import shortest_path

# Typical best-of-three kernel times on the container the benchmark was
# built on; they only fix the unit ("seconds at this speed").
REFERENCE_S = {"numpy": 0.0048, "scipy": 0.026, "python": 0.018}


def _numpy_kernel() -> None:
    a = np.random.default_rng(0).random((160, 160))
    for k in range(160):
        np.minimum(a, a[:, k : k + 1] + a[k : k + 1, :], out=a)


def _scipy_kernel() -> None:
    rng = np.random.default_rng(1)
    w = np.where(rng.random((250, 250)) < 0.05, rng.random((250, 250)), 0.0)
    shortest_path(w, method="D", directed=False)


def _python_kernel() -> None:
    counts: dict[int, int] = {}
    for i in range(150_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i


KERNELS = {"numpy": _numpy_kernel, "scipy": _scipy_kernel, "python": _python_kernel}


def kernel_times() -> dict[str, float]:
    """Best of three timings of each kernel, in seconds."""
    out = {}
    for name, kernel in KERNELS.items():
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        out[name] = best
    return out


def speed_factor(*samples: dict[str, float]) -> float:
    """Reference speed over current speed (> 1 when the host is slower).

    Each kernel's time is averaged over ``samples``; the factor is the
    geometric mean of the kernels' slowdowns.
    """
    logs = [
        math.log(sum(s[name] for s in samples) / len(samples) / ref)
        for name, ref in REFERENCE_S.items()
    ]
    return math.exp(sum(logs) / len(logs))
