"""Fixed CPU kernels that tell how fast the machine runs at the moment.

Other tenants of a shared CPU slow everything on it in bursts, by up to
about 1.8x and for milliseconds to minutes.  The harness runs a kernel
before and after every timed operation and divides the operation's time by
the mean of the two, so a burst that slows both cancels out.  The kernels
use nothing from the program, so a change to the program never moves them.

Bursts slow interpreter-bound code about twice as much as vectorized numpy
code, so each operation names the kernel that matches its work:
``mixed`` (dict and str work plus a numpy sort) for code that spends its
time in the interpreter, ``vector`` (elementwise passes over a 160k-sample
float array and small matrix products) for array-bound code.  Around a long
operation a kernel runs for longer (a share of the operation's time on
each side), so that it samples the machine's speed over a comparable
stretch.

A kernel's ratio is turned back into seconds by its idle time on the
machine the benchmark was built on (a 2-vCPU Intel Xeon VM, Python 3.11,
numpy 2.4, scipy 1.17), so normalized times read as wall-clock times on
that machine when nothing else runs on it.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

MAX_RUNS = 40
# Inputs and outputs are allocated once: a kernel that allocated large
# arrays would run at a speed set by the allocator's state, which the
# program's own allocations change.
_SORT = np.random.default_rng(0).permutation(150_000).astype(np.float64)
_SIGNAL = np.random.default_rng(1).standard_normal(160_000)
_BUF = np.empty_like(_SORT)
_OUT = np.empty_like(_SIGNAL)
_MAT = np.random.default_rng(2).standard_normal((96, 96))
_PROD = np.empty_like(_MAT)


def _mixed() -> None:
    table: dict[int, int] = {}
    for i in range(9_000):
        k = i % 997
        table[k] = table.get(k, 0) + len(str(i))
    np.multiply(_SORT, 1.0001, out=_BUF)
    _BUF.sort()


def _vector() -> None:
    for _ in range(6):
        np.multiply(_SIGNAL, 0.3, out=_OUT)
        np.add(_OUT, _SIGNAL, out=_OUT)
        np.abs(_OUT, out=_OUT)
        np.sqrt(_OUT, out=_OUT)
    for _ in range(12):
        np.matmul(_MAT, _MAT, out=_PROD)
        np.tanh(_PROD, out=_PROD)


# kernel and its idle time per run on the reference machine, in seconds
KERNELS: dict[str, tuple[Callable[[], None], float]] = {
    "mixed": (_mixed, 0.0023),
    "vector": (_vector, 0.0025),
}


def slowdown(kind: str = "mixed", span_s: float = 0.0) -> float:
    """How much slower than at idle the ``kind`` kernel runs now: one
    untimed run to warm the caches the operation before it used, then the
    mean time of as many runs as fit in about ``span_s`` seconds (at least
    one, at most MAX_RUNS), divided by the kernel's reference time."""
    kernel, ref = KERNELS[kind]
    runs = max(1, min(MAX_RUNS, round(span_s / ref)))
    kernel()
    start = time.perf_counter()
    for _ in range(runs):
        kernel()
    return (time.perf_counter() - start) / runs / ref
