"""Host-speed calibration: a fixed kernel timed next to every measured step.

On a shared host the speed of a core switches between fast and slow phases
(about 1.7x apart) that last from seconds to minutes, and pure-Python
big-integer code, mpmath and numpy slow down together.  A run of tens of
seconds cannot average that out.  So the worker times this kernel right
before an op, between the op's parts and right after it, and the op's times
are rescaled by ``REFERENCE_S`` over the mean kernel time of that op.  The
reported times are then seconds on a host where the kernel takes
``REFERENCE_S``.  The raw times are kept with the run's details.

The kernel has three equal parts, one for each kind of work the workloads
do: big-integer arithmetic in pure Python (mpmath's ``python`` backend),
numpy element-wise passes over a small array (the float Lyapunov kernels)
and an interpreted scalar float loop (the direction and candidate loops).
Of the mixes tried, this one tracked the op times of all three workloads
best.  It touches neither qpspec nor mpmath, so it fills none of their
caches.
"""

from __future__ import annotations

import resource
import time

import numpy as np

REFERENCE_S = 0.12  # the kernel's wall time on the reference host, seconds

_BITS = 2500
_BIG_STEPS = 3500
_ARRAY = np.linspace(0.0, 3.0, 10_000)   # small, so peak memory does not move
_ARRAY_PASSES = 160
_SCALAR_STEPS = 300_000


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _kernel() -> int:
    a, b = (3 ** 1577) | 1, (7 ** 890) | 1
    for _ in range(_BIG_STEPS):
        a = ((a * b) >> _BITS) | (1 << (_BITS - 1))
    acc = 0.0
    for _ in range(_ARRAY_PASSES):
        acc += float(np.log(np.cos(_ARRAY) * 0.5 + np.abs(np.sin(_ARRAY)) + 1.0).sum())
    s, c = 0.0, 1.0
    for k in range(_SCALAR_STEPS):
        s, c = 0.999 * s + 0.001 * c, c - 1e-7 * k * s
    return a % 1_000_003 ^ int(acc) ^ int(1e6 * s)


def sample() -> tuple[float, float]:
    """Run the kernel once; returns (wall s, CPU s)."""
    t0, c0 = time.perf_counter(), _cpu()
    _kernel()
    return time.perf_counter() - t0, _cpu() - c0
