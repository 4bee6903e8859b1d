"""A fixed reference kernel that measures how fast the host runs Python now.

On the shared hosts this benchmark was written on, interpreter-bound code
(many short Python-level calls on small numpy arrays) speeds up and slows
down by a third or more over minutes, with CPU time tracking wall time, so
no estimator inside one run can tell a slow program from a slow minute.
Code dominated by passes over large arrays drifts much less.

For a workload whose rounds are interpreter-bound (``reference_scaled`` in
``workloads.py``: ``orlicz-scales``), ``run.py`` runs :func:`kernel` after
every round and reports round times in *reference seconds*:

    reference seconds = measured seconds * NOMINAL_S / kernel seconds

that is, the time the round would take on a host that runs the kernel in
``NOMINAL_S``.  The kernel uses no besovbm code, so a change to the library
moves reference seconds exactly as it moves measured seconds.  Its two parts
are the two kinds of work of the Orlicz solvers: plain interpreter work and
numpy calls on short arrays.  The measured times are printed in the ``info``
line as well.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.12  # about what the kernel took on the host the benchmark was written on
_SHORT = np.random.default_rng(0).random(64)


def kernel() -> float:
    """The fixed work; returns a checksum so no part can be skipped."""
    total, table = 0, {}
    for i in range(720_000):
        total += (i * 7) % 13
        table[i & 255] = total
    acc, short = 0.0, _SHORT
    for _ in range(12_000):
        acc += float(np.sum(np.abs(short) ** 2.0))
        short = short * 0.999
    return acc + total


def timed_kernel() -> tuple[float, float]:
    """Wall and CPU seconds of one kernel run."""
    cpu, wall = time.process_time(), time.perf_counter()
    kernel()
    return time.perf_counter() - wall, time.process_time() - cpu
