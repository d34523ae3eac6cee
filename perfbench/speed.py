"""Machine-speed calibration, so that timings from runs made minutes apart compare.

On a shared 2-core VM the same fixed work takes from 6.9 ms to 13.4 ms
depending on the 5-second window it runs in (medians of about 450 repeats
each), and the raw wall time of a workload spread by up to 0.29 of its
median over ten runs.  A run therefore samples a small fixed kernel every
``INTERVAL_S`` between scenarios and scales its times by ``REF_S`` over the
kernel's mean time.  The kernel is the same mix as the program's hot path:
elementwise numpy work on a few hundred floats, driven from Python.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REF_S = 0.8e-3  # the kernel's typical time between scenarios on a 2-core Xeon VM
INTERVAL_S = 0.2
_X = np.linspace(0.1, 2.0, 257)


def _work() -> None:
    for _ in range(100):
        y = np.where(_X == 0.0, 0.0, _X * _X) ** 0.5
        float(np.sum(y))


def kernel() -> float:
    """Seconds taken by a fixed piece of work, after one untimed round so that
    what ran before (cache contents) does not count."""
    _work()
    t = perf_counter()
    _work()
    return perf_counter() - t


def speed_scale(samples) -> float:
    """Factor that maps times measured alongside ``samples`` to the reference speed."""
    return REF_S / statistics.fmean(samples)


class SpeedProbe:
    """Kernel samples taken through a run; ``scale`` maps its times to the
    reference speed."""

    def __init__(self):
        self.samples = [kernel()]
        self._next = perf_counter() + INTERVAL_S

    def poll(self) -> None:
        """Take a sample if ``INTERVAL_S`` has passed since the last one."""
        if perf_counter() >= self._next:
            self.samples.append(kernel())
            self._next = perf_counter() + INTERVAL_S

    def scale(self) -> float:
        return speed_scale(self.samples)
