"""The machine-speed probe that scales every timed metric.

On a shared virtual machine the speed of the whole machine drifts with the
load of other tenants, in spells of a minute or more, by up to 1.65x.  A
step timed in a slow spell is slower for reasons that have nothing to do
with the program.  So each timed figure is also divided by the speed
factor measured around it (see README.md, "Steadiness and bounds"):

    calibrated seconds = measured seconds / factor

`sample()` runs a fixed kernel of three parts, each a kind of work the
program's steps are made of: a pure-Python loop (interpreter), `np.sin` on
a 2 MB array (vectorised numpy) and a 16 MB copy (memory bandwidth).  The
factor is the geometric mean over the parts of (part time / REFERENCE),
where REFERENCE holds the part times measured on the 2-core Xeon virtual
machine the benchmark was calibrated on.  A factor of 1.3 means the machine runs 1.3x slower than
that reference now; calibrated seconds are then the seconds the same work
takes at the reference speed.  The kernel is the benchmark's own code, so
no change to startorus moves it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# seconds of each part at the reference speed (fastest of many calls)
REFERENCE = {"python": 5.4e-3, "numpy": 2.95e-3, "memory": 2.6e-3}
REPEATS = 2  # each part runs this many times per sample; its fastest counts

_SIN_IN = np.linspace(0.0, 1.0, 1 << 18)
_SIN_OUT = np.empty_like(_SIN_IN)
_COPY_IN = np.linspace(0.0, 1.0, 1 << 21)
_COPY_OUT = np.empty_like(_COPY_IN)


def _python():
    total = 0
    for i in range(60_000):
        total += i * i
    return total


def _numpy():
    np.sin(_SIN_IN, out=_SIN_OUT)


def _memory():
    np.copyto(_COPY_OUT, _COPY_IN)


PARTS = {"python": _python, "numpy": _numpy, "memory": _memory}


def sample() -> float:
    """One speed factor: 1.0 at the reference speed, larger when slower."""
    logs = []
    for name, part in PARTS.items():
        best = math.inf
        for _ in range(REPEATS):
            start = time.perf_counter()
            part()
            best = min(best, time.perf_counter() - start)
        logs.append(math.log(best / REFERENCE[name]))
    return math.exp(sum(logs) / len(logs))


class Probe:
    """Collects speed factors and the time spent measuring them."""

    def __init__(self):
        self.factors: list[float] = []
        self.spent = 0.0

    def sample(self) -> float:
        start = time.perf_counter()
        factor = sample()
        self.spent += time.perf_counter() - start
        self.factors.append(factor)
        return factor

    def factor(self) -> float:
        return statistics.median(self.factors)
