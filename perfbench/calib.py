"""Host-speed calibration for the cmwitness benchmark.

The benchmark runs on shared virtual machines whose speed drifts by
tens of percent within minutes, with wall and CPU time moving together,
so raw times of one build differ more between runs than the bounds of
``BENCHMARK.json`` allow.  The run therefore measures the host's speed
while it works: a calibration burst, a fixed piece of pure-Python work
that never calls ``cmwitness`` (sparse products over Z in dicts keyed
by exponent tuples, the kind of work the package does), runs between
timed units at least every ``INTERVAL_S``, and from a timer signal
inside units that last hundreds of milliseconds or more
(``HostClock.sampling``), whose time is then taken out of the unit's.
Each timed unit is scaled by ``REFERENCE_BURST_S`` over the median
burst near it, so reported times read as seconds on a host whose burst
takes the reference time.  A change to the package moves the timed
units and not the bursts, so the scaled times keep the full effect of
the change.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import statistics
import time
from typing import Iterator, List

# Median time of a burst between units in runs on a 2-vCPU Xeon VM with
# CPython 3.11, so that scaled times there read close to raw ones.  A
# burst between units runs with colder caches than one repeated back to
# back, which takes about 3.4 ms there.
REFERENCE_BURST_S = 0.0060
INTERVAL_S = 0.05
# Bursts within this distance of a unit, or within the unit's own
# length if that is longer, estimate the host's speed during it.
MIN_WINDOW_S = 0.1

_BASE = {
    (i, j, k): (3 * i - 2 * j + k + 1) * (-1) ** (i + k)
    for i in range(3)
    for j in range(3)
    for k in range(3)
}


def _product(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def burst() -> float:
    """Run the fixed calibration work once; return its wall time in seconds."""
    enabled = gc.isenabled()
    gc.disable()  # the package's heap must not slow the burst down
    try:
        t0 = time.perf_counter()
        p = _BASE
        for _ in range(3):
            p = _product(p, _BASE)
            p = {e: c % 1000003 for e, c in p.items()}
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if sum(p.values()) != 354007623:
        raise RuntimeError("calibration burst computed a wrong product")
    return elapsed


class HostClock:
    """Calibration bursts of one run, by the time they ran."""

    def __init__(self) -> None:
        self.at: List[float] = []
        self.cost: List[float] = []
        self.busy = 0.0  # seconds spent in bursts, bookkeeping included

    def burst(self) -> None:
        t0 = time.perf_counter()
        cost = burst()
        now = time.perf_counter()
        self.at.append(now)
        self.cost.append(cost)
        self.busy += now - t0

    @contextlib.contextmanager
    def sampling(self) -> Iterator[None]:
        """Burst every ``INTERVAL_S`` inside the block, from SIGALRM.

        For units that last hundreds of milliseconds or more, where
        bursts between units say little about the host's speed during
        the unit.  The caller takes the growth of ``busy`` out of the
        unit's time.
        """
        previous = signal.signal(signal.SIGALRM, lambda _signum, _frame: self.burst())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def tick(self) -> None:
        """Burst if none ran in the last ``INTERVAL_S``."""
        if not self.at or time.perf_counter() - self.at[-1] >= INTERVAL_S:
            self.burst()

    def scale(self, start: float, end: float) -> float:
        """Reference over local speed for a unit that ran from ``start`` to ``end``."""
        reach = max(end - start, MIN_WINDOW_S)
        lo = bisect.bisect_left(self.at, start - reach)
        hi = bisect.bisect_right(self.at, end + reach)
        near = self.cost[lo:hi]
        if not near:
            raise RuntimeError("no calibration burst near a timed unit")
        return REFERENCE_BURST_S / statistics.median(near)

    def factor(self) -> float:
        """Reference over median burst time of the whole run."""
        return REFERENCE_BURST_S / statistics.median(self.cost)
