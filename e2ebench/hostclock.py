"""Timings in reference seconds: wall time scaled by the host's speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 2x over minutes and jumps between a fast and a slow state within
seconds, while the VM sees almost no steal time and a process's CPU time
stays within a few percent of its wall time (see README.md,
"Steadiness").  Pure wall time of identical work then spreads by a third
across ten runs.

:class:`HostClock` measures the host's speed all through a run.  While
it is open, an interval timer interrupts the process every
:data:`INTERVAL_S` seconds of wall time, and the handler times one short
calibration slice: a fixed pure-Python loop.  The clock integrates
``(REFERENCE_SLICE_S / slice time) ** SENSITIVITY`` over wall time, so it
reads the seconds the work would take on a host where a slice takes
``REFERENCE_SLICE_S``.  Time spent in the handler is left out.

The calibration shares no code with the program, so a change to the
program moves reference seconds as it moves wall time on a host of
steady speed.  The handler touches no program state and draws no random
numbers, so every output of the program is unchanged.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Wall time of one calibration slice on the reference host.  It only
#: sets the scale: timings read as seconds on a host this fast.
REFERENCE_SLICE_S = 0.002
#: How much more the program's time moves with the host's speed than the
#: loop's does: over 60 runs of the three workloads timed with a power
#: of 1, the log of a round's wall time fell with the log of the loop's
#: speed at slopes of 1.35, 1.40 and 1.51 (README.md, "Host speed").
SENSITIVITY = 1.4
#: Wall seconds between two calibration slices.
INTERVAL_S = 0.1
_LOOP = 30_000


def calibration_slice() -> float:
    """Wall seconds of one pass of the fixed calibration loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(_LOOP):
        acc += i * i
    return time.perf_counter() - t0


class HostClock:
    """A clock that runs at the host's speed, and a lap timer over it.

    Use it as a context manager: the interval timer runs, and the clock
    advances, only inside the ``with`` block.  It takes over
    ``SIGALRM`` there, so it is for the main thread of a process that
    does not use that signal itself.
    """

    def __init__(self) -> None:
        #: Clock rate at each calibration: the host's speed as a share of
        #: the reference, to the power SENSITIVITY.
        self.rates: list[float] = []
        #: (reference seconds, wall seconds) of every lap so far.
        self.laps: list[tuple[float, float]] = []
        self.calibration_s = 0.0
        self._ticks = 0
        self._in_handler = False
        self._ref = 0.0
        self._mark = 0.0
        self._rate = 0.0
        self._lap_ref = 0.0
        self._lap_wall = 0.0
        self._previous_handler = None

    def _on_alarm(self, signum, frame) -> None:
        # Python runs a handler between two bytecodes of the main thread,
        # so it can run inside another call of itself if one slice ever
        # outlasts the interval: skip that one.
        if self._in_handler:
            return
        self._in_handler = True
        start = time.perf_counter()
        rate = (REFERENCE_SLICE_S / calibration_slice()) ** SENSITIVITY
        self.rates.append(rate)
        # Trapezoid rule over the interval that ends here.
        self._ref += (start - self._mark) * 0.5 * (self._rate + rate)
        self._rate = rate
        self._mark = time.perf_counter()
        self.calibration_s += self._mark - start
        self._ticks += 1
        self._in_handler = False

    def __enter__(self) -> "HostClock":
        self._rate = (REFERENCE_SLICE_S / statistics.median(
            calibration_slice() for _ in range(3)
        )) ** SENSITIVITY
        self.rates.append(self._rate)
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        self._mark = time.perf_counter()
        self._lap_wall = self._mark
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def now(self) -> float:
        """Reference seconds since the clock was opened."""
        # The handler may run between any two bytecodes here; read again
        # if it did.
        while True:
            ticks = self._ticks
            value = self._ref + (time.perf_counter() - self._mark) * self._rate
            if ticks == self._ticks:
                return value

    def lap(self) -> float:
        """Reference seconds since the last lap (or since the clock opened)."""
        ref, wall = self.now(), time.perf_counter()
        seconds = ref - self._lap_ref
        self.laps.append((seconds, wall - self._lap_wall))
        self._lap_ref, self._lap_wall = ref, wall
        return seconds

    def since(self, first_lap: int) -> tuple[float, float]:
        """(reference, wall) seconds of the laps from ``first_lap`` on."""
        laps = self.laps[first_lap:]
        return sum(r for r, _ in laps), sum(w for _, w in laps)

    @property
    def rate(self) -> float:
        """Mean clock rate over the calibrations (see ``rates``)."""
        return statistics.fmean(self.rates)
