"""Time scaled to a nominal CPU speed.

The cores this benchmark runs on can be shared with other work, and the
speed a core gives one process then drifts, by up to 1.5x in phases of
seconds to minutes; the raw wall time of the same work differs between runs
by more than the benchmark's bounds. So a short fixed workload,
``calibrate()``, is timed alongside the work, and the work's time is scaled
by ``NOMINAL_S`` over the calibration: the result is the time the work would
take on a CPU that runs the calibration in ``NOMINAL_S``. A change to the
program moves the scaled time as it moves the raw time; a change in the
host's speed moves the work and the calibration alike, and cancels.
``ScaledClock`` calibrates between intervals of work done in the calling
thread; ``BackgroundCalibration`` calibrates on a thread of its own while
the work runs in other processes. Results keep the raw times and the
factors in their ``info``.
"""

from __future__ import annotations

import threading
from statistics import median
from time import perf_counter, thread_time

import numpy as np

#: Seconds one ``calibrate()`` call takes at the nominal speed (about what
#: it takes on an unloaded 2.1 GHz Xeon core).
NOMINAL_S = 0.010

_RNG = np.random.default_rng(0)
_VALUES = _RNG.standard_normal(200_000)
_INDEX = _RNG.integers(0, len(_VALUES), 100_000)


def _mix(clock=perf_counter) -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work.

    The mix resembles the program's: dict and list traffic in the
    interpreter, then an array scan and a gather.
    """
    started = clock()
    counts: dict[int, int] = {}
    keys = []
    for i in range(13_000):
        key = (i * 7919) % 5003
        counts[key] = counts.get(key, 0) + 1
        keys.append(key)
    np.cumsum(_VALUES)
    _VALUES[_INDEX]
    return clock() - started


def calibrate(clock=perf_counter) -> float:
    """Three times the median of three ``_mix()`` timings: one timing that
    an interrupt or a page fault happened to hit does not count."""
    return 3.0 * sorted(_mix(clock) for _ in range(3))[1]


class ScaledClock:
    """Scale factors for consecutive timed intervals.

    Construct it just before the first interval; call ``factor()`` just
    after each interval ends. Work between intervals is not timed.
    """

    def __init__(self) -> None:
        self.previous = calibrate()
        self.factors: list[float] = []

    def factor(self) -> float:
        """``NOMINAL_S`` over the mean calibration around the interval just ended."""
        current = calibrate()
        factor = 2.0 * NOMINAL_S / (self.previous + current)
        self.previous = current
        self.factors.append(factor)
        return factor


class BackgroundCalibration:
    """Calibrations every ``period`` seconds on a thread, while work runs
    in other processes (the serve node and its pool).

    They are timed in the thread's own CPU time, which leaves out the time
    the thread waits for a core, so a busy node does not read as a slow CPU.
    Use it as a context manager around the timed work.
    """

    def __init__(self, period: float = 0.25) -> None:
        self.period = period
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "BackgroundCalibration":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(self.period):
            self.samples.append(calibrate(thread_time))

    def factor(self) -> float:
        """``NOMINAL_S`` over the median calibration."""
        return NOMINAL_S / median(self.samples)
