"""Reference clock: wall time scaled to an undisturbed CPU.

The benchmark shares its CPU with other tenants, whose bursts slow
every instruction for seconds at a time.  A short pure-Python loop of
the same integer digit work as the package's hot paths is timed right
before and after each op and, from a wall-clock interval timer, every
SAMPLE_S while it runs.  The op's wall time (minus the sampling) times
the mean of REFERENCE_S / loop time is its time at the speed the loop
has when nothing interferes.  Measured on a fixed 30000-wide ARH sweep
repeated for one minute, with the loop timed around each sweep: wall
time per 2-second window ranged from 17.7 ms to 40.3 ms (sd 24% of the
mean), scaled time from 17.3 ms to 18.4 ms (sd 1.5%).  A loop with
string and dict work mixed in tracked the smallest ops better but the
integer-heavy ones worse, and those carry most of the time.
"""

from __future__ import annotations

import gc
import time

# Undisturbed time of calibrate() on the machine the bounds were set on
# (2-core x86-64 VM, CPython 3.11).  It only fixes the unit: a faster
# machine reads faster, a noisy one no slower.
REFERENCE_S = 1.3e-4
SAMPLE_S = 0.05


def calibrate() -> float:
    """Wall time of a fixed digit-reversal loop, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for x in range(1000, 1400):
            r = 0
            while x:
                x, d = divmod(x, 10)
                r = r * 10 + d
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class RefClock:
    """Times calls at the reference speed; use as a context manager.

    Inside the `with` block a SIGALRM handler samples the loop every
    SAMPLE_S of wall time, so the main thread must be the caller.
    """

    def __init__(self):
        self._speeds: list[float] = []
        self._spent = 0.0  # wall time inside the sampling handler
        self._previous = None

    def __enter__(self) -> "RefClock":
        import signal  # here, so that importing calibrate() stays light for setup_probe
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc) -> None:
        import signal
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._speeds.append(REFERENCE_S / calibrate())
        self._spent += time.perf_counter() - t0

    def time(self, func, *args):
        """(func(*args), seconds at the reference speed, wall seconds)."""
        self._speeds = [REFERENCE_S / calibrate()]
        self._spent = 0.0
        t0 = time.perf_counter()
        result = func(*args)
        wall = time.perf_counter() - t0 - self._spent
        speeds = self._speeds + [REFERENCE_S / calibrate()]
        return result, wall * sum(speeds) / len(speeds), wall
