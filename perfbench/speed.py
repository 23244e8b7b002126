"""CPU speed of the moment, for rescaling times to a reference speed.

The machine the baseline was recorded on shares its cores with other
tenants, and there the same pure-Python work runs up to 1.5x slower for
stretches of seconds to minutes.  Raw wall times of a fixed body then drift
by 20-40% between runs a few minutes apart, which no amount of repetition
inside a run removes.  So every timed interval is paired with the CPU
speed seen by the same process during that interval: a fixed pure-Python
kernel is timed every SAMPLE_EVERY_S seconds from a SIGALRM handler, and

    reference seconds = (raw seconds - time spent in the kernel)
                        x REFERENCE_KERNEL_S / median kernel time.

The median, not the mean: a few samples read far slower than the work
around them ran (probably those the timer fires as the vCPU resumes), and
the mean over-corrected contended runs by up to a fifth.

A reference second is a second on an uncontended vCPU of the machine the
baseline was recorded on (Intel Xeon, 2.1 GHz, 2 vCPUs).

The kernel must see only the other tenants, never the program's own
parallel work: a body that hands its work to pool workers shares the cores
with them, and samples taken then would read slow and shrink the call's
reference time.  So a tick is skipped while this process has another
thread or a child process, and every call also gets SETTLE samples just
before and just after it, outside its raw time.  A call that runs a pool
throughout is therefore scaled by the speed seen around it.

Set-up time is mostly process start, dynamic loading and file reads, and
its drift does not follow the kernel's: over minutes on the reference
machine it went from 0.30 s to 0.22 s while the kernel stayed put.
So set-up is scaled instead by an import probe, a child that starts the same
interpreter and imports numpy and mpmath but not cyclodet:

    reference set-up seconds = raw set-up seconds
                               x REFERENCE_IMPORT_S / import probe seconds.

Over 430 probes the raw set-up time ranged over a factor of 1.9 and its
ratio to the probe over a factor of 1.2 (medians of 25).
"""
from __future__ import annotations

import os
import signal
import statistics
import threading
import time

REFERENCE_KERNEL_S = 2.5e-4  # one kernel() on the reference vCPU
SAMPLE_EVERY_S = 0.05
SETTLE = 4  # samples just before and just after every call
# start-up of a child that imports numpy and mpmath only, on a quiet
# stretch of the reference machine
REFERENCE_IMPORT_S = 0.13


def kernel() -> int:
    s = 0
    for i in range(3000):
        s += i * i % 7
    return s


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def has_company() -> bool:
    """Whether this process now has another thread or a child process."""
    if threading.active_count() > 1:
        return True
    try:  # looks for children without reaping any
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return False
    return True


class SpeedProbe:
    """Kernel timings taken around and, while it runs alone, during each call."""

    def __init__(self) -> None:
        self.ticks: list[float] = []

    def _tick(self, signum, frame) -> None:
        if not has_company():
            self.ticks.append(time_kernel())

    def measure(self, fn):
        """(fn(), raw seconds, reference seconds) of one call of fn."""
        around = [time_kernel() for _ in range(SETTLE)]
        self.ticks = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            raw = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        around += [time_kernel() for _ in range(SETTLE)]
        work = raw - sum(self.ticks)
        return result, raw, work * REFERENCE_KERNEL_S / statistics.median(around + self.ticks)


def setup_reference_s(raw_setup_s: float, import_probe_s: float) -> float:
    """One set-up time in reference seconds, scaled by an import probe taken
    right after it."""
    return raw_setup_s * REFERENCE_IMPORT_S / import_probe_s
