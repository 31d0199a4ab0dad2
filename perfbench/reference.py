"""A fixed reference kernel that reads the host's current speed.

The CPU time one thread gets for the same work drifts by 20 to 50% over
seconds to minutes on a shared host. While the benchmark's passes run, a
timer signal interrupts them at a fixed wall-clock interval to run this
kernel in the same thread; the kernel's time is taken out of the pass
times. Pass times set against the kernel's mean time keep what the
program costs and drop most of what the host's speed did. The kernel
depends on nothing in osserman_lab, so a change to the program never
changes it. Like the workloads, it mixes interpreted Python with numpy
calls on small arrays.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Nominal kernel time: normalised times read in seconds of a host on which
# one kernel run takes this long.
REFERENCE_S = 0.05
# Wall seconds between kernel runs: frequent enough that a pass of one
# 2.5 s CLI call holds several, sparse enough to cost about 12%.
INTERVAL_S = 0.4

_BASE = np.linspace(0.0, 1.0, 48 * 48).reshape(48, 48)


def reference_kernel() -> float:
    total = 0
    for i in range(250_000):
        total += (i * 7) % 13
    x = _BASE.copy()
    for _ in range(350):
        x = 0.25 * (np.roll(x, 1, 0) + np.roll(x, -1, 0)
                    + np.roll(x, 1, 1) + np.roll(x, -1, 1))
        np.maximum(x, 0.1, out=x)
    return total + float(x.sum())


class Sampler:
    """Runs the kernel on SIGALRM every INTERVAL_S while started.

    ``wall_s`` and ``cpu_s`` list the kernel runs; ``clock`` reads wall and
    CPU time with the kernel's runs taken out.
    """

    def __init__(self):
        self.wall_s, self.cpu_s = [], []
        self.wall_total = self.cpu_total = 0.0
        self._busy = False

    def _run(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        wall0, cpu0 = time.perf_counter(), time.process_time()
        reference_kernel()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        self.wall_s.append(wall)
        self.cpu_s.append(cpu)
        self.wall_total += wall
        self.cpu_total += cpu
        self._busy = False

    def clock(self) -> tuple[float, float]:
        """Wall and process CPU seconds, less the kernel runs so far."""
        while True:
            wall, cpu = self.wall_total, self.cpu_total
            now, proc = time.perf_counter(), time.process_time()
            if wall == self.wall_total:   # no kernel run between the reads
                return now - wall, proc - cpu

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._run)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
