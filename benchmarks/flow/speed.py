"""Machine-speed sampling for the flow benchmark's worker processes.

Kept apart from ``worker.py`` and free of program imports, so that a
worker can start sampling before it imports the program and the
set-up time it reports is corrected like any other.
"""

from __future__ import annotations

import gc
import signal
import time

#: Mean time of :func:`speed_kernel` on the reference machine (a
#: 2-vCPU Xeon VM at 2.0 GHz, Python 3.11) [s].
REFERENCE_KERNEL_S = 0.0025
#: Period of the speed samples [s].
SAMPLE_INTERVAL_S = 0.1
#: Samples this close to a window also count for it, so that a short
#: item's speed is the mean of several samples [s].
SAMPLE_MARGIN_S = 0.5


def speed_kernel() -> int:
    """Fixed pure-Python work: the dict, list, tuple and integer
    operations the synthesis passes spend their time in."""
    table: dict[int, list[int]] = {}
    for i in range(12000):
        key = (i * 2654435761) & 0x3FF
        bucket = table.get(key)
        if bucket is None:
            table[key] = bucket = []
        bucket.append(i ^ key)
    ranked = sorted(table.items(), key=lambda kv: (len(kv[1]), kv[0]))
    return sum(len(v) for _, v in ranked[:64])


class SpeedMonitor:
    """Samples the machine's speed while the process works.

    Every :data:`SAMPLE_INTERVAL_S` a ``SIGALRM`` handler times
    :func:`speed_kernel`, on the same CPU and in the middle of the
    work.  :meth:`reference_seconds` turns a wall-time window into
    seconds at the reference machine's speed: the window minus the
    handler's own time, times the mean speed sampled in it and within
    :data:`SAMPLE_MARGIN_S` of it.
    A neighbour slowing the shared CPU slows the samples as much as the
    work, so it cancels out of the comparison between two runs.  The
    kernel shares the CPU caches with the program, so a regression that
    is itself cache-bound is partly divided away (see the README).
    """

    def __init__(self):
        #: ``(time.monotonic() at start, kernel duration)`` per sample.
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def start(self) -> "SpeedMonitor":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        for _ in range(3):  # a process that ends early still has samples
            self.sample()

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def sample(self) -> None:
        # The collector is paused so that the program's heap, which a
        # full collection would walk, does not leak into the sample.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.monotonic()
            speed_kernel()
            self.samples.append((start, time.monotonic() - start))
        finally:
            if enabled:
                gc.enable()

    def reference_seconds(self, start: float, end: float) -> float:
        busy = end - start - sum(d for t, d in self.samples if start <= t < end)
        window = [d for t, d in self.samples
                  if start - SAMPLE_MARGIN_S <= t < end + SAMPLE_MARGIN_S]
        if not window:  # e.g. set-up finished before the first alarm
            window = [d for t, d in self.samples if t >= start][:3]
        return busy * sum(REFERENCE_KERNEL_S / d for d in window) / len(window)
