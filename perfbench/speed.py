"""Machine speed, read from a fixed reference loop that belongs to the
benchmark and never to the program.

The benchmark runs on a few cores of a shared host whose speed changes with
what the host's other tenants do: on a shared 2-core sandbox the same pass of
checks, and this loop with it, took up to twice as long from one second to
the next, in CPU time as in wall time.  Every serial pass therefore runs the
loop between its checks, at most every SAMPLE_EVERY_S, and the times the
benchmark reports are scaled by ``REFERENCE_MS / median(nearby loop times)``:
the time the work would take on a machine where the loop takes
``REFERENCE_MS``.  A change to the program moves its times and not the loop;
a slow second on the host moves both and cancels.  The raw times are printed
beside the scaled ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter, process_time

REFERENCE_MS = 0.6            # the loop's time at the reference speed
SAMPLE_EVERY_S = 0.05         # one loop between checks at most this often
BURST = 9                     # loops run back to back around an untimed gap
LOCAL = 4                     # samples on either side that scale one call


def reference_loop() -> int:
    """Fixed work in the style of the program: a truncated q-series product
    and quotient over Python integers, then small tuples in a dict."""
    T = 120
    buf = [1] + [0] * T
    for m in range(1, 25):
        for i in range(m, T + 1):
            if buf[i - m]:
                buf[i] += buf[i - m]
    for m in range(1, 25):
        for i in range(T, m - 1, -1):
            if buf[i - m]:
                buf[i] -= buf[i - m]
    table: dict = {}
    for i in range(600):
        key = (i % 37, i % 11)
        table[key] = table.get(key, 0) + i
    return buf[0] + len(table)


class SpeedProbe:
    """Collects reference-loop times (ms) until ``take`` hands them over."""

    def __init__(self):
        self.samples: list[float] = []
        self.cpu_s = 0.0          # CPU time spent in the loop, to leave out
        self._last = float("-inf")

    def sample(self, count: int = 1) -> None:
        cpu0 = process_time()
        for _ in range(count):
            t0 = perf_counter()
            reference_loop()
            self.samples.append((perf_counter() - t0) * 1000.0)
        self.cpu_s += process_time() - cpu0
        self._last = perf_counter()

    def maybe_sample(self) -> None:
        """Run the loop once if SAMPLE_EVERY_S has passed since the last."""
        if perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def take(self) -> list[float]:
        """The samples taken since the last ``take``."""
        samples, self.samples = self.samples, []
        return samples


def scale(samples: list[float]) -> float:
    """The factor for work done while `samples` were taken."""
    if not samples:
        raise ValueError("no reference-loop samples to scale by")
    return REFERENCE_MS / statistics.median(samples)


def local_scales(samples: list[float], marks: list[int]) -> list[float]:
    """One factor per call, from the LOCAL samples nearest it: the host's
    speed changes within seconds, faster than a pass of the longer
    workloads.  `marks[i]` is the number of samples taken before call i."""
    return [scale(samples[max(0, k - LOCAL):k + LOCAL]) for k in marks]
