"""Speed probe: how fast the CPU running a repetition is, while it runs.

On a shared host the speed of one virtual CPU drifts by up to a factor
of two over minutes and changes within seconds, and the two CPUs of a
2-core guest drift independently.  Raw wall times of a fixed amount of
work therefore spread by a fifth to a quarter of their median between
runs.  The probe measures that drift where the work runs: the
repetition pins itself to one CPU, and a background thread on the same
CPU times a fixed pure-Python loop every ``INTERVAL_S``.  The thread
gets the GIL back from Python code within the interpreter's switch
interval, and the CPU from C code that drops the GIL (numpy kernels,
the sparse solve), so samples cover the whole timed window.

A time measured over a window is rescaled to a host on which the loop
takes ``REFERENCE_S``, by the mean loop time of the samples taken in
that window.  Changing the loop or ``REFERENCE_S`` changes every
normalised figure, so both stay fixed.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

INTERVAL_S = 0.025
# A round figure near the mean time of ``_loop`` on a 2-core Intel Xeon
# guest at 2.0 GHz under Python 3.11; only that it never changes matters.
REFERENCE_S = 2.0e-4


def _loop() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(2000):
        acc += i * i % 7
    return time.perf_counter() - start


def pin_to_one_cpu() -> int:
    """Pin this process, and every thread it starts later, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, loop time)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self.samples.append((time.perf_counter(), _loop()))

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        # A window too short to hold a sample falls back to all of them,
        # so there must be at least one.
        self.samples.append((time.perf_counter(), _loop()))

    def normalise(self, seconds: float, start: float, end: float) -> float:
        """``seconds``, measured from ``start`` to ``end``, at the reference speed."""
        inside = [d for t, d in self.samples if start <= t < end]
        mean = statistics.fmean(inside or [d for _, d in self.samples])
        return seconds * REFERENCE_S / mean
