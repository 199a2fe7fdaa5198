"""The machine's speed while something runs, from a fixed pure-Python loop.

On a shared machine the CPU a run gets can be two or three times slower
for a second or more at a time, so raw wall times of the same operation
spread far more than any regression worth catching. The benchmark
therefore pins itself and its children to one CPU and, while a timed
interval runs, a thread on that CPU times this loop every ``INTERVAL_S``
in its own CPU time, which waiting for the CPU does not inflate. The
interval is scaled by ``REFERENCE_S`` over the loop's mean time, so every
reported time is in seconds at the speed where the loop takes
``REFERENCE_S``. The thread takes a few percent of the CPU, the same share
on every commit.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

REFERENCE_S = 0.0006
INTERVAL_S = 0.02


def pin_to_one_cpu() -> None:
    """Run this process, and every child it starts later, on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _loop_cpu_s() -> float:
    started = time.thread_time()
    x, table = 0, {}
    for i in range(2000):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        table[i & 1023] = (x, i)
    return time.thread_time() - started


class Sampler:
    """Samples the loop on a thread for as long as the ``with`` block runs;
    ``scale`` then turns the block's wall time into reference seconds."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._run)

    def _run(self) -> None:
        while True:
            self.samples.append(_loop_cpu_s())
            if self._done.wait(INTERVAL_S):
                return

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._done.set()
        self._thread.join()

    @property
    def scale(self) -> float:
        return REFERENCE_S / statistics.mean(self.samples)
