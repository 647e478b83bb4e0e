"""Host-speed probe for timing on a shared machine whose speed drifts.

On a small shared host the same CPU-bound command can take 1.5x longer for
seconds to minutes at a time while neighbours load the machine; a pure
Python loop slows by the same factor.  HostSpeed runs a fixed pure-Python
unit of work every PERIOD_S in one background thread pinned to each CPU the
benchmark may use (about 1.5% of each CPU), and records the thread CPU time
each unit took, which excludes time spent waiting to be scheduled.  The
CPUs drift largely independently and the measured processes move between
them, so samples from all CPUs are pooled.  A wall time measured over
[start, end] is then calibrated as

    calibrated = raw * REF_UNIT_S / mean(unit time sampled in [start, end])

that is, expressed in seconds at the speed where one unit takes REF_UNIT_S.
Program changes move raw and calibrated times by the same ratio; host drift
moves only the raw ones.  The probe's unit runs beside the measured
processes, so on a fully busy host (the pooled sweep on two CPUs) its unit
time reads a few per cent higher than beside a single busy process.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

REF_UNIT_S = 1.2e-3          # thread CPU time of one unit at the reference speed
UNIT_LOOPS = 20_000
PERIOD_S = 0.1
MIN_SAMPLES = 3


def _unit() -> int:
    total = 0
    for i in range(UNIT_LOOPS):
        total += i * i
    return total


class HostSpeed:
    """Context manager sampling the host's speed until it exits."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []     # (perf_counter, unit CPU s)
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._sample, args=(cpu,), daemon=True,
                                          name=f"hostspeed-{cpu}")
                         for cpu in sorted(os.sched_getaffinity(0))]

    def __enter__(self) -> "HostSpeed":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})      # pid 0: this thread only
        while not self._stop.is_set():
            begin = time.thread_time()
            _unit()
            self.samples.append((time.perf_counter(), time.thread_time() - begin))
            self._stop.wait(PERIOD_S)

    def factor(self, start: float, end: float) -> float:
        """REF_UNIT_S over the mean unit time sampled during [start, end].

        A window too short to hold MIN_SAMPLES takes the samples nearest
        its midpoint instead.
        """
        samples = list(self.samples)
        window = [dt for t, dt in samples if start <= t <= end]
        if len(window) < MIN_SAMPLES:
            middle = (start + end) / 2.0
            nearest = sorted(samples, key=lambda s: abs(s[0] - middle))[:MIN_SAMPLES]
            window = [dt for _, dt in nearest]
        if not window:
            raise RuntimeError("host-speed probe has no samples")
        return REF_UNIT_S / statistics.fmean(window)
