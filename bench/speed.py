"""A machine-speed reference that runs interleaved with the program.

The machine the benchmark was built on (a shared 2-vCPU VM) changes speed
by up to ±20% over tens of seconds, and interpreter code, numpy calls and
BLAS all slow down together. A wall time alone then says as much about the
host as about the program. ``SpeedProbe`` runs a fixed kernel of about a
millisecond every ``PERIOD_S`` seconds of wall time, from a SIGALRM handler:
Python runs the handler in the main thread between bytecodes, so the kernel
interleaves with whatever the program is doing without any hook inside it.

``SpeedProbe.seconds(t0, t1)`` turns a wall interval into *reference
seconds*: the interval's own time (the kernel's time inside it taken out),
multiplied by ``REFERENCE_S`` over the kernel's median time in that interval.
On a host running at the reference speed the two are equal; when the host
runs 20% slow, both the interval and the kernel take 20% longer and the
reference seconds stay put. The kernel touches nothing of the program's.
"""
from __future__ import annotations

import bisect
import contextlib
import math
import signal
import statistics
import time
from array import array

import numpy as np

PERIOD_S = 0.04  # one kernel per 40 ms: about 3% of the run
KERNEL_ROUNDS = 48
# the kernel's median time on the baseline machine (Intel Xeon 2.0 GHz VM,
# Python 3.11, numpy on 1 BLAS thread); fixes the scale of reference seconds
REFERENCE_S = 0.0010
MIN_SAMPLES = 10  # an interval with fewer kernels inside uses its nearest ten
# the end-to-end metrics that are times or rates, so scaled by host speed
TIMED = ("train_rows_per_s", "score_rows_per_s", "wall_s", "setup_s")


class SpeedProbe:
    """Kernel start times and durations, in ``time.perf_counter`` seconds."""

    def __init__(self):
        self.starts = array("d")
        self.durations = array("d")
        rng = np.random.Generator(np.random.Philox(key=[0, 7]))
        self._a = rng.standard_normal((64, 32))
        self._b = rng.standard_normal((32, 32))
        self._previous = None

    def kernel(self) -> float:
        """Small matmuls, elementwise ops and interpreter arithmetic: the
        mix the program's training and scoring loops are made of."""
        a, b = self._a, self._b
        acc = 0.0
        for i in range(KERNEL_ROUNDS):
            h = np.maximum(a @ b, 0.0)
            acc += float(h.sum(axis=0)[i % 32]) * 1e-6
            for j in range(40):
                acc = acc * 0.5 + j
        return acc

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.durations.append(t1 - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    @contextlib.contextmanager
    def paused(self):
        """No kernels while a child process runs: the kernel would run
        beside it on another CPU instead of interleaved with it."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _window(self, t0: float, t1: float):
        """Index range of the kernels that started in [t0, t1]."""
        return (bisect.bisect_left(self.starts, t0),
                bisect.bisect_left(self.starts, t1))

    def factor(self, t0: float, t1: float) -> float:
        """Reference seconds per wall second over [t0, t1]: REFERENCE_S over
        the median kernel time inside it, or of the nearest MIN_SAMPLES
        kernels when fewer ran inside.

        The median, because a kernel that the host stops for a few
        milliseconds would move a mean of a few hundred kernels by percents,
        while the program, stopped as often per second, barely notices.
        """
        n = len(self.durations)
        if n == 0:
            raise RuntimeError("speed probe has no samples")
        lo, hi = self._window(t0, t1)
        if hi - lo < MIN_SAMPLES:
            lo = max(0, min((lo + hi - MIN_SAMPLES) // 2, n - MIN_SAMPLES))
            hi = min(n, lo + MIN_SAMPLES)
        return REFERENCE_S / statistics.median(self.durations[lo:hi])

    def seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the wall interval [t0, t1], the kernels'
        own time inside it taken out.

        A kernel never straddles t0 or t1 when both are read in the main
        thread, since the handler runs between bytecodes of that thread.
        """
        lo, hi = self._window(t0, t1)
        own = (t1 - t0) - math.fsum(self.durations[lo:hi])
        return own * self.factor(t0, t1)

    def summary(self) -> str:
        d = sorted(self.durations)
        if not d:
            return "no kernel samples"
        return (f"{len(d)} kernels, median {d[len(d) // 2] * 1e3:.4f} ms, "
                f"reference {REFERENCE_S * 1e3:.4f} ms")


class WallClock:
    """The same interface in plain wall seconds, with no kernel running."""

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def paused(self):
        return contextlib.nullcontext()

    def factor(self, t0: float, t1: float) -> float:
        return 1.0

    def seconds(self, t0: float, t1: float) -> float:
        return t1 - t0
