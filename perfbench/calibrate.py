"""Machine-speed calibration for the timed metrics.

On a shared box the CPU a run is on slows down and recovers by 20-30% over
seconds to minutes.  A solve then takes longer in wall and in CPU time,
because the process is not descheduled: it runs slower.  The other CPU
does not follow, so the speed has to be measured on the benchmark's own
CPU while the op runs.

`Speed` does that with an interval timer, paused while a child process
runs.  Every PERIOD_S the signal
handler times a small fixed kernel that does the kinds of work the package
does, without the package: HiGHS LPs of the cut loop's size, small dense
eigen-decompositions, vectorized gauges and interpreter work.  Python
runs the handler between bytecodes of whatever op is running, so samples
fall inside long ops too.  An op's time, minus the handler time spent
inside it, is scaled by REFERENCE_S / k, with k the median kernel time
sampled during the op or within WINDOW_S of it.  A
timed metric is thus the time the op would take on a machine where the
kernel takes REFERENCE_S.  A change to the package moves the op times but
not the kernel.
"""

from __future__ import annotations

import contextlib
import signal
from time import perf_counter

import numpy as np
from scipy.optimize import linprog

# Kernel time of the 2-CPU sandbox the benchmark was written on, when quiet.
REFERENCE_S = 0.005
PERIOD_S = 0.25
# Kernel samples this close to an op also count for it, so that an op
# shorter than a period still gets several samples.
WINDOW_S = 0.5

_rng = np.random.default_rng(20260101)
_A = _rng.standard_normal((48, 10))
_B = -np.abs(_rng.standard_normal(48)) - 1.0
_C = _rng.standard_normal(10)
_M = [(lambda g: g @ g.T + np.eye(5))(_rng.standard_normal((5, 5))) for _ in range(8)]
_P = _rng.standard_normal((3000, 3))
_Q = np.eye(3) + 0.1


def kernel() -> None:
    """About 5 ms: half one HiGHS LP, the rest eigen-decompositions,
    vectorized gauges and quadratic forms over 3000 points, and a loop."""
    res = linprog(_C, A_ub=_A, b_ub=-_B, bounds=[(-5.0, 5.0)] * 10, method="highs")
    if res.status != 0:
        raise RuntimeError("calibration LP failed")
    for m in _M * 4:
        np.linalg.eigh(m)
    for _ in range(4):
        np.linalg.norm(_P, ord=1.5, axis=1)
        np.einsum("ij,jk,ik->i", _P, _Q, _P)
    acc = [i * 0.5 for i in range(3000)]
    if len(acc) != 3000:
        raise RuntimeError("calibration loop miscounted")


class Speed:
    """Kernel samples taken by a timer while the context is open.

    `busy_s` is the total handler time so far; callers subtract the part
    that fell inside an op.  `scale(start, end)` turns a time measured over
    [start, end] into reference seconds.
    """

    def __init__(self):
        self.mid: list[float] = []
        self.took: list[float] = []
        self.busy_s = 0.0
        self._previous = None
        self._sampling = False

    def sample(self, *_signal_args) -> None:
        if self._sampling:  # the timer fired during an explicit sample
            return
        self._sampling = True
        start = perf_counter()
        kernel()
        end = perf_counter()
        self._sampling = False
        self.mid.append(0.5 * (start + end))
        self.took.append(end - start)
        self.busy_s += end - start

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    @contextlib.contextmanager
    def paused(self):
        """No samples while a child process runs: the kernel would compete
        with it and time the contention, not the machine."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def scale(self, start: float, end: float) -> float:
        mid = np.asarray(self.mid)
        took = np.asarray(self.took)
        inside = (mid >= start - WINDOW_S) & (mid <= end + WINDOW_S)
        if inside.any():
            k = float(np.median(took[inside]))
        else:
            k = float(np.interp(0.5 * (start + end), mid, took))
        return REFERENCE_S / k
