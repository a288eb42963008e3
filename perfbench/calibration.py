"""Host-speed calibration of wall times.

The vCPUs of a shared host change speed by up to 2x within seconds, as the
host moves them between busy and idle cores, and that moves every wall time
of a run.  So the benchmark samples the speed while it times: a fixed kernel
of small complex NumPy operations and Python complex arithmetic is timed
AROUND times before and after each measured call and, with `periodic`, every
PERIOD_S during it from a SIGALRM handler.  Each stretch of the call between
two samples is scaled by the kernel times at its two ends,

    calibrated = sum over stretches of  stretch * NOMINAL_S / kernel time

which is the time the call would take on a host where the kernel always
takes NOMINAL_S; `raw` is the sum of the stretches, the call's wall time
without the sampling.  Scaling each stretch by its own speed, rather than
the whole call by one mean speed, is what makes a call that spans a speed
change come out right.  Each kernel time is first replaced by the median of
itself and its neighbours, so that one preempted sample cannot skew a
stretch.  The kernel never touches the program, so a change to the program
cannot move it.
"""
from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

NOMINAL_S = 7e-4  # the kernel's typical time inside a session on a 2-vCPU Xeon VM
PERIOD_S = 0.025
AROUND = 3

_M = np.array([[1.0 + 0.5j, 0.2], [0.1j, 0.9]])


def _kernel() -> complex:
    v = np.array([1.0 + 0j, 0.5j])
    acc = 0j
    for i in range(60):
        z = complex(i % 7, 0.3) * 0.01
        v = (_M * (1.0 + z)) @ v
        v = v / float(np.max(np.abs(v)))
        acc += v[0] * z + z * z / (z + 1.0)
    return acc


class _Probe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, end) of each kernel run

    def sample(self, *_signal_args) -> None:
        start = perf_counter()
        _kernel()
        self.samples.append((start, perf_counter()))

    @contextmanager
    def periodic(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def measure(fn, periodic: bool):
    """(fn(), calibrated seconds, raw seconds) of one call.

    Periodic sampling runs in this process, so it suits only a call that
    computes here, not one that waits for a child process.
    """
    probe = _Probe()
    for _ in range(AROUND):
        probe.sample()
    start = perf_counter()
    if periodic:
        with probe.periodic():
            result = fn()
    else:
        result = fn()
    stop = perf_counter()
    for _ in range(AROUND):
        probe.sample()
    kernel = [end - begin for begin, end in probe.samples]
    smooth = [statistics.median(kernel[max(0, i - 1):i + 2]) for i in range(len(kernel))]
    inside = probe.samples[AROUND:-AROUND]
    edges = [start, *(t for sample in inside for t in sample), stop]
    stretches = [edges[2 * j + 1] - edges[2 * j] for j in range(len(inside) + 1)]
    calibrated = sum(s * 2.0 * NOMINAL_S / (smooth[AROUND - 1 + j] + smooth[AROUND + j])
                     for j, s in enumerate(stretches))
    return result, calibrated, sum(stretches)
