"""Job times at a reference host speed, from a kernel sampled around and
during every timed call.

The benchmark's host is a VM on a shared machine, and its speed drifts.  On a
2-vCPU Xeon VM the CPU time of the same tree-growth job list fell from 7.9 to
6.1 s over five back-to-back runs, a fixed integer loop took 17 to 33 ms from
one second to the next, and one job's best of four runs moved by 60% between
runs.  Time during which the VM's CPU is taken away (steal) is already left
out of CPU time; what is left is the host running our instructions slower.

So a gauge runs a small fixed kernel right before and right after each timed
call, and every ``INTERVAL_S`` of CPU time inside it (a SIGPROF handler), and
reports the call's CPU time, less the samples inside it, divided by the mean
sample time over ``REF_S``: the CPU seconds the call takes on a host where one
sample takes ``REF_S``.  Over 69 runs each of nine jobs, dividing by the mean
of samples of kernels of this kind just before and after a run halved the
spread of the job's time (standard deviation of its log, 0.10-0.17 down to
0.06-0.10); sampling inside the call as well brought the spread of ten runs'
``wall_s`` to 0.011-0.034 (bench/README.md).

The kernel does the kinds of work lapgraph does, without calling it (so a
change to lapgraph cannot change the kernel): fraction-free elimination of
an integer matrix like a cover's Laplacian (``linalg.int_det``), and
Aberth-style complex root iterations plus a Fraction sum (``mahler``).
"""

from __future__ import annotations

import cmath
import signal
import statistics
import time
from fractions import Fraction

# About the mean CPU time of one sample on a 2-vCPU Intel Xeon VM (Python
# 3.11.7) when that host ran fastest.  A fixed constant: changing it rescales
# every reported time.
REF_S = 0.0012
# CPU time between samples during a call: samples cost about 4% of it.
INTERVAL_S = 0.025
# What the kernel returns; anything else means it did not do its work.
CHECKSUM = 91718


def kernel() -> int:
    n = 28
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 5 + i % 3
        for d in (1, 2):
            a[i][(i + d) % n] -= 1
            a[(i + d) % n][i] -= 1
    prev = 1
    for k in range(n - 1):
        rk, akk = a[k], a[k][k]
        for i in range(k + 1, n):
            ri, aik = a[i], a[i][k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * akk - aik * rk[j]) // prev
        prev = akk

    deg = 12
    coeffs = [complex((i * 7) % 5 - 2, 0) for i in range(deg)] + [1]
    roots = [cmath.exp(2j * cmath.pi * (k + 0.25) / deg) * 1.3 for k in range(deg)]
    for _ in range(6):
        new = []
        for k, z in enumerate(roots):
            p = dp = 0j
            for c in reversed(coeffs):
                dp = dp * z + p
                p = p * z + c
            s = sum(1 / (z - w) for j, w in enumerate(roots) if j != k)
            r = p / dp
            new.append(z - r / (1 - r * s))
        roots = new
    f = sum((Fraction(1, i * i + 1) for i in range(1, 40)), Fraction(0))
    return (a[-1][-1] + round(1000 * sum(abs(z) for z in roots)) + f.numerator) % 1_000_003


class Gauge:
    """Times calls at reference speed; install it with ``with``."""

    def __init__(self):
        self._samples: list[float] = []
        self._spent = 0.0  # CPU time taken by samples, handler included
        self.cpu_s = 0.0  # total CPU time of the timed calls
        self.reference_s = 0.0  # total of the same at reference speed

    def __enter__(self):
        if kernel() != CHECKSUM:
            raise RuntimeError("the calibration kernel did not return its checksum")
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def _sample(self) -> None:
        start = time.thread_time()
        kernel()
        self._samples.append(time.thread_time() - start)
        self._spent += time.thread_time() - start

    def _on_timer(self, signum, frame) -> None:
        self._sample()

    def time(self, fn) -> float:
        """Call fn(); return its CPU seconds at reference speed."""
        self._samples.clear()
        self._sample()
        spent = self._spent
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        start = time.thread_time()
        try:
            fn()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            cpu = time.thread_time() - start - (self._spent - spent)
        self._sample()
        reference = cpu * REF_S / statistics.fmean(self._samples)
        self.cpu_s += cpu
        self.reference_s += reference
        return reference
