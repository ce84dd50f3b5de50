"""How fast this host runs Python right now, to scale measured times.

On a shared host the CPU time a fixed piece of Python takes swings by tens of
per cent within seconds and drifts over minutes, with whatever the other
tenants run.  A `Sampler` thread times a fixed kernel (exact Fraction
elimination and dict updates, independent of eisenlat) every `PERIOD_S`
while a pass runs, in thread CPU time, so waiting for the GIL or for a core
is not counted.  `factor()` is REF_KERNEL_S over the mean kernel time, and
a time multiplied by it is the time the pass would have taken on a host
where the kernel takes REF_KERNEL_S.  The kernel shares nothing with the
program, so a change to eisenlat moves the scaled time as it moves the raw
one.
"""

from __future__ import annotations

import random
import statistics
import threading
import time
from fractions import Fraction

REF_KERNEL_S = 0.003  # about the kernel's CPU time on the host the bounds were set on
PERIOD_S = 0.1
MIN_WINDOW_S = 1.0  # a request's factor comes from the samples of at least this long a window


def kernel():
    """Fixed work: a seeded 9x9 Fraction determinant, then 3000 dict updates."""
    rng = random.Random(12345)
    n = 9
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
    det = Fraction(1)
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c])  # the seeded matrix is invertible
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    d = {}
    for i in range(3000):
        k = (i * 7919) % 1009
        d[k] = d.get(k, 0) + i
    return det


def time_kernel():
    t0 = time.thread_time()
    kernel()
    return time.thread_time() - t0


def factor(samples):
    return REF_KERNEL_S / statistics.fmean(samples)



class Sampler:
    """Times the kernel in a background thread: once at start, then every PERIOD_S."""

    def __init__(self):
        self.samples = []
        self.times = []  # perf_counter() at the middle of each sample
        self.cpu_s = 0.0  # the thread's own CPU time, to take out of the process's
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        t0 = time.thread_time()
        self._sample()
        while not self._stop.wait(PERIOD_S):
            self._sample()
        self.cpu_s = time.thread_time() - t0

    def _sample(self):
        t0 = time.perf_counter()
        self.samples.append(time_kernel())
        self.times.append((t0 + time.perf_counter()) / 2)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def factor(self):
        return factor(self.samples)

    def factor_over(self, start, seconds):
        """The factor for a request: samples taken while it ran, the window widened
        to MIN_WINDOW_S about its middle; all samples if none fall in it."""
        mid, half = start + seconds / 2, max(seconds, MIN_WINDOW_S) / 2
        near = [k for t, k in zip(self.times, self.samples) if abs(t - mid) <= half]
        return factor(near or self.samples)
