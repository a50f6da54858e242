"""Machine-speed probe for the timed loop.

On a shared machine the same code runs at speeds that drift by 10-20%
over tens of seconds, which swamps a 30-second run. While the loop runs,
SIGALRM fires at a fixed interval and the handler times one fixed probe
kernel. The kernel is the benchmark's own code, so no change to opeq can
change it. It must share the workload's bottleneck, because the drift
speeds up interpreter-bound code by up to twice as much as it speeds up
large-array code:

- ``jacobi``: six sweeps of complex Givens rotations on a fixed 6x6
  Hermitian matrix, the same mix of interpreter work and small numpy
  operations as opeq's own kernel (sweep, solve-mid, and set-up).
- ``stream``: elementwise numpy work on a fixed 2^20-point array, like the
  function-module demos (demo-grid).

``factor()`` is the kernel's nominal time over its median measured time.
Multiplying a measured time by it expresses that time on a reference
machine where the probe takes its nominal time; on the machine the bounds
were set on, the factor stays near 1. The handler runs between bytecodes
of the main thread and adds about 1% to every timed call alike.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np


def _matrix():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    return g + g.conj().T


def jacobi(a0, sweeps=6):
    a = a0.copy()
    n = a.shape[0]
    for _ in range(sweeps):
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0:
                    continue
                mag = abs(apq)
                tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
                t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                ph = apq / mag
                rp = a[p, :].copy()
                a[p, :] = c * rp - s * np.conj(ph) * a[q, :]
                a[q, :] = s * ph * rp + c * a[q, :]
                cp = a[:, p].copy()
                a[:, p] = c * cp - s * ph * a[:, q]
                a[:, q] = s * np.conj(ph) * cp + c * a[:, q]
    return a


def _arrays():
    # preallocated so the probe adds a constant 16 MiB to peak RSS
    return np.random.default_rng(0).standard_normal(1 << 20), np.empty(1 << 20)


def stream(arrays):
    x, buf = arrays
    np.multiply(x, 1.5, out=buf)
    np.add(buf, 2.0, out=buf)
    np.abs(buf, out=buf)
    return np.sqrt(buf, out=buf)


# kind -> (kernel, argument factory, nominal seconds, sampling interval)
PROBES = {
    "jacobi": (jacobi, _matrix, 2.2e-3, 0.25),
    "stream": (stream, _arrays, 4.5e-3, 0.5),
}


class SpeedProbe:
    """Context manager that samples one probe kernel while it is active."""

    def __init__(self, kind: str):
        self._kernel, make, self._nominal, self._interval = PROBES[kind]
        self._arg = make()
        self.samples: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            self._kernel(self._arg)
            self.samples.append(time.perf_counter() - t0)

    def _on_alarm(self, signum, frame):
        self.sample()

    def __enter__(self):
        self.sample()
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self._interval, self._interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def factor(self) -> float:
        return self._nominal / statistics.median(self.samples)
