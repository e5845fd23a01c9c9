"""A fixed reference computation, timed beside the workloads.

The benchmark host is shared, and its speed drifts: the same gradient at
the same points took from 390 to 780 µs within one minute, with equal wall
and CPU time (the core slowed; the process was not descheduled). Timing
this reference right next to each measurement gives the host's speed at
that moment, and the time metrics are scaled to a reference speed. A
reference tracks the host's slowdowns only for work like its own:
``HostSpeed`` follows the survey-model gradients and the set-up code, and
``MatvecSpeed`` the BLAS-bound surface model. Neither uses anything from
contactfatigue, so a change to the package cannot move them.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.special import digamma, gammaln

class _Pair:
    __slots__ = ("x", "k")

    def __init__(self, x, k):
        self.x = x
        self.k = k


class HostSpeed:
    """Times a fixed computation shaped like a survey-model gradient.

    Small objects, dicts and numpy calls on tiny arrays (per-block glue),
    ufuncs and ``scipy.special`` on 1500-vectors (per-row likelihood),
    small matrix products and an interpreter loop.
    """

    #: time of one ``measure`` call that scaled figures are referred to:
    #: they read as if the host always ran the reference in this time
    REFERENCE_US = 3000.0

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.uniform(0.5, 5.0, 1500)
        self._b = rng.standard_normal((1500, 20))
        self._v = rng.standard_normal(20)
        self._m = rng.standard_normal((1000, 400))
        self._x = rng.standard_normal(400)
        self._small = rng.standard_normal(8)
        self._groups = np.arange(1500) % 85

    def _work(self) -> float:
        s = 0.0
        for i in range(400):
            pair = _Pair(self._small, i)
            v = np.exp(0.5 * pair.x[:4] + 1.0)
            d = {"v": v, "k": pair.k}
            s += float(v.sum()) + float(d["v"][0]) + d["k"]
        for _ in range(4):
            e = np.exp(0.3 * self._a)
            d = digamma(self._a + 1.0)
            s += float(gammaln(self._a + e).sum() + d @ (self._b @ self._v))
            t = self._b.T @ d
            for j in range(t.size):
                s += float(t[j])
            s += float(np.bincount(self._groups, weights=d).sum())
        y = self._m @ self._x
        s += float(self._m.T @ y @ self._x)
        k = 0
        for i in range(3000):
            k += i * i
        return s + k

    def measure(self) -> float:
        """µs taken by the reference computation now."""
        t0 = time.perf_counter()
        self._work()
        return (time.perf_counter() - t0) * 1e6

    def scale(self, measured_us: float) -> float:
        """Factor that turns a time measured now into reference time."""
        return self.REFERENCE_US / measured_us


class MatvecSpeed(HostSpeed):
    """Times a product with a 4080 x 820 matrix and with its transpose.

    That is the shape of the surface model's basis products, which stream
    26 MB from memory per gradient. Their slowdowns follow the host's
    memory bandwidth, which the cache-resident ``HostSpeed`` work does not
    see: over 820 windows of the surface gradient, scaling by this
    reference cut the spread of ten chunk medians from 0.11 to 0.04, and
    ``HostSpeed`` only to 0.09.
    """

    REFERENCE_US = 3500.0

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._m = rng.standard_normal((4080, 820))
        self._x = rng.standard_normal(820)
        self._y = rng.standard_normal(4080)

    def _work(self) -> float:
        return float(self._y @ (self._m @ self._x) + (self._y @ self._m).sum())
