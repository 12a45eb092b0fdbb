"""Error-free accumulation that keeps prefix identities at machine precision.

Cumulative sums of thousands of O(1) terms lose ~n*eps absolute accuracy
when run naively in float64, which is too coarse for the 1e-12 identity
certificates this package asserts along whole trajectories. The prefix
sums here are compensated with TwoSum error-free transformations (Ogita,
Rump & Oishi, "Accurate sum and dot product", SISC 2005): the rounding
error of every float64 addition is recovered exactly and summed on its
own, so each stored prefix is as accurate as if it had been accumulated
in twice the working precision and rounded once. Everything is plain,
vectorised float64, so the result is the same on every platform.
"""
from __future__ import annotations

import numpy as np


def two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e == a + b exactly (Knuth's TwoSum)."""
    s = a + b
    b_virtual = s - a
    return s, (a - (s - b_virtual)) + (b - b_virtual)


def exact_cumsum(x, lo=None) -> np.ndarray:
    """Prefix sums of x (plus its low parts ``lo``) as if summed in twice float64 precision.

    ``np.cumsum`` forms s_i = fl(s_{i-1} + x_i) in order; the TwoSum error
    of each of those additions is then computed elementwise and its prefix
    sums, with ``lo``, are added back once.
    """
    x = np.asarray(x, dtype=float)
    s = np.cumsum(x)
    prev = np.zeros_like(s)
    prev[1:] = s[:-1]
    err = two_sum(prev, x)[1]
    if lo is not None:
        err += lo
    return s + np.cumsum(err)
