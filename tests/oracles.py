"""Reference computations that the tests hold the library against.

Each oracle reaches its quantity by a different route from the library's
closed form and imports nothing from ``rclt``: it reads only the arrays of
the objects it is given (``lambdas`` and ``weights`` of a spectral measure,
``kernel`` and ``stationary`` of a chain, ``values`` of an observable).
Tests call them with fixed valid inputs, so they check no arguments.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np


def variance_integrand_check(rho, n: int) -> float:
    """Var(S_n)/n by the one-shot spectral integrand.

    Integrates (1/n) [ (t + ... + t^n)^2
                       + sum_{k=0}^{n-1} ((1 + ... + t^k)^2 - (t + ... + t^{k+1})^2) ]
    atom by atom. The telescoping sum must start at k = 0 for the bracket
    to reproduce the covariance formula exactly.
    """
    lam = rho.lambdas
    one_minus_sq = 1.0 - lam * lam
    partial = np.ones_like(lam)  # 1 + t + ... + t^k, starting at k = 0
    tpow = lam.copy()
    bracket = one_minus_sq.copy()
    for _ in range(1, n):
        partial = partial + tpow
        tpow = tpow * lam
        bracket = bracket + partial * partial * one_minus_sq
    bracket = bracket + (lam * partial) ** 2
    return float(np.dot(rho.weights, bracket)) / n


def cauchy_quantity_direct(chain, f, n: int, p: int) -> float:
    """The one-step prediction gap of ``rclt.cauchy_quantity``, from its definition.

    Builds u = sum_{i=n}^{p} Q^{i-1} f and returns
    E (u(xi_1) - (Q u)(xi_0))^2 as an exact double sum over states.
    """
    v = f.values.copy()
    u = np.zeros_like(v)
    for i in range(1, p + 1):
        if i >= n:
            u += v
        v = chain.kernel @ v
    qu = chain.kernel @ u
    gap_sq = (u[None, :] - qu[:, None]) ** 2
    return float(chain.stationary @ np.sum(chain.kernel * gap_sq, axis=1))


def cauchy_quantity_exact(rho, n: int, p: int) -> Fraction:
    """``rclt.cauchy_quantity`` in exact rational arithmetic on the measure's doubles.

    Sums w t^{2n-2} (1 - t^m) (1 + t + ... + t^{m-1}) (1 + t), m = p - n + 1,
    over the atoms, each double read as the rational it is.
    """
    m = p - n + 1
    total = Fraction(0)
    for t, w in zip(map(Fraction, rho.lambdas.tolist()), map(Fraction, rho.weights.tolist())):
        total += w * t ** (2 * n - 2) * (1 - t**m) * sum(t**j for j in range(m)) * (1 + t)
    return total
