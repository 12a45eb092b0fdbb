from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import rclt
from rclt._numeric import exact_cumsum, two_sum

EPS = Fraction(1, 2**53)


def _cancelling(seed: int, n: int = 1500):
    """Magnitudes 1e-8..1e8 of both signs; every term is cancelled later in the sequence."""
    rng = np.random.default_rng(seed)
    big = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    x = np.concatenate([big, -big[rng.permutation(n)]])
    return x, rng.standard_normal(2 * n) * np.spacing(x)


def test_two_sum_is_error_free() -> None:
    a = _cancelling(3)[0]
    b = np.roll(a, 1)
    s, e = two_sum(a, b)
    assert np.array_equal(s, a + b)
    for ai, bi, si, ei in zip(a, b, s, e):
        assert Fraction(si) + Fraction(ei) == Fraction(ai) + Fraction(bi)


@pytest.mark.parametrize("with_lo", [False, True], ids=["hi-only", "hi-lo"])
def test_exact_cumsum_matches_exact_prefixes(with_lo: bool) -> None:
    # the compensated-sum error bound (Ogita, Rump & Oishi 2005): each prefix
    # is within eps |S_i| plus a term second order in eps, which the plain
    # float64 cumsum, first order in eps, misses
    x, lo = _cancelling(5)
    if not with_lo:
        lo = np.zeros_like(x)
    got = exact_cumsum(x, lo if with_lo else None)
    naive = np.cumsum(x + lo)
    exact = abs_x = abs_lo = Fraction(0)
    naive_misses = 0
    for i, (xi, li) in enumerate(zip(x, lo)):
        exact += Fraction(xi) + Fraction(li)
        abs_x += abs(Fraction(xi))
        abs_lo += abs(Fraction(li))
        gamma = 2 * (i + 1) * EPS
        bound = EPS * abs(exact) + gamma * (gamma * abs_x + abs_lo)
        assert abs(Fraction(got[i]) - exact) <= bound, i
        naive_misses += abs(Fraction(naive[i]) - exact) > bound
    assert naive_misses > len(x) // 2


def test_exact_cumsum_of_nothing_is_empty() -> None:
    for out in (exact_cumsum([]), exact_cumsum(np.array([]), np.array([]))):
        assert isinstance(out, np.ndarray) and out.shape == (0,)


def test_no_module_leans_on_long_double() -> None:
    # long double is plain double on arm64 macOS and MSVC, so no certified
    # result may depend on it
    modules = sorted(Path(rclt.__file__).parent.glob("*.py"))
    assert modules
    for module in modules:
        assert "longdouble" not in module.read_text(), module.name
