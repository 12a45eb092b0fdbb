"""Spectral measure of an observable and the asymptotic variance, three ways.

For a reversible kernel Q and centered observable f, the similarity
transform D^{1/2} Q D^{-1/2} (D = diag of the stationary law) is symmetric,
so Q has a real eigensystem orthonormal in L2(pi). The spectral measure of
f is the atomic measure putting weight <f, psi_k>^2 at eigenvalue
lambda_k; its k-th moment equals the lag-k stationary covariance
E(X_0 X_k).

The eigensystem is solved once per chain (``ReversibleChain`` caches it
read-only), so every spectral measure, gap and series of one chain costs a
projection, not an eigensolve.

The asymptotic variance sigma^2 = lim Var(S_n)/n is computed by three
routes that must agree:

- spectral:  sum of w * (1 + lambda) / (1 - lambda) over atoms,
- resolvent: 2 <g, f> - <f, f> with (I - Q) g = f solved on the centered
  subspace,
- series:    the exact finite-n sequence Var(S_n)/n extrapolated in 1/n.

The series route reads the same cached eigensystem as the spectral route,
so it is not yet independent of the eigensolver: an eigensolver error
both routes share goes unseen by their comparison. Only the resolvent
route avoids the eigensolver.

The finiteness of sum w / (1 - lambda) is exactly the asymptotic
linearity of Var(S_n); mass at lambda = 1 is the failure mode and is
reported as ``FiniteVarianceViolated``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import Observable, ReversibleChain, _array, _frozen, _numbers, require_centered
from .errors import EigenFailure, FiniteVarianceViolated, InvalidArgument, SingularPoisson

#: eigenvalues may exceed [-1, 1] by at most this much before clamping fails
CLAMP_TOL = 1e-10
#: an atom this close to 1 is treated as sitting at 1
ATOM_AT_ONE_TOL = 1e-10
#: atoms below this weight are numerical dust and are dropped
WEIGHT_DROP_TOL = 1e-14
#: residual tolerance of the deflated resolvent solve
POISSON_TOL = 1e-9


@dataclass(frozen=True)
class SpectralMeasure:
    """Atomic spectral measure: eigenvalue locations and nonnegative weights."""

    lambdas: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        lam = _frozen(self.lambdas, "lambdas")
        w = _frozen(self.weights, "weights")
        if lam.shape != w.shape or lam.ndim != 1:
            raise InvalidArgument("lambdas and weights must be 1-d arrays of equal length")
        if not np.all((lam >= -1.0) & (lam <= 1.0)):  # a NaN atom fails both comparisons
            raise InvalidArgument("spectral atoms must lie in [-1, 1]")
        if not np.all(np.isfinite(w) & (w >= 0.0)):
            raise InvalidArgument("spectral weights must be finite and nonnegative")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "weights", w)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def atoms(self) -> list[tuple[float, float]]:
        return [(float(l), float(w)) for l, w in zip(self.lambdas, self.weights)]


def _checked_eigensystem(chain: ReversibleChain) -> tuple[np.ndarray, np.ndarray]:
    """The chain's cached (eigenvalues clipped to [-1, 1], orthonormal eigenvectors).

    Raises EigenFailure when the eigensolver fails or an eigenvalue escapes
    [-1, 1] by more than ``CLAMP_TOL``.
    """
    try:
        lam, phi = chain._eigensystem
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"symmetric eigensolver failed: {exc}") from exc
    excess = max(0.0, float(lam.max()) - 1.0, -1.0 - float(lam.min()))
    if excess > CLAMP_TOL:
        raise EigenFailure(f"eigenvalue escaped [-1, 1] by {excess:.3e}")
    return np.clip(lam, -1.0, 1.0), phi


def spectral_measure(chain: ReversibleChain, f: Observable) -> SpectralMeasure:
    """Project f onto the chain's eigenbasis of the symmetrized kernel."""
    require_centered(chain, f)
    lam, phi = _checked_eigensystem(chain)
    coef = (np.sqrt(chain.stationary) * f.values) @ phi
    weights = coef * coef

    at_one = np.abs(1.0 - lam) <= ATOM_AT_ONE_TOL
    bad_mass = float(weights[at_one].sum())
    if bad_mass > ATOM_AT_ONE_TOL:
        raise FiniteVarianceViolated(
            f"weight {bad_mass:.3e} at eigenvalue 1; observable is not centered "
            "or the variance of partial sums is superlinear"
        )
    keep = ~at_one & (weights >= WEIGHT_DROP_TOL)
    rho = SpectralMeasure(lambdas=lam[keep], weights=weights[keep])

    mass = chain.pi_dot(f.values, f.values)
    mass_err = abs(rho.total_mass - mass)
    if mass_err > 1e-10 * max(1.0, mass):
        raise EigenFailure(f"spectral mass misses E(X_0^2) by {mass_err:.3e}")
    return rho


def moment(rho: SpectralMeasure, k: int) -> float:
    """k-th moment of the spectral measure = lag-k stationary covariance."""
    k = _numbers(int, [k], "moment order", least=0)[0]
    return float(np.dot(rho.weights, rho.lambdas**k))


def _atoms_off_one(rho: SpectralMeasure) -> tuple[np.ndarray, np.ndarray]:
    """(weights, atoms) of the positive-weight atoms, none of them within 1e-10 of 1.

    An atom of weight zero adds nothing to an integral, so it is left out
    rather than multiplied by 1/(1-t), which is infinite at t = 1.
    """
    positive = rho.weights > 0.0
    w, lam = rho.weights[positive], rho.lambdas[positive]
    if np.any(np.abs(1.0 - lam) <= ATOM_AT_ONE_TOL):
        raise FiniteVarianceViolated("spectral mass within 1e-10 of eigenvalue 1")
    return w, lam


def finiteness_integral(rho: SpectralMeasure) -> float:
    """Integral of 1/(1-t): finite exactly when Var(S_n) grows linearly."""
    w, lam = _atoms_off_one(rho)
    return float(np.dot(w, 1.0 / (1.0 - lam)))


def asymptotic_variance_spectral(rho: SpectralMeasure) -> float:
    """Integral of (1+t)/(1-t) against the spectral measure."""
    w, lam = _atoms_off_one(rho)
    return float(np.dot(w, (1.0 + lam) / (1.0 - lam)))


def poisson_solve(chain: ReversibleChain, f: Observable) -> np.ndarray:
    """Solve (I - Q) g = f on the centered subspace.

    The constant eigendirection is deflated by a rank-one shift (adding the
    outer product of the all-ones vector with the stationary law), which
    leaves a well-conditioned system whose solution is automatically
    centered. Raises SingularPoisson when the residual exceeds 1e-9.
    """
    require_centered(chain, f)
    n = chain.n_states
    shifted = np.eye(n) - chain.kernel + np.outer(np.ones(n), chain.stationary)
    try:
        g = np.linalg.solve(shifted, f.values)
    except np.linalg.LinAlgError as exc:
        raise SingularPoisson(f"deflated resolvent solve failed: {exc}") from exc
    residual = np.max(np.abs(f.values - (g - chain.kernel @ g)))
    scale = max(1.0, float(np.max(np.abs(f.values))))
    if not np.all(np.isfinite(g)) or residual > POISSON_TOL * scale:
        raise SingularPoisson(f"resolvent residual {residual:.3e} exceeds {POISSON_TOL}")
    return g


def asymptotic_variance_poisson(chain: ReversibleChain, f: Observable) -> float:
    """2 <g, f> - <f, f> with g the solution of the deflated resolvent."""
    g = poisson_solve(chain, f)
    return 2.0 * chain.pi_dot(g, f.values) - chain.pi_dot(f.values, f.values)


def asymptotic_variance_series(chain: ReversibleChain, f: Observable, n_max: int) -> np.ndarray:
    """Exact Var(S_n)/n for n = 1..n_max from the covariance sequence."""
    n_max = _numbers(int, [n_max], "n_max", least=1)[0]
    rho = spectral_measure(chain, f)
    gamma = np.empty(n_max)
    powers = rho.weights.copy()
    for k in range(n_max):
        gamma[k] = powers.sum()
        powers *= rho.lambdas
    # Var(S_n)/n = gamma_0 + 2 sum_{k<n} (1 - k/n) gamma_k
    head = np.concatenate(([0.0], np.cumsum(gamma[1:])))
    tilt = np.concatenate(([0.0], np.cumsum(np.arange(1, n_max) * gamma[1:])))
    n = np.arange(1, n_max + 1, dtype=float)
    return gamma[0] + 2.0 * head - 2.0 * tilt / n


def extrapolate_series_limit(var_over_n: np.ndarray) -> float:
    """Two-point Richardson extrapolation of Var(S_n)/n in powers of 1/n.

    The sequence is sigma^2 - c/n up to a geometrically small remainder,
    so eliminating the 1/n term between n_max and n_max/2 recovers the
    limit to near machine precision for chains with a spectral gap.
    """
    v = _array(var_over_n, "var_over_n", InvalidArgument)
    n = _numbers(int, [v.shape[0]], "length of var_over_n", least=1)[0]
    if n < 2:
        return float(v[-1])
    h = n // 2
    return float((n * v[n - 1] - h * v[h - 1]) / (n - h))


def variance_integrand_check(rho: SpectralMeasure, n: int) -> float:
    """Var(S_n)/n by the one-shot spectral integrand, for cross-checking.

    Integrates (1/n) [ (t + ... + t^n)^2
                       + sum_{k=0}^{n-1} ((1 + ... + t^k)^2 - (t + ... + t^{k+1})^2) ]
    atom by atom. The telescoping sum must start at k = 0 for the bracket
    to reproduce the covariance formula exactly.
    """
    n = _numbers(int, [n], "n", least=1)[0]
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


def cauchy_quantity(rho: SpectralMeasure, n: int, p: int) -> float:
    """Closed-form L2 gap of the one-step prediction increments.

    Evaluates the integral of t^{2n-2} (1 - t^{p-n+1})^2 (1+t) / (1-t)
    atomwise, written with the geometric quotient expanded so the
    expression stays polynomial (finite at t = 1 and t = -1).
    """
    n, p = _numbers(int, [n, p], "n and p")
    if not (1 <= n < p):
        raise InvalidArgument(f"need 1 <= n < p, got n={n}, p={p}")
    lam = rho.lambdas
    m = p - n + 1
    head = lam ** (2 * n - 2)
    tail = 1.0 - lam**m
    quotient = np.zeros_like(lam)  # 1 + t + ... + t^{m-1}, exact at t = +-1
    tpow = np.ones_like(lam)
    for _ in range(m):
        quotient += tpow
        tpow *= lam
    return float(np.dot(rho.weights, head * tail * quotient * (1.0 + lam)))


def cauchy_quantity_direct(chain: ReversibleChain, f: Observable, n: int, p: int) -> float:
    """The same quantity from its definition, by summing the joint law.

    Builds u = sum_{i=n}^{p} Q^{i-1} f and returns
    E (u(xi_1) - (Q u)(xi_0))^2 as an exact double sum over states; this is
    the independent oracle for ``cauchy_quantity``.
    """
    n, p = _numbers(int, [n, p], "n and p")
    if not (1 <= n < p):
        raise InvalidArgument(f"need 1 <= n < p, got n={n}, p={p}")
    require_centered(chain, f)
    v = f.values.copy()
    u = np.zeros_like(v)
    for i in range(1, p + 1):
        if i >= n:
            u += v
        v = chain.kernel @ v
    qu = chain.kernel @ u
    gap_sq = (u[None, :] - qu[:, None]) ** 2
    return float(chain.stationary @ np.sum(chain.kernel * gap_sq, axis=1))


def spectral_gap(chain: ReversibleChain, absolute: bool = False) -> float:
    """1 minus the second-largest eigenvalue (or largest modulus below 1)."""
    rest = _checked_eigensystem(chain)[0][:-1]  # ascending, without the top eigenvalue 1
    if rest.size == 0:
        return 0.0
    top = float(np.max(np.abs(rest))) if absolute else float(rest[-1])
    return 1.0 - top


@dataclass(frozen=True)
class VarianceReport:
    """The three asymptotic-variance routes plus the exact finite-n profile."""

    sigma2_spectral: float
    sigma2_poisson: float
    sigma2_series: float
    finiteness_integral: float
    var_over_n: np.ndarray

    def to_dict(self) -> dict:
        return {
            "sigma2_spectral": self.sigma2_spectral,
            "sigma2_poisson": self.sigma2_poisson,
            "sigma2_series": self.sigma2_series,
            "finiteness_integral": self.finiteness_integral,
            "var_over_n": [[i + 1, float(v)] for i, v in enumerate(self.var_over_n)],
        }


def variance_report(chain: ReversibleChain, f: Observable, n_max: int = 1000) -> VarianceReport:
    """Assemble the three-route variance comparison."""
    rho = spectral_measure(chain, f)
    series = asymptotic_variance_series(chain, f, n_max)
    return VarianceReport(
        sigma2_spectral=asymptotic_variance_spectral(rho),
        sigma2_poisson=asymptotic_variance_poisson(chain, f),
        sigma2_series=extrapolate_series_limit(series),
        finiteness_integral=finiteness_integral(rho),
        var_over_n=series,
    )
