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
routes:

- spectral:  sum of w * (1 + lambda) / (1 - lambda) over atoms,
- resolvent: 2 <g, f> - <f, f> with (I - Q) g = f solved on the centered
  subspace,
- series:    the exact finite-n sequence Var(S_n)/n extrapolated in 1/n.

Both spectral routes take the spectral measure, and only the resolvent
route takes (chain, f). The series route reads the same measure as the
spectral route, so it is not independent of the eigensolver: an
eigensolver error both routes share goes unseen by their comparison. Only
the resolvent route avoids the eigensolver, so the spectral and resolvent
routes are the pair that ``_Exact.sigma2`` judges: they must agree to
``ROUTE_TOL`` relative, else EigenFailure. Every reader of sigma^2 reads
it there, ``variance_report`` and the normal-limit and path-scaling checks
of ``rclt.limits`` alike, so each meets that one gate. The series route is
reported ungated, since at a finite ``n_max`` it need not have converged.
Every integral against the measure takes the measure itself, judged by
``_require_measure``.

The finiteness of sum w / (1 - lambda) is exactly the asymptotic
linearity of Var(S_n); mass at lambda = 1 is the failure mode and is
reported as ``FiniteVarianceViolated``.

The measure scales by c^2 when f scales by c, and so do sigma^2 and the
finiteness integral. So every gate on a number of f reads f's own scale:
the weight at 1, the spectral mass and the route agreement are judged
relative to E f^2, and the resolvent residual relative to max|f|. No atom
off 1 is dropped for being light, since a light atom near 1 can carry a
share of sigma^2 far above its share of the mass.

The exact objects of a (chain, f), the spectral measure rho, the Poisson
solution g and the judged sigma^2 of the two routes, are held by
``_Exact``: it judges the pair once and builds each object at its first
read. This module decides who builds them. The command line makes one
holder per run and hands it to every command and reader, so a run builds
rho once, solves for g once and judges sigma^2 once; each public
(chain, f) function, ``variance_report`` among them, is a thin adapter
that makes a holder of its own.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chain import (
    Observable, ReversibleChain, _array, _booleans, _counts, _frozen, _gate, _numbers,
    _require_chain, require_centered,
)
from .errors import (
    EigenFailure, FiniteVarianceViolated, InvalidArgument, NumericalError, SingularPoisson,
)

#: eigenvalues may exceed [-1, 1] by at most this much before clamping fails
CLAMP_TOL = 1e-10
#: an atom this close to 1 is treated as sitting at 1, and it may carry at most this
#: share of the spectral mass E f^2
ATOM_AT_ONE_TOL = 1e-10
#: residual tolerance of the deflated resolvent solve, relative to max|f|
POISSON_TOL = 1e-9
#: relative tolerance within which the spectral and Poisson sigma^2 must agree
ROUTE_TOL = 1e-8


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


def _require_measure(rho) -> None:
    """Reject anything but a SpectralMeasure with InvalidArgument.

    Every function of the measure judges it here before reading an atom.
    """
    if not isinstance(rho, SpectralMeasure):
        raise InvalidArgument(f"expected a SpectralMeasure, got {type(rho).__name__}")


def _checked_eigensystem(chain: ReversibleChain) -> tuple[np.ndarray, np.ndarray]:
    """The chain's cached (eigenvalues clipped to [-1, 1], orthonormal eigenvectors).

    Raises EigenFailure when the eigensolver fails or an eigenvalue escapes
    [-1, 1] by more than ``CLAMP_TOL`` or is NaN.
    """
    try:
        lam, phi = chain._eigensystem
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"symmetric eigensolver failed: {exc}") from exc
    _gate(np.max(np.abs(lam)) - 1.0, CLAMP_TOL, EigenFailure, "eigenvalue escaped [-1, 1] by")
    return np.clip(lam, -1.0, 1.0), phi


def spectral_measure(chain: ReversibleChain, f: Observable) -> SpectralMeasure:
    """Project f onto the chain's eigenbasis of the symmetrized kernel.

    Every atom off 1 is kept, whatever its weight. FiniteVarianceViolated
    when the weight at 1 exceeds ``ATOM_AT_ONE_TOL`` E f^2, EigenFailure when
    the mass misses E f^2 by more than 1e-10 E f^2.
    """
    require_centered(chain, f)
    lam, phi = _checked_eigensystem(chain)
    coef = (np.sqrt(chain.stationary) * f.values) @ phi
    weights = coef * coef
    mass = chain.pi_dot(f.values, f.values)

    at_one = np.abs(1.0 - lam) <= ATOM_AT_ONE_TOL
    _gate(weights[at_one].sum(), ATOM_AT_ONE_TOL * mass, FiniteVarianceViolated,
          "superlinear variance of partial sums: the weight at eigenvalue 1 is")
    rho = SpectralMeasure(lambdas=lam[~at_one], weights=weights[~at_one])
    _gate(abs(rho.total_mass - mass), 1e-10 * mass, EigenFailure,
          "spectral mass misses E(X_0^2) by")
    return rho


def moment(rho: SpectralMeasure, k: int) -> float:
    """k-th moment of the spectral measure = lag-k stationary covariance."""
    _require_measure(rho)
    k = _counts([k], "moment order", least=0)[0]
    return float(np.dot(rho.weights, rho.lambdas**k))


def _atoms_off_one(rho: SpectralMeasure) -> tuple[np.ndarray, np.ndarray]:
    """(weights, atoms) of the positive-weight atoms, none of them within 1e-10 of 1.

    An atom of weight zero adds nothing to an integral, so it is left out
    rather than multiplied by 1/(1-t), which is infinite at t = 1.
    """
    _require_measure(rho)
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
    centered. Raises SingularPoisson when the residual exceeds
    ``POISSON_TOL`` max|f|.
    """
    require_centered(chain, f)
    n = chain.n_states
    shifted = np.eye(n) - chain.kernel + np.outer(np.ones(n), chain.stationary)
    try:
        g = np.linalg.solve(shifted, f.values)
    except np.linalg.LinAlgError as exc:
        raise SingularPoisson(f"deflated resolvent solve failed: {exc}") from exc
    _gate(np.max(np.abs(f.values - (g - chain.kernel @ g))),
          POISSON_TOL * float(np.max(np.abs(f.values))), SingularPoisson, "resolvent residual")
    return g


class _Exact:
    """The exact layer of one (chain, f): its ``rho``, its Poisson solution ``g`` and ``sigma2``.

    The pair is judged once, when the holder is made. Each of ``rho``, ``g``
    and ``sigma2`` is built at its first read, ``rho`` and ``g`` by
    ``spectral_measure`` or ``poisson_solve`` looked up in this module's
    globals, and kept for every later read. A build that raises keeps nothing,
    so each later read raises again. The command line makes one holder per
    run; each public (chain, f) function makes its own.
    """

    def __init__(self, chain: ReversibleChain, f: Observable):
        require_centered(chain, f)
        self.chain, self.f = chain, f

    @cached_property
    def rho(self) -> SpectralMeasure:
        return spectral_measure(self.chain, self.f)

    @cached_property
    def g(self) -> np.ndarray:
        return poisson_solve(self.chain, self.f)

    @cached_property
    def sigma2(self) -> tuple[float, float]:
        """(spectral, Poisson) sigma^2, the two routes independent of each other, judged.

        Raises EigenFailure when they differ by more than ``ROUTE_TOL`` times
        the larger of their magnitudes and 1e-3 E f^2, the mass of ``rho``, as
        ``spectral_measure`` does when the mass misses. Every reader of sigma^2 reads it here, so each
        meets this gate.
        """
        spectral, poisson = asymptotic_variance_spectral(self.rho), _sigma2_poisson(self)
        floor = 1e-3 * self.rho.total_mass
        _gate(abs(spectral - poisson), ROUTE_TOL * max(abs(spectral), abs(poisson), floor),
              EigenFailure, f"sigma^2 routes disagree: spectral {spectral!r}, Poisson {poisson!r}, by")
        return spectral, poisson


def _sigma2_poisson(exact: _Exact) -> float:
    f = exact.f.values
    return 2.0 * exact.chain.pi_dot(exact.g, f) - exact.chain.pi_dot(f, f)


def asymptotic_variance_poisson(chain: ReversibleChain, f: Observable) -> float:
    """2 <g, f> - <f, f> with g the solution of the deflated resolvent."""
    return _sigma2_poisson(_Exact(chain, f))


def asymptotic_variance_series(rho: SpectralMeasure, n_max: int) -> np.ndarray:
    """Exact Var(S_n)/n for n = 1..n_max from the covariance sequence, the moments of rho."""
    _require_measure(rho)
    n_max = _counts([n_max], "n_max", least=1)[0]
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
    A non-finite entry is an InvalidArgument; a limit that overflows from
    finite entries is a NumericalError.
    """
    v = _array(var_over_n, "var_over_n", InvalidArgument)
    if v.ndim != 1:
        raise InvalidArgument(f"var_over_n must be a 1-d vector, got shape {v.shape}")
    n = _numbers(int, [v.shape[0]], "length of var_over_n", least=1)[0]
    if not np.all(np.isfinite(v)):
        raise InvalidArgument("var_over_n must hold finite values")
    if n < 2:
        return float(v[-1])
    h = n // 2
    with np.errstate(over="ignore", invalid="ignore"):
        limit = float((n * v[n - 1] - h * v[h - 1]) / (n - h))
    if not np.isfinite(limit):
        raise NumericalError(f"the extrapolated limit of var_over_n overflows to {limit}")
    return limit


def _horizon_weights(lam: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Spectral weights (c, b) of the Cesaro vector and the drift at horizon n.

    c(t) = sum_{j<n} (1 - j/n) t^j and b(t) = (1/n) sum_{j=1}^{n} t^j, so that
    (1 - t) c(t) = 1 - b(t). With x = 1 - t, far from t = 1 (n x >= 1)
    b = t (1 - t^n) / (n x), with 1 - t^n taken through expm1 and log1p
    where t^n may be near 1, and c = (1 - b) / x. Near t = 1 that quotient
    cancels, so c is summed from its exact expansion
    (1/n) sum_k C(n+1, k+2) (t - 1)^k, whose terms shrink by a factor
    n x / 3 < 1/3 or better, until they fall below rounding; there
    b = 1 - x c. The split at n x = 1 balances the rounding of the two
    forms, which stay within 5e-16 relative of the exact values, and
    c(1) = (n + 1) / 2, b(1) = 1.
    """
    x = 1.0 - lam
    c = np.empty_like(lam)
    b = np.empty_like(lam)
    far = n * x >= 1.0
    t, xf = lam[far], x[far]
    rest = 1.0 - t**n
    # where |t| > 1/2, |t|^n - 1 = expm1(n log1p(-(1 - |t|))) keeps 1 - t^n accurate
    big = np.abs(t) > 0.5
    pw = np.expm1(n * np.log1p(np.abs(t[big]) - 1.0))
    rest[big] = -pw if n % 2 == 0 else np.where(t[big] > 0.0, -pw, 2.0 + pw)
    b[far] = t * rest / (n * xf)
    c[far] = (1.0 - b[far]) / xf

    near = ~far
    y = -x[near]
    term = np.full(y.shape, (n + 1) / 2.0)
    total = term.copy()
    for k in range(n - 1):
        term *= (n - k - 1) / (k + 3) * y
        total += term
        if np.all(np.abs(term) <= np.finfo(float).eps * np.abs(total)):
            break
    c[near] = total
    b[near] = 1.0 - x[near] * total
    return c, b


def cauchy_quantity(rho: SpectralMeasure, n: int, p: int) -> float:
    """Closed-form L2 gap of the one-step prediction increments.

    Evaluates the integral of t^{2n-2} (1 - t^{p-n+1})^2 (1+t) / (1-t)
    atomwise, with one factor (1 - t^m) / (1 - t), m = p - n + 1 >= 2,
    replaced by the geometric sum S(t) = 1 + t + ... + t^{m-1}, so the
    integrand stays finite at t = 1 and t = -1. The other factor 1 - t^m is
    taken as (1 - t) S(t), since 1 - t^m itself cancels for atoms near 1.
    S(s) at s = |t| is 1 + (m - 1) b(s) for the drift weight b of
    ``_horizon_weights`` at horizon m - 1, which stays accurate for atoms
    near 1 and costs no loop over m. The terms of S(t) cancel near -1, so at
    a negative atom S(t) = (1 - t^m) / (1 + s), where 1 - t^m is 1 + s^m for
    odd m and (1 - s) S(s) for even m: neither cancels.
    """
    _require_measure(rho)
    n, p = _counts([n, p], "n and p")
    if not (1 <= n < p):
        raise InvalidArgument(f"need 1 <= n < p, got n={n}, p={p}")
    lam = rho.lambdas
    m = p - n + 1
    s = np.abs(lam)
    quotient = 1.0 + (m - 1) * _horizon_weights(s, m - 1)[1]
    neg = lam < 0.0
    top = (1.0 - s[neg]) * quotient[neg] if m % 2 == 0 else 1.0 + s[neg] ** m
    quotient[neg] = top / (1.0 + s[neg])
    head = lam ** (2 * n - 2)
    tail = (1.0 - lam) * quotient
    return float(np.dot(rho.weights, head * tail * quotient * (1.0 + lam)))


def spectral_gap(chain: ReversibleChain, absolute: bool = False) -> float:
    """1 minus the second-largest eigenvalue (or largest modulus below 1)."""
    _require_chain(chain)
    _booleans({"absolute": absolute})
    rest = _checked_eigensystem(chain)[0][:-1]  # ascending, without the top eigenvalue 1
    if rest.size == 0:
        return 0.0
    top = float(np.max(np.abs(rest))) if absolute else float(rest[-1])
    return 1.0 - top


@dataclass(frozen=True)
class VarianceReport:
    """The three asymptotic-variance routes plus the exact finite-n profile.

    ``measure`` is the one spectral measure that the spectral and series
    routes and the finiteness integral read; ``to_dict`` leaves it out.
    """

    measure: SpectralMeasure
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


def _variance_report(exact: _Exact, n_max: int) -> VarianceReport:
    """The variance report of ``exact``'s (chain, f), its two independent routes judged.

    The spectral and Poisson sigma^2 are ``exact.sigma2``, judged there. The
    series route is not judged: at a finite ``n_max`` below the chain's
    relaxation time it has not converged, so its distance says how far
    ``n_max`` is from mixing, not whether a number is wrong.
    """
    _counts([n_max], "n_max", least=1)  # judged before the eigensolve
    rho = exact.rho
    series = asymptotic_variance_series(rho, n_max)
    spectral, poisson = exact.sigma2
    return VarianceReport(
        measure=rho,
        sigma2_spectral=spectral,
        sigma2_poisson=poisson,
        sigma2_series=extrapolate_series_limit(series),
        finiteness_integral=finiteness_integral(rho),
        var_over_n=series,
    )


def variance_report(chain: ReversibleChain, f: Observable, n_max: int = 1000) -> VarianceReport:
    """Assemble the three-route variance comparison.

    The spectral and Poisson routes must agree to ``ROUTE_TOL`` relative, else
    EigenFailure (a numerical error, exit 3 under the CLI); the series route is
    reported as computed (see ``_variance_report``).
    """
    return _variance_report(_Exact(chain, f), n_max)
