"""Forward-backward martingale decomposition along sampled paths.

Two layers of objects are computed for a trajectory xi_0..xi_N:

- finite-horizon increments: Cesaro averages over a lookahead window of
  the one-step prediction updates. Writing phi for the Cesaro-weighted
  prediction vector and beta for the averaged n-step drift, the forward
  increment at k is phi(xi_k) - (Q phi)(xi_{k-1}), its time mirror swaps
  xi_{k-1} for xi_{k+1} (reversibility makes past conditionals run
  through the same kernel), and the pair identity

      X_k + X_{k+1} = fwd_{k+1} + rev_k + beta(xi_k) + beta(xi_{k+1})

  holds exactly because (I - Q) phi = f - beta.

- limit increments: with g the resolvent solution (I - Q) g = f and
  w = Q g its one-step prediction, the forward and reversed limit
  increments are f + w read at the current state minus w read at the
  neighbor. Summing them telescopes, giving the whole-path identity

      2 S_n = M^fwd_n + M^rev_n + X_n - X_0       at every prefix n.

  The increments are represented through (f, w) rather than (g, Q g) so
  the telescoping holds in floating point as well as on paper;
  ``_limit_pair`` is the one place that forms this representation, from
  the Poisson solution g of an exact layer (``rclt.spectral._Exact``), so
  a run that decomposes a path and checks the maximal inequality solves
  for g once. Each martingale summand is carried as an exact (hi, lo) pair
  of doubles and summed by a compensated prefix sum, so no rounding
  accumulates along the path and both identity residuals stay at the
  1e-12 certification level along 10^5-step paths.

``decompose_trajectory``, an adapter over ``_decompose``, which takes a
holder, returns every per-position term as an array indexed by time (the
forward increment at k is ``terms.forward_finite[k]``, and so on) and
builds the per-state vectors once per path. Those vectors are spectral
functions of the kernel applied to f, so they are read off the chain's
cached eigensystem in O(S^2) float64 work whatever the horizon; because of
that, the kernel itself checks them (``Q phi`` against the eigenbasis
prediction) before a path is decomposed.
``boundary_term``, the absolute-horizon drift, is the one per-position function.

Every expectation exposed here (martingale certificates, second moments,
L2 distances between finite-horizon and limit increments) is an exact sum
over the finite state space, never a Monte Carlo estimate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numeric import exact_cumsum, two_sum
from .chain import (
    Observable, ReversibleChain, Trajectory, _counts, _fits, _gate, require_centered,
)
from .errors import InvalidArgument, NumericalError
# poisson_solve and spectral_measure are unused here, but bench/layer_trace.py rebinds them
from .spectral import (
    SpectralMeasure, _checked_eigensystem, _Exact, _horizon_weights, _require_measure,
    poisson_solve, spectral_measure,
)

#: residual level certified for both decomposition identities
IDENTITY_TOL = 1e-12


def _horizon_vectors(chain: ReversibleChain, f: Observable, n: int):
    """Per-state vectors (phi, Q phi, beta) for lookahead horizon n.

    phi  = f + sum_{j=1}^{n-1} (1 - j/n) Q^j f   (Cesaro prediction vector)
    beta = (1/n) sum_{j=1}^{n} Q^j f             (averaged n-step drift)

    Both are functions of Q applied to f, so they are evaluated in the
    chain's cached eigenbasis: with d = sqrt(pi) and a = U^T (d f),
    phi = U (c a) / d and beta = U (b a) / d for the weights of
    ``_horizon_weights``, and Q phi = phi - U ((1 - b) a) / d, since
    (1 - t) c = 1 - b. Taking Q phi as phi minus that O(|f|) step, rather
    than as U (t c a) / d, leaves the pair identity one rounding of phi
    away from exact even when phi is large (it grows like min(n, 1 / gap)).
    After the one cached eigensolve this is O(S^2) in plain float64,
    whatever the horizon. The coefficient at eigenvalue 1 is kept: it only
    adds a constant to phi and Q phi, which cancels in every increment.
    """
    n = _counts([n], "horizon", least=1)[0]
    lam, u = _checked_eigensystem(chain)
    d = np.sqrt(chain.stationary)
    a = (d * f.values) @ u
    c, b = _horizon_weights(lam, n)
    phi, step, drift = (u @ np.stack([c * a, (1.0 - b) * a, b * a], axis=1) / d[:, None]).T
    return phi, phi - step, drift


def _decompose_horizon(length: int, horizon: int | None) -> int:
    """The lookahead horizon of a decomposed path of ``length`` steps, checked.

    The path needs at least two steps, and its length + 1 states must fit
    the size ceiling, as ``sample_trajectory`` judges them. The horizon, a
    positive count, defaults to the length. ``decompose_trajectory`` and the
    command line judge their arguments here.
    """
    _fits(_counts([length], "length")[0] + 1, "the path's length + 1 states")
    if length < 2:
        raise InvalidArgument(f"trajectory must have length >= 2, got {length}")
    return length if horizon is None else _counts([horizon], "horizon", least=1)[0]


def _limit_pair(exact: _Exact) -> tuple[np.ndarray, np.ndarray]:
    """Per-state vectors (f + w, w) of the limit increments, w = Q g for (I - Q) g = f.

    The limit increment along x -> y is (f + w)(y) - w(x), which is
    g(y) - (Q g)(x) since g = f + Q g.
    """
    w = exact.chain.kernel @ exact.g
    return exact.f.values + w, w


def _states(chain: ReversibleChain, traj: Trajectory) -> np.ndarray:
    """The states of ``traj``, each checked to be a state of ``chain``.

    This is the one judge of a trajectory: anything but a Trajectory is an
    InvalidArgument before an attribute of it is read.
    """
    if not isinstance(traj, Trajectory):
        raise InvalidArgument(f"expected a Trajectory, got {type(traj).__name__}")
    s = traj.states
    if not np.all((s >= 0) & (s < chain.n_states)):
        raise InvalidArgument(f"trajectory leaves the states 0..{chain.n_states - 1} of the chain")
    return s


def _edges(value: np.ndarray, pred: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Forward and reversed increments along the path s, indexed by time.

    Row 0 holds value(s_k) - pred(s_{k-1}) for k = 1..N, row 1 holds
    value(s_k) - pred(s_{k+1}) for k = 0..N-1; the slot without a neighbor is NaN.
    """
    out = np.full((2, s.shape[0]), np.nan)
    out[0, 1:] = value[s[1:]] - pred[s[:-1]]
    out[1, :-1] = value[s[:-1]] - pred[s[1:]]
    return out


def boundary_term(
    chain: ReversibleChain, f: Observable, traj: Trajectory, k: int, n: int
) -> float:
    """Averaged remaining drift (1/n) sum_{j=1}^{n-k} (Q^j f)(xi_k).

    This is the absolute-horizon boundary value: the prediction of the sum
    over the remaining n - k steps, divided by n. (The pair identity
    inside ``decompose_trajectory`` instead uses the stationary n-step
    lookahead at every position, which is the same expression with n - k
    replaced by n and is the form that closes the identity exactly.)
    """
    k, n = _counts([k, n], "k and n")
    if not 0 <= k <= n:
        raise InvalidArgument(f"need 0 <= k <= n, got k={k}, n={n}")
    require_centered(chain, f)
    s = _states(chain, traj)
    if n > traj.length:
        raise InvalidArgument(f"horizon {n} exceeds trajectory length {traj.length}")
    state = s[k]
    if k == n:
        return 0.0
    drift = _horizon_vectors(chain, f, n - k)[2]
    return float(drift[state]) * (n - k) / n


def boundary_l2_norm(rho: SpectralMeasure, n: int, k: int) -> float:
    """Exact variance of the boundary term, as a spectral sum against rho.

    Var = (1/n^2) * integral of (t + ... + t^{n-k})^2 against the spectral
    measure; it is bounded by (2/n) times the finiteness integral, which
    is how the uniform-in-k decay is certified. The power sum over s = n - k
    steps is s b_s(t) for the drift weight of ``_horizon_weights``, which
    stays accurate for atoms near 1.
    """
    _require_measure(rho)
    n, k = _counts([n, k], "n and k")
    if not 0 <= k <= n:
        raise InvalidArgument(f"need 0 <= k <= n, got k={k}, n={n}")
    steps = n - k
    if steps == 0:
        return 0.0
    geom = steps * _horizon_weights(rho.lambdas, steps)[1]
    return float(np.dot(rho.weights, geom * geom)) / (n * n)


def martingale_certificate(
    chain: ReversibleChain, f: Observable, horizon: int | None = None
) -> float:
    """max over states of |E[increment | conditioning state]|, exactly.

    For every state x, sums Q(x, y) against the increment built from the
    pair (x, y). The same number certifies the forward increments
    (conditioning on the previous state) and the reversed ones
    (conditioning on the next state), because reversibility routes both
    conditionals through the same kernel. With a horizon, the prediction
    comes from the eigenbasis, so this is the kernel-versus-eigensystem
    defect that ``decompose_trajectory`` gates.
    """
    exact = _Exact(chain, f)
    value, pred = _limit_pair(exact) if horizon is None else _horizon_vectors(chain, f, horizon)[:2]
    return float(np.max(np.abs(chain.kernel @ value - pred)))


def limit_difference_second_moment(chain: ReversibleChain, f: Observable) -> float:
    """E(D^2) of the limit increments by exact summation of the joint law."""
    value, w = _limit_pair(_Exact(chain, f))
    gap_sq = (value[None, :] - w[:, None]) ** 2
    return float(chain.stationary @ np.sum(chain.kernel * gap_sq, axis=1))


def l2_convergence_table(
    chain: ReversibleChain, f: Observable, horizons: list[int]
) -> np.ndarray:
    """Exact E (fwd_k^n - fwd_k)^2 for each lookahead horizon n.

    The gap is a(xi_k) - (Q a)(xi_{k-1}) with a = phi_n - g, so its second
    moment is <a, a> - <Q a, Q a> in L2 of the stationary law; stationarity
    makes the value independent of the position k. The sequence decays to
    zero whenever the kernel's spectrum on centered functions stays away
    from 1.
    """
    horizons = _counts(horizons, "horizons")
    if horizons != sorted(set(horizons)) or horizons[0] < 1:
        raise InvalidArgument("horizons must be strictly increasing positive integers")
    g = _Exact(chain, f).g
    out = np.empty(len(horizons))
    for i, n in enumerate(horizons):
        phi, _, _ = _horizon_vectors(chain, f, n)
        a = phi - g
        qa = chain.kernel @ a
        out[i] = chain.pi_dot(a, a) - chain.pi_dot(qa, qa)
    return out


@dataclass(frozen=True)
class DecompositionTerms:
    """All decomposition sequences for one trajectory, indexed by time.

    Arrays have length N + 1 (N = trajectory length); slots where a term
    is undefined hold NaN. ``forward_finite[k]`` and ``forward_limit[k]``
    live on k = 1..N (they read xi_{k-1}), the reversed versions on
    k = 0..N-1 (they read xi_{k+1}), ``cesaro_prediction`` and
    ``lookahead`` everywhere. ``forward_martingale[j]`` sums the limit
    forward increments over k = 1..j and ``reversed_martingale[j]`` the
    reversed ones over k = 0..j-1 (the offset the whole-path identity
    forces). ``pair_residual[k]`` and ``decomposition_residual[j]`` are the
    defects of the two identities, certified below 1e-12.
    """

    horizon: int
    forward_finite: np.ndarray
    reversed_finite: np.ndarray
    cesaro_prediction: np.ndarray
    lookahead: np.ndarray
    forward_limit: np.ndarray
    reversed_limit: np.ndarray
    forward_martingale: np.ndarray
    reversed_martingale: np.ndarray
    pair_residual: np.ndarray
    decomposition_residual: np.ndarray

    @property
    def max_pair_residual(self) -> float:
        return float(np.max(np.abs(self.pair_residual[:-1])))  # slots 0..N-1; a NaN there fails

    @property
    def max_decomposition_residual(self) -> float:
        return float(np.max(np.abs(self.decomposition_residual)))


def _decompose(exact: _Exact, traj: Trajectory, horizon: int | None) -> DecompositionTerms:
    s = _states(exact.chain, traj)
    n_len = traj.length
    n_hor = _decompose_horizon(n_len, horizon)

    phi, pred, drift = _horizon_vectors(exact.chain, exact.f, n_hor)
    _gate(np.max(np.abs(exact.chain.kernel @ phi - pred)),
          IDENTITY_TOL * max(1.0, float(np.max(np.abs(phi)))), NumericalError,
          "horizon vectors miss the kernel by")
    value, w = _limit_pair(exact)
    x = traj.observables
    partial = traj.partial_sums

    forward_finite, reversed_finite = _edges(phi, pred, s)
    forward_limit, reversed_limit = _edges(value, w, s)
    cesaro_prediction = partial + (phi - exact.f.values)[s]
    lookahead = drift[s]

    # martingale prefix sums from exact (hi, lo) summands: the reversed step
    # w(xi_{k-1}) - w(xi_k) is the negated forward one, and TwoSum is odd
    step, step_err = two_sum(w[s[1:]], -w[s[:-1]])
    fwd_hi, fwd_err = two_sum(x[1:], step)
    rev_hi, rev_err = two_sum(x[:-1], -step)
    forward_martingale = np.concatenate(([0.0], exact_cumsum(fwd_hi, fwd_err + step_err)))
    reversed_martingale = np.concatenate(([0.0], exact_cumsum(rev_hi, rev_err - step_err)))

    pair_residual = np.full(n_len + 1, np.nan)
    pair_residual[:-1] = (
        x[:-1]
        + x[1:]
        - forward_finite[1:]
        - reversed_finite[:-1]
        - lookahead[:-1]
        - lookahead[1:]
    )
    decomposition_residual = (
        2.0 * partial - forward_martingale - reversed_martingale - (x - x[0])
    )

    terms = DecompositionTerms(
        horizon=n_hor,
        forward_finite=forward_finite,
        reversed_finite=reversed_finite,
        cesaro_prediction=cesaro_prediction,
        lookahead=lookahead,
        forward_limit=forward_limit,
        reversed_limit=reversed_limit,
        forward_martingale=forward_martingale,
        reversed_martingale=reversed_martingale,
        pair_residual=pair_residual,
        decomposition_residual=decomposition_residual,
    )
    _gate(terms.max_pair_residual, IDENTITY_TOL, NumericalError, "pair identity residual")
    _gate(terms.max_decomposition_residual, IDENTITY_TOL, NumericalError, "decomposition residual")
    return terms


def decompose_trajectory(
    chain: ReversibleChain,
    f: Observable,
    traj: Trajectory,
    horizon: int | None = None,
) -> DecompositionTerms:
    """Fill every decomposition sequence and certify both identities.

    The lookahead horizon of the finite-horizon terms defaults to the
    trajectory length. Raises NumericalError if the kernel applied to phi
    misses the eigenbasis prediction by more than 1e-12 * max(1, max|phi|)
    (phi grows like min(n, 1 / gap)), or if either identity residual
    exceeds 1e-12, which would mean the arithmetic (not the statistics)
    went wrong.
    """
    return _decompose(_Exact(chain, f), traj, horizon)
