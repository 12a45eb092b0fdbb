"""Seeded statistical verification of the limit behavior of partial sums.

Four checks run here, each against a stationary reversible chain with a
centered observable of nondegenerate asymptotic variance sigma^2:

- normal limit: the law of S_n / (sigma sqrt(n)) over many independent
  replicas is compared to the standard normal by Kolmogorov-Smirnov
  distance, with the threshold calibrated from the
  Dvoretzky-Kiefer-Wolfowitz bound.
- path-scaling profile: the rescaled path S_[nt] / sqrt(n) must show the
  Brownian signature Var = sigma^2 t and Cov(s, t) = sigma^2 min(s, t).
- maximal inequality: for the limit martingale increments D_k with partial
  sums M_k, running maximum M*_k = max(0, M_1..M_k) and level lam,

      E((M*_n - lam)_+^2)  <=  4 sum_k E(D_k^2 1{M*_k > lam}),

  verified either exactly (full path enumeration with exact stationary
  probabilities) or by seeded Monte Carlo with standard errors.
- uniform integrability: tail expectations of max_j S_j^2 / n over a grid
  of cutoffs, reported per trajectory length as a decay diagnostic.

A check with a threshold also judges it: ``LimitReport.failures`` names
every comparison that missed, and ``passed`` is true when none did.

Replica r always consumes its own generator stream seeded from
(master seed, r), so every number is bit-reproducible and batch
simulation agrees exactly with stacking single sampled trajectories.
A step of m replicas on S states costs O(m log S): each replica bisects
its own cumulative kernel row and compares the doubles ``bisect_right`` does.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .chain import Observable, ReversibleChain, _cumulative_tables, derive_seed, require_centered
from .decomposition import resolvent_pair
from .errors import (
    DegenerateVariance,
    ExhaustiveTooLarge,
    InvalidArgument,
    InvalidLength,
    InvalidReplicas,
)
from .spectral import asymptotic_variance_spectral, spectral_measure

#: sigma^2 below this is treated as the degenerate case
DEGENERATE_TOL = 1e-8
#: cap on n_states ** (n + 1) in exhaustive mode
EXHAUSTIVE_BUDGET = 10**6
#: number of standard errors granted to statistical comparisons
SE_MULTIPLIER = 3.0


@dataclass(frozen=True)
class LimitReport:
    """Everything needed to reproduce and judge one statistical check."""

    op: str
    n: int
    m: int | None = None
    sigma2_used: float | None = None
    master_seed: int | None = None
    exact: bool = False
    mode: str | None = None
    ks_statistic: float | None = None
    ks_threshold: float | None = None
    dkw_epsilon_99: float | None = None
    variance_profile: list[tuple[float, float, float]] = field(default_factory=list)
    covariance_profile: list[tuple[float, float, float, float]] = field(default_factory=list)
    maximal_margins: list[dict] = field(default_factory=list)
    ui_table: list[dict] = field(default_factory=list)
    tolerances: dict = field(default_factory=dict)
    normalized_sums: np.ndarray | None = None
    failures: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        """Every field but the replica sums and the verdict, as plain data."""
        data = asdict(self)
        del data["normalized_sums"], data["failures"]
        return data


# --- batched simulation -----------------------------------------------------


def _iter_batch(chain: ReversibleChain, n: int, m: int, master_seed: int, block: int = 256):
    """Yield (t, states) for t = 0..n across m replicas.

    Replica r draws from the stream seeded with derive_seed(master_seed, r)
    and consumes one uniform for the stationary start plus one per step,
    exactly like ``sample_trajectory``; chunked draws leave the streams
    unchanged, so batch and single-path simulation agree bit for bit.

    Each replica bisects its own cumulative row, padded with 1.0 to 2^k >= S
    entries, in k rounds of one comparison each, so a step costs O(m log S);
    the start bisects an extra row, the stationary CDF. The rows never
    decrease before their pinned last entry, and that entry and the padding
    are 1.0 > u, so ``entry <= u`` holds on a prefix of the row: the rounds
    count exactly the entries ``bisect_right`` counts.
    """
    rngs = [np.random.default_rng(derive_seed(master_seed, r)) for r in range(m)]
    cum_pi, cum_rows = _cumulative_tables(chain)
    k = (chain.n_states - 1).bit_length()
    rows = np.vstack([cum_rows, cum_pi])
    flat = np.pad(rows, [(0, 0), (0, (1 << k) - chain.n_states)], constant_values=1.0).ravel()
    rounds = [1 << j for j in range(k - 1, -1, -1)]
    states = np.full(m, chain.n_states)  # row S of the table: the start draw
    for first in range(0, n + 1, block):
        uniforms = np.empty((min(block, n + 1 - first), m))
        for r, rng in enumerate(rngs):
            uniforms[:, r] = rng.random(uniforms.shape[0])
        for t, u in enumerate(uniforms, first):
            cursor = states << k
            for step in rounds:
                cursor += (flat.take(cursor + (step - 1)) <= u) * step
            states = cursor & ((1 << k) - 1)
            yield t, states


def _check_mc_arguments(n: int, m: int | None, seed: int | None) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidLength(f"trajectory length must be a positive integer, got {n!r}")
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise InvalidReplicas(f"replica count must be a positive integer, got {m!r}")
    if seed is None:
        raise InvalidReplicas("a master seed is required for Monte Carlo mode")


def _sigma2_or_raise(chain: ReversibleChain, f: Observable) -> float:
    sigma2 = asymptotic_variance_spectral(spectral_measure(chain, f))
    if sigma2 <= DEGENERATE_TOL:
        raise DegenerateVariance(
            f"asymptotic variance {sigma2:.3e} is degenerate; the CLT scaling is void"
        )
    return sigma2


# --- normal limit ------------------------------------------------------------


_ERF = np.frompyfunc(math.erf, 1, 1)


def standard_normal_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + _ERF(np.asarray(x) / math.sqrt(2.0)).astype(float))


def ks_distance_to_normal(sample: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov distance to the standard normal."""
    z = np.sort(np.asarray(sample, dtype=float))
    m = z.shape[0]
    cdf = standard_normal_cdf(z)
    grid = np.arange(1, m + 1) / m
    return float(max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / m))))


def dkw_epsilon(m: int, alpha: float = 0.01) -> float:
    """Empirical-CDF deviation not exceeded with probability 1 - alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * m))


def clt_test(
    chain: ReversibleChain,
    f: Observable,
    n: int,
    m: int,
    seed: int,
    ks_threshold: float = 0.02,
) -> LimitReport:
    """Compare the law of S_n / (sigma sqrt(n)) to the standard normal.

    Samples m independent stationary replicas of length n, normalizes the
    final partial sums by the spectral asymptotic variance and reports the
    Kolmogorov-Smirnov distance together with the DKW calibration. The
    check fails when the distance exceeds ``ks_threshold``.
    """
    require_centered(chain, f)
    _check_mc_arguments(n, m, seed)
    sigma2 = _sigma2_or_raise(chain, f)

    values = f.values
    sums = np.zeros(m)
    for t, states in _iter_batch(chain, n, m, seed):
        if t >= 1:
            sums += values[states]
    z = sums / math.sqrt(sigma2 * n)
    ks = ks_distance_to_normal(z)
    ks_threshold = float(ks_threshold)
    miss = f"KS statistic {ks:.5f} exceeds threshold {ks_threshold:.5f}"
    return LimitReport(
        op="clt",
        n=int(n),
        m=int(m),
        sigma2_used=sigma2,
        master_seed=int(seed),
        ks_statistic=ks,
        ks_threshold=ks_threshold,
        dkw_epsilon_99=dkw_epsilon(m),
        tolerances={"ks_threshold": ks_threshold},
        normalized_sums=z,
        failures=() if ks <= ks_threshold else (miss,),
    )


# --- path-scaling profile -----------------------------------------------------


def fclt_profile(
    chain: ReversibleChain,
    f: Observable,
    n: int,
    m: int,
    grid: list[float],
    seed: int,
) -> LimitReport:
    """Empirical variance/covariance profile of the rescaled path.

    Snapshots W(t) = S_[nt] / sqrt(n) at each grid time over m replicas;
    the Brownian limit demands Var W(t) = sigma^2 t and
    Cov(W(s), W(t)) = sigma^2 min(s, t). Each of those comparisons fails
    when it misses by more than SE_MULTIPLIER standard errors.
    """
    require_centered(chain, f)
    _check_mc_arguments(n, m, seed)
    grid = sorted(float(t) for t in grid)
    if grid and (grid[0] < 0.0 or grid[-1] > 1.0):
        raise InvalidArgument(f"grid times must lie in [0, 1], got {grid}")
    sigma2 = _sigma2_or_raise(chain, f)

    indices = [int(math.floor(n * t)) for t in grid]
    values = f.values
    sums = np.zeros(m)
    snapshots = np.zeros((len(grid), m))
    root_n = math.sqrt(n)
    for t, states in _iter_batch(chain, n, m, seed):
        if t >= 1:
            sums += values[states]
            if t in indices:
                snapshots[np.equal(indices, t)] = sums / root_n

    variance_profile = []
    failures = []
    for j, t in enumerate(grid):
        w = snapshots[j]
        centered = w - w.mean()
        sq = centered * centered
        var = float(sq.mean())
        se = float(sq.std() / math.sqrt(m))
        variance_profile.append((t, var, se))
        if abs(var - sigma2 * t) > SE_MULTIPLIER * se + 1e-12:
            failures.append(f"Var at t={t}: {var:.5g} vs {sigma2 * t:.5g} (se {se:.3g})")

    covariance_profile = []
    for a in range(len(grid)):
        for b in range(a + 1, len(grid)):
            wa = snapshots[a] - snapshots[a].mean()
            wb = snapshots[b] - snapshots[b].mean()
            prod = wa * wb
            s, t = grid[a], grid[b]
            cov, se = float(prod.mean()), float(prod.std() / math.sqrt(m))
            covariance_profile.append((s, t, cov, se))
            if abs(cov - sigma2 * min(s, t)) > SE_MULTIPLIER * se + 1e-12:
                failures.append(f"Cov at ({s},{t}): {cov:.5g} vs {sigma2 * min(s, t):.5g}")

    return LimitReport(
        op="fclt",
        n=int(n),
        m=int(m),
        sigma2_used=sigma2,
        master_seed=int(seed),
        variance_profile=variance_profile,
        covariance_profile=covariance_profile,
        tolerances={"se_multiplier": SE_MULTIPLIER},
        failures=tuple(failures),
    )


# --- maximal inequality -------------------------------------------------------


def _enumerate_paths(chain: ReversibleChain, n: int):
    """All stationary paths of n steps with their exact probabilities."""
    ns = chain.n_states
    count = ns ** (n + 1)
    if count > EXHAUSTIVE_BUDGET:
        raise ExhaustiveTooLarge(
            f"{ns}^{n + 1} = {count} paths exceed the {EXHAUSTIVE_BUDGET} budget"
        )
    codes = np.arange(count, dtype=np.int64)
    paths = np.empty((count, n + 1), dtype=np.int64)
    for pos in range(n, -1, -1):
        paths[:, pos] = codes % ns
        codes //= ns
    prob = chain.stationary[paths[:, 0]].copy()
    for t in range(n):
        prob *= chain.kernel[paths[:, t], paths[:, t + 1]]
    return paths, prob


def _limit_increments(chain: ReversibleChain, f: Observable, paths: np.ndarray, mode: str):
    """Limit martingale increment matrix (rows = paths, columns = 1..n).

    Forward mode reads the path left to right; reversed mode accumulates
    the reversed increments from the far end of the path, which is their
    natural martingale direction (and, by reversibility, distributes
    exactly like the forward case).
    """
    if mode not in ("forward", "reversed"):
        raise InvalidArgument(f"mode must be 'forward' or 'reversed', got {mode!r}")
    _, w = resolvent_pair(chain, f)
    value = f.values + w
    ordered = paths if mode == "forward" else paths[:, ::-1]
    return value[ordered[:, 1:]] - w[ordered[:, :-1]]


def _maximal_sides(increments: np.ndarray, lam: float, two_sided: bool):
    """Per-path left and right side of the maximal inequality at level lam."""
    sums = np.cumsum(increments, axis=1)
    run_max = np.maximum.accumulate(np.maximum(sums, 0.0), axis=1)
    if two_sided:
        run_max_neg = np.maximum.accumulate(np.maximum(-sums, 0.0), axis=1)
        peak = np.maximum(run_max[:, -1], run_max_neg[:, -1])
        lhs = np.clip(peak - lam, 0.0, None) ** 2
        hit = (run_max > lam).astype(float) + (run_max_neg > lam).astype(float)
    else:
        lhs = np.clip(run_max[:, -1] - lam, 0.0, None) ** 2
        hit = (run_max > lam).astype(float)
    rhs = 4.0 * np.sum(increments * increments * hit, axis=1)
    return lhs, rhs


def maximal_inequality_check(
    chain: ReversibleChain,
    f: Observable,
    n: int,
    lambdas: list[float],
    mode: str = "forward",
    exhaustive: bool = False,
    m: int | None = None,
    seed: int | None = None,
    two_sided: bool = False,
) -> LimitReport:
    """Both sides of the martingale maximal inequality at each level.

    Exhaustive mode enumerates every stationary path with its exact
    probability (zero statistical slack); Monte Carlo mode estimates both
    sides with standard errors. The inequality is evaluated on the limit
    martingale increments, whose stationarity it requires; a level fails
    when its left side exceeds the right by more than the statistical slack.
    """
    require_centered(chain, f)
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidLength(f"trajectory length must be a positive integer, got {n!r}")
    if exhaustive:
        paths, prob = _enumerate_paths(chain, n)
        used_m = None
    else:
        _check_mc_arguments(n, m, seed)
        paths = np.empty((m, n + 1), dtype=np.int64)
        for t, states in _iter_batch(chain, n, m, seed):
            paths[:, t] = states
        used_m = int(m)

    increments = _limit_increments(chain, f, paths, mode)
    margins = []
    failures = []
    for lam in lambdas:
        lhs_vals, rhs_vals = _maximal_sides(increments, float(lam), two_sided)
        if exhaustive:
            lhs, rhs = float(np.dot(prob, lhs_vals)), float(np.dot(prob, rhs_vals))
            se_lhs = se_rhs = 0.0
        else:
            root_m = math.sqrt(used_m)
            lhs, rhs = float(lhs_vals.mean()), float(rhs_vals.mean())
            se_lhs, se_rhs = float(lhs_vals.std() / root_m), float(rhs_vals.std() / root_m)
        slack = SE_MULTIPLIER * (se_lhs + se_rhs)
        margins.append(
            {"lambda": float(lam), "lhs": lhs, "rhs": rhs, "slack": slack,
             "se_lhs": se_lhs, "se_rhs": se_rhs}
        )
        if lhs > rhs + slack + 1e-12:
            failures.append(f"lambda={float(lam)}: lhs {lhs:.6g} > rhs {rhs:.6g}")

    return LimitReport(
        op="maximal",
        n=int(n),
        m=used_m,
        master_seed=None if exhaustive else int(seed),
        exact=bool(exhaustive),
        mode=mode,
        maximal_margins=margins,
        tolerances={"se_multiplier": SE_MULTIPLIER, "two_sided": bool(two_sided)},
        failures=tuple(failures),
    )


# --- uniform integrability ------------------------------------------------------


def uniform_integrability_diagnostic(
    chain: ReversibleChain,
    f: Observable,
    n_list: list[int],
    epsilon_grid: list[float],
    seed: int,
    m: int = 2000,
) -> LimitReport:
    """Tail expectations of max_j S_j^2 / n over a cutoff grid.

    For each length n, estimates E[ T 1{T > c} ] with T = max_j S_j^2 / n
    per replica; decay in the cutoff c, uniformly over n, is the
    diagnostic signature of uniform integrability. Monotone decrease in c
    holds by construction for the shared sample. Replica streams are
    prefix consistent, so one pass to max(n_list) serves every length.
    """
    require_centered(chain, f)
    n_list = [int(v) for v in n_list]
    if n_list != sorted(n_list) or len(set(n_list)) != len(n_list) or min(n_list) < 1:
        raise InvalidArgument(f"n_list must be strictly increasing positive integers: {n_list}")
    _check_mc_arguments(n_list[0], m, seed)

    values = f.values
    sums = np.zeros(m)
    peak_sq = np.zeros(m)
    peaks = {}
    for t, states in _iter_batch(chain, n_list[-1], m, seed):
        if t >= 1:
            sums += values[states]
            np.maximum(peak_sq, sums * sums, out=peak_sq)
            if t in n_list:
                peaks[t] = peak_sq.copy()
    table = []
    for n in n_list:
        scaled = peaks[n] / n
        for c in epsilon_grid:
            tail_vals = scaled * (scaled > c)
            table.append(
                {
                    "n": n,
                    "cutoff": float(c),
                    "tail_expectation": float(tail_vals.mean()),
                    "se": float(tail_vals.std() / math.sqrt(m)),
                }
            )

    return LimitReport(
        op="ui-diagnostic",
        n=n_list[-1],
        m=int(m),
        master_seed=int(seed),
        ui_table=table,
        tolerances={"se_multiplier": SE_MULTIPLIER},
    )
