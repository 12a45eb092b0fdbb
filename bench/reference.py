"""Reference values for the output checks, computed without the package.

Monte Carlo numbers are reproduced exactly. The package's documented
stream protocol fixes them: replica r draws from
``default_rng(SeedSequence([master, r]))``, one uniform for an inverse-CDF
stationary start and one per transition, compared against cumulative rows
whose last entry is pinned to 1. This module steps all replicas at once by
row-local bisection, which compares the same doubles as ``bisect_right``,
and repeats each report's reductions in the package's floating-point order.
All commands of a config share one master seed and streams are prefix
consistent, so one pass over max(m) replicas and max(n) steps serves every
command. The admitted kernel, stationary law and centered observable are
the inputs of that pass.

The asymptotic variance reference is independent of the package: a Poisson
solve on the generator's own kernel, good to far better than the 1e-8
relative agreement the checks demand.
"""
from __future__ import annotations

import math

import numpy as np

#: uniforms drawn per generator call; any width gives the same streams
_CHUNK = 256

_ERF = np.frompyfunc(math.erf, 1, 1)


def replica_seed(master_seed: int, index: int) -> int:
    ss = np.random.SeedSequence([int(master_seed), int(index)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def sigma2_reference(kernel: np.ndarray, stationary: np.ndarray, f: np.ndarray) -> float:
    """sigma^2 = 2 <g, f> - <f, f> with (I - Q + 1 pi^T) g = f."""
    n = kernel.shape[0]
    g = np.linalg.solve(np.eye(n) - kernel + np.outer(np.ones(n), stationary), f)
    return float(2.0 * np.dot(stationary * g, f) - np.dot(stationary * f, f))


def _step_states(cum_rows: np.ndarray, states: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Count of row entries <= u in each replica's current row, by bisection."""
    width = cum_rows.shape[1]
    lo = np.zeros_like(states)
    hi = np.full_like(states, width)
    for _ in range(width.bit_length()):
        active = lo < hi
        mid = (lo + hi) // 2
        below = cum_rows[states, np.minimum(mid, width - 1)] <= u
        lo = np.where(active & below, mid + 1, lo)
        hi = np.where(active & ~below, mid, hi)
    return np.minimum(lo, width - 1)


class ReplicaPass:
    """One pass of ``m`` replicas over ``n`` steps, keeping what the checks need.

    ``snapshot_times`` records the running partial sums of all replicas at
    those times; ``peak_times`` records, for the first ``peak_m`` replicas,
    max_{1<=j<=t} S_j^2 at those times; the first ``path_steps + 1`` states
    of every replica are kept as paths.
    """

    def __init__(self, kernel, stationary, values, master_seed, m, n,
                 snapshot_times=(), peak_m=0, peak_times=(), path_steps=0):
        cum_pi = np.cumsum(stationary)
        cum_pi[-1] = 1.0
        cum_rows = np.cumsum(kernel, axis=1)
        cum_rows[:, -1] = 1.0
        last = kernel.shape[0] - 1
        rngs = [np.random.default_rng(replica_seed(master_seed, r)) for r in range(m)]

        self.sums = {}
        self.peaks = {}
        self.paths = np.empty((m, path_steps + 1), dtype=np.int64)
        snapshot_times = set(snapshot_times)
        peak_times = set(peak_times)
        sums = np.zeros(m)
        peak_sq = np.zeros(peak_m)
        states = np.empty(m, dtype=np.int64)
        t = 0
        while t <= n:
            width = min(_CHUNK, n + 1 - t)
            uniforms = np.empty((m, width))
            for r, rng in enumerate(rngs):
                uniforms[r] = rng.random(width)
            for j in range(width):
                u = uniforms[:, j]
                if t == 0:
                    states = np.minimum(np.searchsorted(cum_pi, u, side="right"), last)
                else:
                    states = _step_states(cum_rows, states, u)
                    sums += values[states]
                    head = sums[:peak_m]
                    np.maximum(peak_sq, head * head, out=peak_sq)
                if t <= path_steps:
                    self.paths[:, t] = states
                if t in snapshot_times:
                    self.sums[t] = sums.copy()
                if t in peak_times:
                    self.peaks[t] = peak_sq.copy()
                t += 1


def ks_distance_to_normal(sample: np.ndarray) -> float:
    z = np.sort(np.asarray(sample, dtype=float))
    m = z.shape[0]
    cdf = 0.5 * (1.0 + _ERF(z / math.sqrt(2.0)).astype(float))
    grid = np.arange(1, m + 1) / m
    return float(max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / m))))


def clt_values(sums: np.ndarray, sigma2_used: float, n: int):
    """(normalized sums, KS statistic) of a clt report."""
    z = sums / math.sqrt(sigma2_used * n)
    return z, ks_distance_to_normal(z)


def fclt_tables(replicas: ReplicaPass, n: int, m: int, grid):
    """(variance_profile, covariance_profile) rows of an fclt report."""
    grid = sorted(float(t) for t in grid)
    root_n = math.sqrt(n)
    snapshots = np.zeros((len(grid), m))
    for j, t in enumerate(grid):
        idx = int(math.floor(n * t))
        if idx >= 1:
            snapshots[j] = replicas.sums[idx][:m] / root_n
    variance = []
    for j, t in enumerate(grid):
        centered = snapshots[j] - snapshots[j].mean()
        sq = centered * centered
        variance.append([t, float(sq.mean()), float(sq.std() / math.sqrt(m))])
    covariance = []
    for a in range(len(grid)):
        for b in range(a + 1, len(grid)):
            prod = (snapshots[a] - snapshots[a].mean()) * (snapshots[b] - snapshots[b].mean())
            covariance.append(
                [grid[a], grid[b], float(prod.mean()), float(prod.std() / math.sqrt(m))]
            )
    return variance, covariance


def ui_table(replicas: ReplicaPass, n_list, epsilon_grid, m: int):
    table = []
    for n in n_list:
        scaled = replicas.peaks[n][:m] / n
        for c in epsilon_grid:
            tail = scaled * (scaled > c)
            table.append(
                {
                    "n": n,
                    "cutoff": float(c),
                    "tail_expectation": float(tail.mean()),
                    "se": float(tail.std() / math.sqrt(m)),
                }
            )
    return table


def maximal_margins(replicas: ReplicaPass, kernel, stationary, values, n, m, lambdas,
                    mode="forward", two_sided=False, se_multiplier=3.0):
    """Monte Carlo maximal-inequality margins, from the resolvent of the admitted kernel."""
    size = kernel.shape[0]
    g = np.linalg.solve(np.eye(size) - kernel + np.outer(np.ones(size), stationary), values)
    w = kernel @ g
    paths = replicas.paths[:m, : n + 1]
    ordered = paths if mode == "forward" else paths[:, ::-1]
    increments = (values + w)[ordered[:, 1:]] - w[ordered[:, :-1]]
    sums = np.cumsum(increments, axis=1)
    run_max = np.maximum.accumulate(np.maximum(sums, 0.0), axis=1)
    margins = []
    for lam in lambdas:
        lam = float(lam)
        if two_sided:
            run_max_neg = np.maximum.accumulate(np.maximum(-sums, 0.0), axis=1)
            peak = np.maximum(run_max[:, -1], run_max_neg[:, -1])
            lhs = np.clip(peak - lam, 0.0, None) ** 2
            hit = (run_max > lam).astype(float) + (run_max_neg > lam).astype(float)
        else:
            lhs = np.clip(run_max[:, -1] - lam, 0.0, None) ** 2
            hit = (run_max > lam).astype(float)
        rhs = 4.0 * np.sum(increments * increments * hit, axis=1)
        root_m = math.sqrt(len(lhs))
        entry = {
            "lambda": lam,
            "lhs": float(lhs.mean()),
            "rhs": float(rhs.mean()),
            "se_lhs": float(lhs.std() / root_m),
            "se_rhs": float(rhs.std() / root_m),
        }
        entry["slack"] = se_multiplier * (entry["se_lhs"] + entry["se_rhs"])
        margins.append(entry)
    return margins
