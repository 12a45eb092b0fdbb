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

A check with a threshold also judges it, by the one verdict rule of
``rclt.chain._misses``: each check hands it its comparisons as
(measured, bound, message) triples, and a value misses unless it is at most
a finite bound, so a NaN value or bound, or an infinite one, misses.
``LimitReport.failures`` names every comparison that missed, and ``passed``
is true when none did.

Replica r always consumes its own generator stream seeded from
(master seed, r), so every number is bit-reproducible and batch
simulation agrees exactly with stacking single sampled trajectories.
The m seeds of a pass and their generators are hashed in bulk by a numpy
port of numpy's ``SeedSequence``, which gives the same streams as m calls
of ``default_rng(derive_seed(master_seed, r))``.
A step of m replicas on S states costs O(m log S): each replica bisects
its own cumulative kernel row and compares the doubles ``bisect_right`` does.

Every check is a reader of one replica pass, and a reader has one
protocol: it is built, stepped, then asked for its ``report()``. Its class
is its build step, ``_CltReader(exact, seed=seed, **params)`` and so on,
on an exact layer, the ``rclt.spectral._Exact`` holder that judged
(chain, f) and builds rho and the Poisson solution at most once. The
constructor judges every argument, each count by ``rclt.chain._counts``
and each array the check sizes from its counts by ``rclt.chain._fits``,
under the one size ceiling, then computes what it needs before any
replica moves: sigma^2 from the holder's ``sigma2``, the spectral route
judged against the Poisson one, the limit martingale from its Poisson
solution, or, for exhaustive ``maximal``, every path with its exact
probability. A reader that samples sets its replica count ``m``;
an exhaustive one sets ``m = None`` and is never stepped. ``_one_pass``
steps max m replicas to max n once, keeps one vector of running partial
sums S_t, and calls ``feed(t, states, sums)`` on each stepped reader with
its prefix of replicas for t = 0..n; it returns nothing, and each
reader's ``report()`` gives its ``LimitReport`` when asked. Streams are
prefix consistent in both r and t, and a prefix of the elementwise sum is
the sum a reader would keep alone, so each reader sees exactly the
numbers a pass of its own would. Each public check, through
``_one_check``, is the three steps for one reader on a holder of its own.
The command line's ``run`` takes the same steps for every command of a
run, whose exact commands are readers with ``m = None`` too: ``_prepare``
builds them all on the run's one holder, ``run`` makes the one pass at
the first sampling reader, and takes each report at its own command's turn.

Every expectation in a report comes from ``_mean_se``: a Monte Carlo one
is a sample mean with its standard error, std / sqrt(size), and an exact one
is the dot product with the exact path probabilities, with standard error 0.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .chain import (
    Observable, ReversibleChain, _array, _booleans, _counts, _cumulative_tables, _fits,
    _generators, _master_seed, _misses, _numbers, derive_seed,
)
from .decomposition import _limit_pair
from .errors import DegenerateVariance, ExhaustiveTooLarge, InvalidArgument
# spectral_measure is unused here, but bench/layer_trace.py rebinds it
from .spectral import _Exact, spectral_measure

#: sigma^2 at most this times E f^2 is treated as the degenerate case
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


#: times of uniforms held in the buffer of one pass, at most _BLOCK x m doubles
_BLOCK = 512
#: replicas per fill tile: the fastest transposed copy into that buffer measured
_GROUP = 256


def _iter_batch(chain: ReversibleChain, n: int, m: int, master_seed: int):
    """Yield (t, states) for t = 0..n across m replicas.

    Replica r draws from the stream seeded with derive_seed(master_seed, r)
    and consumes one uniform for the stationary start plus one per step,
    exactly like ``sample_trajectory``; chunked draws leave the streams
    unchanged, so batch and single-path simulation agree bit for bit. The m
    seeds, and the generator states built from them, are hashed in one numpy
    pass each: one ``derive_seed`` call over ``arange(m)``, then
    ``_generators``, which builds the generators ``default_rng`` would.

    The uniforms of up to ``_BLOCK`` = 512 times are held time-major in one
    buffer of min(512, n + 1) x m doubles, reused for every block, so memory
    does not grow with n. It is filled ``_GROUP`` = 256 replicas at a time,
    the fastest tile size of the transposed copy measured (ROADMAP, item 5):
    each replica draws into its own contiguous row of a small row-major tile,
    and the tile is copied into the buffer transposed, so no draw writes a
    strided column.

    Each replica bisects its own cumulative row, padded with 1.0 to 2^k >= S
    entries, in k rounds of one comparison each, so a step costs O(m log S);
    the start bisects an extra row, the stationary CDF. The rows never
    decrease before their pinned last entry, and that entry and the padding
    are 1.0 > u, so ``entry <= u`` holds on a prefix of the row: the rounds
    count exactly the entries ``bisect_right`` counts.
    """
    rngs = _generators(derive_seed(master_seed, np.arange(m)))
    cum_pi, cum_rows = _cumulative_tables(chain)
    k = (chain.n_states - 1).bit_length()
    rows = np.vstack([cum_rows, cum_pi])
    flat = np.pad(rows, [(0, 0), (0, (1 << k) - chain.n_states)], constant_values=1.0).ravel()
    rounds = [1 << j for j in range(k - 1, -1, -1)]
    states = np.full(m, chain.n_states)  # row S of the table: the start draw
    uniforms = np.empty((min(_BLOCK, n + 1), m))
    tile = np.empty((min(_GROUP, m), uniforms.shape[0]))
    for first in range(0, n + 1, _BLOCK):
        b = min(_BLOCK, n + 1 - first)
        for r0 in range(0, m, _GROUP):
            drawn = tile[: min(_GROUP, m - r0), :b]
            for row, rng in zip(drawn, rngs[r0 : r0 + _GROUP]):
                rng.random(out=row)
            uniforms[:b, r0 : r0 + drawn.shape[0]] = drawn.T
        for t, u in enumerate(uniforms[:b], first):
            cursor = states << k
            for step in rounds:
                cursor += (flat.take(cursor + (step - 1)) <= u) * step
            states = cursor & ((1 << k) - 1)
            yield t, states


def _replicas(m, seed) -> tuple[int, int]:
    """A sampling reader's replica count, a count from 1, and master seed, in that order."""
    return _counts([m], "m", least=1)[0], _master_seed(seed)


def _sigma2_or_raise(exact: _Exact) -> float:
    """The spectral sigma^2 of ``exact``, judged against the Poisson route, unless degenerate.

    sigma^2 comes from ``exact.sigma2``, which raises EigenFailure when the
    two routes disagree, so a check reads the number ``variance`` reports and
    meets the same gate. Only the degenerate judgement is made here: sigma^2
    at most ``DEGENERATE_TOL`` E f^2, the mass of ``exact.rho``.
    """
    sigma2 = exact.sigma2[0]
    if sigma2 <= DEGENERATE_TOL * exact.rho.total_mass:
        raise DegenerateVariance(
            f"asymptotic variance {sigma2:.3e} is degenerate; the CLT scaling is void"
        )
    return sigma2


def _mean_se(values: np.ndarray, weights: np.ndarray | None = None) -> tuple[float, float]:
    """The expectation of ``values`` and its standard error.

    Under exact path probabilities ``weights`` it is their dot product, with
    standard error 0. Otherwise it is the sample mean with std / sqrt(size).
    The std squares the deviations, so it overflows from about 1e154, and the
    mean sums before it divides, so it can overflow near the top of the float
    range, though finite values have a finite mean and std. Only then is the
    std, and the mean if it overflowed, taken of ``values`` times 2^-e, with e
    the exponent of max |values|, and scaled back by 2^e. A finite mean is
    never retaken, nor a finite std beside it, so each keeps its bits.
    """
    if weights is not None:
        return float(np.dot(weights, values)), 0.0
    mean, std = values.mean(), values.std()
    if not (math.isfinite(mean) and math.isfinite(std)):
        e = math.frexp(float(np.max(np.abs(values))))[1]
        mean = mean if math.isfinite(mean) else np.ldexp(np.ldexp(values, -e).mean(), e)
        std = np.ldexp(np.ldexp(values, -e).std(), e)
    return float(mean), float(std / math.sqrt(values.size))


# --- one pass, many readers ---------------------------------------------------


def _pass_shape(readers: list) -> tuple[list, int, int]:
    """The sampling readers among ``readers``, and the largest n and m of their one pass.

    The pass's n and m may come from different readers, so no reader alone
    can judge its buffer of min(_BLOCK, n + 1) x m uniforms: it is judged
    here under the size ceiling, before ``_iter_batch`` allocates it. So are
    its m generators, each counted as 128 cells (1 KiB, above the ~780 bytes
    ``tracemalloc`` measures for one), which bounds a pass at 2^20 replicas.
    """
    stepped = [r for r in readers if r.m is not None]
    n, m = max((r.n for r in stepped), default=0), max((r.m for r in stepped), default=0)
    _fits(min(_BLOCK, n + 1) * m, "the pass's min(512, n + 1) x m uniforms")
    _fits(128 * m, "the pass's m generators of 128 cells each")
    return stepped, n, m


def _one_pass(exact: _Exact, seed, readers: list) -> None:
    """Step the sampling readers of ``readers`` in one pass over the replicas.

    Only readers with a replica count are stepped, to the largest n over the
    largest m among them, so a list of exhaustive readers derives no seed.
    """
    stepped, n, m = _pass_shape(readers)
    if stepped:
        sums = np.zeros(m)
        for t, states in _iter_batch(exact.chain, n, m, seed):
            if t >= 1:
                sums += exact.f.values[states]
            for reader in stepped:
                if t <= reader.n:
                    reader.feed(t, states[: reader.m], sums[: reader.m])


def _one_check(reader_type: type, chain: ReversibleChain, f: Observable, seed, **params):
    """One check alone: its reader built on a holder of its own, stepped, then its report."""
    exact = _Exact(chain, f)
    reader = reader_type(exact, seed=seed, **params)
    _one_pass(exact, seed, [reader])
    return reader.report()


# --- normal limit ------------------------------------------------------------


_ERF = np.frompyfunc(math.erf, 1, 1)


def ks_distance_to_normal(sample: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov distance to the standard normal.

    The sample must be a nonempty finite 1-d vector: sorted, a NaN or an
    infinity is at one end, so the two ends are checked.
    """
    z = _array(sample, "sample", InvalidArgument)
    if z.ndim != 1:
        raise InvalidArgument(f"sample must be a 1-d vector, got shape {z.shape}")
    z.sort()
    m = _numbers(int, [z.shape[0]], "sample size", least=1)[0]
    _numbers(float, [z[0], z[-1]], "sample")
    cdf = 0.5 * (1.0 + _ERF(z / math.sqrt(2.0)).astype(float))
    grid = np.arange(1, m + 1) / m
    return float(max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / m))))


def dkw_epsilon(m: int, alpha: float = 0.01) -> float:
    """Empirical-CDF deviation not exceeded with probability 1 - alpha, 0 < alpha < 1."""
    m, alpha = _counts([m], "m", least=1)[0], _numbers(float, [alpha], "alpha")[0]
    if not 0.0 < alpha < 1.0:
        raise InvalidArgument(f"alpha must lie in (0, 1), got {alpha}")
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * m))


class _CltReader:
    def __init__(self, exact, n, m, seed, ks_threshold):
        n = _counts([n], "n", least=1)[0]
        m, seed = _replicas(m, seed)
        self.ks_threshold = _numbers(float, [ks_threshold], "ks_threshold")[0]
        self.sigma2 = _sigma2_or_raise(exact)
        self.n, self.m, self.seed = n, m, seed

    def feed(self, t: int, states: np.ndarray, sums: np.ndarray) -> None:
        if t == self.n:
            self.z = sums / math.sqrt(self.sigma2 * self.n)

    def report(self) -> LimitReport:
        ks = ks_distance_to_normal(self.z)
        return LimitReport(
            op="clt",
            n=self.n,
            m=self.m,
            sigma2_used=self.sigma2,
            master_seed=self.seed,
            ks_statistic=ks,
            ks_threshold=self.ks_threshold,
            dkw_epsilon_99=dkw_epsilon(self.m),
            tolerances={"ks_threshold": self.ks_threshold},
            normalized_sums=self.z,
            failures=_misses([(ks, self.ks_threshold,
                               f"KS statistic {ks:.5f} exceeds threshold {self.ks_threshold:.5f}")]),
        )


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
    return _one_check(_CltReader, chain, f, seed, n=n, m=m, ks_threshold=ks_threshold)


# --- path-scaling profile -----------------------------------------------------


class _FcltReader:
    def __init__(self, exact, n, m, grid, seed):
        n = _counts([n], "n", least=1)[0]
        m, seed = _replicas(m, seed)
        grid = sorted(_numbers(float, grid, "grid"))
        if not all(0.0 <= t <= 1.0 for t in grid):
            raise InvalidArgument(f"grid times must lie in [0, 1], got {grid}")
        _fits(len(grid) * m, "the len(grid) x m snapshots")
        self.sigma2 = _sigma2_or_raise(exact)
        self.n, self.m, self.seed, self.grid = n, m, seed, grid
        self.indices = [int(math.floor(n * t)) for t in grid]
        self.snapshots = np.empty((len(grid), m))

    def feed(self, t: int, states: np.ndarray, sums: np.ndarray) -> None:
        if t in self.indices:  # S_0 = 0 fills the snapshots at grid time 0
            self.snapshots[np.equal(self.indices, t)] = sums / math.sqrt(self.n)

    def report(self) -> LimitReport:
        """Cov(W(s), W(t)) for grid times s <= t; s == t is the variance profile.

        One table holds (s, t, mean, se) for the pairs of grid indices a <= b,
        the k pairs a == b first, so every variance comparison comes before
        every covariance comparison. Each misses when it is off sigma^2 s by
        more than SE_MULTIPLIER standard errors, so a row of standard error 0,
        such as S_0 = 0 at grid time 0, passes only on its exact target.
        """
        grid, sigma2, k = self.grid, self.sigma2, len(self.grid)
        centered = self.snapshots - self.snapshots.mean(axis=1, keepdims=True)
        pairs = [(a, a) for a in range(k)] + [(a, b) for a in range(k) for b in range(a + 1, k)]
        table = [(grid[a], grid[b], *_mean_se(centered[a] * centered[b])) for a, b in pairs]
        failures = _misses(  # the grid is sorted, so min(s, t) = s
            (abs(cov - sigma2 * s), SE_MULTIPLIER * se,
             f"Var at t={t}: {cov:.5g} vs {sigma2 * s:.5g} (se {se:.3g})" if i < k
             else f"Cov at ({s},{t}): {cov:.5g} vs {sigma2 * s:.5g}")
            for i, (s, t, cov, se) in enumerate(table)
        )
        return LimitReport(
            op="fclt",
            n=self.n,
            m=self.m,
            sigma2_used=sigma2,
            master_seed=self.seed,
            variance_profile=[(t, cov, se) for _, t, cov, se in table[:k]],
            covariance_profile=table[k:],
            tolerances={"se_multiplier": SE_MULTIPLIER},
            failures=failures,
        )


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
    return _one_check(_FcltReader, chain, f, seed, n=n, m=m, grid=grid)


# --- maximal inequality -------------------------------------------------------


def _enumerate_paths(chain: ReversibleChain, n: int):
    """All stationary paths of n steps with their exact probabilities."""
    ns = chain.n_states
    count = 1
    for _ in range(n + 1 if ns > 1 else 0):  # never more than log2(budget) + 1 rounds
        count *= ns
        if count > EXHAUSTIVE_BUDGET:
            raise ExhaustiveTooLarge(f"{ns}^{n + 1} paths exceed the {EXHAUSTIVE_BUDGET} budget")
    codes = np.arange(count, dtype=np.int64)
    paths = np.empty((count, n + 1), dtype=np.int64)
    for pos in range(n, -1, -1):
        paths[:, pos] = codes % ns
        codes //= ns
    prob = chain.stationary[paths[:, 0]].copy()
    for t in range(n):
        prob *= chain.kernel[paths[:, t], paths[:, t + 1]]
    return paths, prob


class _MaximalReader:
    """Both sides of the maximal inequality, from replica paths or from every path.

    Monte Carlo mode records the m replica paths as they are stepped.
    Exhaustive mode enumerates every path with its exact probability when it
    is built and sets ``m = None``, so the pass never steps it. The limit
    increment along a path is (f + w)(xi_k) - w(xi_{k-1}) for the vectors of
    ``_limit_pair``. Forward mode reads the path left to right; reversed mode
    accumulates the reversed increments from the far end of the path, which
    is their natural martingale direction (and, by reversibility,
    distributes exactly like the forward case).
    """

    def __init__(self, exact, n, lambdas, mode, exhaustive, m, seed, two_sided):
        n = _counts([n], "n", least=1)[0]
        _booleans({"exhaustive": exhaustive, "two_sided": two_sided})
        if not (isinstance(mode, str) and mode in ("forward", "reversed")):
            raise InvalidArgument(f"mode must be 'forward' or 'reversed', got {mode!r}")
        self.lambdas = _numbers(float, lambdas, "lambdas")
        if m is not None or not exhaustive:  # exhaustive mode judges but drops each one given
            m = _counts([m], "m", least=1)[0]
        if seed is not None or not exhaustive:
            seed = _master_seed(seed)
        # every argument is judged above, before the costly work below
        if exhaustive:
            m = seed = None
            self.paths, self.prob = _enumerate_paths(exact.chain, n)
        else:
            _fits(m * (n + 1), "the m x (n + 1) replica paths")
            self.paths, self.prob = np.empty((m, n + 1), dtype=np.int64), None
        self.value, self.w = _limit_pair(exact)
        self.n, self.m, self.seed, self.mode, self.two_sided = n, m, seed, mode, two_sided

    def feed(self, t: int, states: np.ndarray, sums: np.ndarray) -> None:
        self.paths[:, t] = states

    def report(self) -> LimitReport:
        """Judge each level: exactly under the path probabilities, else over the m replicas.

        The partial sums, their running maxima and the squared increments do
        not depend on the level, so they are computed once for all levels.
        """
        ordered = self.paths if self.mode == "forward" else self.paths[:, ::-1]
        increments = self.value[ordered[:, 1:]] - self.w[ordered[:, :-1]]
        sums = np.cumsum(increments, axis=1)
        run_maxima = [np.maximum.accumulate(np.maximum(sums, 0.0), axis=1)]
        if self.two_sided:
            run_maxima.append(np.maximum.accumulate(np.maximum(-sums, 0.0), axis=1))
        peak = np.maximum.reduce([run_max[:, -1] for run_max in run_maxima])
        squares = increments * increments
        margins, checks = [], []
        for lam in self.lambdas:
            lhs_vals = np.clip(peak - lam, 0.0, None) ** 2
            hit = sum(run_max > lam for run_max in run_maxima)  # 0, 1 or 2 sides above lam
            rhs_vals = 4.0 * np.sum(squares * hit, axis=1)
            (lhs, se_lhs), (rhs, se_rhs) = (_mean_se(v, self.prob) for v in (lhs_vals, rhs_vals))
            slack = SE_MULTIPLIER * (se_lhs + se_rhs)
            margins.append(
                {"lambda": lam, "lhs": lhs, "rhs": rhs, "slack": slack,
                 "se_lhs": se_lhs, "se_rhs": se_rhs}
            )
            checks.append((lhs, rhs + slack, f"lambda={lam}: lhs {lhs:.6g} > rhs {rhs:.6g}"))
        return LimitReport(
            op="maximal",
            n=self.n,
            m=self.m,
            master_seed=self.seed,
            exact=self.prob is not None,
            mode=self.mode,
            maximal_margins=margins,
            tolerances={"se_multiplier": SE_MULTIPLIER, "two_sided": bool(self.two_sided)},
            failures=_misses(checks),
        )


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
    return _one_check(
        _MaximalReader, chain, f, seed,
        n=n, lambdas=lambdas, mode=mode, exhaustive=exhaustive, m=m, two_sided=two_sided,
    )


# --- uniform integrability ------------------------------------------------------


class _UiReader:
    def __init__(self, exact, n_list, epsilon_grid, seed, m):
        n_list = _counts(n_list, "n_list")
        if n_list != sorted(set(n_list)) or n_list[0] < 1:
            raise InvalidArgument(f"n_list must be strictly increasing positive integers: {n_list}")
        m, seed = _replicas(m, seed)
        _fits(len(n_list) * m, "the len(n_list) x m running maxima")
        self.n, self.m, self.seed, self.n_list = n_list[-1], m, seed, n_list
        self.cutoffs = _numbers(float, epsilon_grid, "epsilon_grid")
        self.peak_sq = np.zeros(m)
        self.peaks = {}

    def feed(self, t: int, states: np.ndarray, sums: np.ndarray) -> None:
        np.maximum(self.peak_sq, sums * sums, out=self.peak_sq)
        if t in self.n_list:
            self.peaks[t] = self.peak_sq.copy()

    def report(self) -> LimitReport:
        table = []
        for n in self.n_list:
            scaled = self.peaks[n] / n
            for c in self.cutoffs:
                tail, se = _mean_se(scaled * (scaled > c))
                table.append({"n": n, "cutoff": c, "tail_expectation": tail, "se": se})
        return LimitReport(
            op="ui-diagnostic",
            n=self.n,
            m=self.m,
            master_seed=self.seed,
            ui_table=table,
            tolerances={"se_multiplier": SE_MULTIPLIER},
        )


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
    return _one_check(
        _UiReader, chain, f, seed,
        n_list=n_list, epsilon_grid=epsilon_grid, m=m,
    )
