from __future__ import annotations

import math
from functools import partial

import numpy as np
import pytest

import rclt
from rclt.limits import (
    _enumerate_paths, _FcltReader, _iter_batch, _MaximalReader, _mean_se, _one_pass,
)
from rclt.spectral import _Exact

from .fixture_chains import (
    cycle_metropolis,
    flip_chain,
    iid_chain,
    observable,
    random_lazy_chain,
    scaled,
    symmetric_three_state,
    tiny_fixture_pairs,
    two_state,
)


def _assert_batch_equals_single_paths(chain, n, m, master) -> None:
    """Every replica of one ``_iter_batch`` pass equals its own ``sample_trajectory``."""
    f = observable(chain, np.random.default_rng(chain.n_states).normal(size=chain.n_states))
    mat = np.empty((m, n + 1), dtype=np.int64)
    for t, states in _iter_batch(chain, n, m, master):
        mat[:, t] = states
    for r in range(m):
        single = rclt.sample_trajectory(chain, f, n, rclt.derive_seed(master, r))
        assert np.array_equal(single.states, mat[r])


def test_batch_simulation_equals_stacked_single_paths() -> None:
    _assert_batch_equals_single_paths(cycle_metropolis(), 83, 7, 4711)


_37_STATES = partial(random_lazy_chain, 37, seed=5)  # 6 rounds over rows padded to 64


def _last_tile_and_block(group: int, block: int) -> tuple[int, int]:
    """(n, m) whose pass ends in a tile of ``group`` replicas and a block of ``block`` times."""
    return 511 + block, 256 + group  # n + 1 = 512 + block draws


@pytest.mark.parametrize(
    ("make_chain", "n", "m"),
    [
        (flip_chain, 600, 300),  # zero kernel entries: repeated cumulative values
        (lambda: rclt.build_chain([[1.0]]), 600, 300),  # one state: no bisection rounds
        (_37_STATES, 83, 7),  # one block longer than the path, one short tile
        # a full block of 512 times, then a last block of 1 or 500 times
        (_37_STATES, 512, 7),
        (_37_STATES, 1011, 7),
        # a full tile of 256 replicas, then a last tile of 3 or 1, over the same blocks
        *[
            (_37_STATES, *_last_tile_and_block(group, block))
            for group in (3, 1)
            for block in (1, 13, 500)
        ],
        (_37_STATES, 1023, 257),  # two full blocks, a last tile of one replica
    ],
    ids=[
        "flip", "one-state", "37-states", "37-states-block-1", "37-states-block-500",
        *[f"37-states-group-{group}-block-{block}" for group in (3, 1) for block in (1, 13, 500)],
        "37-states-full-blocks",
    ],
)
def test_batch_stepping_edge_cases_equal_single_paths(make_chain, n, m) -> None:
    _assert_batch_equals_single_paths(make_chain(), n, m, 4711)


def test_batch_stepping_across_tiles_at_default_sizes() -> None:
    # 300 replicas fill one full tile of 256 and a short one of 44
    _assert_batch_equals_single_paths(_37_STATES(), 20, 300, 99)


def test_ks_distance_against_known_sample() -> None:
    # empirical CDF of {-1, 0, 1} vs standard normal, computed by hand
    sample = np.array([-1.0, 0.0, 1.0])
    cdf = [0.15865525393145707, 0.5, 0.8413447460685429]
    steps = [(1 / 3 - cdf[0]), (2 / 3 - cdf[1]), (1.0 - cdf[2])]
    lower = [(cdf[0] - 0.0), (cdf[1] - 1 / 3), (cdf[2] - 2 / 3)]
    expected = max(max(steps), max(lower))
    assert rclt.ks_distance_to_normal(sample) == pytest.approx(expected, abs=1e-12)


def test_ks_null_calibration_under_threshold() -> None:
    rng = np.random.default_rng(1234)
    ks = rclt.ks_distance_to_normal(rng.normal(size=10_000))
    assert ks <= rclt.dkw_epsilon(10_000) <= 0.02


def test_clt_invalid_arguments() -> None:
    chain = two_state()
    f = observable(chain, [1, -1])
    with pytest.raises(rclt.InvalidArgument):
        rclt.clt_test(chain, f, n=100, m=0, seed=1)
    with pytest.raises(rclt.InvalidArgument):
        rclt.clt_test(chain, f, n=0, m=10, seed=1)


def test_clt_rejects_degenerate_variance() -> None:
    chain = flip_chain()
    f = observable(chain, [1, -1])
    with pytest.raises(rclt.DegenerateVariance):
        rclt.clt_test(chain, f, n=100, m=10, seed=1)


def test_clt_smoke_on_two_state_chain() -> None:
    chain = two_state()
    f = observable(chain, [1, -1])
    report = rclt.clt_test(chain, f, n=500, m=2000, seed=321, ks_threshold=0.05)
    assert report.sigma2_used == pytest.approx(3.0, abs=1e-12)
    assert report.ks_statistic <= 0.05
    assert report.passed and report.failures == ()
    assert report.normalized_sums.shape == (2000,)
    assert report.dkw_epsilon_99 == pytest.approx(math.sqrt(math.log(200.0) / 4000.0), abs=1e-12)


def test_clt_iid_chain_full_scale() -> None:
    chain = iid_chain()
    f = observable(chain, [1, -1])
    report = rclt.clt_test(chain, f, n=2000, m=10_000, seed=20240611)
    assert report.ks_statistic <= 0.02
    assert report.passed


def test_clt_is_bit_reproducible() -> None:
    chain = cycle_metropolis()
    f = observable(chain, [0.3, 1.7, -1.1])
    a = rclt.clt_test(chain, f, n=120, m=400, seed=777)
    b = rclt.clt_test(chain, f, n=120, m=400, seed=777)
    assert np.array_equal(a.normalized_sums, b.normalized_sums)
    assert a.ks_statistic == b.ks_statistic
    strict = rclt.clt_test(chain, f, n=120, m=400, seed=777, ks_threshold=1e-9)
    assert strict.ks_statistic == a.ks_statistic
    assert not strict.passed
    assert strict.failures == (
        f"KS statistic {a.ks_statistic:.5f} exceeds threshold 0.00000",
    )


def test_fclt_grid_validation_and_zero_time() -> None:
    chain = two_state()
    f = observable(chain, [1, -1])
    with pytest.raises(ValueError):
        rclt.fclt_profile(chain, f, n=50, m=20, grid=[0.5, 1.5], seed=3)
    report = rclt.fclt_profile(chain, f, n=100, m=50, grid=[0.0, 0.5], seed=3)
    t0, var0, se0 = report.variance_profile[0]
    assert (t0, var0, se0) == (0.0, 0.0, 0.0)
    assert report.passed
    # six replicas of eight steps: the t = 1/4 variance misses by more than 3 SE
    small = rclt.fclt_profile(chain, f, n=8, m=6, grid=[0.25, 0.5, 0.75, 1.0], seed=0)
    assert not small.passed
    assert small.failures == ("Var at t=0.25: 0.40278 vs 0.75 (se 0.0935)",)
    # variance misses come before covariance misses, even one at an earlier grid time
    both = rclt.fclt_profile(chain, f, n=8, m=6, grid=[0.25, 0.5, 0.75, 1.0], seed=37)
    assert both.failures == (
        "Var at t=0.75: 0.77778 vs 2.25 (se 0.225)",
        "Cov at (0.5,0.75): 0.63889 vs 1.5",
        "Cov at (0.75,1.0): 1 vs 2.25",
    )


def test_fclt_profile_matches_brownian_scaling() -> None:
    chain = two_state()
    f = observable(chain, [1, -1])
    report = rclt.fclt_profile(chain, f, n=800, m=3000, grid=[0.25, 0.5, 0.75, 1.0], seed=918273)
    sigma2 = report.sigma2_used
    for t, var, se in report.variance_profile:
        assert abs(var - sigma2 * t) <= 3.0 * se + 0.02, (t, var)
    for s, t, cov, se in report.covariance_profile:
        assert abs(cov - sigma2 * min(s, t)) <= 3.0 * se + 0.02, (s, t, cov)
    assert report.passed, report.failures


def test_maximal_exhaustive_iid_hand_enumeration() -> None:
    chain = iid_chain()
    f = observable(chain, [1, -1])
    report = rclt.maximal_inequality_check(chain, f, n=3, lambdas=[0.0], exhaustive=True)
    entry = report.maximal_margins[0]
    # all 16 sign paths enumerated by hand: E (S*_3)^2 = 2, 4 sum E X_k^2 1 = 6.5
    assert entry["lhs"] == pytest.approx(2.0, abs=1e-12)
    assert entry["rhs"] == pytest.approx(6.5, abs=1e-12)
    assert report.exact
    assert report.passed


def test_maximal_exhaustive_large_lambda_vanishes() -> None:
    chain = two_state()
    f = observable(chain, [1, -1])
    report = rclt.maximal_inequality_check(chain, f, n=4, lambdas=[1e6], exhaustive=True)
    entry = report.maximal_margins[0]
    assert entry["lhs"] == 0.0
    assert entry["rhs"] == 0.0


def test_maximal_exhaustive_rhs_stationarity_bound() -> None:
    for chain, f in tiny_fixture_pairs():
        sigma2 = rclt.limit_difference_second_moment(chain, f)
        report = rclt.maximal_inequality_check(chain, f, n=5, lambdas=[0.0], exhaustive=True)
        entry = report.maximal_margins[0]
        assert entry["rhs"] <= 4.0 * 5 * sigma2 + 1e-10


def test_maximal_reversed_equals_forward_in_law() -> None:
    # path reversal is probability preserving, so exhaustive expectations
    # of the reversed increments match the forward ones exactly
    for chain, f in tiny_fixture_pairs():
        fwd = rclt.maximal_inequality_check(chain, f, n=4, lambdas=[0.0, 0.5], exhaustive=True)
        rev = rclt.maximal_inequality_check(
            chain, f, n=4, lambdas=[0.0, 0.5], mode="reversed", exhaustive=True
        )
        for a, b in zip(fwd.maximal_margins, rev.maximal_margins):
            assert a["lhs"] == pytest.approx(b["lhs"], abs=1e-12)
            assert a["rhs"] == pytest.approx(b["rhs"], abs=1e-12)


def test_maximal_two_sided_variant_holds() -> None:
    for chain, f in tiny_fixture_pairs()[:3]:
        report = rclt.maximal_inequality_check(
            chain, f, n=5, lambdas=[0.0, 0.5, 1.0], exhaustive=True, two_sided=True
        )
        for entry in report.maximal_margins:
            assert entry["lhs"] <= entry["rhs"] + 1e-12
        assert report.passed


def test_maximal_budget_guard() -> None:
    chain = cycle_metropolis()
    f = observable(chain, [0.3, 1.7, -1.1])
    # n = 10 000 is judged without forming 3^10001, a number too long to print
    for n in (13, 10_000):
        with pytest.raises(rclt.ExhaustiveTooLarge, match=rf"^3\^{n + 1} paths exceed the"):
            rclt.maximal_inequality_check(chain, f, n=n, lambdas=[0.0], exhaustive=True)


def test_maximal_monte_carlo_mode() -> None:
    chain = two_state()
    f = observable(chain, [1, -1])
    report = rclt.maximal_inequality_check(
        chain, f, n=40, lambdas=[0.0, 1.0], m=2000, seed=5150
    )
    assert not report.exact
    for entry in report.maximal_margins:
        assert entry["se_lhs"] > 0.0
        assert entry["lhs"] <= entry["rhs"] + entry["slack"]
    assert report.passed
    again = rclt.maximal_inequality_check(
        chain, f, n=40, lambdas=[0.0, 1.0], m=2000, seed=5150
    )
    assert report.maximal_margins == again.maximal_margins


def _maximal_by_formula(chain, f, paths, lambdas, mode, two_sided, prob=None):
    """(lhs, rhs, se_lhs, se_rhs) per level, written out from the inequality's definition.

    D_k = f(xi_k) + w(xi_k) - w(xi_{k-1}) along each path (read from the far end in
    reversed mode), M_k their partial sums, M*_k the running maximum of max(0, M_j),
    and of max(0, -M_j) too when two-sided. Per path, lhs is (M*_n - lam)_+^2 and rhs
    is 4 sum_k D_k^2 times the number of sides whose M*_k exceeds lam. Both are
    weighted by ``prob`` when it is given, else averaged with std / sqrt(count).
    """
    w = chain.kernel @ rclt.poisson_solve(chain, f)
    if mode == "reversed":
        paths = paths[:, ::-1]
    d = f.values[paths[:, 1:]] + w[paths[:, 1:]] - w[paths[:, :-1]]
    partial_sums = np.cumsum(d, axis=1)
    sides = [partial_sums, -partial_sums] if two_sided else [partial_sums]
    running = [np.maximum.accumulate(np.maximum(side, 0.0), axis=1) for side in sides]
    peak = np.max(np.stack([r[:, -1] for r in running]), axis=0)
    levels = []
    for lam in lambdas:
        lhs = np.clip(peak - lam, 0.0, None) ** 2
        hit = sum((r > lam).astype(float) for r in running)
        rhs = 4.0 * np.sum(d * d * hit, axis=1)
        if prob is not None:
            levels.append((float(np.dot(prob, lhs)), float(np.dot(prob, rhs)), 0.0, 0.0))
        else:
            se = [float(v.std() / math.sqrt(v.size)) for v in (lhs, rhs)]
            levels.append((float(lhs.mean()), float(rhs.mean()), *se))
    return levels


def _maximal_expected(n, m, seed, mode, two_sided, lambdas, levels):
    """The whole report a maximal check owes for the formula's levels; none fails."""
    se_multiplier = rclt.limits.SE_MULTIPLIER
    margins = [
        {"lambda": lam, "lhs": lhs, "rhs": rhs, "slack": se_multiplier * (se_lhs + se_rhs),
         "se_lhs": se_lhs, "se_rhs": se_rhs}
        for lam, (lhs, rhs, se_lhs, se_rhs) in zip(lambdas, levels)
    ]
    return rclt.LimitReport(
        op="maximal", n=n, m=m, master_seed=seed, exact=m is None, mode=mode,
        maximal_margins=margins,
        tolerances={"se_multiplier": se_multiplier, "two_sided": two_sided},
    )


def _margins(report):
    return [(e["lhs"], e["rhs"], e["se_lhs"], e["se_rhs"]) for e in report.maximal_margins]


@pytest.mark.parametrize("two_sided", [False, True], ids=["one-sided", "two-sided"])
@pytest.mark.parametrize("mode", ["forward", "reversed"])
def test_maximal_monte_carlo_equals_the_formula_on_stacked_paths(mode, two_sided) -> None:
    chain = cycle_metropolis()
    f = observable(chain, [0.3, 1.7, -1.1])
    n, m, seed = 12, 300, 8128
    lambdas = [0.0, 0.5, 2.0, 1e3]  # no path of 12 steps reaches 1e3
    report = rclt.maximal_inequality_check(
        chain, f, n=n, lambdas=lambdas, mode=mode, m=m, seed=seed, two_sided=two_sided
    )
    paths = np.stack(
        [rclt.sample_trajectory(chain, f, n, rclt.derive_seed(seed, r)).states for r in range(m)]
    )
    levels = _maximal_by_formula(chain, f, paths, lambdas, mode, two_sided)
    expected = _maximal_expected(n, m, seed, mode, two_sided, lambdas, levels)
    assert report.to_dict() == expected.to_dict()
    assert report.failures == ()
    assert _margins(report)[-1] == (0.0, 0.0, 0.0, 0.0)
    assert all(se > 0.0 for level in _margins(report)[:-1] for se in level[2:])


def test_maximal_requires_seed_in_mc_mode() -> None:
    chain = two_state()
    f = observable(chain, [1, -1])
    with pytest.raises(rclt.InvalidArgument):
        rclt.maximal_inequality_check(chain, f, n=10, lambdas=[0.0], m=100, seed=None)


def test_exhaustive_probabilities_sum_to_one() -> None:
    for chain, _ in tiny_fixture_pairs():
        _, prob = _enumerate_paths(chain, 5)
        assert float(prob.sum()) == pytest.approx(1.0, abs=1e-12)


def test_ui_diagnostic_monotone_in_cutoff() -> None:
    chain = two_state()
    f = observable(chain, [1, -1])
    report = rclt.uniform_integrability_diagnostic(
        chain, f, n_list=[50, 200], epsilon_grid=[0.5, 2.0, 8.0, 32.0], seed=2020, m=500
    )
    by_n: dict[int, list[float]] = {}
    for row in report.ui_table:
        by_n.setdefault(row["n"], []).append(row["tail_expectation"])
    for n, tails in by_n.items():
        assert all(a >= b - 1e-15 for a, b in zip(tails, tails[1:])), n
    # a diagnostic without a threshold never fails
    assert report.passed and report.failures == ()


def test_ui_diagnostic_single_step_matches_exact_tail() -> None:
    chain = cycle_metropolis()
    f = observable(chain, [0.3, 1.7, -1.1])
    m = 4000
    cutoff = 0.5
    report = rclt.uniform_integrability_diagnostic(
        chain, f, n_list=[1], epsilon_grid=[cutoff], seed=31415, m=m
    )
    row = report.ui_table[0]
    x_sq = f.values**2
    exact = float(np.dot(chain.stationary, x_sq * (x_sq > cutoff)))
    slack = 3.0 * max(row["se"], 1e-3)
    assert abs(row["tail_expectation"] - exact) <= slack


def test_ui_diagnostic_full_scale_tail_vanishes() -> None:
    # recorded run: with this seed the tail expectation at cutoff 20 is 0.0
    # (no replica's max_j S_j^2 / n reaches 20 at n = m = 10^4)
    chain = iid_chain()
    f = observable(chain, [1, -1])
    report = rclt.uniform_integrability_diagnostic(
        chain, f, n_list=[10_000], epsilon_grid=[20.0], seed=20240611, m=10_000
    )
    assert report.ui_table[0]["tail_expectation"] <= 1e-3


def test_ui_diagnostic_flip_chain_bounded_paths() -> None:
    chain = flip_chain()
    f = observable(chain, [1, -1])
    report = rclt.uniform_integrability_diagnostic(
        chain, f, n_list=[10], epsilon_grid=[0.2], seed=6, m=200
    )
    # |S_j| <= 1 along alternating paths, so max_j S_j^2 / n <= 1/10 < 0.2
    assert report.ui_table[0]["tail_expectation"] == 0.0


def test_ui_diagnostic_one_pass_equals_single_lengths() -> None:
    chain = random_lazy_chain(37, seed=5)
    f = observable(chain, np.random.default_rng(37).normal(size=37))
    grid = [0.1, 1.0, 4.0]
    n_list = [1, 7, 50, 300]  # 300 steps span two draw blocks
    report = rclt.uniform_integrability_diagnostic(chain, f, n_list, grid, seed=99, m=40)
    for n in n_list:
        single = rclt.uniform_integrability_diagnostic(chain, f, [n], grid, seed=99, m=40)
        assert [row for row in report.ui_table if row["n"] == n] == single.ui_table


def test_ui_diagnostic_validates_n_list() -> None:
    chain = two_state()
    f = observable(chain, [1, -1])
    with pytest.raises(ValueError):
        rclt.uniform_integrability_diagnostic(chain, f, [20, 10], [1.0], seed=1, m=10)


def test_ui_diagnostic_rejects_empty_n_list() -> None:
    chain = two_state()
    f = observable(chain, [1, -1])
    with pytest.raises(rclt.InvalidArgument):
        rclt.uniform_integrability_diagnostic(chain, f, [], [1.0], seed=1, m=10)


def test_maximal_flags_take_numpy_booleans() -> None:
    chain = cycle_metropolis()
    f = observable(chain, [0.3, 1.7, -1.1])
    numpy_flags = rclt.maximal_inequality_check(
        chain, f, 3, [0.0, 0.4], exhaustive=np.True_, two_sided=np.True_
    )
    python_flags = rclt.maximal_inequality_check(chain, f, 3, [0.0, 0.4], exhaustive=True, two_sided=True)
    assert numpy_flags.to_dict() == python_flags.to_dict()
    assert numpy_flags.tolerances["two_sided"] is True


@pytest.mark.parametrize("exhaustive", [True, False], ids=["exhaustive", "monte-carlo"])
@pytest.mark.parametrize(
    "bad",
    [{"mode": "bogus"}, {"mode": np.array(["forward", "x"])}, {"lambdas": ["x"]}, {"lambdas": []}],
    ids=["mode-unknown", "mode-array", "lambdas-text", "lambdas-empty"],
)
def test_maximal_judges_its_arguments_before_the_costly_work(monkeypatch, bad, exhaustive) -> None:
    """A bad mode or bad levels raise before the limit pair is solved or a path is enumerated."""

    def costly(*args):
        raise AssertionError("costly work began before the arguments were judged")

    monkeypatch.setattr(rclt.limits, "_limit_pair", costly)
    monkeypatch.setattr(rclt.limits, "_enumerate_paths", costly)
    chain = two_state()
    f = observable(chain, [1, -1])
    params = {"n": 5, "lambdas": [0.0], "mode": "forward", "exhaustive": exhaustive, "m": 5, **bad}
    with pytest.raises(rclt.InvalidArgument):
        rclt.maximal_inequality_check(chain, f, seed=1, **params)


def test_a_drifting_limit_pair_fails_the_levels_below_its_peak(monkeypatch) -> None:
    """Every increment 1: lhs (10 - lam)^2 beats rhs 4 * 10 at lam = 0 and 0.5, not at 20."""
    monkeypatch.setattr(rclt.limits, "_limit_pair", lambda exact: (np.ones(2), np.zeros(2)))
    chain = two_state()
    f = observable(chain, [1, -1])
    levels = [0.0, 0.5, 20.0]
    exact = rclt.maximal_inequality_check(chain, f, 10, levels, exhaustive=True)
    sampled = rclt.maximal_inequality_check(chain, f, 10, levels, m=50, seed=1)
    for report in (exact, sampled):
        assert not report.passed
        assert report.failures == ("lambda=0.0: lhs 100 > rhs 40", "lambda=0.5: lhs 90.25 > rhs 40")


def test_a_nan_limit_pair_fails_every_level(monkeypatch) -> None:
    """NaN increments make both sides NaN: every level misses in both modes, none passes."""
    monkeypatch.setattr(rclt.limits, "_limit_pair", lambda exact: (np.full(2, np.nan), np.zeros(2)))
    chain = two_state()
    f = observable(chain, [1, -1])
    exact = rclt.maximal_inequality_check(chain, f, 4, [0.0, 2.0], exhaustive=True)
    sampled = rclt.maximal_inequality_check(chain, f, 4, [0.0, 2.0], m=50, seed=1)
    for report in (exact, sampled):
        assert not report.passed
        assert report.failures == ("lambda=0.0: lhs nan > rhs nan", "lambda=2.0: lhs nan > rhs nan")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_overflowing_observable_fails_the_maximal_check() -> None:
    """Sides that overflow miss, inf lhs against a NaN rhs; finite sides keep a finite slack.

    At +-1e100 the sides are finite but the std squares deviations past the
    float range, so only ``_mean_se``'s power-of-two rescaling keeps the
    slack finite, and the level passes.
    """
    chain = two_state()
    exact = rclt.maximal_inequality_check(chain, observable(chain, [1e160, -1e160]), 4, [0.0],
                                          exhaustive=True)
    assert exact.failures == ("lambda=0.0: lhs inf > rhs nan",)
    sampled = rclt.maximal_inequality_check(chain, observable(chain, [1e100, -1e100]), 4, [0.0],
                                            m=200, seed=1)
    (margin,) = sampled.maximal_margins
    assert f"{margin['lhs']:.4g} {margin['rhs']:.4g} {margin['slack']:.3g}" == (
        "8.245e+200 3.272e+201 9.05e+200"
    )
    assert sampled.failures == ()


def test_mean_se_is_every_expectation_of_a_report() -> None:
    """The sample form keeps the bits of mean and std / sqrt(size); the weighted form is np.dot."""
    rng = np.random.default_rng(11)
    for x in (rng.normal(size=101), rng.exponential(size=7) * 1e150, np.full(5, 0.3), np.array([2.5])):
        assert _mean_se(x) == (float(x.mean()), float(x.std() / math.sqrt(x.size)))
        w = rng.dirichlet(np.ones(x.size))
        assert _mean_se(x, w) == (float(np.dot(w, x)), 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mean_se_keeps_a_finite_std_of_huge_values() -> None:
    """Deviations of 1e200 square past the float range, yet their std and mean are finite."""
    x = np.array([1e200, -1e200] * 50 + [3e200])
    mean, se = _mean_se(x)
    assert mean == float(x.mean())
    assert se == pytest.approx(float((x / 1e200).std()) * 1e200 / math.sqrt(x.size), rel=1e-15)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mean_se_keeps_a_finite_mean_of_huge_values() -> None:
    """200 values of 1e307 sum past the float range, yet their mean and its se are finite."""
    mean, se = _mean_se(np.full(200, 1e307))
    assert mean == pytest.approx(1e307, rel=1e-15)
    assert math.isfinite(se)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_huge_finite_maximal_side_is_judged() -> None:
    """At +-1.2e153 every replica's side is finite, though the sum of 200 of them is not."""
    chain = two_state()
    report = rclt.maximal_inequality_check(chain, observable(chain, [1.2e153, -1.2e153]), 4, [0.0],
                                           m=200, seed=1)
    (margin,) = report.maximal_margins
    assert all(math.isfinite(margin[key]) for key in ("lhs", "rhs", "slack"))
    assert report.passed


def test_a_small_observable_is_not_degenerate() -> None:
    """At max|f| ~ 2^-21, sigma^2 ~ 4.6e-13 is ~3 E f^2, far from degenerate."""
    chain = symmetric_three_state()
    f = scaled(observable(chain, [1.0, 0.3, -1.0]), -21)
    report = rclt.clt_test(chain, f, n=50, m=200, seed=1, ks_threshold=0.2)
    assert report.sigma2_used == pytest.approx(4.603e-13, rel=1e-3)


def test_a_nan_snapshot_fails_the_fclt_profile() -> None:
    """A NaN snapshot row misses its variance and every covariance it enters, variances first."""
    chain = iid_chain()
    exact = _Exact(chain, observable(chain, [1, -1]))
    reader = _FcltReader(exact, n=20, m=100, grid=[0.25, 0.5, 1.0], seed=3)
    _one_pass(exact, 3, [reader])
    assert reader.report().passed
    reader.snapshots[1] = np.nan
    report = reader.report()
    quarter, half = f"{reader.sigma2 * 0.25:.5g}", f"{reader.sigma2 * 0.5:.5g}"
    assert report.failures == (
        f"Var at t=0.5: nan vs {half} (se nan)",
        f"Cov at (0.25,0.5): nan vs {quarter}",
        f"Cov at (0.5,1.0): nan vs {half}",
    )


def test_exhaustive_maximal_joins_the_pass_without_stepping(monkeypatch) -> None:
    """An exhaustive maximal alone derives no seed, and its report is the enumeration's."""
    chain = cycle_metropolis()
    f = observable(chain, [0.3, 1.7, -1.1])
    params = {"n": 5, "lambdas": [0.0, 0.4], "mode": "reversed", "exhaustive": True, "m": None,
              "two_sided": True}
    calls = []
    derive_seed = rclt.limits.derive_seed
    monkeypatch.setattr(
        rclt.limits, "derive_seed", lambda s, i: calls.extend(np.ravel(i)) or derive_seed(s, i)
    )
    exact = _Exact(chain, f)
    reader = _MaximalReader(exact, seed=None, **params)
    _one_pass(exact, None, [reader])
    report = reader.report()
    assert calls == []
    alone = rclt.maximal_inequality_check(chain, f, **params)
    assert report.to_dict() == alone.to_dict()
    assert report.failures == alone.failures
    # the same numbers as enumerating the paths and weighting the formula directly
    paths, prob = _enumerate_paths(chain, 5)
    direct = _maximal_by_formula(chain, f, paths, [0.0, 0.4], "reversed", True, prob)
    expected = _maximal_expected(5, None, None, "reversed", True, [0.0, 0.4], direct)
    assert alone.to_dict() == expected.to_dict()
    assert alone.failures == ()
    assert [(e["lambda"], e["slack"]) for e in alone.maximal_margins] == [(0.0, 0.0), (0.4, 0.0)]
