from __future__ import annotations

import json

import numpy as np
import pytest

import rclt
from rclt import cli

from .fixture_chains import (
    flip_chain,
    identity_fixture_pairs,
    iid_chain,
    observable,
    random_pairs,
    two_state,
)


def test_single_atom_for_two_state_chain() -> None:
    chain = two_state()
    rho = rclt.spectral_measure(chain, observable(chain, [1, -1]))
    assert rho.atoms() == [(0.5, 1.0)]


def test_iid_chain_atom_at_zero() -> None:
    chain = iid_chain((0.3, 0.7))
    f = observable(chain, [2.0, -1.0])
    rho = rclt.spectral_measure(chain, f)
    assert len(rho.atoms()) == 1
    lam, w = rho.atoms()[0]
    assert abs(lam) <= 1e-12
    assert abs(w - chain.pi_dot(f.values, f.values)) <= 1e-12


def test_flip_chain_atom_at_minus_one() -> None:
    chain = flip_chain()
    rho = rclt.spectral_measure(chain, observable(chain, [1, -1]))
    assert rho.atoms() == [(-1.0, 1.0)]


def test_total_mass_is_second_moment_everywhere() -> None:
    for chain, f in identity_fixture_pairs():
        rho = rclt.spectral_measure(chain, f)
        assert abs(rho.total_mass - chain.pi_dot(f.values, f.values)) <= 1e-10


def test_moment_matches_direct_covariance() -> None:
    for chain, f in identity_fixture_pairs():
        rho = rclt.spectral_measure(chain, f)
        v = f.values.copy()
        for k in range(21):
            direct = chain.pi_dot(f.values, v)
            assert abs(rclt.moment(rho, k) - direct) <= 1e-10, f"lag {k}"
            v = chain.kernel @ v


def test_moment_examples() -> None:
    rho = rclt.SpectralMeasure(lambdas=np.array([0.5]), weights=np.array([1.0]))
    assert rclt.moment(rho, 3) == pytest.approx(0.125, abs=1e-15)
    assert rclt.moment(rho, 0) == rho.total_mass
    with pytest.raises(ValueError):
        rclt.moment(rho, -1)


def test_spectral_variance_examples() -> None:
    atom_half = rclt.SpectralMeasure(lambdas=np.array([0.5]), weights=np.array([1.0]))
    assert rclt.asymptotic_variance_spectral(atom_half) == pytest.approx(3.0, abs=1e-15)
    atom_zero = rclt.SpectralMeasure(lambdas=np.array([0.0]), weights=np.array([0.7]))
    assert rclt.asymptotic_variance_spectral(atom_zero) == pytest.approx(0.7, abs=1e-15)
    atom_neg = rclt.SpectralMeasure(lambdas=np.array([-1.0]), weights=np.array([1.0]))
    assert rclt.asymptotic_variance_spectral(atom_neg) == 0.0


def test_mass_at_one_is_rejected() -> None:
    rho = rclt.SpectralMeasure(lambdas=np.array([1.0, 0.2]), weights=np.array([0.5, 0.5]))
    with pytest.raises(rclt.FiniteVarianceViolated):
        rclt.asymptotic_variance_spectral(rho)
    with pytest.raises(rclt.FiniteVarianceViolated):
        rclt.finiteness_integral(rho)


def test_uncentered_observable_is_rejected() -> None:
    chain = two_state()
    with pytest.raises(ValueError):
        rclt.spectral_measure(chain, rclt.Observable(values=np.array([1.0, 0.0])))


def test_spectral_mass_at_one_raises_on_reducible_chain() -> None:
    # eigenvalue 1 is double for two disconnected blocks, and a centered
    # observable can carry real weight on the second unit eigenvector
    kernel = np.array(
        [
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5, 0.5],
        ]
    )
    chain = rclt.ReversibleChain(kernel=kernel, stationary=np.full(4, 0.25))
    f = rclt.Observable(values=np.array([1.0, 1.0, -1.0, -1.0]))
    with pytest.raises(rclt.FiniteVarianceViolated):
        rclt.spectral_measure(chain, f)


def test_poisson_variance_examples() -> None:
    chain = two_state()
    f = observable(chain, [1, -1])
    g = rclt.poisson_solve(chain, f)
    np.testing.assert_allclose(g, 2.0 * f.values, atol=1e-12)
    assert rclt.asymptotic_variance_poisson(chain, f) == pytest.approx(3.0, abs=1e-12)

    iid = iid_chain((0.4, 0.6))
    fi = observable(iid, [1.0, -0.5])
    ef2 = iid.pi_dot(fi.values, fi.values)
    assert rclt.asymptotic_variance_poisson(iid, fi) == pytest.approx(ef2, abs=1e-12)

    flip = flip_chain()
    ff = observable(flip, [1, -1])
    np.testing.assert_allclose(rclt.poisson_solve(flip, ff), 0.5 * ff.values, atol=1e-12)
    assert rclt.asymptotic_variance_poisson(flip, ff) == pytest.approx(0.0, abs=1e-12)


def test_poisson_solution_is_centered() -> None:
    for chain, f in identity_fixture_pairs():
        g = rclt.poisson_solve(chain, f)
        assert abs(float(np.dot(chain.stationary, g))) <= 1e-10


def test_singular_poisson_on_numerically_reducible_chain() -> None:
    # two disconnected reversible blocks pass the constructor's certificates
    # but leave the centered resolvent singular
    kernel = np.array(
        [
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5, 0.5],
        ]
    )
    chain = rclt.ReversibleChain(kernel=kernel, stationary=np.full(4, 0.25))
    f = rclt.Observable(values=np.array([1.0, 1.0, -1.0, -1.0]))
    with pytest.raises(rclt.SingularPoisson):
        rclt.poisson_solve(chain, f)


def test_series_examples() -> None:
    chain = two_state()
    f = observable(chain, [1, -1])
    series = rclt.asymptotic_variance_series(chain, f, 2)
    np.testing.assert_allclose(series, [1.0, 1.5], atol=1e-14)

    iid = iid_chain()
    fi = observable(iid, [1, -1])
    np.testing.assert_allclose(rclt.asymptotic_variance_series(iid, fi, 50), np.ones(50), atol=1e-13)


def test_series_approaches_limit_monotonically_from_below() -> None:
    chain = two_state()
    f = observable(chain, [1, -1])
    series = rclt.asymptotic_variance_series(chain, f, 400)
    assert np.all(np.diff(series) > 0)
    assert series[-1] < 3.0
    # gap to the limit is O(1/n) with the geometric-tail constant
    n = np.arange(1, 401)
    gap = 3.0 - series
    np.testing.assert_allclose(gap[50:], (4.0 - 4.0 * 0.5**n / (1 - 0.5) / 2)[50:] / n[50:], rtol=1e-10)


def test_series_is_nondecreasing_for_nonnegative_spectrum() -> None:
    for chain, f in random_pairs(5, 424242):
        series = rclt.asymptotic_variance_series(chain, f, 200)
        assert np.all(np.diff(series) >= -1e-13)


def test_extrapolated_series_limit_matches_spectral() -> None:
    for chain, f in identity_fixture_pairs():
        sigma2 = rclt.asymptotic_variance_spectral(rclt.spectral_measure(chain, f))
        series = rclt.asymptotic_variance_series(chain, f, 600)
        assert abs(rclt.extrapolate_series_limit(series) - sigma2) <= 1e-8 * max(sigma2, 1e-3)


def test_variance_integrand_examples() -> None:
    atom_zero = rclt.SpectralMeasure(lambdas=np.array([0.0]), weights=np.array([1.0]))
    assert rclt.variance_integrand_check(atom_zero, 3) == pytest.approx(1.0, abs=1e-15)
    atom_half = rclt.SpectralMeasure(lambdas=np.array([0.5]), weights=np.array([1.0]))
    assert rclt.variance_integrand_check(atom_half, 2) == pytest.approx(1.5, abs=1e-15)
    atom_neg = rclt.SpectralMeasure(lambdas=np.array([-1.0]), weights=np.array([1.0]))
    assert rclt.variance_integrand_check(atom_neg, 2) == pytest.approx(0.0, abs=1e-15)


def test_variance_integrand_equals_series_everywhere() -> None:
    for chain, f in identity_fixture_pairs():
        rho = rclt.spectral_measure(chain, f)
        series = rclt.asymptotic_variance_series(chain, f, 60)
        for n in (1, 2, 3, 7, 20, 60):
            assert abs(rclt.variance_integrand_check(rho, n) - series[n - 1]) <= 1e-10


def test_lemma_style_identity_between_the_two_integrals() -> None:
    for chain, f in identity_fixture_pairs():
        rho = rclt.spectral_measure(chain, f)
        sigma2 = rclt.asymptotic_variance_spectral(rho)
        alt = 2.0 * rclt.finiteness_integral(rho) - rho.total_mass
        assert abs(sigma2 - alt) <= 1e-12 * max(1.0, abs(sigma2))


def test_cauchy_quantity_examples() -> None:
    atom_half = rclt.SpectralMeasure(lambdas=np.array([0.5]), weights=np.array([1.0]))
    assert rclt.cauchy_quantity(atom_half, 2, 3) == pytest.approx(0.421875, abs=1e-15)
    atom_zero = rclt.SpectralMeasure(lambdas=np.array([0.0]), weights=np.array([1.0]))
    assert rclt.cauchy_quantity(atom_zero, 2, 5) == 0.0
    with pytest.raises(ValueError):
        rclt.cauchy_quantity(atom_half, 3, 3)


def test_cauchy_quantity_matches_direct_definition() -> None:
    for chain, f in identity_fixture_pairs()[:6]:
        rho = rclt.spectral_measure(chain, f)
        for n, p in [(1, 2), (1, 5), (2, 3), (3, 8), (5, 6)]:
            closed = rclt.cauchy_quantity(rho, n, p)
            direct = rclt.cauchy_quantity_direct(chain, f, n, p)
            assert abs(closed - direct) <= 1e-10, (n, p)


def test_cauchy_quantity_geometric_decay_bound() -> None:
    rho = rclt.spectral_measure(two_state(), observable(two_state(), [1, -1]))
    for n in (2, 4, 8):
        for p in (n + 1, n + 5, n + 20):
            bound = 8.0 * 0.5 ** (2 * n - 2) / (1.0 - 0.5)
            assert rclt.cauchy_quantity(rho, n, p) <= bound + 1e-15


def test_spectral_gap_values() -> None:
    assert rclt.spectral_gap(two_state()) == pytest.approx(0.5, abs=1e-12)
    assert rclt.spectral_gap(flip_chain()) == pytest.approx(2.0, abs=1e-12)
    assert rclt.spectral_gap(flip_chain(), absolute=True) == pytest.approx(0.0, abs=1e-12)


def test_spectral_gap_checks_the_eigensystem() -> None:
    """An eigenvalue escaped above 1 is an EigenFailure here as in spectral_measure."""
    chain = two_state()
    lam, u = chain._eigensystem
    broken = rclt.ReversibleChain(kernel=chain.kernel, stationary=chain.stationary)
    broken.__dict__["_eigensystem"] = (np.array([lam[0], 1.0 + 1e-9]), u)
    with pytest.raises(rclt.EigenFailure):
        rclt.spectral_gap(broken)
    with pytest.raises(rclt.EigenFailure):
        rclt.spectral_measure(broken, observable(broken, [1, -1]))


def test_variance_report_three_way_agreement() -> None:
    for chain, f in identity_fixture_pairs():
        report = rclt.variance_report(chain, f, n_max=600)
        scale = max(report.sigma2_spectral, 1e-3)
        assert abs(report.sigma2_spectral - report.sigma2_poisson) <= 1e-8 * scale
        assert abs(report.sigma2_spectral - report.sigma2_series) <= 1e-8 * scale
        assert abs(
            report.sigma2_spectral - (2.0 * report.finiteness_integral - rclt.spectral_measure(chain, f).total_mass)
        ) <= 1e-12 * scale


_ATOM = rclt.SpectralMeasure(lambdas=np.array([0.5]), weights=np.array([1.0]))
_TWO = (two_state(), observable(two_state(), [1, -1]))
_PATH = rclt.sample_trajectory(*_TWO, 6, 1)
#: ragged chain input is a MalformedMatrix, like every other malformed builder input
_RAGGED = [
    lambda: rclt.build_chain([[0.5, 0.5], [1.0]]),
    lambda: rclt.build_random_walk([[0.5, 0.5], [1.0]]),
    lambda: rclt.build_metropolis([1.0, 1.0], [[0.5, 0.5], [1.0]]),
    lambda: rclt.build_metropolis([1.0, [2.0, 3.0]], [[0.5, 0.5], [0.5, 0.5]]),
    lambda: rclt.build_chain([["a", "b"], [0.5, 0.5]]),
]


@pytest.mark.parametrize(
    "call",
    [
        lambda: rclt.chain.require_centered(two_state(), rclt.Observable(values=np.array([1.0, 0.0]))),
        lambda: rclt.SpectralMeasure(lambdas=np.array([0.5, 0.1]), weights=np.array([1.0])),
        lambda: rclt.SpectralMeasure(lambdas=np.array([1.5]), weights=np.array([1.0])),
        lambda: rclt.SpectralMeasure(lambdas=np.array([0.5]), weights=np.array([-1.0])),
        lambda: rclt.moment(_ATOM, -1),
        lambda: rclt.variance_integrand_check(_ATOM, 0),
        lambda: rclt.cauchy_quantity(_ATOM, 3, 3),
        lambda: rclt.cauchy_quantity_direct(two_state(), observable(two_state(), [1, -1]), 0, 2),
        lambda: rclt.l2_convergence_table(two_state(), observable(two_state(), [1, -1]), [4, 2]),
        lambda: rclt.fclt_profile(*_TWO, n=10, m=5, grid=["x"], seed=1),
        lambda: rclt.fclt_profile(*_TWO, n=10, m=5, grid=[None], seed=1),
        lambda: rclt.fclt_profile(*_TWO, n=10, m=5, grid=[0.5, float("nan")], seed=1),
        lambda: rclt.uniform_integrability_diagnostic(*_TWO, [5], epsilon_grid=["x"], seed=1, m=5),
        lambda: rclt.uniform_integrability_diagnostic(*_TWO, ["x"], epsilon_grid=[1.0], seed=1, m=5),
        lambda: rclt.clt_test(*_TWO, n=10, m=5, seed=1, ks_threshold="a"),
        lambda: rclt.maximal_inequality_check(*_TWO, n=3, lambdas=[None], exhaustive=True),
        lambda: rclt.maximal_inequality_check(*_TWO, n=3, lambdas=[None], m=5, seed=1),
        lambda: rclt.maximal_inequality_check(*_TWO, n=3, lambdas=[float("nan")], exhaustive=True),
        lambda: rclt.maximal_inequality_check(*_TWO, n=3, lambdas=[float("inf")], m=5, seed=1),
        lambda: rclt.uniform_integrability_diagnostic(
            *_TWO, [5], epsilon_grid=[float("nan")], seed=1, m=5
        ),
        lambda: rclt.uniform_integrability_diagnostic(*_TWO, [10.7], epsilon_grid=[1.0], seed=1, m=5),
        lambda: rclt.clt_test(*_TWO, n=10, m=5, seed=1, ks_threshold=float("inf")),
        lambda: rclt.Observable(["a"]),
        lambda: rclt.decompose_trajectory(*_TWO, _PATH, horizon=2.5),
        lambda: rclt.boundary_l2_norm(*_TWO, 2.5, 1),
        lambda: rclt.boundary_term(*_TWO, _PATH, k=1.0, n=3),
        lambda: rclt.martingale_certificate(*_TWO, 2.5),
        lambda: rclt.moment(_ATOM, 1.5),
        lambda: rclt.moment(_ATOM, "a"),
        lambda: rclt.asymptotic_variance_series(*_TWO, 3.0),
        lambda: rclt.variance_report(*_TWO, n_max="a"),
        lambda: rclt.l2_convergence_table(*_TWO, ["a"]),
        lambda: rclt.cauchy_quantity(_ATOM, 1.5, 3),
        lambda: rclt.clt_test(*_TWO, n=10, m=True, seed=1),
        lambda: rclt.clt_test(*_TWO, n=True, m=5, seed=1),
        lambda: rclt.clt_test(*_TWO, n=0, m=5, seed=1),
        lambda: rclt.clt_test(*_TWO, n=10, m=-3, seed=1),
        lambda: rclt.sample_trajectory(*_TWO, True, 1),
        lambda: rclt.moment(_ATOM, True),
        lambda: rclt.decompose_trajectory(*_TWO, _PATH, horizon=True),
        lambda: rclt.clt_test(*_TWO, n=10, m=5, seed=-1),
        lambda: rclt.clt_test(*_TWO, n=10, m=5, seed=1.7),
        lambda: rclt.clt_test(*_TWO, n=10, m=5, seed=True),
        lambda: rclt.clt_test(*_TWO, n=10, m=5, seed="3"),
        lambda: rclt.clt_test(*_TWO, n=10, m=5, seed=None),
        lambda: rclt.sample_trajectory(*_TWO, 5, -1),
        lambda: rclt.sample_trajectory(*_TWO, 5, 1.7),
        lambda: rclt.sample_trajectory(*_TWO, 5, True),
        lambda: rclt.sample_trajectory(*_TWO, 5, "3"),
        lambda: rclt.maximal_inequality_check(*_TWO, n=0, lambdas=[0.0], exhaustive=True),
        lambda: rclt.maximal_inequality_check(*_TWO, n=3, lambdas=[0.0], seed=1),
        lambda: rclt.uniform_integrability_diagnostic(*_TWO, [5], epsilon_grid=[1.0], seed=1, m=0),
        lambda: rclt.boundary_term(*_TWO, _PATH, k=4, n=3),
        lambda: rclt.boundary_term(*_TWO, _PATH, k=0, n=7),
        lambda: rclt.boundary_l2_norm(*_TWO, 3, 4),
        lambda: rclt.clt_test(*_TWO, n=10, m=5, seed=1, ks_threshold=True),
        lambda: rclt.fclt_profile(*_TWO, n=10, m=5, grid=[True], seed=1),
        lambda: rclt.maximal_inequality_check(*_TWO, n=3, lambdas=[False], exhaustive=True),
        lambda: rclt.SpectralMeasure(lambdas=np.array([np.nan]), weights=np.array([1.0])),
        lambda: rclt.SpectralMeasure(lambdas=np.array([0.5]), weights=np.array([np.inf])),
        lambda: rclt.extrapolate_series_limit([]),
        lambda: rclt.extrapolate_series_limit(["a", "b"]),
        lambda: rclt.ks_distance_to_normal([]),
        lambda: rclt.ks_distance_to_normal(["a"]),
        lambda: rclt.ks_distance_to_normal([0.1, np.nan, -0.3]),
        lambda: rclt.dkw_epsilon(0),
        lambda: rclt.dkw_epsilon(-1),
        lambda: rclt.dkw_epsilon(100, alpha=0),
        *_RAGGED,
    ],
    ids=[
        "require-centered",
        "measure-shapes",
        "measure-atom-outside",
        "measure-negative-weight",
        "moment-order",
        "integrand-n",
        "cauchy-n-p",
        "cauchy-direct-n-p",
        "l2-table-horizons",
        "fclt-grid-text",
        "fclt-grid-none",
        "fclt-grid-nan",
        "ui-epsilon-grid-text",
        "ui-n-list-text",
        "clt-ks-threshold-text",
        "maximal-lambdas-none-exhaustive",
        "maximal-lambdas-none-monte-carlo",
        "maximal-lambdas-nan-exhaustive",
        "maximal-lambdas-inf-monte-carlo",
        "ui-epsilon-grid-nan",
        "ui-n-list-non-integral",
        "clt-ks-threshold-inf",
        "observable-text",
        "decompose-horizon-float",
        "boundary-l2-norm-n-float",
        "boundary-term-k-float",
        "certificate-horizon-float",
        "moment-order-float",
        "moment-order-text",
        "series-n-max-float",
        "variance-report-n-max-text",
        "l2-table-horizon-text",
        "cauchy-n-float",
        "clt-m-bool",
        "clt-n-bool",
        "clt-n-zero",
        "clt-m-negative",
        "sample-length-bool",
        "moment-order-bool",
        "decompose-horizon-bool",
        "clt-seed-negative",
        "clt-seed-float",
        "clt-seed-bool",
        "clt-seed-text",
        "clt-seed-missing",
        "sample-seed-negative",
        "sample-seed-float",
        "sample-seed-bool",
        "sample-seed-text",
        "maximal-exhaustive-n-zero",
        "maximal-monte-carlo-without-m",
        "ui-m-zero",
        "boundary-term-k-above-n",
        "boundary-term-n-above-length",
        "boundary-l2-norm-k-above-n",
        "clt-ks-threshold-bool",
        "fclt-grid-bool",
        "maximal-lambdas-bool-exhaustive",
        "measure-atom-nan",
        "measure-weight-inf",
        "series-limit-empty",
        "series-limit-text",
        "ks-empty-sample",
        "ks-text-sample",
        "ks-nan-sample",
        "dkw-m-zero",
        "dkw-m-negative",
        "dkw-alpha-zero",
        "build-chain-ragged",
        "build-random-walk-ragged",
        "build-metropolis-ragged-proposal",
        "build-metropolis-ragged-target",
        "build-chain-text",
    ],
)
def test_bad_library_arguments_raise_typed_errors(call) -> None:
    with pytest.raises(rclt.RcltError) as info:
        call()
    assert isinstance(info.value, rclt.MalformedMatrix if call in _RAGGED else rclt.InvalidArgument)
    assert isinstance(info.value, ValueError)


def test_zero_weight_atom_at_one_adds_nothing() -> None:
    """An atom of weight 0 at exactly 1 is left out of the integrals, not weighted by 0 * inf."""
    rho = rclt.SpectralMeasure(lambdas=np.array([0.5, 1.0]), weights=np.array([1.0, 0.0]))
    assert rclt.finiteness_integral(rho) == 2.0
    assert rclt.asymptotic_variance_spectral(rho) == 3.0


@pytest.mark.parametrize("scale", [1e3, 1e5])
def test_centering_and_mass_checks_scale_with_the_observable(scale: float) -> None:
    # a centered observable in larger units: its mean and spectral mass
    # carry rounding errors that grow with its size
    chain = rclt.build_chain(np.array([[0.6, 0.3, 0.1], [0.3, 0.4, 0.3], [0.1, 0.3, 0.6]]))
    f = rclt.project_mean_zero(np.array([1.1, 0.3, -0.7]) * scale, chain)
    rho = rclt.spectral_measure(chain, f)
    assert rho.total_mass == pytest.approx(chain.pi_dot(f.values, f.values), rel=1e-12)
    off_centre = rclt.Observable(values=f.values + 1e-9 * scale)
    with pytest.raises(rclt.InvalidArgument):
        rclt.spectral_measure(chain, off_centre)


def test_one_eigensolve_per_chain(tmp_path, monkeypatch) -> None:
    calls = []

    def counting(name):
        solver = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return solver(*args, **kwargs)

        return counted

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    chains = []
    build = cli.build_chain_from_definition

    def keep_chain(definition):
        chains.append(build(definition))
        return chains[-1]

    monkeypatch.setattr(cli, "build_chain_from_definition", keep_chain)
    chain_file = {
        "kind": "kernel",
        "matrix": [[0.6, 0.3, 0.1], [0.3, 0.4, 0.3], [0.1, 0.3, 0.6]],
        "observable": [1.0, 0.0, -1.0],
    }
    (tmp_path / "chain.json").write_text(json.dumps(chain_file))
    commands = [
        "spectrum",
        {"command": "variance", "params": {"n_max": 50}},
        {"command": "clt", "params": {"n": 50, "m": 100, "ks_threshold": 0.5}},
        {"command": "fclt", "params": {"n": 50, "m": 100, "grid": [0.5, 1.0]}},
    ]
    config = {"chain_spec": "chain.json", "commands": commands, "master_seed": 7}
    (tmp_path / "config.json").write_text(json.dumps(config))
    manifest = cli.run(cli.load_config(tmp_path / "config.json"))
    assert sorted(manifest.outputs) == ["clt", "fclt", "spectrum", "variance"]
    (chain,) = chains
    assert 0.0 < rclt.spectral_gap(chain) < 1.0
    assert calls == ["eigh"]
    lam, phi = chain._eigensystem
    with pytest.raises(ValueError):
        lam[0] = 0.0
    with pytest.raises(ValueError):
        phi[0, 0] = 0.0
