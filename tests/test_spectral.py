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
    scaled,
    symmetric_three_state,
    two_state,
    weakly_coupled_pairs,
)
from .oracles import cauchy_quantity_direct, cauchy_quantity_exact, variance_integrand_check


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
    series = rclt.asymptotic_variance_series(rclt.spectral_measure(chain, f), 2)
    np.testing.assert_allclose(series, [1.0, 1.5], atol=1e-14)

    iid = iid_chain()
    fi = observable(iid, [1, -1])
    series = rclt.asymptotic_variance_series(rclt.spectral_measure(iid, fi), 50)
    np.testing.assert_allclose(series, np.ones(50), atol=1e-13)


def test_series_approaches_limit_monotonically_from_below() -> None:
    chain = two_state()
    f = observable(chain, [1, -1])
    series = rclt.asymptotic_variance_series(rclt.spectral_measure(chain, f), 400)
    assert np.all(np.diff(series) > 0)
    assert series[-1] < 3.0
    # gap to the limit is O(1/n) with the geometric-tail constant
    n = np.arange(1, 401)
    gap = 3.0 - series
    np.testing.assert_allclose(gap[50:], (4.0 - 4.0 * 0.5**n / (1 - 0.5) / 2)[50:] / n[50:], rtol=1e-10)


def test_series_is_nondecreasing_for_nonnegative_spectrum() -> None:
    for chain, f in random_pairs(5, 424242):
        series = rclt.asymptotic_variance_series(rclt.spectral_measure(chain, f), 200)
        assert np.all(np.diff(series) >= -1e-13)


def test_extrapolated_series_limit_matches_spectral() -> None:
    for chain, f in identity_fixture_pairs():
        sigma2 = rclt.asymptotic_variance_spectral(rclt.spectral_measure(chain, f))
        series = rclt.asymptotic_variance_series(rclt.spectral_measure(chain, f), 600)
        assert abs(rclt.extrapolate_series_limit(series) - sigma2) <= 1e-8 * max(sigma2, 1e-3)


def test_variance_integrand_examples() -> None:
    atom_zero = rclt.SpectralMeasure(lambdas=np.array([0.0]), weights=np.array([1.0]))
    assert variance_integrand_check(atom_zero, 3) == pytest.approx(1.0, abs=1e-15)
    atom_half = rclt.SpectralMeasure(lambdas=np.array([0.5]), weights=np.array([1.0]))
    assert variance_integrand_check(atom_half, 2) == pytest.approx(1.5, abs=1e-15)
    atom_neg = rclt.SpectralMeasure(lambdas=np.array([-1.0]), weights=np.array([1.0]))
    assert variance_integrand_check(atom_neg, 2) == pytest.approx(0.0, abs=1e-15)


def test_variance_integrand_equals_series_everywhere() -> None:
    for chain, f in identity_fixture_pairs():
        rho = rclt.spectral_measure(chain, f)
        series = rclt.asymptotic_variance_series(rho, 60)
        for n in (1, 2, 3, 7, 20, 60):
            assert abs(variance_integrand_check(rho, n) - series[n - 1]) <= 1e-10


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
            direct = cauchy_quantity_direct(chain, f, n, p)
            assert abs(closed - direct) <= 1e-10, (n, p)


@pytest.mark.parametrize("atom", [1 - 2**-33, 1 - 2**-23, 1 - 1e-10, 1 - 1e-7])
def test_cauchy_quantity_is_accurate_for_atoms_near_one(atom) -> None:
    """1 - t^m cancels near t = 1, so it is taken as (1 - t) times the geometric sum."""
    rho = rclt.SpectralMeasure(lambdas=np.array([atom]), weights=np.array([1.0]))
    for n, p in [(1, 2), (3, 100), (1, 50), (10, 40), (2, 3)]:
        exact = cauchy_quantity_exact(rho, n, p)
        assert abs(rclt.cauchy_quantity(rho, n, p) - exact) <= 1e-15 * exact, (n, p)


@pytest.mark.parametrize("atom", [-1 + 2**-30, -1 + 2**-20, -1 + 1e-7, -1 + 2**-40])
def test_cauchy_quantity_is_accurate_for_atoms_near_minus_one(atom) -> None:
    """The geometric sum's terms cancel near t = -1, so 1 - t^m is taken without that sum."""
    rho = rclt.SpectralMeasure(lambdas=np.array([atom]), weights=np.array([1.0]))
    for n, p in [(1, 50), (3, 100), (1, 51), (2, 4), (10, 40), (1, 2)]:
        exact = cauchy_quantity_exact(rho, n, p)
        assert abs(rclt.cauchy_quantity(rho, n, p) - exact) <= 1e-15 * exact, (n, p)


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
    # one state: no eigenvalue besides 1, so no gap
    assert rclt.spectral_gap(rclt.build_chain([[1.0]])) == 0.0


@pytest.mark.parametrize("top", [1.0 + 1e-9, np.nan], ids=["escaped-above-one", "nan"])
def test_spectral_gap_checks_the_eigensystem(top) -> None:
    """An eigenvalue above 1, or a NaN one, is an EigenFailure here as in spectral_measure."""
    chain = two_state()
    lam, u = chain._eigensystem
    broken = rclt.ReversibleChain(kernel=chain.kernel, stationary=chain.stationary)
    broken.__dict__["_eigensystem"] = (np.array([lam[0], top]), u)
    with pytest.raises(rclt.EigenFailure):
        rclt.spectral_gap(broken)
    with pytest.raises(rclt.EigenFailure):
        rclt.spectral_measure(broken, observable(broken, [1, -1]))


def test_variance_report_judges_the_spectral_route_against_poisson() -> None:
    """An eigenvalue shifted by 1e-7 keeps the mass but moves sigma^2 by 2.7e-7: EigenFailure."""
    chain = two_state()
    lam, u = chain._eigensystem
    broken = rclt.ReversibleChain(kernel=chain.kernel, stationary=chain.stationary)
    broken.__dict__["_eigensystem"] = (np.array([lam[0] + 1e-7, lam[1]]), u)
    f = observable(broken, [1, -1])
    assert rclt.spectral_measure(broken, f).total_mass == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(rclt.EigenFailure, match="sigma\\^2 routes disagree"):
        rclt.variance_report(broken, f)


def _shifted(chain: rclt.ReversibleChain) -> rclt.ReversibleChain:
    """``chain`` with its second eigenvalue moved by 1e-7 in its cached eigensystem."""
    lam, u = chain._eigensystem
    chain.__dict__["_eigensystem"] = (np.array([lam[0], lam[1] + 1e-7, *lam[2:]]), u)
    return chain


@pytest.mark.parametrize(
    "check",
    [
        lambda chain, f: rclt.clt_test(chain, f, n=50, m=200, seed=1, ks_threshold=0.5),
        lambda chain, f: rclt.fclt_profile(chain, f, n=50, m=100, grid=[0.5, 1.0], seed=1),
    ],
    ids=["clt", "fclt"],
)
def test_every_reader_of_sigma2_meets_the_route_gate(check) -> None:
    """The checks scale by the sigma^2 that ``variance_report`` judges, so they meet its gate."""
    chain = _shifted(rclt.build_chain([[0.6, 0.3, 0.1], [0.3, 0.4, 0.3], [0.1, 0.3, 0.6]]))
    f = observable(chain, [1, 0, -1])
    with pytest.raises(rclt.EigenFailure) as judged:
        rclt.variance_report(chain, f, 10)
    assert str(judged.value).startswith("sigma^2 routes disagree: spectral 2.000000533")
    with pytest.raises(rclt.EigenFailure) as raised:
        check(chain, f)
    assert str(raised.value) == str(judged.value)


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
#: an observable of three states, one too many for ``two_state``
_THREE = rclt.Observable(values=np.array([1.0, 0.0, -1.0]))
#: paths that leave the two states of ``two_state``: one of a 3-state chain, one below 0
_OFF_PATHS = [
    rclt.Trajectory(states=s, observables=[0.0] * 3, partial_sums=[0.0] * 3, seed=1)
    for s in ([0, 2, 1], [0, -1, 0])
]
#: ragged chain input, or chain input holding an integer past the float range, is a
#: MalformedMatrix, like every other malformed builder input
_RAGGED = [
    lambda: rclt.build_chain([[0.5, 0.5], [1.0]]),
    lambda: rclt.build_random_walk([[0.5, 0.5], [1.0]]),
    lambda: rclt.build_metropolis([1.0, 1.0], [[0.5, 0.5], [1.0]]),
    lambda: rclt.build_metropolis([1.0, [2.0, 3.0]], [[0.5, 0.5], [0.5, 0.5]]),
    lambda: rclt.build_chain([["a", "b"], [0.5, 0.5]]),
    lambda: rclt.build_chain([[10**400, 0.25], [0.25, 0.75]]),
    lambda: rclt.build_random_walk([[10**400, 1.0], [1.0, 1.0]]),
    lambda: rclt.build_metropolis([10**400, 1.0], [[0.5, 0.5], [0.5, 0.5]]),
    lambda: rclt.build_metropolis([1.0, 1.0], [[10**400, 0.5], [0.5, 0.5]]),
    lambda: rclt.build_chain([["0.5", "0.5"], ["0.5", "0.5"]]),
    lambda: rclt.build_chain([[b"0.5", b"0.5"], [b"0.5", b"0.5"]]),
    lambda: rclt.build_chain([[True, False], [False, True]]),
    lambda: rclt.build_random_walk([["0.5", "1"], ["1", "0.5"]]),
    lambda: rclt.build_random_walk([[b"0.5", b"1"], [b"1", b"0.5"]]),
    lambda: rclt.build_random_walk([[True, True], [True, True]]),
    lambda: rclt.build_metropolis(["0.5", "0.5"], [[0.5, 0.5], [0.5, 0.5]]),
    lambda: rclt.build_metropolis([b"0.5", b"0.5"], [[0.5, 0.5], [0.5, 0.5]]),
    lambda: rclt.build_metropolis([True, True], [[0.5, 0.5], [0.5, 0.5]]),
    lambda: rclt.build_metropolis([1.0, 1.0], [["0.5", "0.5"], ["0.5", "0.5"]]),
    lambda: rclt.build_metropolis([1.0, 1.0], [[b"0.5", b"0.5"], [b"0.5", b"0.5"]]),
    lambda: rclt.build_metropolis([1.0, 1.0], [[True, False], [False, True]]),
    lambda: rclt.build_metropolis([1.0, 1.0], [[0.5, 0.5], [0.5, np.nan]]),
    lambda: rclt.build_metropolis([1.0, 1.0], [[0.5, np.nan], [0.5, 0.5]]),
    lambda: rclt.build_chain([[0.5, 0.5], [True, 0.0]]),
    lambda: rclt.build_random_walk([[0.5, True], [True, 0.5]]),
    lambda: rclt.build_metropolis([True, 2.0], [[0.5, 0.5], [0.5, 0.5]]),
]


@pytest.mark.parametrize(
    "call",
    [
        lambda: rclt.chain.require_centered(two_state(), rclt.Observable(values=np.array([1.0, 0.0]))),
        lambda: rclt.SpectralMeasure(lambdas=np.array([0.5, 0.1]), weights=np.array([1.0])),
        lambda: rclt.SpectralMeasure(lambdas=np.array([1.5]), weights=np.array([1.0])),
        lambda: rclt.SpectralMeasure(lambdas=np.array([0.5]), weights=np.array([-1.0])),
        lambda: rclt.moment(_ATOM, -1),
        lambda: rclt.cauchy_quantity(_ATOM, 3, 3),
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
        lambda: rclt.boundary_l2_norm(rclt.spectral_measure(*_TWO), 2.5, 1),
        lambda: rclt.boundary_term(*_TWO, _PATH, k=1.0, n=3),
        lambda: rclt.martingale_certificate(*_TWO, 2.5),
        lambda: rclt.moment(_ATOM, 1.5),
        lambda: rclt.moment(_ATOM, "a"),
        lambda: rclt.asymptotic_variance_series(rclt.spectral_measure(*_TWO), 3.0),
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
        lambda: rclt.boundary_l2_norm(rclt.spectral_measure(*_TWO), 3, 4),
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
        lambda: rclt.ks_distance_to_normal(1.0),
        lambda: rclt.ks_distance_to_normal([[0.1, -0.3]]),
        lambda: rclt.extrapolate_series_limit(1.0),
        lambda: rclt.extrapolate_series_limit([[1.0, 2.0]]),
        lambda: rclt.dkw_epsilon(0),
        lambda: rclt.dkw_epsilon(-1),
        lambda: rclt.dkw_epsilon(100, alpha=0),
        lambda: rclt.fclt_profile(*_TWO, n=10, m=5, grid=[], seed=1),
        lambda: rclt.maximal_inequality_check(*_TWO, n=3, lambdas=[], exhaustive=True),
        lambda: rclt.uniform_integrability_diagnostic(*_TWO, [5], epsilon_grid=[], seed=1, m=5),
        lambda: rclt.l2_convergence_table(*_TWO, []),
        lambda: rclt.Observable(values=np.zeros((2, 2))),
        lambda: rclt.spectral_measure(two_state(), _THREE),
        lambda: rclt.poisson_solve(two_state(), _THREE),
        lambda: rclt.sample_trajectory(two_state(), _THREE, 5, 1),
        lambda: rclt.decompose_trajectory(two_state(), _THREE, _PATH),
        *[lambda p=p: rclt.decompose_trajectory(*_TWO, p) for p in _OFF_PATHS],
        *[lambda p=p: rclt.boundary_term(*_TWO, p, 1, 2) for p in _OFF_PATHS],
        lambda: rclt.Observable(values=np.zeros(0)),
        lambda: rclt.dkw_epsilon(100, alpha="0.05"),
        lambda: rclt.fclt_profile(*_TWO, n=10, m=5, grid=["0.5", "1"], seed=1),
        lambda: rclt.maximal_inequality_check(*_TWO, n=3, lambdas=["0.5"], exhaustive=True),
        lambda: rclt.clt_test(*_TWO, n=10, m=5, seed=1, ks_threshold="0.5"),
        lambda: rclt.uniform_integrability_diagnostic(*_TWO, [5], epsilon_grid=[b"1"], seed=1, m=5),
        lambda: rclt.maximal_inequality_check(*_TWO, n=3, lambdas=[0.5], exhaustive="no"),
        lambda: rclt.maximal_inequality_check(*_TWO, n=3, lambdas=[0.5], m=5, seed=1, exhaustive=0),
        lambda: rclt.maximal_inequality_check(*_TWO, n=3, lambdas=[0.5], exhaustive=True, two_sided="no"),
        lambda: rclt.maximal_inequality_check(*_TWO, n=3, lambdas=[0.5], m=5, seed=1, two_sided=None),
        lambda: rclt.spectral_measure(None, _TWO[1]),
        lambda: rclt.poisson_solve(two_state(), np.array([1.0, -1.0])),
        lambda: rclt.sample_trajectory(two_state(), [1.0, -1.0], 5, 1),
        lambda: rclt.clt_test([[0.5, 0.5], [0.5, 0.5]], _TWO[1], 10, 5, 1),
        lambda: rclt.project_mean_zero([1.0, -1.0], None),
        lambda: rclt.limit_difference_second_moment(None, _TWO[1]),
        lambda: rclt.martingale_certificate(two_state(), [1.0, -1.0], 3),
        lambda: rclt.boundary_term(None, _TWO[1], _PATH, 1, 2),
        lambda: rclt.boundary_term(two_state(), rclt.Observable(values=np.array([1.0, 0.0])), _PATH, 1, 2),
        lambda: rclt.martingale_certificate(two_state(), rclt.Observable(values=np.array([1.0, 0.0])), 3),
        lambda: rclt.spectral_gap(None),
        lambda: rclt.spectral_gap(two_state(), absolute=np.ones((2, 2))),
        lambda: rclt.spectral_gap(two_state(), absolute=1),
        lambda: rclt.finiteness_integral([0.5]),
        lambda: rclt.asymptotic_variance_spectral(None),
        lambda: rclt.moment(None, 1),
        lambda: rclt.cauchy_quantity(None, 1, 2),
        lambda: rclt.asymptotic_variance_series(None, 3),
        lambda: rclt.boundary_l2_norm(None, 4, 1),
        lambda: rclt.boundary_l2_norm([1], 4, 1),
        lambda: rclt.decompose_trajectory(*_TWO, [0, 1]),
        lambda: rclt.boundary_term(*_TWO, None, 1, 2),
        lambda: rclt.extrapolate_series_limit([np.nan] * 4),
        lambda: rclt.extrapolate_series_limit([1.0, np.inf]),
        lambda: rclt.derive_seed(1, np.array([0, -1])),
        lambda: rclt.asymptotic_variance_series(rclt.spectral_measure(*_TWO), 10**30),
        lambda: rclt.variance_report(*_TWO, n_max=10**30),
        lambda: rclt.clt_test(*_TWO, n=10, m=10**30, seed=1),
        lambda: rclt.clt_test(*_TWO, n=10**30, m=5, seed=1),
        lambda: rclt.sample_trajectory(*_TWO, 10**30, 1),
        lambda: rclt.sample_trajectory(*_TWO, 2**27, 1),
        lambda: rclt.uniform_integrability_diagnostic(*_TWO, [10**30], epsilon_grid=[1.0], seed=1, m=5),
        lambda: rclt.maximal_inequality_check(*_TWO, n=10**30, lambdas=[0.0], exhaustive=True),
        lambda: rclt.fclt_profile(*_TWO, n=10, m=2**26, grid=[0.25, 0.5, 0.75], seed=1),
        lambda: rclt.maximal_inequality_check(*_TWO, n=10, lambdas=[0.0], m=2**24, seed=1),
        lambda: rclt.uniform_integrability_diagnostic(*_TWO, [5, 10], epsilon_grid=[1.0], seed=1, m=2**27),
        lambda: rclt.clt_test(*_TWO, n=1000, m=2**20, seed=1),
        lambda: rclt.clt_test(*_TWO, n=1, m=2**21, seed=1),
        lambda: rclt.moment(_ATOM, 10**9),
        lambda: rclt.moment(_ATOM, 10**400),
        lambda: rclt.cauchy_quantity(_ATOM, 10**400, 10**400 + 1),
        lambda: rclt.cauchy_quantity(_ATOM, 1, 10**400),
        lambda: rclt.boundary_l2_norm(_ATOM, 10**400, 1),
        lambda: rclt.l2_convergence_table(*_TWO, [10**400]),
        lambda: rclt.martingale_certificate(*_TWO, 10**400),
        lambda: rclt.dkw_epsilon(10**400),
        lambda: rclt.decompose_trajectory(*_TWO, _PATH, horizon=10**400),
        lambda: rclt.Observable(values=[10**400, -1.0]),
        lambda: rclt.SpectralMeasure(lambdas=[10**400], weights=[1.0]),
        lambda: rclt.SpectralMeasure(lambdas=[0.5], weights=[10**400]),
        lambda: rclt.project_mean_zero([10**400, -1.0], two_state()),
        lambda: rclt.ks_distance_to_normal([10**400, 0.1]),
        lambda: rclt.extrapolate_series_limit([1.0, 10**400]),
        lambda: rclt.project_mean_zero(["0.5", "-0.5"], two_state()),
        lambda: rclt.project_mean_zero([b"0.5", b"-0.5"], two_state()),
        lambda: rclt.project_mean_zero([True, False], two_state()),
        lambda: rclt.Observable(values=["0.5", "-0.5"]),
        lambda: rclt.Observable(values=[b"0.5", b"-0.5"]),
        lambda: rclt.Observable(values=[True, False]),
        lambda: rclt.SpectralMeasure(lambdas=["0.5"], weights=[1.0]),
        lambda: rclt.SpectralMeasure(lambdas=[0.5], weights=[b"0.5"]),
        lambda: rclt.SpectralMeasure(lambdas=[0.5], weights=[True]),
        lambda: rclt.ks_distance_to_normal(["0.5", "-0.5"]),
        lambda: rclt.ks_distance_to_normal([b"0.5", b"-0.5"]),
        lambda: rclt.ks_distance_to_normal([True, False]),
        lambda: rclt.extrapolate_series_limit(["0.5", "0.5"]),
        lambda: rclt.extrapolate_series_limit([b"0.5", b"0.5"]),
        lambda: rclt.extrapolate_series_limit([True, True]),
        lambda: rclt.maximal_inequality_check(*_TWO, 3, [0.0], exhaustive=True, m="x"),
        lambda: rclt.maximal_inequality_check(*_TWO, 3, [0.0], exhaustive=True, m=2.5),
        lambda: rclt.maximal_inequality_check(*_TWO, 3, [0.0], exhaustive=True, m=True),
        lambda: rclt.maximal_inequality_check(*_TWO, 3, [0.0], exhaustive=True, seed=2.5),
        lambda: rclt.maximal_inequality_check(*_TWO, 3, [0.0], exhaustive=True, seed=-3),
        lambda: rclt.Trajectory([0.5, 1.0], [0.0] * 2, [0.0] * 2, 1),
        lambda: rclt.Trajectory(["0", "1"], [0.0] * 2, [0.0] * 2, 1),
        lambda: rclt.Trajectory([True, False], [0.0] * 2, [0.0] * 2, 1),
        lambda: rclt.Trajectory([2**63], [0.0], [0.0], 1),
        lambda: rclt.Trajectory(0, [0.0], [0.0], 1),
        lambda: rclt.Trajectory([0, 1, 0], [0.0] * 2, [0.0] * 3, 1),
        lambda: rclt.Trajectory([0, 1], [0.0] * 2, [0.0] * 2, "x"),
        lambda: rclt.Observable([True, -1.0]),
        lambda: rclt.Trajectory([0, True], [0.0] * 2, [0.0] * 2, 1),
        lambda: rclt.ks_distance_to_normal([0.1, np.True_, -0.3]),
        *_RAGGED,
    ],
    ids=[
        "require-centered",
        "measure-shapes",
        "measure-atom-outside",
        "measure-negative-weight",
        "moment-order",
        "cauchy-n-p",
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
        "ks-0d-sample",
        "ks-2d-sample",
        "series-limit-0d",
        "series-limit-2d",
        "dkw-m-zero",
        "dkw-m-negative",
        "dkw-alpha-zero",
        "fclt-grid-empty",
        "maximal-lambdas-empty",
        "ui-epsilon-grid-empty",
        "l2-table-horizons-empty",
        "observable-2d",
        "measure-observable-too-long",
        "poisson-observable-too-long",
        "sample-observable-too-long",
        "decompose-observable-too-long",
        "decompose-path-state-too-large",
        "decompose-path-state-negative",
        "boundary-term-path-state-too-large",
        "boundary-term-path-state-negative",
        "observable-empty",
        "dkw-alpha-text",
        "fclt-grid-numeric-text",
        "maximal-lambdas-numeric-text",
        "clt-ks-threshold-numeric-text",
        "ui-epsilon-grid-bytes",
        "maximal-exhaustive-text",
        "maximal-exhaustive-int",
        "maximal-two-sided-text",
        "maximal-two-sided-none",
        "measure-chain-none",
        "poisson-observable-array",
        "sample-observable-list",
        "clt-chain-list",
        "project-chain-none",
        "second-moment-chain-none",
        "certificate-observable-list",
        "boundary-term-chain-none",
        "boundary-term-uncentered",
        "certificate-horizon-uncentered",
        "gap-chain-none",
        "gap-absolute-array",
        "gap-absolute-int",
        "finiteness-measure-list",
        "sigma2-spectral-measure-none",
        "moment-measure-none",
        "cauchy-measure-none",
        "series-measure-none",
        "boundary-l2-norm-measure-none",
        "boundary-l2-norm-measure-list",
        "decompose-path-list",
        "boundary-term-path-none",
        "series-limit-nan",
        "series-limit-inf",
        "derive-seed-index-array-negative",
        "series-n-max-over-ceiling",
        "variance-report-n-max-over-ceiling",
        "clt-m-over-ceiling",
        "clt-n-over-ceiling",
        "sample-length-over-ceiling",
        "sample-states-over-ceiling",
        "ui-n-list-over-ceiling",
        "maximal-exhaustive-n-over-ceiling",
        "fclt-snapshots-over-ceiling",
        "maximal-paths-over-ceiling",
        "ui-maxima-over-ceiling",
        "clt-pass-buffer-over-ceiling",
        "clt-pass-generators-over-ceiling",
        "moment-order-over-ceiling",
        "moment-order-huge",
        "cauchy-n-huge",
        "cauchy-p-huge",
        "boundary-l2-norm-n-huge",
        "l2-table-horizon-huge",
        "certificate-horizon-huge",
        "dkw-m-huge",
        "decompose-horizon-huge",
        "observable-huge-integer",
        "measure-atom-huge-integer",
        "measure-weight-huge-integer",
        "project-huge-integer",
        "ks-huge-integer-sample",
        "series-limit-huge-integer",
        "project-numeric-text",
        "project-bytes",
        "project-booleans",
        "observable-numeric-text",
        "observable-bytes",
        "observable-booleans",
        "measure-atom-numeric-text",
        "measure-weight-bytes",
        "measure-weight-boolean",
        "ks-numeric-text-sample",
        "ks-bytes-sample",
        "ks-boolean-sample",
        "series-limit-numeric-text",
        "series-limit-bytes",
        "series-limit-booleans",
        "maximal-exhaustive-m-text",
        "maximal-exhaustive-m-float",
        "maximal-exhaustive-m-bool",
        "maximal-exhaustive-seed-float",
        "maximal-exhaustive-seed-negative",
        "trajectory-states-float",
        "trajectory-states-numeric-text",
        "trajectory-states-booleans",
        "trajectory-states-uint64",
        "trajectory-states-scalar",
        "trajectory-observables-short",
        "trajectory-seed-text",
        "observable-boolean-among-numbers",
        "trajectory-states-boolean-among-integers",
        "ks-numpy-boolean-among-floats",
        "build-chain-ragged",
        "build-random-walk-ragged",
        "build-metropolis-ragged-proposal",
        "build-metropolis-ragged-target",
        "build-chain-text",
        "build-chain-huge-integer",
        "build-random-walk-huge-integer",
        "build-metropolis-huge-integer-target",
        "build-metropolis-huge-integer-proposal",
        "build-chain-numeric-text",
        "build-chain-bytes",
        "build-chain-booleans",
        "build-random-walk-numeric-text",
        "build-random-walk-bytes",
        "build-random-walk-booleans",
        "build-metropolis-numeric-text-target",
        "build-metropolis-bytes-target",
        "build-metropolis-boolean-target",
        "build-metropolis-numeric-text-proposal",
        "build-metropolis-bytes-proposal",
        "build-metropolis-boolean-proposal",
        "build-metropolis-nan-proposal-diagonal",
        "build-metropolis-nan-proposal-off-diagonal",
        "build-chain-boolean-among-numbers",
        "build-random-walk-boolean-among-numbers",
        "build-metropolis-boolean-among-numbers-target",
    ],
)
def test_bad_library_arguments_raise_typed_errors(call) -> None:
    with pytest.raises(rclt.RcltError) as info:
        call()
    assert isinstance(info.value, rclt.MalformedMatrix if call in _RAGGED else rclt.InvalidArgument)
    assert isinstance(info.value, ValueError)


def test_series_limit_overflow_is_a_numerical_error() -> None:
    """Finite entries whose extrapolated limit overflows raise, with no RuntimeWarning."""
    with pytest.raises(rclt.NumericalError):
        rclt.extrapolate_series_limit([1e308, 1e308])
    with pytest.raises(rclt.NumericalError):
        rclt.extrapolate_series_limit([1e308] * 4)


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


@pytest.mark.parametrize("k", [-23, -21, 37])
def test_the_spectral_gates_read_the_observable_scale(k: int) -> None:
    """At max|f| ~ 2^k both atoms off 1 are kept and the two routes agree, as at unit scale.

    At k = -23 and -21 the atoms weigh 3e-16 to 2e-13, and at k = 37 the rounding
    weight at eigenvalue 1 is 4.8e-10, a share of 4e-32 of E f^2.
    """
    chain = symmetric_three_state()
    f = scaled(observable(chain, [1.0, 0.3, -1.0]), k)
    assert rclt.spectral_measure(chain, f).lambdas.size == 2
    report = rclt.variance_report(chain, f)
    assert abs(report.sigma2_spectral - report.sigma2_poisson) <= (
        rclt.spectral.ROUTE_TOL * report.sigma2_poisson
    )


def test_a_light_slow_atom_is_kept_at_unit_scale() -> None:
    """The slow atom of two weakly coupled blocks weighs 2.5e-15 yet carries 2.5e-7 of sigma^2."""
    chain = weakly_coupled_pairs()
    f = observable(chain, np.array([1.0, -1.0, 1.0, -1.0]) + 5e-8 * np.array([1.0, 1.0, -1.0, -1.0]))
    report = rclt.variance_report(chain, f)
    assert report.sigma2_spectral == pytest.approx(1.00000029, rel=1e-9)
    assert report.sigma2_poisson == pytest.approx(1.00000029, rel=1e-9)


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


def _fail_if_called(*args):
    raise AssertionError("the exact layer was built before a cheap argument was judged")


@pytest.mark.parametrize(
    "call",
    [
        lambda chain, f: rclt.variance_report(chain, f, 0),
        lambda chain, f: rclt.variance_report(chain, f, "x"),
        lambda chain, f: rclt.clt_test(chain, f, n=10, m=10, seed=1, ks_threshold="a"),
        lambda chain, f: rclt.fclt_profile(chain, f, n=10, m=10, grid=[2.0], seed=1),
        lambda chain, f: rclt.l2_convergence_table(chain, f, [0]),
        lambda chain, f: rclt.martingale_certificate(chain, f, horizon=0),
    ],
    ids=["variance-n-max-zero", "variance-n-max-text", "clt-threshold-text", "fclt-grid",
         "l2-table-horizons", "certificate-horizon"],
)
def test_cheap_arguments_are_judged_before_the_exact_layer(monkeypatch, call) -> None:
    """A bad count, threshold, grid or horizon raises before rho or the Poisson solution is built."""
    for module in (cli, rclt.spectral, rclt.limits, rclt.decomposition):
        monkeypatch.setattr(module, "spectral_measure", _fail_if_called)
    for module in (rclt.spectral, rclt.decomposition):
        monkeypatch.setattr(module, "poisson_solve", _fail_if_called)
    chain = two_state()
    with pytest.raises(rclt.InvalidArgument):
        call(chain, observable(chain, [1, -1]))


#: the kernel of ``test_one_eigensolve_per_chain`` and one command of each exact and sampled kind
_THREE_STATE = {
    "kind": "kernel",
    "matrix": [[0.6, 0.3, 0.1], [0.3, 0.4, 0.3], [0.1, 0.3, 0.6]],
    "observable": [1.0, 0.0, -1.0],
}
_SIX_COMMANDS = [
    "spectrum",
    {"command": "variance", "params": {"n_max": 50}},
    {"command": "decompose", "params": {"length": 40}},
    {"command": "clt", "params": {"n": 50, "m": 100, "ks_threshold": 0.5}},
    {"command": "fclt", "params": {"n": 50, "m": 100, "grid": [0.5, 1.0]}},
    {"command": "maximal", "params": {"n": 4, "exhaustive": False, "m": 50}},
]


def _exact_config(tmp_path, commands) -> str:
    (tmp_path / "chain.json").write_text(json.dumps(_THREE_STATE))
    config = {"chain_spec": "chain.json", "commands": commands, "master_seed": 7, "output_dir": "out"}
    (tmp_path / "config.json").write_text(json.dumps(config))
    return str(tmp_path / "config.json")


@pytest.mark.parametrize("subcommand", ["run", "validate"])
def test_one_exact_layer_per_run(tmp_path, monkeypatch, subcommand) -> None:
    """Every command and reader of a run reads one rho and one Poisson solution."""
    calls = []

    def counting(name):
        build = getattr(rclt.spectral, name)
        return lambda chain, f: calls.append(name) or build(chain, f)

    measure, solve = counting("spectral_measure"), counting("poisson_solve")
    for module in (cli, rclt.spectral, rclt.limits, rclt.decomposition):
        monkeypatch.setattr(module, "spectral_measure", measure)
    for module in (rclt.spectral, rclt.decomposition):
        monkeypatch.setattr(module, "poisson_solve", solve)
    assert cli.main([subcommand, "--config", _exact_config(tmp_path, _SIX_COMMANDS)]) == 0
    assert sorted(calls) == ["poisson_solve", "spectral_measure"]


@pytest.mark.parametrize("subcommand", ["validate", "run"])
@pytest.mark.parametrize(
    ("name", "error", "commands"),
    [
        ("poisson_solve", rclt.SingularPoisson, ["variance", "maximal"]),
        ("spectral_measure", rclt.EigenFailure, ["spectrum", "clt"]),
    ],
    ids=["poisson", "measure"],
)
def test_a_failed_exact_build_is_raised_at_each_reader(
    tmp_path, capsys, monkeypatch, subcommand, name, error, commands
) -> None:
    """A build that raises keeps nothing: validate and run exit 3 with its one line, and no report."""

    def broken(chain, f):
        raise error("broken build")

    monkeypatch.setattr(rclt.spectral, name, broken)
    assert cli.main([subcommand, "--config", _exact_config(tmp_path, commands)]) == 3
    assert capsys.readouterr() == ("", "numerical error: broken build\n")
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("subcommand", ["validate", "run"])
def test_a_check_meets_the_route_gate_in_a_run(tmp_path, capsys, monkeypatch, subcommand) -> None:
    """A clt alone on a chain whose sigma^2 routes disagree: exit 3 with one line, and no report."""
    build = cli.build_chain_from_definition
    monkeypatch.setattr(cli, "build_chain_from_definition", lambda spec: _shifted(build(spec)))
    commands = [{"command": "clt", "params": {"n": 50, "m": 100, "ks_threshold": 0.5}}]
    assert cli.main([subcommand, "--config", _exact_config(tmp_path, commands)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical error: sigma^2 routes disagree: spectral ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_the_checks_of_a_run_judge_sigma2_once(tmp_path, monkeypatch) -> None:
    """clt and fclt alone read one judged sigma^2: one rho and one Poisson solution per run."""
    calls = []
    measure, solve = rclt.spectral.spectral_measure, rclt.spectral.poisson_solve

    def counted(name, build):
        return lambda chain, f: calls.append(name) or build(chain, f)

    for module in (cli, rclt.spectral, rclt.limits, rclt.decomposition):
        monkeypatch.setattr(module, "spectral_measure", counted("rho", measure))
    for module in (rclt.spectral, rclt.decomposition):
        monkeypatch.setattr(module, "poisson_solve", counted("g", solve))
    assert cli.main(["run", "--config", _exact_config(tmp_path, _SIX_COMMANDS[3:5])]) == 0
    assert sorted(calls) == ["g", "rho"]
