from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

import rclt
from rclt.decomposition import _horizon_vectors, _horizon_weights

from .fixture_chains import (
    flip_chain,
    identity_fixture_pairs,
    iid_chain,
    observable,
    two_state,
)


def _fixed_trajectory(chain, f, states):
    states = np.asarray(states, dtype=np.int64)
    x = f.values[states]
    partial = np.concatenate(([0.0], np.cumsum(x[1:])))
    return rclt.Trajectory(states=states, observables=x, partial_sums=partial, seed=0)


def test_forward_difference_iid_is_observable() -> None:
    chain = iid_chain((0.3, 0.7))
    f = observable(chain, [1.0, -2.0])
    traj = rclt.sample_trajectory(chain, f, 30, seed=3)
    for n in (1, 2, 9):
        terms = rclt.decompose_trajectory(chain, f, traj, horizon=n)
        for k in (1, 7, 30):
            assert terms.forward_finite[k] == pytest.approx(traj.observables[k], abs=1e-13)
            if k < 30:
                assert terms.reversed_finite[k] == pytest.approx(traj.observables[k], abs=1e-13)


def test_forward_difference_hand_value() -> None:
    chain = two_state()
    f = observable(chain, [1, -1])
    traj = _fixed_trajectory(chain, f, [0, 0, 0])
    terms = rclt.decompose_trajectory(chain, f, traj, horizon=2)
    assert terms.forward_finite[1] == pytest.approx(0.625, abs=1e-14)


def test_forward_difference_index_errors() -> None:
    chain = two_state()
    f = observable(chain, [1, -1])
    traj = rclt.sample_trajectory(chain, f, 10, seed=1)
    terms = rclt.decompose_trajectory(chain, f, traj, horizon=3)
    # forward terms read xi_{k-1}, reversed ones xi_{k+1}: the slots a
    # term cannot reach hold NaN and the arrays end at position 10
    for forward in (terms.forward_finite, terms.forward_limit):
        assert forward.shape == (11,)
        assert np.isnan(forward[0]) and not np.any(np.isnan(forward[1:]))
    for reversed_ in (terms.reversed_finite, terms.reversed_limit):
        assert reversed_.shape == (11,)
        assert np.isnan(reversed_[10]) and not np.any(np.isnan(reversed_[:10]))


def test_martingale_certificates_finite_and_limit() -> None:
    for chain, f in identity_fixture_pairs():
        assert rclt.martingale_certificate(chain, f) <= 1e-12
        for n in (1, 2, 5, 40):
            assert rclt.martingale_certificate(chain, f, horizon=n) <= 1e-12


def test_boundary_term_hand_value() -> None:
    chain = two_state()
    f = observable(chain, [1, -1])
    traj = _fixed_trajectory(chain, f, [0, 1, 0, 1, 0])
    # state 0 at position 2, two remaining steps of a 4-step horizon
    assert rclt.boundary_term(chain, f, traj, 2, 4) == pytest.approx(0.1875, abs=1e-14)
    assert rclt.boundary_term(chain, f, traj, 4, 4) == 0.0


def test_boundary_term_iid_vanishes() -> None:
    chain = iid_chain()
    f = observable(chain, [1, -1])
    traj = rclt.sample_trajectory(chain, f, 12, seed=4)
    for k in (0, 3, 12):
        assert rclt.boundary_term(chain, f, traj, k, 12) == pytest.approx(0.0, abs=1e-14)


def test_boundary_term_index_errors() -> None:
    chain = two_state()
    f = observable(chain, [1, -1])
    traj = rclt.sample_trajectory(chain, f, 5, seed=2)
    with pytest.raises(rclt.InvalidArgument):
        rclt.boundary_term(chain, f, traj, 4, 3)
    with pytest.raises(rclt.InvalidArgument):
        rclt.boundary_term(chain, f, traj, 0, 6)


def test_boundary_l2_norm_examples_and_decay() -> None:
    chain = two_state()
    f = observable(chain, [1, -1])
    assert rclt.boundary_l2_norm(rclt.spectral_measure(chain, f), 4, 2) == pytest.approx(0.03515625, abs=1e-15)

    iid = iid_chain()
    fi = observable(iid, [1, -1])
    assert rclt.boundary_l2_norm(rclt.spectral_measure(iid, fi), 10, 3) == 0.0

    rho = rclt.spectral_measure(chain, f)
    bound_constant = 2.0 * rclt.finiteness_integral(rho)
    for n in (10, 100, 1000):
        assert rclt.boundary_l2_norm(rho, n, 0) <= bound_constant / n + 1e-15


def test_boundary_l2_norm_is_accurate_near_one() -> None:
    """An atom 1e-9 below 1, which spectral_measure keeps, loses nothing to cancellation."""
    t = 1.0 - 1e-9
    rho = rclt.SpectralMeasure(lambdas=np.array([t]), weights=np.array([0.75]))
    exact = Fraction(0.75) * sum(Fraction(t) ** j for j in range(1, 11)) ** 2 / 100
    value = rclt.boundary_l2_norm(rho, 10, 0)
    assert abs(Fraction(value) - exact) <= 1e-15 * exact


def test_limit_difference_examples() -> None:
    iid = iid_chain((0.4, 0.6))
    fi = observable(iid, [1.0, -0.5])
    traj = rclt.sample_trajectory(iid, fi, 20, seed=8)
    limit = rclt.decompose_trajectory(iid, fi, traj).forward_limit
    for k in (1, 5, 20):
        assert limit[k] == pytest.approx(traj.observables[k], abs=1e-13)

    chain = two_state()
    f = observable(chain, [1, -1])
    traj2 = rclt.sample_trajectory(chain, f, 20, seed=8)
    limit2 = rclt.decompose_trajectory(chain, f, traj2).forward_limit
    for k in (1, 9):
        expected = 2.0 * traj2.observables[k] - traj2.observables[k - 1]
        assert limit2[k] == pytest.approx(expected, abs=1e-12)


def test_limit_difference_variance_matches_sigma2() -> None:
    chain = two_state()
    f = observable(chain, [1, -1])
    assert rclt.limit_difference_second_moment(chain, f) == pytest.approx(3.0, abs=1e-12)
    for chain, f in identity_fixture_pairs():
        sigma2 = rclt.asymptotic_variance_spectral(rclt.spectral_measure(chain, f))
        assert abs(rclt.limit_difference_second_moment(chain, f) - sigma2) <= 1e-9


def test_limit_increments_are_pairwise_orthogonal() -> None:
    # E(D_j D_k) = 0 for j < k, summed exactly over the joint law
    for chain, f in identity_fixture_pairs():
        if chain.n_states > 4:
            continue
        w = chain.kernel @ rclt.poisson_solve(chain, f)
        value = f.values + w
        q = chain.kernel
        pi = chain.stationary
        power = np.eye(chain.n_states)
        for gap in range(1, 4):  # k - j - 1 = gap - 1
            mid = power  # Q^{gap-1}
            total = 0.0
            for a in range(chain.n_states):
                for b in range(chain.n_states):
                    d_ab = value[b] - w[a]
                    for c in range(chain.n_states):
                        for d in range(chain.n_states):
                            total += (
                                pi[a] * q[a, b] * mid[b, c] * q[c, d] * d_ab * (value[d] - w[c])
                            )
            assert abs(total) <= 1e-12, f"gap {gap}"
            power = power @ q


def test_l2_convergence_table_examples() -> None:
    iid = iid_chain()
    fi = observable(iid, [1, -1])
    np.testing.assert_allclose(rclt.l2_convergence_table(iid, fi, [1, 5, 50]), 0.0, atol=1e-13)

    chain = two_state()
    f = observable(chain, [1, -1])
    table = rclt.l2_convergence_table(chain, f, [10, 100, 1000])
    assert np.all(np.diff(table) < 0)
    constant = table[0] * 10  # fit C at n = 10, check C/n dominates later entries
    assert table[1] <= constant / 100 + 1e-12
    assert table[2] <= constant / 1000 + 1e-12

    single = rclt.l2_convergence_table(chain, f, [1])
    assert single[0] >= 0.0

    with pytest.raises(ValueError):
        rclt.l2_convergence_table(chain, f, [10, 5])


def test_l2_convergence_decays_to_zero_on_fixtures() -> None:
    for chain, f in identity_fixture_pairs():
        table = rclt.l2_convergence_table(chain, f, [10, 100, 1000])
        assert np.all(np.diff(table) <= 1e-15)
        assert table[-1] <= 1e-3 * max(1.0, table[0])


def test_decompose_iid_pins_index_convention() -> None:
    chain = iid_chain()
    f = observable(chain, [1, -1])
    traj = rclt.sample_trajectory(chain, f, 200, seed=21)
    terms = rclt.decompose_trajectory(chain, f, traj)
    assert terms.max_pair_residual <= 1e-12
    assert terms.max_decomposition_residual <= 1e-12
    # iid: forward martingale is the plain partial sum
    np.testing.assert_allclose(terms.forward_martingale, traj.partial_sums, atol=1e-12)


def test_decompose_flip_chain_degenerates() -> None:
    chain = flip_chain()
    f = observable(chain, [1, -1])
    traj = rclt.sample_trajectory(chain, f, 60, seed=5)
    terms = rclt.decompose_trajectory(chain, f, traj)
    np.testing.assert_allclose(terms.forward_martingale, 0.0, atol=1e-13)
    np.testing.assert_allclose(terms.reversed_martingale, 0.0, atol=1e-13)
    np.testing.assert_allclose(
        2.0 * traj.partial_sums, traj.observables - traj.observables[0], atol=1e-13
    )


def test_decompose_short_two_state_trajectory() -> None:
    chain = two_state()
    f = observable(chain, [1, -1])
    traj = rclt.sample_trajectory(chain, f, 3, seed=77)
    terms = rclt.decompose_trajectory(chain, f, traj, horizon=2)
    assert terms.max_pair_residual <= 1e-12
    assert terms.max_decomposition_residual <= 1e-12
    assert terms.horizon == 2


def test_identities_hold_on_long_paths() -> None:
    # a float64 rounding per martingale summand would grow with the length
    # and break the certified level on several of these 10^5-step paths
    for index, (chain, f) in enumerate(identity_fixture_pairs()):
        traj = rclt.sample_trajectory(chain, f, 10**5, seed=rclt.derive_seed(2031, index))
        terms = rclt.decompose_trajectory(chain, f, traj, horizon=50)
        assert terms.max_pair_residual <= 1e-12
        assert terms.max_decomposition_residual <= 1e-12


def test_decompose_rejects_tiny_trajectories() -> None:
    chain = two_state()
    f = observable(chain, [1, -1])
    traj = rclt.sample_trajectory(chain, f, 1, seed=1)
    with pytest.raises(ValueError):
        rclt.decompose_trajectory(chain, f, traj)


def test_finite_horizon_terms_converge_to_limit_terms() -> None:
    chain = two_state()
    f = observable(chain, [1, -1])
    traj = rclt.sample_trajectory(chain, f, 40, seed=6)
    limit = rclt.decompose_trajectory(chain, f, traj).forward_limit[1:]
    gaps = []
    for n in (2, 16, 128):
        finite = rclt.decompose_trajectory(chain, f, traj, horizon=n).forward_finite[1:]
        gaps.append(np.max(np.abs(finite - limit)))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 0.1


def test_cesaro_prediction_definition() -> None:
    # theta_k = S_k + (phi - f)(state_k), and fwd_k = theta_k - E_{k-1} theta_k
    chain = two_state()
    f = observable(chain, [1, -1])
    traj = rclt.sample_trajectory(chain, f, 25, seed=13)
    horizon = 7
    terms = rclt.decompose_trajectory(chain, f, traj, horizon=horizon)
    phi, pred, _ = _horizon_vectors(chain, f, horizon)
    s = traj.states
    for k in range(1, 26):
        theta_k = terms.cesaro_prediction[k]
        # E_{k-1}(theta_k): previous partial sum, the predicted step, and the
        # averaged predicted corrections one step out
        predicted = traj.partial_sums[k - 1] + pred[s[k - 1]]
        assert theta_k - predicted == pytest.approx(terms.forward_finite[k], abs=1e-12)


def _exact_weights(t: float, n: int) -> tuple[Fraction, Fraction]:
    """c(t) = sum_{j<n} (1 - j/n) t^j and b(t) = (1/n) sum_{j=1}^{n} t^j, exactly."""
    t = Fraction(t)
    if t == 1:
        return Fraction(n + 1, 2), Fraction(1)
    b = t * (1 - t**n) / (n * (1 - t))
    return (1 - b) / (1 - t), b


@pytest.mark.parametrize("n", [1, 2, 3, 50, 2000])
def test_horizon_weights_match_exact_sums(n) -> None:
    # n (1 - t) = 1 splits the series form from the quotient form; probe both
    # sides of it, the top and bottom of the spectrum, and t^n near 1 at t < 0
    near_split = [1.0 - s / n for s in (0.3, 0.5, 0.9, 0.999999, 1.0, 1.000001, 1.1, 2.0, 5.0)]
    lam = np.array(
        near_split
        + [1.0, 1.0 - 1e-9, 1.0 - 1e-6, 0.999, 0.9, 0.5, 0.0, -0.5, -0.9999, -1.0 + 1e-9, -1.0]
    )
    c, b = _horizon_weights(lam, n)
    for t, ci, bi in zip(lam, c, b):
        ce, be = _exact_weights(t, n)
        assert abs(Fraction(ci) - ce) <= 1e-15 * abs(ce), (t, "c")
        assert abs(Fraction(bi) - be) <= 1e-15 * abs(be), (t, "b")


def test_horizon_vectors_match_their_definition() -> None:
    for chain, f in identity_fixture_pairs():
        for n in (1, 2, 5, 40):
            powers = [f.values]
            for _ in range(n):
                powers.append(chain.kernel @ powers[-1])
            phi = sum((1.0 - j / n) * v for j, v in enumerate(powers[:n]))
            drift = sum(powers[1:]) / n
            got_phi, got_pred, got_drift = _horizon_vectors(chain, f, n)
            np.testing.assert_allclose(got_phi, phi, rtol=0, atol=1e-13)
            np.testing.assert_allclose(got_pred, chain.kernel @ phi, rtol=0, atol=1e-13)
            np.testing.assert_allclose(got_drift, drift, rtol=0, atol=1e-13)


def test_pair_identity_holds_at_long_horizons() -> None:
    # a float64 power loop loses ~1e-16 per step and breaks 1e-12 by n = 2e4
    for index, (chain, f) in enumerate(identity_fixture_pairs()):
        traj = rclt.sample_trajectory(chain, f, 300, seed=rclt.derive_seed(4077, index))
        terms = rclt.decompose_trajectory(chain, f, traj, horizon=2 * 10**5)
        assert terms.max_pair_residual <= 1e-12
        assert rclt.martingale_certificate(chain, f, horizon=2 * 10**5) <= 1e-12


def _two_blocks(coupling: float) -> rclt.ReversibleChain:
    """Two dense 20-state blocks joined by weak edges: the gap is ~0.8 * coupling."""
    rng = np.random.default_rng(5)
    w = np.full((40, 40), coupling)
    for lo in (0, 20):
        block = rng.uniform(0.5, 2.0, (20, 20))
        w[lo : lo + 20, lo : lo + 20] = block + block.T
    return rclt.build_random_walk(w)


def test_decompose_a_chain_with_a_tiny_gap() -> None:
    # phi reaches ~1e3 here: the kernel check scales with it, the pair identity does not
    chain = _two_blocks(1.2e-6)
    assert 5e-7 < rclt.spectral_gap(chain) < 2e-6
    raw = np.r_[np.ones(20), -np.ones(20)] + np.random.default_rng(1).normal(size=40)
    f = rclt.project_mean_zero(raw, chain)
    traj = rclt.sample_trajectory(chain, f, 2000, seed=3)
    terms = rclt.decompose_trajectory(chain, f, traj, horizon=2000)
    assert terms.max_pair_residual <= 1e-12
    assert terms.max_decomposition_residual <= 1e-12
    assert np.max(np.abs(_horizon_vectors(chain, f, 2000)[0])) > 500


def test_small_gap_at_a_long_horizon_is_a_numerical_error() -> None:
    """A known limit: past |phi| ~ 1e4 one rounding of phi is ~1e-12, so the absolute gate fails.

    Horizon 2e4 on a gap of ~8e-7 gives a pair residual of ~1.7e-12, which the
    command line turns into exit 3, not into a silently uncertified report.
    """
    chain = _two_blocks(1e-6)
    f = rclt.project_mean_zero(np.r_[np.ones(20), -np.ones(20)], chain)
    traj = rclt.sample_trajectory(chain, f, 2000, seed=3)
    with pytest.raises(rclt.NumericalError, match="pair identity residual"):
        rclt.decompose_trajectory(chain, f, traj, horizon=2 * 10**4)
    assert np.max(np.abs(_horizon_vectors(chain, f, 2 * 10**4)[0])) > 5e3


def test_a_nan_pair_residual_fails_the_identity_gate(monkeypatch) -> None:
    """Only the last slot of the pair residual is undefined; a NaN in another is not skipped."""
    chain = two_state()
    f = observable(chain, [1.0, -1.0])
    traj = _fixed_trajectory(chain, f, [0, 1, 1, 0])

    def nan_drift(*args):
        phi, pred, drift = _horizon_vectors(*args)
        return phi, pred, np.array([np.nan, drift[1]])

    monkeypatch.setattr(rclt.decomposition, "_horizon_vectors", nan_drift)
    with pytest.raises(rclt.NumericalError, match="^pair identity residual nan,"):
        rclt.decompose_trajectory(chain, f, traj, horizon=2)


def test_decompose_checks_the_eigensystem_against_the_kernel() -> None:
    chain, f = identity_fixture_pairs()[-1]
    lam, u = chain._eigensystem
    # turn one eigenvector towards another: still orthonormal, so the pair
    # identity holds, but no longer an eigenvector of the kernel
    turned = u.copy()
    angle = 1e-3
    i, j = 0, 1
    turned[:, i] = np.cos(angle) * u[:, i] + np.sin(angle) * u[:, j]
    turned[:, j] = -np.sin(angle) * u[:, i] + np.cos(angle) * u[:, j]
    broken = rclt.ReversibleChain(kernel=chain.kernel, stationary=chain.stationary)
    broken.__dict__["_eigensystem"] = (lam, turned)
    traj = rclt.sample_trajectory(chain, f, 50, seed=9)
    with pytest.raises(rclt.NumericalError, match="horizon vectors miss the kernel"):
        rclt.decompose_trajectory(broken, f, traj, horizon=20)
    assert rclt.martingale_certificate(broken, f, horizon=20) > 1e-6
    rclt.decompose_trajectory(chain, f, traj, horizon=20)
