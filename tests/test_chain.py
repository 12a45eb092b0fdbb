from __future__ import annotations

import numpy as np
import pytest

import rclt
from rclt.chain import _gate, _generators, _misses
from rclt.limits import _enumerate_paths

from .fixture_chains import (
    flip_chain,
    identity_fixture_pairs,
    iid_chain,
    observable,
    tiny_fixture_pairs,
    two_state,
)

CERT = 1e-12


def test_build_chain_two_state_stationary() -> None:
    chain = rclt.build_chain([[0.75, 0.25], [0.25, 0.75]])
    np.testing.assert_allclose(chain.stationary, [0.5, 0.5], atol=1e-14)


def test_build_chain_identity_not_irreducible() -> None:
    with pytest.raises(rclt.NotIrreducible):
        rclt.build_chain(np.eye(3))


def test_build_chain_three_cycle_not_reversible() -> None:
    with pytest.raises(rclt.NotReversible):
        rclt.build_chain([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])


def test_build_chain_bad_rows() -> None:
    with pytest.raises(rclt.NotStochastic):
        rclt.build_chain([[0.9, 0.2], [0.25, 0.75]])
    with pytest.raises(rclt.NotStochastic):
        rclt.build_chain([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])


def test_direct_construction_rejects_a_nan_kernel() -> None:
    # the explicit finite and positivity checks stay: they name a NaN before a gate measures it
    with pytest.raises(rclt.NotStochastic):
        rclt.ReversibleChain(kernel=np.full((2, 2), np.nan), stationary=[0.5, 0.5])
    with pytest.raises(rclt.NotIrreducible):
        rclt.ReversibleChain(kernel=[[0.5, 0.5], [0.5, 0.5]], stationary=[np.nan, np.nan])


@pytest.mark.parametrize(
    ("measured", "text"), [(2.0, "2.000e+00"), (np.nan, "nan"), (np.inf, "inf")]
)
def test_the_gate_fails_above_its_tolerance_and_on_nan(measured, text) -> None:
    _gate(1.0, 1.0, rclt.NumericalError, "defect")
    with pytest.raises(rclt.NotReversible) as info:
        _gate(measured, 1.0, rclt.NotReversible, "defect")
    assert str(info.value) == f"defect {text}, above its tolerance 1"


def test_one_verdict_rule_misses_nan_and_infinite_bounds() -> None:
    """A value passes only at most a finite bound: equality passes, NaN or an infinite bound misses."""
    for tolerance in (np.inf, np.nan):
        with pytest.raises(rclt.NotReversible) as info:
            _gate(1.0, tolerance, rclt.NotReversible, "defect")
        assert str(info.value) == f"defect 1.000e+00, above its tolerance {tolerance}"
    checks = [(1.0, 1.0, "equal"), (0.5, 1.0, "below"), (np.nan, 1.0, "nan value"),
              (1.0, np.nan, "nan bound"), (1.0, np.inf, "infinite bound"),
              (np.inf, np.inf, "both infinite"), (-np.inf, np.inf, "below an infinite bound"),
              (2.0, 1.0, "above")]
    assert _misses(checks) == (
        "nan value", "nan bound", "infinite bound", "both infinite", "below an infinite bound",
        "above",
    )
    assert _misses([]) == ()


@pytest.mark.parametrize(
    "proposal", [[[0.5, 0.5], [0.5, np.nan]], [[0.5, np.nan], [0.5, 0.5]]],
    ids=["diagonal", "off-diagonal"],
)
def test_a_nan_proposal_entry_fails_the_symmetry_gate(proposal) -> None:
    """A NaN on the diagonal, which the Metropolis kernel overwrites, is not admitted either."""
    with pytest.raises(rclt.MalformedMatrix, match="^proposal is not symmetric: asymmetry nan,"):
        rclt.build_metropolis([1.0, 1.0], proposal)


def test_direct_construction_rejects_a_scalar_kernel() -> None:
    # a 0-d kernel is one more shape mismatch, not an IndexError
    with pytest.raises(rclt.NotStochastic):
        rclt.ReversibleChain(kernel=1.0, stationary=[1.0])


@pytest.mark.parametrize(
    ("builder", "args"),
    [
        (rclt.build_chain, (np.zeros((0, 0)),)),
        (rclt.build_random_walk, (np.zeros((0, 0)),)),
        (rclt.build_metropolis, (np.zeros(0), np.zeros((0, 0)))),
        (rclt.ReversibleChain, (np.zeros((0, 0)), np.zeros(0))),
    ],
    ids=["kernel", "random_walk", "metropolis", "direct"],
)
def test_builders_reject_a_chain_without_states(builder, args) -> None:
    with pytest.raises(rclt.MalformedMatrix):
        builder(*args)


@pytest.mark.parametrize(
    ("call", "error"),
    [
        (lambda: rclt.build_metropolis([0.5, 0.5], np.full((3, 3), 1 / 3)), rclt.MalformedMatrix),
        (lambda: rclt.build_metropolis([0.5, 0.5], [[0.5, 0.5], [0.4, 0.6]]), rclt.MalformedMatrix),
        (lambda: rclt.build_metropolis([0.5, 0.5], [[0.5, 0.6], [0.6, 0.5]]), rclt.NotStochastic),
        (lambda: rclt.build_metropolis([0.5, 0.5], np.eye(2)), rclt.NotIrreducible),
        (lambda: rclt.build_chain([[1.1, -0.1], [0.5, 0.5]]), rclt.NotStochastic),
        (
            lambda: rclt.ReversibleChain(kernel=[[0.8, 0.3], [0.3, 0.8]], stationary=[0.5, 0.5]),
            rclt.NotStochastic,
        ),
        (
            lambda: rclt.ReversibleChain(kernel=[[0.5, 0.5], [0.25, 0.75]], stationary=[0.5, 0.5]),
            rclt.NotReversible,
        ),
    ],
    ids=[
        "metropolis-proposal-shape",
        "metropolis-proposal-asymmetric",
        "metropolis-proposal-not-stochastic",
        "metropolis-identity-proposal",
        "kernel-negative-entry",
        "direct-rows-off",
        "direct-detailed-balance-off",
    ],
)
def test_inadmissible_chains_raise_typed_errors(call, error) -> None:
    with pytest.raises(error):
        call()


def test_random_walk_complete_graph() -> None:
    chain = rclt.build_random_walk(1.0 - np.eye(3))
    np.testing.assert_allclose(chain.kernel, [[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]], atol=1e-15)
    np.testing.assert_allclose(chain.stationary, np.full(3, 1 / 3), atol=1e-15)


def test_random_walk_single_edge_is_flip() -> None:
    chain = rclt.build_random_walk([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(chain.kernel, [[0, 1], [1, 0]], atol=0)
    np.testing.assert_allclose(chain.stationary, [0.5, 0.5], atol=0)


def test_random_walk_star_graph_degrees() -> None:
    w = np.zeros((4, 4))
    w[0, 1:] = 1.0
    w[1:, 0] = 1.0
    chain = rclt.build_random_walk(w)
    np.testing.assert_allclose(chain.stationary, [1 / 2, 1 / 6, 1 / 6, 1 / 6], atol=1e-15)


def test_random_walk_errors() -> None:
    with pytest.raises(rclt.NegativeWeight):
        rclt.build_random_walk([[0.0, -1.0], [-1.0, 0.0]])
    disconnected = np.zeros((4, 4))
    disconnected[0, 1] = disconnected[1, 0] = 1.0
    disconnected[2, 3] = disconnected[3, 2] = 1.0
    with pytest.raises(rclt.Disconnected):
        rclt.build_random_walk(disconnected)
    lonely = np.zeros((3, 3))
    lonely[0, 1] = lonely[1, 0] = 1.0
    with pytest.raises(rclt.Disconnected):
        rclt.build_random_walk(lonely)


def test_metropolis_uniform_target_keeps_proposal() -> None:
    proposal = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    chain = rclt.build_metropolis([1 / 3, 1 / 3, 1 / 3], proposal)
    np.testing.assert_allclose(chain.kernel, proposal, atol=1e-15)


def test_metropolis_two_thirds_target() -> None:
    chain = rclt.build_metropolis([2 / 3, 1 / 3], [[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(chain.kernel, [[0.5, 0.5], [1.0, 0.0]], atol=1e-15)
    np.testing.assert_allclose(chain.stationary, [2 / 3, 1 / 3], atol=1e-15)


def test_metropolis_zero_target_mass() -> None:
    with pytest.raises(rclt.ZeroTargetMass):
        rclt.build_metropolis([0.5, 0.5, 0.0], np.full((3, 3), 1 / 3))


def test_metropolis_full_acceptance_row_rounding() -> None:
    # the lowest-target state accepts every move; its proposal row sums to
    # 1 + 2.2e-16, so 1 - rowsum rounds below zero and is held at zero
    a, b = 0.1, 0.3
    c = 1 - a - b
    proposal = [[0, a, b, c], [a, 0, c, b], [b, c, 0, a], [c, b, a, 0]]
    chain = rclt.build_metropolis([2, 3, 1, 4], proposal)
    assert chain.kernel[2, 2] == 0.0
    np.testing.assert_allclose(chain.stationary, [0.2, 0.3, 0.1, 0.4], atol=1e-15)
    assert chain.detailed_balance_residual() <= CERT


@pytest.mark.parametrize(
    ("make", "values"),
    [
        (lambda v: rclt.Observable(values=v).values, [2**70, -(2**70)]),
        (lambda v: rclt.Observable(values=v).values, [2**64, 0.5]),
        (lambda v: rclt.Observable(values=v).values, [10**20, -(10**20)]),
        (lambda v: rclt.Observable(values=np.array(v, np.longdouble)).values, [0.25, -0.25]),
        (lambda v: rclt.build_random_walk([v, v]).kernel, [10**20, 10**20]),
        (lambda v: rclt.project_mean_zero(v, rclt.build_chain([[0.5, 0.5], [0.5, 0.5]])).values,
         [2**64, -(2**64)]),
    ],
    ids=["observable-2^70", "observable-2^64-beside-float", "observable-10^20",
         "observable-longdouble", "random-walk-10^20-weights", "project-2^64"],
)
def test_integers_past_int64_are_numbers(make, values) -> None:
    """An integer within the float range is a number however large, as is a long double."""
    out = make(values)
    assert out.dtype == float and np.all(np.isfinite(out))


@pytest.mark.parametrize(
    ("make", "expected"),
    [
        (lambda: rclt.build_random_walk([[0, 1], [1, 0]]).kernel, [[0.0, 1.0], [1.0, 0.0]]),
        (lambda: rclt.build_chain([[0.5, 0.5], [1.0, 0.0]]).kernel, [[0.5, 0.5], [1.0, 0.0]]),
        (lambda: rclt.Observable([1, -1]).values, [1.0, -1.0]),
        (lambda: rclt.Observable([np.int64(1), 0.0, -1.0]).values, [1.0, 0.0, -1.0]),
        (lambda: rclt.Trajectory([0, 1], [0.0] * 2, [0.0] * 2, 1).states, [0, 1]),
    ],
    ids=["random-walk-integer-0-1", "kernel-float-0-1", "observable-integer-1",
         "observable-numpy-integer-1", "trajectory-states-0-1"],
)
def test_zeros_and_ones_typed_as_numbers_are_numbers(make, expected) -> None:
    """A 0 or 1 that is an integer or float, not a boolean, is read as the number it is."""
    assert make().tolist() == expected


def test_project_mean_zero_examples() -> None:
    chain = two_state()
    np.testing.assert_allclose(rclt.project_mean_zero([1, -1], chain).values, [1, -1], atol=0)
    np.testing.assert_allclose(rclt.project_mean_zero([1, 0], chain).values, [0.5, -0.5], atol=0)
    np.testing.assert_allclose(rclt.project_mean_zero([1, 1], chain).values, [0, 0], atol=0)


def test_projected_observables_are_centered_everywhere() -> None:
    for chain, f in identity_fixture_pairs():
        assert abs(float(np.dot(chain.stationary, f.values))) <= CERT


def test_certified_invariants_on_all_fixtures() -> None:
    for chain, _ in identity_fixture_pairs() + tiny_fixture_pairs():
        assert chain.detailed_balance_residual() <= CERT
        assert np.max(np.abs(chain.kernel.sum(axis=1) - 1.0)) <= CERT
        assert np.max(np.abs(chain.stationary @ chain.kernel - chain.stationary)) <= CERT


def test_admission_projects_noisy_reversible_kernel() -> None:
    rng = np.random.default_rng(5)
    chain = two_state(0.3, 0.1)
    noisy = chain.kernel + rng.uniform(-1e-11, 1e-11, size=(2, 2))
    rebuilt = rclt.build_chain(noisy)
    assert rebuilt.detailed_balance_residual() <= CERT
    np.testing.assert_allclose(rebuilt.kernel, chain.kernel, atol=1e-10)


def test_sample_trajectory_invalid_length() -> None:
    chain = two_state()
    f = observable(chain, [1, -1])
    with pytest.raises(rclt.InvalidArgument):
        rclt.sample_trajectory(chain, f, 0, seed=1)


def test_flip_chain_paths_alternate() -> None:
    chain = flip_chain()
    f = observable(chain, [1, -1])
    traj = rclt.sample_trajectory(chain, f, 100, seed=11)
    diffs = np.abs(np.diff(traj.states))
    assert np.all(diffs == 1)


def test_sampling_is_reproducible() -> None:
    chain = two_state()
    f = observable(chain, [1, -1])
    a = rclt.sample_trajectory(chain, f, 500, seed=314)
    b = rclt.sample_trajectory(chain, f, 500, seed=314)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.partial_sums, b.partial_sums)
    c = rclt.sample_trajectory(chain, f, 500, seed=315)
    assert not np.array_equal(a.states, c.states)


def test_trajectory_observables_and_partial_sums_consistent() -> None:
    chain = two_state()
    f = observable(chain, [1.3, -0.7])
    traj = rclt.sample_trajectory(chain, f, 2000, seed=9)
    np.testing.assert_array_equal(traj.observables, f.values[traj.states])
    increments = np.diff(traj.partial_sums)
    np.testing.assert_allclose(increments, traj.observables[1:], atol=1e-12)
    assert traj.partial_sums[0] == 0.0


def test_empirical_frequencies_match_stationary() -> None:
    chain = rclt.build_metropolis([0.5, 0.3, 0.2], [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    f = observable(chain, [1.0, 0.0, -1.0])
    n = 10**6
    traj = rclt.sample_trajectory(chain, f, n, seed=2718)
    counts = np.bincount(traj.states, minlength=3) / (n + 1)
    for i, pi_i in enumerate(chain.stationary):
        se = np.sqrt(pi_i * (1 - pi_i) / n)
        # dependent samples: binomial standard error inflated by the mixing factor
        assert abs(counts[i] - pi_i) <= 3.0 * se * 3.0


def test_path_probabilities_are_reversal_invariant() -> None:
    for chain, _ in tiny_fixture_pairs():
        if chain.n_states > 3:
            continue
        for length in (2, 5):
            paths, prob = _enumerate_paths(chain, length)
            flipped = paths[:, ::-1]
            prob_rev = chain.stationary[flipped[:, 0]].copy()
            for t in range(length):
                prob_rev *= chain.kernel[flipped[:, t], flipped[:, t + 1]]
            np.testing.assert_allclose(np.sort(prob), np.sort(prob_rev), atol=1e-15)
            # stronger: the reversal of each individual path has equal probability
            np.testing.assert_allclose(prob, prob_rev, atol=1e-15)


def test_derive_seed_is_deterministic_and_spread() -> None:
    a = rclt.derive_seed(123, 0)
    b = rclt.derive_seed(123, 0)
    c = rclt.derive_seed(123, 1)
    d = rclt.derive_seed(124, 0)
    assert a == b
    assert len({a, c, d}) == 3


@pytest.mark.parametrize(
    "args",
    [(1, -1), (-1, 0), (None, 0), (1.5, 2), (True, 0), (1, 2.0), (1, np.array([0.0, 1.5]))],
)
def test_derive_seed_rejects_negative_or_missing_entries(args) -> None:
    with pytest.raises(rclt.InvalidArgument):
        rclt.derive_seed(*args)


# each side of 2^32, where SeedSequence reads an entry as one word or two, and past 2^64
_WORD_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


@pytest.mark.parametrize("master", _WORD_EDGES + [2**100])
def test_derive_seed_is_numpys_seed_sequence(master) -> None:
    """Both forms give SeedSequence([master, index])'s first uint64, past the 4-word pool too."""
    indices = [0, 1, 2**32 - 1, 2**32]
    expected = [
        int(np.random.SeedSequence([master, r]).generate_state(1, np.uint64)[0]) for r in indices
    ]
    seeds = rclt.derive_seed(master, np.array(indices))
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == expected
    assert [rclt.derive_seed(master, r) for r in indices] == expected


def test_bulk_generators_draw_default_rng_streams() -> None:
    seeds = np.array(_WORD_EDGES, dtype=np.uint64)
    for rng, seed in zip(_generators(seeds), _WORD_EDGES):
        assert np.array_equal(rng.random(300), np.random.default_rng(seed).random(300))


def test_stationary_start_uses_first_uniform() -> None:
    chain = iid_chain((0.9, 0.1))
    f = observable(chain, [1.0, -1.0])
    states = [rclt.sample_trajectory(chain, f, 1, seed=s).states[0] for s in range(400)]
    share = np.mean(np.asarray(states) == 0)
    assert abs(share - 0.9) < 0.05
