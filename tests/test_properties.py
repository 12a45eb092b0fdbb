"""Property tests: one shared pass gives every check the report it gives alone,
``validate`` judges a config as ``run`` does, bulk seeds are numpy's, random
chains are admitted with their certificates or rejected with their documented error,
and junk in any one argument of a public function or value type ends in an ``RcltError``
or nothing."""
from __future__ import annotations

import contextlib
import inspect
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

import rclt
from rclt.cli import main
from rclt.limits import _CltReader, _FcltReader, _MaximalReader, _one_pass, _UiReader
from rclt.spectral import _Exact

from .fixture_chains import mixing_fixture_pairs

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_PAIRS = mixing_fixture_pairs()
_COUNTS = {"n": st.integers(1, 12), "m": st.integers(1, 24)}
_LEVELS = st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3)
_PARAMS = {
    rclt.clt_test: st.fixed_dictionaries({**_COUNTS, "ks_threshold": st.floats(0.0, 1.0)}),
    rclt.fclt_profile: st.fixed_dictionaries(
        {**_COUNTS, "grid": st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)}
    ),
    rclt.uniform_integrability_diagnostic: st.fixed_dictionaries(
        {
            "n_list": st.lists(st.integers(1, 12), min_size=1, max_size=3, unique=True).map(sorted),
            "epsilon_grid": _LEVELS,
            "m": _COUNTS["m"],
        }
    ),
    rclt.maximal_inequality_check: st.builds(
        lambda common, mode: {**common, **mode},
        st.fixed_dictionaries(
            {"n": st.integers(1, 4), "lambdas": _LEVELS, "two_sided": st.booleans(),
             "mode": st.sampled_from(["forward", "reversed"])}
        ),
        st.one_of(
            st.just({"exhaustive": True, "m": None}),
            st.fixed_dictionaries({"exhaustive": st.just(False), "m": _COUNTS["m"]}),
        ),
    ),
}
#: the reader class behind each public check
_READER_TYPES = {
    rclt.clt_test: _CltReader,
    rclt.fclt_profile: _FcltReader,
    rclt.uniform_integrability_diagnostic: _UiReader,
    rclt.maximal_inequality_check: _MaximalReader,
}


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_one_pass_reports_equal_one_request_calls(data) -> None:
    chain, f = data.draw(st.sampled_from(_PAIRS), label="chain")
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    order = data.draw(st.lists(st.sampled_from(list(_PARAMS)), min_size=1, max_size=5), label="checks")
    checks = [(check, data.draw(_PARAMS[check], label=check.__name__)) for check in order]
    exact = _Exact(chain, f)
    readers = [_READER_TYPES[check](exact, seed=seed, **params) for check, params in checks]
    _one_pass(exact, seed, readers)
    reports = [reader.report() for reader in readers]
    assert len(reports) == len(checks)
    for (check, params), report in zip(checks, reports):
        alone = check(chain, f, seed=seed, **params)
        assert report.to_dict() == alone.to_dict()
        assert report.failures == alone.failures
        if alone.normalized_sums is None:
            assert report.normalized_sums is None
        else:
            assert np.array_equal(report.normalized_sums, alone.normalized_sums)


#: chains whose file observable is centered, so neither command prints a centering note
_CHAINS = [
    {"kind": "kernel", "matrix": [[0.75, 0.25], [0.25, 0.75]], "observable": [1.0, -1.0]},
    {"kind": "random_walk", "matrix": [[2, 1, 1], [1, 1, 3], [1, 3, 4]], "observable": [5.0, -4.0, 0.0]},
    {"kind": "kernel", "matrix": [[0.0, 1.0], [1.0, 0.0]], "observable": [1.0, -1.0]},
]
_SMALL = {"n": st.integers(1, 8), "m": st.integers(1, 12)}
_COMMAND_PARAMS = {
    "spectrum": st.just({}),
    "variance": st.fixed_dictionaries({"n_max": st.integers(1, 20)}),
    "decompose": st.fixed_dictionaries(
        {"length": st.integers(2, 20), "horizon": st.none() | st.integers(1, 20),
         "seed_index": st.integers(0, 3)}
    ),
    "clt": st.fixed_dictionaries({**_SMALL, "ks_threshold": st.just(1.0)}),
    "maximal": st.fixed_dictionaries({"n": st.integers(1, 3), "lambdas": _LEVELS}),
    "ui-diagnostic": st.fixed_dictionaries(
        {"n_list": st.lists(st.integers(1, 8), min_size=1, max_size=2, unique=True).map(sorted),
         "epsilon_grid": _LEVELS, "m": _SMALL["m"]}
    ),
    "fclt": st.fixed_dictionaries({**_SMALL, "grid": st.just([0.5, 1.0])}),
}
#: a few replicas can miss fclt's 3-SE comparisons (exit 4, which validate cannot see),
#: so fclt only enters with a bad grid
_DRAWN = [name for name in _COMMAND_PARAMS if name != "fclt"]
#: one parameter each that the config loader admits and the command rejects
_BAD = [
    ("variance", {"n_max": 0}),
    ("decompose", {"horizon": 0}),
    ("decompose", {"length": 1}),
    ("decompose", {"seed_index": -1}),
    ("clt", {"n": 0}),
    ("clt", {"m": 0}),
    ("maximal", {"n": 0}),
    ("maximal", {"mode": "sideways"}),
    ("ui-diagnostic", {"n_list": [3, 2]}),
    ("ui-diagnostic", {"m": 0}),
    ("fclt", {"grid": [0.5, 2.0]}),
]


def _main(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_validate_judges_a_config_as_run_does(data) -> None:
    """Both commands give one exit code and stderr line, and a failed run keeps no report."""
    names = data.draw(st.lists(st.sampled_from(_DRAWN), min_size=1, max_size=4))
    commands = [{"command": name, "params": data.draw(_COMMAND_PARAMS[name])} for name in names]
    bad = data.draw(st.none() | st.sampled_from(_BAD), label="bad")
    if bad is not None:
        name, wrong = bad
        at = data.draw(st.integers(0, len(commands) - 1), label="at")
        commands[at] = {"command": name, "params": {**data.draw(_COMMAND_PARAMS[name]), **wrong}}
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        (base / "chain.json").write_text(json.dumps(data.draw(st.sampled_from(_CHAINS), label="chain")))
        outputs = st.sampled_from(["out", "chain.json", "chain.json/out"])
        output_dir = data.draw(outputs, label="output_dir")
        config = {"chain_spec": "chain.json", "commands": commands, "master_seed": 7,
                  "output_dir": output_dir}
        (base / "config.json").write_text(json.dumps(config))
        argv = ["--config", str(base / "config.json")]
        validated, ran = _main(["validate", *argv]), _main(["run", *argv])
        assert validated == ran
        assert ran[0] == 2 or output_dir == "out"
        if ran[0] != 0:
            assert not any((base / "out").glob("*"))


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    master=st.integers(0, 2**130),
    indices=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5),
)
def test_derive_seed_matches_seed_sequence(master, indices) -> None:
    expected = [
        int(np.random.SeedSequence([master, r]).generate_state(1, np.uint64)[0]) for r in indices
    ]
    assert rclt.derive_seed(master, np.array(indices, dtype=np.uint64)).tolist() == expected
    assert rclt.derive_seed(master, indices[0]) == expected[0]


def _graph_weights(rng, size: int) -> np.ndarray:
    """Symmetric random weights with loops, kept connected by a ring of positive weights."""
    w = rng.uniform(0.0, 2.0, (size, size)) * (rng.random((size, size)) < rng.uniform(0.1, 1.0))
    w += np.roll(np.eye(size), 1, axis=1) * rng.uniform(0.1, 1.0, size)
    return w + w.T


def _metropolis_inputs(rng, size: int) -> tuple[np.ndarray, np.ndarray]:
    """A positive target and a symmetric stochastic proposal: a ring move mixed with a uniform one."""
    shift = np.roll(np.eye(size), 1, axis=1)
    mix = rng.uniform(0.0, 1.0)
    return rng.uniform(0.05, 5.0, size), 0.5 * mix * (shift + shift.T) + (1.0 - mix) / size


def _two_block_weights(rng, size: int, coupling: float) -> np.ndarray:
    """Two dense blocks of the states joined only by edges of weight ``coupling``."""
    side = np.arange(size) < size // 2
    a = rng.uniform(0.5, 2.0, (size, size))
    return np.where(side[:, None] == side[None, :], a + a.T, coupling)


def _random_chain(family: str, rng, size: int, coupling: float) -> rclt.ReversibleChain:
    if family == "graph":
        return rclt.build_random_walk(_graph_weights(rng, size))
    if family == "metropolis":
        return rclt.build_metropolis(*_metropolis_inputs(rng, size))
    return rclt.build_random_walk(_two_block_weights(rng, size, coupling))


_RANDOM_CHAINS = {
    "family": st.sampled_from(["graph", "metropolis", "two-block"]),
    "size": st.integers(2, 50),
    "seed": st.integers(0, 2**32 - 1),
    "coupling": st.floats(-6.0, -1.0).map(lambda e: 10.0**e),
}


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(**_RANDOM_CHAINS)
def test_random_chains_are_admitted_with_their_certificates(family, size, seed, coupling) -> None:
    """Certified invariants always; with an absolute gap >= 0.1 also the three sigma^2 routes
    and both identities along a path."""
    rng = np.random.default_rng(seed)
    chain = _random_chain(family, rng, size, coupling)
    assert np.max(np.abs(chain.kernel.sum(axis=1) - 1.0)) <= 1e-12
    assert chain.detailed_balance_residual() <= 1e-12
    assert np.all(chain.stationary > 0.0)
    if rclt.spectral_gap(chain, absolute=True) < 0.1:
        return
    f = rclt.project_mean_zero(rng.normal(size=size), chain)
    report = rclt.variance_report(chain, f, n_max=600)
    sigma2 = report.sigma2_spectral
    assert abs(report.sigma2_poisson - sigma2) <= 1e-8 * sigma2
    assert abs(report.sigma2_series - sigma2) <= 1e-8 * sigma2
    terms = rclt.decompose_trajectory(chain, f, rclt.sample_trajectory(chain, f, 200, seed))
    assert terms.max_pair_residual <= 1e-12
    assert terms.max_decomposition_residual <= 1e-12


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(**{**_RANDOM_CHAINS, "size": st.integers(3, 50)})
def test_perturbed_random_inputs_raise_their_documented_errors(family, size, seed, coupling) -> None:
    rng = np.random.default_rng(seed)
    i, j = rng.choice(size, 2, replace=False)
    w = _graph_weights(rng, size)
    skewed = w.copy()
    skewed[i, j] += 1e-6
    with pytest.raises(rclt.MalformedMatrix, match="symmetric"):
        rclt.build_random_walk(skewed)
    w[i, j] = w[j, i] = -rng.uniform(1e-6, 1.0)
    with pytest.raises(rclt.NegativeWeight):
        rclt.build_random_walk(w)
    target, proposal = _metropolis_inputs(rng, size)
    target[i] = 0.0
    with pytest.raises(rclt.ZeroTargetMass):
        rclt.build_metropolis(target, proposal)
    # a drift around the ring: every ring cycle is likelier forwards than backwards
    shift = np.roll(np.eye(size), 1, axis=1)
    with pytest.raises(rclt.NotReversible):
        rclt.build_chain(0.5 * _random_chain(family, rng, size, coupling).kernel + 0.5 * shift)


_KERNEL = [[0.75, 0.25], [0.25, 0.75]]
_CHAIN = rclt.build_chain(_KERNEL)
_PAIR = {"chain": _CHAIN, "f": rclt.project_mean_zero([1.0, -1.0], _CHAIN)}
_RHO = rclt.spectral_measure(**_PAIR)
_PATH = rclt.sample_trajectory(**_PAIR, length=6, seed=1)
#: one small valid call of each public function of rclt, every argument named:
#: two states, at most 10 steps and at most 10 replicas
_VALID_CALLS = {
    rclt.asymptotic_variance_poisson: _PAIR,
    rclt.asymptotic_variance_series: {"rho": _RHO, "n_max": 10},
    rclt.asymptotic_variance_spectral: {"rho": _RHO},
    rclt.boundary_l2_norm: {"rho": _RHO, "n": 4, "k": 1},
    rclt.boundary_term: {**_PAIR, "traj": _PATH, "k": 1, "n": 3},
    rclt.build_chain: {"kernel": _KERNEL},
    rclt.build_metropolis: {"target": [1.0, 2.0], "proposal": [[0.5, 0.5], [0.5, 0.5]]},
    rclt.build_random_walk: {"weights": [[1.0, 2.0], [2.0, 1.0]]},
    rclt.cauchy_quantity: {"rho": _RHO, "n": 1, "p": 3},
    rclt.clt_test: {**_PAIR, "n": 10, "m": 10, "seed": 1, "ks_threshold": 1.0},
    rclt.decompose_trajectory: {**_PAIR, "traj": _PATH, "horizon": 3},
    rclt.derive_seed: {"master_seed": 1, "index": 2},
    rclt.dkw_epsilon: {"m": 10, "alpha": 0.05},
    rclt.extrapolate_series_limit: {"var_over_n": [1.0, 2.0, 3.0]},
    rclt.fclt_profile: {**_PAIR, "n": 10, "m": 10, "grid": [0.5, 1.0], "seed": 1},
    rclt.finiteness_integral: {"rho": _RHO},
    rclt.ks_distance_to_normal: {"sample": [0.1, -0.2, 0.3]},
    rclt.l2_convergence_table: {**_PAIR, "horizons": [1, 2]},
    rclt.limit_difference_second_moment: _PAIR,
    rclt.martingale_certificate: {**_PAIR, "horizon": 3},
    rclt.maximal_inequality_check: {
        **_PAIR, "n": 3, "lambdas": [0.0, 0.5], "mode": "reversed", "exhaustive": False,
        "m": 10, "seed": 1, "two_sided": True,
    },
    rclt.moment: {"rho": _RHO, "k": 2},
    rclt.poisson_solve: _PAIR,
    rclt.project_mean_zero: {"raw": [1.0, 0.0], "chain": _CHAIN},
    rclt.sample_trajectory: {**_PAIR, "length": 5, "seed": 1},
    rclt.spectral_gap: {"chain": _CHAIN, "absolute": True},
    rclt.spectral_measure: _PAIR,
    rclt.uniform_integrability_diagnostic: {
        **_PAIR, "n_list": [2, 5], "epsilon_grid": [1.0], "seed": 1, "m": 10,
    },
    rclt.variance_report: {**_PAIR, "n_max": 10},
}
#: one valid construction of each value type of rclt, every field named
_VALID_VALUES = {
    rclt.ReversibleChain: {"kernel": _CHAIN.kernel, "stationary": _CHAIN.stationary},
    rclt.Observable: {"values": [1.0, -1.0]},
    rclt.SpectralMeasure: {"lambdas": [0.5], "weights": [1.0]},
    rclt.Trajectory: {
        "states": [0, 1], "observables": [1.0, -1.0], "partial_sums": [0.0, -1.0], "seed": 1,
    },
}
#: values of every wrong kind; none is a count that passes the size ceiling,
#: so no junk call allocates or steps much
_JUNK = [None, True, -1, 2.5, 10**400, float("nan"), float("inf"), "1", [], [[1.0]], object()]


def test_every_public_function_has_a_valid_call() -> None:
    functions = {v for n, v in vars(rclt).items() if not n.startswith("_") and inspect.isfunction(v)}
    assert set(_VALID_CALLS) == functions
    for function, call in _VALID_CALLS.items():
        assert list(call) == list(inspect.signature(function).parameters), function.__name__
        function(**call)


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    function=st.sampled_from([*_VALID_CALLS, *_VALID_VALUES]), junk=st.sampled_from(_JUNK)
)
def test_junk_in_one_argument_returns_or_raises_an_rclt_error(function, junk) -> None:
    """Each argument of a valid call in turn is replaced by ``junk``; nothing but an RcltError escapes.

    A value type's call is its constructor, so each of its fields takes the junk in turn.
    """
    call = {**_VALID_CALLS, **_VALID_VALUES}[function]
    for name in call:
        try:
            function(**{**call, name: junk})
        except rclt.RcltError:
            pass
