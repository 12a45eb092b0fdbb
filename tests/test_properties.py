"""Property tests: one shared pass gives every check the report it gives alone."""
from __future__ import annotations

import numpy as np
import pytest

import rclt
from rclt.limits import run_checks

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
        st.one_of(st.just({"exhaustive": True}), st.fixed_dictionaries({"m": _COUNTS["m"]})),
    ),
}


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_run_checks_reports_equal_one_request_calls(data) -> None:
    chain, f = data.draw(st.sampled_from(_PAIRS), label="chain")
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    order = data.draw(st.lists(st.sampled_from(list(_PARAMS)), min_size=1, max_size=5), label="checks")
    checks = [(check, data.draw(_PARAMS[check], label=check.__name__)) for check in order]
    reports, error = run_checks(chain, f, seed, checks)
    assert error is None
    assert len(reports) == len(checks)
    for (check, params), report in zip(checks, reports):
        alone = check(chain, f, seed=seed, **params)
        assert report.to_dict() == alone.to_dict()
        assert report.failures == alone.failures
        if alone.normalized_sums is None:
            assert report.normalized_sums is None
        else:
            assert np.array_equal(report.normalized_sums, alone.normalized_sums)
