"""Acceptance battery: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated at runtime.
"""
from __future__ import annotations

import json

import numpy as np
import pytest

import rclt
from rclt.cli import load_config, run

from .fixture_chains import (
    flip_chain,
    identity_fixture_pairs,
    mixing_fixture_pairs,
    observable,
    random_pairs,
    tiny_fixture_pairs,
    two_state,
)
from .oracles import cauchy_quantity_direct

MASTER_SEED = 20240611


def _report(criterion: int, message: str) -> None:
    print(f"[acceptance] criterion {criterion:2d}: PASS  {message}")


@pytest.fixture(scope="module")
def random_fifty():
    return random_pairs(50, master_seed=777, max_states=8, min_gap=0.1)


@pytest.fixture(scope="module")
def identity_ten():
    return identity_fixture_pairs()


def test_criterion_01_variance_linearity(random_fifty) -> None:
    n = 10_000
    worst = 0.0
    for chain, f in random_fifty:
        assert chain.n_states <= 8
        assert rclt.spectral_gap(chain, absolute=True) >= 0.1
        rho = rclt.spectral_measure(chain, f)
        sigma2 = rclt.asymptotic_variance_spectral(rho)
        series = rclt.asymptotic_variance_series(rho, n)
        env = float(np.max(1.0 / (1.0 - rho.lambdas)))
        bound = 20.0 * sigma2 * env / n
        gap = abs(series[-1] - sigma2)
        assert gap <= bound, (gap, bound)
        worst = max(worst, gap / bound)
    _report(1, f"50 chains, |Var(S_n)/n - sigma2| within bound (worst ratio {worst:.3f})")


def test_criterion_02_three_way_sigma2(random_fifty) -> None:
    worst = 0.0
    for chain, f in random_fifty:
        report = rclt.variance_report(chain, f, n_max=600)
        scale = abs(report.sigma2_spectral)
        for a, b in (
            (report.sigma2_spectral, report.sigma2_poisson),
            (report.sigma2_spectral, report.sigma2_series),
            (report.sigma2_poisson, report.sigma2_series),
        ):
            rel = abs(a - b) / scale
            assert rel <= 1e-8, (a, b)
            worst = max(worst, rel)
    chain = two_state()
    f = observable(chain, [1.0, -1.0])
    hand = rclt.variance_report(chain, f, n_max=600)
    assert abs(hand.sigma2_spectral - 3.0) <= 1e-12
    assert abs(hand.sigma2_poisson - 3.0) <= 1e-12
    assert abs(hand.sigma2_series - 3.0) <= 1e-12
    _report(2, f"pairwise relative gap <= 1e-8 (worst {worst:.2e}); hand value 3.0 to 1e-12")


def test_criterion_03_identities_along_trajectories(identity_ten) -> None:
    length = 1_000
    worst_pair = 0.0
    worst_dec = 0.0
    trajectories = 0
    for c_idx, (chain, f) in enumerate(identity_ten):
        for rep in range(10):
            seed = rclt.derive_seed(MASTER_SEED, 1000 * c_idx + rep)
            traj = rclt.sample_trajectory(chain, f, length, seed)
            terms = rclt.decompose_trajectory(chain, f, traj)
            worst_pair = max(worst_pair, terms.max_pair_residual)
            worst_dec = max(worst_dec, terms.max_decomposition_residual)
            trajectories += 1
    assert trajectories == 100
    assert worst_pair <= 1e-12
    assert worst_dec <= 1e-12
    _report(
        3,
        f"100 trajectories x {length} steps: pair residual {worst_pair:.2e}, "
        f"prefix residual {worst_dec:.2e}",
    )


def test_criterion_04_martingale_certificates(identity_ten) -> None:
    worst_cert = 0.0
    worst_var = 0.0
    for chain, f in identity_ten:
        cert_limit = rclt.martingale_certificate(chain, f)
        cert_finite = max(
            rclt.martingale_certificate(chain, f, horizon=n) for n in (1, 3, 10, 100)
        )
        assert cert_limit <= 1e-12
        assert cert_finite <= 1e-12
        sigma2 = rclt.asymptotic_variance_spectral(rclt.spectral_measure(chain, f))
        gap = abs(rclt.limit_difference_second_moment(chain, f) - sigma2)
        assert gap <= 1e-9
        worst_cert = max(worst_cert, cert_limit, cert_finite)
        worst_var = max(worst_var, gap)
    _report(4, f"certificates <= {worst_cert:.2e}; |E(D^2) - sigma2| <= {worst_var:.2e}")


def test_criterion_05_prediction_gap_oracle(identity_ten) -> None:
    worst = 0.0
    for chain, f in identity_ten:
        rho = rclt.spectral_measure(chain, f)
        lam, w = rho.lambdas, rho.weights
        for n in range(1, 12):
            for p in range(n + 1, 13):
                closed = rclt.cauchy_quantity(rho, n, p)
                direct = cauchy_quantity_direct(chain, f, n, p)
                assert abs(closed - direct) <= 1e-10, (n, p)
                worst = max(worst, abs(closed - direct))
                m = p - n + 1
                lhs_atoms = w * lam ** (2 * n - 2) * (1 - lam**m) ** 2 * (1 + lam) / (1 - lam)
                rhs_atoms = 8.0 * w * lam ** (2 * n - 2) / (1 - lam)
                assert np.all(lhs_atoms <= rhs_atoms + 1e-15)
    _report(5, f"closed form vs direct on all 1<=n<p<=12, 10 chains (worst {worst:.2e})")


def test_criterion_06_boundary_variance_bound(identity_ten) -> None:
    worst_ratio = 0.0
    for chain, f in identity_ten[:5]:
        rho = rclt.spectral_measure(chain, f)
        envelope = 2.0 * rclt.finiteness_integral(rho)
        for n in (10, 100, 1_000, 10_000):
            bound = envelope / n
            for k in range(n + 1):
                var = rclt.boundary_l2_norm(rho, n, k)
                assert var <= bound + 1e-15, (n, k)
                worst_ratio = max(worst_ratio, var / bound)
    _report(6, f"Var(boundary) <= 2 * finiteness / n for n up to 1e4, all k (worst ratio {worst_ratio:.3f})")


def test_criterion_07_maximal_inequality_exhaustive() -> None:
    lambdas = [0.0, 0.5, 1.0]
    checked = 0
    for chain, f in tiny_fixture_pairs():
        assert chain.n_states <= 3
        for n in range(1, 7):
            for mode in ("forward", "reversed"):
                report = rclt.maximal_inequality_check(
                    chain, f, n=n, lambdas=lambdas, mode=mode, exhaustive=True
                )
                assert report.exact
                for entry in report.maximal_margins:
                    assert entry["lhs"] <= entry["rhs"] + 1e-12, (n, mode, entry)
                    checked += 1
                assert report.passed, report.failures
    _report(7, f"exact enumeration: {checked} (chain, n, mode, lambda) cases, zero slack")


def test_criterion_08_normal_limit() -> None:
    for i, (chain, f) in enumerate(mixing_fixture_pairs()):
        report = rclt.clt_test(chain, f, n=2_000, m=10_000, seed=MASTER_SEED + i)
        assert report.ks_statistic <= 0.02, report.ks_statistic
        assert report.passed, report.failures
    with pytest.raises(rclt.DegenerateVariance):
        chain = flip_chain()
        rclt.clt_test(chain, observable(chain, [1.0, -1.0]), n=2_000, m=100, seed=MASTER_SEED)
    _report(8, "KS <= 0.02 at n=2000, m=10^4 on mixing chains; flip chain rejected")


def test_criterion_09_brownian_profile() -> None:
    worst = 0.0
    for i, (chain, f) in enumerate(mixing_fixture_pairs()):
        report = rclt.fclt_profile(
            chain, f, n=4_000, m=10_000, grid=[0.25, 0.5, 0.75, 1.0], seed=MASTER_SEED + 100 + i
        )
        sigma2 = report.sigma2_used
        for t, var, se in report.variance_profile:
            z = abs(var - sigma2 * t) / se
            assert z <= 3.0, (t, var, z)
            worst = max(worst, z)
        for s, t, cov, se in report.covariance_profile:
            z = abs(cov - sigma2 * min(s, t)) / se
            assert z <= 3.0, (s, t, cov, z)
            worst = max(worst, z)
        assert report.passed, report.failures
    _report(9, f"variance and covariance profiles within 3 SE (worst z = {worst:.2f})")


def test_criterion_10_reproducibility(tmp_path) -> None:
    chain_file = tmp_path / "chain.json"
    chain_file.write_text(
        json.dumps(
            {"kind": "kernel", "matrix": [[0.75, 0.25], [0.25, 0.75]], "observable": [1.0, -1.0]}
        )
    )
    config_file = tmp_path / "config.json"
    config_file.write_text(
        json.dumps(
            {
                "schema": 1,
                "chain_spec": "chain.json",
                "commands": [
                    "spectrum",
                    {"command": "variance", "params": {"n_max": 200}},
                    {"command": "decompose", "params": {"length": 80}},
                    {"command": "clt", "params": {"n": 300, "m": 500, "ks_threshold": 0.2}},
                    {"command": "fclt", "params": {"n": 400, "m": 300, "grid": [0.5, 1.0]}},
                    {"command": "maximal", "params": {"n": 5}},
                    {
                        "command": "ui-diagnostic",
                        "params": {"n_list": [50], "epsilon_grid": [1.0, 4.0], "m": 100},
                    },
                ],
                "master_seed": MASTER_SEED,
                "output_dir": "out",
            }
        )
    )
    manifest_a = run(load_config(config_file, out_override="run_a"))
    manifest_b = run(load_config(config_file, out_override="run_b"))
    assert manifest_a.config_hash == manifest_b.config_hash
    names = sorted(p.name for p in (tmp_path / "run_a").iterdir())
    payload_names = [n for n in names if n != "manifest.json"]
    assert payload_names
    for name in payload_names:
        a = (tmp_path / "run_a" / name).read_bytes()
        b = (tmp_path / "run_b" / name).read_bytes()
        assert a == b, f"payload {name} differs between reruns"
    _report(10, f"{len(payload_names)} payload files byte-identical across reruns")
