"""Seeded workload inputs: a chain definition file and an experiment config.

The program only ever sees the files written here; everything in them is
drawn from the benchmark seed, so one seed always gives the same inputs.
Besides the files, each workload keeps the exact (kernel, stationary law,
centered observable) it generated, from which the output checks compute
reference values without going through the package.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: master seed of every Monte Carlo command, drawn per benchmark seed
_MASTER_SEED_BITS = 31


@dataclass(frozen=True)
class Probe:
    """Library calls made outside the timed CLI runs, counted as one operation.

    One sampled path of ``length`` steps is decomposed under each of
    ``observables`` observables: the workload's own and seeded others of
    the same scale. The probe passes when every certificate holds.
    """

    name: str
    length: int
    horizon: int
    seed_index: int
    observables: int
    #: known defect the probe exposes; while it stands the probe is counted failed
    known_defect: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: list
    #: standard deviation of the observable's entries before centering
    observable_scale: float = 1.0
    probe: Probe | None = None


@dataclass(frozen=True)
class GeneratedInputs:
    """Files written for one workload and seed, plus the generator's exact chain."""

    config_path: Path
    #: JSON list of the probe's observables, when the workload has a probe
    probe_path: Path | None
    kernel: np.ndarray
    stationary: np.ndarray
    observable: np.ndarray
    master_seed: int


#: tail cutoffs of every uniform-integrability diagnostic
_CUTOFFS = [1.0, 2.0, 5.0, 10.0, 20.0]


def _command(name: str, **params) -> dict:
    """A config command with every parameter spelled out, so no default is assumed."""
    return {"command": name, "params": params}


WORKLOADS = {
    "narrow_long": Workload(
        name="narrow_long",
        why=(
            "4-state Metropolis chain with long Monte Carlo runs: per-step overhead "
            "(replica stepping, 34 000 seeded generators, the sampling loop, tiny "
            "horizon matvecs, ~3.7 MB of CSV) dominates and eigensolves cost nothing"
        ),
        # A failed seeded check stops the run, so the checks most likely to miss
        # their threshold by chance (fclt makes ten 3-SE comparisons) come last.
        commands=[
            _command("decompose", length=20_000, horizon=20_000, seed_index=0),
            _command("ui-diagnostic", n_list=[100, 1000], epsilon_grid=_CUTOFFS, m=2000),
            _command(
                "maximal",
                n=50,
                lambdas=[0.0, 0.5, 1.0],
                mode="forward",
                exhaustive=False,
                m=10_000,
                two_sided=False,
            ),
            _command("clt", n=2000, m=10_000, ks_threshold=0.02),
            _command("fclt", n=2000, m=10_000, grid=[0.25, 0.5, 0.75, 1.0]),
        ],
        # The decomposition residual drifts linearly with path length, at a rate
        # proportional to the observable's scale that varies ~100x between
        # (chain, observable) pairs and can nearly cancel. At this scale the
        # 2e4-step command stays within its 1e-12 certificate on every chain
        # tried, while one 2e5-step path exceeds it for about half of the
        # observables; eight observables make the probe fail on almost every chain.
        observable_scale=0.5,
        probe=Probe(
            name="long_path_certificate",
            length=200_000,
            horizon=1000,
            seed_index=1,
            observables=8,
            known_defect=(
                "decompose_trajectory: the decomposition residual grows linearly with "
                "path length and exceeds the absolute 1e-12 certificate on long paths"
            ),
        ),
    ),
    "wide_mc": Workload(
        name="wide_mc",
        why=(
            "400-state lazy random walk under Monte Carlo: each replica step pays the "
            "O(m*S) cumulative-row comparison, the cost row-local bisection would remove"
        ),
        commands=[
            _command("ui-diagnostic", n_list=[100, 300], epsilon_grid=_CUTOFFS, m=2000),
            _command("clt", n=300, m=10_000, ks_threshold=0.02),
        ],
    ),
    "wide_exact": Workload(
        name="wide_exact",
        why=(
            "1500-state dense lazy kernel with exact commands only: config hashing of "
            "the ~52 MB chain, four eigh calls, long-double horizon matvecs and admission"
        ),
        commands=[
            _command("spectrum"),
            _command("variance", n_max=1000),
            _command("decompose", length=5000, horizon=50, seed_index=0),
        ],
    ),
}


def _narrow_metropolis(rng: np.random.Generator):
    """4-state Metropolis chain on a random target with a lazy symmetric proposal."""
    s = 4
    target = rng.uniform(0.5, 1.5, s)
    proposal = np.triu(rng.uniform(0.1, 1.0, (s, s)), 1)
    proposal = proposal + proposal.T
    # dividing by more than the largest row sum keeps every holding probability positive
    proposal /= 1.25 * proposal.sum(axis=1).max()
    np.fill_diagonal(proposal, 1.0 - proposal.sum(axis=1))
    pi = target / target.sum()
    kernel = proposal * np.minimum(1.0, pi[None, :] / pi[:, None])
    np.fill_diagonal(kernel, 0.0)
    np.fill_diagonal(kernel, 1.0 - kernel.sum(axis=1))
    definition = {"kind": "metropolis", "matrix": proposal.tolist(), "target": target.tolist()}
    return definition, kernel, pi


def _lazy_weights(rng: np.random.Generator, s: int) -> np.ndarray:
    """Dense symmetric weights whose diagonal equals the off-diagonal degree."""
    w = np.triu(rng.uniform(0.0, 1.0, (s, s)), 1)
    w = w + w.T
    np.fill_diagonal(w, w.sum(axis=1))
    return w


def _wide_random_walk(rng: np.random.Generator):
    w = _lazy_weights(rng, 400)
    degree = w.sum(axis=1)
    definition = {"kind": "random_walk", "matrix": w.tolist()}
    return definition, w / degree[:, None], degree / degree.sum()


def _wide_kernel(rng: np.random.Generator):
    w = _lazy_weights(rng, 1500)
    degree = w.sum(axis=1)
    kernel = w / degree[:, None]
    definition = {"kind": "kernel", "matrix": kernel.tolist()}
    return definition, kernel, degree / degree.sum()


_CHAINS = {
    "narrow_long": _narrow_metropolis,
    "wide_mc": _wide_random_walk,
    "wide_exact": _wide_kernel,
}


def generate(workload: Workload, seed: int, directory: Path) -> GeneratedInputs:
    """Write ``chain.json`` and ``config.json`` for one workload and seed."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload.name)])
    definition, kernel, pi = _CHAINS[workload.name](rng)
    raw = rng.normal(scale=workload.observable_scale, size=kernel.shape[0])
    observable = raw - float(np.dot(pi, raw))
    definition["observable"] = observable.tolist()
    master_seed = int(rng.integers(1, 2**_MASTER_SEED_BITS))

    probe_path = None
    if workload.probe is not None:
        probe_path = directory / "probe_observables.json"
        extra = rng.normal(scale=workload.observable_scale, size=(workload.probe.observables - 1, len(pi)))
        extra -= (extra @ pi)[:, None]
        probe_path.write_text(json.dumps([observable.tolist()] + extra.tolist()))

    chain_path = directory / "chain.json"
    config_path = directory / "config.json"
    chain_path.write_text(json.dumps(definition))
    config = {
        "schema": 1,
        "chain_spec": chain_path.name,
        "commands": workload.commands,
        "master_seed": master_seed,
        "output_dir": "out",
    }
    config_path.write_text(json.dumps(config, indent=2))
    return GeneratedInputs(
        config_path=config_path,
        probe_path=probe_path,
        kernel=kernel,
        stationary=pi,
        observable=observable,
        master_seed=master_seed,
    )
