"""In-place admission: bit-equal to the out-of-place formulas, and a few S×S arrays at most."""
from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

import rclt
from rclt.cli import build_chain_from_definition, load_config


def _weights(s: int, seed: int) -> np.ndarray:
    """Seeded symmetric weights, about 70% dense, connected through a ring."""
    rng = np.random.default_rng(seed)
    w = rng.random((s, s)) * (rng.random((s, s)) < 0.7)
    w = w + w.T
    ring = np.arange(s)
    w[ring, (ring + 1) % s] += 0.5
    w[(ring + 1) % s, ring] += 0.5
    return w


def _inputs(s: int, seed: int = 11) -> dict:
    """One seeded input per builder on s states."""
    w = _weights(s, seed)
    off = w.copy()
    np.fill_diagonal(off, 0.0)
    proposal = off / (1.25 * off.sum(axis=1).max())
    np.fill_diagonal(proposal, 1.0 - proposal.sum(axis=1))
    target = np.random.default_rng(seed + 1).random(s) + 0.05
    return {
        "kernel": (w / w.sum(axis=1, keepdims=True),),
        "random_walk": (w,),
        "metropolis": (target, proposal),
    }


_BUILDERS = {
    "kernel": rclt.build_chain,
    "random_walk": rclt.build_random_walk,
    "metropolis": rclt.build_metropolis,
}


# --- the out-of-place formulas the in-place admission must reproduce bit for bit ---


def _reference_certify(q, pi):
    flow = pi[:, None] * q
    flow = 0.5 * (flow + flow.T)
    q_rev = flow / pi[:, None]
    q_rev /= q_rev.sum(axis=1, keepdims=True)
    return q_rev, pi


def _reference_kernel(kernel):
    q = np.clip(np.array(kernel, dtype=float), 0.0, None)
    q /= q.sum(axis=1, keepdims=True)
    n = q.shape[0]
    a = np.eye(n) - q.T
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    return _reference_certify(q, pi / pi.sum())


def _reference_random_walk(weights):
    w = 0.5 * (weights + weights.T)
    degree = w.sum(axis=1)
    return _reference_certify(w / degree[:, None], degree / degree.sum())


def _reference_metropolis(target, proposal):
    p = target / target.sum()
    q = proposal * np.minimum(1.0, p[None, :] / p[:, None])
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, np.maximum(1.0 - q.sum(axis=1), 0.0))
    return _reference_certify(q, p)


def _reference_eigensystem(kernel, pi):
    d_sqrt = np.sqrt(pi)
    sym = d_sqrt[:, None] * kernel / d_sqrt[None, :]
    return np.linalg.eigh(0.5 * (sym + sym.T))


_REFERENCES = {
    "kernel": _reference_kernel,
    "random_walk": _reference_random_walk,
    "metropolis": _reference_metropolis,
}


@pytest.mark.parametrize("kind", sorted(_BUILDERS))
@pytest.mark.parametrize("s", [2, 37, 300])
def test_in_place_admission_is_bit_equal_to_the_formulas(kind, s) -> None:
    args = _inputs(s)[kind]
    chain = _BUILDERS[kind](*args)
    kernel, pi = _REFERENCES[kind](*args)
    assert chain.kernel.tobytes() == kernel.tobytes()
    assert chain.stationary.tobytes() == pi.tobytes()
    for got, want in zip(chain._eigensystem, _reference_eigensystem(kernel, pi)):
        assert got.tobytes() == want.tobytes()
    flow = pi[:, None] * kernel
    assert chain.detailed_balance_residual() == float(np.max(np.abs(flow - flow.T)))


def _traced_peak(call) -> float:
    """Peak traced allocation of ``call()`` above what was allocated before it, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


#: S for the memory bounds: large enough that S×S arrays dwarf everything else
_S = 300
_SQUARE = _S * _S * 8


@pytest.mark.parametrize("kind", sorted(_BUILDERS))
def test_admission_holds_a_few_square_arrays(kind) -> None:
    args = _inputs(_S)[kind]
    # the certified kernel, one more S×S buffer at a time and stripes of an eighth
    assert _traced_peak(lambda: _BUILDERS[kind](*args)) <= 3 * _SQUARE


def test_eigensystem_and_residual_hold_a_few_square_arrays() -> None:
    chain = rclt.build_random_walk(_inputs(_S)["random_walk"][0])
    # the symmetric part and the eigenvectors
    assert _traced_peak(lambda: chain._eigensystem) <= 2.5 * _SQUARE
    # the flow and a stripe
    assert _traced_peak(chain.detailed_balance_residual) <= 2 * _SQUARE


@pytest.mark.parametrize("kind", sorted(_BUILDERS))
def test_loaded_config_holds_the_chain_as_arrays(tmp_path, kind) -> None:
    args = [np.asarray(a).tolist() for a in _inputs(37)[kind]]
    definition = {"kind": kind, "matrix": args[-1], "observable": [1.0] + [0.0] * 36}
    if kind == "metropolis":
        definition["target"] = args[0]
    (tmp_path / "chain.json").write_text(json.dumps(definition))
    (tmp_path / "config.json").write_text(json.dumps({"chain_spec": "chain.json", "commands": []}))
    config = load_config(tmp_path / "config.json")
    keys = ["matrix", "target"] if kind == "metropolis" else ["matrix"]
    for key in keys:
        value = config.chain_definition[key]
        assert isinstance(value, np.ndarray) and value.dtype == float
    assert isinstance(config.chain_definition["observable"], list)
    before = [config.chain_definition[key].copy() for key in keys]
    chain = build_chain_from_definition(config.chain_definition)
    # admission works in its own buffer: the loaded arrays are left as they were
    for key, value in zip(keys, before):
        assert config.chain_definition[key].tobytes() == value.tobytes()
    assert chain.kernel.tobytes() == build_chain_from_definition(definition).kernel.tobytes()
