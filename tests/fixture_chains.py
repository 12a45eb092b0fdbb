"""Chain and observable fixtures shared across the test suite.

Fixed small chains with hand-checkable spectra plus seeded generators for
random reversible chains with a guaranteed spectral gap. Random chains are
lazy walks on dense weighted graphs, which keeps the whole spectrum
nonnegative and the gap easy to certify.
"""
from __future__ import annotations

import numpy as np

import rclt


def two_state(p: float = 0.25, q: float = 0.25) -> rclt.ReversibleChain:
    return rclt.build_chain([[1.0 - p, p], [q, 1.0 - q]])


def flip_chain() -> rclt.ReversibleChain:
    return rclt.build_chain([[0.0, 1.0], [1.0, 0.0]])


def iid_chain(pi=(0.5, 0.5)) -> rclt.ReversibleChain:
    pi = np.asarray(pi, dtype=float)
    return rclt.build_chain(np.tile(pi, (len(pi), 1)))


def path_walk() -> rclt.ReversibleChain:
    """Nearest-neighbor walk on a 3-vertex path, pi = (1/4, 1/2, 1/4)."""
    return rclt.build_random_walk([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


def cycle_metropolis(target=(0.5, 0.3, 0.2)) -> rclt.ReversibleChain:
    proposal = [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]
    return rclt.build_metropolis(target, proposal)


def complete_walk(n: int, laziness: float = 0.5) -> rclt.ReversibleChain:
    """Lazy walk on the complete graph: spectrum {1} + {1 - laziness * n/(n-1)}."""
    q = np.full((n, n), 1.0 / (n - 1))
    np.fill_diagonal(q, 0.0)
    return rclt.build_chain((1.0 - laziness) * np.eye(n) + laziness * q)


def symmetric_three_state() -> rclt.ReversibleChain:
    """A symmetric 3-state kernel, pi uniform, with eigenvalues 1, 0.5 and 0.1."""
    return rclt.build_chain([[0.6, 0.3, 0.1], [0.3, 0.4, 0.3], [0.1, 0.3, 0.6]])


def weakly_coupled_pairs(epsilon: float = 1e-8) -> rclt.ReversibleChain:
    """Two 2-state blocks {0, 1} and {2, 3} coupled by ``epsilon``: spectral gap 2 epsilon."""
    return rclt.build_chain(
        [
            [0.5, 0.5 - epsilon, epsilon, 0.0],
            [0.5 - epsilon, 0.5, 0.0, epsilon],
            [epsilon, 0.0, 0.5, 0.5 - epsilon],
            [0.0, epsilon, 0.5 - epsilon, 0.5],
        ]
    )


def observable(chain: rclt.ReversibleChain, raw) -> rclt.Observable:
    return rclt.project_mean_zero(np.asarray(raw, dtype=float), chain)


def scaled(f: rclt.Observable, k: int) -> rclt.Observable:
    """f times 2^k, which is exact in binary floating point short of overflow or underflow."""
    return rclt.Observable(values=np.ldexp(f.values, k))


def random_lazy_chain(
    n_states: int, seed: int, min_gap: float = 0.1
) -> rclt.ReversibleChain:
    """Random reversible chain with nonnegative spectrum and gap >= min_gap."""
    rng = np.random.default_rng(seed)
    for _ in range(50):
        w = rng.uniform(0.5, 2.0, size=(n_states, n_states))
        w = 0.5 * (w + w.T)
        walk = w / w.sum(axis=1, keepdims=True)
        chain = rclt.build_chain(0.5 * np.eye(n_states) + 0.5 * walk)
        if rclt.spectral_gap(chain, absolute=True) >= min_gap:
            return chain
    raise RuntimeError(f"no chain with gap {min_gap} found for seed {seed}")


def random_observable(
    chain: rclt.ReversibleChain, seed: int, min_norm: float = 0.1
) -> rclt.Observable:
    rng = np.random.default_rng(seed)
    for _ in range(50):
        f = rclt.project_mean_zero(rng.normal(size=chain.n_states), chain)
        if chain.pi_dot(f.values, f.values) >= min_norm:
            return f
    raise RuntimeError(f"no observable with norm {min_norm} found for seed {seed}")


def random_pairs(count: int, master_seed: int, max_states: int = 8, min_gap: float = 0.1):
    """Deterministic list of (chain, observable) pairs with certified gap."""
    pairs = []
    for i in range(count):
        n_states = 2 + (i % (max_states - 1))
        chain = random_lazy_chain(n_states, seed=master_seed + 7 * i, min_gap=min_gap)
        pairs.append((chain, random_observable(chain, seed=master_seed + 7 * i + 3)))
    return pairs


def identity_fixture_pairs(master_seed: int = 2031):
    """Ten chains with observables for the exact-identity battery."""
    named = [
        (two_state(), observable(two_state(), [1.0, -1.0])),
        (flip_chain(), observable(flip_chain(), [1.0, -1.0])),
        (iid_chain(), observable(iid_chain(), [1.0, -1.0])),
        (path_walk(), observable(path_walk(), [2.0, -0.5, 1.0])),
        (cycle_metropolis(), observable(cycle_metropolis(), [0.3, 1.7, -1.1])),
    ]
    return named + random_pairs(5, master_seed)


def tiny_fixture_pairs():
    """Every fixture chain with at most 3 states, for exhaustive enumeration."""
    chains = [
        two_state(),
        flip_chain(),
        iid_chain(),
        path_walk(),
        cycle_metropolis(),
        iid_chain((0.2, 0.3, 0.5)),
    ]
    raws = [
        [1.0, -1.0],
        [1.0, -1.0],
        [1.0, -1.0],
        [2.0, -0.5, 1.0],
        [0.3, 1.7, -1.1],
        [1.0, 0.0, -1.0],
    ]
    return [(c, observable(c, r)) for c, r in zip(chains, raws)]


def mixing_fixture_pairs():
    """Chains with absolute spectral gap >= 0.25 and nondegenerate sigma^2."""
    pairs = [
        (two_state(), observable(two_state(), [1.0, -1.0])),
        (cycle_metropolis(), observable(cycle_metropolis(), [0.3, 1.7, -1.1])),
        (complete_walk(4), observable(complete_walk(4), [1.9, -0.3, 0.4, -1.3])),
    ]
    for chain, f in pairs:
        assert rclt.spectral_gap(chain, absolute=True) >= 0.25
    return pairs
