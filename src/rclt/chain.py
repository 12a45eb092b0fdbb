"""Finite-state reversible Markov chains, observables and sampled paths.

Everything downstream works on three ingredients built here:

- ``ReversibleChain``: a row-stochastic kernel together with its stationary
  law, admitted only when detailed balance holds, and certified so that
  ``pi_i Q_ij == pi_j Q_ji`` to 1e-12 after construction.
- ``Observable``: a real function on states, centered so its stationary mean
  is zero.
- ``Trajectory``: a seeded stationary sample path with the observable values
  and partial sums attached.

Admission is forgiving (1e-9) because user matrices carry construction
noise; the certified object is strict (1e-12) because the rest of the
package turns second-moment identities into machine-precision assertions.

Admission works in place: a builder converts its input into one private
array and turns it into the certified kernel in that buffer, which the
chain then keeps without a copy. Symmetric parts and asymmetry defects are
taken by row stripes, so beyond its own kernel a build holds at most one
more S×S array at a time, and every entry comes from the same float
operations as the plain out-of-place formulas.

Seeds are numpy's: ``derive_seed`` is ``SeedSequence([master, index])``, and
``_generators`` builds what ``default_rng`` builds from a seed. Both run a
port of ``SeedSequence``'s hash on numpy lane arrays, so a replica pass
seeds all its generators in one pass instead of one Python hash each.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._numeric import exact_cumsum
from .errors import (
    Disconnected,
    InvalidArgument,
    MalformedMatrix,
    NegativeWeight,
    NotIrreducible,
    NotReversible,
    NotStochastic,
    ZeroTargetMass,
)

#: tolerance for admitting user-supplied matrices
ADMISSION_TOL = 1e-9
#: tolerance certified by a constructed ReversibleChain, and of an observable's
#: stationary mean relative to max|f|
CERTIFIED_TOL = 1e-12
#: row stripes of the in-place symmetric part and of the asymmetry defect
_STRIPES = 8
#: the largest count, and the most entries of one array sized from counts:
#: 2^27 doubles, 1 GiB. Work that costs only time, such as the m * n replica
#: steps of a pass, is not bounded.
MAX_CELLS = 2**27


def _array(values, name: str, error: type = MalformedMatrix, dtype: type = float) -> np.ndarray:
    """``values`` as a new ``dtype`` (float or np.int64) array, else ``error`` naming ``name``.

    This is the one judge of array entries, by ``_numbers``' rule: numpy must
    read the entries as integers or, for a float array, as integers or floats.
    Integers past int64, which numpy keeps as Python objects, are taken entry
    by entry with the floats beside them, so only one past the float range (or
    past int64, for an integer array) is an error. An array of booleans,
    strings, bytes, None or other objects is rejected, as is a ragged one.
    numpy reads a boolean among integers or floats as 0 or 1, so in a list or
    tuple the rows (in one dimension, the entries) that it read as a 0 or a 1
    are scanned once for a bool or np.bool_, which is rejected too; an ndarray
    is taken as numpy typed it, and a 0 or 1 typed as a number passes. The cast
    to np.int64 must be safe, so a uint64 array, which may hold entries of
    2^63 or more, is no int64 one. The builders,
    ``project_mean_zero`` and the frozen value types convert their input here,
    so a bad one is a typed error: ``MalformedMatrix`` for what defines a
    chain, ``InvalidArgument`` for everything else.
    """
    numbers = (int, np.integer, float, np.floating) if dtype is float else (int, np.integer)
    try:
        a = np.array(values)
        if a.dtype == object and all(isinstance(v, numbers) and not isinstance(v, bool)
                                     for v in a.flat):
            a = a.astype(dtype)
        if a.dtype.kind not in ("iuf" if dtype is float else "iu"):
            raise TypeError(f"numpy reads its entries as {a.dtype}")
        a = a.astype(dtype, casting="same_kind" if dtype is float else "safe", copy=False)
        if isinstance(values, (list, tuple)):  # numpy reads a boolean among numbers as 0 or 1
            for i in np.flatnonzero(np.any((a == 0) | (a == 1), axis=tuple(range(1, a.ndim)))):
                row = values[i] if a.ndim > 1 else [values[i]]
                if not {bool, np.bool_}.isdisjoint(map(type, row)):
                    raise TypeError(f"index {i} holds a boolean among numbers")
        return a
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{name} is not a numeric array: {exc}") from exc


def _frozen(a, name: str, dtype: type = float) -> np.ndarray:
    """``a`` itself if it is a read-only ``dtype`` array, else a read-only ``dtype`` copy of it."""
    if isinstance(a, np.ndarray) and a.dtype == dtype and not a.flags.writeable:
        return a
    out = _array(a, name, InvalidArgument, dtype)
    out.setflags(write=False)
    return out


def _stripes(n: int):
    """(first, end) rows of at most ``_STRIPES`` stripes covering n rows."""
    rows = max(1, -(-n // _STRIPES))
    return ((i, min(i + rows, n)) for i in range(0, n, rows))


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """Overwrite the square ``a`` with ``0.5 * (a + a.T)``, a stripe of rows at a time.

    Stripe I reads and writes only rows I and columns I from column (or row) I on,
    which no earlier stripe wrote, so each entry is 0.5 * (a_ij + a_ji) of the input.
    """
    for i, j in _stripes(a.shape[0]):
        half = a[i:j, i:] + a[i:, i:j].T
        half *= 0.5
        a[i:j, i:] = half
        a[i:, i:j] = half.T
    return a


def _asymmetry(a: np.ndarray) -> float:
    """max |a_ij - a_ji| over the square ``a``, a stripe of rows at a time (no S×S temporary)."""
    defects = []
    for i, j in _stripes(a.shape[0]):
        d = a[i:j, i:] - a[i:, i:j].T
        defects.append(np.max(np.abs(d, out=d)))
    return float(np.max(defects))


def _balance_defect(q: np.ndarray, pi: np.ndarray) -> float:
    """Detailed-balance defect max |pi_i q_ij - pi_j q_ji|, with one S×S temporary (the flow)."""
    return _asymmetry(pi[:, None] * q)


def _numbers(kind: Callable, values, name: str, least: int | None = None) -> list:
    """Each entry of ``values`` converted by ``kind`` (float or int), else InvalidArgument.

    This judges every number passed on its own or in a list: every float, every
    count through ``_counts``, and every seed and stream index, which are
    nonnegative integers of any size. ``_array`` judges array entries by the same
    rule. A float must be finite. Integers take integers only, as in a config
    file, so neither 10.7, 10.0 nor True is one, and no boolean, string or bytes
    entry is a float.
    ``values`` must not be empty, and with ``least`` set, every entry must
    also be at least ``least``.
    """
    try:
        pairs = [(kind(v), v) for v in values]
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgument(f"{name} must be numeric, got {values!r}") from exc
    if not all(not isinstance(v, (bool, np.bool_, str, bytes)) and
               (isinstance(v, (int, np.integer)) if kind is int else math.isfinite(x))
               for x, v in pairs):
        raise InvalidArgument(f"{name} must hold finite {kind.__name__} values, got {values!r}")
    out = [x for x, _ in pairs]
    if not out:
        raise InvalidArgument(f"{name} must not be empty")
    if least is not None and min(out) < least:
        raise InvalidArgument(f"{name} must be >= {least}, got {min(out)}")
    return out


def _counts(values, name: str, least: int | None = None) -> list[int]:
    """Each entry of ``values`` as a count: an integer judged by ``_numbers``, at most MAX_CELLS.

    This is the one ceiling of every count in the package: a step count,
    replica count, horizon, path length, series length, moment order,
    boundary position or ``n_list`` entry. So no count reaches float
    arithmetic large enough to overflow, and an array of a count's doubles
    fits the ceiling.
    """
    out = _numbers(int, values, name, least)
    if max(out) > MAX_CELLS:
        raise InvalidArgument(f"{name} must be <= {MAX_CELLS}, got {max(out)}")
    return out


def _master_seed(seed) -> int:
    """The master seed of seeded sampling, judged by ``_numbers``; None is a missing one."""
    if seed is None:
        raise InvalidArgument("the master seed is missing; Monte Carlo sampling needs one")
    return _numbers(int, [seed], "master seed", least=0)[0]


def _fits(cells: int, what: str) -> None:
    """Reject with InvalidArgument an array of ``what`` with more than MAX_CELLS entries.

    Callers judge each array a count sizes before they allocate it.
    """
    if cells > MAX_CELLS:
        raise InvalidArgument(f"{what} would hold {cells} entries, above {MAX_CELLS}")


def _misses(checks) -> tuple[str, ...]:
    """The message of each ``(measured, bound, message)`` in ``checks`` that misses its bound.

    This is the one verdict rule of the package: a number passes when
    ``measured <= bound < inf``, so a NaN value, a NaN bound or an infinite
    bound misses, and a value equal to its bound passes. ``_gate`` applies it
    to every certificate, and each statistical check of ``rclt.limits`` hands
    it its comparisons, so no verdict passes on a number that is not one.
    """
    return tuple(message for measured, bound, message in checks if not measured <= bound < math.inf)


def _gate(measured: float, tolerance: float, error: type, what: str) -> None:
    """Raise ``error`` naming ``what``, ``measured`` and ``tolerance`` if measured misses it.

    This is the one judge of a computed number, as ``_numbers``, ``_array``
    and ``_counts`` judge inputs: every certificate of the package (a row
    sum, a balance or identity defect, a solver residual, a spectral mass,
    the route agreement) passes here, by the one rule of ``_misses``: a NaN
    value or tolerance, or an infinite tolerance, fails it.
    """
    if _misses([(measured, tolerance, what)]):
        raise error(f"{what} {measured:.3e}, above its tolerance {tolerance:.3g}")


def _booleans(flags: dict) -> None:
    """Reject with InvalidArgument unless every value of ``flags`` (name to value) is a boolean.

    This is the one judge of the library's flags: a numpy boolean is one, but
    0, 1, None, a string or an array is not.
    """
    if not all(isinstance(v, (bool, np.bool_)) for v in flags.values()):
        raise InvalidArgument(
            f"{' and '.join(flags)} must be booleans, got {' and '.join(map(repr, flags.values()))}"
        )


@dataclass(frozen=True)
class ReversibleChain:
    """Finite reversible kernel with its stationary distribution.

    Instances are immutable and safe to share across threads. The
    constructor re-checks every certified invariant; use the ``build_*``
    factories rather than constructing directly from raw user input. The
    eigensystem is computed on first use and cached read-only, so it does
    not break immutability.
    """

    kernel: np.ndarray
    stationary: np.ndarray

    def __post_init__(self):
        q = _frozen(self.kernel, "kernel")
        pi = _frozen(self.stationary, "stationary law")
        object.__setattr__(self, "kernel", q)
        object.__setattr__(self, "stationary", pi)
        n = pi.size
        if q.shape != (n, n) or pi.shape != (n,):
            raise NotStochastic(f"kernel/stationary shapes mismatch: {q.shape}, {pi.shape}")
        if n == 0:
            raise MalformedMatrix("kernel has no states")
        if not np.all(np.isfinite(q)) or np.any(q < 0.0):
            raise NotStochastic("kernel entries must be finite and nonnegative")
        _gate(np.max(np.abs(q.sum(axis=1) - 1.0)), CERTIFIED_TOL, NotStochastic,
              "certified row sums off by")
        if not (np.all(pi > 0.0) and abs(pi.sum() - 1.0) <= CERTIFIED_TOL):
            raise NotIrreducible("stationary vector not strictly positive and normalized")
        _gate(_balance_defect(q, pi), CERTIFIED_TOL, NotReversible,
              "certified detailed balance off by")
        _gate(np.max(np.abs(pi @ q - pi)), CERTIFIED_TOL, NotIrreducible,
              "stationary law not invariant: residual")

    @property
    def n_states(self) -> int:
        return self.kernel.shape[0]

    def pi_dot(self, a: np.ndarray, b: np.ndarray) -> float:
        """Inner product <a, b> in L2 of the stationary law."""
        return float(np.dot(self.stationary * np.asarray(a), np.asarray(b)))

    @cached_property
    def _eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (eigenvalues, orthonormal eigenvectors) of D^{1/2} Q D^{-1/2}, solved once."""
        d_sqrt = np.sqrt(self.stationary)
        sym = d_sqrt[:, None] * self.kernel
        sym /= d_sqrt[None, :]
        lam, phi = np.linalg.eigh(_symmetrize(sym))
        lam.setflags(write=False)
        phi.setflags(write=False)
        return lam, phi

    def detailed_balance_residual(self) -> float:
        return _balance_defect(self.kernel, self.stationary)


@dataclass(frozen=True)
class Observable:
    """Real-valued function on states, expected to be centered."""

    values: np.ndarray

    def __post_init__(self):
        v = _frozen(self.values, "observable")
        if v.ndim != 1 or v.size == 0 or not np.all(np.isfinite(v)):
            raise InvalidArgument("observable must be a nonempty finite 1-d vector")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Trajectory:
    """Seeded stationary sample path.

    Arrays are indexed by time: ``states[t]`` is the state at time t for
    t = 0..length, ``observables[t] = f(states[t])``, and
    ``partial_sums[t]`` is the sum of observables over times 1..t (so
    ``partial_sums[0] == 0``; time zero never enters the partial sums).
    """

    states: np.ndarray
    observables: np.ndarray
    partial_sums: np.ndarray
    seed: int

    def __post_init__(self):
        s = _frozen(self.states, "states", np.int64)
        x, p = _frozen(self.observables, "observables"), _frozen(self.partial_sums, "partial sums")
        if s.ndim != 1 or s.size == 0 or not s.shape == x.shape == p.shape:
            raise InvalidArgument(
                "states must be a nonempty 1-d vector, and observables and partial sums of its "
                f"shape; got {s.shape}, {x.shape} and {p.shape}"
            )
        object.__setattr__(self, "states", s)
        object.__setattr__(self, "observables", x)
        object.__setattr__(self, "partial_sums", p)
        object.__setattr__(self, "seed", _numbers(int, [self.seed], "seed", least=0)[0])

    @property
    def length(self) -> int:
        return self.states.shape[0] - 1


def _strongly_connected(support: np.ndarray) -> bool:
    """Strong connectivity of a boolean adjacency matrix, by double BFS."""
    n = support.shape[0]

    def reach(adj: np.ndarray) -> int:
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = [0]
        while frontier:
            nxt = adj[frontier].any(axis=0) & ~seen
            seen |= nxt
            frontier = list(np.flatnonzero(nxt))
        return int(seen.sum())

    return reach(support) == n and reach(support.T) == n


def _solve_stationary(q: np.ndarray) -> np.ndarray:
    """Left eigenvector of eigenvalue one, via a deflated linear solve.

    Replaces the last balance equation with the normalization constraint,
    which is the standard well-conditioned route for irreducible kernels.
    """
    n = q.shape[0]
    a = np.eye(n)
    a -= q.T
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NotIrreducible(f"stationary solve failed: {exc}") from exc
    if not np.all(np.isfinite(pi)) or np.min(pi) <= 0.0:
        raise NotIrreducible("stationary vector not strictly positive")
    return pi / pi.sum()


def _certify(q: np.ndarray, pi: np.ndarray) -> ReversibleChain:
    """Project an admitted (kernel, stationary) pair onto exact reversibility.

    Symmetrizing the flow matrix pi_i Q_ij moves the kernel by at most the
    admitted detailed-balance defect and makes the certified 1e-12
    invariants hold by construction. The builder's private ``q`` becomes
    the certified kernel in place, and the chain keeps it without a copy.
    """
    q *= pi[:, None]
    _symmetrize(q)
    q /= pi[:, None]
    q /= q.sum(axis=1, keepdims=True)
    q.setflags(write=False)
    return ReversibleChain(kernel=q, stationary=pi)


def build_chain(kernel) -> ReversibleChain:
    """Admit an explicit row-stochastic kernel as a reversible chain.

    Raises MalformedMatrix when ``kernel`` is ragged, not numeric or empty, and
    NotStochastic / NotIrreducible / NotReversible when the matrix is not a
    kernel, has a non-unique stationary law, or breaks detailed balance
    beyond 1e-9.
    """
    q = _array(kernel, "kernel")
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise NotStochastic(f"kernel must be square, got shape {q.shape}")
    if q.size == 0:
        raise MalformedMatrix("kernel has no states")
    if not np.all(np.isfinite(q)) or np.any(q < -ADMISSION_TOL):
        raise NotStochastic("kernel entries must be finite and nonnegative")
    _gate(np.max(np.abs(q.sum(axis=1) - 1.0)), ADMISSION_TOL, NotStochastic, "row sums off by")
    np.clip(q, 0.0, None, out=q)
    q /= q.sum(axis=1, keepdims=True)
    if not _strongly_connected(q > 0.0):
        raise NotIrreducible("support graph of the kernel is not strongly connected")
    pi = _solve_stationary(q)
    _gate(_balance_defect(q, pi), ADMISSION_TOL, NotReversible, "detailed balance off by")
    return _certify(q, pi)


def build_random_walk(weights) -> ReversibleChain:
    """Reversible walk on a weighted undirected graph.

    Q_ij is the weight of edge (i, j) normalized by the total weight at i,
    and the stationary law is proportional to vertex weight; detailed
    balance holds by construction. Raises MalformedMatrix when ``weights`` is
    ragged, not numeric, not square, empty or not symmetric.
    """
    w = _array(weights, "weights")
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.size == 0:
        raise MalformedMatrix(f"weights must be square with a state, got shape {w.shape}")
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise NegativeWeight("weights must be finite and nonnegative")
    _gate(_asymmetry(w), ADMISSION_TOL, MalformedMatrix, "weights are not symmetric: asymmetry")
    _symmetrize(w)
    degree = w.sum(axis=1)
    if np.any(degree <= 0.0):
        raise Disconnected("a vertex has zero total weight")
    if not _strongly_connected(w > 0.0):
        raise Disconnected("support graph of the weights is not connected")
    w /= degree[:, None]
    pi = degree / degree.sum()
    return _certify(w, pi)


def build_metropolis(target, proposal) -> ReversibleChain:
    """Metropolis kernel for a positive target law and symmetric proposal.

    Off-diagonal moves are accepted with probability min(1, target_j /
    target_i); rejected mass sits on the diagonal. Raises MalformedMatrix when
    ``target`` or ``proposal`` is ragged or not numeric, ``target`` is empty,
    their shapes disagree, or the proposal is not symmetric, which a NaN entry,
    on the diagonal too, is not.
    """
    p = _array(target, "target")
    prop = _array(proposal, "proposal")
    if p.ndim != 1 or p.size == 0:
        raise MalformedMatrix(f"target must be a vector with a state, got shape {p.shape}")
    if np.any(p <= 0.0) or not np.all(np.isfinite(p)):
        raise ZeroTargetMass("target must be strictly positive on every state")
    p = p / p.sum()
    n = p.shape[0]
    if prop.shape != (n, n):
        raise MalformedMatrix(f"proposal shape {prop.shape} does not match target size {n}")
    _gate(_asymmetry(prop), ADMISSION_TOL, MalformedMatrix, "proposal is not symmetric: asymmetry")
    if np.max(np.abs(prop.sum(axis=1) - 1.0)) > ADMISSION_TOL or np.any(prop < 0.0):
        raise NotStochastic("proposal must be row-stochastic")
    accept = p[None, :] / p[:, None]
    q = np.multiply(prop, np.minimum(1.0, accept, out=accept), out=prop)
    del accept
    np.fill_diagonal(q, 0.0)
    # proposal rows are admitted to 1e-9, so rounding may leave a full row a hair above 1
    np.fill_diagonal(q, np.maximum(1.0 - q.sum(axis=1), 0.0))
    if not _strongly_connected(q > 0.0):
        raise NotIrreducible("Metropolis kernel is not irreducible")
    return _certify(q, p)


def _require_chain(chain) -> None:
    """Reject anything but a ReversibleChain with InvalidArgument."""
    if not isinstance(chain, ReversibleChain):
        raise InvalidArgument(f"expected a ReversibleChain, got {type(chain).__name__}")


def _require_fit(chain: ReversibleChain, v: np.ndarray) -> None:
    _require_chain(chain)
    if v.shape != (chain.n_states,):
        raise InvalidArgument(f"observable shape {v.shape} does not fit {chain.n_states} states")


def _centering(chain: ReversibleChain, v: np.ndarray) -> tuple[float, float]:
    """The centering gate of ``v``: (|stationary mean|, its tolerance CERTIFIED_TOL * max|v|)."""
    return abs(float(np.dot(chain.stationary, v))), CERTIFIED_TOL * float(np.max(np.abs(v)))


def project_mean_zero(raw, chain: ReversibleChain) -> Observable:
    """Center a raw vector so its stationary mean vanishes, within ``require_centered``'s gate.

    The stationary mean of a raw vector with a large constant offset carries a
    rounding error of about eps times the offset, which the centered vector
    keeps; when that misses the gate, the centered vector's own mean is
    subtracted once more. A vector that passes the gate at once is returned as
    ``v - mean``, bit for bit.
    """
    v = _array(raw, "observable", InvalidArgument)
    _require_fit(chain, v)
    f = v - float(np.dot(chain.stationary, v))
    if _misses([(*_centering(chain, f), "")]):
        f -= float(np.dot(chain.stationary, f))
    return Observable(values=f)


def require_centered(chain: ReversibleChain, f: Observable) -> None:
    """Reject f unless it has one value per state and mean within CERTIFIED_TOL * max|f|.

    A chain that is not a ReversibleChain or an f that is not an Observable
    is an InvalidArgument too; every library entry that takes both calls this.
    """
    if not isinstance(f, Observable):
        raise InvalidArgument(f"expected an Observable, got {type(f).__name__}")
    _require_fit(chain, f.values)
    _gate(*_centering(chain, f.values), InvalidArgument,
          "observable is not centered: |stationary mean|")


def _cumulative_tables(chain: ReversibleChain):
    """Stationary CDF and row-wise kernel CDFs, each with its last entry pinned to 1."""
    cum_pi = np.cumsum(chain.stationary)
    cum_pi[-1] = 1.0
    cum_rows = np.cumsum(chain.kernel, axis=1)
    cum_rows[:, -1] = 1.0
    return cum_pi, cum_rows


# numpy's SeedSequence: its entropy pool size, hash constants and 32-bit mask
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hasher(const: int, mult: int) -> Callable:
    """SeedSequence's hashmix on uint32 lane arrays, with its running constant kept here."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value *= np.uint32(const)
        return value ^ value >> 16

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return result ^ result >> 16


def _seed_words(entropy: list[np.ndarray], n_words: int) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(n_words)`` for every lane at once.

    ``entropy`` lists the sequence's uint32 entropy words, each an array with
    one entry per lane; the result is a (lanes, n_words) uint32 array. This is
    numpy's ``mix_entropy`` and ``generate_state`` on arrays, where uint32
    arithmetic wraps as it does in numpy's C code.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    return np.stack([hashmix(pool[i % _POOL]) for i in range(n_words)], axis=1)


def _int_words(n: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence reads from an integer n >= 0 ([0] for 0)."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _lane_words(prefix: list[int], values: np.ndarray, n_words: int) -> np.ndarray:
    """``_seed_words`` of the entropy ``prefix`` followed by the words of each value.

    ``values`` are nonnegative integers below 2^64, one lane each. SeedSequence
    reads a value below 2^32 as one word and a larger one as two, so the two
    kinds of lane are hashed apart.
    """
    values = values.astype(np.uint64)
    out = np.empty((values.size, n_words), np.uint32)
    wide = values > _MASK32
    for lanes, n_value_words in ((~wide, 1), (wide, 2)):
        v = values[lanes]
        words = [np.full(v.size, w, np.uint32) for w in prefix]
        words += [(v >> np.uint64(32 * j) & np.uint64(_MASK32)).astype(np.uint32)
                  for j in range(n_value_words)]
        out[lanes] = _seed_words(words, n_words)
    return out


def _as_u64(words: np.ndarray) -> np.ndarray:
    """uint32 words read pairwise as little-endian uint64, as ``generate_state`` does."""
    return words.astype("<u4").view("<u8").astype(np.uint64)


def derive_seed(master_seed: int, index: int | np.ndarray) -> int | np.ndarray:
    """Deterministic per-trajectory 64-bit seed from (master seed, index).

    The seed is ``SeedSequence([master_seed, index]).generate_state(1, uint64)``.
    ``index`` is an integer, which gives an int, or a 1-D integer array, which
    gives a uint64 array with one seed per entry. Every entry must be a
    nonnegative integer (no boolean, no float, however integral); anything
    else is an InvalidArgument.
    """
    master = _int_words(_master_seed(master_seed))
    if not isinstance(index, np.ndarray):
        index = _int_words(_numbers(int, [index], "index", least=0)[0])
        words = _seed_words([np.array([w], np.uint32) for w in master + index], 2)
        return int(_as_u64(words)[0, 0])
    if index.ndim != 1 or index.dtype.kind not in "iu":
        raise InvalidArgument(f"index must be an integer or a 1-d integer array, got {index!r}")
    if index.size and index.min() < 0:
        raise InvalidArgument(f"index must be >= 0, got {index.min()}")
    return _as_u64(_lane_words(master, index, 2))[:, 0]


def _generators(seeds: np.ndarray) -> list:
    """``[np.random.default_rng(s) for s in seeds]``, with every seed hashed in one pass.

    PCG64 seeds itself from four uint64 words of its seed sequence; they are
    computed here for all seeds at once and handed over unchanged. numpy.random
    is imported here, not with the module: it costs ~10 ms, and only a pass needs it.
    """
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, np.dtype(dtype)) != (4, np.dtype(np.uint64)):
                raise ValueError(f"only PCG64's 4 uint64 words are held, not {n_words} {dtype}")
            return self.words

    words = _as_u64(_lane_words([], seeds, 8))
    return [np.random.Generator(np.random.PCG64(Words(row))) for row in words]


def sample_trajectory(chain: ReversibleChain, f: Observable, length: int, seed: int) -> Trajectory:
    """Draw a stationary path of the given length, deterministically in seed.

    The generator consumes exactly ``length + 1`` uniforms in order: one
    inverse-CDF draw from the stationary law for the start, then one per
    transition. Batch simulators elsewhere reproduce single paths by
    honoring the same protocol. Each draw is one ``bisect_right`` over only
    the row it needs: ``entry <= u`` holds on a prefix of every cumulative
    row (its pinned last entry is 1.0 > u), so the bisection counts that
    prefix, which is always shorter than the number of states.
    """
    length = _counts([length], "length", least=1)[0]
    _fits(length + 1, "the path's length + 1 states")
    seed = _numbers(int, [seed], "seed", least=0)[0]
    require_centered(chain, f)
    rng = np.random.default_rng(seed)
    u = rng.random(length + 1).tolist()
    cum_pi, cum_rows = _cumulative_tables(chain)
    rows = list(cum_rows)

    states = np.empty(length + 1, dtype=np.int64)
    s = states[0] = bisect_right(cum_pi, u[0])
    for t in range(1, length + 1):
        s = states[t] = bisect_right(rows[s], u[t])

    x = f.values[states]
    partial = np.concatenate(([0.0], exact_cumsum(x[1:])))
    return Trajectory(states=states, observables=x, partial_sums=partial, seed=seed)
