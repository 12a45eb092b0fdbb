"""Per-layer spans and counters for one traced ``rclt run``, from outside the package.

Each public function is wrapped where its caller looks it up: the names
that ``rclt.cli``, ``rclt.limits``, ``rclt.spectral`` and
``rclt.decomposition`` imported are rebound, as are the CLI's runner table,
``ExperimentConfig.config_hash`` and numpy's ``eigh``/``eigvalsh``/``solve``.
No file of the package changes. A span's self time is its duration minus
the time of the spans it encloses, so self times add up without overlap.
"""
from __future__ import annotations

import inspect
import time
from collections import defaultdict

import numpy as np

_LIMIT_SPANS = ("limits.clt", "limits.fclt", "limits.ui", "limits.maximal")


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [span name, seconds spent in enclosed spans]
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)

    def wrap(self, name, fn, calls=None, count=None):
        """``fn`` timed as span ``name``.

        Each call adds one to counter ``calls``, and ``count(counts,
        arguments, result)`` runs after it with the bound arguments.
        """
        signature = inspect.signature(fn) if count else None

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                self.self_s[name] += elapsed - frame[1]
                self.total_s[name] += elapsed
                if self.stack:
                    self.stack[-1][1] += elapsed
            if calls:
                self.counts[calls] += 1
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counts, bound.arguments, result)
            return result

        return traced

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def metrics(self) -> dict[str, float]:
        s, c = self.self_s, self.counts
        limits_s = sum(self.total_s[name] for name in _LIMIT_SPANS)
        return {
            "cli.load_config_s": s["cli.load_config"],
            "cli.config_hash_s": s["cli.config_hash"],
            "cli.persist_s": s["cli.persist"],
            "chain.admit_s": s["chain.admit"],
            "chain.sample_s": s["chain.sample"],
            "chain.sample_steps": c["chain.sample_steps"],
            "chain.derive_seed_calls": c["chain.derive_seed_calls"],
            "chain.derive_seed_s": s["chain.derive_seed"],
            "spectral.eigensolves": c["spectral.eigensolves"],
            "spectral.eigensolve_s": s["spectral.eigensolve"],
            "spectral.linear_solves": c["spectral.linear_solves"],
            "spectral.measure_s": s["spectral.measure"],
            "spectral.variance_report_s": s["spectral.variance_report"],
            "spectral.poisson_s": s["spectral.poisson"],
            "decomposition.decompose_s": s["decomposition.decompose"],
            "decomposition.positions": c["decomposition.positions"],
            "decomposition.horizon_matvecs": c["decomposition.horizon_matvecs"],
            "decomposition.residual_margin": c["decomposition.residual_margin"],
            "limits.clt_s": s["limits.clt"],
            "limits.fclt_s": s["limits.fclt"],
            "limits.ui_s": s["limits.ui"],
            "limits.maximal_s": s["limits.maximal"],
            "limits.replica_steps": c["limits.replica_steps"],
            "limits.replica_steps_per_s": c["limits.replica_steps"] / limits_s if limits_s else 0.0,
        }


# --- counters: (counts, bound arguments, result) ----------------------------------


def _replica_steps(counts, a, result):
    """Replica steps m * (n + 1) of one Monte Carlo check, from its arguments."""
    if "n_list" in a:
        counts["limits.replica_steps"] += sum(a["m"] * (n + 1) for n in a["n_list"])
    elif not a.get("exhaustive", False):
        counts["limits.replica_steps"] += a["m"] * (a["n"] + 1)


def _sample_steps(counts, a, result):
    counts["chain.sample_steps"] += a["length"]


def _decomposition(counts, a, terms):
    from rclt.decomposition import IDENTITY_TOL

    counts["decomposition.positions"] += a["traj"].length + 1
    counts["decomposition.horizon_matvecs"] += terms.horizon
    worst = max(terms.max_pair_residual, terms.max_decomposition_residual) / IDENTITY_TOL
    counts["decomposition.residual_margin"] = max(counts["decomposition.residual_margin"], worst)


def install(cli) -> Tracer:
    """Rebind the layer entry points seen by ``cli`` and the modules it calls."""
    import rclt.decomposition as decomposition
    import rclt.limits as limits
    import rclt.spectral as spectral

    tracer = Tracer()

    def rebind(modules, attr, name, calls=None, count=None):
        original = getattr(modules[0], attr)
        if any(getattr(module, attr) is not original for module in modules):
            raise RuntimeError(f"{attr} is not one function across {modules}")
        wrapper = tracer.wrap(name, original, calls, count)
        for module in modules:
            setattr(module, attr, wrapper)

    rebind([cli], "load_config", "cli.load_config")
    cli.ExperimentConfig.config_hash = tracer.wrap(
        "cli.config_hash", cli.ExperimentConfig.config_hash
    )
    for command, runner in list(cli._RUNNERS.items()):
        cli._RUNNERS[command] = tracer.wrap("cli.persist", runner)

    for attr in ("build_chain", "build_random_walk", "build_metropolis"):
        rebind([cli], attr, "chain.admit")
    rebind([cli], "sample_trajectory", "chain.sample", count=_sample_steps)
    rebind([limits], "derive_seed", "chain.derive_seed", calls="chain.derive_seed_calls")

    rebind([cli, limits, spectral, decomposition], "spectral_measure", "spectral.measure")
    rebind([cli], "variance_report", "spectral.variance_report")
    rebind([spectral, decomposition], "poisson_solve", "spectral.poisson")
    for attr in ("eigh", "eigvalsh"):
        rebind([np.linalg], attr, "spectral.eigensolve", calls="spectral.eigensolves")
    solve = np.linalg.solve

    def counted_solve(*args, **kwargs):
        if tracer.inside("spectral.poisson"):
            tracer.counts["spectral.linear_solves"] += 1
        return solve(*args, **kwargs)

    np.linalg.solve = counted_solve

    rebind([cli], "decompose_trajectory", "decomposition.decompose", count=_decomposition)
    rebind([cli], "clt_test", "limits.clt", count=_replica_steps)
    rebind([cli], "fclt_profile", "limits.fclt", count=_replica_steps)
    rebind([cli], "uniform_integrability_diagnostic", "limits.ui", count=_replica_steps)
    rebind([cli], "maximal_inequality_check", "limits.maximal", count=_replica_steps)
    return tracer
