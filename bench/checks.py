"""Value checks of the reports one ``rclt run`` wrote.

Reports are compared field by field, never by whole-file digest, so a
report that gains fields still passes. Each config command is one
operation with one of these outcomes:

- ``ok``: the report exists, its values match the references and its
  verdict, if it has one, is ``passed``;
- ``verdict``: the values match but the seeded check did not pass;
- ``missing``: no report, because the run stopped before the command;
- ``mismatch``: a value differs from its reference, which makes the run
  incorrect.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import reference

#: certified level of both decomposition identities
IDENTITY_TOL = 1e-12
#: relative agreement demanded of every sigma^2 route and of the spectral mass
VALUE_RTOL = 1e-8


class Expectations:
    """References for every command of one generated workload.

    ``commands`` are the config's (name, params) pairs, every parameter given.
    ``admit()`` returns the (kernel, stationary, observable) triple the
    package admits, which feeds the exact Monte Carlo references; it is
    called only when the config has Monte Carlo commands. ``inputs`` is the
    generator's own chain, which feeds sigma^2.
    """

    def __init__(self, commands, inputs, admit):
        self.commands = commands
        self.master_seed = inputs.master_seed
        self.sigma2 = reference.sigma2_reference(inputs.kernel, inputs.stationary, inputs.observable)
        self.mass = float(np.dot(inputs.stationary * inputs.observable, inputs.observable))

        mc = {
            name: params
            for name, params in commands
            if name in ("clt", "fclt", "ui-diagnostic")
            or (name == "maximal" and not params["exhaustive"])
        }
        self.replicas = None
        if mc:
            self.admitted = kernel, stationary, values = admit()
            ui = mc.get("ui-diagnostic")
            snapshots = {
                int(math.floor(p["n"] * t))
                for name, p in mc.items()
                if name in ("clt", "fclt")
                for t in p.get("grid", [1.0])
            }
            self.replicas = reference.ReplicaPass(
                kernel,
                stationary,
                values,
                self.master_seed,
                m=max(p["m"] for p in mc.values()),
                n=max(max(p["n_list"]) if k == "ui-diagnostic" else p["n"] for k, p in mc.items()),
                snapshot_times=snapshots,
                peak_m=ui["m"] if ui else 0,
                peak_times=ui["n_list"] if ui else (),
                path_steps=mc["maximal"]["n"] if "maximal" in mc else 0,
            )

    def check_run(self, outdir: Path) -> list[tuple[str, str, str]]:
        """(operation, outcome, detail) for every config command."""
        results = []
        for index, (name, params) in enumerate(self.commands):
            stem = name.replace("-", "_")
            op = f"{index}:{name}"
            report_path = outdir / f"{stem}.json"
            if not report_path.exists():
                results.append((op, "missing", "no report"))
                continue
            try:
                report = json.loads(report_path.read_text())
                problems = _CHECKS[name](self, report, params, outdir / f"{stem}.csv")
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                results.append((op, "mismatch", f"unreadable output: {exc!r}"))
                continue
            if problems:
                results.append((op, "mismatch", "; ".join(problems)))
            elif report.get("passed", True) is not True:
                results.append((op, "verdict", "; ".join(report.get("failures", [])) or "not passed"))
            else:
                results.append((op, "ok", ""))
        return results

    # --- per-command checks; each returns a list of problems --------------------------

    def _sigma2_problems(self, label: str, value) -> list[str]:
        if value is None or abs(value - self.sigma2) > VALUE_RTOL * abs(self.sigma2):
            return [f"{label} {value!r} vs reference {self.sigma2!r}"]
        return []

    def _spectrum(self, report, params, csv_path):
        mass = report.get("total_mass")
        if mass is None or abs(mass - self.mass) > VALUE_RTOL * self.mass:
            return [f"total_mass {mass!r} vs E f^2 {self.mass!r}"]
        return []

    def _variance(self, report, params, csv_path):
        problems = []
        for key in ("sigma2_spectral", "sigma2_poisson", "sigma2_series"):
            problems += self._sigma2_problems(key, report.get(key))
        if len(report.get("var_over_n", [])) != params["n_max"]:
            problems.append("var_over_n has the wrong length")
        return problems

    def _decompose(self, report, params, csv_path):
        problems = []
        for key in ("max_pair_residual", "max_decomposition_residual"):
            value = report.get(key)
            if value is None or not value <= IDENTITY_TOL:
                problems.append(f"{key} {value!r} exceeds {IDENTITY_TOL}")
        if report.get("length") != params["length"]:
            problems.append(f"length {report.get('length')!r}")
        horizon = params["length"] if params["horizon"] is None else params["horizon"]
        if report.get("horizon") != horizon:
            problems.append(f"horizon {report.get('horizon')!r}")
        seed = reference.replica_seed(self.master_seed, params["seed_index"])
        if report.get("trajectory_seed") != seed:
            problems.append(f"trajectory_seed {report.get('trajectory_seed')!r} vs {seed}")
        return problems

    def _clt(self, report, params, csv_path):
        problems = self._sigma2_problems("sigma2_used", report.get("sigma2_used"))
        if problems:
            return problems
        sums = self.replicas.sums[params["n"]][: params["m"]]
        z, ks = reference.clt_values(sums, report["sigma2_used"], params["n"])
        if report.get("ks_statistic") != ks:
            problems.append(f"ks_statistic {report.get('ks_statistic')!r} vs {ks!r}")
        if not csv_path.exists():
            return problems + ["clt.csv missing"]
        with open(csv_path) as handle:
            rows = [row for row in csv.reader(handle) if row and not row[0].startswith("#")]
        written = np.array([float(row[1]) for row in rows[1:]])
        if written.shape != z.shape or not np.array_equal(written, z):
            problems.append("normalized sums differ from the reference")
        return problems

    def _fclt(self, report, params, csv_path):
        problems = self._sigma2_problems("sigma2_used", report.get("sigma2_used"))
        variance, covariance = reference.fclt_tables(
            self.replicas, params["n"], params["m"], params["grid"]
        )
        if report.get("variance_profile") != variance:
            problems.append("variance_profile differs from the reference")
        if report.get("covariance_profile") != covariance:
            problems.append("covariance_profile differs from the reference")
        return problems

    def _ui(self, report, params, csv_path):
        table = reference.ui_table(
            self.replicas, params["n_list"], params["epsilon_grid"], params["m"]
        )
        return [] if report.get("ui_table") == table else ["ui_table differs from the reference"]

    def _maximal(self, report, params, csv_path):
        if params["exhaustive"]:
            return []
        kernel, stationary, values = self.admitted
        margins = reference.maximal_margins(
            self.replicas, kernel, stationary, values, params["n"], params["m"],
            params["lambdas"], params["mode"], params["two_sided"],
        )
        if report.get("maximal_margins") != margins:
            return ["maximal_margins differ from the reference"]
        return []


_CHECKS = {
    "spectrum": Expectations._spectrum,
    "variance": Expectations._variance,
    "decompose": Expectations._decompose,
    "clt": Expectations._clt,
    "fclt": Expectations._fclt,
    "ui-diagnostic": Expectations._ui,
    "maximal": Expectations._maximal,
}
