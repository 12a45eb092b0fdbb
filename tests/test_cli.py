from __future__ import annotations

import errno
import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rclt
from rclt import cli
from rclt.cli import (
    COMMANDS,
    DEFAULT_PARAMS,
    SCHEMA_VERSION,
    _write_csv,
    build_chain_from_definition,
    load_config,
    main,
    run,
    validate,
)
from rclt.errors import ConfigError

from .fixture_chains import cycle_metropolis

TWO_STATE = {"kind": "kernel", "matrix": [[0.75, 0.25], [0.25, 0.75]], "observable": [1.0, -1.0]}
FLIP = {"kind": "kernel", "matrix": [[0.0, 1.0], [1.0, 0.0]], "observable": [1.0, -1.0]}


def _write(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def _config(tmp_path: Path, commands, chain=TWO_STATE, seed=4242, name="config.json", **extra):
    # each config names its own chain file, so a later config cannot repoint an earlier one
    chain_file = _write(tmp_path / f"{Path(name).stem}.chain.json", chain)
    payload = {
        "schema": 1,
        "chain_spec": chain_file.name,
        "commands": commands,
        "output_dir": "out",
        **extra,
    }
    if seed is not None:
        payload.setdefault("master_seed", seed)
    return _write(tmp_path / name, payload)


def test_load_config_missing_file(tmp_path) -> None:
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.json")


def test_load_config_missing_chain_file(tmp_path) -> None:
    cfg = _write(
        tmp_path / "config.json",
        {"chain_spec": "absent.json", "commands": ["spectrum"], "output_dir": "out"},
    )
    with pytest.raises(ConfigError):
        load_config(cfg)
    assert not (tmp_path / "out").exists()


def test_load_config_unknown_command(tmp_path) -> None:
    cfg = _config(tmp_path, ["spectral-flux"])
    with pytest.raises(ConfigError):
        load_config(cfg)


def _validated(cfg: Path) -> list[str]:
    return validate(load_config(cfg))


def test_load_config_requires_seed_for_monte_carlo(tmp_path) -> None:
    cfg = _config(tmp_path, [{"command": "clt", "params": {"n": 10, "m": 10}}], seed=None)
    with pytest.raises(ConfigError, match="master seed is missing"):
        _validated(cfg)


@pytest.mark.parametrize(
    ("params", "judge"),
    [({"ks_treshold": 0.5}, load_config), ({"n": True}, _validated), ({"m": False}, _validated),
     ({"n": 2.5}, _validated)],
    ids=["typo", "bool-n", "bool-m", "float-n"],
)
def test_load_config_rejects_unknown_or_mistyped_params(tmp_path, params, judge) -> None:
    """A misspelled name fails to load; a mistyped value is judged by the command's reader."""
    cfg = _config(tmp_path, [{"command": "clt", "params": params}])
    with pytest.raises(ConfigError):
        judge(cfg)


def test_load_config_accepts_boolean_flags(tmp_path) -> None:
    cfg = _config(tmp_path, [{"command": "maximal", "params": {"two_sided": True}}])
    assert load_config(cfg).commands[0][1]["two_sided"] is True


def test_exhaustive_maximal_needs_no_seed(tmp_path) -> None:
    cfg = _config(tmp_path, [{"command": "maximal", "params": {"n": 4}}], seed=None)
    config = load_config(cfg)
    manifest = run(config)
    assert "maximal" in manifest.outputs
    payload = json.loads((tmp_path / "out" / "maximal.json").read_text())
    assert payload["exact"] is True


def test_validate_degenerate_variance(tmp_path) -> None:
    cfg = _config(tmp_path, [{"command": "clt", "params": {"n": 10, "m": 10}}], chain=FLIP)
    with pytest.raises(rclt.DegenerateVariance, match="asymptotic variance 0.000e"):
        validate(load_config(cfg))


def test_validate_flags_uncentered_observable(tmp_path) -> None:
    cfg = _config(tmp_path, ["spectrum"], observable=[1.0, 0.0])
    diagnostics = validate(load_config(cfg))
    assert any("auto-centered" in d for d in diagnostics)


def test_validate_clean_config(tmp_path) -> None:
    cfg = _config(tmp_path, ["spectrum", "variance"])
    assert validate(load_config(cfg)) == []


def test_validate_reports_inadmissible_chain(tmp_path) -> None:
    bad = {"kind": "kernel", "matrix": [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]}
    cfg = _config(tmp_path, ["spectrum"], chain=bad, observable=[1.0, 0.0, -1.0])
    with pytest.raises(rclt.NotReversible):
        validate(load_config(cfg))
    ragged = {"kind": "kernel", "matrix": [[0.5, 0.5], [1.0]]}
    cfg = _config(tmp_path, ["spectrum"], chain=ragged, observable=[1.0, -1.0])
    with pytest.raises(rclt.MalformedMatrix):
        validate(load_config(cfg))


def test_spectrum_report_content(tmp_path) -> None:
    cfg = _config(tmp_path, ["spectrum"])
    run(load_config(cfg))
    payload = json.loads((tmp_path / "out" / "spectrum.json").read_text())
    assert payload["schema"] == 1
    assert payload["atoms"] == [[0.5, 1.0]]
    assert payload["total_mass"] == 1.0


def test_chain_definition_round_trip(tmp_path) -> None:
    chain = cycle_metropolis()
    target = tmp_path / "written.json"
    definition = {"kind": "kernel", "matrix": chain.kernel.tolist(), "observable": [0.3, 1.7, -1.1]}
    target.write_text(json.dumps(definition))
    rebuilt = build_chain_from_definition(json.loads(target.read_text()))
    np.testing.assert_allclose(rebuilt.kernel, chain.kernel, atol=1e-15)
    np.testing.assert_allclose(rebuilt.stationary, chain.stationary, atol=1e-15)


#: SHA-256 of every report of test_run_is_byte_reproducible, recorded on
#: x86-64 Linux (numpy with OpenBLAS); a change in any report byte shows here
REPORT_DIGESTS = {
    "clt.csv": "8c1e166bc81c2783bd545637076d28f6ccb37cd782c737585ee85dc088035bcb",
    "clt.json": "3d467a0c51e52dae496fe7ade2ecbee1eb61146a5e068535299fe87fdf3f9868",
    "decompose.csv": "756c567907f58442473b0008fe51a22932f555309d93c992fbcf681274cd84b9",
    "decompose.json": "cd3e08caddd6471aa1e01ad4d0c446e7bc8cedf26b8dab0f12bda3d2c4d0b45c",
    "fclt.json": "946a16d0a4e9f9938e83d2c0e44e68055352d8f5cea4b056d9c49cee854d0045",
    "maximal.json": "8897aa399055836f3088dbb48924c915c00362278f0da938429c84801405fe55",
    "spectrum.json": "2a9b492dd83eb823e273651e1563a8c7c93b4e0a7eaa42760e0068c15f0ca6b5",
    "ui_diagnostic.json": "442a7919cc8b7f112d78563cb69ededa20b66085aea556e518cb4606d2de3a23",
    "variance.csv": "8d16d9b9c296839c9e599ddab6a2ed8d809d6484e7944dcb173bab8ef59f5c72",
    "variance.json": "0d3394d56317c3dda55e4a888417dc3fd26be3c145e4cc50f01e747e7452c507",
}


def test_run_is_byte_reproducible(tmp_path) -> None:
    commands = [
        "spectrum",
        {"command": "variance", "params": {"n_max": 100}},
        {"command": "decompose", "params": {"length": 40}},
        {"command": "clt", "params": {"n": 100, "m": 200, "ks_threshold": 0.2}},
        {"command": "fclt", "params": {"n": 100, "m": 200, "grid": [0.5, 1.0]}},
        {"command": "maximal", "params": {"n": 4}},
        {"command": "ui-diagnostic", "params": {"n_list": [20], "epsilon_grid": [1.0], "m": 50}},
    ]
    cfg = _config(tmp_path, commands)
    config_a = load_config(cfg, out_override="out_a")
    config_b = load_config(cfg, out_override="out_b")
    manifest_a = run(config_a)
    manifest_b = run(config_b)
    assert manifest_a.config_hash == manifest_b.config_hash
    names = sorted(p.name for p in (tmp_path / "out_a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "out_b").iterdir())
    assert names == sorted([*REPORT_DIGESTS, "manifest.json"])
    for name in names:
        if name == "manifest.json":
            a = json.loads((tmp_path / "out_a" / name).read_text())
            b = json.loads((tmp_path / "out_b" / name).read_text())
            a.pop("timings")
            b.pop("timings")
            assert a == b
        else:
            data = (tmp_path / "out_a" / name).read_bytes()
            assert data == (tmp_path / "out_b" / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == REPORT_DIGESTS[name], name


_SPECIAL = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e16, 0.1 + 0.2]
_SPECIAL += [-float("nan"), 0.1 + 0.2, -0.0, 0.0, 5e-324, float("nan"), 1e16, -0.0]


@pytest.mark.parametrize(
    "columns",
    [
        {"k": range(16), "x": _SPECIAL, "y": np.array(_SPECIAL[::-1])},
        {"k": range(1), "x": np.array([2.5])},
        {"replica": range(500), "z": np.random.default_rng(5).normal(size=500)},
        {"k": range(4), "x": np.arange(8.0)[::2]},  # a strided view
        {"n": range(1, 4)},
    ],
    ids=["special-values", "one-row", "all-distinct", "strided", "range-only"],
)
def test_csv_floats_are_their_repr(tmp_path, columns) -> None:
    """The CSV equals the plain formula: ``str`` of each index, ``repr`` of each float."""
    cells = [map(str, c) if isinstance(c, range) else map(repr, np.asarray(c, dtype=float).tolist())
             for c in columns.values()]
    lines = [f"# schema={SCHEMA_VERSION}", ",".join(columns), *map(",".join, zip(*cells))]
    _write_csv(tmp_path / "out.csv", columns)
    assert (tmp_path / "out.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize(
    "earlier",
    [
        None,
        ["spectrum", "variance"],
        ["spectrum", {"command": "clt", "params": {"n": 20, "m": 20, "ks_threshold": 1.0}}],
    ],
    ids=["fresh-out", "after-a-good-run", "after-a-run-of-its-own-names"],
)
def test_numerical_failure_removes_partial_outputs(tmp_path, earlier) -> None:
    """A failed run leaves no file it names, and no manifest, an earlier run's included.

    The earlier run's files of other names stay: the failed run never touches them.
    """
    out = tmp_path / "out"
    if earlier:
        run(load_config(_config(tmp_path, earlier, name="good.json")))
        assert (out / "manifest.json").exists()
    before = {p.name for p in out.iterdir()} if earlier else set()
    commands = ["spectrum", {"command": "clt", "params": {"n": 20, "m": 20}}]
    cfg = _config(tmp_path, commands, chain=FLIP)
    with pytest.raises(rclt.DegenerateVariance):
        run(load_config(cfg))
    named = {"manifest.json", "spectrum.json", "clt.json", "clt.csv"}
    assert {p.name for p in out.iterdir()} == before - named


@pytest.mark.parametrize(
    "failing", ["spectrum.json", "variance.json", "variance.csv", "manifest.json"]
)
def test_a_failed_write_leaves_no_file_of_the_run(tmp_path, capsys, monkeypatch, failing) -> None:
    """A full disk at any report, CSV or the manifest is exit 2 naming the path; out/ is emptied."""
    cfg = _config(tmp_path, ["spectrum", "variance"])
    replace = os.replace

    def full_disk(src, dst):
        if Path(dst).name == failing:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", full_disk)
    assert main(["run", "--config", str(cfg)]) == 2
    path = load_config(cfg).output_dir / failing
    err = f"config error: cannot write {path}: {os.strerror(errno.ENOSPC)}\n"
    assert capsys.readouterr() == ("", err)
    assert list((tmp_path / "out").iterdir()) == []


def test_a_tmp_name_taken_by_a_directory_leaves_no_file_of_the_run(tmp_path, capsys) -> None:
    """``_write`` cannot remove a ``.tmp`` directory: that OSError still empties out/ of the run."""
    cfg = _config(tmp_path, ["spectrum", "variance"])
    (tmp_path / "out" / "variance.json.tmp").mkdir(parents=True)
    assert main(["run", "--config", str(cfg)]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["variance.json.tmp"]


def test_a_report_name_taken_by_a_directory_is_exit_2(tmp_path, capsys) -> None:
    """The directory cannot be removed and stays; every other file the run names goes."""
    cfg = _config(tmp_path, ["spectrum", "variance"])
    run(load_config(cfg))
    (tmp_path / "out" / "variance.json").unlink()
    (tmp_path / "out" / "variance.json").mkdir()
    assert main(["run", "--config", str(cfg)]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["variance.json"]


def test_a_rejected_chain_leaves_no_earlier_file_of_its_names(tmp_path, capsys) -> None:
    """A chain that setup rejects (exit 3) leaves no manifest and no report of the run's names."""
    run(load_config(_config(tmp_path, ["spectrum", "variance", "decompose"], name="good.json")))
    cycle = {"kind": "kernel", "matrix": [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]],
             "observable": [1.0, 0.0, -1.0]}
    assert main(["run", "--config", str(_config(tmp_path, ["spectrum", "variance"], chain=cycle))]) == 3
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["decompose.csv", "decompose.json"]


_MAXIMAL_EXACT = {"command": "maximal", "params": {"n": 4, "lambdas": [0], "exhaustive": True}}
_UI = {"command": "ui-diagnostic", "params": {"n_list": [5], "m": 50}}


@pytest.mark.parametrize(
    ("commands", "report"),
    [([_MAXIMAL_EXACT, _UI], "maximal.json"), ([_UI], "ui_diagnostic.json")],
    ids=["maximal-first", "ui-diagnostic-alone"],
)
def test_a_report_that_would_hold_a_non_finite_number_is_exit_3(
    tmp_path, capsys, commands, report
) -> None:
    """An observable of +-1e160 overflows both sides: no report holds NaN or Infinity.

    ``validate`` runs no pass and exits 0; ``run`` exits 3 with one line and leaves no file.
    """
    chain = {**TWO_STATE, "observable": [1e160, -1e160]}
    cfg = _config(tmp_path, commands, chain=chain, seed=1)
    assert main(["validate", "--config", str(cfg)]) == 0
    assert main(["run", "--config", str(cfg)]) == 3
    assert capsys.readouterr() == ("", f"numerical error: {report} would hold a non-finite number\n")
    assert list((tmp_path / "out").iterdir()) == []


def test_a_failed_mkdir_is_exit_2_naming_the_path(tmp_path, capsys, monkeypatch) -> None:
    cfg = _config(tmp_path, ["spectrum"], output_dir="made/out")

    def refused(self, *args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))

    monkeypatch.setattr(Path, "mkdir", refused)
    assert main(["run", "--config", str(cfg)]) == 2
    path = load_config(cfg).output_dir
    err = f"config error: cannot use {path}: {os.strerror(errno.EACCES)}\n"
    assert capsys.readouterr() == ("", err)
    assert not (tmp_path / "made").exists()


def test_statistical_failure_keeps_reports(tmp_path, capsys) -> None:
    commands = [{"command": "clt", "params": {"n": 50, "m": 100, "ks_threshold": 1e-9}}]
    cfg = _config(tmp_path, commands)
    code = main(["run", "--config", str(cfg)])
    assert code == 4
    assert (tmp_path / "out" / "clt.json").exists()
    payload = json.loads((tmp_path / "out" / "clt.json").read_text())
    assert payload["passed"] is False
    # the CLI reports the library's own verdict
    chain = build_chain_from_definition(TWO_STATE)
    f = rclt.project_mean_zero(TWO_STATE["observable"], chain)
    report = rclt.clt_test(chain, f, n=50, m=100, seed=4242, ks_threshold=1e-9)
    assert not report.passed
    expected = "statistical failure: clt: " + "; ".join(report.failures) + "\n"
    assert capsys.readouterr().err == expected
    # a failing rerun into an earlier run's out/ keeps only the reports it wrote of its names
    rerun = tmp_path / "rerun"
    rerun.mkdir()
    run(load_config(_config(rerun, ["spectrum", "variance"], name="good.json")))
    code = main(["run", "--config", str(_config(rerun, ["spectrum", *commands, "variance"]))])
    assert code == 4
    assert sorted(p.name for p in (rerun / "out").iterdir()) == ["clt.csv", "clt.json", "spectrum.json"]


@pytest.mark.parametrize(
    ("chain", "command", "extra", "code"),
    [
        (
            {"kind": "random_walk", "matrix": [[0.5, 1.0], [0.2, 0.5]], "observable": [1, -1]},
            "spectrum",
            {},
            3,
        ),
        ({"kind": "kernel", "matrix": [[0.5, 0.5], [1.0]], "observable": [1, -1]}, "spectrum", {}, 3),
        ({"kind": "kernel", "matrix": [["a", 1], [0, 1]], "observable": [1, -1]}, "spectrum", {}, 3),
        (
            {"kind": "metropolis", "matrix": [[0.5, 0.5], [1.0]], "target": [1, 1],
             "observable": [1, -1]},
            "spectrum",
            {},
            3,
        ),
        (TWO_STATE, "spectrum", {"observable": [1.0, 0.0, -1.0]}, 2),
        (TWO_STATE, {"command": "fclt", "params": {"grid": [0.5, 2.0]}}, {}, 2),
        (TWO_STATE, {"command": "maximal", "params": {"mode": "sideways"}}, {}, 2),
        (
            {"kind": "metropolis", "matrix": [[0.5, 0.5], [0.5, 0.5]], "target": [1, [2, 3]],
             "observable": [1, -1]},
            "spectrum",
            {},
            3,
        ),
        (TWO_STATE, "spectrum", {"observable": ["a", "b"]}, 2),
        ({**TWO_STATE, "observable": ["a", "b"]}, "spectrum", {}, 2),
        (TWO_STATE, "clt", {"master_seed": True}, 2),
        (TWO_STATE, "clt", {"master_seed": 1.7}, 2),
        (TWO_STATE, "clt", {"master_seed": 2**70}, 2),
        (TWO_STATE, {"command": "ui-diagnostic", "params": {"n_list": ["a"]}}, {}, 2),
        (TWO_STATE, {"command": "ui-diagnostic", "params": {"n_list": [10.7]}}, {}, 2),
        (TWO_STATE, {"command": "ui-diagnostic", "params": {"n_list": []}}, {}, 2),
        (TWO_STATE, {"command": "ui-diagnostic", "params": {"epsilon_grid": [None]}}, {}, 2),
        (TWO_STATE, {"command": "fclt", "params": {"grid": ["x"]}}, {}, 2),
        (TWO_STATE, {"command": "fclt", "params": {"grid": [True]}}, {}, 2),
        (TWO_STATE, {"command": "fclt", "params": {"grid": [0.5, float("nan")]}}, {}, 2),
        (TWO_STATE, {"command": "maximal", "params": {"lambdas": ["x"]}}, {}, 2),
        (TWO_STATE, {"command": "maximal", "params": {"lambdas": [float("nan")]}}, {}, 2),
        (TWO_STATE, {"command": "ui-diagnostic", "params": {"epsilon_grid": [float("inf")]}}, {}, 2),
        (TWO_STATE, {"command": "clt", "params": {"ks_threshold": float("inf")}}, {}, 2),
        (TWO_STATE, {"command": "clt", "params": {"n": 0}}, {}, 2),
        (TWO_STATE, {"command": "clt", "params": {"m": -3}}, {}, 2),
        (TWO_STATE, {"command": "ui-diagnostic", "params": {"m": 0}}, {}, 2),
        (TWO_STATE, {"command": "decompose", "params": {"length": 0}}, {}, 2),
        (TWO_STATE, {"command": "maximal", "params": {"exhaustive": False}}, {}, 2),
        (TWO_STATE, {"command": "fclt", "params": {"grid": []}}, {}, 2),
        (TWO_STATE, {"command": "maximal", "params": {"lambdas": []}}, {}, 2),
        (TWO_STATE, {"command": "ui-diagnostic", "params": {"epsilon_grid": []}}, {}, 2),
        ({**TWO_STATE, "matrix": [[10**400, 0.25], [0.25, 0.75]]}, "spectrum", {}, 3),
        (TWO_STATE, "spectrum", {"observable": [10**400, -1.0]}, 2),
        ({**TWO_STATE, "observable": [10**400, -1.0]}, "spectrum", {}, 2),
        ({**TWO_STATE, "matrix": [["0.75", "0.25"], ["0.25", "0.75"]]}, "spectrum", {}, 3),
        ({**TWO_STATE, "observable": ["1", "-1"]}, "spectrum", {}, 2),
        (TWO_STATE, "spectrum", {"observable": [True, False]}, 2),
        (TWO_STATE, "spectrum", {"observable": [True, -1.0]}, 2),
        (TWO_STATE, {"command": "maximal", "params": {"m": "x"}}, {}, 2),
        (
            {"kind": "metropolis", "matrix": [[0.5, 0.5], [0.5, float("nan")]], "target": [1, 1],
             "observable": [1, -1]},
            "spectrum",
            {},
            3,
        ),
        ({**TWO_STATE, "matrix": [[0.5, 0.5], [True, 0.0]]}, "spectrum", {}, 3),
        ({**TWO_STATE, "observable": [True, -1.0]}, "spectrum", {}, 2),
    ],
    ids=[
        "asymmetric-weights",
        "ragged-matrix",
        "non-numeric-matrix",
        "ragged-proposal",
        "observable-length",
        "fclt-grid",
        "maximal-mode",
        "ragged-target",
        "config-observable-strings",
        "chain-observable-strings",
        "seed-bool",
        "seed-float",
        "seed-over-64-bits",
        "ui-n-list-string",
        "ui-n-list-float",
        "ui-n-list-empty",
        "ui-epsilon-null",
        "fclt-grid-string",
        "fclt-grid-bool",
        "fclt-grid-nan",
        "maximal-lambda-string",
        "maximal-lambda-nan",
        "ui-epsilon-infinity",
        "clt-ks-threshold-infinity",
        "clt-n-zero",
        "clt-m-negative",
        "ui-m-zero",
        "decompose-length-zero",
        "maximal-monte-carlo-without-m",
        "fclt-grid-empty",
        "maximal-lambdas-empty",
        "ui-epsilon-grid-empty",
        "matrix-huge-integer",
        "config-observable-huge-integer",
        "chain-observable-huge-integer",
        "matrix-numeric-strings",
        "chain-observable-numeric-strings",
        "config-observable-booleans",
        "config-observable-mixed-boolean",
        "maximal-exhaustive-m-text",
        "metropolis-proposal-nan-diagonal",
        "matrix-boolean-among-numbers",
        "chain-observable-boolean-among-numbers",
    ],
)
def test_bad_config_exits_with_one_line(tmp_path, capsys, chain, command, extra, code) -> None:
    cfg = _config(tmp_path, [command], chain=chain, **extra)
    assert main(["run", "--config", str(cfg)]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


_BASE = {"chain_spec": "chain.json", "commands": ["spectrum"], "master_seed": 4242, "output_dir": "out"}
#: a JSON array nested deeper than the parser's recursion limit
_DEEP = "[" * 200_000 + "]" * 200_000


def _without(key: str) -> dict:
    return {k: v for k, v in _BASE.items() if k != key}


@pytest.mark.parametrize("subcommand", ["run", "validate"])
@pytest.mark.parametrize(
    ("config", "chain"),
    [
        ([1, 2], TWO_STATE),
        (_BASE, [TWO_STATE]),
        ({**_BASE, "commands": [{"command": "spectrum", "params": None}]}, TWO_STATE),
        ({**_BASE, "commands": [{"command": "spectrum", "params": [1]}]}, TWO_STATE),
        ({**_BASE, "commands": 5}, TWO_STATE),
        ({**_BASE, "commands": "spectrum"}, TWO_STATE),
        ({**_BASE, "commands": {"spectrum": 1}}, TWO_STATE),
        ({**_BASE, "chain_spec": 5}, TWO_STATE),
        ({**_BASE, "output_dir": ["out"]}, TWO_STATE),
        ({**_BASE, "chain_spec": "."}, TWO_STATE),
        ({**_BASE, "chain_spec": "chain\u0000.json"}, TWO_STATE),
        ({**_BASE, "observable": "."}, TWO_STATE),
        ({**_BASE, "observable": "absent.json"}, TWO_STATE),
        (_DEEP, TWO_STATE),
        (_BASE, _DEEP),
        (_without("commands"), TWO_STATE),
        (_without("chain_spec"), TWO_STATE),
        ({**_BASE, "commands": [5]}, TWO_STATE),
        ({**_BASE, "commands": [{"params": {}}]}, TWO_STATE),
        ({**_BASE, "observabel": [3.0, -1.0]}, TWO_STATE),
        ({**_BASE, "output_dri": "elsewhere"}, TWO_STATE),
        (_BASE, {**TWO_STATE, "targte": [1.0, 1.0]}),
        ({**_BASE, "schema": 2}, TWO_STATE),
        ({**_BASE, "schema": "1"}, TWO_STATE),
        ({**_BASE, "schema": True}, TWO_STATE),
    ],
    ids=[
        "config-list",
        "chain-list",
        "params-null",
        "params-list",
        "commands-number",
        "commands-string",
        "commands-object",
        "chain-spec-number",
        "output-dir-list",
        "chain-spec-directory",
        "chain-spec-null-byte",
        "observable-directory",
        "observable-missing",
        "config-deep-nesting",
        "chain-deep-nesting",
        "commands-missing",
        "chain-spec-missing",
        "command-entry-number",
        "command-entry-without-name",
        "config-key-misspelled",
        "output-dir-key-misspelled",
        "chain-key-misspelled",
        "schema-2",
        "schema-text",
        "schema-true",
    ],
)
def test_malformed_config_is_one_config_error(tmp_path, capsys, subcommand, config, chain) -> None:
    for path, content in ((tmp_path / "config.json", config), (tmp_path / "chain.json", chain)):
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    assert main([subcommand, "--config", str(tmp_path / "config.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    ("chain", "message"),
    [
        (
            {"matrix": TWO_STATE["matrix"], "observable": [1, -1]},
            "chain 'kind' must be kernel|random_walk|metropolis, got None",
        ),
        ({"kind": "kernel", "observable": [1, -1]}, "chain definition is missing 'matrix'"),
        (
            {"kind": "metropolis", "matrix": TWO_STATE["matrix"], "observable": [1, -1]},
            "metropolis chain definition is missing 'target'",
        ),
        ({"kind": "kernel", "matrix": TWO_STATE["matrix"]}, "no observable given in config or chain definition"),
    ],
    ids=["kind", "matrix", "metropolis-target", "observable"],
)
def test_incomplete_chain_definition(tmp_path, capsys, chain, message) -> None:
    cfg = _config(tmp_path, ["spectrum"], chain=chain)
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()
    assert main(["validate", "--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")


@pytest.mark.parametrize(
    ("chain", "command", "extra"),
    [
        (
            {"kind": "kernel", "matrix": [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]},
            "spectrum",
            {"observable": [1.0, 0.0, -1.0]},
        ),
        ({"kind": "kernel", "matrix": [[0.5, 0.5], [1.0]], "observable": [1, -1]}, "spectrum", {}),
        ({"matrix": TWO_STATE["matrix"], "observable": [1, -1]}, "spectrum", {}),
        ({"kind": "kernel", "observable": [1, -1]}, "spectrum", {}),
        ({"kind": "metropolis", "matrix": TWO_STATE["matrix"], "observable": [1, -1]}, "spectrum", {}),
        ({"kind": "kernel", "matrix": TWO_STATE["matrix"]}, "spectrum", {}),
        (FLIP, {"command": "clt", "params": {"n": 10, "m": 10}}, {}),
        (TWO_STATE, {"command": "clt", "params": {"n": 0, "m": 10}}, {}),
        (TWO_STATE, {"command": "ui-diagnostic", "params": {"m": 0}}, {}),
        (TWO_STATE, {"command": "variance", "params": {"n_max": 0}}, {}),
        (TWO_STATE, {"command": "decompose", "params": {"length": 1}}, {}),
        (TWO_STATE, {"command": "decompose", "params": {"horizon": 0}}, {}),
        (TWO_STATE, {"command": "decompose", "params": {"seed_index": -1}}, {}),
        (TWO_STATE, {"command": "maximal", "params": {"n": 20000}}, {}),
        (TWO_STATE, {"command": "variance", "params": {"n_max": 10**30}}, {}),
        (TWO_STATE, {"command": "clt", "params": {"n": 10, "m": 10**30}}, {}),
        (TWO_STATE, {"command": "decompose", "params": {"length": 10**30}}, {}),
        (TWO_STATE, {"command": "clt", "params": {"n": 10**30, "m": 10}}, {}),
        (TWO_STATE, {"command": "decompose", "params": {"horizon": 10**400}}, {}),
        (TWO_STATE, {"command": "clt", "params": {"n": 1, "m": 2**21}}, {}),
        ({**TWO_STATE, "matrix": [[10**400, 0.25], [0.25, 0.75]]}, "spectrum", {}),
        (TWO_STATE, "spectrum", {"output_dir": "config.chain.json"}),
        (TWO_STATE, "spectrum", {"output_dir": "config.chain.json/out"}),
        (TWO_STATE, "spectrum", {"output_dir": "a" * 300}),
    ],
    ids=[
        "non-reversible",
        "ragged-matrix",
        "missing-kind",
        "missing-matrix",
        "missing-target",
        "no-observable",
        "degenerate-clt",
        "clt-n-zero",
        "ui-diagnostic-m-zero",
        "variance-n-max-zero",
        "decompose-length-one",
        "decompose-horizon-zero",
        "decompose-negative-seed-index",
        "maximal-exhaustive-over-budget",
        "variance-n-max-over-ceiling",
        "clt-m-over-ceiling",
        "decompose-length-over-ceiling",
        "clt-n-over-ceiling",
        "decompose-horizon-huge",
        "clt-pass-generators-over-ceiling",
        "matrix-huge-integer",
        "output-dir-names-a-file",
        "output-dir-under-a-file",
        "output-dir-name-too-long",
    ],
)
def test_validate_exits_like_run(tmp_path, capsys, chain, command, extra) -> None:
    cfg = _config(tmp_path, [command], chain=chain, **extra)
    code = main(["validate", "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert code != 0
    assert out == ""
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()
    assert main(["run", "--config", str(cfg)]) == code
    assert capsys.readouterr() == ("", err)


def test_observable_read_from_a_file(tmp_path) -> None:
    for sub, observable in (("inline", [1.0, -0.5]), ("file", "obs.json")):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "obs.json").write_text("[1.0, -0.5]\n")
        config = load_config(_config(tmp_path / sub, ["spectrum"], observable=observable))
        assert config.observable == [1.0, -0.5]
        run(config)
    inline, from_file = (load_config(tmp_path / sub / "config.json") for sub in ("inline", "file"))
    assert inline.config_hash() == from_file.config_hash()
    assert _reports(tmp_path / "inline" / "out") == _reports(tmp_path / "file" / "out")


def test_validate_and_run_print_one_centering_note(tmp_path, capsys) -> None:
    cfg = _config(tmp_path, ["spectrum"], observable=[1.0, 0.0])
    assert main(["validate", "--config", str(cfg)]) == 0
    note = "observable auto-centered (stationary mean 0.5)"
    assert capsys.readouterr() == (f"{note}\n", "")
    assert not (tmp_path / "out").exists()
    assert main(["run", "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == f"warning: {note}\n"


def test_the_centering_note_reads_the_observable_scale(tmp_path, capsys) -> None:
    """A stationary mean of 0.1 max|raw| is noted at max|raw| = 2^-45 as at 1."""
    chain = {"kind": "kernel", "matrix": [[0.6, 0.3, 0.1], [0.3, 0.4, 0.3], [0.1, 0.3, 0.6]],
             "observable": [2.0**-45, 0.3 * 2.0**-45, -(2.0**-45)]}
    assert main(["validate", "--config", str(_config(tmp_path, ["spectrum"], chain=chain))]) == 0
    assert capsys.readouterr() == ("observable auto-centered (stationary mean 2.84217e-15)\n", "")


def test_unlisted_subcommand_runs_with_its_defaults(tmp_path, capsys) -> None:
    cfg = _config(tmp_path, ["spectrum"], seed=None)
    assert main(["clt", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "config error: the master seed is missing; Monte Carlo sampling needs one\n"
    )
    assert not any((tmp_path / "out").glob("*"))
    assert main(["variance", "--config", str(cfg)]) == 0
    payload = json.loads((tmp_path / "out" / "variance.json").read_text())
    assert len(payload["var_over_n"]) == DEFAULT_PARAMS["variance"]["n_max"]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["outputs"] == {"variance": ["variance.json", "variance.csv"]}


def test_single_subcommand_hashes_the_commands_it_ran(tmp_path) -> None:
    """``rclt clt`` on a spectrum-only config hashes like a config that lists clt alone."""
    for sub in ("spectrum_only", "clt_listed"):
        (tmp_path / sub).mkdir()
    spectrum_only = _config(tmp_path / "spectrum_only", ["spectrum"])
    clt_default = {"command": "clt", "params": DEFAULT_PARAMS["clt"]}
    clt_listed = load_config(_config(tmp_path / "clt_listed", [clt_default]))
    manifest = tmp_path / "spectrum_only" / "out" / "manifest.json"
    assert main(["clt", "--config", str(spectrum_only)]) == 0
    clt_hash = json.loads(manifest.read_text())["config_hash"]
    assert main(["run", "--config", str(spectrum_only)]) == 0
    run_hash = json.loads(manifest.read_text())["config_hash"]
    assert clt_hash == clt_listed.config_hash()
    assert run_hash == load_config(spectrum_only).config_hash()
    assert clt_hash != run_hash


def _reports(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir()) if p.name != "manifest.json"}


def test_shared_pass_reports_equal_separate_commands(tmp_path) -> None:
    """Every check command of a run, exhaustive maximal too, reads one pass; each report is its own.

    The exact commands read the run's one exact layer, and their reports are their own too.
    """
    commands = [
        {"command": "maximal", "params": {"n": 4, "mode": "reversed", "two_sided": True}},
        {"command": "clt", "params": {"n": 60, "m": 150, "ks_threshold": 0.5}},
        "spectrum",
        {"command": "fclt", "params": {"n": 300, "m": 120, "grid": [0.0, 0.3, 1.0]}},
        {"command": "clt", "params": {"n": 25, "m": 200, "ks_threshold": 0.5}},
        {"command": "ui-diagnostic", "params": {"n_list": [1, 7, 40], "m": 30}},
        {"command": "maximal", "params": {"n": 5, "exhaustive": False, "m": 90, "two_sided": True}},
        {"command": "variance", "params": {"n_max": 30}},
        {"command": "decompose", "params": {"length": 50, "horizon": 7}},
    ]
    chain = {"kind": "random_walk", "matrix": [[2, 1, 1], [1, 1, 3], [1, 3, 4]],
             "observable": [1.0, -0.5, 0.25]}
    shared = tmp_path / "shared"
    shared.mkdir()
    run(load_config(_config(shared, commands, chain=chain)))
    together = _reports(shared / "out")
    assert len(together) == 13
    assert json.loads(together["maximal.json"])["exact"] is True
    for index, command in enumerate(commands):
        alone = tmp_path / f"alone_{index}"
        alone.mkdir()
        run(load_config(_config(alone, [command], chain=chain)))
        for name, data in _reports(alone / "out").items():
            # the second clt and maximal entries write clt_2.* and maximal_2.* in the shared run
            stem, suffix = name.split(".")
            shared_name = f"{stem}_2.{suffix}" if index in (4, 6) else name
            assert together[shared_name] == data, shared_name


@pytest.mark.parametrize(
    ("commands", "code", "err", "kept", "seeds"),
    [
        (
            [
                {"command": "clt", "params": {"n": 50, "m": 100, "ks_threshold": 1e-9}},
                {"command": "fclt", "params": {"grid": [0.5, 2.0]}},
            ],
            4,
            "statistical failure: clt: KS statistic 0.07641 exceeds threshold 0.00000\n",
            ["clt.csv", "clt.json"],
            100,
        ),
        (
            [
                {"command": "fclt", "params": {"grid": [0.5, 2.0]}},
                {"command": "clt", "params": {"n": 50, "m": 100}},
            ],
            2,
            "config error: grid times must lie in [0, 1], got [0.5, 2.0]\n",
            [],
            0,
        ),
        (
            [
                {"command": "clt", "params": {"n": 50, "m": 100, "ks_threshold": 0.5}},
                {"command": "decompose", "params": {"horizon": 0}},
                {"command": "fclt", "params": {"grid": [0.5, 2.0]}},
            ],
            2,
            "config error: horizon must be >= 1, got 0\n",
            [],
            100,
        ),
        (
            [
                {"command": "clt", "params": {"n": 20, "m": 30, "ks_threshold": 0.5}},
                {"command": "fclt", "params": {"n": 20, "m": 10, "grid": [2.0]}},
                {"command": "ui-diagnostic", "params": {"n_list": [5], "m": 500}},
            ],
            2,
            "config error: grid times must lie in [0, 1], got [2.0]\n",
            [],
            30,
        ),
    ],
    ids=[
        "failed-clt-before-bad-fclt",
        "bad-fclt-first",
        "decompose-error-before-bad-fclt",
        "bad-fclt-between-checks",
    ],
)
def test_shared_pass_keeps_error_order(
    tmp_path, capsys, monkeypatch, commands, code, err, kept, seeds
) -> None:
    """A check that raises before the pass does so at its own turn, as a run without sharing did.

    Only the checks before it are stepped: a check after it is neither built
    nor stepped, so the run derives the earlier checks' seeds alone.
    """
    calls = []
    derive_seed = rclt.limits.derive_seed
    monkeypatch.setattr(
        rclt.limits, "derive_seed", lambda s, i: calls.extend(np.ravel(i)) or derive_seed(s, i)
    )
    cfg = _config(tmp_path, commands)
    assert main(["run", "--config", str(cfg)]) == code
    assert capsys.readouterr().err == err
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == kept
    assert sorted(calls) == list(range(seeds))


def test_validate_meets_a_setup_error_that_run_meets_after_a_failed_check(tmp_path, capsys) -> None:
    """``validate`` judges every command's setup and runs no pass: exit 2 at the bad grid.

    ``run`` meets that setup error at the fclt's turn, so the clt's own exit 4
    before it comes first.
    """
    commands = [
        {"command": "clt", "params": {"n": 50, "m": 100, "ks_threshold": 1e-9}},
        {"command": "fclt", "params": {"grid": [0.5, 2.0]}},
    ]
    cfg = str(_config(tmp_path, commands, seed=1))
    assert main(["validate", "--config", cfg]) == 2
    assert capsys.readouterr().err == "config error: grid times must lie in [0, 1], got [0.5, 2.0]\n"
    assert main(["run", "--config", cfg]) == 4
    assert capsys.readouterr().err == (
        "statistical failure: clt: KS statistic 0.08681 exceeds threshold 0.00000\n"
    )


def test_one_replica_pass_per_run(tmp_path, monkeypatch) -> None:
    """Four Monte Carlo commands derive each replica's seed once: 200 seeds, not 550.

    An exhaustive maximal joins the pass but steps no replica, so it adds none.
    """
    calls = []
    derive_seed = rclt.limits.derive_seed
    monkeypatch.setattr(
        rclt.limits, "derive_seed", lambda s, i: calls.extend(np.ravel(i)) or derive_seed(s, i)
    )
    commands = [
        {"command": "clt", "params": {"n": 30, "m": 200, "ks_threshold": 0.5}},
        {"command": "fclt", "params": {"n": 40, "m": 200, "grid": [0.5, 1.0]}},
        {"command": "ui-diagnostic", "params": {"n_list": [10, 20], "m": 50}},
        {"command": "maximal", "params": {"n": 4, "exhaustive": False, "m": 100}},
        {"command": "maximal", "params": {"n": 5}},
    ]
    run(load_config(_config(tmp_path, commands)))
    assert json.loads((tmp_path / "out" / "maximal_2.json").read_text())["exact"] is True
    assert len(calls) == 200
    assert len(set(calls)) == 200


def test_a_pass_over_the_ceiling_fails_at_the_reader_that_grows_it(tmp_path, capsys) -> None:
    """Neither reader alone sizes a buffer over MAX_CELLS, but their one pass would.

    The ui-diagnostic steps 1000 times and the clt holds 2^18 + 1 replicas, so
    the pass's buffer would be 512 x (2^18 + 1) uniforms. ``validate`` and
    ``run`` exit 2 at the clt, and ``run`` removes the report written before it.
    """
    commands = [
        {"command": "ui-diagnostic", "params": {"n_list": [1000], "m": 1}},
        {"command": "clt", "params": {"n": 1, "m": 2**18 + 1}},
    ]
    cfg = _config(tmp_path, commands)
    assert main(["validate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "config error: the pass's min(512, n + 1) x m uniforms would hold 134218240 entries, "
        "above 134217728\n"
    )
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == err
    assert list((tmp_path / "out").iterdir()) == []


def test_each_report_is_taken_at_its_own_turn(tmp_path, monkeypatch) -> None:
    """A check's report is reduced at its own command's turn, after the commands before it wrote."""
    seen = []
    report = rclt.limits._FcltReader.report

    def recording(reader):
        seen.append((tmp_path / "out" / "spectrum.json").exists())
        return report(reader)

    monkeypatch.setattr(rclt.limits._FcltReader, "report", recording)
    commands = [
        {"command": "clt", "params": {"n": 30, "m": 100, "ks_threshold": 0.5}},
        "spectrum",
        {"command": "fclt", "params": {"n": 30, "m": 100, "grid": [0.5, 1.0]}},
    ]
    run(load_config(_config(tmp_path, commands)))
    assert seen == [True]


def test_import_needs_numpy_alone() -> None:
    """After numpy, importing rclt and its command line loads only rclt and the standard library.

    In particular neither numpy.random (loaded when a pass builds its
    generators), scipy nor hypothesis is imported.
    """
    probe = (
        "import sys, numpy; before = set(sys.modules); import rclt, rclt.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    src = str(Path(rclt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True).stdout.split()
    assert "rclt.cli" in out
    assert [m for m in out if m.split(".")[0] not in sys.stdlib_module_names | {"rclt"}] == []


def test_chain_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys) -> None:
    cfg = _config(tmp_path, ["spectrum"])
    (tmp_path / "config.chain.json").write_bytes(b'{"kind": "kernel\xff"}')
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: invalid JSON in ")


def test_seed_override_must_fit_64_bits(tmp_path, capsys) -> None:
    cfg = _config(tmp_path, ["spectrum"])
    assert main(["run", "--config", str(cfg), "--seed", str(2**64)]) == 2
    assert capsys.readouterr().err.startswith("config error: master_seed")
    assert load_config(cfg, seed_override=2**64 - 1).master_seed == 2**64 - 1


def test_main_exit_codes(tmp_path) -> None:
    good = _config(tmp_path, ["spectrum"], name="good.json")
    assert main(["spectrum", "--config", str(good)]) == 0
    assert (tmp_path / "out" / "spectrum.json").exists()
    assert main(["--config", str(good), "spectrum"]) == 0
    # argparse's own usage errors, an unknown subcommand or no --config, exit 2 as well
    for argv in (["bogus", "--config", str(good)], ["spectrum"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2

    bad_chain = {"kind": "kernel", "matrix": [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]}
    bad = _config(tmp_path, ["spectrum"], chain=bad_chain, name="bad.json", observable=[1, 0, -1])
    assert main(["run", "--config", str(bad)]) == 3
    # bad.json's chain file leaves good.json's alone
    assert main(["run", "--config", str(good)]) == 0


def test_command_table_is_pinned() -> None:
    assert COMMANDS == ("spectrum", "variance", "decompose", "clt", "fclt", "maximal", "ui-diagnostic")
    # as item lists, so the order of the commands and of their params is pinned with the values
    assert [(name, list(params.items())) for name, params in DEFAULT_PARAMS.items()] == [
        ("spectrum", []),
        ("variance", [("n_max", 1000)]),
        ("decompose", [("length", 200), ("horizon", None), ("seed_index", 0)]),
        ("clt", [("n", 2000), ("m", 10000), ("ks_threshold", 0.02)]),
        ("fclt", [("n", 4000), ("m", 10000), ("grid", [0.25, 0.5, 0.75, 1.0])]),
        ("maximal", [
            ("n", 6), ("lambdas", [0.0, 0.5, 1.0]), ("mode", "forward"), ("exhaustive", True),
            ("m", None), ("two_sided", False),
        ]),
        ("ui-diagnostic", [
            ("n_list", [100, 1000]), ("epsilon_grid", [1.0, 2.0, 5.0, 10.0, 20.0]), ("m", 2000),
        ]),
    ]


def _public_names(module) -> list[str]:
    return sorted(n for n, v in vars(module).items() if not n.startswith("_") and not inspect.ismodule(v))


def test_public_names_are_pinned() -> None:
    """A name added to or dropped from ``rclt`` or ``rclt.cli`` is a deliberate edit here.

    ``rclt.cli``'s list includes what it imports, since the benchmark's layer
    trace rebinds those names on the module.
    """
    assert _public_names(rclt) == [
        "ConfigError", "DecompositionTerms", "DegenerateVariance", "Disconnected", "EigenFailure",
        "ExhaustiveTooLarge", "FiniteVarianceViolated", "InvalidArgument", "LimitReport",
        "MalformedMatrix", "NegativeWeight", "NotIrreducible", "NotReversible", "NotStochastic",
        "NumericalError", "Observable", "RcltError", "ReversibleChain", "SingularPoisson",
        "SpectralMeasure", "StatisticalFailure", "Trajectory", "VarianceReport", "ZeroTargetMass",
        "asymptotic_variance_poisson", "asymptotic_variance_series", "asymptotic_variance_spectral",
        "boundary_l2_norm", "boundary_term", "build_chain", "build_metropolis", "build_random_walk",
        "cauchy_quantity", "clt_test", "decompose_trajectory", "derive_seed", "dkw_epsilon",
        "extrapolate_series_limit", "fclt_profile", "finiteness_integral", "ks_distance_to_normal",
        "l2_convergence_table", "limit_difference_second_moment", "martingale_certificate",
        "maximal_inequality_check", "moment", "poisson_solve", "project_mean_zero",
        "sample_trajectory", "spectral_gap", "spectral_measure", "uniform_integrability_diagnostic",
        "variance_report",
    ]
    assert _public_names(cli) == [
        "COMMANDS", "Callable", "ConfigError", "DEFAULT_PARAMS", "ExperimentConfig", "NumericalError",
        "Observable", "Path", "RcltError", "ReversibleChain", "RunManifest", "SCHEMA_VERSION",
        "StatisticalFailure", "annotations", "asdict", "build_chain", "build_chain_from_definition",
        "build_metropolis", "build_random_walk", "clt_test", "dataclass", "decompose_trajectory",
        "derive_seed", "fclt_profile", "field", "load_config", "main", "maximal_inequality_check",
        "partial", "project_mean_zero", "replace", "resolve_observable", "run", "sample_trajectory",
        "spectral_measure", "uniform_integrability_diagnostic", "validate", "variance_report",
    ]


def test_single_subcommand_uses_config_params(tmp_path) -> None:
    commands = [{"command": "variance", "params": {"n_max": 17}}]
    cfg = _config(tmp_path, commands)
    assert main(["variance", "--config", str(cfg)]) == 0
    payload = json.loads((tmp_path / "out" / "variance.json").read_text())
    assert len(payload["var_over_n"]) == 17
    csv_lines = (tmp_path / "out" / "variance.csv").read_text().splitlines()
    assert csv_lines[0] == "# schema=1"
    assert csv_lines[1] == "n,var_over_n"
    assert len(csv_lines) == 2 + 17


def test_variance_command_builds_one_spectral_measure(tmp_path, monkeypatch) -> None:
    """The variance report's three routes and its atoms read one spectral measure."""
    calls = []
    measure = rclt.spectral.spectral_measure

    def counted(chain, f):
        calls.append(chain.n_states)
        return measure(chain, f)

    for module in (cli, rclt.spectral, rclt.limits, rclt.decomposition):
        monkeypatch.setattr(module, "spectral_measure", counted)
    cfg = _config(tmp_path, [{"command": "variance", "params": {"n_max": 50}}])
    manifest = run(load_config(cfg))
    assert list(manifest.outputs) == ["variance"]
    assert calls == [2]


def test_failed_maximal_levels_exit_4_and_keep_the_report(tmp_path, monkeypatch) -> None:
    """A drifting limit pair (every increment 1) fails the levels below its peak, exactly and sampled."""
    monkeypatch.setattr(rclt.limits, "_limit_pair", lambda exact: (np.ones(2), np.zeros(2)))
    for name, extra in (("exact", {}), ("sampled", {"exhaustive": False, "m": 50})):
        params = {"n": 10, "lambdas": [0.0, 0.5, 20.0], **extra}
        (tmp_path / name).mkdir()
        cfg = _config(tmp_path / name, [{"command": "maximal", "params": params}])
        assert main(["run", "--config", str(cfg)]) == 4
        payload = json.loads((tmp_path / name / "out" / "maximal.json").read_text())
        assert payload["passed"] is False
        assert payload["failures"] == [
            "lambda=0.0: lhs 100 > rhs 40", "lambda=0.5: lhs 90.25 > rhs 40",
        ]


def test_seed_override_changes_hash(tmp_path) -> None:
    cfg = _config(tmp_path, [{"command": "decompose", "params": {"length": 30}}])
    a = load_config(cfg)
    b = load_config(cfg, seed_override=999)
    assert a.config_hash() != b.config_hash()
    assert b.master_seed == 999


def test_config_hash_semantics(tmp_path) -> None:
    cfg = _config(tmp_path, ["spectrum"])
    base = load_config(cfg).config_hash()
    assert load_config(cfg).config_hash() == base
    assert load_config(cfg, out_override="elsewhere").config_hash() == base
    assert load_config(cfg, seed_override=4243).config_hash() != base
    assert load_config(_config(tmp_path, ["spectrum"], observable=[1.0, 0.5])).config_hash() != base
    matrix = {**TWO_STATE, "matrix": [[0.75, 0.25], [0.25, 0.7500000000000001]]}
    assert load_config(_config(tmp_path, ["spectrum"], chain=matrix)).config_hash() != base
    # the chain file enters by its bytes: the same definition laid out differently hashes apart
    _config(tmp_path, ["spectrum"])
    (tmp_path / "config.chain.json").write_text(json.dumps(TWO_STATE) + "\n")
    assert load_config(cfg).config_hash() != base


def test_config_hash_is_pinned(tmp_path) -> None:
    """A change to what the hash covers, or how, has to update this digest deliberately."""
    cfg = _config(tmp_path, ["spectrum", {"command": "clt", "params": {"n": 100}}])
    assert load_config(cfg).config_hash() == (
        "2a68b924c139422e5ac158cd3e47004061127dd1b2b32cf1a896d8ade7f22d2b"
    )


def test_decompose_outputs_have_expected_columns(tmp_path) -> None:
    cfg = _config(tmp_path, [{"command": "decompose", "params": {"length": 25}}])
    run(load_config(cfg))
    lines = (tmp_path / "out" / "decompose.csv").read_text().splitlines()
    assert lines[1].split(",") == [
        "k",
        "x_k",
        "forward_increment",
        "reversed_increment",
        "lookahead",
        "forward_limit",
        "reversed_limit",
        "residual_pair",
        "residual_decomposition",
    ]
    assert len(lines) == 2 + 26
    payload = json.loads((tmp_path / "out" / "decompose.json").read_text())
    assert payload["max_pair_residual"] <= 1e-12
    assert payload["max_decomposition_residual"] <= 1e-12
