"""Command-line front end: configuration, orchestration, persistence.

An experiment is described by a JSON config file::

    {
      "schema": 1,
      "chain_spec": "chain.json",
      "observable": [1.0, -1.0],            # inline, a path, or omitted
      "commands": [
        "spectrum",
        {"command": "clt", "params": {"n": 2000, "m": 10000}}
      ],
      "master_seed": 20240611,
      "output_dir": "out"
    }

The chain definition file uses the fixed field names::

    {"kind": "kernel" | "random_walk" | "metropolis",
     "matrix": [[...]], "target": [...], "observable": [...]}

Each subcommand writes one JSON report (all versioned with "schema": 1)
and, where a sequence is produced, a CSV; ``run`` executes the config's
command list in order and writes a manifest last. Outputs are
byte-identical across reruns of the same config and master seed; manifests
differ only in their wall-clock timings.

Each input reaches the run through one checking step, and each output
leaves it through one writer. ``_read_json`` is the only place a file
becomes a value: an unreadable path, bytes that are not UTF-8 JSON,
nesting too deep to parse or a top-level value of the wrong JSON type is a
config error. ``load_config`` checks the config's structure (known keys
only, a ``schema`` of 1 if given, string paths, a command list, a params
object per command with known names), then the chain file's keys (known
ones only, then ``kind``, ``matrix`` and ``target``), and last converts the
matrix and target to float arrays (``MalformedMatrix`` for a ragged or
non-numeric one), so the parsed lists are freed before the chain is admitted.
It also requires the nearest existing path among ``output_dir`` and its
parents to be a directory, so ``validate`` meets an unusable ``output_dir``
as ``run`` would. ``_write``, the mirror of ``_read_json``, is the only
place a value becomes a file: it writes ``name.tmp`` and renames it over
``name``, so each report, CSV and manifest is whole or absent, and an
``OSError`` there is a config error that names the path. ``_write_json``
hands it strict JSON: a report or manifest that would hold a NaN or an
infinity, which Python's ``json`` writes as ``NaN`` and ``Infinity``, is a
numerical error naming the file, and the run removes its files. CSVs are
not judged. So every reported number is judged, and ``main`` silences
numpy's floating-point warnings, which would only add lines to stderr.
``main`` maps an
``OSError`` left on that side, a path whose parents ``load_config`` cannot
stat or a directory ``run`` cannot make, to the same exit 2, naming the
path too. Parameter values, and the master seed a sampling command needs,
are judged by each command's reader in ``_prepare``.
A single subcommand run narrows the config to that subcommand before
anything reads it, so its manifest hashes the commands it ran. ``_outputs``
is the one place a report or CSV name is formed: it names every file of a
run before its setup, and ``run`` clears, writes, records in the manifest
and cleans up by that one record, so a failed rerun leaves no earlier
report of those names behind.

Exit codes: 0 success, 2 config or argument error (an unusable
``output_dir`` and a failed write included), 3 numerical error (including
a ragged or non-numeric chain matrix, a boolean among its numbers too,
a spectral sigma^2 that misses the Poisson one, and a report that would hold
a non-finite number), 4 statistical acceptance
failure.

Every command is a reader with one protocol: ``_Command.build(exact,
seed=master_seed, **params)`` judges the params and returns an object with
a replica count ``m`` (None for a reader the pass does not step) and a
``report()``. A check's build is its ``rclt.limits`` reader class; an exact
command's is a ``_Exactly``, whose ``report()`` computes the result.
``run`` and ``validate`` share one setup, ``_prepare``: it builds the
chain, centers the observable, makes the run's one exact layer (the
``rclt.spectral._Exact`` holder whose rho, Poisson solution and judged
sigma^2 every reader reads, each built at most once) and builds the
readers in config order. The first setup error ends the run before any
command runs: no seed is derived, no report written and no ``output_dir``
made. ``validate`` is that setup alone, so it meets exactly the errors
``run``'s setup meets. ``run`` then steps every sampling reader in one pass
at the first of them and takes each report at its own command's turn.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .chain import (
    Observable,
    ReversibleChain,
    _array,
    _counts,
    _numbers,
    build_chain,
    build_metropolis,
    build_random_walk,
    derive_seed,
    project_mean_zero,
    sample_trajectory,
)
# decompose_trajectory, spectral_measure, variance_report and the four checks are not
# called here, but bench/layer_trace.py rebinds them on this module
from .decomposition import _decompose, _decompose_horizon, decompose_trajectory
from .errors import ConfigError, NumericalError, RcltError, StatisticalFailure
from .limits import (
    _CltReader,
    _FcltReader,
    _MaximalReader,
    _one_pass,
    _pass_shape,
    _UiReader,
    clt_test,
    fclt_profile,
    maximal_inequality_check,
    uniform_integrability_diagnostic,
)
from .spectral import _Exact, _variance_report, spectral_measure, variance_report

SCHEMA_VERSION = 1
#: the keys a config may hold, and those a chain definition may hold
_CONFIG_KEYS = ("schema", "chain_spec", "observable", "commands", "master_seed", "output_dir")
_CHAIN_KEYS = ("kind", "matrix", "target", "observable")


@dataclass(frozen=True)
class ExperimentConfig:
    """Loaded and validated experiment description."""

    #: the chain file's content, its ``matrix`` (and ``target``) as float arrays
    chain_definition: dict
    chain_sha256: str
    observable: list[float] | None
    commands: list[tuple[str, dict]]
    master_seed: int | None
    output_dir: Path

    def config_hash(self) -> str:
        """SHA-256 of the content that determines every output byte (output_dir excluded).

        The chain file enters by the SHA-256 of its bytes, taken when
        ``load_config`` read it, so hashing does not serialise the matrix.
        """
        payload = {
            "schema": SCHEMA_VERSION,
            "chain_sha256": self.chain_sha256,
            "observable": self.observable,
            "commands": [{"command": c, "params": p} for c, p in self.commands],
            "master_seed": self.master_seed,
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class RunManifest:
    """What a run produced: hash, version, files per command, timings."""

    config_hash: str
    version: str
    outputs: dict[str, list[str]] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"schema": SCHEMA_VERSION, **asdict(self)}


# --- loading -----------------------------------------------------------------


def _read_json(path: Path, kind: type) -> tuple[object, str]:
    """A JSON file's parsed content, a ``kind`` (dict or list), and the SHA-256 of its bytes.

    This is the one place a file becomes a value. A path that cannot be read (missing,
    a directory), bytes that are not UTF-8 JSON, nesting too deep to parse, and a
    top-level value of another JSON type are all a ConfigError.
    """
    try:
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        data = data.decode()  # frees the bytes: one copy of the file is held while parsing
        value = json.loads(data)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError, JSONDecodeError, deep nesting
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(value, kind):
        raise ConfigError(f"{path} must hold a JSON {kind.__name__}, got {type(value).__name__}")
    return value, digest


def _path(base: Path, value, key: str) -> Path:
    """The resolved path that the config's ``key`` names relative to ``base``."""
    try:
        return (base / value).resolve()
    except (TypeError, ValueError) as exc:  # not a string, or an embedded null byte
        raise ConfigError(f"config {key!r} must be a path string, got {value!r}") from exc


def _known_keys(mapping: dict, known, what: str) -> None:
    """Reject the first key of ``mapping`` outside ``known``, naming it and the known ones."""
    for key in mapping:
        if key not in known:
            raise ConfigError(f"unknown {what} {key!r}; known: {', '.join(known)}")


def _normalize_commands(raw) -> list[tuple[str, dict]]:
    if not isinstance(raw, list):
        raise ConfigError(f"config 'commands' must be a list, got {raw!r}")
    commands = []
    for entry in raw:
        if isinstance(entry, str):
            name, params = entry, {}
        elif isinstance(entry, dict) and "command" in entry:
            name, params = entry["command"], entry.get("params", {})
        else:
            raise ConfigError(f"unusable command entry: {entry!r}")
        if name not in COMMANDS:
            raise ConfigError(f"unknown subcommand {name!r}; known: {', '.join(COMMANDS)}")
        if not isinstance(params, dict):
            raise ConfigError(f"{name} params must be an object, got {params!r}")
        _known_keys(params, DEFAULT_PARAMS[name], f"{name} parameter")
        commands.append((name, {**DEFAULT_PARAMS[name], **params}))
    return commands


def load_config(
    path, seed_override: int | None = None, out_override: str | None = None
) -> ExperimentConfig:
    """Load, path-resolve and structurally validate an experiment config.

    Paths in the config are strings relative to the config file's directory.
    This judges the file's structure: its keys, the schema, the paths, the
    command and parameter names, a ``master_seed`` in [0, 2^64), the entries
    of the config's observable, each by ``_numbers`` (so no boolean among
    numbers passes), those of the chain's matrix and target, and that the
    nearest existing path among ``output_dir`` and its parents is a directory,
    so ``run`` can make it and ``validate`` need not (a path that cannot be
    stat'ed, such as a name too long, raises its ``OSError``). The values
    of the parameters, and whether a command needs the master seed, are judged
    by each command's reader in ``_prepare``, so ``validate`` and ``run`` meet
    such an error and this function does not.
    """
    path = Path(path)
    raw = _read_json(path, dict)[0]
    base = path.parent
    _known_keys(raw, _CONFIG_KEYS, "config key")
    schema = raw.get("schema", SCHEMA_VERSION)
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise ConfigError(f"config 'schema' must be {SCHEMA_VERSION}, got {schema!r}")

    chain_path = _path(base, raw.get("chain_spec"), "chain_spec")
    chain_definition, chain_sha256 = _read_json(chain_path, dict)
    _known_keys(chain_definition, _CHAIN_KEYS, "chain key")

    observable = raw.get("observable")
    if isinstance(observable, str):
        observable = _read_json(_path(base, observable, "observable"), list)[0]
    if observable is not None:
        observable = _numbers(float, observable, "observable")

    commands = _normalize_commands(raw.get("commands"))
    master_seed = raw.get("master_seed") if seed_override is None else seed_override
    if master_seed is not None and (type(master_seed) is not int or not 0 <= master_seed < 2**64):
        raise ConfigError(f"master_seed must be a nonnegative 64-bit integer, got {master_seed!r}")

    output_dir = out_override if out_override is not None else raw.get("output_dir", "out")
    output_dir = _path(base, output_dir, "output_dir")
    if not (nearest := next(p for p in (output_dir, *output_dir.parents) if p.exists())).is_dir():
        raise ConfigError(f"cannot use output_dir {output_dir}: {nearest} is not a directory")
    for key in _definition_inputs(chain_definition)[1]:  # frees each parsed list for its array
        chain_definition[key] = _array(chain_definition[key], f"chain {key!r}")
    return ExperimentConfig(
        chain_definition=chain_definition,
        chain_sha256=chain_sha256,
        observable=observable,
        commands=commands,
        master_seed=master_seed,
        output_dir=output_dir,
    )


def _definition_inputs(definition: dict) -> tuple[Callable, list[str]]:
    """The builder of a chain definition and the keys of its arguments, in order.

    A missing or unknown ``kind``, a missing ``matrix`` and a Metropolis chain
    without ``target`` are config errors.
    """
    kind = definition.get("kind")
    if kind not in ("kernel", "random_walk", "metropolis"):
        raise ConfigError(f"chain 'kind' must be kernel|random_walk|metropolis, got {kind!r}")
    if definition.get("matrix") is None:
        raise ConfigError("chain definition is missing 'matrix'")
    if kind != "metropolis":
        return (build_chain if kind == "kernel" else build_random_walk), ["matrix"]
    if definition.get("target") is None:
        raise ConfigError("metropolis chain definition is missing 'target'")
    return build_metropolis, ["target", "matrix"]


def build_chain_from_definition(definition: dict) -> ReversibleChain:
    """Instantiate a chain from the fixed-schema definition dictionary.

    ``matrix`` and ``target`` may be lists or arrays (``load_config`` leaves
    arrays); the builders convert them, so a ragged or non-numeric one raises
    MalformedMatrix, a numerical error.
    """
    builder, keys = _definition_inputs(definition)
    return builder(*(definition[key] for key in keys))


def _centered_observable(config: ExperimentConfig, chain: ReversibleChain):
    """(centered observable, auto-centering note or None), from the config or the chain file.

    The note is made when the raw stationary mean exceeds 1e-12 max|raw|, so
    raw times a power of two is noted as raw is.
    """
    raw = config.observable
    if raw is None:
        raw = config.chain_definition.get("observable")
    if raw is None:
        raise ConfigError("no observable given in config or chain definition")
    f, v = project_mean_zero(raw, chain), np.asarray(raw, dtype=float)
    m = float(np.dot(chain.stationary, v))
    note = f"observable auto-centered (stationary mean {m:.6g})"
    return f, note if abs(m) > 1e-12 * float(np.max(np.abs(v))) else None


def resolve_observable(config: ExperimentConfig, chain: ReversibleChain) -> Observable:
    """Pick the config observable (falling back to the chain file's) and center it."""
    return _centered_observable(config, chain)[0]


# --- persistence -----------------------------------------------------------------


def _write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` whole: into ``name.tmp``, then renamed over ``path``.

    This is the one place a value becomes a file, the mirror of ``_read_json``.
    An ``OSError`` removes the ``.tmp`` and is a ConfigError that names ``path``.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` to ``path`` as strict JSON; a NaN or infinity in it is a NumericalError.

    Python's ``json`` would write them as ``NaN`` and ``Infinity``, which strict
    parsers reject, so no report or manifest holds one: the run exits 3.
    """
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"{path.name} would hold a non-finite number") from exc
    _write(path, text + "\n")


def _float_cells(values) -> list[str]:
    """``repr`` of each float in ``values``, computed once per distinct bit pattern.

    Bit patterns, not values, are compared, so -0.0 keeps its sign apart from 0.0.
    """
    bits = np.asarray(values, dtype=float).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = np.array([repr(x) for x in distinct.view(float).tolist()], dtype=object)
    return text[inverse].tolist()


def _write_csv(path: Path, columns: dict) -> None:
    """One CSV column per entry of ``columns``: name -> a ``range`` of indices or floats."""
    cells = [map(str, c) if isinstance(c, range) else _float_cells(c) for c in columns.values()]
    lines = [f"# schema={SCHEMA_VERSION}", ",".join(columns), *map(",".join, zip(*cells))]
    _write(path, "\n".join(lines) + "\n")


# --- command execution -------------------------------------------------------------


@dataclass(frozen=True)
class _Command:
    """One subcommand: its reader, its params and what it writes.

    ``_COMMANDS`` holds one per subcommand; ``COMMANDS`` and ``DEFAULT_PARAMS``
    are read off it.

    ``build(exact, seed=master_seed, **params)`` judges the params and returns
    the command's reader on the run's exact layer ``exact``: an object with a
    replica count ``m``, which is None unless the run's pass steps it, and a
    ``report()`` that gives the result. ``payload`` turns the result into the
    JSON report body and ``csv``, if set, into CSV columns. ``defaults`` are
    the command's params and their default values. The reader alone judges the
    values of its params and whether it needs the master seed, which only a
    command that consumes random streams does.
    """

    build: Callable
    payload: Callable
    csv: Callable | None = None
    defaults: dict = field(default_factory=dict)


class _Exactly:
    """The reader of an exact command: the pass does not step it, and ``report()`` computes it."""

    m = None

    def __init__(self, report: Callable):
        self.report = report


def _decompose_reader(exact, seed, length, horizon, seed_index) -> _Exactly:
    """The seeded path's seed derived and its horizon judged; at its turn, (path, terms)."""
    path_seed = derive_seed(seed, _numbers(int, [seed_index], "seed_index", least=0)[0])
    _decompose_horizon(length, horizon)

    def decompose():
        traj = sample_trajectory(exact.chain, exact.f, length, path_seed)
        return traj, _decompose(exact, traj, horizon)

    return _Exactly(decompose)


def _with_verdict(report) -> dict:
    return {"passed": report.passed, "failures": list(report.failures), **report.to_dict()}


_COMMANDS = {
    "spectrum": _Command(
        build=lambda exact, seed: _Exactly(lambda: exact.rho),
        payload=lambda rho: {"atoms": rho.atoms(), "total_mass": rho.total_mass},
    ),
    "variance": _Command(
        build=lambda exact, seed, n_max: _Exactly(
            partial(_variance_report, exact, _counts([n_max], "n_max", least=1)[0])
        ),
        defaults={"n_max": 1000},
        payload=lambda report: {"atoms": report.measure.atoms(), **report.to_dict()},
        csv=lambda report: {
            "n": range(1, len(report.var_over_n) + 1), "var_over_n": report.var_over_n,
        },
    ),
    "decompose": _Command(
        build=_decompose_reader,
        defaults={"length": 200, "horizon": None, "seed_index": 0},
        payload=lambda result: {
            "length": result[0].length,
            "horizon": result[1].horizon,
            "trajectory_seed": result[0].seed,
            "max_pair_residual": result[1].max_pair_residual,
            "max_decomposition_residual": result[1].max_decomposition_residual,
        },
        csv=lambda result: {
            "k": range(result[0].length + 1),
            "x_k": result[0].observables,
            "forward_increment": result[1].forward_finite,
            "reversed_increment": result[1].reversed_finite,
            "lookahead": result[1].lookahead,
            "forward_limit": result[1].forward_limit,
            "reversed_limit": result[1].reversed_limit,
            "residual_pair": result[1].pair_residual,
            "residual_decomposition": result[1].decomposition_residual,
        },
    ),
    "clt": _Command(
        build=_CltReader,
        defaults={"n": 2000, "m": 10000, "ks_threshold": 0.02},
        payload=lambda report: {"passed": report.passed, **report.to_dict()},
        csv=lambda report: {
            "replica": range(len(report.normalized_sums)),
            "normalized_sum": report.normalized_sums,
        },
    ),
    "fclt": _Command(
        build=_FcltReader, payload=_with_verdict,
        defaults={"n": 4000, "m": 10000, "grid": [0.25, 0.5, 0.75, 1.0]},
    ),
    "maximal": _Command(
        build=_MaximalReader, payload=_with_verdict,
        defaults={"n": 6, "lambdas": [0.0, 0.5, 1.0], "mode": "forward", "exhaustive": True,
                  "m": None, "two_sided": False},
    ),
    "ui-diagnostic": _Command(
        build=_UiReader, payload=lambda report: report.to_dict(),
        defaults={"n_list": [100, 1000], "epsilon_grid": [1.0, 2.0, 5.0, 10.0, 20.0], "m": 2000},
    ),
}

COMMANDS = tuple(_COMMANDS)
DEFAULT_PARAMS = {name: command.defaults for name, command in _COMMANDS.items()}


def _prepare(config: ExperimentConfig):
    """``run``'s setup: (exact layer, centering note, readers), or the first setup error raised.

    Builds the chain, centers the observable and makes the run's one exact
    layer, the ``_Exact`` holder of (chain, f) that every reader reads, so rho
    and the Poisson solution are built at most once per run. Then it builds
    each command's reader in config order, unstepped: a check's computes
    sigma^2 and, for exhaustive ``maximal``, every path; an exact command's
    only judges its params. Each reader must also fit the run's one pass
    with the readers before it. The first command whose reader fails to
    build or to fit raises its error here, before any command runs. This is
    the one walk that judges commands, so ``validate`` and ``run`` meet the
    same error.
    """
    chain = build_chain_from_definition(config.chain_definition)
    f, note = _centered_observable(config, chain)
    exact = _Exact(chain, f)
    readers = []
    for name, params in config.commands:
        readers.append(_COMMANDS[name].build(exact, seed=config.master_seed, **params))
        _pass_shape(readers)
    return exact, note, readers


def validate(config: ExperimentConfig) -> list[str]:
    """``run``'s setup without the run: the centering note, if any; a setup error is raised.

    Every command's parameters, and the sigma^2 of each check that reads it,
    are judged by ``_prepare`` as in ``run``, so the two meet exactly the same
    setup errors. No pass is run and no report is computed, so an exit 3 or 4
    that ``run`` meets at a command's own turn is not met here.
    """
    note = _prepare(config)[1]
    return [note] if note else []


def _run_command(name, reader, report: Path, csv: Path | None = None) -> None:
    """Take one command's report from its reader, write it to ``report`` (and ``csv``) and judge it.

    The paths are the command's names from ``_outputs``, which ``run`` owns
    before this is called, so its cleanup removes whatever this command
    wrote: the JSON report of a failed CSV write too.
    """
    command = _COMMANDS[name]
    result = reader.report()
    _write_json(report, {"schema": SCHEMA_VERSION, "command": name, **command.payload(result)})
    if command.csv:
        _write_csv(csv, command.csv(result))
    if failures := getattr(result, "failures", ()):
        raise StatisticalFailure(f"{name}: " + "; ".join(failures))


_RUNNERS = {name: partial(_run_command, name) for name in COMMANDS}


def _outputs(commands: list[tuple[str, dict]]) -> dict[str, list[str]]:
    """The run's one record of its files: each command's stem and the file names it writes.

    A stem is the command's name with ``_`` for ``-``, and ``_2``, ``_3``, ...
    from its second entry on; its files are ``stem.json`` and, for a command
    with a CSV, ``stem.csv``. This is the one place a report or CSV name is
    formed: ``run`` clears, writes, records in ``manifest.outputs`` and cleans
    up by these names.
    """
    outputs, seen = {}, []
    for name, _ in commands:
        seen.append(name)
        stem = name.replace("-", "_") + (f"_{seen.count(name)}" if seen.count(name) > 1 else "")
        outputs[stem] = [f"{stem}.json", *[f"{stem}.csv"] * bool(_COMMANDS[name].csv)]
    return outputs


def _remove(paths) -> None:
    """Unlink each of ``paths``; one that cannot be unlinked, such as a directory, stays.

    A directory there is no report: writing the report of its name raises a
    ConfigError naming it.
    """
    for path in paths:
        with contextlib.suppress(OSError):
            path.unlink(missing_ok=True)


def run(config: ExperimentConfig, only: str | None = None) -> RunManifest:
    """Execute the config's commands (or a single one) and write a manifest.

    With ``only`` the config is first narrowed to that subcommand's entries,
    or to one entry with its default params if it lists none, so the manifest
    hash, the setup and the command loop all read the commands that run.
    ``_prepare`` builds every command's reader, and its first error ends the
    run before ``output_dir`` is made; the first sampling reader's turn steps
    them all in one pass, and each report is taken and written at its own
    command's turn, in config order. Each file is written whole by
    ``_write``, and a failed write, the manifest's too, is a ConfigError
    naming the path; an ``OSError`` making ``output_dir`` propagates as it
    is. ``_outputs`` names every file of the run, and that one record is
    ``manifest.outputs``. Before the setup, the run removes
    ``manifest.json`` and each named file, so a config that ``_prepare``
    rejects leaves none of them either. Each command is handed its own
    names. On a module error, numerical or config, or an ``OSError`` that
    ``_write`` could not map (a ``name.tmp`` that is a directory, say), the
    run removes them all again before the error propagates. So no earlier
    run's file of those names is left, a manifest in ``output_dir`` lists
    the files of the run that wrote it, no other file is touched, and
    ``output_dir`` stays. A name that cannot be removed, such as a
    directory, stays, and its write meets the error. The reports of a
    statistical failure are complete and are kept.
    """
    if only is not None:
        commands = [(n, p) for n, p in config.commands if n == only] or _normalize_commands([only])
        config = replace(config, commands=commands)

    manifest = RunManifest(config.config_hash(), __version__, _outputs(config.commands))
    owned = [config.output_dir / n for n in ("manifest.json", *sum(manifest.outputs.values(), []))]
    _remove(owned)
    exact, note, readers = _prepare(config)
    if note:
        print(f"warning: {note}", file=sys.stderr)

    config.output_dir.mkdir(parents=True, exist_ok=True)
    first = next((reader for reader in readers if reader.m is not None), None)
    try:
        for reader, (name, _), (stem, names) in zip(readers, config.commands, manifest.outputs.items()):
            start = time.perf_counter()
            if reader is first:
                _one_pass(exact, config.master_seed, readers)
            _RUNNERS[name](reader, *(config.output_dir / n for n in names))
            manifest.timings[stem] = time.perf_counter() - start
        _write_json(config.output_dir / "manifest.json", manifest.to_dict())
    except (NumericalError, ConfigError, OSError):
        _remove(owned)
        raise
    return manifest


# --- entry point ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rclt",
        description="Numerical laboratory for reversible Markov chain limit behavior.",
    )
    parser.add_argument("subcommand", choices=COMMANDS + ("run", "validate"))
    parser.add_argument("--config", required=True, help="experiment config JSON file")
    parser.add_argument("--seed", type=int, default=None, help="override master seed")
    parser.add_argument("--out", default=None, help="override output directory")
    return parser


@np.errstate(all="ignore")  # every reported number is judged, so a warning only adds lines
def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config, seed_override=args.seed, out_override=args.out)
        if args.subcommand == "validate":
            for line in validate(config):
                print(line)
            return 0
        manifest = run(config, only=None if args.subcommand == "run" else args.subcommand)
        print(f"wrote {sum(len(v) for v in manifest.outputs.values())} file(s) "
              f"to {config.output_dir}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a path on the output side that cannot be judged or made
        print(f"config error: cannot use {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except StatisticalFailure as exc:
        print(f"statistical failure: {exc}", file=sys.stderr)
        return 4
    except (NumericalError, RcltError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
