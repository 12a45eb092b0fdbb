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

Each input reaches the run through one checking step. ``_read_json`` is the
only place a file becomes a value: an unreadable path, bytes that are not
UTF-8 JSON, nesting too deep to parse or a top-level value of the wrong JSON
type is a config error. ``load_config`` checks the config's structure (known
keys only, a ``schema`` of 1 if given, string paths, a command list, a params
object per command, typed params), then the chain file's keys (known ones
only, then ``kind``, ``matrix`` and ``target``), and last converts the
matrix and target to float arrays (``MalformedMatrix`` for a ragged or
non-numeric one), so the parsed lists are freed before the chain is admitted.
A single subcommand run narrows the config to that subcommand before
anything reads it, so its manifest hashes the commands it ran.

Exit codes: 0 success, 2 config or argument error, 3 numerical error
(including a ragged or non-numeric chain matrix), 4 statistical acceptance
failure. ``run`` and ``validate`` share one setup, ``_prepare``: it builds
the chain, centers the observable, makes the run's one exact layer (the
``rclt.spectral._Exact`` holder whose rho and Poisson solution every
command and reader reads, each built at most once) and judges every
command in config order (a check command by building its reader,
unstepped, any other by its arguments), stopping at the first error.
``validate`` raises that error, so it exits with the code ``run`` would
give; ``run`` raises it at that command's turn, after the reports of the
commands before it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
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
    _build_reader,
    _one_pass,
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


def _wrong_type(value, default) -> bool:
    """Whether a config value cannot stand where ``default`` does.

    Counts take integers only and other numbers must be finite. A list must hold
    entries that could each stand where the default's first entry does.
    """
    if isinstance(default, list):
        return not isinstance(value, list) or any(_wrong_type(v, default[0]) for v in value)
    if isinstance(default, bool) or isinstance(value, bool):
        return type(value) is not type(default)
    if default is None or isinstance(default, int):
        return not (isinstance(value, int) or (value is None and default is None))
    if isinstance(default, float):  # Python json reads NaN and Infinity as floats
        return not (isinstance(value, int) or isinstance(value, float) and math.isfinite(value))
    return not isinstance(value, type(default))


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
        defaults = DEFAULT_PARAMS[name]
        _known_keys(params, defaults, f"{name} parameter")
        for key, value in params.items():
            if _wrong_type(value, defaults[key]):
                raise ConfigError(f"{name} parameter {key!r} has the wrong type: {value!r}")
        merged = dict(defaults)
        merged.update(params)
        commands.append((name, merged))
    return commands


def _needs_seed(commands: list[tuple[str, dict]]) -> bool:
    return any(
        _COMMANDS[name].seeded and not (name == "maximal" and params["exhaustive"])
        for name, params in commands
    )


def load_config(
    path, seed_override: int | None = None, out_override: str | None = None
) -> ExperimentConfig:
    """Load, path-resolve and structurally validate an experiment config.

    Paths in the config are strings relative to the config file's directory.
    """
    path = Path(path)
    raw = _read_json(path, dict)[0]
    base = path.parent
    _known_keys(raw, _CONFIG_KEYS, "config key")
    schema = raw.get("schema", SCHEMA_VERSION)
    if _wrong_type(schema, 0) or schema != SCHEMA_VERSION:
        raise ConfigError(f"config 'schema' must be {SCHEMA_VERSION}, got {schema!r}")

    chain_path = _path(base, raw.get("chain_spec"), "chain_spec")
    chain_definition, chain_sha256 = _read_json(chain_path, dict)
    _known_keys(chain_definition, _CHAIN_KEYS, "chain key")

    observable = raw.get("observable")
    if isinstance(observable, str):
        observable = _read_json(_path(base, observable, "observable"), list)[0]
    if observable is not None:
        if _wrong_type(observable, [0.0]):
            raise ConfigError("observable must be a vector of numbers (or a path to one)")
        observable = [float(v) for v in observable]

    commands = _normalize_commands(raw.get("commands"))
    master_seed = raw.get("master_seed") if seed_override is None else seed_override
    if master_seed is not None and (_wrong_type(master_seed, 0) or not 0 <= master_seed < 2**64):
        raise ConfigError(f"master_seed must be a nonnegative 64-bit integer, got {master_seed!r}")
    if master_seed is None and _needs_seed(commands):
        raise ConfigError("master_seed is required when a Monte Carlo subcommand is requested")

    output_dir = out_override if out_override is not None else raw.get("output_dir", "out")
    output_dir = _path(base, output_dir, "output_dir")
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
    """(centered observable, auto-centering note or None), from the config or the chain file."""
    raw = config.observable
    if raw is None:
        raw = config.chain_definition.get("observable")
    if raw is None:
        raise ConfigError("no observable given in config or chain definition")
    f = project_mean_zero(raw, chain)
    m = float(np.dot(chain.stationary, np.asarray(raw, dtype=float)))
    return f, f"observable auto-centered (stationary mean {m:.6g})" if abs(m) > 1e-12 else None


def resolve_observable(config: ExperimentConfig, chain: ReversibleChain) -> Observable:
    """Pick the config observable (falling back to the chain file's) and center it."""
    return _centered_observable(config, chain)[0]


# --- persistence -----------------------------------------------------------------


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


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
    path.write_text("\n".join(lines) + "\n")


# --- command execution -------------------------------------------------------------


@dataclass(frozen=True)
class _Command:
    """One subcommand: its library call, its params, whether it needs a seed, and what it writes.

    ``_COMMANDS`` holds one per subcommand; ``COMMANDS`` and ``DEFAULT_PARAMS``
    are read off it.

    A command has either a ``call`` or a ``check``, never both.
    ``call(config, exact, params)`` gives the result from the run's exact layer
    ``exact``, looking library functions up in this module's globals at run
    time. ``arguments(params)``, if set, raises the library's error for params
    the call would reject; ``_prepare`` calls it before any command runs.
    ``check`` is the ``rclt.limits`` check whose reader ``_prepare`` builds
    and whose report ``run`` takes from the run's one pass.
    ``payload`` turns the result into the JSON report body and ``csv``, if set,
    into CSV columns. ``defaults`` are the command's params and their default
    values, and ``seeded`` marks a command that consumes random streams and
    therefore needs a master seed (``_needs_seed`` excuses exhaustive ``maximal``).
    """

    payload: Callable
    call: Callable | None = None
    arguments: Callable | None = None
    csv: Callable | None = None
    check: Callable | None = None
    defaults: dict = field(default_factory=dict)
    seeded: bool = False


def _decompose_command(config, exact, params):
    """(trajectory, decomposition terms) for the seeded path of the params."""
    seed = derive_seed(config.master_seed, params["seed_index"])
    traj = sample_trajectory(exact.chain, exact.f, params["length"], seed)
    return traj, _decompose(exact, traj, params["horizon"])


def _decompose_arguments(params) -> None:
    _numbers(int, [params["seed_index"]], "seed_index", least=0)
    _decompose_horizon(params["length"], params["horizon"])


def _with_verdict(report) -> dict:
    return {"passed": report.passed, "failures": list(report.failures), **report.to_dict()}


_COMMANDS = {
    "spectrum": _Command(
        call=lambda config, exact, p: exact.rho,
        payload=lambda rho: {"atoms": rho.atoms(), "total_mass": rho.total_mass},
    ),
    "variance": _Command(
        call=lambda _, exact, p: _variance_report(exact, **p),
        arguments=lambda p: _numbers(int, [p["n_max"]], "n_max", least=1),
        defaults={"n_max": 1000},
        payload=lambda report: {"atoms": report.measure.atoms(), **report.to_dict()},
        csv=lambda report: {
            "n": range(1, len(report.var_over_n) + 1), "var_over_n": report.var_over_n,
        },
    ),
    "decompose": _Command(
        call=_decompose_command,
        arguments=_decompose_arguments,
        defaults={"length": 200, "horizon": None, "seed_index": 0}, seeded=True,
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
        check=clt_test,
        defaults={"n": 2000, "m": 10000, "ks_threshold": 0.02}, seeded=True,
        payload=lambda report: {"passed": report.passed, **report.to_dict()},
        csv=lambda report: {
            "replica": range(len(report.normalized_sums)),
            "normalized_sum": report.normalized_sums,
        },
    ),
    "fclt": _Command(
        check=fclt_profile, payload=_with_verdict, seeded=True,
        defaults={"n": 4000, "m": 10000, "grid": [0.25, 0.5, 0.75, 1.0]},
    ),
    "maximal": _Command(
        check=maximal_inequality_check, payload=_with_verdict, seeded=True,  # unless exhaustive
        defaults={"n": 6, "lambdas": [0.0, 0.5, 1.0], "mode": "forward", "exhaustive": True,
                  "m": None, "two_sided": False},
    ),
    "ui-diagnostic": _Command(
        check=uniform_integrability_diagnostic, payload=lambda report: report.to_dict(),
        defaults={"n_list": [100, 1000], "epsilon_grid": [1.0, 2.0, 5.0, 10.0, 20.0], "m": 2000},
        seeded=True,
    ),
}

COMMANDS = tuple(_COMMANDS)
DEFAULT_PARAMS = {name: command.defaults for name, command in _COMMANDS.items()}


def _prepare(config: ExperimentConfig):
    """``run``'s setup: (exact layer, centering note, readers, stop, error).

    Builds the chain, centers the observable and makes the run's one exact
    layer, the ``_Exact`` holder of (chain, f) that every command and reader
    reads, so rho and the Poisson solution are built at most once per run.
    Then it judges the commands in config order: a check command by building
    its reader, unstepped, which computes sigma^2 and, for exhaustive
    ``maximal``, every path; any other command by its ``arguments``. The first error ends the walk: ``stop`` is
    its command's index and ``error`` the error, else ``stop`` is the number
    of commands and ``error`` None. ``readers`` maps the index of each check
    command before ``stop`` to its reader. This is the one walk that judges
    commands, so ``validate`` and ``run`` meet the same error.
    """
    chain = build_chain_from_definition(config.chain_definition)
    f, note = _centered_observable(config, chain)
    exact = _Exact(chain, f)
    readers = {}
    for i, (name, params) in enumerate(config.commands):
        command = _COMMANDS[name]
        try:
            if command.check:
                readers[i] = _build_reader(exact, config.master_seed, command.check, params)
            elif command.arguments:
                command.arguments(params)
        except Exception as exc:  # run raises it at this command's turn
            return exact, note, readers, i, exc
    return exact, note, readers, len(config.commands), None


def validate(config: ExperimentConfig) -> list[str]:
    """``run``'s setup without the run: the centering note, if any, else what ``run`` raises.

    Every command's parameters, and sigma^2, are judged by ``_prepare`` as in
    ``run``, and the error ``run`` would meet first is raised, so ``main``
    gives both the same exit code.
    """
    _, note, _, _, error = _prepare(config)
    if error is not None:
        raise error
    return [note] if note else []


def _run_command(name, config, exact, params, outdir, stem, result=None) -> list[Path]:
    """Run one subcommand, or take its check's ``result``, write its reports and judge them."""
    command = _COMMANDS[name]
    if result is None:
        result = command.call(config, exact, params)
    files = [outdir / f"{stem}.json"]
    _write_json(files[0], {"schema": SCHEMA_VERSION, "command": name, **command.payload(result)})
    if command.csv:
        files.append(outdir / f"{stem}.csv")
        _write_csv(files[1], command.csv(result))
    failures = getattr(result, "failures", ())
    if failures:
        raise StatisticalFailure(f"{name}: " + "; ".join(failures))
    return files


_RUNNERS = {name: partial(_run_command, name) for name in COMMANDS}


def _output_stems(commands: list[tuple[str, dict]]) -> list[str]:
    seen: dict[str, int] = {}
    stems = []
    for name, _ in commands:
        seen[name] = seen.get(name, 0) + 1
        base = name.replace("-", "_")
        stems.append(base if seen[name] == 1 else f"{base}_{seen[name]}")
    return stems


def run(config: ExperimentConfig, only: str | None = None) -> RunManifest:
    """Execute the config's commands (or a single one) and write a manifest.

    With ``only`` the config is first narrowed to that subcommand's entries,
    or to one entry with its default params if it lists none, so the manifest
    hash, the setup and the command loop all read the commands that run.
    ``_prepare`` judges every command and builds the readers of the check
    commands; the first check command steps them all in one pass, and each
    report is still written at its own command's turn, in config order. The
    setup's error is raised at its command's turn. On a module error, files
    already written by this invocation are removed before the error
    propagates; outputs of a statistical failure are complete reports and
    are kept.
    """
    if only is not None:
        commands = [(n, p) for n, p in config.commands if n == only] or _normalize_commands([only])
        if config.master_seed is None and _needs_seed(commands):
            raise ConfigError(f"subcommand {only!r} needs a master_seed")
        config = replace(config, commands=commands)

    exact, note, readers, stop, error = _prepare(config)
    if note:
        print(f"warning: {note}", file=sys.stderr)

    config.output_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(config_hash=config.config_hash(), version=__version__)
    written: list[Path] = []
    reports: dict[int, object] = {}
    stems = _output_stems(config.commands)
    try:
        for i, ((name, params), stem) in enumerate(zip(config.commands, stems)):
            start = time.perf_counter()
            if i == stop:
                raise error
            if not reports and i in readers:
                checked = _one_pass(exact, config.master_seed, list(readers.values()))
                reports = dict(zip(readers, checked))
            files = _RUNNERS[name](config, exact, params, config.output_dir, stem, reports.get(i))
            written.extend(files)
            manifest.outputs[stem] = [p.name for p in files]
            manifest.timings[stem] = time.perf_counter() - start
    except (NumericalError, ConfigError):
        for path in written:
            path.unlink(missing_ok=True)
        raise
    manifest_path = config.output_dir / "manifest.json"
    _write_json(manifest_path, manifest.to_dict())
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
    except StatisticalFailure as exc:
        print(f"statistical failure: {exc}", file=sys.stderr)
        return 4
    except (NumericalError, RcltError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
