"""Benchmark of ``rclt run`` on seeded workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run_bench.py --workload narrow_long --seed 1 --seconds 36 --trace 0

Set-up writes the workload's chain and config from ``--seed`` into a
scratch directory under ``bench/``, computes the output references and
times ``import rclt`` plus ``load_config`` in several fresh processes.
Then, for ``--seconds``, it runs the config once per fresh process
(``rclt.cli.main(["run", ...])``) and checks every report by value.
``--trace 0`` runs untraced and reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics, whose spans are installed from ``bench/layer_trace.py``.
Metric names and units come from ``BENCHMARK.json``. The last line of
standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
from workloads import WORKLOADS, generate

BENCH_DIR = Path(__file__).resolve().parent
#: setup_s is the median of at least this many fresh processes ...
SETUP_REPEATS = 3
#: ... started for at least this many seconds
SETUP_SECONDS = 2.0
#: every run must end within this many seconds of its start
RUN_LIMIT_S = 170.0
#: operation outcome ranking; an operation reports its worst outcome over all runs
_OUTCOME_RANK = {"ok": 0, "known_defect": 1, "verdict": 2, "missing": 3, "mismatch": 4}


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read through its C API."""
    with open("/proc/self/maps") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _cpu_ticks() -> list[int]:
    """Machine-wide cpu time counters: user, nice, system, idle, iowait, irq, softirq, steal, ..."""
    with open("/proc/stat") as stat:
        return [int(v) for v in stat.readline().split()[1:]]


class Child:
    """Runs ``child.py`` in fresh processes, all within one deadline."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline

    def __call__(self, mode: str, *arguments) -> dict:
        command = [sys.executable, str(BENCH_DIR / "child.py"), mode, str(self.root)]
        completed = subprocess.run(
            command + [str(a) for a in arguments],
            capture_output=True,
            text=True,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        if completed.returncode != 0:
            raise RuntimeError(f"child {mode} failed:\n{completed.stderr[-2000:]}")
        return json.loads(completed.stdout.strip().splitlines()[-1])


def _expectations(workload, inputs) -> checks.Expectations:
    import rclt.cli as cli

    def admit():
        cfg = cli.load_config(inputs.config_path)
        chain = cli.build_chain_from_definition(cfg.chain_definition)
        return chain.kernel, chain.stationary, cli.resolve_observable(cfg, chain).values

    commands = [(entry["command"], entry["params"]) for entry in workload.commands]
    return checks.Expectations(commands, inputs, admit)


def measure(args, root: Path, work: Path, names: dict) -> dict:
    started = time.monotonic()
    child = Child(root, started + RUN_LIMIT_S)
    workload = WORKLOADS[args.workload]
    inputs = generate(workload, args.seed, work)
    expected = _expectations(workload, inputs)

    outcomes: dict[str, str] = {}
    details: dict[str, str] = {}
    correct = True

    def record(op, outcome, detail=""):
        if _OUTCOME_RANK[outcome] >= _OUTCOME_RANK.get(outcomes.get(op, "ok"), 0):
            outcomes[op] = outcome
            if detail:
                details[op] = detail

    probe = workload.probe
    if probe is not None:
        result = child(
            "probe", inputs.config_path, inputs.probe_path, probe.length, probe.horizon, probe.seed_index
        )
        print(f"probe {probe.name}: {json.dumps(result)}")
        if result["ok"]:
            record(probe.name, "ok")
        else:
            failures = f"{len(result['errors'])} of {result['observables']} observables"
            record(probe.name, "known_defect", f"{probe.known_defect} ({failures}: {result['errors'][0]})")

    setup_s = []
    setup_end = time.monotonic() + SETUP_SECONDS
    while not args.trace and (len(setup_s) < SETUP_REPEATS or time.monotonic() < setup_end):
        setup_s.append(child("setup", inputs.config_path)["setup_s"])

    plain, traced = [], []
    window_end = time.monotonic() + args.seconds
    ticks = _cpu_ticks()
    longest = 0.0
    index = 0
    # a run starts only if one as long as the longest so far still ends in the window
    while not plain or (args.trace and not traced) or time.monotonic() + longest < window_end:
        rep_start = time.monotonic()
        mode = "trace" if args.trace and index % 2 == 1 else "run"
        outdir = work / f"out_{index}"
        rep = child(mode, inputs.config_path, outdir)
        if rep["exit"] not in (0, 4):
            correct = False
        for op, outcome, detail in expected.check_run(outdir):
            record(op, outcome, detail)
            correct &= outcome != "mismatch"
        if mode == "trace":
            rep["layers"]["cli.bytes_written"] = sum(p.stat().st_size for p in outdir.iterdir())
            traced.append(rep)
        else:
            plain.append(rep)
        print(f"{mode} {index}: exit {rep['exit']} run_s {rep['run_s']:.4f} cpu_s {rep['cpu_s']:.4f}")
        shutil.rmtree(outdir)
        longest = max(longest, time.monotonic() - rep_start)
        index += 1
    ticks = [after - before for after, before in zip(_cpu_ticks(), ticks)]
    print(f"cpu time stolen by the host while measuring: {100 * ticks[7] / sum(ticks):.1f}%")

    attempted = len(outcomes)
    failed = sum(outcome != "ok" for outcome in outcomes.values())
    for op, outcome in outcomes.items():
        print(f"operation {op}: {outcome} {details.get(op, '')}".rstrip())
    if probe is not None and outcomes[probe.name] == "known_defect":
        print(f"known defect: {probe.name}: {details[probe.name]}")

    if args.trace:
        values = {
            name: statistics.median(rep["layers"][name] for rep in traced)
            for name in traced[0]["layers"]
        }
        values["trace.overhead_s"] = statistics.median(r["run_s"] for r in traced) - statistics.median(
            r["run_s"] for r in plain
        )
        values["failed_ratio"] = failed / attempted
    else:
        values = {
            name: statistics.median(rep[name] for rep in plain)
            for name in ("run_s", "cpu_s", "peak_rss_mb")
        }
        values["setup_s"] = statistics.median(setup_s)
        values["ok_ratio"] = (attempted - failed) / attempted
    print(f"runs: {len(plain)} untraced, {len(traced)} traced; setup runs: {len(setup_s)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names.items()}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "rclt" / "__init__.py").is_file():
        print(f"no rclt sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    print("environment: " + json.dumps(environment()))
    print(f"workload {args.workload}: {WORKLOADS[args.workload].why}")
    scratch = BENCH_DIR / "_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        result = measure(args, root, work, names)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
