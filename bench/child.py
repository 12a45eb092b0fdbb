"""One fresh process of the benchmark; prints one JSON object as its last line.

    python3 child.py setup <repo root> <config>
    python3 child.py run   <repo root> <config> <output dir>
    python3 child.py trace <repo root> <config> <output dir>
    python3 child.py probe <repo root> <config> <observables> <length> <horizon> <seed index>

``setup`` times ``import rclt`` plus ``load_config``. ``run`` times one
``rclt run`` from before the import, wall and CPU, and reads the peak RSS.
``trace`` does the same with the layer spans of ``layer_trace`` installed.
``probe`` decomposes one long sampled path through the library, once per
observable in the ``observables`` JSON list.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _import_cli(root: str):
    src = (Path(root) / "src").resolve()
    sys.path.insert(0, str(src))
    import rclt.cli

    if not Path(rclt.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"rclt was imported from {rclt.cli.__file__}, not from {src}")
    return rclt.cli


def _run_cli(cli, config: str, outdir: str):
    """Exit code of ``rclt run``, or the name of an exception it let escape."""
    try:
        return cli.main(["run", "--config", config, "--out", outdir])
    except Exception as exc:  # reported as a failed run, not a benchmark crash
        return f"{type(exc).__name__}: {exc}"


def setup(root, config):
    start = time.perf_counter()
    cli = _import_cli(root)
    cli.load_config(config)
    return {"setup_s": time.perf_counter() - start}


def run(root, config, outdir, traced=False):
    start, cpu_start = time.perf_counter(), time.process_time()
    cli = _import_cli(root)
    tracer = None
    if traced:
        import layer_trace

        tracer = layer_trace.install(cli)
    exit_code = _run_cli(cli, config, outdir)
    result = {
        "exit": exit_code,
        "run_s": time.perf_counter() - start,
        "cpu_s": time.process_time() - cpu_start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    return result


def probe(root, config, observables, length, horizon, seed_index):
    cli = _import_cli(root)
    import rclt

    cfg = cli.load_config(config)
    chain = cli.build_chain_from_definition(cfg.chain_definition)
    seed = rclt.derive_seed(cfg.master_seed, int(seed_index))
    start = time.perf_counter()
    errors, residuals = [], []
    for raw in json.loads(Path(observables).read_text()):
        f = rclt.project_mean_zero(raw, chain)
        traj = rclt.sample_trajectory(chain, f, int(length), seed)
        try:
            terms = rclt.decompose_trajectory(chain, f, traj, horizon=int(horizon))
        except rclt.NumericalError as exc:
            errors.append(str(exc))
        else:
            residuals.append(max(terms.max_pair_residual, terms.max_decomposition_residual))
    return {
        "ok": not errors,
        "observables": len(errors) + len(residuals),
        "errors": errors,
        "passed_residuals": residuals,
        "probe_s": time.perf_counter() - start,
    }


if __name__ == "__main__":
    mode, *arguments = sys.argv[1:]
    if mode == "trace":
        result = run(*arguments, traced=True)
    else:
        result = {"setup": setup, "run": run, "probe": probe}[mode](*arguments)
    print(json.dumps(result))
