"""One fresh interpreter of the benchmark, started by run.py.

  python3 bench/child.py --workload NAME --mode setup|run|trace --seed N --seconds S

Set-up imports mpanderson, parses the workload's config and runs the
sample -> build -> eigensolve path once on a small cube of the workload's
model (this loads LAPACK), then prints READY.  In `setup` mode the process then
exits.  In `run` mode it times whole rounds of `harness.run` (one worker)
until S seconds have passed, records its peak resident set, checks every
round's output, and prints `RESULT <json>` as its last line.  In `trace` mode
it alternates untraced and traced rounds of the same master seed, adds one
two-worker round, and reports per-layer metrics from the traced rounds.

run.py sets the BLAS thread variables to 1 in this process's environment
before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

from workloads import MIN_ROUNDS, WARMUP_RADIUS, WARMUP_SEED, WORKLOADS, round_seed

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"


def _set_up(workload):
    sys.path.insert(0, str(ROOT / "src"))
    from mpanderson import ConfigPoint, Cube, build, eigensolve, harness, sample
    from mpanderson.geometry import single_particle_sites

    start = time.perf_counter()
    config = harness.parse_config(workload.config_text())
    parse_s = time.perf_counter() - start
    model = config.model
    region = Cube(ConfigPoint.origin(model.n, model.d), WARMUP_RADIUS)
    realization = sample(config.disorder, single_particle_sites(region), WARMUP_SEED, 0)
    eigensolve(build(region, realization, config.interaction, model.h))
    return harness, config, parse_s


def _round(harness, config, seed, out_dir, workers=1, tracer=None):
    """One harness.run call: its seed, wall time, and output texts or error."""
    start = time.perf_counter()
    try:
        if tracer is None:
            manifest = harness.run(config, cli_seed=seed, cli_workers=workers, out_override=str(out_dir))
        else:
            with tracer.span("harness.run"):
                manifest = harness.run(config, cli_seed=seed, cli_workers=workers, out_override=str(out_dir))
    except Exception as exc:  # noqa: BLE001 - a failed round is counted, not fatal
        return {"seed": seed, "wall_s": time.perf_counter() - start, "error": repr(exc)}
    wall = time.perf_counter() - start
    outputs = {Path(p).name: Path(p).read_text() for p in manifest.outputs}
    return {"seed": seed, "wall_s": wall, "outputs": outputs}


def _check(workload, rounds) -> dict:
    from checks import check_round  # after set-up: it needs src/ on the path

    csv_name = f"{workload.task}.csv"
    failures: list[str] = []
    stats: dict = {}
    for entry in rounds:
        if "error" in entry:
            continue
        found, numbers = check_round(workload, entry["seed"], entry["outputs"][csv_name])
        failures.extend(f"seed {entry['seed']}: {f}" for f in found)
        for key, value in numbers.items():
            stats.setdefault(key, []).append(value)
    return {"failures": failures, "stats": stats}


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration', '')}".strip(),
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _summary(workload, rounds) -> dict:
    errors = sum(1 for r in rounds if "error" in r)
    return {
        "attempted": workload.events_per_round * len(rounds),
        "failed": workload.events_per_round * errors,
        "errors": [r["error"] for r in rounds if "error" in r],
    }


def run_mode(workload, harness, config, seed, seconds, out_dir) -> dict:
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds.append(_round(harness, config, round_seed(seed, len(rounds)), out_dir))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [r["wall_s"] for r in rounds if "error" not in r]
    return {
        **_summary(workload, rounds),
        "wall_s": walls,
        "peak_rss_mb": peak_rss_mb,
        "checks": _check(workload, rounds),
        "environment": _environment(),
    }


def trace_mode(workload, harness, config, seed, seconds, out_dir, parse_s) -> dict:
    from tracing import MIN_TRACED_ROUNDS, Tracer, layer_metrics

    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while len(traced) < MIN_TRACED_ROUNDS or time.perf_counter() - start < seconds:
        k = len(traced)
        untraced.append(_round(harness, config, round_seed(seed, k), out_dir))
        tracer.round = k
        tracer.install()
        try:
            traced.append(_round(harness, config, round_seed(seed, k), out_dir, tracer=tracer))
        finally:
            tracer.uninstall()
    two_workers = _round(harness, config, round_seed(seed, 0), out_dir, workers=2)
    rounds = untraced + traced + [two_workers]
    summary = _summary(workload, rounds)
    result = {**summary, "checks": _check(workload, rounds), "environment": _environment()}
    if summary["errors"]:
        return result
    tracer.write(out_dir / "spans.jsonl")
    measured = {
        "parse_config_s": parse_s,
        "output_bytes": [sum(len(t.encode()) for t in r["outputs"].values()) for r in traced],
        "untraced_wall_s": [r["wall_s"] for r in untraced],
        "traced_wall_s": [r["wall_s"] for r in traced],
        "wall_w1_s": untraced[0]["wall_s"],
        "wall_w2_s": two_workers["wall_s"],
    }
    result["layers"] = layer_metrics(workload.task, tracer.spans, measured)
    result["measured"] = measured
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    harness, config, parse_s = _set_up(workload)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    out_dir = RESULTS / workload.name / args.mode
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.mode == "run":
        result = run_mode(workload, harness, config, args.seed, args.seconds, out_dir)
    else:
        result = trace_mode(workload, harness, config, args.seed, args.seconds, out_dir, parse_s)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
