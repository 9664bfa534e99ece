"""Benchmark of mpanderson's msa, decay and moment tasks, end to end and per layer.

  python3 bench/run.py --workload msa_1d --seed 1 --seconds 25 --trace 0
  python3 bench/run.py                     # every workload, end to end
  python3 bench/run.py --trace 1           # the traced run of every workload

Each workload runs in fresh interpreters with one BLAS thread and one worker.
End to end (--trace 0) reports, per workload:
  wall_s       median time of one `harness.run` round, CSV writes included
  setup_s      median time from a fresh interpreter to ready (import,
               config parse, one warm-up eigensolve) over SETUP_SAMPLES
               interpreters
  peak_rss_mb  peak resident set of the interpreter that ran the rounds
The traced run (--trace 1) covers all three workloads, whatever --workload
names, because each layer runs in only some of them; its per-layer metrics
are prefixed with the workload.  Every round's output is checked; the last
stdout line is one JSON object with keys correct, attempted, failed and
metrics, and the exit code is 1 when a check failed.  Results, with the
resolved environment, are written under bench/results/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import layer_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: fresh interpreters whose set-up time is measured in one end-to-end run
SETUP_SAMPLES = 9
#: a child that has not finished by then is killed
CHILD_TIMEOUT_S = 160.0
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKERS_VARIABLE = "ANDERSON_WORKERS"


class ChildError(RuntimeError):
    pass


def child_environment() -> dict:
    env = dict(os.environ)
    env.pop(WORKERS_VARIABLE, None)  # harness.run gets cli_workers explicitly
    for name in BLAS_THREAD_VARIABLES:
        env[name] = "1"
    return env


def run_child(workload: str, mode: str, seed: int = 0, seconds: float = 0.0) -> tuple[float, dict | None]:
    """Start one child; return (seconds from start to READY, its RESULT or None)."""
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", workload, "--mode", mode,
        "--seed", str(seed), "--seconds", str(seconds),
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=child_environment(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = None
        result = None
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if code != 0 or ready is None or (mode != "setup" and result is None):
        raise ChildError(f"{workload} {mode} child exited with code {code}")
    return ready, result


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    run_child(name, "setup")  # untimed: leaves the byte-code and file caches warm
    # set-ups before and after the rounds, so that their median spans the run
    before = (SETUP_SAMPLES - 1) // 2
    setups = [run_child(name, "setup")[0] for _ in range(before)]
    ready, result = run_child(name, "run", seed, seconds)
    setups.append(ready)
    setups += [run_child(name, "setup")[0] for _ in range(SETUP_SAMPLES - 1 - before)]
    result["setup_s"] = setups
    failures = result["checks"]["failures"]
    metrics = {
        "wall_s": (statistics.median(result["wall_s"]), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    print(
        f"{name}: wall_s = {metrics['wall_s'][0]:.4f} s (median of {len(result['wall_s'])} rounds), "
        f"setup_s = {metrics['setup_s'][0]:.4f} s (median of {len(setups)}), "
        f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.1f} MB; "
        f"attempted {result['attempted']}, failed {result['failed']}; "
        f"checks {'passed' if not failures else 'FAILED'}"
    )
    return {"name": name, "result": result, "metrics": metrics, "failures": failures}


def traced(name: str, seed: int, seconds: float) -> dict:
    _, result = run_child(name, "trace", seed, seconds)
    units = layer_units(WORKLOADS[name].task)
    metrics = {f"{name}.{key}": (value, units[key]) for key, value in result.get("layers", {}).items()}
    failures = result["checks"]["failures"]
    print(
        f"{name} (traced): {len(metrics)} per-layer metrics, tracing overhead "
        f"{result.get('layers', {}).get('trace.overhead_pct', float('nan')):.2f} %; "
        f"attempted {result['attempted']}, failed {result['failed']}; "
        f"checks {'passed' if not failures else 'FAILED'}"
    )
    return {"name": name, "result": result, "metrics": metrics, "failures": failures}


def environment(workload_results) -> dict:
    env = dict(workload_results[0]["result"]["environment"])
    env.update(
        nproc=os.cpu_count(),
        cpus_usable=len(os.sched_getaffinity(0)),
        workers=1,
        anderson_workers_inherited=os.environ.get(WORKERS_VARIABLE),
        anderson_workers_overridden=True,
        setup_samples=SETUP_SAMPLES,
    )
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mpanderson" / "__init__.py").is_file():
        print(f"error: no mpanderson sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" or args.trace else [args.workload]
    try:
        if args.trace:
            share = args.seconds / len(names)
            outcomes = [traced(name, args.seed, share) for name in names]
        else:
            outcomes = [end_to_end(name, args.seed, args.seconds) for name in names]
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = environment(outcomes)
    print("environment: " + json.dumps(env))
    for outcome in outcomes:
        out_dir = ROOT / "bench" / "results" / outcome["name"]
        out_dir.mkdir(parents=True, exist_ok=True)
        record = {"seed": args.seed, "seconds": args.seconds, "environment": env, **outcome}
        (out_dir / ("trace.json" if args.trace else "result.json")).write_text(json.dumps(record, indent=1) + "\n")
        for failure in outcome["failures"]:
            print(f"CHECK FAILED {outcome['name']}: {failure}", file=sys.stderr)

    prefix = len(outcomes) > 1 and not args.trace  # traced metrics carry their workload already
    metrics = {
        (f"{o['name']}.{key}" if prefix else key): {"value": value, "unit": unit}
        for o in outcomes
        for key, (value, unit) in o["metrics"].items()
    }
    correct = all(not o["failures"] for o in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(o["result"]["attempted"] for o in outcomes),
        "failed": sum(o["result"]["failed"] for o in outcomes),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
