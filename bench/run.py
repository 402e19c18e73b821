"""fedsim benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 bench/run.py --workload silo-mlp --seed 1 --seconds 30 --trace 0

Workloads: silo-mlp, fleet-churn, cli-suite (see bench/README.md).  The
workload runs in a fresh child process with single-threaded BLAS, so its
peak RSS is its own.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer ones.  The output is a short
human-readable report followed, as the last line, by one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is
not 0, and no JSON is printed, when the workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("silo-mlp", "fleet-churn", "cli-suite")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Time a child may take beyond --seconds: start-up, warm-up, the set-up of
# the last pass and the pass that crosses the deadline.
CHILD_MARGIN_S = 120
# Printed but not in BENCHMARK.json: fleet-churn writes its outputs in about
# 30 ms, and that time spread by 30% between runs, more than a bound allows.
UNBOUNDED = [{"name": "write_s", "unit": "s"}]


def metric_table() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run bench/workload.py in a fresh process; return its result and peak RSS."""
    cmd = [
        sys.executable,
        str(BENCH_DIR / "workload.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    timeout = seconds + CHILD_MARGIN_S
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"{workload} did not finish within {timeout:g} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited with code {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "fedsim" / "__init__.py").is_file():
        print(f"error: no fedsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    table = metric_table()
    seconds = args.seconds if args.seconds is not None else table["run_seconds"]
    try:
        result = run_child(args.workload, args.seed, seconds, args.trace)
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        wanted = table["per_layer"]
        values = result.get("layers", {})
    else:
        wanted = table["end_to_end"]
        values = dict(result.get("metrics", {}), peak_rss_mb=result["peak_rss_mb"])
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: {args.workload} reported no {', '.join(missing)}", file=sys.stderr)
        for problem in result["problems"]:
            print(f"  {problem}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['passes']} timed passes")
    print(f"env {json.dumps(result['env'], sort_keys=True)}")
    measured = result.get("measured", {}) if not args.trace else {}
    if measured:
        print(f"  reference loop: median {1e3 * result['reference_s']:.2f} ms; timings are medians "
              f"at the speed where it takes {1e3 * result['reference_at_s']:.1f} ms")
    shown = wanted if args.trace else wanted + [m for m in UNBOUNDED if m["name"] in values]
    for m in shown:
        line = f"  {m['name']:<42} {values[m['name']]:>14.6g} {m['unit']}"
        if m["name"] in measured:
            n = result["setups"] if m["name"] == "setup_s" else result["passes"]
            line += f"  (median of {n}; unscaled {measured[m['name']]:.6g})"
        print(line)
    print(f"  {'error_rate':<42} {failed / attempted:>14.6g} ratio ({failed}/{attempted} simulations)")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    if args.trace:
        print(f"  orchestrator.run, unscaled medians: traced {result['traced_run_s']:.4f} s, untraced "
              f"{result['untraced_run_s']:.4f} s; share of the fastest traced pass's run time by callee:")
        for name, share in result["split"].items():
            print(f"    {name:<40} {100 * share:6.2f} %")
        print(f"  spans written to {result['trace_file']}")
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
