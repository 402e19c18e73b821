"""Repeat the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 bench/spread.py --runs 10

For every workload of BENCHMARK.json it runs ``bench/run.py`` once per
seed (seeds 1 .. runs, ``run_seconds`` each), echoes the report of the
first run (every end-to-end metric with its unit, and ``error_rate``) and
each run's values, then prints, per end-to-end metric, the
median, the quartiles as ``statistics.quantiles(values, n=4)`` gives them,
the spread (Q3 - Q1) / median, and the metric's bound from
BENCHMARK.json.  ``ok`` means the spread is below a third of the bound.
``error_rate`` is failed / attempted simulations over all runs.  Exits 1
when a run fails or a spread reaches its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, echo: bool) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    if echo:
        print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def main() -> int:
    table = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    seeds = range(1, args.runs + 1)

    status = 0
    for workload in (w["name"] for w in table["workloads"]):
        results = {}
        for seed in seeds:
            try:
                results[seed] = run_once(workload, seed, echo=not results)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print(f"error: {exc}", file=sys.stderr)
                status = 1
        if not results:
            continue
        names = [m["name"] for m in table["end_to_end"]]
        for seed, r in results.items():
            print(f"  seed {seed}: " + " ".join(f"{n}={r['metrics'][n]['value']:.6g}" for n in names))
        attempted = sum(r["attempted"] for r in results.values())
        failed = sum(r["failed"] for r in results.values())
        print(f"{workload}: {len(results)} runs, error_rate {failed / attempted:.6g} "
              f"({failed}/{attempted} simulations)")
        print(f"  {'metric':<22} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for m in table["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results.values()]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med
            verdict = "ok" if spread < m["bound"] / 3 else "WIDE" if spread < m["bound"] else "OVER"
            if spread >= m["bound"]:
                status = 1
            print(f"  {m['name']:<22} {m['unit']:<6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {m['bound']:>6} {verdict}")
        sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
