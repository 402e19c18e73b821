"""Record the output digests that the benchmark checks at the default seed.

Run from the repository root:

    python3 bench/record_digests.py

Runs every workload at its default seed and writes the sha256 digests of
each simulation's ``rounds.csv`` and ``events.log`` to
``bench/data/digests.json``.  When ``demos/out`` exists, it also checks
that the cli-suite digests equal the tracked demo outputs (the CSV-sourced
run against ``three_clients``) and exits 1 on any difference.  Re-record
only for a change that is meant to alter the outputs.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from run import ROOT, WORKLOADS, run_child

DIGESTS = Path(__file__).resolve().parent / "data" / "digests.json"
DEMO_OUT = ROOT / "demos" / "out"
DEFAULT_SEED = 0  # workloads.DEFAULT_SEED; workloads.py needs numpy and fedsim on the path
CSV_TWIN = ("three_clients_csv/", "three_clients/")


def check_demo_outputs(digests: dict[str, str]) -> list[str]:
    problems = []
    for key, value in sorted(digests.items()):
        tracked = DEMO_OUT / key.replace(*CSV_TWIN, 1)
        if not tracked.is_file():
            problems.append(f"{key}: no tracked file {tracked}")
        elif hashlib.sha256(tracked.read_bytes()).hexdigest() != value:
            problems.append(f"{key}: differs from {tracked}")
    return problems


def main() -> int:
    recorded = {}
    for workload in WORKLOADS:
        result = run_child(workload, DEFAULT_SEED, seconds=0, trace=0)
        recorded[workload] = dict(sorted(result["digests"].items()))
        print(f"{workload}: {len(recorded[workload])} digests")
    DIGESTS.write_text(json.dumps(recorded, indent=2) + "\n")
    print(f"written to {DIGESTS}")
    if not DEMO_OUT.is_dir():
        print("demos/out is absent; cli-suite digests not compared")
        return 0
    problems = check_demo_outputs(recorded["cli-suite"])
    for problem in problems:
        print(f"mismatch: {problem}")
    if not problems:
        print(f"cli-suite: all {len(recorded['cli-suite'])} digests equal the files in demos/out")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
