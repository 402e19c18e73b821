"""Output checks that count wrong simulations instead of stopping the run.

A simulation passes when its ``rounds.csv`` and ``events.log``:

* match the digests recorded for the workload's default seed (when given),
* repeat byte for byte across the passes of one run,
* match their twin's bytes when the simulation has a twin (the CSV-sourced
  ``three_clients`` run),

and its report holds two invariants for any seed: each round's weights
sum to 1 within 1e-12, and each round's simulated time equals
``epochs x max(epoch_time_s)`` over the round's fresh participants.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

DIGESTED = ("rounds.csv", "events.log")
WEIGHT_TOLERANCE = 1e-12


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def report_problems(report) -> list[str]:
    """Invariants that hold for every seed."""
    plan = report.plan
    epoch_times = {c.client_id: float(c.epoch_time_s) for c in plan.clients}
    epoch_times.update(
        {ev.client_id: float(ev.epoch_time_s) for ev in plan.events if ev.kind == "join"}
    )
    problems = []
    for rec in report.rounds:
        total = math.fsum(w for _, w in rec.aggregate.weights_used)
        if abs(total - 1.0) > WEIGHT_TOLERANCE:
            problems.append(f"round {rec.round_index}: weights sum to {total!r}")
        fresh = [epoch_times[p.client_id] for p in rec.participants if p.fresh]
        expected = plan.train.epochs * max(fresh) if fresh else 0.0
        if rec.sim_time_s != expected:
            problems.append(
                f"round {rec.round_index}: sim_time_s {rec.sim_time_s!r} != {expected!r}"
            )
    return problems


class Verifier:
    """Counts attempted and failed simulations over the passes of one run.

    ``recorded`` maps ``<simulation key>/<file>`` to a sha256 digest, or is
    None when the run's seed has no recorded digests.  ``twins`` maps a
    simulation key to the key whose bytes it must reproduce.
    """

    def __init__(self, recorded: dict[str, str] | None, twins: dict[str, str] | None = None):
        self.recorded = recorded
        self.twins = twins or {}
        self.first: dict[str, str] = {}  # digests of the first pass
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check_pass(self, expected: int, sims: list[tuple[str, object, Path]]) -> int:
        """Check one pass that should have run ``expected`` simulations.

        ``sims`` lists (key, report, output dir) for the simulations whose
        outputs were written; missing ones count as failed.  Returns the
        number of failures in this pass.
        """
        digests: dict[str, str] = {}
        bad: dict[str, list[str]] = {}
        for key, report, out_dir in sims:
            problems = bad.setdefault(key, [])
            for name in DIGESTED:
                path = Path(out_dir) / name
                try:
                    digests[f"{key}/{name}"] = digest(path)
                except OSError as exc:
                    problems.append(f"{path}: {exc}")
            problems.extend(report_problems(report))
        for full, value in digests.items():
            key = full.rsplit("/", 1)[0]
            if self.recorded is not None and self.recorded.get(full) != value:
                bad[key].append(f"{full}: differs from the recorded digest")
            if self.first.setdefault(full, value) != value:
                bad[key].append(f"{full}: bytes differ from the first pass")
        for key, twin in self.twins.items():
            for name in DIGESTED:
                mine, theirs = digests.get(f"{key}/{name}"), digests.get(f"{twin}/{name}")
                if key in bad and mine != theirs:
                    bad[key].append(f"{key}/{name}: differs from its twin {twin}/{name}")
        failed = expected - sum(1 for problems in bad.values() if not problems)
        for key, problems in bad.items():
            self.problems.extend(f"{key}: {p}" for p in problems)
        if len(bad) < expected:
            self.problems.append(f"{expected - len(bad)} simulation(s) wrote no outputs")
        self.attempted += expected
        self.failed += failed
        return failed

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
