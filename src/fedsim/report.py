"""Run artifacts on disk: rounds.csv, summary.json, ROC curves, events.log.

All output is deterministic: floats are written with repr (shortest
exact round-trip), rows follow round order, and nothing timestamped is
emitted, so rerunning the same config byte-reproduces every file.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .metrics import roc_auc
from .models import forward
from .orchestrator import RoundRecord, RunReport, SimPlan

ROUNDS_CSV_HEADER = [
    "round",
    "sim_time_s",
    "participants",
    "loss",
    "accuracy",
    "auc",
    "client_metrics",
]


def _fmt(x: float) -> str:
    return repr(float(x))


def _participants_field(rec: RoundRecord) -> str:
    return ";".join(f"{p.client_id}:{p.label()}" for p in rec.participants)


def _client_metrics_field(rec: RoundRecord) -> str:
    return ";".join(f"{c.client_id}:{_fmt(c.loss)}:{_fmt(c.accuracy)}" for c in rec.client_metrics)


def write_rounds_csv(records: list[RoundRecord], path: Path) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROUNDS_CSV_HEADER)
        for rec in records:
            writer.writerow(
                [
                    rec.round_index,
                    _fmt(rec.sim_time_s),
                    _participants_field(rec),
                    _fmt(rec.global_metrics.loss),
                    _fmt(rec.global_metrics.accuracy),
                    _fmt(rec.global_metrics.auc),
                    _client_metrics_field(rec),
                ]
            )


def write_events_log(audit_log: list[str], path: Path) -> None:
    with path.open("w") as fh:
        for line in audit_log:
            fh.write(line + "\n")


def _metricset_json(m) -> dict:
    return {"loss": m.loss, "accuracy": m.accuracy, "auc": m.auc, "n": m.n}


def write_summary_json(
    report: RunReport,
    path: Path,
    config_echo: dict | None = None,
    centralized_epoch_time_s: float | None = None,
) -> None:
    s = report.summary
    payload: dict = {
        "seed": report.plan.seed,
        "rounds_completed": s.rounds_completed,
        "total_sim_time_s": s.total_sim_time_s,
        "final": _metricset_json(s.final),
        "best": {
            "loss": {"round": s.best_loss[0], "value": s.best_loss[1]},
            "accuracy": {"round": s.best_accuracy[0], "value": s.best_accuracy[1]},
            "auc": {"round": s.best_auc[0], "value": s.best_auc[1]},
        },
        "client_best_avg": {
            "loss": s.client_avg_best_loss,
            "accuracy": s.client_avg_best_accuracy,
        },
    }
    if centralized_epoch_time_s is not None:
        centralized = centralized_time(report.plan, centralized_epoch_time_s)
        payload["centralized_time_s"] = centralized
        payload["time_reduction_pct"] = time_reduction_pct(s.total_sim_time_s, centralized)
    if config_echo is not None:
        payload["config"] = config_echo
    path.write_text(json.dumps(payload, indent=2) + "\n")


def centralized_time(plan: SimPlan, epoch_time_s: float) -> float:
    """Single-machine baseline: same round/epoch schedule, one worker."""
    return plan.n_rounds * (plan.train.epochs * float(epoch_time_s))


def time_reduction_pct(sim_time_s: float, centralized_time_s: float) -> float:
    """Percentage of the centralized wall clock saved by federating."""
    return 100.0 * (1.0 - sim_time_s / centralized_time_s)


def write_roc_csvs(report: RunReport, rounds: tuple[int, ...], out_dir: Path) -> list[Path]:
    paths = []
    by_index = {rec.round_index: rec for rec in report.rounds}
    for r in rounds:
        rec = by_index.get(r)
        if rec is None:
            continue  # starved runs may not have reached this round
        scores = forward(report.plan.model, rec.global_params, report.plan.global_test.features)
        curve, _ = roc_auc(scores, report.plan.global_test.labels)
        path = out_dir / f"roc_round{r}.csv"
        curve.to_csv(path)
        paths.append(path)
    return paths


def write_run_outputs(
    report: RunReport,
    out_dir: str | Path,
    formats: tuple[str, ...] = ("csv", "json"),
    roc_rounds: tuple[int, ...] = (),
    config_echo: dict | None = None,
    centralized_epoch_time_s: float | None = None,
) -> list[Path]:
    """Write the run artifacts and return the paths created."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if "csv" in formats:
        write_rounds_csv(report.rounds, out / "rounds.csv")
        written.append(out / "rounds.csv")
        written.extend(write_roc_csvs(report, tuple(roc_rounds), out))
    if "json" in formats:
        write_summary_json(
            report,
            out / "summary.json",
            config_echo=config_echo,
            centralized_epoch_time_s=centralized_epoch_time_s,
        )
        written.append(out / "summary.json")
    write_events_log(report.audit_log, out / "events.log")
    written.append(out / "events.log")
    return written


def write_partial_outputs(
    records: list[RoundRecord], audit_log: list[str], out_dir: str | Path
) -> list[Path]:
    """Persist what an aborted run completed: rounds.csv plus events.log."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_rounds_csv(records, out / "rounds.csv")
    write_events_log(audit_log, out / "events.log")
    return [out / "rounds.csv", out / "events.log"]
