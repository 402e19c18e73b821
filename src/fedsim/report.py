"""Artifacts on disk: rounds.csv, summary.json, ROC curves and events.log
per run, comparison.csv and averages.csv per sweep.

Each file has one writer here.  The ROC curves are those ``evaluate``
measured during the run (this module runs no model), and
``centralized_comparison`` owns the centralized baseline wherever it is
reported.  All output is deterministic: floats are written with repr
(shortest exact round-trip), an absent value is an empty CSV cell or JSON
null, rows follow round or sweep order, and nothing timestamped is
emitted, so rerunning the same config byte-reproduces every file.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable

# bench/spans.py traces fedsim.report.forward and fedsim.report.roc_auc.
from .metrics import RunSummary, forward, roc_auc  # noqa: F401
from .orchestrator import RoundRecord, RunReport, SimPlan, _participants_field, static_sim_time

ROUNDS_CSV_HEADER = ["round", "sim_time_s", "participants", "loss", "accuracy", "auc",
                     "client_metrics"]
COMPARISON_CSV_HEADER = ["variable", "value", "loss", "accuracy", "auc", "rounds", "sim_time_s",
                         "centralized_time_s", "time_reduction_pct"]
AVERAGES_CSV_HEADER = ["policy", "avg_best_client_loss", "avg_best_client_accuracy"]


def _fmt(x: float | None) -> str:
    return "" if x is None else repr(float(x))


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> Path:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _client_metrics_field(rec: RoundRecord) -> str:
    return ";".join(f"{c.client_id}:{_fmt(c.loss)}:{_fmt(c.accuracy)}" for c in rec.client_metrics)


def write_rounds_csv(records: list[RoundRecord], path: Path) -> None:
    rows = (
        [rec.round_index, _fmt(rec.sim_time_s), _participants_field(rec, ";"),
         _fmt(rec.global_metrics.loss), _fmt(rec.global_metrics.accuracy),
         _fmt(rec.global_metrics.auc), _client_metrics_field(rec)]
        for rec in records
    )
    _write_csv(path, ROUNDS_CSV_HEADER, rows)


def write_events_log(audit_log: list[str], path: Path) -> None:
    with path.open("w") as fh:
        for line in audit_log:
            fh.write(line + "\n")


def write_summary_json(report: RunReport, path: Path, config_echo: dict | None = None) -> None:
    """The run's summary.json; with an echo, also the echo and its centralized comparison."""
    s = report.summary
    payload: dict = {
        "seed": report.plan.seed,
        "rounds_completed": s.rounds_completed,
        "total_sim_time_s": s.total_sim_time_s,
        "final": {"loss": s.final.loss, "accuracy": s.final.accuracy, "auc": s.final.auc,
                  "n": s.final.n},
        "best": {
            "loss": {"round": s.best_loss[0], "value": s.best_loss[1]},
            "accuracy": {"round": s.best_accuracy[0], "value": s.best_accuracy[1]},
            "auc": {"round": s.best_auc[0], "value": s.best_auc[1]},
        },
        "client_best_avg": {
            "loss": s.client_avg_best_loss,
            "accuracy": s.client_avg_best_accuracy,
        },
        **centralized_comparison(report.plan, config_echo, s.total_sim_time_s),
    }
    if config_echo is not None:
        payload["config"] = config_echo
    path.write_text(json.dumps(payload, indent=2) + "\n")


def centralized_comparison(plan: SimPlan, config_echo: dict | None,
                           sim_time_s: float) -> dict[str, float]:
    """``centralized_time_s``, one worker at the echo's ``centralized_epoch_time_s`` over the
    plan's rounds and epochs, and the ``time_reduction_pct`` of ``sim_time_s`` against it;
    empty when the echo sets no centralized epoch time."""
    epoch_time_s = (config_echo or {}).get("centralized_epoch_time_s")
    if epoch_time_s is None:
        return {}
    centralized = static_sim_time(plan.n_rounds, plan.train.epochs, [float(epoch_time_s)])
    return {
        "centralized_time_s": centralized,
        "time_reduction_pct": 100.0 * (1.0 - sim_time_s / centralized),
    }


def write_roc_csvs(report: RunReport, rounds: tuple[int, ...], out_dir: Path) -> list[Path]:
    """Write the ROC curve each listed round's evaluation measured."""
    paths = []
    by_index = {rec.round_index: rec for rec in report.rounds}
    for r in rounds:
        rec = by_index.get(r)
        if rec is None:
            continue  # a library caller may list rounds past the run's end
        path = out_dir / f"roc_round{r}.csv"
        rec.global_metrics.roc.to_csv(path)
        paths.append(path)
    return paths


def _write_trail(out: Path, records: list[RoundRecord] | None, audit_log: list[str]) -> list[Path]:
    """events.log, preceded by rounds.csv unless ``records`` is None."""
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if records is not None:
        write_rounds_csv(records, out / "rounds.csv")
        written.append(out / "rounds.csv")
    write_events_log(audit_log, out / "events.log")
    return [*written, out / "events.log"]


def write_run_outputs(report: RunReport, out_dir: str | Path, roc_rounds: tuple[int, ...] = (),
                      config_echo: dict | None = None) -> list[Path]:
    """Write the run artifacts in the echo's ``report_formats`` (both without an echo), returning
    the paths: events.log, rounds.csv and the ROC curves for "csv", summary.json for "json"."""
    formats = ("csv", "json") if config_echo is None else config_echo["report_formats"]
    out = Path(out_dir)
    written = _write_trail(out, report.rounds if "csv" in formats else None, report.audit_log)
    if "csv" in formats:
        written.extend(write_roc_csvs(report, tuple(roc_rounds), out))
    if "json" in formats:
        write_summary_json(report, out / "summary.json", config_echo)
        written.append(out / "summary.json")
    return written


def write_partial_outputs(
    records: list[RoundRecord], audit_log: list[str], out_dir: str | Path
) -> list[Path]:
    """Persist what an aborted run completed: rounds.csv plus events.log."""
    return _write_trail(Path(out_dir), records, audit_log)


def write_sweep_tables(
    variable: str, runs: list[tuple[str, RunSummary, dict[str, float]]], out_dir: Path
) -> list[Path]:
    """A sweep's comparison.csv, plus averages.csv for a policy sweep.

    ``runs`` holds each value's label, run summary and
    ``centralized_comparison``, in sweep order.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = (
        [variable, label, _fmt(s.final.loss), _fmt(s.final.accuracy), _fmt(s.final.auc),
         s.rounds_completed, _fmt(s.total_sim_time_s), _fmt(baseline.get("centralized_time_s")),
         _fmt(baseline.get("time_reduction_pct"))]
        for label, s, baseline in runs
    )
    written = [_write_csv(out_dir / "comparison.csv", COMPARISON_CSV_HEADER, rows)]
    if variable == "policy":
        rows = ([label, _fmt(s.client_avg_best_loss), _fmt(s.client_avg_best_accuracy)]
                for label, s, _ in runs)
        written.append(_write_csv(out_dir / "averages.csv", AVERAGES_CSV_HEADER, rows))
    return written
