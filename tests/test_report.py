import csv
import json
from dataclasses import replace

import fedsim.metrics
import fedsim.report
from fedsim.models import ModelSpec, TrainConfig
from fedsim.orchestrator import ClientSetup, IntermittencyEvent, PolicyConfig, SimPlan, run
from fedsim.partition import PartitionPlan, make_synthetic, partition
from fedsim.report import (
    ROUNDS_CSV_HEADER,
    centralized_comparison,
    write_partial_outputs,
    write_roc_csvs,
    write_run_outputs,
)

SPEC = ModelSpec("logistic-regression", input_dim=2)
GLOBAL_TEST = make_synthetic([[-2, -2], [2, 2]], 1.0, (30, 30), seed=880)


def _report(n_rounds=3, events=()):
    master = make_synthetic([[-2, -2], [2, 2]], 1.0, (40, 40), seed=12)
    shards = partition(master, PartitionPlan("random-uniform", 2, seed=13))
    plan = SimPlan(
        model=SPEC,
        train=TrainConfig(epochs=1, batch_size=8, learning_rate=0.3),
        n_rounds=n_rounds,
        clients=(ClientSetup(0, shards[0], 2.0), ClientSetup(1, shards[1], 3.0)),
        global_test=GLOBAL_TEST,
        seed=77,
        events=tuple(events),
        policy=PolicyConfig(delay="use-stale-accept-any"),
    )
    return run(plan)


def test_rounds_csv_layout(tmp_path):
    report = _report()
    write_run_outputs(report, tmp_path)
    with (tmp_path / "rounds.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ROUNDS_CSV_HEADER
    assert len(rows) == 1 + 3
    first = dict(zip(rows[0], rows[1]))
    assert first["round"] == "1"
    assert first["sim_time_s"] == "3.0"
    assert first["participants"] == "0:fresh;1:fresh"
    assert float(first["loss"]) == report.rounds[0].global_metrics.loss
    # client metrics field round-trips as id:loss:accuracy triples
    entries = first["client_metrics"].split(";")
    assert [e.split(":")[0] for e in entries] == ["0", "1"]


def test_summary_json_contents(tmp_path):
    report = _report()
    echo = {"seed": 77, "report_formats": ["csv", "json"], "centralized_epoch_time_s": 10.0}
    write_run_outputs(report, tmp_path, config_echo=echo)
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert payload["seed"] == 77
    assert payload["rounds_completed"] == 3
    assert payload["total_sim_time_s"] == 9.0
    assert payload["centralized_time_s"] == 30.0
    assert abs(payload["time_reduction_pct"] - 70.0) < 1e-12
    assert set(payload["final"]) == {"loss", "accuracy", "auc", "n"}
    assert payload["best"]["loss"]["round"] >= 1
    assert payload["config"] == echo
    assert payload["client_best_avg"]["accuracy"] is not None


def test_format_subset(tmp_path):
    # The formats are the echo's report_formats.
    report = _report()
    write_run_outputs(report, tmp_path / "csvonly", config_echo={"report_formats": ["csv"]})
    assert (tmp_path / "csvonly" / "rounds.csv").exists()
    assert not (tmp_path / "csvonly" / "summary.json").exists()
    write_run_outputs(report, tmp_path / "jsononly", config_echo={"report_formats": ["json"]})
    assert (tmp_path / "jsononly" / "summary.json").exists()
    assert not (tmp_path / "jsononly" / "rounds.csv").exists()


def test_roc_csvs(tmp_path):
    report = _report()
    paths = write_roc_csvs(report, (1, 3), tmp_path)
    assert [p.name for p in paths] == ["roc_round1.csv", "roc_round3.csv"]
    lines = paths[0].read_text().strip().splitlines()
    assert lines[0] == "fpr,tpr"
    assert lines[1] == "0.0,0.0"
    assert lines[-1] == "1.0,1.0"
    # rounds that never ran are skipped rather than invented
    assert write_roc_csvs(report, (9,), tmp_path) == []


def test_roc_csvs_are_the_curves_the_run_measured(tmp_path, monkeypatch):
    report = _report()

    def no_model(*args, **kwargs):
        raise AssertionError("report writing must not run the model")

    monkeypatch.setattr(fedsim.report, "forward", no_model)
    monkeypatch.setattr(fedsim.report, "roc_auc", no_model)
    monkeypatch.setattr(fedsim.metrics, "forward", no_model)
    monkeypatch.setattr(fedsim.metrics, "roc_auc", no_model)
    write_run_outputs(report, tmp_path, roc_rounds=(2,))
    with (tmp_path / "roc_round2.csv").open() as fh:
        rows = list(csv.reader(fh))[1:]
    measured = report.rounds[1].global_metrics.roc.points
    assert [[float(x) for x in row] for row in rows] == measured.tolist()


def test_events_log_audit_trail(tmp_path):
    report = _report(n_rounds=4, events=(IntermittencyEvent.delay(2, 1, 3),))
    write_run_outputs(report, tmp_path)
    text = (tmp_path / "events.log").read_text()
    assert "delay client=1 update held back" in text
    assert "late-delivery client=1 accepted" in text
    assert text.count("aggregate participants=") == 4


def test_rewrite_is_byte_identical(tmp_path):
    report = _report()
    write_run_outputs(report, tmp_path / "a")
    write_run_outputs(report, tmp_path / "b")
    for name in ("rounds.csv", "events.log", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_partial_outputs(tmp_path):
    report = _report()
    paths = write_partial_outputs(report.rounds[:2], report.audit_log, tmp_path)
    assert sorted(p.name for p in paths) == ["events.log", "rounds.csv"]
    with (tmp_path / "rounds.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 2


def test_time_reduction_fixtures():
    report = _report()  # 3 rounds of 1 epoch
    ten_rounds = replace(report.plan, n_rounds=10)

    def pct(sim_time_s, plan=ten_rounds):
        echo = {"centralized_epoch_time_s": 138.6}
        return centralized_comparison(plan, echo, sim_time_s)["time_reduction_pct"]

    # federated 401 s and 110 s against a 1386 s single-machine baseline
    assert round(pct(401.0), 2) == 71.07
    assert round(pct(110.0), 2) == 92.06
    assert pct(9.0, report.plan) == 100.0 * (1.0 - 9.0 / (3 * 138.6))
    assert centralized_comparison(report.plan, None, 9.0) == {}
    assert centralized_comparison(report.plan, {"seed": 77}, 9.0) == {}
    assert centralized_comparison(report.plan, {"centralized_epoch_time_s": 10}, 9.0) == {
        "centralized_time_s": 30.0,
        "time_reduction_pct": 100.0 * (1.0 - 9.0 / 30.0),
    }
