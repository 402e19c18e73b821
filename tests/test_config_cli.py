"""Config schema, plan assembly, and the command-line front end."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedsim
from fedsim.cli import main
from fedsim.config import (
    ConfigParseError,
    ConfigValidationError,
    build_plan,
    deep_merge,
    validate_config,
)
from fedsim.partition import make_synthetic, write_dataset_csv


def _base_cfg():
    return {
        "seed": 5,
        "rounds": 3,
        "model": {"kind": "logistic-regression", "input_dim": 2},
        "train": {"epochs": 1, "batch_size": 8, "learning_rate": 0.3},
        "data": {
            "source": {
                "type": "synthetic",
                "class_means": [[-2, -2], [2, 2]],
                "n_per_class": [40, 40],
                "seed": 9,
            },
            "global_test": {
                "type": "synthetic",
                "class_means": [[-2, -2], [2, 2]],
                "n_per_class": [20, 20],
                "seed": 10,
            },
            "partition": {"mode": "random-uniform", "seed": 11},
        },
        "clients": [{"id": 0, "epoch_time_s": 2.0}, {"id": 1, "epoch_time_s": 3.0}],
    }


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def test_defaults_filled_in():
    cfg = validate_config(_base_cfg())
    assert cfg["aggregator"] == "weighted"
    assert cfg["policy"] == {
        "departure": "drop-history",
        "delay": "exclude-until-current",
        "delay_resume_same_round": True,
    }
    assert cfg["noise"] is None
    assert cfg["report_formats"] == ["csv", "json"]
    assert cfg["data"]["partition"]["train_fraction"] == 0.75


def test_unknown_keys_name_their_path():
    cfg = _base_cfg()
    cfg["train"]["momentum"] = 0.9
    with pytest.raises(ConfigParseError, match="train.momentum"):
        validate_config(cfg)
    cfg = _base_cfg()
    cfg["verbose"] = True
    with pytest.raises(ConfigParseError, match="verbose"):
        validate_config(cfg)
    # per-run shuffle seeds always derive from the top-level seed
    cfg = _base_cfg()
    cfg["train"]["seed"] = 1
    with pytest.raises(ConfigParseError, match="train.seed"):
        validate_config(cfg)


def test_missing_and_mistyped_keys():
    cfg = _base_cfg()
    del cfg["model"]
    with pytest.raises(ConfigParseError, match="model"):
        validate_config(cfg)
    cfg = _base_cfg()
    cfg["rounds"] = "ten"
    with pytest.raises(ConfigParseError, match="rounds"):
        validate_config(cfg)
    cfg = _base_cfg()
    cfg["seed"] = True  # bools are not ints here
    with pytest.raises(ConfigParseError, match="seed"):
        validate_config(cfg)


def test_semantic_validation():
    for mutate, fragment in [
        (lambda c: c.update(rounds=0), "rounds"),
        (lambda c: c["train"].update(learning_rate=0), "learning_rate"),
        (lambda c: c.update(clients=[]), "clients"),
        (
            lambda c: c.update(clients=[{"id": 1, "epoch_time_s": 1.0}] * 2),
            "duplicate",
        ),
        (lambda c: c.update(roc_rounds=[7]), "roc_rounds"),
        (lambda c: c.update(report_formats=["yaml"]), "format"),
        (lambda c: c.update(noise={"amplitude": 0}), "amplitude"),
        (
            lambda c: c["data"].update(
                global_test={"type": "holdout", "fraction": 1.5, "seed": 0}
            ),
            "fraction",
        ),
    ]:
        cfg = _base_cfg()
        mutate(cfg)
        with pytest.raises(ConfigValidationError, match=fragment):
            validate_config(cfg)


def test_event_schema():
    cfg = _base_cfg()
    cfg["events"] = [{"round": 2, "kind": "evaporate", "client": 0}]
    with pytest.raises(ConfigParseError, match="kind"):
        validate_config(cfg)
    cfg["events"] = [{"round": 2, "kind": "leave", "client": 0, "extra": 1}]
    with pytest.raises(ConfigParseError, match="extra"):
        validate_config(cfg)
    cfg["events"] = [{"round": 2, "kind": "delay", "client": 0, "resume_round": 2}]
    with pytest.raises(ConfigValidationError, match="resume"):
        build_plan(cfg)


def test_build_plan_shapes():
    rc = build_plan(_base_cfg())
    plan = rc.plan
    assert [c.client_id for c in plan.clients] == [0, 1]
    assert sorted(c.shard.n_total for c in plan.clients) == [40, 40]
    assert plan.global_test.n == 40
    assert plan.seed == 5
    assert rc.report_formats == ("csv", "json")
    # the echoed config re-validates and rebuilds the same plan
    again = build_plan(rc.echo)
    assert again.plan.seed == plan.seed
    assert [c.client_id for c in again.plan.clients] == [0, 1]


def test_build_plan_infeasible_partition():
    cfg = _base_cfg()
    cfg["data"]["partition"] = {"mode": "explicit-counts", "seed": 0, "counts": [500, 500]}
    with pytest.raises(ConfigValidationError, match="partition"):
        build_plan(cfg)


def test_csv_source_paths_resolve_relative_to_config(tmp_path):
    ds = make_synthetic([[-1, -1], [1, 1]], 1.0, (30, 30), seed=3)
    write_dataset_csv(ds, tmp_path / "master.csv")
    cfg = _base_cfg()
    cfg["data"]["source"] = {"type": "csv", "path": "master.csv"}
    rc = build_plan(cfg, base_dir=tmp_path)
    assert sum(c.shard.n_total for c in rc.plan.clients) == 60


def test_holdout_global_test():
    cfg = _base_cfg()
    cfg["data"]["global_test"] = {"type": "holdout", "fraction": 0.25, "seed": 4}
    rc = build_plan(cfg)
    assert rc.plan.global_test.n == 20  # a quarter of the 80-sample master
    shard_ids = set()
    for c in rc.plan.clients:
        shard_ids.update(c.shard.train.ids.tolist())
        shard_ids.update(c.shard.test.ids.tolist())
    assert shard_ids.isdisjoint(rc.plan.global_test.ids.tolist())


def test_events_materialize():
    cfg = _base_cfg()
    cfg["rounds"] = 5
    cfg["events"] = [
        {"round": 2, "kind": "leave", "client": 1},
        {
            "round": 3,
            "kind": "join",
            "client": 7,
            "epoch_time_s": 1.5,
            "data": {
                "source": {
                    "type": "synthetic",
                    "class_means": [[-2, -2], [2, 2]],
                    "n_per_class": [8, 8],
                    "seed": 12,
                }
            },
        },
        {"round": 4, "kind": "delay", "client": 0, "resume_round": 5},
    ]
    rc = build_plan(cfg)
    kinds = [e.kind for e in rc.plan.events]
    assert kinds == ["leave", "join", "delay"]
    join = rc.plan.events[1]
    assert join.client_id == 7
    assert join.shard.n_total == 16
    assert join.shard.client_id == 7


def test_deep_merge():
    base = {"a": {"b": 1, "c": 2}, "d": [1, 2]}
    out = deep_merge(base, {"a": {"c": 3}, "d": [9]})
    assert out == {"a": {"b": 1, "c": 3}, "d": [9]}
    assert base["a"]["c"] == 2  # originals untouched


def test_cli_run_writes_outputs(tmp_path):
    cfg_path = _write(tmp_path, _base_cfg())
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    with (out / "rounds.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 3
    payload = json.loads((out / "summary.json").read_text())
    assert payload["seed"] == 5
    assert payload["config"]["rounds"] == 3

    # reruns are byte-identical
    out2 = tmp_path / "out2"
    assert main(["run", "--config", cfg_path, "--out", str(out2)]) == 0
    assert (out / "rounds.csv").read_bytes() == (out2 / "rounds.csv").read_bytes()


def test_cli_seed_and_format_overrides(tmp_path):
    cfg_path = _write(tmp_path, _base_cfg())
    out = tmp_path / "seeded"
    assert main(["run", "--config", cfg_path, "--out", str(out), "--seed", "99",
                 "--format", "json"]) == 0
    assert not (out / "rounds.csv").exists()
    payload = json.loads((out / "summary.json").read_text())
    assert payload["seed"] == 99
    assert payload["config"]["seed"] == 99


def test_cli_roc_rounds(tmp_path):
    cfg = _base_cfg()
    cfg["roc_rounds"] = [1, 3]
    cfg_path = _write(tmp_path, cfg)
    out = tmp_path / "roc"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    assert (out / "roc_round1.csv").exists()
    assert (out / "roc_round3.csv").exists()


def test_cli_output_dir_resolution(tmp_path, monkeypatch):
    monkeypatch.delenv("FEDSIM_OUT", raising=False)
    cfg = _base_cfg()
    cfg_path = _write(tmp_path, cfg)
    # no directory anywhere: refuse to guess
    assert main(["run", "--config", cfg_path]) == 3

    cfg["output_dir"] = "from_config"
    cfg_path = _write(tmp_path, cfg)
    assert main(["run", "--config", cfg_path]) == 0
    assert (tmp_path / "from_config" / "rounds.csv").exists()

    monkeypatch.setenv("FEDSIM_OUT", str(tmp_path / "from_env"))
    cfg.pop("output_dir")
    cfg_path = _write(tmp_path, cfg)
    assert main(["run", "--config", cfg_path]) == 0
    assert (tmp_path / "from_env" / "rounds.csv").exists()


def test_cli_exit_codes(tmp_path):
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json")
    assert main(["run", "--config", str(bad_json), "--out", str(tmp_path / "x")]) == 2

    cfg = _base_cfg()
    cfg["rounds"] = 0
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "x")]) == 3

    cfg = _base_cfg()
    cfg["train"]["momentum"] = 1
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "x")]) == 2

    cfg = _base_cfg()
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "x"),
                 "--seed", "-3"]) == 3


def test_cli_starvation_keeps_partial_results(tmp_path):
    cfg = _base_cfg()
    cfg["clients"] = [{"id": 0, "epoch_time_s": 2.0}]
    cfg["events"] = [{"round": 2, "kind": "delay", "client": 0, "resume_round": 3}]
    out = tmp_path / "starved"
    code = main(["run", "--config", _write(tmp_path, cfg), "--out", str(out)])
    assert code == 4
    with (out / "rounds.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 1  # only round 1 completed
    assert (out / "events.log").exists()
    assert not (out / "summary.json").exists()


def test_cli_validate_prints_derived_quantities(tmp_path, capsys):
    cfg = _base_cfg()
    cfg["rounds"] = 10
    cfg["clients"] = [
        {"id": 0, "epoch_time_s": 23.1},
        {"id": 1, "epoch_time_s": 40.1},
        {"id": 2, "epoch_time_s": 24.0},
    ]
    cfg["centralized_epoch_time_s"] = 138.6
    assert main(["validate", "--config", _write(tmp_path, cfg)]) == 0
    text = capsys.readouterr().out
    assert "config ok" in text
    assert "parameter_count: 3" in text
    assert "static_sim_time_s: 401.0" in text
    assert "centralized_time_s: 1386.0" in text


def test_cli_validate_rejects_bad_event_script(tmp_path):
    cfg = _base_cfg()
    cfg["events"] = [
        {"round": 1, "kind": "delay", "client": 0, "resume_round": 3},
        {"round": 2, "kind": "delay", "client": 0, "resume_round": 3},
    ]
    assert main(["validate", "--config", _write(tmp_path, cfg)]) == 3


def test_cli_sweep_rounds(tmp_path):
    cfg = _base_cfg()
    cfg["centralized_epoch_time_s"] = 10.0
    cfg_path = _write(tmp_path, cfg)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg_path, "--out", str(out),
                 "--variable", "N_r", "--values", "3,1,3"]) == 0
    root = out / "sweep_N-r"
    with (root / "comparison.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["value"] for r in rows] == ["1", "3"]  # deduped, ascending
    assert float(rows[0]["sim_time_s"]) == 3.0
    assert float(rows[1]["sim_time_s"]) == 9.0
    assert float(rows[1]["centralized_time_s"]) == 30.0
    assert abs(float(rows[1]["time_reduction_pct"]) - 70.0) < 1e-12
    with (root / "N_r=1" / "rounds.csv").open() as fh:
        assert len(list(csv.reader(fh))) == 1 + 1
    # per-run seeds are derived, so the two runs differ by seed
    s1 = json.loads((root / "N_r=1" / "summary.json").read_text())["seed"]
    s3 = json.loads((root / "N_r=3" / "summary.json").read_text())["seed"]
    assert s1 != s3 and s1 != 5


def test_cli_sweep_policy_keeps_seed_and_writes_averages(tmp_path):
    cfg_path = _write(tmp_path, _base_cfg())
    out = tmp_path / "pol"
    values = (
        "drop-history+use-stale-accept-any,drop-history+exclude-until-current,"
        "retain-last+use-stale-accept-any,retain-last+exclude-until-current"
    )
    assert main(["sweep", "--config", cfg_path, "--out", str(out),
                 "--variable", "policy", "--values", values]) == 0
    root = out / "sweep_policy"
    with (root / "comparison.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    # no events scripted: every policy must land on identical trajectories
    assert len({r["loss"] for r in rows}) == 1
    with (root / "averages.csv").open() as fh:
        avg = list(csv.DictReader(fh))
    assert [r["policy"] for r in avg] == values.split(",")
    seeds = {
        json.loads((root / f"policy={v}" / "summary.json").read_text())["seed"]
        for v in values.split(",")
    }
    assert seeds == {5}


def test_cli_sweep_client_count(tmp_path):
    cfg = _base_cfg()
    cfg["clients"] = [{"id": 0, "epoch_time_s": 2.0}, {"id": 1, "epoch_time_s": 2.0}]
    cfg_path = _write(tmp_path, cfg)
    out = tmp_path / "cc"
    assert main(["sweep", "--config", cfg_path, "--out", str(out),
                 "--variable", "client-count", "--values", "1,2,4"]) == 0
    for k in (1, 2, 4):
        payload = json.loads(
            (out / "sweep_client-count" / f"client-count={k}" / "summary.json").read_text()
        )
        assert len(payload["config"]["clients"]) == k


def test_cli_sweep_client_count_needs_uniform_times(tmp_path):
    cfg_path = _write(tmp_path, _base_cfg())  # epoch times 2.0 and 3.0
    assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "cc2"),
                 "--variable", "client-count", "--values", "1,3"]) == 3


def test_cli_sweep_override_table(tmp_path):
    cfg = _base_cfg()
    cfg["sweeps"] = {
        "client-count": {
            "3": {
                "clients": [
                    {"id": 0, "epoch_time_s": 1.0},
                    {"id": 1, "epoch_time_s": 2.0},
                    {"id": 2, "epoch_time_s": 4.0},
                ]
            }
        }
    }
    cfg_path = _write(tmp_path, cfg)
    out = tmp_path / "ov"
    assert main(["sweep", "--config", cfg_path, "--out", str(out),
                 "--variable", "client-count", "--values", "3"]) == 0
    payload = json.loads(
        (out / "sweep_client-count" / "client-count=3" / "summary.json").read_text()
    )
    assert [c["epoch_time_s"] for c in payload["config"]["clients"]] == [1.0, 2.0, 4.0]


def test_cli_sweep_value_parsing(tmp_path):
    cfg_path = _write(tmp_path, _base_cfg())
    assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "x"),
                 "--variable", "N_r", "--values", " , "]) == 3
    assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "x"),
                 "--variable", "N_r", "--values", "two"]) == 3
    assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "x"),
                 "--variable", "policy", "--values", "drop-history"]) == 3


def test_cli_rejects_boolean_roc_rounds(tmp_path, capsys):
    cfg = _base_cfg()
    cfg["roc_rounds"] = [2, True]
    code = main(["run", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "roc_rounds[1]" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_missing_csv_source_is_a_validation_error(tmp_path):
    cfg = _base_cfg()
    cfg["data"]["source"] = {"type": "csv", "path": "absent.csv"}
    src = str(Path(fedsim.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "fedsim.cli", "run", "--config", _write(tmp_path, cfg),
         "--out", str(tmp_path / "x")],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 3
    assert "data.source.path" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_delay_resuming_after_the_last_round_is_a_validation_error(tmp_path, capsys):
    cfg = _base_cfg()
    cfg["events"] = [{"round": 2, "kind": "delay", "client": 1, "resume_round": 40}]
    code = main(["run", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "x")])
    assert code == 3
    assert "round 2: delay on client 1 resumes at round 40" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def _diverging_cfg():
    cfg = _base_cfg()
    cfg["model"] = {"kind": "mlp-1hidden", "input_dim": 2, "hidden_dim": 4}
    cfg["train"]["learning_rate"] = 1e300
    return cfg


def test_cli_diverging_run_exits_5_and_keeps_partial_results(tmp_path):
    out = tmp_path / "diverged"
    src = str(Path(fedsim.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "fedsim.cli", "run", "--config",
         _write(tmp_path, _diverging_cfg()), "--out", str(out)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 5
    assert "client 0 diverged in round 1" in proc.stderr
    assert "Traceback" not in proc.stderr
    with (out / "rounds.csv").open() as fh:
        assert len(list(csv.reader(fh))) == 1  # header only: round 1 never completed
    assert (out / "events.log").exists()
    assert not (out / "summary.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_diverging_sweep_exits_5_and_keeps_partial_results(tmp_path, capsys):
    out = tmp_path / "sw"
    code = main(["sweep", "--config", _write(tmp_path, _diverging_cfg()), "--out", str(out),
                 "--variable", "N_r", "--values", "1,2"])
    assert code == 5
    assert "N_r=1: client 0 diverged in round 1" in capsys.readouterr().err
    run_dir = out / "sweep_N-r" / "N_r=1"
    assert (run_dir / "rounds.csv").exists()
    assert (run_dir / "events.log").exists()
    assert not (out / "sweep_N-r" / "comparison.csv").exists()
