"""Config schema, plan assembly, and the command-line front end."""

import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fedsim
from fedsim.cli import main
from fedsim.config import (
    ConfigParseError,
    ConfigValidationError,
    _holdout_split,
    build_plan,
    deep_merge,
    validate_config,
)
from fedsim.orchestrator import PlanValidationError
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


def _join(**data):
    source = {"type": "synthetic", "class_means": [[-2, -2], [2, 2]], "n_per_class": [8, 8],
              "seed": 12}
    return [{"round": 2, "kind": "join", "client": 7, "epoch_time_s": 1.5,
             "data": {"source": source, **data}}]


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
        (lambda c: c["model"].update(hidden_dim=4), "model: logistic-regression takes no hidden_dim"),
        (lambda c: c["model"].update(kind="mlp-1hidden"), "model: mlp-1hidden requires hidden_dim"),
        (lambda c: c.update(events=_join(train_fraction=1.5)), r"events\[0\]\.data: train_fraction"),
        (lambda c: c.update(events=_join(seed=-1)), r"events\[0\]\.data: seed must be >= 0"),
        (
            lambda c: c["data"]["partition"].update(train_fraction=10**400),
            r"data\.partition: train_fraction must be finite",
        ),
        (
            lambda c: c["data"].update(
                partition={"mode": "label-skew", "seed": 0, "positive_fractions": [0.5, -(10**400)]}
            ),
            r"data\.partition: positive fractions must be finite",
        ),
        (lambda c: c["train"].update(learning_rate=float("inf")), r"train\.learning_rate"),
        (lambda c: c.update(noise={"amplitude": float("inf")}), "noise: noise amplitude"),
        (
            lambda c: c["clients"][0].update(epoch_time_s=float("inf")),
            r"clients\[0\]\.epoch_time_s",
        ),
        # an int too large for a float is no finite number either
        (
            lambda c: c["clients"][0].update(epoch_time_s=10**400),
            r"clients\[0\]\.epoch_time_s: must be finite",
        ),
        (
            lambda c: c["data"]["source"]["class_means"][1].__setitem__(0, -(10**400)),
            r"data\.source: class_means\[1\]\[0\] must be finite",
        ),
        (
            lambda c: c["data"].update(
                global_test={"type": "holdout", "fraction": 10**400, "seed": 0}
            ),
            "fraction",
        ),
        (
            lambda c: c["data"]["source"]["class_means"][0].__setitem__(1, float("inf")),
            r"data\.source: class_means\[0\]\[1\] must be finite",
        ),
        (
            lambda c: c["data"]["global_test"]["class_means"][1].__setitem__(0, float("nan")),
            r"data\.global_test: class_means\[1\]\[0\] must be finite",
        ),
        (
            lambda c: c["data"]["source"]["class_means"][1].append(2),
            r"data\.source: class_means must be two nonempty vectors of equal length",
        ),
        (
            lambda c: c.update(events=_join())
            or c["events"][0]["data"]["source"]["class_means"][1].__setitem__(0, float("-inf")),
            r"events\[0\]\.data\.source: class_means\[1\]\[0\] must be finite",
        ),
        (
            lambda c: c.update(events=_join())
            or c["events"][0]["data"]["source"]["class_means"][0].pop(),
            r"events\[0\]\.data\.source: class_means must be two nonempty vectors",
        ),
        # a name outside its options: the section path, then every option
        (
            lambda c: c.update(policy={"departure": "retain"}),
            "^" + re.escape("policy: departure must be one of ('drop-history', 'retain-last'), "
                            "got 'retain'"),
        ),
        (
            lambda c: c.update(noise={"amplitude": 0.1, "placement": "edge"}),
            "^" + re.escape("noise: placement must be one of ('client', 'server'), got 'edge'"),
        ),
        (
            lambda c: c["data"]["partition"].update(mode="dirichlet"),
            "^" + re.escape("data.partition: mode must be one of ('explicit-counts', "
                            "'random-uniform', 'label-skew'), got 'dirichlet'"),
        ),
        (
            lambda c: c["model"].update(kind="mlp-1hidden", hidden_dim=4, activation="tanh"),
            "^" + re.escape("model: activation must be one of ('relu', 'sigmoid'), got 'tanh'"),
        ),
        (
            lambda c: c.update(aggregator="median"),
            "^" + re.escape("aggregator: must be one of ('weighted', 'plain'), got 'median'"),
        ),
        (
            lambda c: c.update(report_formats=["csv", "yaml"]),
            "^" + re.escape("report_formats[1]: must be one of ('csv', 'json'), got 'yaml'"),
        ),
    ]:
        cfg = _base_cfg()
        mutate(cfg)
        with pytest.raises(ConfigValidationError, match=fragment):
            validate_config(cfg)


def test_named_options_take_only_their_options():
    # 7 of these 10 rules once said only "unknown ...", without the options
    plan = build_plan(validate_config(_base_cfg())).plan
    shard = plan.clients[0].shard

    def config_with(edit):
        def make(v):
            cfg = _base_cfg()
            edit(cfg, v)
            validate_config(cfg)
        return make

    names = ("Weighted", None, [])
    rows = [  # (name in the message, its options, build with the name at v, values tried)
        ("kind", ("logistic-regression", "mlp-1hidden"), lambda v: fedsim.ModelSpec(v, 2), names),
        ("activation", ("relu", "sigmoid"),
         lambda v: fedsim.ModelSpec("mlp-1hidden", 2, 4, activation=v), names),
        ("departure", ("drop-history", "retain-last"),
         lambda v: fedsim.PolicyConfig(departure=v), names),
        ("delay", ("use-stale-accept-any", "exclude-until-current"),
         lambda v: fedsim.PolicyConfig(delay=v), names),
        ("placement", ("client", "server"), lambda v: fedsim.NoiseConfig(0.1, v), names),
        ("kind", ("leave", "join", "delay"),
         lambda v: fedsim.IntermittencyEvent(2, v, 1, shard=shard, epoch_time_s=1.0), names),
        ("aggregator", ("weighted", "plain"),
         lambda v: fedsim.validate_plan(replace(plan, aggregator=v)), names),
        ("mode", ("explicit-counts", "random-uniform", "label-skew"),
         lambda v: fedsim.PartitionPlan(v, 2), names),
        # the config type-checks the aggregator first, so only a string reaches the rule
        ("aggregator:", ("weighted", "plain"),
         config_with(lambda c, v: c.update(aggregator=v)), ("Weighted",)),
        ("report_formats[1]:", ("csv", "json"),
         config_with(lambda c, v: c.update(report_formats=["json", v])), names),
        # these pick a schema, so a bad one is a parse error
        ("events[0].kind:", ("leave", "join", "delay"),
         config_with(lambda c, v: c.update(events=[{"round": 2, "kind": v, "client": 0}])), names),
        ("data.global_test.type:", ("synthetic", "csv", "holdout"),
         config_with(lambda c, v: c["data"]["global_test"].update(type=v)), names),
    ]
    for name, options, make, bads in rows:
        for bad in bads:
            with pytest.raises(ValueError) as info:
                make(bad)
            assert f"{name} must be one of {options}, got {bad!r}" in str(info.value), name
    cfg = _base_cfg()
    cfg["sweeps"] = {"grid": {}}
    with pytest.raises(ConfigParseError, match=re.escape(
        "sweeps.grid: must be one of ('client-count', 'N_r', 'policy'), got 'grid'"
    )):
        validate_config(cfg)


def test_list_elements_are_type_checked():
    for mutate, message in [
        (
            lambda c: c["data"].update(
                partition={"mode": "explicit-counts", "seed": 0, "counts": [None, 40]}
            ),
            "data.partition.counts[0]: expected int, got NoneType",
        ),
        (
            lambda c: c["data"].update(
                partition={"mode": "explicit-counts", "seed": 0, "counts": [40, 10.7]}
            ),
            "data.partition.counts[1]: expected int, got float",
        ),
        (
            lambda c: c["data"].update(
                partition={"mode": "explicit-counts", "seed": 0, "counts": [True, 40]}
            ),
            "data.partition.counts[0]: expected int, got bool",
        ),
        (
            lambda c: c["data"].update(
                partition={"mode": "label-skew", "seed": 0, "positive_fractions": [None, 0.5]}
            ),
            "data.partition.positive_fractions[0]: expected float/int, got NoneType",
        ),
        (
            lambda c: c["data"]["source"].update(class_means=[[-2, {}], [2, 2]]),
            "data.source.class_means[0][1]: expected float/int, got dict",
        ),
        (
            lambda c: c["data"]["global_test"].update(n_per_class=[20, False]),
            "data.global_test.n_per_class[1]: expected int, got bool",
        ),
    ]:
        cfg = _base_cfg()
        mutate(cfg)
        with pytest.raises(ConfigParseError) as info:
            validate_config(cfg)
        assert str(info.value) == message


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
        build_plan(validate_config(cfg))
    # a built plan has passed validate_plan
    cfg["events"] = [{"round": 2, "kind": "leave", "client": 9}]
    with pytest.raises(PlanValidationError, match="^round 2: leave targets inactive client 9$"):
        build_plan(validate_config(cfg))


def test_build_plan_shapes():
    rc = build_plan(validate_config(_base_cfg()))
    plan = rc.plan
    assert [c.client_id for c in plan.clients] == [0, 1]
    assert sorted(c.shard.n_total for c in plan.clients) == [40, 40]
    assert plan.global_test.n == 40
    assert plan.seed == 5
    assert rc.echo["report_formats"] == ["csv", "json"]
    # the echoed config re-validates and rebuilds the same plan
    again = build_plan(validate_config(rc.echo))
    assert again.plan.seed == plan.seed
    assert [c.client_id for c in again.plan.clients] == [0, 1]


def test_sweeps_keys_are_read_like_values_and_revalidate_to_themselves():
    cfg = _base_cfg()
    cfg["sweeps"] = {
        "N_r": {" 02": {"rounds": 2}, "3": {}},
        "policy": {" retain-last+use-stale-accept-any ": {"rounds": 1}},
    }
    once = validate_config(cfg)
    assert once["sweeps"] == {
        "N_r": {"2": {"rounds": 2}, "3": {}},
        "policy": {"retain-last+use-stale-accept-any": {"rounds": 1}},
    }
    assert validate_config(once) == once


def test_build_plan_infeasible_partition():
    cfg = _base_cfg()
    cfg["data"]["partition"] = {"mode": "explicit-counts", "seed": 0, "counts": [500, 500]}
    with pytest.raises(ConfigValidationError, match="partition"):
        build_plan(validate_config(cfg))


def test_csv_source_paths_resolve_relative_to_config(tmp_path):
    ds = make_synthetic([[-1, -1], [1, 1]], 1.0, (30, 30), seed=3)
    write_dataset_csv(ds, tmp_path / "master.csv")
    cfg = _base_cfg()
    cfg["data"]["source"] = {"type": "csv", "path": "master.csv"}
    rc = build_plan(validate_config(cfg), base_dir=tmp_path)
    assert sum(c.shard.n_total for c in rc.plan.clients) == 60


@pytest.mark.parametrize(
    "row, reason",
    [
        ("1,1,abc,0.5", "line 3: could not convert string to float: 'abc'"),
        ("1,0.5,0.1,0.5", "line 3: invalid literal for int() with base 10: '0.5'"),
        ("1,1,0.5", "line 3: row has 3 fields, expected 4"),
        ("1,2,0.1,0.5", "labels must be 0 or 1"),
        ("0,1,0.1,0.5", "sample ids must be unique"),
        ("1,1,nan,0.5", "features must be finite"),
        ("99999999999999999999,1,0.1,0.5", "Python int too large to convert to C long"),
        ("", "line 3: row has 0 fields, expected 4"),
        ("   ", "line 3: row has 1 fields, expected 4"),
        pytest.param("1,1," + "7" * 140_001 + ",0.5", "field larger than field limit (131072)",
                     id="field-past-the-csv-limit"),
    ],
)
def test_cli_malformed_csv_names_the_file_and_an_unparsable_line(tmp_path, capsys, row, reason):
    (tmp_path / "master.csv").write_text(f"id,label,f0,f1\n0,0,0.1,0.2\n{row}\n2,1,0.3,0.4\n")
    cfg = _base_cfg()
    cfg["data"]["source"] = {"type": "csv", "path": "master.csv"}
    code = main(["run", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "x")])
    assert code == 3
    assert capsys.readouterr().err == (
        f"validation error: data.source.path: {(tmp_path / 'master.csv').resolve()}: {reason}\n"
    )
    assert not (tmp_path / "x").exists()


def test_holdout_global_test():
    cfg = _base_cfg()
    cfg["data"]["global_test"] = {"type": "holdout", "fraction": 0.25, "seed": 4}
    rc = build_plan(validate_config(cfg))
    assert rc.plan.global_test.n == 20  # a quarter of the 80-sample master
    shard_ids = set()
    for c in rc.plan.clients:
        shard_ids.update(c.shard.train.ids.tolist())
        shard_ids.update(c.shard.test.ids.tolist())
    assert shard_ids.isdisjoint(rc.plan.global_test.ids.tolist())


def test_holdout_split_seed_must_be_an_integer():
    master = make_synthetic([[0, 0], [1, 1]], 1.0, (10, 10), seed=1)
    train, test = _holdout_split(master, 0.25, np.int64(4))
    twin_train, twin_test = _holdout_split(master, 0.25, 4)
    assert np.array_equal(train.ids, twin_train.ids)
    assert np.array_equal(test.ids, twin_test.ids)
    with pytest.raises(TypeError):
        _holdout_split(master, 0.25, 4.5)


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
    rc = build_plan(validate_config(cfg))
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

    # reruns are byte-identical, wherever they are written
    out2 = tmp_path / "out2"
    assert main(["run", "--config", cfg_path, "--out", str(out2)]) == 0
    for name in ("rounds.csv", "summary.json"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


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


def test_cli_seed_and_format_errors_name_the_config_keys(tmp_path, capsys):
    cfg_path = _write(tmp_path, _base_cfg())
    assert main(["validate", "--config", cfg_path, "--seed", "-3"]) == 3
    assert "seed: must be >= 0, got -3" in capsys.readouterr().err
    assert main(["validate", "--config", cfg_path, "--format", "csv,yaml"]) == 3
    assert capsys.readouterr().err == (
        "validation error: report_formats[1]: must be one of ('csv', 'json'), got 'yaml'\n"
    )
    assert main(["validate", "--config", cfg_path, "--format", " , "]) == 3
    assert "report_formats: at least one format is required" in capsys.readouterr().err


def test_cli_oversized_integer_literal_is_a_parse_error(tmp_path, capsys):
    # json.dumps refuses an int past Python's digit limit, so the literal is written by hand
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_base_cfg()).replace('"rounds": 3', '"rounds": ' + "9" * 5001))
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"parse error: {path}: invalid JSON: ")


@pytest.mark.parametrize("command", [
    ["run"], ["sweep", "--variable", "N_r", "--values", "2"],
], ids=["run", "sweep"])
def test_cli_rejects_an_unwritable_output_path_before_running(
    tmp_path, capsys, monkeypatch, command
):
    def no_run(plan):
        raise AssertionError("the simulation ran")

    monkeypatch.setattr("fedsim.cli.run", no_run)
    monkeypatch.delenv("FEDSIM_OUT", raising=False)
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = _base_cfg()
    cfg_path = _write(tmp_path, cfg)
    cases = [  # (where the path came from, the path, the extra CLI arguments)
        ("--out", blocker / "x", ["--out", str(blocker / "x")]),
        ("--out", blocker, ["--out", str(blocker)]),
        ("FEDSIM_OUT", blocker / "x" / "y", []),
        ("output_dir", blocker / "z", []),
    ]
    for source, out, extra in cases:
        if source == "FEDSIM_OUT":
            monkeypatch.setenv("FEDSIM_OUT", str(out))
        if source == "output_dir":
            cfg["output_dir"] = "file/z"
            cfg_path = _write(tmp_path, cfg)
        assert main([command[0], "--config", cfg_path, *extra, *command[1:]]) == 3
        assert capsys.readouterr().err == (
            f"validation error: {source}: cannot write {out}: {blocker} is not a writable "
            "directory\n"
        )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "file"]


def _source_too_large_to_allocate(join):
    # numpy refuses ~14 PiB at once, so the case allocates nothing
    cfg = _base_cfg()
    if join:
        cfg["events"] = _join()
        cfg["events"][0]["data"]["source"]["n_per_class"] = [10**15, 10]
    else:
        cfg["data"]["source"]["n_per_class"] = [10**15, 10]
    return cfg


def _model_with_hidden_dim(hidden_dim):
    return {**_base_cfg(), "model": {"kind": "mlp-1hidden", "input_dim": 2, "hidden_dim": hidden_dim}}


def _clock_edit(rounds=3, epochs=1, **edits):
    # Each case's clock or centralized comparison does not fit in a float (3 rounds of 2 s and 3 s
    # clients cost 9 s).
    cfg = _base_cfg()
    cfg.update(rounds=rounds, **edits)
    cfg["train"]["epochs"] = epochs
    if "centralized_epoch_time_s" not in edits:
        cfg["clients"][0]["epoch_time_s"] = 1e308
    return cfg


def _holdout_leaving_no_training_data():
    cfg = _base_cfg()
    cfg["data"]["source"]["n_per_class"] = [1, 1]
    cfg["data"]["global_test"] = {"type": "holdout", "fraction": 0.75, "seed": 3}
    return cfg


@pytest.mark.parametrize("config, code, expected", [
    ("[1]", 2, "parse error: {path}: top level must be a JSON object\n"),
    (None, 2, "parse error: cannot read config {path}: "),  # the path is a directory
    ({**_base_cfg(), "events": [5]}, 2, "parse error: events[0]: expected an object\n"),
    ({**_base_cfg(), "sweeps": {"N_r": 5}}, 2,
     "parse error: sweeps.N_r: expected an object keyed by value\n"),
    (_holdout_leaving_no_training_data(), 3,
     "validation error: data.global_test.fraction leaves no training data\n"),
    ({**_base_cfg(), "sweeps": {"N_r": {"abc": {}}}}, 3,
     "validation error: sweeps.N_r.abc: expected an integer, got 'abc'\n"),
    ({**_base_cfg(), "sweeps": {"N_r": {"2": {}, "02": {}}}}, 3,
     "validation error: sweeps.N_r.02: another key names the value 2\n"),
    (_source_too_large_to_allocate(join=False), 3,
     "validation error: data.source: Unable to allocate "),
    (_source_too_large_to_allocate(join=True), 3,
     "validation error: events[0].data.source: Unable to allocate "),
    # numpy refuses the ~291 TiB vector at once, so the case allocates nothing
    (_model_with_hidden_dim(10**13), 3, "validation error: model: Unable to allocate "),
    (_model_with_hidden_dim(10**19), 3,
     "validation error: model: Maximum allowed dimension exceeded\n"),
    (_clock_edit(), 3, "validation error: simulated clock: "),
    (_clock_edit(rounds=1, epochs=2), 3, "validation error: simulated clock: "),
    ({**_base_cfg(), "rounds": 10**400}, 3, "validation error: simulated clock: "),
    (_clock_edit(centralized_epoch_time_s=1e308), 3,
     "validation error: centralized_epoch_time_s: "),
    (_clock_edit(centralized_epoch_time_s=5e-324), 3,
     "validation error: centralized_epoch_time_s: "),
], ids=["top-level-list", "unreadable-path", "event-not-object", "sweep-table-not-object",
        "holdout-leaves-no-training-data", "sweep-key-not-a-value", "sweep-keys-name-one-value",
        "source-too-large-to-allocate", "join-source-too-large-to-allocate",
        "model-too-large-to-allocate", "model-past-numpys-largest-array",
        "clock-past-a-float", "one-round-clock-past-a-float", "rounds-past-a-float",
        "centralized-time-past-a-float", "centralized-saving-past-a-float"])
def test_cli_config_errors_end_in_their_exit_code(tmp_path, capsys, config, code, expected):
    if config is None:
        path = tmp_path / "config-dir"
        path.mkdir()
    else:
        path = tmp_path / "cfg.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
    for command in ("run", "validate"):  # validate refuses whatever run refuses
        assert main([command, "--config", str(path), "--out", str(tmp_path / "x")]) == code
        err = capsys.readouterr().err
        assert err.startswith(expected.format(path=path)), command
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()


def test_cli_deeply_nested_config_is_a_parse_error(tmp_path, capsys):
    # json.loads reads 700 levels, but copying them once ended in a RecursionError
    demo = Path(__file__).resolve().parent.parent / "demos" / "configs" / "three_clients.json"
    cfg = json.loads(demo.read_text())
    nested: list = []
    for _ in range(699):
        nested = [nested]
    cfg["sweeps"] = {"policy": {"drop-history+use-stale-accept-any": {"rounds": nested}}}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"parse error: {path}: nests too deeply (more than 100 levels)\n"


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
    assert (out / "events.log").read_text().endswith("round 2 abort reason=starvation\n")
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


def test_cli_validate_prints_integer_epoch_times_as_floats(tmp_path, capsys):
    # run writes 200.0; validate once printed the config's integers: 200 and 20.
    cfg = {**_base_cfg(), "rounds": 10, "clients": [{"id": 0, "epoch_time_s": 20}]}
    assert main(["validate", "--config", _write(tmp_path, cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "static_sim_time_s: 200.0" in lines
    assert lines[-1].endswith(" epoch_time_s=20.0")


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


def test_cli_sweep_policy_writes_an_absent_average_as_an_empty_cell(tmp_path):
    cfg = _base_cfg()
    cfg["data"]["partition"]["train_fraction"] = 1.0  # no client holds test samples
    cfg_path = _write(tmp_path, cfg)
    out = tmp_path / "pol"
    assert main(["sweep", "--config", cfg_path, "--out", str(out),
                 "--variable", "policy", "--values", "retain-last+use-stale-accept-any"]) == 0
    root = out / "sweep_policy"
    assert (root / "averages.csv").read_text().splitlines() == [
        "policy,avg_best_client_loss,avg_best_client_accuracy",
        "retain-last+use-stale-accept-any,,",
    ]
    summary = root / "policy=retain-last+use-stale-accept-any" / "summary.json"
    assert json.loads(summary.read_text())["client_best_avg"] == {"loss": None, "accuracy": None}


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


@pytest.mark.parametrize("partition, expected", [
    ({"mode": "random-uniform", "seed": 11}, "data.source.n_per_class: 80 rows cannot serve 81 clients"),
    ({"mode": "explicit-counts", "counts": [9, 9], "seed": 11}, "data.partition.counts: lists 2 clients"),
    ({"mode": "label-skew", "positive_fractions": [0.5, 0.5], "seed": 11},
     "data.partition.positive_fractions: lists 2 clients"),
], ids=["random-uniform", "explicit-counts", "label-skew"])
def test_cli_sweep_refuses_a_client_count_its_data_cannot_serve(tmp_path, capsys, partition, expected):
    cfg = _base_cfg()  # 80 source rows
    cfg["clients"] = [{"id": 0, "epoch_time_s": 2.0}, {"id": 1, "epoch_time_s": 2.0}]
    cfg["data"]["partition"] = partition
    code = main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o"),
                 "--variable", "client-count", "--values", "81"])
    assert code == 3
    assert capsys.readouterr().err == f"validation error: client-count=81: {expected}\n"
    assert not (tmp_path / "o").exists()


def _main_in_1_gib(*argv):
    """``fedsim.cli.main(argv)`` in a child process whose address space is capped at 1 GiB."""
    limited = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
               "from fedsim.cli import main; sys.exit(main())")
    src = str(Path(fedsim.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", limited, *argv], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
    )


def test_cli_sweep_refuses_a_huge_client_count_before_building_its_client_list(tmp_path):
    # 10**8 client entries take gigabytes; a child process with a 1 GiB address space must
    # refuse the value before it builds them, whether the source's rows are counted in the
    # config or only by reading its CSV file.
    cfg = _base_cfg()
    cfg["clients"] = [{"id": 0, "epoch_time_s": 2.0}, {"id": 1, "epoch_time_s": 2.0}]
    from_csv = deep_merge(cfg, {})
    from_csv["data"]["source"] = {"type": "csv", "path": "master.csv"}
    write_dataset_csv(make_synthetic([[-2, -2], [2, 2]], 1.0, (40, 40), seed=9),
                      tmp_path / "master.csv")
    for config, key in ((cfg, "n_per_class"), (from_csv, "path")):
        proc = _main_in_1_gib(
            "sweep", "--config", _write(tmp_path, config), "--out", str(tmp_path / "o"),
            "--variable", "client-count", "--values", "100000000")
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            f"validation error: client-count=100000000: data.source.{key}: 80 rows cannot serve "
            "100000000 clients"
        ]
        assert not (tmp_path / "o").exists()


def test_cli_refuses_a_model_whose_round_blocks_cannot_be_allocated(tmp_path):
    # The parameter vector (10.5M doubles) fits in 1 GiB, but one hidden-layer block of the
    # 1,000-row global test set or a 1,024-row client test stack (16 GiB) does not.
    configs = Path(__file__).resolve().parent.parent / "demos" / "configs"
    cfg = json.loads((configs / "three_clients.json").read_text())
    cfg["model"] = {"kind": "mlp-1hidden", "input_dim": 3, "hidden_dim": 2**21}
    for command in ("validate", "run"):
        proc = _main_in_1_gib(command, "--config", _write(tmp_path, cfg),
                              "--out", str(tmp_path / "o"))
        assert proc.returncode == 3
        [line] = proc.stderr.splitlines()
        assert line.startswith("validation error: model: Unable to allocate 16.0 GiB")
        assert not (tmp_path / "o").exists()


def test_cli_validate_stays_small_for_a_long_delay_window(tmp_path):
    # A window's length costs validate nothing: it records the window's two ends.
    configs = Path(__file__).resolve().parent.parent / "demos" / "configs"
    cfg = json.loads((configs / "delayed_update.json").read_text())
    cfg["rounds"] = 10**12
    cfg["events"] = [{"kind": "delay", "round": 1, "client": 1, "resume_round": 10**12 - 1}]
    proc = _main_in_1_gib("validate", "--config", _write(tmp_path, cfg))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[:4] == [
        "config ok", "clients: 3", "parameter_count: 4", f"rounds: {10**12} epochs_per_round: 1"]


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


def test_cli_sweep_value_parsing(tmp_path, capsys):
    cfg_path = _write(tmp_path, _base_cfg())
    assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "x"),
                 "--variable", "N_r", "--values", " , "]) == 3
    assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "x"),
                 "--variable", "N_r", "--values", "two"]) == 3
    assert "--values: expected an integer, got 'two'" in capsys.readouterr().err
    assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "x"),
                 "--variable", "policy", "--values", "drop-history"]) == 3
    # no departure+delay pre-check: the policy rules name the missing half
    assert capsys.readouterr().err.startswith(
        "validation error: policy=drop-history: policy: delay must be one of "
    )
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("key, values", [("02", "02"), ("02", "2"), ("2", "02")],
                         ids=["key-02-value-02", "key-02-value-2", "key-2-value-02"])
def test_cli_sweep_override_keys_are_read_like_values(tmp_path, key, values):
    cfg = _base_cfg()
    cfg["sweeps"] = {"N_r": {key: {"train": {"epochs": 3}}}}
    out = tmp_path / "o"
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out),
                 "--variable", "N_r", "--values", values]) == 0
    summary = json.loads((out / "sweep_N-r" / "N_r=2" / "summary.json").read_text())
    assert summary["config"]["train"]["epochs"] == 3


def test_cli_sweep_applies_a_policy_override(tmp_path):
    cfg = _base_cfg()
    cfg["sweeps"] = {"policy": {"retain-last+exclude-until-current": {"rounds": 2}}}
    out = tmp_path / "pol"
    values = "drop-history+use-stale-accept-any,retain-last+exclude-until-current"
    assert main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out),
                 "--variable", "policy", "--values", values]) == 0
    rounds = {
        v: json.loads((out / "sweep_policy" / f"policy={v}" / "summary.json").read_text())
        ["config"]["rounds"]
        for v in values.split(",")
    }
    assert rounds == {
        "drop-history+use-stale-accept-any": 3,
        "retain-last+exclude-until-current": 2,
    }


def test_cli_sweep_runs_a_repeated_policy_once_in_first_given_order(tmp_path, capsys):
    # Repeated integers are deduplicated and sorted: test_cli_sweep_rounds.
    a, b = "retain-last+use-stale-accept-any", "drop-history+exclude-until-current"
    out = tmp_path / "pol"
    assert main(["sweep", "--config", _write(tmp_path, _base_cfg()), "--out", str(out),
                 "--variable", "policy", "--values", f"{a},{b},{a},{b}"]) == 0
    runs = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
            if "sim_time_s=" in line]
    assert runs == [f"policy={a}", f"policy={b}"]
    root = out / "sweep_policy"
    assert sorted(p.name for p in root.iterdir() if p.is_dir()) == sorted(runs)
    with (root / "comparison.csv").open() as fh:
        assert [r["value"] for r in csv.DictReader(fh)] == [a, b]


def _files(root):
    """Every file under ``root``, by relative path, as bytes."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _distinct_timelines(plan):
    """The plan's Timeline with a departure no two policies share, so a sweep runs every value."""
    return replace(fedsim.orchestrator.validate_plan(plan), departure=plan.policy)


POLICY_VALUES = ("drop-history+use-stale-accept-any", "drop-history+exclude-until-current",
                 "retain-last+use-stale-accept-any", "retain-last+exclude-until-current")
DELAY_EVENT = {"round": 1, "kind": "delay", "client": 0, "resume_round": 2}
LEAVE_EVENT = {"round": 2, "kind": "leave", "client": 1}


@pytest.mark.parametrize("events, ran", [
    ([], [0]), ([DELAY_EVENT], [0, 1]), ([LEAVE_EVENT], [0, 2]),
    ([DELAY_EVENT, LEAVE_EVENT], [0, 1, 2, 3]),
], ids=["no-events", "delay-only", "leave-only", "delay-and-leave"])
def test_cli_policy_sweep_runs_each_trajectory_once_and_writes_every_value(
    tmp_path, monkeypatch, events, ran
):
    # ``ran``: the values that run, the first of each trajectory; the others reuse its run.
    cfg = {**_base_cfg(), "events": events, "centralized_epoch_time_s": 4.0}
    argv = ["sweep", "--config", _write(tmp_path, cfg), "--variable", "policy",
            "--values", ",".join(POLICY_VALUES)]
    planned = []

    def counting_run(plan):
        planned.append(f"{plan.policy.departure}+{plan.policy.delay}")
        return fedsim.orchestrator.run(plan)

    monkeypatch.setattr(fedsim.cli, "run", counting_run)
    assert main(argv + ["--out", str(tmp_path / "shared")]) == 0
    assert planned == [POLICY_VALUES[i] for i in ran]
    monkeypatch.setattr(fedsim.config, "validate_plan", _distinct_timelines)  # a run per value
    assert main(argv + ["--out", str(tmp_path / "alone")]) == 0
    assert planned[len(ran):] == list(POLICY_VALUES)
    shared, alone = _files(tmp_path / "shared"), _files(tmp_path / "alone")
    assert shared == alone  # the same files, byte for byte
    for value in POLICY_VALUES:
        summary = json.loads(shared[Path("sweep_policy", f"policy={value}", "summary.json")])
        departure, delay = value.split("+")
        assert summary["config"]["policy"] == {
            "departure": departure, "delay": delay, "delay_resume_same_round": True}


def test_cli_policy_sweep_keys_on_the_timelines_its_builds_compiled(tmp_path, monkeypatch):
    # The sweep once compiled every value's Timeline again for its key: 10 calls, not 6.
    demo = Path(__file__).resolve().parent.parent / "demos" / "configs" / "delayed_update.json"
    argv = ["sweep", "--config", str(demo), "--variable", "policy", "--values", ",".join(POLICY_VALUES)]
    original, calls = fedsim.orchestrator.validate_plan, []

    def counting(plan):
        calls.append(plan)
        return original(plan)

    with monkeypatch.context() as patched:  # every module that bound the name at import
        for module in (fedsim, fedsim.config, fedsim.orchestrator, fedsim.cli):
            if getattr(module, "validate_plan", None) is original:
                patched.setattr(module, "validate_plan", counting)
        assert main(argv + ["--out", str(tmp_path / "shared")]) == 0
    assert len(calls) == 4 + 2  # each value's build, then one run per delay policy
    monkeypatch.setattr(fedsim.config, "validate_plan", _distinct_timelines)  # a run per value
    assert main(argv + ["--out", str(tmp_path / "alone")]) == 0
    shared, alone = _files(tmp_path / "shared"), _files(tmp_path / "alone")
    assert shared == alone


def test_cli_sweep_builds_one_plan_per_value_and_never_the_base(tmp_path, monkeypatch):
    built = []

    def recording_build_plan(cfg, base_dir="."):
        built.append(cfg["rounds"])
        return build_plan(cfg, base_dir)

    monkeypatch.setattr(fedsim.cli, "build_plan", recording_build_plan)
    assert main(["sweep", "--config", _write(tmp_path, _base_cfg()), "--out", str(tmp_path / "o"),
                 "--variable", "N_r", "--values", "2,1"]) == 0
    assert built == [1, 2]  # the base config has 3 rounds


@pytest.mark.parametrize("command, calls", [
    (["run"], 1), (["validate"], 1), (["sweep", "--variable", "N_r", "--values", "2,1"], 1 + 2),
], ids=["run", "validate", "sweep"])
def test_cli_validates_each_config_once(tmp_path, monkeypatch, command, calls):
    seen = []

    def counting_validate_config(cfg):
        seen.append(cfg["rounds"])
        return validate_config(cfg)

    monkeypatch.setattr(fedsim.cli, "validate_config", counting_validate_config)
    monkeypatch.setattr(fedsim.config, "validate_config", counting_validate_config)
    argv = [command[0], "--config", _write(tmp_path, _base_cfg()), "--out", str(tmp_path / "o")]
    assert main(argv + command[1:]) == 0
    assert len(seen) == calls


def test_cli_output_file_that_cannot_be_written_exits_3(tmp_path, capsys):
    demo = Path(__file__).resolve().parent.parent / "demos" / "configs" / "three_clients.json"
    out = tmp_path / "out"
    (out / "rounds.csv").mkdir(parents=True)
    assert main(["run", "--config", str(demo), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"validation error: cannot write {out / 'rounds.csv'}: Is a directory\n"
    )


def test_cli_sweep_value_whose_directory_is_a_file_exits_3_naming_the_value(tmp_path, capsys):
    demo = Path(__file__).resolve().parent.parent / "demos" / "configs" / "three_clients.json"
    out = tmp_path / "out"
    blocker = out / "sweep_N-r" / "N_r=5"
    blocker.parent.mkdir(parents=True)
    blocker.write_text("")
    code = main(["sweep", "--config", str(demo), "--out", str(out), "--variable", "N_r",
                 "--values", "1,5"])
    assert code == 3
    assert capsys.readouterr().err == f"validation error: N_r=5: cannot write {blocker}: File exists\n"
    assert (out / "sweep_N-r" / "N_r=1" / "rounds.csv").exists()  # the value before it ran


def test_cli_sweep_override_may_rely_on_the_swept_value(tmp_path):
    """An override is checked together with its variable's edit, so it may
    name rounds or clients that only the swept value creates."""
    cfg = _base_cfg()
    cfg["clients"] = [{"id": 0, "epoch_time_s": 2.0}, {"id": 1, "epoch_time_s": 2.0}]
    cfg["data"]["partition"] = {"mode": "explicit-counts", "counts": [30, 30], "seed": 11}
    cfg["sweeps"] = {
        "N_r": {"5": {"roc_rounds": [5]}},
        "client-count": {"3": {"data": {"partition": {"counts": [20, 20, 20]}}}},
    }
    cfg_path = _write(tmp_path, cfg)
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg_path, "--out", str(out),
                 "--variable", "N_r", "--values", "5"]) == 0
    assert (out / "sweep_N-r" / "N_r=5" / "roc_round5.csv").exists()
    assert main(["sweep", "--config", cfg_path, "--out", str(out),
                 "--variable", "client-count", "--values", "3"]) == 0


@pytest.mark.parametrize(
    "clients, where",
    [
        ("abc", "clients: expected list"),
        (["a"], "clients[0]: expected an object"),
        ([{"id": 1}], "clients[0].epoch_time_s: missing required key"),
    ],
)
def test_cli_sweep_malformed_override_clients_are_a_parse_error(tmp_path, capsys, clients, where):
    cfg = _base_cfg()
    cfg["sweeps"] = {"client-count": {"3": {"clients": clients}}}
    code = main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o"),
                 "--variable", "client-count", "--values", "3"])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"parse error: client-count=3: {where}")


def test_cli_sweep_values_below_one_fail_the_config_rules(tmp_path, capsys):
    for variable, message in (
        ("N_r", "N_r=0: rounds: must be >= 1, got 0"),
        ("client-count", "client-count=0: clients: at least one client is required"),
    ):
        cfg = _base_cfg()
        cfg["clients"] = [{"id": 0, "epoch_time_s": 2.0}]
        code = main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "o"),
                     "--variable", variable, "--values=0,2"])
        assert code == 3
        assert capsys.readouterr().err == f"validation error: {message}\n"
    assert not (tmp_path / "o").exists()


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


def test_cli_overflowing_synthetic_source_prints_one_validation_error(tmp_path):
    demo = Path(__file__).resolve().parent.parent / "demos" / "configs" / "three_clients.json"
    cfg = json.loads(demo.read_text())
    cfg["data"]["source"].update(cov_scale=1e308, class_means=[[1e308] * 3, [-1e308] * 3])
    src = str(Path(fedsim.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "fedsim.cli", "validate", "--config", _write(tmp_path, cfg)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == ["validation error: data.source: features must be finite"]


def test_cli_diverging_run_exits_5_and_keeps_partial_results(tmp_path):
    out = tmp_path / "diverged"
    src = str(Path(fedsim.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "fedsim.cli", "run", "--config",
         _write(tmp_path, _diverging_cfg()), "--out", str(out)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 5
    assert proc.stderr.splitlines() == [
        "error: client 0 diverged in round 1: local training produced non-finite parameters"
    ]
    with (out / "rounds.csv").open() as fh:
        assert len(list(csv.reader(fh))) == 1  # header only: round 1 never completed
    assert (out / "events.log").read_text() == "round 1 abort reason=divergence client=0\n"
    assert not (out / "summary.json").exists()


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


def test_cli_sweep_checks_every_value_before_the_first_run(tmp_path, capsys):
    demo = Path(__file__).resolve().parent.parent / "demos" / "configs" / "delayed_update.json"
    out = tmp_path / "sw"
    code = main(["sweep", "--config", str(demo), "--out", str(out), "--variable", "policy",
                 "--values", "drop-history+use-stale-accept-any,bogus+x"])
    assert code == 3
    assert capsys.readouterr().err == (
        "validation error: policy=bogus+x: policy: departure must be one of "
        "('drop-history', 'retain-last'), got 'bogus'\n"
    )
    assert not out.exists()


def test_cli_sweep_builds_and_checks_every_plan_before_the_first_run(tmp_path, capsys):
    # four clients take ids 0-3, so the join of client 3 no longer fits the script
    demo = Path(__file__).resolve().parent.parent / "demos" / "configs" / "leave_join.json"
    cfg = json.loads(demo.read_text())
    for client in cfg["clients"]:
        client["epoch_time_s"] = 20.0
    out = tmp_path / "sw"
    code = main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out),
                 "--variable", "client-count", "--values", "3,4"])
    assert code == 3
    assert capsys.readouterr().err == (
        "validation error: client-count=4: round 5: join re-uses client id 3\n"
    )
    assert not out.exists()


def test_cli_sweep_refuses_a_value_whose_model_cannot_be_allocated_before_the_first_run(
    tmp_path, capsys
):
    cfg = _base_cfg()
    cfg["sweeps"] = {"N_r": {"3": {"model": _model_with_hidden_dim(10**13)["model"]}}}
    out = tmp_path / "sw"
    code = main(["sweep", "--config", _write(tmp_path, cfg), "--out", str(out),
                 "--variable", "N_r", "--values", "2,3"])
    assert code == 3
    assert capsys.readouterr().err.startswith("validation error: N_r=3: model: Unable to allocate ")
    assert not out.exists()


@pytest.mark.parametrize("placement", ["client", "server"])
def test_cli_noise_that_overflows_exits_5_and_keeps_partial_results(tmp_path, capsys, placement):
    cfg = _base_cfg()
    cfg["rounds"] = 8
    cfg["train"]["learning_rate"] = 1e-300  # training leaves the noised parameters as they are
    cfg["noise"] = {"amplitude": 8.9e307, "placement": placement}
    out = tmp_path / "noised"
    assert main(["run", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 5
    assert capsys.readouterr().err == (
        f"error: round 6: {placement} noise produced non-finite parameters\n"
    )
    with (out / "rounds.csv").open() as fh:
        assert [row[0] for row in csv.reader(fh)] == ["round", "1", "2", "3", "4", "5"]
    events = (out / "events.log").read_text()
    assert "round 5 aggregate" in events and "round 6 aggregate" not in events
    assert events.endswith(f"round 6 abort reason=noise placement={placement}\n")
    assert not (out / "summary.json").exists()
