"""Tests for the benchmark's own helpers: span arithmetic, output checks, generators."""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
for entry in (BENCH_DIR, BENCH_DIR.parent / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import fedsim.config  # noqa: E402
import fedsim.orchestrator  # noqa: E402
import fedsim.report  # noqa: E402
import workloads  # noqa: E402
from fedsim import (  # noqa: E402
    ClientSetup,
    ModelSpec,
    PartitionPlan,
    SimPlan,
    TrainConfig,
    make_synthetic,
    partition,
    run,
    validate_plan,
)
from spans import LAYERS, Span, Tracer, by_name, self_times  # noqa: E402
from verify import Verifier  # noqa: E402
import workload  # noqa: E402
from workload import run_split  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # run [0, 10] > train [1, 7] > step [2, 3] and step [4, 6]; run > eval [8, 9]
    spans = [
        Span("run", 0.0, 10.0, -1),
        Span("train", 1.0, 7.0, 0),
        Span("step", 2.0, 3.0, 1),
        Span("step", 4.0, 6.0, 1),
        Span("eval", 8.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 3.0, 1.0, 2.0, 1.0]
    rows = by_name(spans)
    assert rows["step"]["calls"] == 2 and rows["step"]["total_s"] == 3.0
    assert rows["train"]["self_s"] == 3.0
    assert sum(r["self_s"] for r in rows.values()) == 10.0  # self times tile the root span


def test_tracer_records_nesting_and_restores_attributes():
    original = fedsim.orchestrator.train_local
    tracer = Tracer()
    with tracer.installed():
        assert fedsim.orchestrator.train_local is not original
        report = fedsim.orchestrator.run(_tiny_plan())
    assert fedsim.orchestrator.train_local is original
    assert not any(hasattr(getattr(importlib.import_module(m), a), "__wrapped__") for m, a, _ in LAYERS)
    rows = by_name(tracer.spans)
    assert rows["orchestrator.run"]["calls"] == 1
    assert rows["models.train_local"]["calls"] == 2 * 2  # two clients, two rounds
    train = [i for i, s in enumerate(tracer.spans) if s.name == "models.train_local"]
    steps = [s for s in tracer.spans if s.name == "models.loss_and_grad"]
    assert steps and all(s.parent in train for s in steps)
    assert tracer.counts["seeding.rng_from"] > 0
    assert report.rounds


def _tiny_plan(seed: int = 3) -> SimPlan:
    means = [np.zeros(2), np.full(2, 2.0)]
    master = make_synthetic(means, 1.0, (40, 40), seed=seed)
    shards = partition(master, PartitionPlan("random-uniform", 2, seed=seed))
    return SimPlan(
        model=ModelSpec("logistic-regression", input_dim=2),
        train=TrainConfig(epochs=1, batch_size=8, learning_rate=0.5),
        n_rounds=2,
        clients=tuple(ClientSetup(s.client_id, s, 1.0 + s.client_id) for s in shards),
        global_test=make_synthetic(means, 1.0, (20, 20), seed=seed + 1),
        seed=seed,
    )


def _written(tmp_path: Path):
    report = run(_tiny_plan())
    out = tmp_path / "out"
    fedsim.report.write_run_outputs(report, out)
    return report, out


def test_run_split_charges_run_time_to_its_direct_callees():
    spans = [
        Span("orchestrator.run", 0.0, 10.0, -1),
        Span("models.train_local", 1.0, 7.0, 0),
        Span("models.loss_and_grad", 2.0, 3.0, 1),
        Span("metrics.evaluate", 8.0, 9.0, 0),
        Span("report.write_run_outputs", 10.0, 12.0, -1),
    ]
    split = run_split(spans)
    assert list(split) == ["models.train_local", "orchestrator.run (self)", "metrics.evaluate"]
    assert list(split.values()) == pytest.approx([0.6, 0.3, 0.1])


def test_speed_scale_weighs_samples_by_the_work_done_between_them():
    ref = workload.REFERENCE_S
    assert workload.speed_scale([ref, ref, ref]) == pytest.approx(1.0)
    # Half the time at twice the reference speed: 2 s measured do 3 s of
    # reference work.
    assert 2.0 * workload.speed_scale([ref / 2, ref]) == pytest.approx(3.0)


def test_speed_probe_samples_inside_train_local_and_restores_it(monkeypatch):
    monkeypatch.setattr(workload, "reference_time", lambda: 0.25)
    monkeypatch.setattr(workload, "SAMPLE_EVERY_S", 60.0)
    monkeypatch.setattr(fedsim.orchestrator, "train_local", lambda x: x + 1)
    original = fedsim.orchestrator.train_local
    probe = workload.SpeedProbe()
    with probe.installed():
        assert fedsim.orchestrator.train_local(1) == 2
        # The second call comes before SAMPLE_EVERY_S has passed: no sample.
        assert fedsim.orchestrator.train_local(2) == 3
    assert fedsim.orchestrator.train_local is original
    assert probe.samples == [0.25]
    assert probe.spent == 0.25
    assert probe.scale == pytest.approx(workload.REFERENCE_S / 0.25)


def test_tampered_output_counts_in_error_rate(tmp_path):
    report, out = _written(tmp_path)
    recorded = {
        f"tiny/{name}": hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("rounds.csv", "events.log")
    }
    verifier = Verifier(recorded)
    assert verifier.check_pass(1, [("tiny", report, out)]) == 0
    with (out / "rounds.csv").open("a") as fh:
        fh.write("\n")
    assert verifier.check_pass(1, [("tiny", report, out)]) == 1
    assert verifier.attempted == 2 and verifier.failed == 1 and verifier.error_rate == 0.5
    assert any("recorded digest" in p for p in verifier.problems)
    assert any("first pass" in p for p in verifier.problems)


def test_missing_outputs_and_broken_invariants_count_as_failed(tmp_path):
    report, out = _written(tmp_path)
    verifier = Verifier(None)
    assert verifier.check_pass(2, [("tiny", report, out)]) == 1  # one simulation never wrote
    bad_clock = replace(report, rounds=[replace(report.rounds[0], sim_time_s=0.5)] + report.rounds[1:])
    assert verifier.check_pass(1, [("tiny", bad_clock, out)]) == 1
    assert any("sim_time_s" in p for p in verifier.problems)


def test_twin_must_reproduce_its_bytes(tmp_path):
    report, out = _written(tmp_path)
    twin = tmp_path / "twin"
    fedsim.report.write_run_outputs(report, twin)
    verifier = Verifier(None, {"twin": "tiny"})
    assert verifier.check_pass(2, [("tiny", report, out), ("twin", report, twin)]) == 0
    (twin / "events.log").write_text("changed\n")
    verifier = Verifier(None, {"twin": "tiny"})
    assert verifier.check_pass(2, [("tiny", report, out), ("twin", report, twin)]) == 1


def _fingerprint(plan: SimPlan) -> str:
    h = hashlib.sha256(repr((plan.model, plan.train, plan.n_rounds, plan.seed, plan.policy,
                             plan.noise, plan.aggregator)).encode())
    datasets = [plan.global_test]
    for c in plan.clients:
        h.update(repr((c.client_id, c.epoch_time_s)).encode())
        datasets += [c.shard.train, c.shard.test]
    for ev in plan.events:
        h.update(repr((ev.round_index, ev.kind, ev.client_id, ev.epoch_time_s, ev.resume_round)).encode())
        if ev.shard is not None:
            datasets += [ev.shard.train, ev.shard.test]
    for d in datasets:
        for array in (d.features, d.labels, d.ids):
            h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("build", [workloads.silo_mlp, workloads.fleet_churn])
def test_in_memory_generators_are_seeded_and_valid(build):
    first, again, other = build(1), build(1), build(2)
    assert _fingerprint(first.plan) == _fingerprint(again.plan)
    assert _fingerprint(first.plan) != _fingerprint(other.plan)
    for inputs in (first, other):
        validate_plan(inputs.plan)


def test_fleet_churn_has_the_scripted_churn():
    plan = workloads.fleet_churn(1).plan
    kinds = [ev.kind for ev in plan.events]
    assert len(plan.clients) == 200 and kinds.count("join") == 20
    assert kinds.count("leave") == plan.n_rounds // 2
    delayed_rounds = {ev.round_index for ev in plan.events if ev.kind == "delay"}
    assert delayed_rounds == set(range(1, plan.n_rounds))
    assert 40 <= np.mean([c.shard.n_train for c in plan.clients]) <= 50


def test_cli_suite_is_seeded_and_its_configs_build(tmp_path):
    commands, paths = workloads.cli_suite(5, tmp_path / "a")
    again, again_paths = workloads.cli_suite(5, tmp_path / "b")
    assert [p.read_bytes() for p in paths] == [p.read_bytes() for p in again_paths]
    assert [(argv[:-1], out) for argv, out in commands] == [(argv[:-1], out) for argv, out in again]
    assert sum(n for _, _, n in workloads.CLI_COMMANDS) == workloads.CLI_SIMULATIONS == 14
    _, default_paths = workloads.cli_suite(workloads.DEFAULT_SEED, tmp_path / "c")
    for stem in workloads.CLI_CONFIGS:
        shipped = json.loads((workloads.CONFIG_DIR / f"{stem}.json").read_text())
        assert json.loads((tmp_path / "c" / f"{stem}.json").read_text()) == shipped
        assert json.loads((tmp_path / "a" / f"{stem}.json").read_text()) != shipped
    for path in paths + default_paths:
        cfg = fedsim.config.validate_config(fedsim.config.load_config_file(path))
        validate_plan(fedsim.config.build_plan(cfg, base_dir=path.parent).plan)
