"""Property tests over random valid event scripts and every policy
combination, and over single-leaf mutations of the demo configs."""

import io
import json
import math
import os
import re
import tempfile
from contextlib import contextmanager, redirect_stderr
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedsim.orchestrator as orch
from fedsim.cli import main
from fedsim.models import ModelSpec, TrainConfig
from fedsim.orchestrator import (
    ClientSetup,
    IntermittencyEvent,
    NoiseConfig,
    PolicyConfig,
    PolicyStarvationError,
    SimPlan,
    run,
    simulated_time,
    validate_plan,
)
from fedsim.partition import PartitionPlan, make_synthetic, partition

from _oracles import delay_phase_reference

MAX_INITIAL, MAX_JOINS = 3, 2
SHARDS = partition(
    make_synthetic([[-2, -2], [2, 2]], 1.0, (24, 24), seed=17),
    PartitionPlan("random-uniform", MAX_INITIAL + MAX_JOINS, seed=17),
)
GLOBAL_TEST = make_synthetic([[-2, -2], [2, 2]], 1.0, (10, 10), seed=990)
POLICIES = [
    PolicyConfig(departure, delay, same_round)
    for departure in ("drop-history", "retain-last")
    for delay in ("use-stale-accept-any", "exclude-until-current")
    for same_round in (True, False)
]
TINY = settings(derandomize=True, deadline=None, database=None, max_examples=25)
TIMES = st.sampled_from([1.0, 2.5, 4.0, 7.5])


@st.composite
def plans(draw):
    """A plan whose script ``validate_plan`` accepts: per round, joins first,
    then at most one delay or leave per active client outside its delay window."""
    k = draw(st.integers(1, MAX_INITIAL))
    n_rounds = draw(st.integers(2, 5))
    clients = tuple(ClientSetup(i, SHARDS[i], draw(TIMES)) for i in range(k))
    active, busy_until, next_id, events = set(range(k)), {}, k, []
    for r in range(1, n_rounds + 1):
        touched = set()
        if next_id < k + MAX_JOINS and draw(st.booleans()):
            events.append(IntermittencyEvent.join(r, next_id, SHARDS[next_id], draw(TIMES)))
            active.add(next_id)
            touched.add(next_id)
            next_id += 1
        for cid in sorted(active - touched):
            if busy_until.get(cid, 0) >= r:
                continue
            action = draw(st.sampled_from(["stay", "stay", "delay", "leave"]))
            if action == "delay" and r < n_rounds:
                resume = draw(st.integers(r + 1, n_rounds))
                events.append(IntermittencyEvent.delay(r, cid, resume))
                busy_until[cid] = resume
            elif action == "leave":
                events.append(IntermittencyEvent.leave(r, cid))
                active.discard(cid)
    return SimPlan(
        model=ModelSpec("logistic-regression", input_dim=2),
        train=TrainConfig(epochs=draw(st.integers(1, 2)), batch_size=4, learning_rate=0.3),
        n_rounds=n_rounds,
        clients=clients,
        global_test=GLOBAL_TEST,
        seed=draw(st.integers(0, 2**16)),
        events=tuple(draw(st.permutations(events))),
        aggregator=draw(st.sampled_from(["weighted", "plain"])),
        noise=draw(st.sampled_from([None, NoiseConfig(0.01, "client"), NoiseConfig(0.01, "server")])),
    )


@contextmanager
def aggregated_updates():
    """Record the update list of every aggregation call, round by round."""
    seen = []

    def recording(aggregate):
        def wrapper(updates):
            seen.append(list(updates))
            return aggregate(updates)
        return wrapper

    with mock.patch.object(orch, "weighted_fedavg", recording(orch.weighted_fedavg)), \
            mock.patch.object(orch, "plain_average", recording(orch.plain_average)):
        yield seen


def _rounds_and_updates(plan):
    """Completed rounds, each round's aggregated updates, and the audit log."""
    with aggregated_updates() as seen:
        try:
            report = run(plan)
            rounds, audit = report.rounds, report.audit_log
        except PolicyStarvationError as exc:
            rounds, audit = exc.completed, exc.audit_log
    return rounds, seen[: len(rounds)], audit


@TINY
@given(plans())
def test_timeline_phases_match_a_reference_scan(plan):
    timeline = validate_plan(plan)
    ids = {c.client_id for c in plan.clients} | {ev.client_id for ev in plan.events}
    expected = {
        (cid, r): phase
        for cid in ids
        for r in range(1, plan.n_rounds + 1)
        if (phase := delay_phase_reference(plan.events, cid, r)) is not None
    }
    assert timeline.phases == expected
    for kind, by_round in (("join", timeline.joins), ("leave", timeline.leaves)):
        for r in range(1, plan.n_rounds + 1):
            script = [ev for ev in plan.events if ev.kind == kind and ev.round_index == r]
            assert by_round.get(r, []) == script


@TINY
@given(plans())
def test_run_invariants_under_every_policy(plan):
    epoch_times = {c.client_id: c.epoch_time_s for c in plan.clients}
    epoch_times.update({ev.client_id: ev.epoch_time_s for ev in plan.events if ev.kind == "join"})
    first_event = min((ev.round_index for ev in plan.events), default=plan.n_rounds + 1)
    prefixes = []
    for policy in POLICIES:
        rounds, updates, _ = _rounds_and_updates(replace(plan, policy=policy))
        assert len(rounds) >= first_event - 1  # nothing can starve before the first event
        for rec, round_updates in zip(rounds, updates):
            r = rec.round_index
            assert abs(math.fsum(w for _, w in rec.aggregate.weights_used) - 1.0) <= 1e-12
            fresh = [epoch_times[p.client_id] for p in rec.participants if p.fresh]
            assert rec.sim_time_s == simulated_time(plan.train.epochs, [fresh])
            assert [u.client_id for u in round_updates] == [p.client_id for p in rec.participants]
            for p, u in zip(rec.participants, round_updates):
                assert p.age == r - u.produced_round
                assert p.fresh == (p.age == 0)
        prefixes.append(
            [(rec.participants, rec.global_params.values.tobytes()) for rec in rounds[: first_event - 1]]
        )
    assert all(prefix == prefixes[0] for prefix in prefixes)


AGGREGATE_LINE = re.compile(r"round (\d+) aggregate participants=(\S+) weights=(\S+) total_n=(\d+)")


@TINY
@given(plans(), st.sampled_from(POLICIES))
def test_audit_log_lists_each_rounds_participants_and_weights(plan, policy):
    rounds, _, audit = _rounds_and_updates(replace(plan, policy=policy))
    lines = [m for line in audit if (m := AGGREGATE_LINE.fullmatch(line))]
    assert len(lines) == len(rounds)
    for rec, m in zip(rounds, lines):
        r, participants, weights, total_n = m.groups()
        assert int(r) == rec.round_index
        labels = [p.split(":") for p in participants.split(",")]
        assert [(int(cid), label) for cid, label in labels] == [
            (p.client_id, "fresh" if p.fresh else f"stale({p.age})") for p in rec.participants
        ]
        pairs = [w.split(":") for w in weights.split(",")]
        assert tuple((int(cid), float(w)) for cid, w in pairs) == rec.aggregate.weights_used
        assert sorted(cid for cid, _ in rec.aggregate.weights_used) == sorted(
            p.client_id for p in rec.participants
        )
        assert int(total_n) == rec.aggregate.total_n


@TINY
@given(plans(), st.sampled_from(POLICIES))
def test_each_aggregate_lies_within_the_envelope_of_its_updates(plan, policy):
    rounds, updates, _ = _rounds_and_updates(replace(plan, policy=policy))
    assert len(updates) == len(rounds)
    for rec, round_updates in zip(rounds, updates):
        stacked = np.stack([u.params.values for u in round_updates])
        assert np.all(rec.aggregate.params.values >= stacked.min(axis=0))
        assert np.all(rec.aggregate.params.values <= stacked.max(axis=0))


DEMO_CONFIGS = {
    p.stem: json.loads(p.read_text())
    for p in sorted((Path(__file__).resolve().parent.parent / "demos" / "configs").glob("*.json"))
}
# No value exceeds 1 in magnitude, so no mutation can make a run much longer.
FUZZ_VALUES = [None, True, -1, 0, 1, 0.5, "x", [], {}, [None], math.inf, math.nan]


def _leaf_paths(node, path=()):
    """Every scalar or empty container in ``node``, as a key path."""
    if isinstance(node, list):
        node = dict(enumerate(node))
    if not isinstance(node, dict) or not node:
        yield path
        return
    for key, child in node.items():
        yield from _leaf_paths(child, path + (key,))


@st.composite
def mutations(draw):
    stem = draw(st.sampled_from(sorted(DEMO_CONFIGS)))
    path = draw(st.sampled_from(list(_leaf_paths(DEMO_CONFIGS[stem]))))
    return stem, path, draw(st.sampled_from(FUZZ_VALUES))


def _partition(mode, **lists):
    return {"mode": mode, "seed": 33, **lists}


@settings(derandomize=True, deadline=None, database=None, max_examples=50)
@given(mutations())
# configs that once ended in a traceback or were silently accepted
@example(("three_clients", ("model", "hidden_dim"), 4))
@example(("three_clients", ("model", "kind"), "mlp-1hidden"))
@example(("leave_join", ("events", 1, "data", "train_fraction"), 1.5))
@example(("leave_join", ("events", 1, "data", "seed"), -1))
@example(("three_clients", ("data", "partition"), _partition("explicit-counts", counts=[None, 9, 9])))
@example(("three_clients", ("data", "partition"), _partition("explicit-counts", counts=[10.7, 9, 9])))
@example(("three_clients", ("data", "partition"), _partition("explicit-counts", counts=[True, 9, 9])))
@example(("three_clients", ("data", "partition"),
          _partition("label-skew", positive_fractions=[None, 0.5, 0.5])))
@example(("three_clients", ("data", "source", "class_means", 0, 1), {}))
@example(("three_clients", ("train", "learning_rate"), math.inf))
@example(("three_clients", ("noise",), {"amplitude": math.inf}))
@example(("three_clients", ("noise",), {"amplitude": 1.7e308}))
@example(("three_clients", ("clients", 0, "epoch_time_s"), math.inf))
def test_mutated_demo_config_ends_in_a_documented_exit_code(mutation):
    stem, path, value = mutation
    assert _main_on(_mutated(DEMO_CONFIGS[stem], path, value), ["run"]) in (0, 2, 3, 4, 5)


def _mutated(node, path, value):
    """A copy of ``node`` with the leaf at ``path`` set to ``value``."""
    node = json.loads(json.dumps(node))
    parent = node
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return node


def _main_on(cfg, argv):
    """``fedsim <argv>`` on ``cfg`` written to a temporary file, writing
    into a temporary directory; returns the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "cfg.json"
        config.write_text(json.dumps(cfg))
        return main(argv + ["--config", str(config), "--out", str(Path(tmp) / "out")])


POLICY_VALUES = [
    f"{departure}+{delay}"
    for departure in ("drop-history", "retain-last")
    for delay in ("use-stale-accept-any", "exclude-until-current")
]
# Swept integers stay small, so no value builds a large fleet or a long run.
SWEEP_INTEGERS = st.integers(-2, 12)


@st.composite
def sweeps(draw):
    """A demo config (its clients optionally given one epoch time, so a
    client-count sweep can resize them), a variable, 1-3 values, and for some
    values an override that sets one leaf of the config to a fuzz value."""
    stem = draw(st.sampled_from(sorted(DEMO_CONFIGS)))
    cfg = json.loads(json.dumps(DEMO_CONFIGS[stem]))
    if draw(st.booleans()):
        for client in cfg["clients"]:
            client["epoch_time_s"] = 2.0
    variable = draw(st.sampled_from(["client-count", "N_r", "policy"]))
    if variable == "policy":
        label = st.sampled_from(POLICY_VALUES + ["x+y"])
    else:
        label = SWEEP_INTEGERS.map(str)
    labels = draw(st.lists(label, min_size=1, max_size=3, unique=True))
    table = {}
    for value in draw(st.lists(st.sampled_from(labels), unique=True)):
        path = draw(st.sampled_from(list(_leaf_paths(cfg))))
        leaf = draw(st.sampled_from(FUZZ_VALUES) | SWEEP_INTEGERS)
        table[value] = {path[0]: _mutated(cfg, path, leaf)[path[0]]}
    cfg["sweeps"] = {variable: table}
    return cfg, variable, ",".join(labels)


def _client_count_3(clients):
    cfg = json.loads(json.dumps(DEMO_CONFIGS["ten_clients"]))
    cfg["sweeps"] = {"client-count": {"3": {"clients": clients}}}
    return cfg, "client-count", "3"


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(sweeps())
# overrides that once ended in a traceback or were silently ignored
@example(_client_count_3("abc"))
@example(_client_count_3(["a"]))
@example(_client_count_3([{"id": 1}]))
@example((
    {**DEMO_CONFIGS["delayed_update"],
     "sweeps": {"policy": {"drop-history+use-stale-accept-any": {"rounds": 2}}}},
    "policy",
    "drop-history+use-stale-accept-any",
))
def test_fuzzed_sweep_ends_in_a_documented_exit_code(sweep):
    cfg, variable, values = sweep
    argv = ["sweep", "--variable", variable, f"--values={values}"]  # values may start with "-"
    assert _main_on(cfg, argv) in (0, 2, 3, 4, 5)


# What a run (R) or an N_r sweep over 1,2 (S) writes under its output directory.
OUTPUT_DIRS = {"R": ["."], "S": [".", "sweep_N-r", "sweep_N-r/N_r=1", "sweep_N-r/N_r=2"]}
OUTPUT_FILES = {
    "R": ["rounds.csv", "events.log", "summary.json", "roc_round1.csv"],
    "S": ["sweep_N-r/comparison.csv", "sweep_N-r/N_r=1/events.log",
          "sweep_N-r/N_r=2/rounds.csv", "sweep_N-r/N_r=2/summary.json"],
}


@st.composite
def blocked_outputs(draw):
    """A command, an output directory given by --out or FEDSIM_OUT, and one
    path below it taken by the wrong kind of entry: a file where a directory
    is expected, or a directory named like an output file."""
    command = draw(st.sampled_from(["R", "S"]))
    source = draw(st.sampled_from(["--out", "FEDSIM_OUT"]))
    if draw(st.booleans()):
        return command, source, "file", draw(st.sampled_from(OUTPUT_DIRS[command]))
    return command, source, "dir", draw(st.sampled_from(OUTPUT_FILES[command]))


@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(blocked_outputs())
@example(("R", "FEDSIM_OUT", "file", "."))  # FEDSIM_OUT names a file
@example(("R", "--out", "dir", "rounds.csv"))  # once an IsADirectoryError traceback
@example(("S", "--out", "file", "sweep_N-r/N_r=2"))  # once a FileExistsError traceback
def test_blocked_output_path_ends_in_a_documented_exit_code(blocked):
    command, source, kind, where = blocked
    cfg = {key: value for key, value in DEMO_CONFIGS["three_clients"].items() if key != "output_dir"}
    cfg.update(rounds=2, roc_rounds=[1])
    argv = ["run"] if command == "R" else ["sweep", "--variable", "N_r", "--values", "1,2"]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        blocker = out / where
        if kind == "file":
            blocker.parent.mkdir(parents=True, exist_ok=True)
            blocker.write_text("")
        else:
            blocker.mkdir(parents=True)
        config = Path(tmp) / "cfg.json"
        config.write_text(json.dumps(cfg))
        argv += ["--config", str(config)] + (["--out", str(out)] if source == "--out" else [])
        err = io.StringIO()
        with mock.patch.dict(os.environ, {"FEDSIM_OUT": str(out)}), redirect_stderr(err):
            code = main(argv)
    lines = err.getvalue().splitlines()
    assert (code, len(lines)) in ((0, 0), (3, 1))
    assert all(line.startswith("validation error: ") for line in lines)
