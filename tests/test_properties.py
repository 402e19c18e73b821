"""Property tests over random valid event scripts and every policy
combination, over single-leaf mutations of the demo configs, and over the
rows that partition, subset and a holdout split take from a dataset and
the sample-id rule they share."""

import io
import json
import math
import os
import re
import tempfile
import warnings
from contextlib import contextmanager, redirect_stderr
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedsim.orchestrator as orch
from fedsim.cli import main
from fedsim.config import _holdout_split
from fedsim.metrics import evaluate, loss_accuracy
from fedsim.models import Dataset, ModelSpec, ParameterSet, TrainConfig, _distinct
from fedsim.orchestrator import (
    ClientSetup,
    DivergenceError,
    IntermittencyEvent,
    NoiseConfig,
    PolicyConfig,
    PolicyStarvationError,
    RunAborted,
    SimPlan,
    run,
    simulated_time,
    validate_plan,
)
from fedsim.partition import (
    LABEL_SKEW,
    PARTITION_MODES,
    RANDOM_UNIFORM,
    PartitionPlan,
    make_synthetic,
    partition,
)
from fedsim.report import (
    write_events_log,
    write_partial_outputs,
    write_rounds_csv,
    write_run_outputs,
)

from _oracles import ReferenceAborted, delay_phase_reference, run_reference
from test_orchestrator import _joiner_shard, _overflowing_plan, _plan

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


# The action a delay window's two ends resolve to, per (delay policy, delay_resume_same_round);
# the rounds between them have no entry.
PHASE_ACTIONS = {
    ("use-stale-accept-any", True): {"start": "hold", "resume": "accept"},
    ("use-stale-accept-any", False): {"start": "hold", "resume": "accept"},
    ("exclude-until-current", True): {"start": "withhold", "resume": "retrain"},
    ("exclude-until-current", False): {"start": "withhold", "resume": "discard"},
}


@TINY
@given(plans())
def test_timeline_phases_match_a_reference_scan(plan):
    ids = {c.client_id for c in plan.clients} | {ev.client_id for ev in plan.events}
    leaves = any(ev.kind == "leave" for ev in plan.events)
    for policy in POLICIES:
        timeline = validate_plan(replace(plan, policy=policy))
        actions = PHASE_ACTIONS[policy.delay, policy.delay_resume_same_round]
        expected = {
            (cid, r): actions[phase]
            for cid in ids
            for r in range(1, plan.n_rounds + 1)
            if (phase := delay_phase_reference(plan.events, cid, r)) in actions
        }
        assert timeline.phases == expected
        assert len(timeline.phases) == 2 * sum(ev.kind == "delay" for ev in plan.events)
        assert timeline.departure == (policy.departure if leaves else None)
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


MODELS = [
    ModelSpec("logistic-regression", input_dim=2),
    ModelSpec("mlp-1hidden", input_dim=2, hidden_dim=3),
    ModelSpec("mlp-1hidden", input_dim=2, hidden_dim=2, activation="sigmoid"),
]
ABORTS = {"starvation": PolicyStarvationError, "divergence": DivergenceError, "noise": RunAborted}


def _written(rounds, audit):
    """``rounds.csv`` and ``events.log`` bytes as the report writers render them."""
    with tempfile.TemporaryDirectory() as tmp:
        write_rounds_csv(rounds, Path(tmp) / "rounds.csv")
        write_events_log(audit, Path(tmp) / "events.log")
        return (Path(tmp) / "rounds.csv").read_bytes(), (Path(tmp) / "events.log").read_bytes()


def _rendered(rounds_csv, audit):
    """The reference's ``rounds.csv`` text and audit lines as file bytes."""
    return rounds_csv.encode(), "".join(line + "\n" for line in audit).encode()


@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(plans(), st.sampled_from(MODELS))
def test_run_matches_the_whole_run_reference_under_every_policy(plan, model):
    plan = replace(plan, model=model)

    def metrics(values, dataset):
        m = evaluate(model, ParameterSet(values, model.layer_shapes), dataset)
        return m.loss, m.accuracy, m.auc

    def client(values, dataset):
        return loss_accuracy(model, ParameterSet(values, model.layer_shapes), dataset)

    for policy in POLICIES:
        variant = replace(plan, policy=policy)
        try:
            rounds_csv, audit, final = run_reference(variant, metrics, client)
        except ReferenceAborted as ref:
            with pytest.raises(RunAborted) as got:
                run(variant)
            assert type(got.value) is ABORTS[ref.reason]
            assert got.value.round_index == ref.round_index
            assert _written(got.value.completed, got.value.audit_log) == _rendered(
                ref.rounds_csv, ref.audit)
            continue
        report = run(variant)
        assert _written(report.rounds, report.audit_log) == _rendered(rounds_csv, audit)
        assert report.final_params.values.tobytes() == final.tobytes()


def _stopped_plan(case):
    """A plan whose run stops, built on the overflowing plans of the round-loop tests."""
    delay, stale = IntermittencyEvent.delay, PolicyConfig(delay="use-stale-accept-any")
    divergent, server_noise = _overflowing_plan("divergence"), _overflowing_plan("noise")
    if case == "starvation":  # the one client is away from round 2, back only at round 4
        return _plan(times=(1.0,), n_rounds=4, events=(delay(2, 0, 3),),
                     policy=PolicyConfig(delay_resume_same_round=False))
    if case == "server-noise":
        joiner = IntermittencyEvent.join(6, 5, _joiner_shard(5), 1.0)
        return replace(server_noise, events=(joiner, delay(6, 1, 7)))
    if case == "divergence-at-hold":
        return replace(divergent, events=(*divergent.events, delay(4, 0, 5), delay(4, 9, 5)),
                       policy=stale)
    if case == "divergence-at-retrain":
        join = replace(divergent.events[0], round_index=2)
        return replace(divergent, events=(join, delay(3, 9, 4), delay(4, 1, 5)))
    if case == "divergence-after-a-lower-id-delay":
        return replace(divergent, events=(*divergent.events, delay(4, 0, 5)))
    # Client noise of 8.9e307 on two clients overflows in client 0's training in round 6.
    return replace(server_noise, clients=server_noise.clients[:2], policy=stale,
                   noise=NoiseConfig(8.9e307, "client"), events=(delay(6, 0, 7),))


@pytest.mark.parametrize("case, error, stopped_round", [
    ("starvation", PolicyStarvationError, [
        "round 2 delay client=0 update held back", "round 2 abort reason=starvation"]),
    ("server-noise", RunAborted, [
        "round 6 join client=5 n_train=12", "round 6 delay client=1 update held back",
        "round 6 abort reason=noise placement=server"]),
    ("divergence-at-hold", DivergenceError, [
        "round 4 delay client=0 update held back", "round 4 abort reason=divergence client=9"]),
    ("divergence-at-retrain", DivergenceError, [
        "round 4 delay client=1 update held back", "round 4 late-delivery client=9 discarded",
        "round 4 abort reason=divergence client=9"]),
    ("divergence-after-a-lower-id-delay", DivergenceError, [
        "round 4 delay client=0 update held back", "round 4 abort reason=divergence client=9"]),
    ("client-noise-at-hold", RunAborted, ["round 6 abort reason=noise placement=client"]),
])
def test_a_stopped_run_matches_the_whole_run_reference(case, error, stopped_round):
    # The audit trail of a stopped round holds its joins, the delay lines logged before the stop
    # and the abort line; a client that stops the run in a hold's training logs no hold line.
    plan = _stopped_plan(case)
    model = plan.model

    def metrics(values, dataset):
        m = evaluate(model, ParameterSet(values, model.layer_shapes), dataset)
        return m.loss, m.accuracy, m.auc

    def client(values, dataset):
        return loss_accuracy(model, ParameterSet(values, model.layer_shapes), dataset)

    with pytest.raises(ReferenceAborted) as ref, np.errstate(over="ignore", invalid="ignore"):
        run_reference(plan, metrics, client)
    with pytest.raises(RunAborted) as got:
        run(plan)
    exc = got.value
    assert type(exc) is error is ABORTS[ref.value.reason]
    assert exc.round_index == ref.value.round_index
    r = exc.round_index
    assert [line for line in exc.audit_log if line.startswith(f"round {r} ")] == stopped_round
    assert _written(exc.completed, exc.audit_log) == _rendered(ref.value.rounds_csv, ref.value.audit)


def _trajectory(plan):
    """Rounds, audit log and final parameters as bytes, or the abort and what it completed."""
    try:
        report = run(plan)
    except RunAborted as exc:
        return type(exc), exc.round_index, _written(exc.completed, exc.audit_log)
    return _written(report.rounds, report.audit_log), report.final_params.values.tobytes()


@TINY
@given(plans())
def test_policies_that_agree_on_the_fields_their_events_read_share_one_trajectory(plan):
    # A sweep runs one of each group of policies whose Timelines agree on phases and departure;
    # this fails if two policies that compile alike follow different trajectories.
    groups = {}
    for policy in POLICIES:
        variant = replace(plan, policy=policy)
        timeline = validate_plan(variant)
        key = tuple(timeline.phases.items()), timeline.departure
        groups.setdefault(key, []).append(_trajectory(variant))
    kinds = {ev.kind for ev in plan.events}
    assert len(groups) == (2 if "leave" in kinds else 1) * (3 if "delay" in kinds else 1)
    for trajectories in groups.values():
        assert all(t == trajectories[0] for t in trajectories)


INT_TYPES = (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64)
FLOAT_TYPES = (np.float16, np.float32, np.float64)


def _with_numbers(plan, num):
    """``plan``, its ROC rounds and a centralized epoch time, with ``num`` applied to every
    number: seed, rounds, ids, epoch times, train fields and noise amplitude."""
    def opt(x):
        return None if x is None else num(x)

    train = plan.train
    clients = [ClientSetup(num(c.client_id), c.shard, num(c.epoch_time_s)) for c in plan.clients]
    events = [IntermittencyEvent(num(ev.round_index), ev.kind, num(ev.client_id), ev.shard,
                                 opt(ev.epoch_time_s), opt(ev.resume_round)) for ev in plan.events]
    noise = plan.noise and NoiseConfig(num(plan.noise.amplitude), plan.noise.placement)
    numbered = replace(
        plan, seed=num(plan.seed), n_rounds=num(plan.n_rounds), clients=clients, events=events,
        train=TrainConfig(num(train.epochs), num(train.batch_size), num(train.learning_rate),
                          num(train.seed)), noise=noise)
    return numbered, (num(1), num(plan.n_rounds)), num(138.6)


def _outputs(plan, roc_rounds, centralized_epoch_time_s):
    """The files ``run`` and ``write_run_outputs`` write, or what an abort writes, as bytes."""
    with tempfile.TemporaryDirectory() as out:
        try:
            # The echo is JSON data, so it holds the centralized time as a Python float.
            echo = {"report_formats": ["csv", "json"],
                    "centralized_epoch_time_s": float(centralized_epoch_time_s)}
            paths = write_run_outputs(run(plan), out, roc_rounds=roc_rounds, config_echo=echo)
        except RunAborted as exc:
            paths = write_partial_outputs(exc.completed, exc.audit_log, out)
        return {Path(p).name: Path(p).read_bytes() for p in paths}


@TINY
@given(plans(), st.data())
def test_numpy_scalars_in_a_plan_write_the_bytes_python_numbers_do(plan, data):
    # A numpy seed once reached summary.json unconverted, where json.dumps refused it, and an
    # int8 one overflowed in run's batch seeding.
    scalars = []

    def numpy(x):  # x as a numpy scalar of a drawn dtype that holds it
        types = FLOAT_TYPES if isinstance(x, float) else [t for t in INT_TYPES if np.iinfo(t).max >= x]
        scalars.append(data.draw(st.sampled_from(types))(x))
        return scalars[-1]

    numpy_typed = _with_numbers(plan, numpy)
    python = iter([x.item() for x in scalars])  # the same numbers, in the order num met them
    assert _outputs(*numpy_typed) == _outputs(*_with_numbers(plan, lambda _: next(python)))


DELETE = object()  # an edit that deletes the key instead of setting it


@st.composite
def mutations(draw):
    """A demo config and 1-3 edits of it, each a leaf set to a fuzz value or a key deleted."""
    stem = draw(st.sampled_from(sorted(DEMO_CONFIGS)))
    paths, edits = list(_leaf_paths(DEMO_CONFIGS[stem])), []
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(paths))
        if draw(st.booleans()):  # the leaf or one of its ancestors
            edits.append((path[: draw(st.integers(1, len(path)))], DELETE))
        else:
            edits.append((path, draw(st.sampled_from(FUZZ_VALUES))))
    return stem, edits


def _partition(mode, **lists):
    return {"mode": mode, "seed": 33, **lists}


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(mutations())
# configs that once ended in a traceback or were silently accepted
@example(("three_clients", [(("model", "hidden_dim"), 4)]))
@example(("three_clients", [(("model", "kind"), "mlp-1hidden")]))
@example(("leave_join", [(("events", 1, "data", "train_fraction"), 1.5)]))
@example(("leave_join", [(("events", 1, "data", "seed"), -1)]))
@example(("three_clients", [(("data", "partition"), _partition("explicit-counts", counts=[None, 9, 9]))]))
@example(("three_clients", [(("data", "partition"), _partition("explicit-counts", counts=[10.7, 9, 9]))]))
@example(("three_clients", [(("data", "partition"), _partition("explicit-counts", counts=[True, 9, 9]))]))
@example(("three_clients", [(("data", "partition"),
                             _partition("label-skew", positive_fractions=[None, 0.5, 0.5]))]))
@example(("three_clients", [(("data", "source", "class_means", 0, 1), {})]))
@example(("three_clients", [(("train", "learning_rate"), math.inf)]))
@example(("three_clients", [(("noise",), {"amplitude": math.inf})]))
@example(("three_clients", [(("noise",), {"amplitude": 1.7e308})]))
@example(("three_clients", [(("clients", 0, "epoch_time_s"), math.inf)]))
# clocks that do not fit in a float
@example(("three_clients", [(("clients", 0, "epoch_time_s"), 1e308)]))
@example(("three_clients", [(("clients", 0, "epoch_time_s"), 1e308), (("train", "epochs"), 2),
                            (("rounds",), 1), (("roc_rounds",), DELETE)]))
@example(("three_clients", [(("centralized_epoch_time_s",), 1e308)]))
@example(("three_clients", [(("centralized_epoch_time_s",), 5e-324)]))
def test_mutated_demo_config_ends_in_a_documented_exit_code(mutation):
    stem, edits = mutation
    cfg = _mutated(DEMO_CONFIGS[stem], edits)
    for command, codes in (("validate", (0, 2, 3)), ("run", (0, 2, 3, 4, 5))):
        err = io.StringIO()
        with warnings.catch_warnings(), redirect_stderr(err):
            warnings.simplefilter("error")  # a warning would escape main as an exception
            code = _main_on(cfg, [command])
        assert code in codes
        assert len(err.getvalue().splitlines()) == (code != 0)
        assert "Traceback" not in err.getvalue()


def _mutated(node, edits):
    """A copy of ``node`` with each (path, value) edit applied in turn: the leaf at ``path``
    set to ``value``, or the key deleted for ``DELETE``.  An edit whose path an earlier one
    took away is skipped."""
    node = json.loads(json.dumps(node))
    for path, value in edits:
        parent = node
        try:
            for key in path[:-1]:
                parent = parent[key]
            if value is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            continue
    return node


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def _main_on(cfg, argv):
    """``fedsim <argv>`` on ``cfg`` written to a temporary file, writing
    into a temporary directory; returns the exit code.  Every summary.json
    written must parse as strict JSON: no NaN, Infinity or -Infinity."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "cfg.json"
        config.write_text(json.dumps(cfg))
        code = main(argv + ["--config", str(config), "--out", str(Path(tmp) / "out")])
        for summary in Path(tmp).rglob("summary.json"):
            json.loads(summary.read_text(), parse_constant=_refuse_constant)
        return code


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
        table[value] = {path[0]: _mutated(cfg, [(path, leaf)])[path[0]]}
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


@st.composite
def dealt_rows(draw):
    """A synthetic master and a feasible partition plan over it in any mode, distinct
    subset positions (some written as negative ones), and a holdout fraction and seed."""
    n0, n1 = draw(st.integers(3, 20)), draw(st.integers(3, 20))
    master = make_synthetic([[-1.0, 0.0], [1.0, 0.5]], 1.0, (n0, n1), draw(st.integers(0, 2**32)))
    mode = draw(st.sampled_from(PARTITION_MODES))
    k = draw(st.integers(1, 3))
    counts = fractions = None
    if mode != RANDOM_UNIFORM:  # k counts of at most min(n0, n1) // k fit either label
        counts = tuple(draw(st.lists(st.integers(1, min(n0, n1) // k), min_size=k, max_size=k)))
    if mode == LABEL_SKEW or (mode != RANDOM_UNIFORM and draw(st.booleans())):
        fractions = tuple(draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))
    plan = PartitionPlan(mode, k, counts, fractions, draw(st.floats(0.05, 1.0)), draw(st.integers(0, 99)))
    positions = draw(st.permutations(range(master.n)))[: draw(st.integers(0, master.n))]
    positions = [p - master.n if draw(st.booleans()) else p for p in positions]
    return master, plan, positions, draw(st.floats(0.01, 0.5)), draw(st.integers(0, 99))


def _assert_rebuilds_read_only(ds):
    """``ds`` passes every check of the public constructor, which rebuilds the same bytes,
    and its arrays are read-only."""
    again = Dataset(ds.features, ds.labels, ds.ids)
    for name in ("features", "labels", "ids"):
        got, want = getattr(ds, name), getattr(again, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(dealt_rows())
def test_rows_taken_from_a_dataset_keep_its_checks(case):
    master, plan, positions, fraction, seed = case
    splits = [(s.train, s.test) for s in partition(master, plan)]
    splits.append(_holdout_split(master, fraction, seed))
    for train, test in splits:
        _assert_rebuilds_read_only(train)
        _assert_rebuilds_read_only(test)
        assert not set(train.ids.tolist()) & set(test.ids.tolist())
    _assert_rebuilds_read_only(master.subset(np.array(positions, dtype=np.int64)))


_INT64 = np.iinfo(np.int64)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(st.lists(st.one_of(st.integers(-3, 3),  # small values repeat often
                          st.sampled_from([int(_INT64.min), int(_INT64.max)]),
                          st.integers(int(_INT64.min), int(_INT64.max))), max_size=300))
def test_distinct_ids_agree_with_numpys_unique(values):
    ids = np.array(values, dtype=np.int64)
    assert _distinct(ids) == (np.unique(ids).size == ids.size)
