"""Property tests over random valid event scripts and every policy combination."""

import math
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim.orchestrator as orch
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
    with aggregated_updates() as seen:
        try:
            rounds = run(plan).rounds
        except PolicyStarvationError as exc:
            rounds = exc.completed
    return rounds, seen[: len(rounds)]


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
        rounds, updates = _rounds_and_updates(replace(plan, policy=policy))
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
