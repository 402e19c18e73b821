"""Round loop semantics: clock, membership events, policies, determinism."""

import json
import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

import fedsim.orchestrator
from fedsim.aggregation import Update, add_uniform_noise
from fedsim.config import build_plan, validate_config
from fedsim.metrics import MetricSet
from fedsim.models import Dataset, ModelSpec, ParameterSet, TrainConfig, init_params, train_local
from fedsim.orchestrator import (
    ClientSetup,
    DivergenceError,
    IntermittencyEvent,
    NoiseConfig,
    Participation,
    PlanValidationError,
    PolicyConfig,
    PolicyStarvationError,
    RunAborted,
    SimPlan,
    init_seed,
    run,
    simulated_time,
    static_sim_time,
    train_seed,
    validate_plan,
)
from fedsim.partition import PartitionPlan, make_synthetic, partition, relabel_shard
from fedsim.report import write_run_outputs
from fedsim.seeding import derive_seed, rng_from

SPEC = ModelSpec("logistic-regression", input_dim=2)
POLICIES = [PolicyConfig(departure, delay)
            for departure in ("drop-history", "retain-last")
            for delay in ("use-stale-accept-any", "exclude-until-current")]
POLICIES.append(PolicyConfig(delay="exclude-until-current", delay_resume_same_round=False))
GLOBAL_TEST = make_synthetic([[-2, -2], [2, 2]], 1.0, (40, 40), seed=990)


def _shards(k, n=120, seed=17):
    master = make_synthetic([[-2, -2], [2, 2]], 1.0, (n // 2, n - n // 2), seed=seed)
    return partition(master, PartitionPlan("random-uniform", k, seed=seed))


def _plan(times=(23.1, 40.1, 24.0), n_rounds=10, epochs=1, seed=5,
          global_test=GLOBAL_TEST, **kw):
    shards = _shards(len(times))
    clients = tuple(
        ClientSetup(s.client_id, s, t) for s, t in zip(shards, times)
    )
    return SimPlan(
        model=SPEC,
        train=TrainConfig(epochs=epochs, batch_size=16, learning_rate=0.3),
        n_rounds=n_rounds,
        clients=clients,
        global_test=global_test,
        seed=seed,
        **kw,
    )


def _joiner_shard(client_id, n=16, seed=303):
    tiny = make_synthetic([[-2, -2], [2, 2]], 1.0, (n // 2, n - n // 2), seed=seed)
    (shard,) = partition(tiny, PartitionPlan("random-uniform", 1, seed=seed))
    return relabel_shard(shard, client_id)


def _participant_ids(rec):
    return [p.client_id for p in rec.participants]


def test_static_sim_time_fixtures():
    assert static_sim_time(10, 1, (23.1, 40.1, 24.0)) == 401.0
    assert static_sim_time(1, 10, (23.1, 40.1, 24.0)) == 401.0
    assert static_sim_time(10, 1, (10.1, 9.7, 6.0, 7.9, 9.0, 9.0, 8.0, 11.0, 9.8, 10.1)) == 110.0


def test_simulated_time_per_round():
    assert simulated_time(1, [(5.0, 50.0), (5.0,), (), (50.0,)]) == 105.0
    assert simulated_time(2, [(3.0,), (4.0,)]) == 14.0
    # constant fresh set reduces to the static formula
    assert simulated_time(1, [(23.1, 40.1, 24.0)] * 10) == static_sim_time(10, 1, (23.1, 40.1, 24.0))


def test_run_three_client_timing_exact():
    report = run(_plan())
    assert report.total_sim_time_s == 401.0
    assert all(rec.sim_time_s == 40.1 for rec in report.rounds)


def test_run_ten_client_timing_exact():
    times = (10.1, 9.7, 6.0, 7.9, 9.0, 9.0, 8.0, 11.0, 9.8, 10.1)
    report = run(_plan(times=times))
    assert report.total_sim_time_s == 110.0


def test_one_round_many_epochs_same_clock():
    report = run(_plan(n_rounds=1, epochs=10))
    assert report.total_sim_time_s == 401.0


def test_round_records_structure():
    report = run(_plan(n_rounds=4))
    assert [rec.round_index for rec in report.rounds] == [1, 2, 3, 4]
    for rec in report.rounds:
        assert _participant_ids(rec) == [0, 1, 2]
        assert all(p.fresh and p.age == 0 for p in rec.participants)
        assert abs(sum(w for _, w in rec.aggregate.weights_used) - 1.0) <= 1e-12
        assert [c.client_id for c in rec.client_metrics] == [0, 1, 2]
        assert rec.global_metrics.n == GLOBAL_TEST.n
    assert report.summary is not None
    assert report.summary.rounds_completed == 4


def test_run_is_deterministic():
    a = run(_plan(n_rounds=3))
    b = run(_plan(n_rounds=3))
    assert np.array_equal(a.final_params.values, b.final_params.values)
    assert a.audit_log == b.audit_log
    c = run(_plan(n_rounds=3, seed=6))
    assert not np.array_equal(a.final_params.values, c.final_params.values)


def test_no_event_policy_neutrality():
    reports = []
    for dep in ("drop-history", "retain-last"):
        for delay in ("use-stale-accept-any", "exclude-until-current"):
            plan = _plan(n_rounds=3, policy=PolicyConfig(departure=dep, delay=delay))
            reports.append(run(plan))
    base = reports[0]
    for other in reports[1:]:
        for ra, rb in zip(base.rounds, other.rounds):
            assert np.array_equal(ra.global_params.values, rb.global_params.values)


def test_single_client_equals_centralized_composition():
    shards = _shards(1, n=100)
    plan = SimPlan(
        model=SPEC,
        train=TrainConfig(epochs=2, batch_size=16, learning_rate=0.3),
        n_rounds=3,
        clients=(ClientSetup(0, shards[0], 1.0),),
        global_test=GLOBAL_TEST,
        seed=44,
    )
    report = run(plan)
    params = init_params(SPEC, init_seed(44))
    for r in range(1, 4):
        cfg = TrainConfig(epochs=2, batch_size=16, learning_rate=0.3, seed=train_seed(44, 0, r))
        params, _ = train_local(SPEC, params, shards[0].train, cfg)
    assert np.array_equal(report.final_params.values, params.values)


def test_leave_drop_history_removes_client():
    plan = _plan(events=(IntermittencyEvent.leave(5, 1),))
    report = run(plan)
    assert _participant_ids(report.rounds[4]) == [0, 1, 2]  # still trains in round 5
    for rec in report.rounds[5:]:
        assert _participant_ids(rec) == [0, 2]
        assert [c.client_id for c in rec.client_metrics] == [0, 2]
    # departed client's test shard drops out at the departure round
    assert [c.client_id for c in report.rounds[4].client_metrics] == [0, 2]


def test_leave_retain_last_keeps_stale_update():
    plan = _plan(
        events=(IntermittencyEvent.leave(5, 1),),
        policy=PolicyConfig(departure="retain-last"),
    )
    report = run(plan)
    n1 = plan.clients[1].shard.n_train
    for rec in report.rounds[5:]:
        assert _participant_ids(rec) == [0, 1, 2]
        by_id = {p.client_id: p for p in rec.participants}
        assert not by_id[1].fresh
        assert by_id[1].age == rec.round_index - 5
        weights = dict(rec.aggregate.weights_used)
        total = rec.aggregate.total_n
        assert weights[1] == n1 / total  # original n stays in the denominator
        # no per-client metrics for the departed client
        assert 1 not in [c.client_id for c in rec.client_metrics]


def test_leave_of_slowest_client_shortens_rounds():
    plan = _plan(events=(IntermittencyEvent.leave(5, 1),))  # client 1 has t=40.1
    report = run(plan)
    assert [rec.sim_time_s for rec in report.rounds] == [40.1] * 5 + [24.0] * 5
    assert report.total_sim_time_s == math.fsum([40.1] * 5 + [24.0] * 5)
    assert report.total_sim_time_s < 401.0


def test_retained_update_never_holds_the_clock():
    plan = _plan(
        events=(IntermittencyEvent.leave(5, 1),),
        policy=PolicyConfig(departure="retain-last"),
    )
    report = run(plan)
    assert [rec.sim_time_s for rec in report.rounds] == [40.1] * 5 + [24.0] * 5


def test_join_mid_run():
    joiner = _joiner_shard(9, n=16)
    plan = _plan(events=(IntermittencyEvent.join(5, 9, joiner, 3.0),))
    report = run(plan)
    for rec in report.rounds[:4]:
        assert _participant_ids(rec) == [0, 1, 2]
    for rec in report.rounds[4:]:
        assert _participant_ids(rec) == [0, 1, 2, 9]
        by_id = {p.client_id: p for p in rec.participants}
        assert by_id[9].fresh
        weights = dict(rec.aggregate.weights_used)
        assert weights[9] == joiner.n_train / rec.aggregate.total_n
    # a faster joiner never slows the round
    assert report.total_sim_time_s == 401.0


def test_join_at_last_round_participates_once():
    joiner = _joiner_shard(9)
    plan = _plan(events=(IntermittencyEvent.join(10, 9, joiner, 3.0),))
    report = run(plan)
    seen = [rec.round_index for rec in report.rounds if 9 in _participant_ids(rec)]
    assert seen == [10]


def test_join_into_empty_active_set():
    shards = _shards(1, n=60)
    joiner = _joiner_shard(5, n=20)
    plan = SimPlan(
        model=SPEC,
        train=TrainConfig(epochs=1, batch_size=8, learning_rate=0.3),
        n_rounds=4,
        clients=(ClientSetup(0, shards[0], 2.0),),
        global_test=GLOBAL_TEST,
        seed=3,
        events=(IntermittencyEvent.leave(2, 0), IntermittencyEvent.join(3, 5, joiner, 1.0)),
    )
    report = run(plan)
    assert _participant_ids(report.rounds[2]) == [5]
    assert report.rounds[2].aggregate.weights_used == ((5, 1.0),)


def test_delay_use_stale_serves_old_update_then_accepts_late():
    plan = _plan(
        events=(IntermittencyEvent.delay(5, 1, 10),),
        policy=PolicyConfig(delay="use-stale-accept-any"),
    )
    report = run(plan)
    for rec in report.rounds[4:9]:  # rounds 5..9: round-4 update re-served
        by_id = {p.client_id: p for p in rec.participants}
        assert not by_id[1].fresh
        assert by_id[1].age == rec.round_index - 4
    last = report.rounds[9]
    by_id = {p.client_id: p for p in last.participants}
    assert not by_id[1].fresh
    assert by_id[1].age == 5  # trained from the round-5 broadcast, lands at 10
    assert any("late-delivery client=1 accepted" in line for line in report.audit_log)
    # staleness never exceeds the delay span
    max_age = max(p.age for rec in report.rounds for p in rec.participants)
    assert max_age <= 5


def test_delay_exclude_until_current_discards_late_and_retrains():
    plan = _plan(events=(IntermittencyEvent.delay(5, 1, 10),))
    report = run(plan)
    for rec in report.rounds[4:9]:
        assert _participant_ids(rec) == [0, 2]
    last = report.rounds[9]
    by_id = {p.client_id: p for p in last.participants}
    assert by_id[1].fresh  # fresh retrain inside the resume round
    assert any("late-delivery client=1 discarded" in line for line in report.audit_log)


def test_delay_resume_next_round_variant():
    plan = _plan(
        n_rounds=12,
        events=(IntermittencyEvent.delay(5, 1, 10),),
        policy=PolicyConfig(delay="exclude-until-current", delay_resume_same_round=False),
    )
    report = run(plan)
    for rec in report.rounds[4:10]:  # rounds 5..10 all exclude the client
        assert _participant_ids(rec) == [0, 2]
    assert 1 in _participant_ids(report.rounds[10])
    by_id = {p.client_id: p for p in report.rounds[10].participants}
    assert by_id[1].fresh


def test_delay_policies_share_prefix_then_diverge():
    ev = (IntermittencyEvent.delay(5, 1, 10),)
    rep_a = run(_plan(events=ev, policy=PolicyConfig(delay="use-stale-accept-any")))
    rep_b = run(_plan(events=ev, policy=PolicyConfig(delay="exclude-until-current")))
    for ra, rb in zip(rep_a.rounds[:4], rep_b.rounds[:4]):
        assert np.array_equal(ra.global_params.values, rb.global_params.values)
    diffs = [
        abs(ra.global_metrics.loss - rb.global_metrics.loss)
        for ra, rb in zip(rep_a.rounds, rep_b.rounds)
    ]
    assert max(diffs) > 1e-9


def test_delayed_rounds_do_not_charge_the_clock_for_stale_clients():
    plan = _plan(
        times=(5.0, 50.0, 6.0),
        events=(IntermittencyEvent.delay(2, 1, 4),),
        n_rounds=5,
        policy=PolicyConfig(delay="use-stale-accept-any"),
    )
    report = run(plan)
    assert [rec.sim_time_s for rec in report.rounds] == [50.0, 6.0, 6.0, 6.0, 50.0]
    assert report.total_sim_time_s == math.fsum([50.0, 6.0, 6.0, 6.0, 50.0])


def test_starvation_single_client_delay():
    shards = _shards(1, n=60)
    base = dict(
        model=SPEC,
        train=TrainConfig(epochs=1, batch_size=8, learning_rate=0.3),
        n_rounds=4,
        clients=(ClientSetup(0, shards[0], 2.0),),
        global_test=GLOBAL_TEST,
        seed=3,
        events=(IntermittencyEvent.delay(2, 0, 4),),
    )
    with pytest.raises(PolicyStarvationError) as exc:
        run(SimPlan(policy=PolicyConfig(delay="exclude-until-current"), **base))
    assert exc.value.round_index == 2
    assert len(exc.value.completed) == 1
    assert exc.value.completed[0].round_index == 1
    assert exc.value.audit_log

    # the stale-serving policy keeps the round alive instead
    report = run(SimPlan(policy=PolicyConfig(delay="use-stale-accept-any"), **base))
    assert len(report.rounds) == 4


def test_starvation_when_delay_starts_with_no_history():
    shards = _shards(1, n=60)
    plan = SimPlan(
        model=SPEC,
        train=TrainConfig(epochs=1, batch_size=8, learning_rate=0.3),
        n_rounds=3,
        clients=(ClientSetup(0, shards[0], 2.0),),
        global_test=GLOBAL_TEST,
        seed=3,
        events=(IntermittencyEvent.delay(1, 0, 3),),
        policy=PolicyConfig(delay="use-stale-accept-any"),
    )
    with pytest.raises(PolicyStarvationError) as exc:
        run(plan)
    assert exc.value.round_index == 1
    assert exc.value.completed == []


def test_event_dataclass_validation():
    shard = _joiner_shard(9)
    with pytest.raises(ValueError):
        IntermittencyEvent.delay(5, 1, 5)  # resume must be later
    with pytest.raises(ValueError):
        IntermittencyEvent(5, "join", 9)  # join needs shard and time
    with pytest.raises(ValueError):
        IntermittencyEvent(5, "leave", 1, shard=shard)
    with pytest.raises(ValueError):
        IntermittencyEvent(0, "leave", 1)
    with pytest.raises(ValueError):
        IntermittencyEvent(2, "vanish", 1)


def _data_bytes(ds):
    return ds.features.tobytes() + ds.labels.tobytes() + ds.ids.tobytes()


def test_integer_fields_take_integers_only():
    # A leave at round 2.5 once passed validate_plan and then never fired, and
    # PartitionPlan("random-uniform", 2.7, seed=3.9) was a 2-client plan with seed 3.
    shard, params, means = _joiner_shard(9), init_params(SPEC, 0), [[0, 0], [1, 1]]
    fields = [  # (field, a legal value, build with the field at v, read the field back)
        ("input_dim", 2, lambda v: ModelSpec("logistic-regression", v), attrgetter("input_dim")),
        ("hidden_dim", 4, lambda v: ModelSpec("mlp-1hidden", 2, v), attrgetter("hidden_dim")),
        ("epochs", 2, lambda v: TrainConfig(v, 8, 0.1), attrgetter("epochs")),
        ("batch_size", 8, lambda v: TrainConfig(1, v, 0.1), attrgetter("batch_size")),
        ("seed", 3, lambda v: TrainConfig(1, 8, 0.1, seed=v), attrgetter("seed")),
        ("client_count", 2, lambda v: PartitionPlan("random-uniform", v),
         attrgetter("client_count")),
        ("counts[1]", 5, lambda v: PartitionPlan("explicit-counts", 2, counts=(4, v)),
         lambda plan: plan.counts[1]),
        ("seed", 3, lambda v: PartitionPlan("random-uniform", 2, seed=v), attrgetter("seed")),
        ("client_id", 9, lambda v: ClientSetup(v, shard, 1.0), attrgetter("client_id")),
        ("client_id", 9, lambda v: relabel_shard(shard, v), attrgetter("client_id")),
        ("round_index", 2, lambda v: IntermittencyEvent.leave(v, 1), attrgetter("round_index")),
        ("client_id", 9, lambda v: IntermittencyEvent.join(2, v, shard, 1.0),
         attrgetter("client_id")),
        ("resume_round", 4, lambda v: IntermittencyEvent.delay(2, 1, v),
         attrgetter("resume_round")),
        ("client_id", 1, lambda v: Update(v, params, 5, 0), attrgetter("client_id")),
        ("n", 5, lambda v: Update(1, params, v, 0), attrgetter("n")),
        ("produced_round", 3, lambda v: Update(1, params, 5, v), attrgetter("produced_round")),
        ("n", 5, lambda v: MetricSet(0.5, 0.5, 0.5, v), attrgetter("n")),
        ("dim", 3, lambda v: ParameterSet(np.zeros(3), (("w", (v,)),)),
         lambda ps: ps.shapes[0][1][0]),
        ("n_per_class[0]", 6, lambda v: make_synthetic(means, 1.0, (v, 6), seed=2), _data_bytes),
        ("seed", 2, lambda v: make_synthetic(means, 1.0, (6, 6), seed=v), _data_bytes),
    ]
    for field, k, make, read in fields:
        for bad in (2.5, True, "9"):
            with pytest.raises(TypeError, match=re.escape(f"{field} must be an integer")):
                make(bad)
        got, want = read(make(np.int64(k))), read(make(k))
        assert got == want and type(got) is type(want), field
    assert IntermittencyEvent.delay(np.int64(2), np.int32(1), np.uint8(4)) == (
        IntermittencyEvent.delay(2, 1, 4)
    )


def test_positive_number_fields_must_be_finite():
    shard, params, means = _joiner_shard(9), init_params(SPEC, 0), [[0, 0], [1, 1]]
    not_positive = (math.inf, -math.inf, math.nan, 0, -1, 10**400)
    fields = [  # (field, build with the field at v, values it rejects)
        ("epoch_time_s", lambda v: ClientSetup(9, shard, v), not_positive),
        ("epoch_time_s", lambda v: IntermittencyEvent.join(2, 9, shard, v), not_positive),
        ("noise amplitude", lambda v: NoiseConfig(v), not_positive),
        ("noise amplitude", lambda v: add_uniform_noise(params, v, 1), not_positive),
        ("class_cov_scale", lambda v: make_synthetic(means, v, (6, 6), seed=2), not_positive),
        # zero is a legal learning rate: training is then the identity
        ("learning_rate", lambda v: TrainConfig(1, 8, v), (math.inf, math.nan, -1, 10**400)),
        ("train_fraction", lambda v: PartitionPlan("random-uniform", 2, train_fraction=v),
         not_positive),
        ("positive fractions", lambda v: PartitionPlan("label-skew", 2, positive_fractions=(0.5, v)),
         (math.inf, -math.inf, math.nan, -1, 10**400)),
        ("class_means[0][1]", lambda v: make_synthetic([[0, v], [1, 1]], 1.0, (6, 6), seed=2),
         (math.inf, -math.inf, math.nan, 10**400)),
    ]
    for field, make, rejected in fields:
        for bad in rejected:
            with pytest.raises(ValueError, match=re.escape(field)):
                make(bad)
        # float fields take real numbers only: NoiseConfig("0.5") once stored the
        # string, and TrainConfig(1, 8, True) trained at learning rate 1.0
        for bad in ("0.5", True):
            with pytest.raises(TypeError, match=re.escape(f"{field} must be a real number")):
                make(bad)
        make(np.float32(0.5))
    for bad in ("False", 0, None):  # "False" once resumed in the same round
        with pytest.raises(TypeError, match="delay_resume_same_round must be a bool"):
            PolicyConfig(delay_resume_same_round=bad)
    # float fields hold the float their rule returns, so `fedsim validate` prints a config's 1
    # as 1.0, as run writes it, and run converts nothing
    assert repr(ClientSetup(9, shard, 1).epoch_time_s) == "1.0"
    assert repr(IntermittencyEvent.join(2, 9, shard, 1).epoch_time_s) == "1.0"
    assert repr(NoiseConfig(np.float32(0.5)).amplitude) == "0.5"


def test_validate_plan_rejects_bad_scripts():
    shard9 = _joiner_shard(9)
    cases = [
        (IntermittencyEvent.leave(11, 1),),  # outside the schedule
        (IntermittencyEvent.leave(3, 7),),  # unknown client
        (IntermittencyEvent.join(3, 1, shard9, 1.0),),  # id already taken
        (IntermittencyEvent.leave(3, 1), IntermittencyEvent.leave(4, 1)),  # already gone
        (IntermittencyEvent.delay(3, 1, 6), IntermittencyEvent.delay(4, 1, 7)),  # overlap
        (IntermittencyEvent.delay(3, 1, 6), IntermittencyEvent.leave(6, 1)),  # leave mid-window
        (IntermittencyEvent.leave(3, 1), IntermittencyEvent.delay(3, 1, 5)),  # same round
        (IntermittencyEvent.delay(3, 1, 11),),  # resumes after the last round
    ]
    for events in cases:
        with pytest.raises(PlanValidationError):
            validate_plan(_plan(events=events))


_NO_ROWS = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))


def _wide_shard(client_id):
    wide = make_synthetic([[0, 0, 0], [2, 2, 2]], 1.0, (8, 8), seed=4)
    return relabel_shard(partition(wide, PartitionPlan("random-uniform", 1, seed=4))[0], client_id)


@pytest.mark.parametrize("plan, message", [
    (lambda: _plan(global_test=_NO_ROWS), "global_test must be nonempty"),
    (lambda: replace(_plan(), clients=_plan().clients[:1] * 2), "duplicate initial client ids"),
    (lambda: _plan(events=(IntermittencyEvent.join(4, 8, _wide_shard(8), 1.0),)),
     "round 4: joining client 8 shard width mismatch"),
    (lambda: _plan(events=(IntermittencyEvent.delay(3, 7, 5),)),
     "round 3: delay targets inactive client 7"),
], ids=["empty-global-test", "duplicate-clients", "join-width-mismatch", "delay-unknown-client"])
def test_validate_plan_names_what_is_wrong(plan, message):
    with pytest.raises(PlanValidationError, match=f"^{re.escape(message)}$"):
        validate_plan(plan())


@pytest.mark.parametrize("call, message", [
    (lambda: IntermittencyEvent(3, "leave", 1, resume_round=5), "a leave event takes no resume_round"),
    (lambda: static_sim_time(10, 1, ()), "static_sim_time needs at least one client time"),
], ids=["leave-with-resume", "no-client-times"])
def test_event_and_clock_inputs_are_checked(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_validate_plan_basic_fields():
    with pytest.raises(PlanValidationError):
        validate_plan(_plan(n_rounds=0))
    with pytest.raises(PlanValidationError):
        validate_plan(_plan(epochs=0))
    with pytest.raises(PlanValidationError):
        validate_plan(_plan(aggregator="median"))
    one_class = make_synthetic([[0, 0], [5, 5]], 1.0, (0, 30), seed=1)
    with pytest.raises(PlanValidationError):
        validate_plan(_plan(global_test=one_class))


def test_a_non_integer_plan_seed_is_a_plan_validation_error():
    # n_rounds=2.5 once passed validate_plan, and run then died in range()
    for field, bad in [("seed", v) for v in (3.7, 5.0, "5", None, True)] + [
        ("n_rounds", v) for v in (2.5, 3.0, "3", None, True)
    ]:
        with pytest.raises(PlanValidationError, match=f"{field} must be an integer"):
            validate_plan(_plan(**{field: bad}))
        with pytest.raises(PlanValidationError, match=f"{field} must be an integer"):
            run(_plan(**{field: bad}))
    with pytest.raises(PlanValidationError, match="seed must be >= 0"):
        validate_plan(_plan(seed=-1))
    with pytest.raises(PlanValidationError, match="n_rounds must be >= 1"):
        validate_plan(_plan(n_rounds=0))
    validate_plan(_plan(seed=np.int64(5), n_rounds=np.int64(3)))


def test_sequential_delays_on_one_client_are_legal():
    events = (IntermittencyEvent.delay(2, 1, 4), IntermittencyEvent.delay(5, 1, 7))
    plan = _plan(events=events, policy=PolicyConfig(delay="use-stale-accept-any"))
    report = run(plan)
    assert len(report.rounds) == 10


def test_plain_aggregator_plan():
    report = run(_plan(n_rounds=2, aggregator="plain"))
    for rec in report.rounds:
        assert all(w == pytest.approx(1.0 / 3.0) for _, w in rec.aggregate.weights_used)


def test_noise_placements_differ_and_are_deterministic():
    clean = run(_plan(n_rounds=2))
    client_noise = run(_plan(n_rounds=2, noise=NoiseConfig(0.05, "client")))
    server_noise = run(_plan(n_rounds=2, noise=NoiseConfig(0.05, "server")))
    again = run(_plan(n_rounds=2, noise=NoiseConfig(0.05, "client")))
    assert not np.array_equal(clean.final_params.values, client_noise.final_params.values)
    assert not np.array_equal(clean.final_params.values, server_noise.final_params.values)
    assert not np.array_equal(client_noise.final_params.values, server_noise.final_params.values)
    assert np.array_equal(client_noise.final_params.values, again.final_params.values)
    # server noise perturbs the aggregate after clamping, within the amplitude
    delta = np.abs(server_noise.rounds[0].global_params.values
                   - clean.rounds[0].global_params.values)
    assert np.all(delta <= 0.05 + 1e-12)


def test_participation_label():
    assert Participation(3, True, 0).label() == "fresh"
    assert Participation(3, False, 2).label() == "stale(2)"


def test_departure_and_join_trajectories_differ_between_policies():
    joiner = _joiner_shard(9, n=16)
    events = (IntermittencyEvent.leave(5, 1), IntermittencyEvent.join(5, 9, joiner, 3.0))
    rep_drop = run(_plan(events=events, policy=PolicyConfig(departure="drop-history")))
    rep_keep = run(_plan(events=events, policy=PolicyConfig(departure="retain-last")))
    diffs = [
        abs(ra.global_metrics.loss - rb.global_metrics.loss)
        for ra, rb in zip(rep_drop.rounds, rep_keep.rounds)
    ]
    assert max(diffs) > 1e-9


def test_validate_plan_compiles_the_timeline():
    joiner = _joiner_shard(9)
    events = (
        IntermittencyEvent.leave(4, 0),
        IntermittencyEvent.delay(2, 1, 5),
        IntermittencyEvent.join(4, 9, joiner, 2.0),
        IntermittencyEvent.delay(6, 9, 7),
    )
    windows = {  # a delay window's first round and resume round; run fills the rounds between
        ("use-stale-accept-any", True): ("hold", "accept"),
        ("use-stale-accept-any", False): ("hold", "accept"),
        ("exclude-until-current", True): ("withhold", "retrain"),
        ("exclude-until-current", False): ("withhold", "discard"),
    }
    for policy in POLICIES:
        timeline = validate_plan(_plan(events=events, policy=policy))
        assert timeline.joins == {4: [events[2]]}
        assert timeline.leaves == {4: [events[0]]}
        hold, back = windows[policy.delay, policy.delay_resume_same_round]
        assert timeline.phases == {(1, 2): hold, (1, 5): back, (9, 6): hold, (9, 7): back}
        assert timeline.departure == policy.departure
    assert validate_plan(_plan(events=events[1:])).departure is None  # no client leaves


class _Unreadable:
    def __getattr__(self, name):
        raise AssertionError(f"run read policy.{name}")


@pytest.mark.parametrize("stem", ["leave_join", "delayed_update"])
def test_run_reads_the_policy_only_through_the_timeline(monkeypatch, stem):
    configs = Path(__file__).resolve().parent.parent / "demos" / "configs"
    demo = build_plan(validate_config(json.loads((configs / f"{stem}.json").read_text())), configs).plan
    for policy in POLICIES:
        plan = replace(demo, policy=policy)
        report, timeline = run(plan), validate_plan(plan)
        with monkeypatch.context() as patched:
            patched.setattr(fedsim.orchestrator, "validate_plan", lambda _: timeline)
            blind = run(replace(plan, policy=_Unreadable()))
        assert blind.audit_log == report.audit_log
        assert blind.final_params.values.tobytes() == report.final_params.values.tobytes()


def test_excluded_late_update_is_never_trained(monkeypatch):
    trained = []

    def spy(spec, params, dataset, cfg, **kwargs):
        trained.append(cfg.seed)
        return train_local(spec, params, dataset, cfg, **kwargs)

    monkeypatch.setattr(fedsim.orchestrator, "train_local", spy)
    plan = _plan(events=(IntermittencyEvent.delay(5, 1, 10),))
    report = run(plan)
    assert train_seed(plan.seed, 1, 5) not in trained
    assert len(trained) == 3 * 10 - 5  # client 1 does not train in rounds 5..9
    assert "round 5 delay client=1 update held back" in report.audit_log
    assert "round 10 late-delivery client=1 discarded" in report.audit_log


def _churn_plan(delay):
    """Joins (one id past 2**64), a leave and delays, two epochs and client noise."""
    big = 2**64 + 3
    events = (
        IntermittencyEvent.join(2, 7, _joiner_shard(7), 5.0),
        IntermittencyEvent.delay(2, 1, 4),
        IntermittencyEvent.leave(3, 0),
        IntermittencyEvent.join(4, big, _joiner_shard(big, seed=304), 3.0),
        IntermittencyEvent.delay(5, 7, 7),
        IntermittencyEvent.delay(6, big, 8),
    )
    return _plan(n_rounds=8, epochs=2, events=events, noise=NoiseConfig(0.05, "client"),
                 policy=PolicyConfig(departure="retain-last", delay=delay))


@pytest.mark.parametrize("delay", ["use-stale-accept-any", "exclude-until-current"])
def test_batched_seeds_follow_the_scalar_key_rules(monkeypatch, tmp_path, delay):
    plan = _churn_plan(delay)
    keys = {train_seed(plan.seed, cid, r): (cid, r)
            for cid in (0, 1, 2, 7, 2**64 + 3) for r in range(1, plan.n_rounds + 1)}
    trained, scalar = [], []

    def train_spy(spec, params, dataset, cfg, **kwargs):
        assert cfg.epochs == 2
        if scalar[-1]:  # train_local seeds each epoch itself
            assert kwargs["_rngs"] is None
        else:
            assert len(kwargs["_rngs"]) == 2
            for epoch, rng in enumerate(kwargs["_rngs"]):
                assert rng.bit_generator.state == rng_from(cfg.seed, epoch).bit_generator.state
        trained.append(keys[cfg.seed])
        return train_local(spec, params, dataset, cfg, **kwargs)

    def noise_spy(params, amplitude, seed, **kwargs):
        cid, r = trained[-1]
        assert seed == derive_seed(plan.seed, 2, cid, r)
        assert kwargs["_rng"].bit_generator.state == rng_from(seed).bit_generator.state
        return add_uniform_noise(params, amplitude, seed, **kwargs)

    monkeypatch.setattr(fedsim.orchestrator, "train_local", train_spy)
    monkeypatch.setattr(fedsim.orchestrator, "add_uniform_noise", noise_spy)
    outputs = []
    # One block for the run; one round a block, still batched (5 clients x 2 epochs); the
    # scalar path, where one round's epochs already exceed the budget.
    for block_keys in (fedsim.orchestrator._BLOCK_KEYS, 5 * 2, 1):
        monkeypatch.setattr(fedsim.orchestrator, "_BLOCK_KEYS", block_keys)
        scalar.append(block_keys < 5 * 2)
        out = tmp_path / str(block_keys)
        write_run_outputs(run(plan), out, config_echo={"report_formats": ["csv"]})
        outputs.append([(out / name).read_bytes() for name in ("rounds.csv", "events.log")])
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(trained) == 3 * len(set(trained)) > 45
    assert {cid for cid, _ in trained} == {0, 1, 2, 7, 2**64 + 3}


@pytest.mark.parametrize("epochs", [2**40, 10**30])
def test_huge_epoch_counts_reach_training_in_bounded_memory(monkeypatch, epochs):
    # One round's epochs exceed the seeding budget, so no epoch order is seeded up front.
    class Reached(Exception):
        pass

    def train_spy(spec, params, dataset, cfg, **kwargs):
        assert cfg.epochs == epochs and kwargs["_rngs"] is None
        raise Reached

    monkeypatch.setattr(fedsim.orchestrator, "train_local", train_spy)
    plan = _churn_plan("use-stale-accept-any")
    plan = replace(plan, train=replace(plan.train, epochs=epochs))
    tracemalloc.start()
    try:
        with pytest.raises(Reached):
            run(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_divergence_carries_completed_rounds():
    # An MLP joiner whose features are ~1e200 overflows in its second round of training.
    huge = make_synthetic([[1e200, 1e200], [-1e200, -1e200]], 1e100, (8, 8), seed=303)
    (shard,) = partition(huge, PartitionPlan("random-uniform", 1, seed=303))
    events = (IntermittencyEvent.join(3, 9, relabel_shard(shard, 9), 1.0),)
    plan = replace(_plan(n_rounds=5, events=events), model=ModelSpec("mlp-1hidden", 2, 4))
    with pytest.raises(DivergenceError, match="client 9 diverged in round 4") as exc:
        run(plan)
    assert exc.value.client_id == 9
    assert exc.value.round_index == 4
    assert [rec.round_index for rec in exc.value.completed] == [1, 2, 3]
    assert "round 3 join client=9 n_train=12" in exc.value.audit_log
    assert exc.value.audit_log[-1] == "round 4 abort reason=divergence client=9"


def _overflowing_plan(cause):
    """A plan whose run overflows: an MLP joiner with ~1e200 features
    diverges in round 4, or server noise of 8.9e307 overflows in round 6."""
    if cause == "divergence":
        huge = make_synthetic([[1e200, 1e200], [-1e200, -1e200]], 1e100, (8, 8), seed=303)
        (shard,) = partition(huge, PartitionPlan("random-uniform", 1, seed=303))
        events = (IntermittencyEvent.join(3, 9, relabel_shard(shard, 9), 1.0),)
        return replace(_plan(n_rounds=5, events=events), model=ModelSpec("mlp-1hidden", 2, 4))
    plan = _plan(n_rounds=8, noise=NoiseConfig(8.9e307, "server"))
    return replace(plan, train=replace(plan.train, learning_rate=1e-300))


@pytest.mark.parametrize("cause, error, round_index", [
    ("divergence", DivergenceError, 4), ("noise", RunAborted, 6),
])
def test_an_overflowing_run_raises_its_error_and_no_numpy_warning(cause, error, round_index):
    plan = _overflowing_plan(cause)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would escape before the error
        with pytest.raises(error) as exc:
            run(plan)
    assert exc.value.round_index == round_index
    assert exc.value.audit_log[-1].startswith(f"round {round_index} abort reason={cause}")
