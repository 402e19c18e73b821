"""Parameter-server simulation: rounds, intermittency policies, simulated clock.

Each round broadcasts the current global parameters, lets every eligible
client train locally, aggregates the collected updates in ascending
client-id order, and evaluates the refreshed model on the global test
set and on every active client's test shard, scoring equal-sized shards in
stacks (see ``metrics``).  An event script injects client departures,
arrivals and delayed updates; the policy config decides how a departed
client's history and a late update enter the aggregation.

Event timing:

* ``leave`` at round r: the client still trains and aggregates in round
  r, then departs.  Under ``drop-history`` its weights never appear
  again; under ``retain-last`` its round-r update stays in every later
  aggregation with its original sample count, aging one round at a time.
* ``join`` at round r: the client is active from round r and first
  trains on that round's broadcast.
* ``delay`` at round r with resume s, r < s <= n_rounds: the client
  trains from the round-r broadcast but misses the collection deadline,
  so its fresh update only arrives at round s.  Under
  ``use-stale-accept-any`` the server re-uses the client's last delivered
  update during rounds r..s-1 and accepts the late one at round s; under
  ``exclude-until-current`` the client is absent during r..s-1, its late
  update is never computed (the audit log still lists it as held back and
  discarded), and by default the client retrains fresh within round s.
  Set ``PolicyConfig.delay_resume_same_round`` to False to push that
  first fresh round to s+1 instead.

``validate_plan`` compiles the script and the policy into a ``Timeline``,
the only form of the policy ``run`` reads, so plans whose Timelines agree
follow one trajectory; it records a delay window at rounds r and s only.
Local training that turns non-finite raises ``DivergenceError``, which
carries the completed rounds and the audit log, as ``PolicyStarvationError``
does; noise that turns the parameters non-finite raises a plain
``RunAborted`` that names the round and the noise placement.  The audit log
(events.log) is read off the Timeline and the round records; a stopped round
logs its joins, the delay lines written before the stop and an ``abort`` line.

The clock charges each round ``epochs`` times the slowest client that
trained fresh for that round's aggregation; clients whose updates are
stale or late never hold the round open.  Per-client training seeds
derive from (plan seed, client id, round), so adding, delaying or
removing one client never perturbs the randomness any other client
sees, and policy variants of the same plan stay comparable round by
round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from .aggregation import AggregateResult, Update, add_uniform_noise, plain_average, weighted_fedavg
from .metrics import _STACK_ROWS, MetricSet, RunSummary, _stacked_loss_accuracy, evaluate, summarize
from .metrics import loss_accuracy  # noqa: F401  (only for bench/spans.py to patch)
from .models import Dataset, ModelSpec, ParameterSet, TrainConfig, init_params, train_local
from .partition import ClientShard
from .rules import choice, integer, noise_amplitude, positive
from .seeding import _batch_states, _generator, derive_seed

DROP_HISTORY = "drop-history"
RETAIN_LAST = "retain-last"
DEPARTURE_POLICIES = (DROP_HISTORY, RETAIN_LAST)

USE_STALE = "use-stale-accept-any"
EXCLUDE_UNTIL_CURRENT = "exclude-until-current"
DELAY_POLICIES = (USE_STALE, EXCLUDE_UNTIL_CURRENT)

AGGREGATORS = ("weighted", "plain")
NOISE_PLACEMENTS = ("client", "server")

LEAVE = "leave"
JOIN = "join"
DELAY = "delay"

# Purpose tags for seed derivation; every stream key starts (plan_seed, tag).
_INIT, _TRAIN, _CLIENT_NOISE, _SERVER_NOISE, _SWEEP = 0, 1, 2, 3, 4

# Keys per seeding block: ``run`` seeds every known client's epochs for enough rounds to
# reach this many, as a batch pass costs a fixed ~0.2 ms and then ~0.2 us a key.
_BLOCK_KEYS = 1000


def init_seed(plan_seed: int) -> int:
    return derive_seed(plan_seed, _INIT)


def train_seed(plan_seed: int, client_id: int, round_index: int) -> int:
    return derive_seed(plan_seed, _TRAIN, client_id, round_index)


def sweep_seed(plan_seed: int, index: int) -> int:
    return derive_seed(plan_seed, _SWEEP, index)


class PlanValidationError(ValueError):
    """The plan or its event script is inconsistent."""


class RunAborted(RuntimeError):
    """A run stopped before its last round; carries the rounds completed
    before ``round_index`` and the audit log so far, so callers can persist them."""

    def __init__(self, message: str, round_index: int, completed: list["RoundRecord"],
                 audit_log: list[str]):
        super().__init__(message)
        self.round_index = round_index
        self.completed = completed
        self.audit_log = audit_log


class PolicyStarvationError(RunAborted):
    """The policy left a round with no eligible participants."""

    def __init__(self, round_index: int, completed: list["RoundRecord"], audit_log: list[str]):
        message = f"no eligible participants in round {round_index}; the policy excluded everyone"
        super().__init__(message, round_index, completed, audit_log)


class DivergenceError(RunAborted):
    """A client's local training produced non-finite parameters."""

    def __init__(self, client_id: int, round_index: int, completed: list["RoundRecord"],
                 audit_log: list[str]):
        super().__init__(f"client {client_id} diverged in round {round_index}: local training "
                         "produced non-finite parameters", round_index, completed, audit_log)
        self.client_id = client_id


@dataclass(frozen=True)
class PolicyConfig:
    """How departures and delayed updates are treated during aggregation."""

    departure: str = DROP_HISTORY
    delay: str = EXCLUDE_UNTIL_CURRENT
    delay_resume_same_round: bool = True

    def __post_init__(self) -> None:
        choice(self.departure, "departure", DEPARTURE_POLICIES)
        choice(self.delay, "delay", DELAY_POLICIES)
        if not isinstance(self.delay_resume_same_round, bool):
            raise TypeError(
                f"delay_resume_same_round must be a bool, got {self.delay_resume_same_round!r}"
            )


@dataclass(frozen=True)
class NoiseConfig:
    """Uniform perturbation of exchanged parameters.

    ``client`` placement noises every update before it is sent;
    ``server`` placement noises the aggregated model instead.
    """

    amplitude: float
    placement: str = "client"

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitude", noise_amplitude(self.amplitude))
        choice(self.placement, "placement", NOISE_PLACEMENTS)


@dataclass(frozen=True)
class ClientSetup:
    """Initial-client descriptor: data shard plus per-epoch training time."""

    client_id: int
    shard: ClientShard
    epoch_time_s: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "client_id", integer(self.client_id, "client_id"))
        object.__setattr__(self, "epoch_time_s", positive(self.epoch_time_s, "epoch_time_s"))


@dataclass(frozen=True)
class IntermittencyEvent:
    """A scripted membership change; see the module docstring for timing."""

    round_index: int
    kind: str
    client_id: int
    shard: ClientShard | None = None
    epoch_time_s: float | None = None
    resume_round: int | None = None

    def __post_init__(self) -> None:
        choice(self.kind, "kind", (LEAVE, JOIN, DELAY))
        object.__setattr__(self, "round_index", integer(self.round_index, "round_index", 1))
        object.__setattr__(self, "client_id", integer(self.client_id, "client_id"))
        if self.resume_round is not None:
            object.__setattr__(self, "resume_round", integer(self.resume_round, "resume_round"))
        if self.kind == JOIN:
            if self.shard is None or self.epoch_time_s is None:
                raise ValueError("a join event needs a shard and an epoch_time_s")
            object.__setattr__(self, "epoch_time_s", positive(self.epoch_time_s, "epoch_time_s"))
        else:
            if self.shard is not None or self.epoch_time_s is not None:
                raise ValueError(f"a {self.kind} event takes no shard or epoch_time_s")
        if self.kind == DELAY:
            if self.resume_round is None or self.resume_round <= self.round_index:
                raise ValueError("a delay needs resume_round > round_index")
        elif self.resume_round is not None:
            raise ValueError(f"a {self.kind} event takes no resume_round")

    @classmethod
    def leave(cls, round_index: int, client_id: int) -> "IntermittencyEvent":
        return cls(round_index, LEAVE, client_id)

    @classmethod
    def join(
        cls, round_index: int, client_id: int, shard: ClientShard, epoch_time_s: float
    ) -> "IntermittencyEvent":
        return cls(round_index, JOIN, client_id, shard=shard, epoch_time_s=epoch_time_s)

    @classmethod
    def delay(cls, round_index: int, client_id: int, resume_round: int) -> "IntermittencyEvent":
        return cls(round_index, DELAY, client_id, resume_round=resume_round)


@dataclass
class ClientState:
    """Mutable per-client simulation state."""

    client_id: int
    shard: ClientShard
    epoch_time_s: float
    status: str = "active"  # "active" | "departed"
    last_update: Update | None = None


@dataclass(frozen=True)
class SimPlan:
    """Everything a run needs: model, schedule, clients, events, seed."""

    model: ModelSpec
    train: TrainConfig
    n_rounds: int
    clients: tuple[ClientSetup, ...]
    global_test: Dataset
    seed: int
    events: tuple[IntermittencyEvent, ...] = ()
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    aggregator: str = "weighted"
    noise: NoiseConfig | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "clients", tuple(self.clients))
        object.__setattr__(self, "events", tuple(self.events))


@dataclass(frozen=True)
class Participation:
    """One aggregation entry: who, and how fresh their update was."""

    client_id: int
    fresh: bool
    age: int  # rounds since the update was produced; 0 iff fresh

    def label(self) -> str:
        return "fresh" if self.fresh else f"stale({self.age})"


@dataclass(frozen=True)
class ClientEval:
    client_id: int
    loss: float
    accuracy: float
    n: int


@dataclass
class RoundRecord:
    round_index: int
    participants: tuple[Participation, ...]
    aggregate: AggregateResult
    global_params: ParameterSet
    global_metrics: MetricSet
    client_metrics: tuple[ClientEval, ...]
    sim_time_s: float


@dataclass
class RunReport:
    plan: SimPlan
    rounds: list[RoundRecord]
    total_sim_time_s: float
    final_params: ParameterSet
    audit_log: list[str]
    summary: RunSummary | None = None


def static_sim_time(n_rounds: int, n_epochs: int, epoch_times: Sequence[float]) -> float:
    """Clock total for a fixed client set: rounds x epochs x slowest client."""
    if not epoch_times:
        raise ValueError("static_sim_time needs at least one client time")
    return n_rounds * (n_epochs * max(epoch_times))


def clock_bound(plan: SimPlan) -> float:
    """The longest clock ``plan`` can run, every round at its slowest initial or joining client;
    inf if that does not fit in a float.  Each round's cost and the total stay within it."""
    times = [x.epoch_time_s for x in (*plan.clients, *plan.events) if x.epoch_time_s is not None]
    try:
        return static_sim_time(int(plan.n_rounds), int(plan.train.epochs), times or [0.0])
    except OverflowError:  # a round or epoch count past a float's range
        return math.inf


def simulated_time(n_epochs: int, per_round_fresh_times: Sequence[Sequence[float]]) -> float:
    """Total simulated seconds: per round, epochs x the slowest fresh trainer.

    A round in which nobody trained fresh (every participant was stale)
    costs no time.  With the same nonempty time list every round this
    equals ``static_sim_time`` exactly.
    """
    return math.fsum(n_epochs * max(ts) if len(ts) else 0.0 for ts in per_round_fresh_times)


@dataclass(frozen=True)
class Timeline:
    """The plan compiled by ``validate_plan``: each round's joins and leaves in the order they
    apply, the departure policy if a client leaves (else None), and (client, round) -> the delay
    action at each closed delay window's two ends: "hold" then "accept" under use-stale-accept-any,
    else "withhold" then "retrain" or "discard".  In between, the client is stale after a hold and
    absent after a withhold; an active client with no entry and no ``held_back`` item trains fresh."""

    joins: dict[int, list[IntermittencyEvent]] = field(default_factory=dict)
    leaves: dict[int, list[IntermittencyEvent]] = field(default_factory=dict)
    phases: dict[tuple[int, int], str] = field(default_factory=dict)
    departure: str | None = None


def _participants_field(rec: RoundRecord, sep: str) -> str:
    return sep.join(f"{p.client_id}:{p.label()}" for p in rec.participants)


def _events_log(timeline: Timeline, records: list[RoundRecord], stop: tuple = ()) -> Iterator[str]:
    """events.log, read off the Timeline and the completed rounds.  A ``stop`` (round, client or
    inf, reason) ends it with that round's joins, the delay lines written before the stop (all for
    inf; else those of lower ids, and the client's own discard if it retrains) and an abort line."""
    delays: dict[int, list[tuple[int, str]]] = {}  # round -> (client, delay action), by client id
    for (cid, r), action in sorted(timeline.phases.items()):
        delays.setdefault(r, []).append((cid, action))
    rounds = [(rec.round_index, math.inf, rec) for rec in records]
    for r, upto, rec in rounds + [stop] if stop else rounds:
        yield from (f"round {r} join client={ev.client_id} n_train={ev.shard.n_train}"
                    for ev in timeline.joins.get(r, ()))
        yield from (f"round {r} delay client={c} update held back" if a in ("hold", "withhold")
                    else f"round {r} late-delivery client={c} accepted" if a == "accept"
                    else f"round {r} late-delivery client={c} discarded"
                    for c, a in delays.get(r, ()) if c < upto or (c == upto and a == "retrain"))
        if isinstance(rec, str):  # the reason the run stopped
            where = {"divergence": f" client={upto}",
                     "noise": f" placement={'client' if upto < math.inf else 'server'}"}
            yield f"round {r} abort reason={rec}{where.get(rec, '')}"
        else:
            yield (f"round {r} aggregate participants={_participants_field(rec, ',')} weights="
                   + ",".join(f"{cid}:{w!r}" for cid, w in rec.aggregate.weights_used)
                   + f" total_n={rec.aggregate.total_n}")
            yield from (f"round {r} leave client={ev.client_id} policy={timeline.departure}"
                        for ev in timeline.leaves.get(r, ()))


def validate_plan(plan: SimPlan) -> Timeline:
    """Check the plan and compile its event script, round by round, into a Timeline."""
    errors: list[str] = []
    try:
        integer(plan.n_rounds, "n_rounds", 1)
        integer(plan.seed, "seed")
        integer(plan.train.epochs, "train.epochs", 1)
        choice(plan.aggregator, "aggregator", AGGREGATORS)
    except (TypeError, ValueError) as exc:  # raised at once: events are read against n_rounds
        raise PlanValidationError(str(exc)) from exc
    if plan.global_test.n == 0:
        errors.append("global_test must be nonempty")
    elif len(set(plan.global_test.labels.tolist())) < 2:
        errors.append("global_test must contain both classes (AUC is undefined otherwise)")
    if plan.global_test.feature_dim != plan.model.input_dim:
        errors.append("global_test feature width does not match the model input_dim")

    ids = [c.client_id for c in plan.clients]
    if len(set(ids)) != len(ids):
        errors.append("duplicate initial client ids")
    for c in plan.clients:
        if c.shard.train.feature_dim != plan.model.input_dim:
            errors.append(f"client {c.client_id}: shard width does not match model input_dim")

    known = set(ids)
    active = set(ids)
    joins, leaves, phases, resumes = {}, {}, {}, {}  # resumes: client -> its last window's end
    # A delay window's actions at its first round and at its resume round.
    hold, back = ("hold", "accept") if plan.policy.delay == USE_STALE else (
        "withhold", "retrain" if plan.policy.delay_resume_same_round else "discard")
    by_round: dict[int, list[IntermittencyEvent]] = {}
    for ev in plan.events:
        by_round.setdefault(ev.round_index, []).append(ev)
        if not (1 <= ev.round_index <= plan.n_rounds):
            errors.append(
                f"event {ev.kind} for client {ev.client_id} at round {ev.round_index} "
                f"falls outside rounds 1..{plan.n_rounds}"
            )
    order = {JOIN: 0, DELAY: 1, LEAVE: 2}
    for r in sorted(by_round):
        touched: set[int] = set()
        for ev in sorted(by_round[r], key=lambda e: order[e.kind]):
            cid = ev.client_id
            if cid in touched:
                errors.append(f"round {r}: multiple events target client {cid}")
                continue
            touched.add(cid)
            # Delay windows are closed [start, resume]: no other event may
            # touch the client until its comeback round has played out.
            in_delay = r <= resumes.get(cid, 0)
            if ev.kind == JOIN:
                if cid in known:
                    errors.append(f"round {r}: join re-uses client id {cid}")
                elif ev.shard is not None and ev.shard.train.feature_dim != plan.model.input_dim:
                    errors.append(f"round {r}: joining client {cid} shard width mismatch")
                else:
                    known.add(cid)
                    active.add(cid)
                    joins.setdefault(r, []).append(ev)
            elif ev.kind == LEAVE:
                if cid not in active:
                    errors.append(f"round {r}: leave targets inactive client {cid}")
                elif in_delay:
                    errors.append(f"round {r}: leave targets client {cid} during a delay window")
                else:
                    active.discard(cid)
                    leaves.setdefault(r, []).append(ev)
            else:  # DELAY
                resume = ev.resume_round
                if cid not in active:
                    errors.append(f"round {r}: delay targets inactive client {cid}")
                elif in_delay:
                    errors.append(f"round {r}: overlapping delays on client {cid}")
                elif resume > plan.n_rounds:
                    errors.append(
                        f"round {r}: delay on client {cid} resumes at round {resume}, "
                        f"after the last round {plan.n_rounds}"
                    )
                else:
                    phases[(cid, r)], phases[(cid, resume)], resumes[cid] = hold, back, resume
    # A block numpy cannot allocate fails here, before any command runs: the parameter vector or
    # the largest (rows, hidden_dim) block of a training batch, the global test set or a stack of
    # client test sets.  Only 32 MiB (2**22 doubles) or more is tried: glibc maps such a block on
    # its own, so the heap stays put, and no smaller one reaches numpy's size limit.
    shards = [x.shard for x in (*plan.clients, *plan.events) if x.shard is not None]
    rows = max(plan.global_test.n, min(_STACK_ROWS, sum(s.test.n for s in shards)),
               *(max(s.test.n, min(plan.train.batch_size, s.n_train)) for s in shards))
    block = max(plan.model.param_count, rows * (plan.model.hidden_dim or 0))
    if block >= 2**22:
        try:
            np.empty(block)
        except (MemoryError, ValueError) as exc:  # ValueError: past numpy's largest dimension
            errors.append(f"model: {exc}")
    if not math.isfinite(clock_bound(plan)):
        errors.append("simulated clock: rounds x epochs x slowest epoch_time_s exceeds a float")
    if errors:
        raise PlanValidationError("; ".join(errors))
    return Timeline(joins, leaves, phases, plan.policy.departure if leaves else None)


def run(plan: SimPlan) -> RunReport:
    """Simulate the full round schedule; see the module docstring for semantics."""
    timeline = validate_plan(plan)
    # Plain ints for the Integrals just checked: a narrow numpy seed would overflow in seeding.
    plan = replace(plan, seed=int(plan.seed), n_rounds=int(plan.n_rounds))
    states = {c.client_id: ClientState(c.client_id, c.shard, c.epoch_time_s) for c in plan.clients}
    held_back: dict[int, Update | None] = {}  # clients in flight: a held update, or None
    records: list[RoundRecord] = []
    global_params = init_params(plan.model, init_seed(plan.seed))

    client_noise = plan.noise is not None and plan.noise.placement == "client"
    ids = sorted({*states, *(ev.client_id for evs in timeline.joins.values() for ev in evs)})
    slot = {cid: i for i, cid in enumerate(ids)}
    block: tuple = (0,)  # last round, first round, then the arrays seed_block returns

    def seed_block(first: int) -> tuple:
        """Train seeds, epoch-order states, and client-noise seeds and states of every known
        client for the rounds of a block from ``first``, one batch pass each; the key
        (client, r) is row ``(r - first) * len(ids) + slot[client]``.  Past the budget in
        one round, ``orders`` is None and ``train_local`` seeds each epoch itself."""
        epochs = plan.train.epochs
        last = min(first - 1 + math.ceil(_BLOCK_KEYS / (len(ids) * epochs)), plan.n_rounds)
        cids = np.array(ids, dtype=object if ids[-1] >> 64 else np.uint64)
        rounds = np.arange(first, last + 1, dtype=np.uint64)
        key = (np.tile(cids, len(rounds)), np.repeat(rounds, len(ids)))
        seeds = _batch_states(plan.seed, _TRAIN, *key)[:, 0]
        orders = None if len(ids) * epochs > _BLOCK_KEYS else _batch_states(
            np.repeat(seeds, epochs), np.tile(np.arange(epochs), len(seeds))).reshape(-1, epochs, 4)
        noise = _batch_states(plan.seed, _CLIENT_NOISE, *key)[:, 0] if client_noise else None
        return last, first, seeds, orders, noise, _batch_states(noise) if client_noise else None

    def noised(params: ParameterSet, seed: int, r: int, rng=None, client=math.inf) -> ParameterSet:
        try:
            return add_uniform_noise(params, plan.noise.amplitude, seed, _rng=rng)
        except ValueError as exc:  # the amplitude is checked, so only a non-finite result
            message = f"round {r}: {plan.noise.placement} noise produced non-finite parameters"
            raise RunAborted(message, r, records,
                             list(_events_log(timeline, records, (r, client, "noise")))) from exc

    def train(st: ClientState, r: int) -> Update:
        nonlocal block
        if r > block[0]:
            block = seed_block(r)
        _, first, seeds, orders, noise_seeds, noise_states = block
        k = (r - first) * len(ids) + slot[st.client_id]
        cfg = object.__new__(TrainConfig)  # plan.train's fields, already checked, with this seed
        cfg.__dict__.update(vars(plan.train), seed=int(seeds[k]))
        try:
            rngs = None if orders is None else [_generator(words) for words in orders[k]]
            params, _ = train_local(plan.model, global_params, st.shard.train, cfg, _rngs=rngs)
        except ValueError as exc:  # after validation, only a non-finite result
            log = list(_events_log(timeline, records, (r, st.client_id, "divergence")))
            raise DivergenceError(st.client_id, r, records, log) from exc
        if client_noise:
            rng = _generator(noise_states[k])
            params = noised(params, int(noise_seeds[k]), r, rng, st.client_id)
        return Update(st.client_id, params, st.shard.n_train, r)

    # Overflow ends in the finiteness checks' RunAborted, never in a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(1, plan.n_rounds + 1):
            for ev in timeline.joins.get(r, ()):
                states[ev.client_id] = ClientState(ev.client_id, ev.shard, ev.epoch_time_s)

            participants: list[Participation] = []
            for cid in sorted(states):
                st = states[cid]
                # Between a window's ends a client is stale after a hold, absent after a withhold.
                away = "train" if cid not in held_back else "absent" if held_back[cid] is None else "stale"
                action = timeline.phases.get((cid, r), "stale" if st.status == "departed" else away)
                if action in ("hold", "withhold"):  # a held update is delivered when its window closes
                    held_back[cid] = train(st, r) if action == "hold" else None
                elif action == "accept":
                    st.last_update = held_back.pop(cid)
                elif action in ("retrain", "discard"):  # an excluded late update is never computed
                    del held_back[cid]

                # Train fresh now, serve the last delivered update, or send nothing.
                if action in ("train", "retrain"):
                    st.last_update = train(st, r)
                    participants.append(Participation(cid, True, 0))
                elif action in ("hold", "stale", "accept") and st.last_update is not None:
                    participants.append(Participation(cid, False, r - st.last_update.produced_round))

            if not participants:
                log = list(_events_log(timeline, records, (r, math.inf, "starvation")))
                raise PolicyStarvationError(r, records, log)

            # Each participant's update is its last one: trained above if fresh, else served.
            aggregate = weighted_fedavg if plan.aggregator == "weighted" else plain_average
            agg = aggregate([states[p.client_id].last_update for p in participants])
            global_params = agg.params
            if plan.noise is not None and plan.noise.placement == "server":
                global_params = noised(global_params, derive_seed(plan.seed, _SERVER_NOISE, r), r)

            global_metrics = evaluate(plan.model, global_params, plan.global_test)

            for ev in timeline.leaves.get(r, ()):
                st = states[ev.client_id]
                st.status = "departed"
                if timeline.departure == DROP_HISTORY:
                    st.last_update = None

            tested = [states[cid] for cid in sorted(states)
                      if states[cid].status == "active" and states[cid].shard.test.n]
            scores = _stacked_loss_accuracy(plan.model, global_params, [st.shard.test for st in tested])
            client_metrics = [ClientEval(st.client_id, loss, acc, st.shard.test.n)
                              for st, (loss, acc) in zip(tested, scores)]

            records.append(
                RoundRecord(
                    round_index=r,
                    participants=tuple(participants),
                    aggregate=agg,
                    global_params=global_params,
                    global_metrics=global_metrics,
                    client_metrics=tuple(client_metrics),
                    sim_time_s=simulated_time(
                        plan.train.epochs,
                        [[states[p.client_id].epoch_time_s for p in participants if p.fresh]],
                    ),
                )
            )

    report = RunReport(
        plan=plan,
        rounds=records,
        total_sim_time_s=math.fsum(rec.sim_time_s for rec in records),
        final_params=global_params,
        audit_log=list(_events_log(timeline, records)),
    )
    report.summary = summarize(report)
    return report
