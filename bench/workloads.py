"""Seeded input generators for the three benchmark workloads.

Each generator is a pure function of its seed: the same seed gives the
same inputs, and the simulator only ever sees what the generator built.
Library calls go through module attributes (``partition_mod.partition``
rather than a name imported from the module), so the tracer in ``spans.py`` sees
them when it patches those attributes.

* ``silo-mlp``: 8 clients, a 64->256 ReLU MLP, 32k samples split
  uniformly at random, batch 128, 2 epochs, 10 rounds, an 8k global test
  set and a ROC CSV for every round.  No events.  Local training is
  arithmetic-bound here.
* ``fleet-churn``: 200 clients plus 20 scripted joins, logistic
  regression with d=8 on a label-skew partition (about 45 training
  samples per client), batch 8, 1 epoch, 30 rounds, delays in every round
  but the last, a leave in every second round, retain-last plus
  use-stale-accept-any, and client noise of 0.01.  Cost is per-call
  overhead.
* ``cli-suite``: the demo configs through ``fedsim.cli.main``: four
  ``run`` and three ``sweep`` commands (13 simulations) plus a ``run`` of
  ``three_clients`` whose master data is read from a CSV written here.
"""

from __future__ import annotations

import importlib
import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fedsim import ClientSetup, IntermittencyEvent, ModelSpec, PartitionPlan, SimPlan, TrainConfig
from fedsim.orchestrator import NoiseConfig, PolicyConfig

# The package re-exports the function ``partition``, which hides the
# submodule of the same name from attribute access on ``fedsim``.
partition_mod = importlib.import_module("fedsim.partition")

DEFAULT_SEED = 0
CONFIG_DIR = Path(__file__).resolve().parent / "data" / "configs"

# Tags that keep the generators' random streams apart.
_SILO, _FLEET, _CLI = 1, 2, 3


@dataclass(frozen=True)
class InMemoryInputs:
    plan: SimPlan
    roc_rounds: tuple[int, ...]


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**32))


def silo_mlp(seed: int) -> InMemoryInputs:
    rng = np.random.default_rng([seed, _SILO])
    d, k, rounds = 64, 8, 10
    means = [np.zeros(d), rng.normal(0.0, 0.25, d)]
    master = partition_mod.make_synthetic(means, 1.0, (16000, 16000), _seed(rng))
    global_test = partition_mod.make_synthetic(means, 1.0, (4000, 4000), _seed(rng))
    shards = partition_mod.partition(
        master, PartitionPlan("random-uniform", k, seed=_seed(rng))
    )
    times = np.round(rng.uniform(5.0, 15.0, k), 1)
    plan = SimPlan(
        model=ModelSpec("mlp-1hidden", input_dim=d, hidden_dim=256, activation="relu"),
        train=TrainConfig(epochs=2, batch_size=128, learning_rate=0.1),
        n_rounds=rounds,
        clients=tuple(ClientSetup(s.client_id, s, float(t)) for s, t in zip(shards, times)),
        global_test=global_test,
        seed=_seed(rng),
    )
    return InMemoryInputs(plan, tuple(range(1, rounds + 1)))


def _fleet_events(
    rng: np.random.Generator, k: int, rounds: int, join_shards: list, delays_per_round: int
) -> list[IntermittencyEvent]:
    """A script that ``validate_plan`` accepts: no client is touched twice in
    a round or inside its closed delay window, and only active clients are
    delayed or leave."""
    join_rounds = sorted(rng.choice(np.arange(2, rounds + 1), len(join_shards), replace=False))
    joins_at = {int(r): [] for r in join_rounds}
    for r, shard in zip(join_rounds, join_shards):
        joins_at[int(r)].append(shard)
    active = set(range(k))
    busy_until: dict[int, int] = {}
    events = []
    for r in range(1, rounds + 1):
        touched = set()
        for shard in joins_at.get(r, ()):
            epoch_time = float(np.round(rng.uniform(5.0, 20.0), 1))
            events.append(IntermittencyEvent.join(r, shard.client_id, shard, epoch_time))
            active.add(shard.client_id)
            touched.add(shard.client_id)

        def free() -> list[int]:
            return sorted(c for c in active - touched if busy_until.get(c, 0) < r)

        if r < rounds:
            for cid in rng.choice(free(), delays_per_round, replace=False):
                cid = int(cid)
                resume = min(r + int(rng.integers(1, 4)), rounds)
                events.append(IntermittencyEvent.delay(r, cid, resume))
                busy_until[cid] = resume
                touched.add(cid)
        if r % 2 == 0:
            cid = int(rng.choice(free()))
            events.append(IntermittencyEvent.leave(r, cid))
            active.discard(cid)
    return events


def fleet_churn(seed: int) -> InMemoryInputs:
    rng = np.random.default_rng([seed, _FLEET])
    d, k, n_joins, rounds, per_client = 8, 200, 20, 30, 60
    means = [np.zeros(d), rng.normal(0.0, 0.5, d)]
    # Mirrored label mixes keep the positive total near half of the pool.
    half = rng.uniform(0.1, 0.9, k // 2)
    fractions = np.concatenate([half, 1.0 - half])
    master = partition_mod.make_synthetic(
        means, 1.0, (k * per_client // 2 + 100, k * per_client // 2 + 100), _seed(rng)
    )
    shards = partition_mod.partition(
        master,
        PartitionPlan(
            "label-skew",
            k,
            counts=(per_client,) * k,
            positive_fractions=tuple(float(f) for f in fractions),
            seed=_seed(rng),
        ),
    )
    global_test = partition_mod.make_synthetic(means, 1.0, (1000, 1000), _seed(rng))
    join_shards = []
    for j in range(n_joins):
        data = partition_mod.make_synthetic(
            means, 1.0, (per_client // 2, per_client // 2), _seed(rng)
        )
        shard = partition_mod.partition(
            data, PartitionPlan("random-uniform", 1, seed=_seed(rng))
        )[0]
        join_shards.append(partition_mod.relabel_shard(shard, k + j))
    times = np.round(rng.uniform(5.0, 20.0, k), 1)
    plan = SimPlan(
        model=ModelSpec("logistic-regression", input_dim=d),
        train=TrainConfig(epochs=1, batch_size=8, learning_rate=0.1),
        n_rounds=rounds,
        clients=tuple(ClientSetup(s.client_id, s, float(t)) for s, t in zip(shards, times)),
        global_test=global_test,
        seed=_seed(rng),
        events=tuple(_fleet_events(rng, k, rounds, join_shards, delays_per_round=4)),
        policy=PolicyConfig(departure="retain-last", delay="use-stale-accept-any"),
        noise=NoiseConfig(0.01, "client"),
    )
    return InMemoryInputs(plan, ())


# ---------------------------------------------------------------- cli-suite

CLI_CONFIGS = ("three_clients", "leave_join", "delayed_update", "ten_clients")
CSV_TWIN = ("three_clients_csv", "three_clients")  # (CSV-sourced run, synthetic twin)
POLICIES = (
    "drop-history+use-stale-accept-any",
    "drop-history+exclude-until-current",
    "retain-last+use-stale-accept-any",
    "retain-last+exclude-until-current",
)
# (argv without --config/--out, config stem, simulations the command runs)
CLI_COMMANDS = (
    (["run"], "three_clients", 1),
    (["run"], "leave_join", 1),
    (["run"], "delayed_update", 1),
    (["run"], "ten_clients", 1),
    (["sweep", "--variable", "client-count", "--values", "3,10"], "ten_clients", 2),
    (["sweep", "--variable", "N_r", "--values", "1,5,10"], "three_clients", 3),
    (["sweep", "--variable", "policy", "--values", ",".join(POLICIES)], "delayed_update", 4),
    (["run"], "three_clients_csv", 1),
)
CLI_SIMULATIONS = sum(n for _, _, n in CLI_COMMANDS)


def _reseed(node, seed: int, path: str = ""):
    """Replace every integer ``seed`` field with one derived from (seed, path)."""
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            where = f"{path}.{key}"
            if key == "seed" and isinstance(value, int):
                tag = zlib.crc32(where.encode())
                out[key] = int(np.random.SeedSequence([seed, _CLI, tag]).generate_state(1)[0])
            else:
                out[key] = _reseed(value, seed, where)
        return out
    if isinstance(node, list):
        return [_reseed(v, seed, f"{path}[{i}]") for i, v in enumerate(node)]
    return node


def write_dataset_csv(dataset, path: Path) -> None:
    """The ``id,label,f0..`` format that ``fedsim.partition.read_dataset_csv``
    reads, written here so the twin check does not rely on the writer under test."""
    with path.open("w") as fh:
        fh.write(",".join(["id", "label"] + [f"f{j}" for j in range(dataset.feature_dim)]) + "\n")
        for i in range(dataset.n):
            cells = [str(int(dataset.ids[i])), str(int(dataset.labels[i]))]
            cells += [repr(float(v)) for v in dataset.features[i]]
            fh.write(",".join(cells) + "\n")


def cli_suite(seed: int, cfg_dir: Path) -> tuple[list[tuple[list[str], str]], list[Path]]:
    """Write the suite's configs (and the CSV master) into ``cfg_dir``.

    Returns (argv, output subdirectory) for every command, the argv
    lacking only ``--out``, and the paths of the distinct config files.
    The default seed keeps the demo configs as shipped; any other seed
    re-derives every seed in them.
    """
    cfg_dir.mkdir(parents=True, exist_ok=True)
    configs = {}
    for stem in CLI_CONFIGS:
        cfg = json.loads((CONFIG_DIR / f"{stem}.json").read_text())
        configs[stem] = cfg if seed == DEFAULT_SEED else _reseed(cfg, seed)
    twin = json.loads(json.dumps(configs[CSV_TWIN[1]]))
    source = twin["data"]["source"]
    master = partition_mod.make_synthetic(
        source["class_means"], source.get("cov_scale", 1.0), source["n_per_class"], source["seed"]
    )
    write_dataset_csv(master, cfg_dir / f"{CSV_TWIN[0]}_master.csv")
    twin["data"]["source"] = {"type": "csv", "path": f"{CSV_TWIN[0]}_master.csv"}
    configs[CSV_TWIN[0]] = twin
    paths = {}
    for stem, cfg in configs.items():
        paths[stem] = cfg_dir / f"{stem}.json"
        paths[stem].write_text(json.dumps(cfg, indent=2))
    commands = [(argv + ["--config", str(paths[stem])], stem) for argv, stem, _ in CLI_COMMANDS]
    return commands, list(paths.values())
