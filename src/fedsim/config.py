"""Run-config files: parsing, schema validation, and plan assembly.

Configs are JSON objects with a strict schema: unknown keys are
rejected, naming the offending path.  Structural problems (bad JSON,
unknown or missing keys, wrong types) raise ConfigParseError; values
that are the right shape but make no sense (zero rounds, infeasible
partitions, bad event scripts) raise ConfigValidationError.

``build_plan`` materializes datasets, cuts client shards and returns a
SimPlan together with the reporting options.  The full resolved config
(defaults filled in, overrides applied) is echoed into summary.json,
and feeding that echo back through this module reproduces the same
plan.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .models import Dataset, ModelSpec, TrainConfig
from .orchestrator import (
    AGGREGATORS,
    DELAY_POLICIES,
    DEPARTURE_POLICIES,
    NOISE_PLACEMENTS,
    ClientSetup,
    IntermittencyEvent,
    NoiseConfig,
    PolicyConfig,
    SimPlan,
)
from .partition import (
    PARTITION_MODES,
    ClientShard,
    InfeasiblePartition,
    PartitionPlan,
    make_synthetic,
    partition,
    read_dataset_csv,
    relabel_shard,
)
from .seeding import rng_from

SWEEP_VARIABLES = ("client-count", "N_r", "policy")
REPORT_FORMATS = ("csv", "json")


class ConfigParseError(ValueError):
    """Structural problem: bad JSON, unknown key, missing key, wrong type."""


class ConfigValidationError(ValueError):
    """Well-formed config with inconsistent or infeasible values."""


@dataclass(frozen=True)
class RunConfig:
    """A parsed config plus the reporting options it carried."""

    plan: SimPlan
    output_dir: str | None
    report_formats: tuple[str, ...]
    roc_rounds: tuple[int, ...]
    centralized_epoch_time_s: float | None
    echo: dict  # resolved config, defaults filled in


def _require(obj: dict, path: str, required: dict[str, type | tuple], optional: dict | None = None) -> None:
    optional = optional or {}
    if not isinstance(obj, dict):
        raise ConfigParseError(f"{path or 'config'}: expected an object")
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigParseError(f"{path + '.' if path else ''}{key}: unknown key")
    for key, types in required.items():
        if key not in obj:
            raise ConfigParseError(f"{path + '.' if path else ''}{key}: missing required key")
        _check_type(obj[key], types, f"{path + '.' if path else ''}{key}")
    for key, types in optional.items():
        if key in obj:
            _check_type(obj[key], types, f"{path + '.' if path else ''}{key}")


def _check_type(value: Any, types: type | tuple, path: str) -> None:
    if types is float:
        types = (int, float)
    if isinstance(types, tuple) and float in types:
        types = tuple(types) + (int,)
    if not isinstance(value, types) or isinstance(value, bool) and bool not in (
        types if isinstance(types, tuple) else (types,)
    ):
        expected = getattr(types, "__name__", None) or "/".join(t.__name__ for t in types)
        raise ConfigParseError(f"{path}: expected {expected}, got {type(value).__name__}")


def _int_at_least(value: Any, floor: int, path: str) -> int:
    _check_type(value, int, path)
    if value < floor:
        raise ConfigValidationError(f"{path}: must be >= {floor}, got {value}")
    return int(value)


def _positive_number(value: Any, path: str) -> float:
    _check_type(value, float, path)
    if not (float(value) > 0):
        raise ConfigValidationError(f"{path}: must be > 0, got {value}")
    return float(value)


def _choice(value: Any, options: tuple, path: str) -> str:
    _check_type(value, str, path)
    if value not in options:
        raise ConfigValidationError(f"{path}: expected one of {options}, got {value!r}")
    return value


def load_config_file(path: str | Path) -> dict:
    """Read and structurally validate a JSON config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigParseError(f"{path}: top level must be a JSON object")
    return raw


_SOURCE_KEYS = {
    "synthetic": (
        {"type": str, "class_means": list, "n_per_class": list, "seed": int},
        {"cov_scale": float},
    ),
    "csv": ({"type": str, "path": str}, {}),
    "holdout": ({"type": str, "fraction": float, "seed": int}, {}),
}


def _validate_source(obj: Any, path: str, allow_holdout: bool = False) -> None:
    if not isinstance(obj, dict):
        raise ConfigParseError(f"{path}: expected an object")
    kind = obj.get("type")
    kinds = ("synthetic", "csv") + (("holdout",) if allow_holdout else ())
    if kind not in kinds:
        raise ConfigParseError(f"{path}.type: expected one of {kinds}, got {kind!r}")
    required, optional = _SOURCE_KEYS[kind]
    _require(obj, path, required, optional)
    if kind == "synthetic":
        means = obj["class_means"]
        if len(means) != 2 or not all(isinstance(m, list) and m for m in means):
            raise ConfigValidationError(f"{path}.class_means: expected two nonempty vectors")
        npc = obj["n_per_class"]
        if len(npc) != 2 or not all(isinstance(x, int) and x >= 0 for x in npc):
            raise ConfigValidationError(f"{path}.n_per_class: expected two counts >= 0")
        if sum(npc) < 1:
            raise ConfigValidationError(f"{path}.n_per_class: needs at least one sample")
        _int_at_least(obj["seed"], 0, f"{path}.seed")
        if "cov_scale" in obj:
            _positive_number(obj["cov_scale"], f"{path}.cov_scale")
    elif kind == "holdout":
        frac = obj["fraction"]
        if not (0.0 < float(frac) < 1.0):
            raise ConfigValidationError(f"{path}.fraction: must lie in (0, 1)")
        _int_at_least(obj["seed"], 0, f"{path}.seed")


def validate_config(raw: dict) -> dict:
    """Full schema walk; returns the config with defaults filled in."""
    _require(
        raw,
        "",
        {
            "seed": int,
            "rounds": int,
            "model": dict,
            "train": dict,
            "data": dict,
            "clients": list,
        },
        {
            "aggregator": str,
            "policy": dict,
            "noise": (dict, type(None)),
            "events": list,
            "output_dir": str,
            "report_formats": list,
            "roc_rounds": list,
            "centralized_epoch_time_s": float,
            "sweeps": dict,
        },
    )
    cfg = copy.deepcopy(raw)
    _int_at_least(cfg["seed"], 0, "seed")
    _int_at_least(cfg["rounds"], 1, "rounds")

    _require(
        cfg["model"],
        "model",
        {"kind": str, "input_dim": int},
        {"hidden_dim": int, "activation": str},
    )
    _choice(cfg["model"]["kind"], ("logistic-regression", "mlp-1hidden"), "model.kind")
    _int_at_least(cfg["model"]["input_dim"], 1, "model.input_dim")
    if "hidden_dim" in cfg["model"]:
        _int_at_least(cfg["model"]["hidden_dim"], 1, "model.hidden_dim")
    if "activation" in cfg["model"]:
        _choice(cfg["model"]["activation"], ("relu", "sigmoid"), "model.activation")

    # Shuffle seeds always derive from the top-level seed, so a train.seed
    # key is a mistake and gets rejected by the unknown-key rule.
    _require(
        cfg["train"],
        "train",
        {"epochs": int, "batch_size": int, "learning_rate": float},
    )
    _int_at_least(cfg["train"]["epochs"], 1, "train.epochs")
    _int_at_least(cfg["train"]["batch_size"], 1, "train.batch_size")
    _positive_number(cfg["train"]["learning_rate"], "train.learning_rate")

    cfg.setdefault("aggregator", "weighted")
    _choice(cfg["aggregator"], AGGREGATORS, "aggregator")

    policy = cfg.setdefault("policy", {})
    _require(policy, "policy", {}, {"departure": str, "delay": str, "delay_resume_same_round": bool})
    policy.setdefault("departure", "drop-history")
    policy.setdefault("delay", "exclude-until-current")
    policy.setdefault("delay_resume_same_round", True)
    _choice(policy["departure"], DEPARTURE_POLICIES, "policy.departure")
    _choice(policy["delay"], DELAY_POLICIES, "policy.delay")

    if cfg.get("noise") is not None:
        _require(cfg["noise"], "noise", {"amplitude": float}, {"placement": str})
        _positive_number(cfg["noise"]["amplitude"], "noise.amplitude")
        cfg["noise"].setdefault("placement", "client")
        _choice(cfg["noise"]["placement"], NOISE_PLACEMENTS, "noise.placement")
    else:
        cfg["noise"] = None

    data = cfg["data"]
    _require(data, "data", {"source": dict, "global_test": dict, "partition": dict})
    _validate_source(data["source"], "data.source")
    _validate_source(data["global_test"], "data.global_test", allow_holdout=True)
    part = data["partition"]
    _require(
        part,
        "data.partition",
        {"mode": str, "seed": int},
        {"counts": list, "positive_fractions": list, "train_fraction": float},
    )
    _choice(part["mode"], PARTITION_MODES, "data.partition.mode")
    _int_at_least(part["seed"], 0, "data.partition.seed")
    part.setdefault("train_fraction", 0.75)
    if not (0.0 < float(part["train_fraction"]) <= 1.0):
        raise ConfigValidationError("data.partition.train_fraction: must lie in (0, 1]")

    if not cfg["clients"]:
        raise ConfigValidationError("clients: at least one client is required")
    seen_ids = set()
    for i, cl in enumerate(cfg["clients"]):
        _require(cl, f"clients[{i}]", {"id": int, "epoch_time_s": float})
        _int_at_least(cl["id"], 0, f"clients[{i}].id")
        _positive_number(cl["epoch_time_s"], f"clients[{i}].epoch_time_s")
        if cl["id"] in seen_ids:
            raise ConfigValidationError(f"clients[{i}].id: duplicate client id {cl['id']}")
        seen_ids.add(cl["id"])

    events = cfg.setdefault("events", [])
    for i, ev in enumerate(events):
        epath = f"events[{i}]"
        if not isinstance(ev, dict):
            raise ConfigParseError(f"{epath}: expected an object")
        kind = ev.get("kind")
        if kind == "leave":
            _require(ev, epath, {"round": int, "kind": str, "client": int})
        elif kind == "join":
            _require(
                ev,
                epath,
                {"round": int, "kind": str, "client": int, "epoch_time_s": float, "data": dict},
            )
            _positive_number(ev["epoch_time_s"], f"{epath}.epoch_time_s")
            _require(
                ev["data"],
                f"{epath}.data",
                {"source": dict},
                {"train_fraction": float, "seed": int},
            )
            _validate_source(ev["data"]["source"], f"{epath}.data.source")
            ev["data"].setdefault("train_fraction", 0.75)
            ev["data"].setdefault("seed", 0)
        elif kind == "delay":
            _require(ev, epath, {"round": int, "kind": str, "client": int, "resume_round": int})
        else:
            raise ConfigParseError(f"{epath}.kind: expected leave/join/delay, got {kind!r}")
        _int_at_least(ev["round"], 1, f"{epath}.round")
        _int_at_least(ev["client"], 0, f"{epath}.client")

    cfg.setdefault("report_formats", list(REPORT_FORMATS))
    for fmt in cfg["report_formats"]:
        if fmt not in REPORT_FORMATS:
            raise ConfigValidationError(f"report_formats: unknown format {fmt!r}")
    if not cfg["report_formats"]:
        raise ConfigValidationError("report_formats: at least one format is required")

    cfg.setdefault("roc_rounds", [])
    for i, r in enumerate(cfg["roc_rounds"]):
        _check_type(r, int, f"roc_rounds[{i}]")
        if r < 1 or r > cfg["rounds"]:
            raise ConfigValidationError(f"roc_rounds: round {r!r} outside 1..{cfg['rounds']}")

    if "centralized_epoch_time_s" in cfg:
        _positive_number(cfg["centralized_epoch_time_s"], "centralized_epoch_time_s")

    if "sweeps" in cfg:
        for var, table in cfg["sweeps"].items():
            if var not in SWEEP_VARIABLES:
                raise ConfigParseError(f"sweeps.{var}: unknown sweep variable")
            if not isinstance(table, dict):
                raise ConfigParseError(f"sweeps.{var}: expected an object keyed by value")
    return cfg


def _materialize_source(obj: dict, base_dir: Path, path: str) -> Dataset:
    try:
        if obj["type"] == "synthetic":
            return make_synthetic(
                obj["class_means"],
                obj.get("cov_scale", 1.0),
                tuple(obj["n_per_class"]),
                obj["seed"],
            )
        return read_dataset_csv((base_dir / obj["path"]).resolve())
    except (OSError, ValueError) as exc:
        where = f"{path}.path" if obj["type"] == "csv" else path
        raise ConfigValidationError(f"{where}: {exc}") from exc


def _holdout_split(master: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    order = rng_from(int(seed)).permutation(master.n)
    n_test = max(1, round(float(fraction) * master.n))
    if n_test >= master.n:
        raise ConfigValidationError("data.global_test.fraction leaves no training data")
    return master.subset(order[n_test:]), master.subset(order[:n_test])


def _shard_for_join(ev: dict, base_dir: Path, index: int) -> ClientShard:
    data = _materialize_source(ev["data"]["source"], base_dir, f"events[{index}].data.source")
    plan = PartitionPlan(
        "random-uniform", 1, train_fraction=ev["data"]["train_fraction"], seed=ev["data"]["seed"]
    )
    return relabel_shard(partition(data, plan)[0], ev["client"])


def build_plan(cfg: dict, base_dir: str | Path = ".") -> RunConfig:
    """Materialize datasets and assemble the SimPlan a config describes."""
    cfg = validate_config(cfg)
    base_dir = Path(base_dir)
    model_cfg = cfg["model"]
    model = ModelSpec(
        kind=model_cfg["kind"],
        input_dim=model_cfg["input_dim"],
        hidden_dim=model_cfg.get("hidden_dim"),
        activation=model_cfg.get("activation", "relu"),
    )
    train = TrainConfig(
        epochs=cfg["train"]["epochs"],
        batch_size=cfg["train"]["batch_size"],
        learning_rate=cfg["train"]["learning_rate"],
    )

    master = _materialize_source(cfg["data"]["source"], base_dir, "data.source")
    gt_cfg = cfg["data"]["global_test"]
    if gt_cfg["type"] == "holdout":
        master, global_test = _holdout_split(master, gt_cfg["fraction"], gt_cfg["seed"])
    else:
        global_test = _materialize_source(gt_cfg, base_dir, "data.global_test")

    part_cfg = cfg["data"]["partition"]
    n_clients = len(cfg["clients"])
    try:
        plan_p = PartitionPlan(
            mode=part_cfg["mode"],
            client_count=n_clients,
            counts=tuple(part_cfg["counts"]) if "counts" in part_cfg else None,
            positive_fractions=(
                tuple(part_cfg["positive_fractions"])
                if "positive_fractions" in part_cfg
                else None
            ),
            train_fraction=part_cfg["train_fraction"],
            seed=part_cfg["seed"],
        )
        shards = partition(master, plan_p)
    except (InfeasiblePartition, ValueError) as exc:
        raise ConfigValidationError(f"data.partition: {exc}") from exc

    clients = tuple(
        ClientSetup(
            client_id=cl["id"],
            shard=relabel_shard(shards[i], cl["id"]),
            epoch_time_s=cl["epoch_time_s"],
        )
        for i, cl in enumerate(cfg["clients"])
    )

    events = []
    for i, ev in enumerate(cfg["events"]):
        if ev["kind"] == "leave":
            events.append(IntermittencyEvent.leave(ev["round"], ev["client"]))
        elif ev["kind"] == "delay":
            try:
                events.append(
                    IntermittencyEvent.delay(ev["round"], ev["client"], ev["resume_round"])
                )
            except ValueError as exc:
                raise ConfigValidationError(f"events: {exc}") from exc
        else:
            events.append(
                IntermittencyEvent.join(
                    ev["round"], ev["client"], _shard_for_join(ev, base_dir, i), ev["epoch_time_s"]
                )
            )

    noise = None
    if cfg["noise"] is not None:
        noise = NoiseConfig(cfg["noise"]["amplitude"], cfg["noise"]["placement"])

    plan = SimPlan(
        model=model,
        train=train,
        n_rounds=cfg["rounds"],
        clients=clients,
        global_test=global_test,
        seed=cfg["seed"],
        events=tuple(events),
        policy=PolicyConfig(
            departure=cfg["policy"]["departure"],
            delay=cfg["policy"]["delay"],
            delay_resume_same_round=cfg["policy"]["delay_resume_same_round"],
        ),
        aggregator=cfg["aggregator"],
        noise=noise,
    )
    return RunConfig(
        plan=plan,
        output_dir=cfg.get("output_dir"),
        report_formats=tuple(cfg["report_formats"]),
        roc_rounds=tuple(cfg["roc_rounds"]),
        centralized_epoch_time_s=cfg.get("centralized_epoch_time_s"),
        echo=cfg,
    )


def deep_merge(base: dict, override: dict) -> dict:
    """Recursive dict merge; override wins, lists and scalars replace."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out
