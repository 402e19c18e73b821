"""Run-config files: parsing, schema validation, and plan assembly.

Configs are JSON objects with a strict schema: unknown keys are
rejected, naming the offending path.  Structural problems (bad JSON,
unknown or missing keys, wrong types, list elements included) raise
ConfigParseError; values that are the right shape but make no sense
(zero rounds, infeasible partitions, bad event scripts) raise
ConfigValidationError.

The keys of a section are the keyword arguments of the domain value that
owns its rules and defaults: ``model`` is a ``ModelSpec``, ``train`` a
``TrainConfig``, ``policy`` a ``PolicyConfig``, ``noise`` a ``NoiseConfig``,
``data.partition`` and each join's ``data`` a ``PartitionPlan``, each leave
or delay an ``IntermittencyEvent``, and a synthetic source holds the
``make_synthetic`` arguments that ``partition.synthetic_source`` checks.
``validate_config`` builds these data-free, reporting a ValueError as
"<section path>: <message>".  By itself it checks types, unique client
ids, ROC rounds and the holdout fraction and, with the shared
``fedsim.rules``, the seed, rounds, client ids, epoch times, epochs >= 1,
learning rate > 0 and the named options (aggregator, report formats,
source types, event kinds, sweep variables), all before any data is read.
A source type, event kind or sweep variable picks a schema, so a bad one
is a ConfigParseError.  ``sweeps`` keys are read by ``sweep_value``, as
``--values`` is, and re-keyed by the value they name, which must differ.

An absent optional key takes its owner's field default, except in
``model``, whose echo keeps only the keys written.  ``build_plan`` takes
what ``validate_config`` returned, materializes datasets, cuts client
shards, checks the SimPlan with ``validate_plan`` and returns it with the
Timeline that check compiled and the config it came from.  That resolved
config is echoed into summary.json, and feeding the echo back through this
module reproduces the same plan.
"""

from __future__ import annotations

import copy
import csv
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

from .models import Dataset, ModelSpec, TrainConfig
from .orchestrator import (
    AGGREGATORS,
    DELAY,
    JOIN,
    LEAVE,
    ClientSetup,
    IntermittencyEvent,
    NoiseConfig,
    PolicyConfig,
    SimPlan,
    Timeline,
    clock_bound,
    validate_plan,
)
from .partition import (
    RANDOM_UNIFORM,
    InfeasiblePartition,
    PartitionPlan,
    make_synthetic,
    partition,
    read_dataset_csv,
    relabel_shard,
    synthetic_source,
)
from .report import centralized_comparison
from .rules import choice, integer, positive
from .seeding import rng_from

SWEEP_VARIABLES = ("client-count", "N_r", "policy")
REPORT_FORMATS = ("csv", "json")
_MAX_NESTING = 100  # far deeper than the schema, well inside copy.deepcopy's recursion limit


class ConfigParseError(ValueError):
    """Structural problem: bad JSON, unknown key, missing key, wrong type."""


class ConfigValidationError(ValueError):
    """Well-formed config with inconsistent or infeasible values."""


def sweep_value(variable: str, text: str, where: str) -> int | str:
    """A sweep value as ``--values`` and the ``sweeps`` keys write it (``where``):
    an integer for ``client-count`` and ``N_r``, the stripped text for ``policy``."""
    if variable == "policy":
        return text.strip()
    try:
        return int(text)
    except ValueError:
        raise ConfigValidationError(f"{where}: expected an integer, got {text.strip()!r}") from None


@dataclass(frozen=True)
class RunConfig:
    """A checked plan, the Timeline its check compiled, and the config it was built from."""

    plan: SimPlan
    timeline: Timeline  # what validate_plan(plan) returned
    echo: dict  # resolved config, defaults filled in


def _require(obj: dict, path: str, required: dict[str, type | tuple], optional: dict | None = None,
             owner: type | None = None) -> None:
    """Check ``obj``'s keys and their types, then give each absent optional
    key ``owner``'s field default, if it has one other than None."""
    if not isinstance(obj, dict):
        raise ConfigParseError(f"{path or 'config'}: expected an object")
    schema, prefix = {**required, **(optional or {})}, f"{path}." if path else ""
    for key in obj:
        if key not in schema:
            raise ConfigParseError(f"{prefix}{key}: unknown key")
    for key in required:
        if key not in obj:
            raise ConfigParseError(f"{prefix}{key}: missing required key")
    for key, types in schema.items():
        if key in obj:
            _check_type(obj[key], types, prefix + key)
    for f in fields(owner) if owner else ():
        if f.name in (optional or {}) and f.default is not None:
            obj.setdefault(f.name, f.default)


def _check_type(value: Any, types: type | tuple, path: str) -> None:
    types = types if isinstance(types, tuple) else (types,)
    if float in types and int not in types:
        types += (int,)  # JSON writes whole numbers without a point
    if not isinstance(value, types) or isinstance(value, bool) and bool not in types:
        expected = "/".join(t.__name__ for t in types)
        raise ConfigParseError(f"{path}: expected {expected}, got {type(value).__name__}")


def _check_items(values: list, types: type | tuple, path: str) -> None:
    for i, value in enumerate(values):
        _check_type(value, types, f"{path}[{i}]")


def _rule(rule, value: Any, path: str, *args, error: type = ConfigValidationError) -> None:
    """A shared rule on a type-checked value; its ValueError reads "<path>: must be ..."."""
    try:
        rule(value, f"{path}:", *args)
    except ValueError as exc:
        raise error(str(exc)) from exc


def _kind(obj: Any, path: str, key: str, kinds: tuple) -> str:
    """The ``key`` that picks an object's schema; a bad one is structural."""
    if not isinstance(obj, dict):
        raise ConfigParseError(f"{path}: expected an object")
    _rule(choice, obj.get(key), f"{path}.{key}", kinds, error=ConfigParseError)
    return obj[key]


def _build(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ValueError re-raised naming the config path."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigValidationError(f"{path}: {exc}") from exc


def load_config_file(path: str | Path) -> dict:
    """Read and structurally validate a JSON config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an int past the digit limit, deep nesting
        raise ConfigParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigParseError(f"{path}: top level must be a JSON object")
    level = [raw]  # walked level by level, so the walk itself never recurses
    for _ in range(_MAX_NESTING):
        level = [v for node in level for v in (node.values() if isinstance(node, dict) else node)
                 if isinstance(v, (dict, list))]
    if level:
        raise ConfigParseError(f"{path}: nests too deeply (more than {_MAX_NESTING} levels)")
    return raw


_SOURCE_KEYS = {
    "synthetic": (
        {"type": str, "class_means": list, "n_per_class": list, "seed": int},
        {"cov_scale": float},
    ),
    "csv": ({"type": str, "path": str}, {}),
    "holdout": ({"type": str, "fraction": float, "seed": int}, {}),
}


_EVENT_KEYS = {
    LEAVE: {"round": int, "kind": str, "client": int},
    JOIN: {"round": int, "kind": str, "client": int, "epoch_time_s": float, "data": dict},
    DELAY: {"round": int, "kind": str, "client": int, "resume_round": int},
}


def _validate_source(obj: Any, path: str, allow_holdout: bool = False) -> None:
    kind = _kind(obj, path, "type", ("synthetic", "csv") + (("holdout",) if allow_holdout else ()))
    required, optional = _SOURCE_KEYS[kind]
    _require(obj, path, required, optional)
    if kind == "synthetic":
        _check_items(obj["class_means"], list, f"{path}.class_means")
        for i, mean in enumerate(obj["class_means"]):
            _check_items(mean, float, f"{path}.class_means[{i}]")
        _check_items(obj["n_per_class"], int, f"{path}.n_per_class")
        _build(path, synthetic_source, *_synthetic_args(obj))
    elif kind == "holdout":
        frac = obj["fraction"]
        if not (0.0 < frac < 1.0):
            raise ConfigValidationError(f"{path}.fraction: must lie in (0, 1)")
        _rule(integer, obj["seed"], f"{path}.seed")


def _domain_values(cfg: dict) -> dict:
    """Build the data-free domain value of every section of a validated config."""
    return {
        "model": _build("model", ModelSpec, **cfg["model"]),
        "train": _build("train", TrainConfig, **cfg["train"]),
        "policy": _build("policy", PolicyConfig, **cfg["policy"]),
        "noise": None if cfg["noise"] is None else _build("noise", NoiseConfig, **cfg["noise"]),
        "partition": _build(
            "data.partition",
            PartitionPlan,
            client_count=len(cfg["clients"]),
            **cfg["data"]["partition"],
        ),
        "events": [_event(ev, f"events[{i}]") for i, ev in enumerate(cfg["events"])],
    }


def _event(ev: dict, path: str) -> IntermittencyEvent | PartitionPlan:
    """A leave or delay event; for a join, the plan that cuts its shard."""
    if ev["kind"] != JOIN:
        return _build(
            path, IntermittencyEvent, ev["round"], ev["kind"], ev["client"],
            resume_round=ev.get("resume_round"),
        )
    # The join event itself needs the shard, and so the data; its round and
    # client follow the same rules as a leave's.
    _build(path, IntermittencyEvent.leave, ev["round"], ev["client"])
    split = {key: value for key, value in ev["data"].items() if key != "source"}
    return _build(f"{path}.data", PartitionPlan, RANDOM_UNIFORM, 1, **split)


def validate_clients(clients: Any) -> None:
    """The ``clients`` rules: a nonempty list of {id, epoch_time_s}, ids unique."""
    _check_type(clients, list, "clients")
    if not clients:
        raise ConfigValidationError("clients: at least one client is required")
    seen_ids = set()
    for i, cl in enumerate(clients):
        _require(cl, f"clients[{i}]", {"id": int, "epoch_time_s": float})
        _rule(integer, cl["id"], f"clients[{i}].id")
        _rule(positive, cl["epoch_time_s"], f"clients[{i}].epoch_time_s")
        if cl["id"] in seen_ids:
            raise ConfigValidationError(f"clients[{i}].id: duplicate client id {cl['id']}")
        seen_ids.add(cl["id"])


def validate_data(data: Any) -> None:
    """The ``data`` rules: its sources, and the partition's keys and list items."""
    _require(data, "data", {"source": dict, "global_test": dict, "partition": dict})
    _validate_source(data["source"], "data.source")
    _validate_source(data["global_test"], "data.global_test", allow_holdout=True)
    part = data["partition"]
    _require(part, "data.partition", {"mode": str, "seed": int},
             {"counts": list, "positive_fractions": list, "train_fraction": float}, PartitionPlan)
    _check_items(part.get("counts", []), int, "data.partition.counts")
    _check_items(part.get("positive_fractions", []), float, "data.partition.positive_fractions")


def validate_config(raw: dict) -> dict:
    """Full schema walk; returns the config with defaults filled in."""
    _require(
        raw,
        "",
        {"seed": int, "rounds": int, "model": dict, "train": dict, "data": dict, "clients": list},
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
    _rule(integer, cfg["seed"], "seed")
    _rule(integer, cfg["rounds"], "rounds", 1)

    _require(
        cfg["model"],
        "model",
        {"kind": str, "input_dim": int},
        {"hidden_dim": int, "activation": str},
    )

    # Shuffle seeds always derive from the top-level seed, so a train.seed
    # key is a mistake and gets rejected by the unknown-key rule.
    _require(cfg["train"], "train", {"epochs": int, "batch_size": int, "learning_rate": float})
    _rule(integer, cfg["train"]["epochs"], "train.epochs", 1)
    _rule(positive, cfg["train"]["learning_rate"], "train.learning_rate")

    _rule(choice, cfg.setdefault("aggregator", SimPlan.aggregator), "aggregator", AGGREGATORS)

    _require(cfg.setdefault("policy", {}), "policy", {},
             {"departure": str, "delay": str, "delay_resume_same_round": bool}, PolicyConfig)

    if cfg.setdefault("noise", None) is not None:
        _require(cfg["noise"], "noise", {"amplitude": float}, {"placement": str}, NoiseConfig)

    validate_data(cfg["data"])
    validate_clients(cfg["clients"])

    events = cfg.setdefault("events", [])
    for i, ev in enumerate(events):
        epath = f"events[{i}]"
        kind = _kind(ev, epath, "kind", tuple(_EVENT_KEYS))
        _require(ev, epath, _EVENT_KEYS[kind])
        if kind == JOIN:
            _rule(positive, ev["epoch_time_s"], f"{epath}.epoch_time_s")
            _require(ev["data"], f"{epath}.data", {"source": dict},
                     {"train_fraction": float, "seed": int}, PartitionPlan)
            _validate_source(ev["data"]["source"], f"{epath}.data.source")

    cfg.setdefault("report_formats", list(REPORT_FORMATS))
    for i, fmt in enumerate(cfg["report_formats"]):
        _rule(choice, fmt, f"report_formats[{i}]", REPORT_FORMATS)
    if not cfg["report_formats"]:
        raise ConfigValidationError("report_formats: at least one format is required")

    cfg.setdefault("roc_rounds", [])
    _check_items(cfg["roc_rounds"], int, "roc_rounds")
    for r in cfg["roc_rounds"]:
        if r < 1 or r > cfg["rounds"]:
            raise ConfigValidationError(f"roc_rounds: round {r!r} outside 1..{cfg['rounds']}")

    if "centralized_epoch_time_s" in cfg:
        _rule(positive, cfg["centralized_epoch_time_s"], "centralized_epoch_time_s")

    for var, table in cfg.get("sweeps", {}).items():
        _rule(choice, var, f"sweeps.{var}", SWEEP_VARIABLES, error=ConfigParseError)
        if not isinstance(table, dict):
            raise ConfigParseError(f"sweeps.{var}: expected an object keyed by value")
        keyed = cfg["sweeps"][var] = {}  # by the value each key names, as the sweep looks it up
        for key, override in table.items():
            _check_type(override, dict, f"sweeps.{var}.{key}")
            value = str(sweep_value(var, key, f"sweeps.{var}.{key}"))
            if value in keyed:
                raise ConfigValidationError(f"sweeps.{var}.{key}: another key names the value {value}")
            keyed[value] = override

    _domain_values(cfg)
    return cfg


def _synthetic_args(obj: dict) -> tuple:
    """A synthetic source's ``make_synthetic`` arguments, in order."""
    return obj["class_means"], obj.get("cov_scale", 1.0), obj["n_per_class"], obj["seed"]


def _materialize_source(obj: dict, base_dir: Path, path: str) -> Dataset:
    try:
        if obj["type"] == "synthetic":
            return make_synthetic(*_synthetic_args(obj))
        return read_dataset_csv((base_dir / obj["path"]).resolve())
    except (OSError, ValueError, MemoryError) as exc:  # MemoryError: a source too large to hold
        where = f"{path}.path" if obj["type"] == "csv" else path
        raise ConfigValidationError(f"{where}: {exc}") from exc
    except csv.Error as exc:  # a field past csv.field_size_limit(); csv names no file
        file = (base_dir / obj["path"]).resolve()
        raise ConfigValidationError(f"{path}.path: {file}: {exc}") from exc


def _holdout_split(master: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    order = rng_from(seed).permutation(master.n)
    n_test = max(1, round(float(fraction) * master.n))
    if n_test >= master.n:
        raise ConfigValidationError("data.global_test.fraction leaves no training data")
    # The two halves of one permutation: distinct positions, so the rows keep master's checks.
    return master._rows(order[n_test:]), master._rows(order[:n_test])


def build_plan(cfg: dict, base_dir: str | Path = ".") -> RunConfig:
    """Materialize datasets and assemble the SimPlan a config describes, checked and
    compiled by ``validate_plan``; ``cfg`` is what ``validate_config`` returned."""
    values = _domain_values(cfg)
    base_dir = Path(base_dir)

    master = _materialize_source(cfg["data"]["source"], base_dir, "data.source")
    gt_cfg = cfg["data"]["global_test"]
    if gt_cfg["type"] == "holdout":
        master, global_test = _holdout_split(master, gt_cfg["fraction"], gt_cfg["seed"])
    else:
        global_test = _materialize_source(gt_cfg, base_dir, "data.global_test")

    try:
        shards = partition(master, values["partition"])
    except InfeasiblePartition as exc:
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
    for i, (ev, value) in enumerate(zip(cfg["events"], values["events"])):
        if ev["kind"] == JOIN:
            data = _materialize_source(ev["data"]["source"], base_dir, f"events[{i}].data.source")
            shard = relabel_shard(partition(data, value)[0], ev["client"])
            value = IntermittencyEvent.join(ev["round"], ev["client"], shard, ev["epoch_time_s"])
        events.append(value)

    plan = SimPlan(
        model=values["model"],
        train=values["train"],
        n_rounds=cfg["rounds"],
        clients=clients,
        global_test=global_test,
        seed=cfg["seed"],
        events=tuple(events),
        policy=values["policy"],
        aggregator=cfg["aggregator"],
        noise=values["noise"],
    )
    timeline = validate_plan(plan)
    # A shorter run's saving lies between the longest clock's and 100%, so this one check holds.
    if not all(map(math.isfinite, centralized_comparison(plan, cfg, clock_bound(plan)).values())):
        raise ConfigValidationError("centralized_epoch_time_s: its time or saving exceeds a float")
    return RunConfig(plan=plan, timeline=timeline, echo=cfg)


def deep_merge(base: dict, override: dict) -> dict:
    """Recursive dict merge; override wins, lists and scalars replace."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out
