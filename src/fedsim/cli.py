"""Command-line front end: run, sweep, validate.

Exit codes: 0 success, 2 config parse error, 3 validation error,
4 policy starvation at runtime, 5 non-finite parameters from a client's
training or the noise; ``main`` maps every error to its code.  Runs that
stop with 4 or 5 still write the completed rounds to rounds.csv and
events.log.  The output directory resolves in the order --out flag, config
output_dir, FEDSIM_OUT environment variable, and must lie under a writable
directory; an output file that cannot be written there is a validation error.
--seed and --format are edits to the config before its one validation.
``validate`` prints the times it derives, and each client's, as floats.

A sweep validates the base config without building it, then validates and
builds every value's config, once, before the first value runs: the base
deep-merged with its ``sweeps.<variable>.<value>`` override (``--values``
and the override keys are read alike, by ``config.sweep_value``) and then
with the variable's own edit, which wins.  A value's errors are prefixed
``<variable>=<value>: ``.  Values run in order, each trajectory once: values
that differ only in policy and whose Timelines, as each value's build
compiled them, agree share one run, and each later one writes that run's
outputs with its own config echo.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .config import (
    REPORT_FORMATS,
    SWEEP_VARIABLES,
    ConfigParseError,
    ConfigValidationError,
    RunConfig,
    _materialize_source,
    build_plan,
    deep_merge,
    load_config_file,
    sweep_value,
    validate_clients,
    validate_config,
    validate_data,
)
from .orchestrator import (
    PlanValidationError,
    PolicyStarvationError,
    RunAborted,
    RunReport,
    run,
    static_sim_time,
    sweep_seed,
)
from .report import (
    centralized_comparison,
    write_partial_outputs,
    write_run_outputs,
    write_sweep_tables,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_STARVATION = 4
EXIT_DIVERGED = 5


@functools.cache  # one parser per process: parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim", description="deterministic federated-averaging simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--out", help="output directory (overrides config and FEDSIM_OUT)")
        p.add_argument("--format", help=f"comma-separated subset of {','.join(REPORT_FORMATS)}")
        p.add_argument("--seed", type=int, help="override the config seed")

    common(sub.add_parser("run", help="execute one simulation"))
    sweep = sub.add_parser("sweep", help="run one simulation per value of a variable")
    common(sweep)
    sweep.add_argument("--variable", required=True, choices=SWEEP_VARIABLES)
    sweep.add_argument("--values", required=True, help="comma-separated sweep values")
    common(sub.add_parser("validate", help="check a config and print derived quantities"))
    return parser


def _edited_config(args: argparse.Namespace) -> dict:
    """The config file with --seed and --format written into it, validated, so
    the config's own rules check them and name them ``seed`` and ``report_formats``."""
    raw = load_config_file(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.format is not None:
        raw["report_formats"] = [f.strip() for f in args.format.split(",") if f.strip()]
    return validate_config(raw)


def _resolve_out(args: argparse.Namespace, cfg: dict) -> Path:
    """The output directory, refused before anything runs unless its nearest
    existing ancestor is a writable directory."""
    if args.out:
        source, out = "--out", Path(args.out)
    elif cfg.get("output_dir"):
        source, out = "output_dir", Path(args.config).parent / cfg["output_dir"]
    elif os.environ.get("FEDSIM_OUT"):
        source, out = "FEDSIM_OUT", Path(os.environ["FEDSIM_OUT"])
    else:
        raise ConfigValidationError(
            "no output directory: set output_dir in the config, pass --out, or export FEDSIM_OUT"
        )
    base = next((p for p in (out, *out.parents) if p.exists()), out)
    if not (base.is_dir() and os.access(base, os.W_OK | os.X_OK)):
        raise ConfigValidationError(f"{source}: cannot write {out}: {base} is not a writable directory")
    return out


def _written(write, *args, **kwargs):
    """``write(*args, **kwargs)``; an output it cannot write is a validation error naming it."""
    try:
        return write(*args, **kwargs)
    except OSError as exc:
        raise ConfigValidationError(f"cannot write {exc.filename}: {exc.strerror}") from exc


def _run_and_write(rc: RunConfig, out_dir: Path, report: RunReport | None = None) -> RunReport:
    """Run the plan, unless ``report`` ran a plan of the same trajectory, and write the outputs
    with ``rc``'s ROC rounds and echo, which sets the formats and the centralized epoch time.
    An aborted run writes only its completed rounds and re-raises."""
    if report is None:
        try:
            report = run(rc.plan)
        except RunAborted as exc:
            _written(write_partial_outputs, exc.completed, exc.audit_log, out_dir)
            raise
    _written(write_run_outputs, report, out_dir, rc.echo["roc_rounds"], rc.echo)
    return report


def cmd_run(args: argparse.Namespace) -> int:
    rc = build_plan(_edited_config(args), base_dir=Path(args.config).parent)
    out_dir = _resolve_out(args, rc.echo)
    s = _run_and_write(rc, out_dir).summary
    print(f"completed {s.rounds_completed} rounds in {s.total_sim_time_s!r} simulated seconds")
    print(
        f"final loss={s.final.loss!r} accuracy={s.final.accuracy!r} auc={s.final.auc!r}"
    )
    print(f"outputs written to {out_dir}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    rc = build_plan(_edited_config(args), base_dir=Path(args.config).parent)
    plan = rc.plan
    print("config ok")
    print(f"clients: {len(plan.clients)}")
    print(f"parameter_count: {plan.model.param_count}")
    print(f"rounds: {plan.n_rounds} epochs_per_round: {plan.train.epochs}")
    static = static_sim_time(plan.n_rounds, plan.train.epochs, [c.epoch_time_s for c in plan.clients])
    print(f"static_sim_time_s: {static!r}")
    baseline = centralized_comparison(plan, rc.echo, static)
    if baseline:
        print(f"centralized_time_s: {baseline['centralized_time_s']!r}")
    for c in plan.clients:
        print(
            f"client {c.client_id}: n_train={c.shard.n_train} n_test={c.shard.test.n} "
            f"epoch_time_s={c.epoch_time_s!r}"
        )
    return EXIT_OK


def _parse_sweep_values(variable: str, raw: str) -> list:
    """The distinct values of ``--values``: integers ascending, policies in first-given order."""
    texts = [v for v in raw.split(",") if v.strip()]
    if not texts:
        raise ConfigValidationError("--values: expected at least one value")
    values = dict.fromkeys(sweep_value(variable, v, "--values") for v in texts)
    return list(values) if variable == "policy" else sorted(values)


def _sweep_edit(cfg: dict, variable: str, value, seed: int, base_dir: Path) -> dict:
    """The keys a swept value sets, given its merged config, derived seed and config directory
    (a policy sweep keeps the config's seed, so trajectories stay comparable)."""
    if variable == "policy":
        departure, _, delay = value.partition("+")
        return {"policy": {"departure": departure, "delay": delay}}
    if variable == "N_r":
        return {"rounds": value, "seed": seed}
    clients, data = cfg["clients"], cfg["data"]
    validate_clients(clients)
    if len(clients) == value:
        return {"seed": seed}
    times = {c["epoch_time_s"] for c in clients}
    if len(times) != 1:
        raise ConfigValidationError(
            "add a sweeps override, or give every base client the same "
            "epoch_time_s so the list can be resized automatically"
        )
    # Refuse a count the data cannot serve before a list that long is built.
    validate_data(data)
    part, source = data["partition"], data["source"]
    for key in ("counts", "positive_fractions"):
        if key in part and len(part[key]) != value:
            raise ConfigValidationError(f"data.partition.{key}: lists {len(part[key])} clients")
    key = "n_per_class" if source["type"] == "synthetic" else "path"  # a CSV is read to count
    rows = sum(source[key]) if key != "path" else _materialize_source(source, base_dir, "data.source").n
    if value > rows:
        raise ConfigValidationError(f"data.source.{key}: {rows} rows cannot serve {value} clients")
    t = times.pop()
    return {"seed": seed, "clients": [{"id": i + 1, "epoch_time_s": t} for i in range(value)]}


def cmd_sweep(args: argparse.Namespace) -> int:
    base = _edited_config(args)
    overrides = base.pop("sweeps", {}).get(args.variable, {})
    values = _parse_sweep_values(args.variable, args.values)
    out_dir = _resolve_out(args, base)
    sweep_root = out_dir / f"sweep_{args.variable.replace('_', '-')}"
    base_dir = Path(args.config).parent
    built, runs = [], []
    try:
        for index, value in enumerate(values):
            name = f"{args.variable}={value}"
            cfg = deep_merge(base, overrides.get(str(value), {}))  # validate_config keyed them so
            edit = _sweep_edit(cfg, args.variable, value, sweep_seed(base["seed"], index), base_dir)
            built.append(build_plan(validate_config(deep_merge(cfg, edit)), base_dir))
        # One run per trajectory, keyed by the config but its policy and the policy as the build
        # compiled it into the Timeline; a run is kept only while a later value shares its key.
        keys = [(json.dumps({**rc.echo, "policy": None}, sort_keys=True),
                 tuple(rc.timeline.phases.items()), rc.timeline.departure) for rc in built]
        shared = {}
        for i, (value, rc, key) in enumerate(zip(values, built, keys)):  # all built and checked
            name = f"{args.variable}={value}"
            report = _run_and_write(rc, sweep_root / name, shared.pop(key, None))
            if key in keys[i + 1:]:
                shared[key] = report
            s = report.summary
            baseline = centralized_comparison(rc.plan, rc.echo, s.total_sim_time_s)
            runs.append((str(value), s, baseline))
            print(f"{name}: sim_time_s={s.total_sim_time_s!r}")
    except (ConfigParseError, ConfigValidationError, PlanValidationError, RunAborted) as exc:
        exc.args = (f"{name}: {exc}",)  # name is the value that failed
        raise

    comparison, *averages = _written(write_sweep_tables, args.variable, runs, sweep_root)
    print(f"comparison written to {comparison}")
    for path in averages:
        print(f"per-client-best averages written to {path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "sweep": cmd_sweep, "validate": cmd_validate}
    try:
        return handlers[args.command](args)
    except ConfigParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ConfigValidationError, PlanValidationError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RunAborted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STARVATION if isinstance(exc, PolicyStarvationError) else EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
