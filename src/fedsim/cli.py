"""Command-line front end: run, sweep, validate.

Exit codes: 0 success, 2 config parse error, 3 validation error,
4 policy starvation at runtime, 5 non-finite parameters from a client's
training or the noise; ``main`` maps every error to its code.  Runs that
stop with 4 or 5 still write the completed rounds to rounds.csv and
events.log.  The output directory resolves in the order --out flag, config
output_dir, FEDSIM_OUT environment variable, and must lie under a writable
directory; an output file that cannot be written there is a validation error.
--seed and --format are edits to the config before its one validation.

A sweep validates the base config without building it, then every value's
config, once, before the first value runs: the base deep-merged with its
``sweeps.<variable>.<value>`` override (keyed by the value as written,
``departure+delay`` for policy) and then with the variable's own edit, which
wins.  Errors that need the data surface only when a value is built.  A
value's errors are prefixed ``<variable>=<value>: ``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import (
    REPORT_FORMATS,
    SWEEP_VARIABLES,
    ConfigParseError,
    ConfigValidationError,
    RunConfig,
    build_plan,
    deep_merge,
    load_config_file,
    validate_clients,
    validate_config,
)
from .orchestrator import (
    PlanValidationError,
    PolicyStarvationError,
    RunAborted,
    RunReport,
    run,
    static_sim_time,
    sweep_seed,
    validate_plan,
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


def _resolve_out(args: argparse.Namespace, output_dir: str | None) -> Path:
    """The output directory, refused before anything runs unless its nearest
    existing ancestor is a writable directory."""
    if args.out:
        source, out = "--out", Path(args.out)
    elif output_dir:
        source, out = "output_dir", Path(args.config).parent / output_dir
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


def _run_and_write(rc: RunConfig, out_dir: Path) -> RunReport:
    """Run the plan and write its outputs.  An aborted run writes only its
    completed rounds and re-raises."""
    try:
        report = run(rc.plan)
    except RunAborted as exc:
        _written(write_partial_outputs, exc.completed, exc.audit_log, out_dir)
        raise
    _written(
        write_run_outputs,
        report,
        out_dir,
        formats=rc.report_formats,
        roc_rounds=rc.roc_rounds,
        config_echo=rc.echo,
        centralized_epoch_time_s=rc.centralized_epoch_time_s,
    )
    return report


def cmd_run(args: argparse.Namespace) -> int:
    rc = build_plan(_edited_config(args), base_dir=Path(args.config).parent)
    out_dir = _resolve_out(args, rc.output_dir)
    s = _run_and_write(rc, out_dir).summary
    print(f"completed {s.rounds_completed} rounds in {s.total_sim_time_s!r} simulated seconds")
    print(
        f"final loss={s.final.loss!r} accuracy={s.final.accuracy!r} auc={s.final.auc!r}"
    )
    print(f"outputs written to {out_dir}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    rc = build_plan(_edited_config(args), base_dir=Path(args.config).parent)
    validate_plan(rc.plan)
    plan = rc.plan
    print("config ok")
    print(f"clients: {len(plan.clients)}")
    print(f"parameter_count: {plan.model.param_count}")
    print(f"rounds: {plan.n_rounds} epochs_per_round: {plan.train.epochs}")
    times = [c.epoch_time_s for c in plan.clients]
    static = static_sim_time(plan.n_rounds, plan.train.epochs, times)
    print(f"static_sim_time_s: {static!r}")
    baseline = centralized_comparison(plan, rc.centralized_epoch_time_s, static)
    if baseline:
        print(f"centralized_time_s: {baseline['centralized_time_s']!r}")
    for c in plan.clients:
        print(
            f"client {c.client_id}: n_train={c.shard.n_train} n_test={c.shard.test.n} "
            f"epoch_time_s={c.epoch_time_s!r}"
        )
    return EXIT_OK


def _parse_sweep_values(variable: str, raw: str) -> list:
    values = [v.strip() for v in raw.split(",") if v.strip()]
    if not values:
        raise ConfigValidationError("--values: expected at least one value")
    if variable == "policy":
        for v in values:
            if "+" not in v:
                raise ConfigValidationError(
                    f"--values: policy values look like departure+delay, got {v!r}"
                )
        return values
    try:
        return sorted({int(v) for v in values})
    except ValueError as exc:
        raise ConfigValidationError(f"--values: expected integers for {variable}") from exc


def _sweep_edit(cfg: dict, variable: str, value, seed: int) -> dict:
    """The keys a swept value sets, given its merged config and derived seed
    (a policy sweep keeps the config's seed, so trajectories stay comparable)."""
    if variable == "policy":
        departure, _, delay = value.partition("+")
        return {"policy": {"departure": departure, "delay": delay}}
    if variable == "N_r":
        return {"rounds": value, "seed": seed}
    clients = cfg["clients"]
    validate_clients(clients)
    if len(clients) == value:
        return {"seed": seed}
    times = {c["epoch_time_s"] for c in clients}
    if len(times) != 1:
        raise ConfigValidationError(
            "add a sweeps override, or give every base client the same "
            "epoch_time_s so the list can be resized automatically"
        )
    t = times.pop()
    return {"seed": seed, "clients": [{"id": i + 1, "epoch_time_s": t} for i in range(value)]}


def cmd_sweep(args: argparse.Namespace) -> int:
    base = _edited_config(args)
    overrides = base.pop("sweeps", {}).get(args.variable, {})
    values = _parse_sweep_values(args.variable, args.values)
    out_dir = _resolve_out(args, base.get("output_dir"))
    sweep_root = out_dir / f"sweep_{args.variable.replace('_', '-')}"
    configs, runs = [], []
    try:
        for index, value in enumerate(values):
            name = f"{args.variable}={value}"
            cfg = deep_merge(base, overrides.get(str(value), {}))  # keyed by the value as written
            edit = _sweep_edit(cfg, args.variable, value, sweep_seed(base["seed"], index))
            configs.append(validate_config(deep_merge(cfg, edit)))
        for value, cfg in zip(values, configs):  # every value checked, now run each
            name = f"{args.variable}={value}"
            rc = build_plan(cfg, base_dir=Path(args.config).parent)
            s = _run_and_write(rc, sweep_root / name).summary
            baseline = centralized_comparison(rc.plan, rc.centralized_epoch_time_s, s.total_sim_time_s)
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
