"""Command-line front end: run, sweep, validate.

Exit codes: 0 success, 2 config parse error, 3 validation error,
4 policy starvation at runtime, 5 a client's training diverged (non-finite
parameters).  Runs that stop with 4 or 5 still write the completed rounds
to rounds.csv and events.log.  The output directory resolves in the
order --out flag, config output_dir, FEDSIM_OUT environment variable.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace
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
    validate_config,  # noqa: F401  (bench/spans.py traces fedsim.cli.validate_config)
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
    centralized_time,
    time_reduction_pct,
    write_partial_outputs,
    write_run_outputs,
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
        p.add_argument("--format", help="comma-separated subset of csv,json")
        p.add_argument("--seed", type=int, help="override the config seed")

    common(sub.add_parser("run", help="execute one simulation"))
    sweep = sub.add_parser("sweep", help="run one simulation per value of a variable")
    common(sweep)
    sweep.add_argument("--variable", required=True, choices=SWEEP_VARIABLES)
    sweep.add_argument("--values", required=True, help="comma-separated sweep values")
    common(sub.add_parser("validate", help="check a config and print derived quantities"))
    return parser


def _load(args: argparse.Namespace) -> RunConfig:
    """Validate and build the config file once, then apply --seed and --format."""
    rc = build_plan(load_config_file(args.config), base_dir=Path(args.config).parent)
    echo, plan, formats = dict(rc.echo), rc.plan, rc.report_formats
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigValidationError("--seed must be >= 0")
        # The top-level seed keys only the run's randomness, never the data.
        echo["seed"] = args.seed
        plan = replace(plan, seed=args.seed)
    if args.format:
        formats = [f.strip() for f in args.format.split(",") if f.strip()]
        for fmt in formats:
            if fmt not in REPORT_FORMATS:
                raise ConfigValidationError(f"--format: unknown format {fmt!r}")
        if not formats:
            raise ConfigValidationError(f"--format: expected a subset of {','.join(REPORT_FORMATS)}")
        echo["report_formats"] = formats
        formats = tuple(formats)
    return replace(rc, plan=plan, report_formats=formats, echo=echo)


def _resolve_out(args: argparse.Namespace, rc: RunConfig) -> Path:
    if args.out:
        return Path(args.out)
    if rc.output_dir:
        return Path(args.config).parent / rc.output_dir
    env = os.environ.get("FEDSIM_OUT")
    if env:
        return Path(env)
    raise ConfigValidationError(
        "no output directory: set output_dir in the config, pass --out, or export FEDSIM_OUT"
    )


def _run_and_write(rc: RunConfig, out_dir: Path, label: str = "") -> RunReport | int:
    """Run the plan and write its outputs.  A starved or diverged run writes
    only its completed rounds and yields its exit code instead of a report."""
    try:
        report = run(rc.plan)
    except RunAborted as exc:
        write_partial_outputs(exc.completed, exc.audit_log, out_dir)
        print(f"error: {label}{exc}", file=sys.stderr)
        return EXIT_STARVATION if isinstance(exc, PolicyStarvationError) else EXIT_DIVERGED
    write_run_outputs(
        report,
        out_dir,
        formats=rc.report_formats,
        roc_rounds=rc.roc_rounds,
        config_echo={**rc.echo, "output_dir": str(out_dir)},
        centralized_epoch_time_s=rc.centralized_epoch_time_s,
    )
    return report


def cmd_run(args: argparse.Namespace) -> int:
    rc = _load(args)
    out_dir = _resolve_out(args, rc)
    report = _run_and_write(rc, out_dir)
    if isinstance(report, int):
        return report
    s = report.summary
    print(f"completed {s.rounds_completed} rounds in {s.total_sim_time_s!r} simulated seconds")
    print(
        f"final loss={s.final.loss!r} accuracy={s.final.accuracy!r} auc={s.final.auc!r}"
    )
    print(f"outputs written to {out_dir}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    rc = _load(args)
    validate_plan(rc.plan)
    plan = rc.plan
    print("config ok")
    print(f"clients: {len(plan.clients)}")
    print(f"parameter_count: {plan.model.param_count}")
    print(f"rounds: {plan.n_rounds} epochs_per_round: {plan.train.epochs}")
    times = [c.epoch_time_s for c in plan.clients]
    print(f"static_sim_time_s: {static_sim_time(plan.n_rounds, plan.train.epochs, times)!r}")
    if rc.centralized_epoch_time_s is not None:
        print(f"centralized_time_s: {centralized_time(plan, rc.centralized_epoch_time_s)!r}")
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
        parsed = []
        for v in values:
            if "+" not in v:
                raise ConfigValidationError(
                    f"--values: policy values look like departure+delay, got {v!r}"
                )
            dep, _, dl = v.partition("+")
            parsed.append((v, dep, dl))
        return parsed
    try:
        ints = [int(v) for v in values]
    except ValueError as exc:
        raise ConfigValidationError(f"--values: expected integers for {variable}") from exc
    if any(v < 1 for v in ints):
        raise ConfigValidationError(f"--values: {variable} values must be >= 1")
    return sorted(set(ints))


def _derive_sweep_config(cfg: dict, variable: str, value, index: int) -> dict:
    derived = deep_merge(cfg, {})
    derived.pop("sweeps", None)
    override = cfg.get("sweeps", {}).get(variable, {}).get(str(value))
    if override:
        derived = deep_merge(derived, override)
        derived.pop("sweeps", None)
    if variable == "N_r":
        derived["rounds"] = value
        derived["seed"] = sweep_seed(cfg["seed"], index)
    elif variable == "client-count":
        k = value
        if len(derived["clients"]) != k:
            times = {c["epoch_time_s"] for c in derived["clients"]}
            if len(times) != 1:
                raise ConfigValidationError(
                    f"client-count={k}: add a sweeps override, or give every base client the "
                    "same epoch_time_s so the list can be resized automatically"
                )
            t = times.pop()
            derived["clients"] = [{"id": i + 1, "epoch_time_s": t} for i in range(k)]
        part = derived["data"]["partition"]
        for key in ("counts", "positive_fractions"):
            if key in part and len(part[key]) != len(derived["clients"]):
                raise ConfigValidationError(
                    f"client-count={k}: partition {key} has {len(part[key])} entries; "
                    "add a sweeps override or use random-uniform partitioning"
                )
        derived["seed"] = sweep_seed(cfg["seed"], index)
    else:  # policy: keep the base seed so trajectories stay comparable
        _, dep, dl = value
        derived.setdefault("policy", {})
        derived["policy"]["departure"] = dep
        derived["policy"]["delay"] = dl
    return derived


def cmd_sweep(args: argparse.Namespace) -> int:
    base_rc = _load(args)
    cfg = base_rc.echo
    values = _parse_sweep_values(args.variable, args.values)
    sweep_root = _resolve_out(args, base_rc) / f"sweep_{args.variable.replace('_', '-')}"
    rows = []
    for index, value in enumerate(values):
        label = value[0] if args.variable == "policy" else str(value)
        derived_cfg = _derive_sweep_config(cfg, args.variable, value, index)
        rc = build_plan(derived_cfg, base_dir=Path(args.config).parent)
        run_dir = sweep_root / f"{args.variable}={label}"
        report = _run_and_write(rc, run_dir, f"{args.variable}={label}: ")
        if isinstance(report, int):
            return report
        s = report.summary
        row = {
            "variable": args.variable,
            "value": label,
            "loss": s.final.loss,
            "accuracy": s.final.accuracy,
            "auc": s.final.auc,
            "rounds": s.rounds_completed,
            "sim_time_s": s.total_sim_time_s,
            "centralized_time_s": "",
            "time_reduction_pct": "",
            "avg_best_client_loss": s.client_avg_best_loss,
            "avg_best_client_accuracy": s.client_avg_best_accuracy,
        }
        if rc.centralized_epoch_time_s is not None:
            ct = centralized_time(rc.plan, rc.centralized_epoch_time_s)
            row["centralized_time_s"] = ct
            row["time_reduction_pct"] = time_reduction_pct(s.total_sim_time_s, ct)
        rows.append(row)
        print(f"{args.variable}={label}: sim_time_s={s.total_sim_time_s!r}")

    sweep_root.mkdir(parents=True, exist_ok=True)
    comparison = sweep_root / "comparison.csv"
    cols = [
        "variable",
        "value",
        "loss",
        "accuracy",
        "auc",
        "rounds",
        "sim_time_s",
        "centralized_time_s",
        "time_reduction_pct",
    ]
    with comparison.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in rows:
            writer.writerow(
                [repr(row[c]) if isinstance(row[c], float) else row[c] for c in cols]
            )
    print(f"comparison written to {comparison}")
    if args.variable == "policy":
        averages = sweep_root / "averages.csv"
        with averages.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["policy", "avg_best_client_loss", "avg_best_client_accuracy"])
            for row in rows:
                writer.writerow(
                    [
                        row["value"],
                        repr(row["avg_best_client_loss"]),
                        repr(row["avg_best_client_accuracy"]),
                    ]
                )
        print(f"per-client-best averages written to {averages}")
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


if __name__ == "__main__":
    sys.exit(main())
