"""Run one workload in this process and print its measurements as one JSON line.

``run.py`` starts this script in a fresh process with single-threaded
BLAS and ``src`` on the import path; it is not meant to be run by hand.

A pass is what a user waits for.  For silo-mlp and fleet-churn it is:
build the inputs, ``fedsim.orchestrator.run`` the plan, and
``write_run_outputs``.  For cli-suite it is one call of
``fedsim.cli.main`` per suite command.  Each pass writes into a fresh
directory: overwriting files on ext4 starts their writeback at close,
which made write times depend on the disk.  One untimed warm-up pass comes
first, then timed passes until ``--seconds`` is spent, each after two
timed set-ups.  A short fixed reference loop runs around each set-up,
before each untraced pass, every ``SAMPLE_EVERY_S`` inside it and after
it, and the timings are scaled by how slow the loop ran (see
``SpeedProbe``).  Untraced passes
patch only the ``run`` and ``write_run_outputs`` boundaries (a few spans
per simulation); traced passes patch every layer in ``spans.LAYERS`` and
alternate with untraced ones, so their difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import contextmanager, nullcontext, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import Iterator

import numpy as np

import fedsim.cli
import fedsim.config
import fedsim.orchestrator
import fedsim.report
import workloads
from spans import COUNTERS, LAYERS, PROBES, Tracer, by_name, write_spans
from verify import Verifier

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "data" / "digests.json"
WORK = BENCH_DIR / ".work"
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUPS_PER_PASS = 2
# The reference loop's time at the speed the scaled timings are given in:
# about its median on the 2-vCPU Xeon guest described in README.md.
REFERENCE_S = 0.004
# Pass time between two speed samples taken inside a pass.
SAMPLE_EVERY_S = 0.1
_REF_SMALL = (np.ones((8, 8)), np.ones(8))
_REF_X = np.random.default_rng(0).normal(size=(128, 64))
_REF_W = np.random.default_rng(1).normal(size=(64, 256))


def _reference_python() -> None:
    table: dict[int, list] = {}
    total = 0.0
    for i in range(400):
        total += float((_REF_SMALL[0] @ _REF_SMALL[1])[i % 8])
        table[i & 255] = [i, total]


def _reference_blas() -> None:
    for _ in range(6):
        _REF_X.T @ np.maximum(_REF_X @ _REF_W, 0.0)


def reference_time() -> float:
    """Seconds taken by a fixed mix of small-array interpreter work and BLAS
    of the silo-mlp shapes, about 4 ms.  It is benchmark code, so a change
    to fedsim does not change it."""
    t0 = perf_counter()
    _reference_python()
    _reference_blas()
    _reference_python()
    return perf_counter() - t0


def speed_scale(samples: list[float]) -> float:
    """Factor from measured seconds to seconds at the speed where the
    reference loop takes ``REFERENCE_S``, given ``reference_time`` samples
    spread evenly over the measured time: the mean speed goes with the
    harmonic mean of their durations."""
    return REFERENCE_S / statistics.harmonic_mean(samples)


class SpeedProbe:
    """Samples the host's CPU speed before, during and after one untraced pass.

    The host's CPU speed swings by up to 2x within seconds while CPU time
    keeps pace with wall time, so raw pass times spread by 15-50% between
    runs.  A sample is one ``reference_time``.  Inside the pass one is taken
    after a ``train_local`` call once ``SAMPLE_EVERY_S`` has passed since
    the last; ``spent`` is their total, which the pass's timings leave out.
    ``scale`` turns the pass's seconds into seconds at the speed where the
    loop takes ``REFERENCE_S``.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._next = 0.0

    def sample(self) -> float:
        took = reference_time()
        self.samples.append(took)
        self._next = perf_counter() + SAMPLE_EVERY_S
        return took

    @contextmanager
    def installed(self) -> Iterator[None]:
        original = fedsim.orchestrator.train_local

        def probed(*args, **kwargs):
            result = original(*args, **kwargs)
            if perf_counter() >= self._next:
                self.spent += self.sample()
            return result

        fedsim.orchestrator.train_local = probed
        try:
            yield
        finally:
            fedsim.orchestrator.train_local = original

    @property
    def scale(self) -> float:
        return speed_scale(self.samples)


def timed_setup(workload) -> tuple[float, float] | None:
    """One set-up's seconds, as measured and at the reference speed, the
    latter from speed samples just before and just after it; None when it raised."""
    before = reference_time()
    t0 = perf_counter()
    try:
        workload.setup()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None
    took = perf_counter() - t0
    after = reference_time()
    return took, took * speed_scale([before, after])


class InMemory:
    """silo-mlp or fleet-churn: build a SimPlan, run it, write its outputs."""

    def __init__(self, name: str, build, seed: int):
        self.name, self.build, self.seed = name, build, seed
        self.expected = 1
        self.twins: dict[str, str] = {}

    def setup(self) -> None:
        self.build(self.seed)

    def run_pass(self, out: Path, tracer: Tracer, layers, counters) -> float:
        with tracer.installed(layers, counters):
            t0 = perf_counter()
            inputs = self.build(self.seed)
            report = fedsim.orchestrator.run(inputs.plan)
            fedsim.report.write_run_outputs(report, out, roc_rounds=inputs.roc_rounds)
            t1 = perf_counter()
        return t1 - t0

    def key(self, out: Path, out_dir) -> str:
        return self.name


class CliSuite:
    """The demo commands through ``fedsim.cli.main``, in this process."""

    def __init__(self, seed: int, work: Path):
        self.commands, self.config_paths = workloads.cli_suite(seed, work / "configs")
        self.expected = workloads.CLI_SIMULATIONS
        self.twins = {workloads.CSV_TWIN[0]: workloads.CSV_TWIN[1]}

    def setup(self) -> None:
        for path in self.config_paths:
            cfg = fedsim.config.validate_config(fedsim.config.load_config_file(path))
            fedsim.config.build_plan(cfg, base_dir=path.parent)

    def run_pass(self, out: Path, tracer: Tracer, layers, counters) -> float:
        argvs = [argv + ["--out", str(out / stem)] for argv, stem in self.commands]
        with tracer.installed(layers, counters), redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            for argv in argvs:
                fedsim.cli.main(argv)
            t1 = perf_counter()
        return t1 - t0

    def key(self, out: Path, out_dir) -> str:
        return Path(out_dir).relative_to(out).as_posix()


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree of its own."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=BENCH_DIR, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != BENCH_DIR.parent:
        return "unknown"
    return lines[1]


def environment() -> dict:
    """What the timings depend on besides the code: machine, runtime, BLAS, threads."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')} {blas.get('openblas configuration', '')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.strip(),
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": git_commit(),
    }


def make_workload(name: str, seed: int, work: Path):
    if name == "cli-suite":
        return CliSuite(seed, work)
    build = {"silo-mlp": workloads.silo_mlp, "fleet-churn": workloads.fleet_churn}[name]
    return InMemory(name, build, seed)


def recorded_digests(name: str, seed: int) -> dict[str, str] | None:
    if seed != workloads.DEFAULT_SEED or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(name)


def one_pass(
    workload, out: Path, verifier: Verifier, traced: bool, probe: SpeedProbe | None = None
) -> dict | None:
    """Run, time and check one pass writing under ``out``; None when it raised.

    With a ``probe``, speed samples are taken inside the pass and their time
    is left out of ``wall_s`` and ``sim_wall_s``.

    Only numbers and spans leave this function, so no pass keeps the
    previous pass's plans and reports alive.  ``out`` stays until the run
    ends: deleting it here put the deletions' journal work under the next
    pass's writes.
    """
    gc.collect()
    tracer = Tracer()
    layers, counters = (LAYERS, COUNTERS) if traced else (PROBES, ())
    try:
        with probe.installed() if probe else nullcontext():
            wall_s = workload.run_pass(out, tracer, layers, counters)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        wall_s = None
    sims = [(workload.key(out, args[1]), args[0], args[1]) for args, _ in tracer.kept]
    verifier.check_pass(workload.expected, sims)
    if wall_s is None:
        return None
    spans = tracer.spans
    rows = by_name(spans)
    spent = probe.spent if probe else 0.0
    result = {
        "wall_s": wall_s - spent,
        "sim_wall_s": rows.get("orchestrator.run", {}).get("total_s", 0.0) - spent,
        "write_s": rows.get("report.write_run_outputs", {}).get("total_s", 0.0),
        "fresh": sum(p.fresh for _, r, _ in sims for rec in r.rounds for p in rec.participants),
    }
    if traced:
        result["layers"] = layer_metrics(tracer, rows)
        result["spans"] = spans
        result["train_durations"] = rows.get("models.train_local", {}).get("durations", [])
    return result


def layer_metrics(tracer: Tracer, rows: dict[str, dict]) -> dict[str, float]:
    """The per-layer metrics of one traced pass; ``rows`` is ``by_name(tracer.spans)``."""

    def get(name: str, field: str) -> float:
        return rows[name][field] if name in rows else 0

    reports = [args[0] for args, _ in tracer.kept]
    files = [Path(p) for _, written in tracer.kept for p in (written or ())]
    parts = [
        (i, rec.round_index, p)
        for i, rep in enumerate(reports)
        for rec in rep.rounds
        for p in rec.participants
    ]
    fresh = sum(p.fresh for _, _, p in parts)
    # Trainings whose update entered some aggregation: distinct (run, client, produced round).
    used = {(i, p.client_id, r - p.age) for i, r, p in parts}
    train_calls = get("models.train_local", "calls")
    steps = get("models.loss_and_grad", "calls")
    aggregations = get("aggregation.aggregate", "calls")
    return {
        "models.train_local.calls": train_calls,
        "models.train_local.self_s": get("models.train_local", "self_s"),
        "models.loss_and_grad.calls": steps,
        "models.loss_and_grad.total_s": get("models.loss_and_grad", "total_s"),
        "models.sgd_step_us": 1e6 * get("models.train_local", "total_s") / steps if steps else 0.0,
        "aggregation.aggregate.calls": aggregations,
        "aggregation.aggregate.total_s": get("aggregation.aggregate", "total_s"),
        "aggregation.aggregate.updates_per_call": len(parts) / aggregations if aggregations else 0.0,
        "aggregation.add_uniform_noise.calls": get("aggregation.add_uniform_noise", "calls"),
        "aggregation.add_uniform_noise.total_s": get("aggregation.add_uniform_noise", "total_s"),
        "metrics.evaluate.total_s": get("metrics.evaluate", "total_s"),
        "metrics.forward.total_s": get("metrics.forward", "total_s"),
        "metrics.roc_auc.total_s": get("metrics.roc_auc", "total_s"),
        "metrics.loss_accuracy.calls": get("metrics.loss_accuracy", "calls"),
        "metrics.loss_accuracy.total_s": get("metrics.loss_accuracy", "total_s"),
        "orchestrator.run.self_s": get("orchestrator.run", "self_s"),
        "orchestrator.validate_plan.total_s": get("orchestrator.validate_plan", "total_s"),
        "orchestrator.fresh_updates": fresh,
        "orchestrator.stale_updates": len(parts) - fresh,
        "orchestrator.useful_train_ratio": len(used) / train_calls if train_calls else 0.0,
        "partition.make_synthetic.total_s": get("partition.make_synthetic", "total_s"),
        "partition.partition.total_s": get("partition.partition", "total_s"),
        "partition.read_dataset_csv.total_s": get("partition.read_dataset_csv", "total_s"),
        "config.validate_config.calls": get("config.validate_config", "calls"),
        "config.build_plan.calls": get("config.build_plan", "calls"),
        "config.build_plan.total_s": get("config.build_plan", "total_s"),
        "report.write_run_outputs.total_s": get("report.write_run_outputs", "total_s"),
        "report.write_roc_csvs.total_s": get("report.write_roc_csvs", "total_s"),
        "report.files_written": len(files),
        "report.bytes_written": sum(f.stat().st_size for f in files if f.is_file()),
        "cli.main.calls": get("cli.main", "calls"),
        "cli.main.total_s": get("cli.main", "total_s"),
        "seeding.rng_from.calls": tracer.counts["seeding.rng_from"],
    }


def percentiles_us(durations: list[float]) -> tuple[float, float]:
    if len(durations) < 2:
        return (1e6 * durations[0],) * 2 if durations else (0.0, 0.0)
    cuts = statistics.quantiles(durations, n=100, method="inclusive")
    return 1e6 * cuts[49], 1e6 * cuts[98]


def run_split(spans: list) -> dict[str, float]:
    """Shares of ``orchestrator.run`` time: each direct callee, inclusive, and run's own time."""
    runs = {i for i, span in enumerate(spans) if span.name == "orchestrator.run"}
    total = sum(spans[i].end - spans[i].start for i in runs)
    if not total:
        return {}
    shares: dict[str, float] = {}
    for span in spans:
        if span.parent in runs:
            shares[span.name] = shares.get(span.name, 0.0) + span.end - span.start
    shares["orchestrator.run (self)"] = total - sum(shares.values())
    return {name: v / total for name, v in sorted(shares.items(), key=lambda kv: -kv[1])}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("silo-mlp", "fleet-churn", "cli-suite"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = make_workload(args.workload, args.seed, work)
        verifier = Verifier(recorded_digests(args.workload, args.seed), workload.twins)
        pass_index = itertools.count()

        def next_pass(traced: bool, probe: SpeedProbe | None = None) -> dict | None:
            return one_pass(workload, work / f"out{next(pass_index)}", verifier, traced, probe)

        next_pass(traced=False)  # warm-up
        first_digests = dict(verifier.first)

        plain, traced, ratios, setups, references = [], [], [], [], []
        deadline = perf_counter() + args.seconds
        last = 0.0
        while (
            len(plain) < MIN_PASSES
            or (args.trace and len(traced) < MIN_TRACED_PASSES)
            or perf_counter() + last <= deadline
        ):
            started = perf_counter()
            gc.collect()
            setups += filter(None, (timed_setup(workload) for _ in range(SETUPS_PER_PASS)))
            probe = SpeedProbe()
            probe.sample()
            result = next_pass(traced=False, probe=probe)
            after = probe.sample()
            if args.trace:
                # Samples inside a traced pass would land in its spans, so
                # it is scaled by the samples just before and after it.
                partner = next_pass(traced=True)
                partner_scale = speed_scale([after, reference_time()])
            else:
                partner = None
            last = perf_counter() - started
            references += probe.samples
            if result:
                result["scale"] = probe.scale
                plain.append(result)
            traced += [partner] if partner else []
            if result and partner:
                ratios.append(partner["wall_s"] * partner_scale / (result["wall_s"] * result["scale"]))
            if not plain and verifier.attempted > 20 * workload.expected:
                break  # every pass raises; report the failures instead of spinning

        out = {
            "attempted": verifier.attempted,
            "failed": verifier.failed,
            "problems": verifier.problems[:20],
            "digests": first_digests,
            "passes": len(plain),
            "env": environment(),
        }
        if plain:
            timed = ("wall_s", "sim_wall_s", "write_s")
            scaled = {k: statistics.median(p[k] * p["scale"] for p in plain) for k in timed}
            out["metrics"] = dict(
                scaled,
                setup_s=statistics.median(s for _, s in setups),
                client_updates_per_s=plain[0]["fresh"] / scaled["sim_wall_s"],
                sim_runs_per_s=workload.expected / scaled["wall_s"],
            )
            out["measured"] = {k: statistics.median(p[k] for p in plain) for k in timed}
            out["measured"]["setup_s"] = statistics.median(s for s, _ in setups)
            out["setups"] = len(setups)
            out["reference_s"] = statistics.median(references)
            out["reference_at_s"] = REFERENCE_S
        if traced:
            layers = {k: statistics.median(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
            durations = [d for p in traced for d in p["train_durations"]]
            layers["models.train_local.p50_us"], layers["models.train_local.p99_us"] = percentiles_us(durations)
            layers["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0) if ratios else 0.0
            out["layers"] = layers
            out["split"] = run_split(min(traced, key=lambda p: p["sim_wall_s"])["spans"])
            out["traced_run_s"] = statistics.median(p["sim_wall_s"] for p in traced)
            out["untraced_run_s"] = out["measured"]["sim_wall_s"] if plain else 0.0
            trace_file = WORK / "traces" / f"{args.workload}-seed{args.seed}.csv"
            write_spans(trace_file, [p["spans"] for p in traced])
            out["trace_file"] = str(trace_file)
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
