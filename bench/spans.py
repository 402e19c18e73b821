"""In-memory span tracer that wraps fedsim's public functions from outside.

``Tracer.installed`` replaces module attributes (the names callers look up
at call time, such as ``fedsim.orchestrator.train_local``) with wrappers
that record one span per call: (name, start, end, parent index).  Spans
stay in memory; ``write_spans`` writes them out after the timed passes.
A layer's self time is its span's duration minus the durations of its
direct children; the program is serial, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Iterator, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span


# Module attribute -> span name.  A function is patched at every attribute
# a caller looks it up through, so both copies of a name record one layer.
PROBES = (
    ("fedsim.orchestrator", "run", "orchestrator.run"),
    ("fedsim.cli", "run", "orchestrator.run"),
    ("fedsim.report", "write_run_outputs", "report.write_run_outputs"),
    ("fedsim.cli", "write_run_outputs", "report.write_run_outputs"),
)
LAYERS = PROBES + (
    ("fedsim.cli", "main", "cli.main"),
    ("fedsim.cli", "load_config_file", "config.load_config_file"),
    ("fedsim.cli", "validate_config", "config.validate_config"),
    ("fedsim.config", "validate_config", "config.validate_config"),
    ("fedsim.cli", "build_plan", "config.build_plan"),
    ("fedsim.partition", "make_synthetic", "partition.make_synthetic"),
    ("fedsim.config", "make_synthetic", "partition.make_synthetic"),
    ("fedsim.partition", "partition", "partition.partition"),
    ("fedsim.config", "partition", "partition.partition"),
    ("fedsim.config", "read_dataset_csv", "partition.read_dataset_csv"),
    ("fedsim.orchestrator", "validate_plan", "orchestrator.validate_plan"),
    ("fedsim.orchestrator", "init_params", "models.init_params"),
    ("fedsim.orchestrator", "train_local", "models.train_local"),
    ("fedsim.models", "loss_and_grad", "models.loss_and_grad"),
    ("fedsim.orchestrator", "weighted_fedavg", "aggregation.aggregate"),
    ("fedsim.orchestrator", "plain_average", "aggregation.aggregate"),
    ("fedsim.orchestrator", "add_uniform_noise", "aggregation.add_uniform_noise"),
    ("fedsim.orchestrator", "evaluate", "metrics.evaluate"),
    ("fedsim.orchestrator", "loss_accuracy", "metrics.loss_accuracy"),
    ("fedsim.orchestrator", "summarize", "metrics.summarize"),
    ("fedsim.metrics", "forward", "metrics.forward"),
    ("fedsim.metrics", "roc_auc", "metrics.roc_auc"),
    ("fedsim.report", "write_roc_csvs", "report.write_roc_csvs"),
    ("fedsim.report", "forward", "report.forward"),
    ("fedsim.report", "roc_auc", "report.roc_auc"),
)
# Calls counted without a span: too frequent and too short to time.
COUNTERS = tuple(
    (module, "rng_from", "seeding.rng_from")
    for module in ("fedsim.models", "fedsim.aggregation", "fedsim.partition", "fedsim.config")
)
KEEP_ARGS = ("report.write_run_outputs",)


class Tracer:
    """Records spans into flat arrays, so a call allocates no object the
    garbage collector has to track; ``spans`` builds the tuples afterwards."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        self.kept: list[tuple] = []  # (positional args, result) of KEEP_ARGS calls
        self._names: list[str] = []
        self._name_ids = array("l")
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("l")
        self._stack: list[int] = []

    @property
    def spans(self) -> list[Span]:
        names = self._names
        return [
            Span(names[i], s, e, p)
            for i, s, e, p in zip(self._name_ids, self._starts, self._ends, self._parents)
        ]

    def _span(self, name: str, fn):
        if name not in self._names:
            self._names.append(name)
        name_id = self._names.index(name)
        ids, starts, ends, parents, stack = (
            self._name_ids, self._starts, self._ends, self._parents, self._stack
        )
        keep = name in KEEP_ARGS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            result = None
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ends[index] = perf_counter()
                stack.pop()
                if keep:
                    self.kept.append((args, result))

        return traced

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self, layers=LAYERS, counters=COUNTERS) -> Iterator["Tracer"]:
        """Patch the given attributes for the duration of the block."""
        # Import every module before patching any: a module imported midway
        # would bind names that are already patched.
        targets = [
            (importlib.import_module(module), attr, wrap, name)
            for entries, wrap in ((layers, self._span), (counters, self._counter))
            for module, attr, name in entries
        ]
        saved = []
        try:
            for module, attr, wrap, name in targets:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrap(name, getattr(module, attr)))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def by_name(spans: list[Span]) -> dict[str, dict]:
    """Per span name: call count, total and self seconds, and durations."""
    out: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        row["calls"] += 1
        row["total_s"] += span.end - span.start
        row["self_s"] += own
        row["durations"].append(span.end - span.start)
    return out


def write_spans(path: Path, passes: list[list[Span]]) -> None:
    """One CSV row per span: pass, index, name, start, end, parent."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write("pass,index,name,start,end,parent\n")
        for p, spans in enumerate(passes):
            for i, s in enumerate(spans):
                fh.write(f"{p},{i},{s.name},{s.start!r},{s.end!r},{s.parent}\n")
