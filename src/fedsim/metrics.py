"""Binary-classification evaluation: cross-entropy, accuracy, ROC and AUC.

The ROC curve sweeps the distinct scores in descending order as
thresholds, and the trapezoidal area under it equals the tie-aware
pairwise ranking statistic (ties credited one half).  ``evaluate`` keeps
the curve it builds on the returned ``MetricSet.roc``, so the ROC files a
run writes are the curves it measured.  ``summarize`` condenses a
federation run into best-round and per-client-best views.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .models import Dataset, ModelSpec, ParameterSet, _bce, _probs, forward
from .rules import integer

if TYPE_CHECKING:  # pragma: no cover
    from .orchestrator import RunReport


class UndefinedAUCError(ValueError):
    """AUC needs both classes present in the labels."""


@dataclass(frozen=True)
class MetricSet:
    loss: float
    accuracy: float
    auc: float
    n: int
    # The curve evaluate measured the AUC on; not part of equality or repr.
    roc: RocCurve | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.loss < 0:
            raise ValueError("loss must be >= 0")
        if not (0.0 <= self.accuracy <= 1.0):
            raise ValueError("accuracy must lie in [0, 1]")
        if not (0.0 <= self.auc <= 1.0):
            raise ValueError("auc must lie in [0, 1]")
        object.__setattr__(self, "n", integer(self.n, "n", 1))


@dataclass(frozen=True)
class RocCurve:
    """Operating points (fpr, tpr), from (0, 0) to (1, 1), both nondecreasing."""

    points: np.ndarray  # (k, 2) float64

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=np.float64, copy=True)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("a ROC curve needs at least two (fpr, tpr) points")
        if tuple(pts[0]) != (0.0, 0.0) or tuple(pts[-1]) != (1.0, 1.0):
            raise ValueError("a ROC curve must run from (0, 0) to (1, 1)")
        if np.any(np.diff(pts[:, 0]) < 0) or np.any(np.diff(pts[:, 1]) < 0):
            raise ValueError("ROC coordinates must be nondecreasing")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def to_csv(self, path: str | Path) -> None:
        rows = "".join(f"{fpr!r},{tpr!r}\r\n" for fpr, tpr in self.points.tolist())
        Path(path).write_text("fpr,tpr\r\n" + rows, newline="")


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> tuple[RocCurve, float]:
    """ROC curve and trapezoidal AUC over descending distinct-score thresholds."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel()
    if s.size != y.size or s.size == 0:
        raise ValueError("scores and labels must be nonempty and of equal length")
    if not ((y == 0) | (y == 1)).all():
        raise ValueError("labels must be 0 or 1")
    y = y.astype(np.int64)
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAUCError("AUC is undefined when only one class is present")
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order]
    # Last index of each distinct-score group: one operating point per threshold.
    last = np.flatnonzero(np.append(s_sorted[:-1] != s_sorted[1:], True))
    points = np.zeros((last.size + 1, 2))
    np.divide(np.cumsum(1 - y_sorted)[last], n_neg, out=points[1:, 0])
    np.divide(np.cumsum(y_sorted)[last], n_pos, out=points[1:, 1])
    fpr, tpr = points[:, 0], points[:, 1]
    auc = float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2.0))
    points.setflags(write=False)
    curve = object.__new__(RocCurve)  # cumulative shares: (0, 0) to (1, 1), never decreasing
    object.__setattr__(curve, "points", points)
    return curve, auc


def _losses_accuracies(p: np.ndarray, labels: np.ndarray) -> tuple:
    """Loss and accuracy along the last axis of scores ``p``: floats for one dataset's 1-D
    scores, lists for a (c, m) stack of datasets; p >= 0.5 counts as class 1."""
    if p.shape[-1] == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    # count_nonzero with an axis takes a slower path through Python
    correct = np.add.reduce((p >= 0.5) == (labels == 1), axis=-1, dtype=np.intp)
    return _bce(p, labels.astype(np.float64), axis=-1).tolist(), (correct / p.shape[-1]).tolist()


_STACK_ROWS = 1024  # rows in a stack of equal-sized datasets scored in one call


def _stacked_loss_accuracy(spec: ModelSpec, params: ParameterSet,
                           datasets: list) -> list[tuple[float, float]]:
    """``loss_accuracy`` of each nonempty dataset of ``spec``'s width, unchecked, bit for bit,
    with one kernel call per (c, m, d) stack of equal-sized datasets (up to ``_STACK_ROWS`` rows, or
    one dataset as a view): matmul calls BLAS once per slice with one dataset's own arguments and
    the loss sums each slice alone (one matrix of all rows would not be bit-identical)."""
    out, order = {}, sorted(range(len(datasets)), key=lambda i: datasets[i].n)
    while order:  # the front of ``order`` holds the smallest datasets left
        n = datasets[order[0]].n
        part = [i for i in order[: max(1, _STACK_ROWS // n)] if datasets[i].n == n]
        del order[: len(part)]
        sets = [datasets[i] for i in part]
        X = np.stack([d.features for d in sets]) if len(sets) > 1 else sets[0].features[None]
        y = np.stack([d.labels for d in sets]) if len(sets) > 1 else sets[0].labels[None]
        out.update(zip(part, zip(*_losses_accuracies(_probs(spec, params.values, X), y))))
    return [out[i] for i in range(len(datasets))]


def evaluate(spec: ModelSpec, params: ParameterSet, dataset: Dataset) -> MetricSet:
    """Loss, accuracy, AUC and ROC curve of the model on ``dataset``.

    Raises UndefinedAUCError when the dataset holds a single class.
    """
    p = forward(spec, params, dataset.features)
    loss, accuracy = _losses_accuracies(p, dataset.labels)
    curve, auc = roc_auc(p, dataset.labels)
    return MetricSet(loss=loss, accuracy=accuracy, auc=auc, n=dataset.n, roc=curve)


def loss_accuracy(spec: ModelSpec, params: ParameterSet, dataset: Dataset) -> tuple[float, float]:
    """Loss and accuracy only; defined even for single-class datasets."""
    return _losses_accuracies(forward(spec, params, dataset.features), dataset.labels)


@dataclass(frozen=True)
class RunSummary:
    """Best-round and per-client-best digest of a finished run.

    ``best_*`` pairs are (round index, value); ties go to the earliest
    round.  The client averages take each client's own best value across
    the rounds it was evaluated in, then average over clients; they are
    None when no per-client metrics were recorded.
    """

    rounds_completed: int
    total_sim_time_s: float
    final: MetricSet
    best_loss: tuple[int, float]
    best_accuracy: tuple[int, float]
    best_auc: tuple[int, float]
    client_avg_best_loss: float | None
    client_avg_best_accuracy: float | None


def summarize(report: "RunReport") -> RunSummary:
    """Digest of a RunReport (see RunSummary for the tie rules)."""
    rounds = report.rounds
    if not rounds:
        raise ValueError("cannot summarize a run with no completed rounds")

    def best(metric: str, pick) -> tuple[int, float]:
        # min and max keep the first of equal values: the earliest round
        values = ((rec.round_index, getattr(rec.global_metrics, metric)) for rec in rounds)
        return pick(values, key=lambda pair: pair[1])

    by_client: dict[int, list] = {}
    for rec in rounds:
        for ce in rec.client_metrics:
            by_client.setdefault(ce.client_id, []).append(ce)
    avg_loss = avg_acc = None
    if by_client:
        evals = [by_client[c] for c in sorted(by_client)]
        avg_loss = float(np.mean([min(ce.loss for ce in e) for e in evals]))
        avg_acc = float(np.mean([max(ce.accuracy for ce in e) for e in evals]))
    return RunSummary(
        rounds_completed=len(rounds),
        total_sim_time_s=report.total_sim_time_s,
        final=rounds[-1].global_metrics,
        best_loss=best("loss", min),
        best_accuracy=best("accuracy", max),
        best_auc=best("auc", max),
        client_avg_best_loss=avg_loss,
        client_avg_best_accuracy=avg_acc,
    )
