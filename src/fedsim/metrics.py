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

from .models import Dataset, ModelSpec, ParameterSet, bce_loss, forward
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
    tpr = np.cumsum(y_sorted)[last] / n_pos
    fpr = np.cumsum(1 - y_sorted)[last] / n_neg
    fpr = np.concatenate([[0.0], fpr])
    tpr = np.concatenate([[0.0], tpr])
    auc = float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2.0))
    return RocCurve(np.column_stack([fpr, tpr])), auc


def _scored(
    spec: ModelSpec, params: ParameterSet, dataset: Dataset
) -> tuple[np.ndarray, float, float]:
    """Scores, loss and accuracy; the decision rule maps p >= 0.5 to class 1."""
    if dataset.n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    p = forward(spec, params, dataset.features)
    correct = np.count_nonzero((p >= 0.5) == (dataset.labels == 1))
    return p, bce_loss(p, dataset.labels), float(correct / dataset.n)


def evaluate(spec: ModelSpec, params: ParameterSet, dataset: Dataset) -> MetricSet:
    """Loss, accuracy, AUC and ROC curve of the model on ``dataset``.

    Raises UndefinedAUCError when the dataset holds a single class.
    """
    p, loss, accuracy = _scored(spec, params, dataset)
    curve, auc = roc_auc(p, dataset.labels)
    return MetricSet(loss=loss, accuracy=accuracy, auc=auc, n=dataset.n, roc=curve)


def loss_accuracy(spec: ModelSpec, params: ParameterSet, dataset: Dataset) -> tuple[float, float]:
    """Loss and accuracy only; defined even for single-class datasets."""
    _, loss, accuracy = _scored(spec, params, dataset)
    return loss, accuracy


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
