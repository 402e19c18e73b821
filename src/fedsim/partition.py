"""Synthetic data generation and client sharding.

A master dataset is split into per-client shards in one of three modes:
explicit per-client sample counts (optionally with per-client
positive-label fractions to engineer label skew), a near-equal uniform
random split of the whole master, or a label-skew mode that fixes the
label mix and defaults to near-equal sizes.  Splits are deterministic
in (master, plan): sample selection and each client's train/test split
draw from independently derived PCG64 streams, so changing one client's
split seed never moves another client's samples.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .models import Dataset, _adopt_dataset, _distinct
from .rules import choice, finite, integer, positive
from .seeding import rng_from

EXPLICIT_COUNTS = "explicit-counts"
RANDOM_UNIFORM = "random-uniform"
LABEL_SKEW = "label-skew"
PARTITION_MODES = (EXPLICIT_COUNTS, RANDOM_UNIFORM, LABEL_SKEW)

# Stream tags so selection and per-client splits never share a stream.
_SELECT = 0
_SPLIT = 1


class InfeasiblePartition(ValueError):
    """The requested shard composition cannot be cut from the master."""


@dataclass(frozen=True)
class PartitionPlan:
    """How to cut a master dataset into per-client shards.

    ``counts`` are per-client totals (train plus test).
    ``positive_fractions`` are per-client positive-label shares in
    [0, 1].  ``train_fraction`` in (0, 1] controls each shard's
    train/test split.
    """

    mode: str
    client_count: int
    counts: tuple[int, ...] | None = None
    positive_fractions: tuple[float, ...] | None = None
    train_fraction: float = 0.75
    seed: int = 0

    def __post_init__(self) -> None:
        choice(self.mode, "mode", PARTITION_MODES)
        k = integer(self.client_count, "client_count", 1)
        object.__setattr__(self, "client_count", k)
        if self.counts is not None:
            counts = tuple(integer(c, f"counts[{i}]", 1) for i, c in enumerate(self.counts))
            if len(counts) != k:
                raise ValueError("counts length must equal client_count")
            object.__setattr__(self, "counts", counts)
        if self.positive_fractions is not None:
            fracs = tuple(finite(f, "positive fractions") for f in self.positive_fractions)
            if len(fracs) != k:
                raise ValueError("positive_fractions length must equal client_count")
            if any(not (0.0 <= f <= 1.0) for f in fracs):
                raise ValueError("positive fractions must lie in [0, 1]")
            object.__setattr__(self, "positive_fractions", fracs)
        tf = finite(self.train_fraction, "train_fraction")
        if not (0.0 < tf <= 1.0):
            raise ValueError("train_fraction must lie in (0, 1]")
        object.__setattr__(self, "train_fraction", tf)
        if self.mode == EXPLICIT_COUNTS and self.counts is None:
            raise ValueError("explicit-counts mode requires counts")
        if self.mode == RANDOM_UNIFORM and (
            self.counts is not None or self.positive_fractions is not None
        ):
            raise ValueError("random-uniform mode takes neither counts nor positive_fractions")
        if self.mode == LABEL_SKEW and self.positive_fractions is None:
            raise ValueError("label-skew mode requires positive_fractions")
        object.__setattr__(self, "seed", integer(self.seed, "seed"))


@dataclass(frozen=True)
class ClientShard:
    """One client's local data, already split into train and test."""

    client_id: int
    train: Dataset
    test: Dataset

    def __post_init__(self) -> None:
        object.__setattr__(self, "client_id", integer(self.client_id, "client_id"))
        if self.train.n < 1:
            raise ValueError("a shard needs at least one training sample")
        if self.test.n and self.train.feature_dim != self.test.feature_dim:
            raise ValueError("train and test feature widths differ")
        # Each side's ids are unique already, so a repeat in the two together is a shared id.
        if not _distinct(np.concatenate([self.train.ids, self.test.ids])):
            raise ValueError("train and test sets share sample ids")

    @property
    def n_train(self) -> int:
        return self.train.n

    @property
    def n_total(self) -> int:
        return self.train.n + self.test.n


@dataclass(frozen=True)
class SkewRow:
    client_id: int | None  # None marks the all-clients row
    n: int
    pct_negative: float
    pct_positive: float


@dataclass(frozen=True)
class SkewReport:
    clients: tuple[SkewRow, ...]
    overall: SkewRow

    def format_table(self) -> str:
        lines = [f"{'client':>8} {'n':>7} {'% label 0':>10} {'% label 1':>10}"]
        for row in self.clients + (self.overall,):
            name = "ALL" if row.client_id is None else str(row.client_id)
            lines.append(
                f"{name:>8} {row.n:>7} {row.pct_negative:>10.2f} {row.pct_positive:>10.2f}"
            )
        return "\n".join(lines)


def synthetic_source(
    class_means, class_cov_scale: float, n_per_class: tuple[int, int], seed: int
) -> tuple[list[np.ndarray], float, tuple[int, int], int]:
    """``make_synthetic``'s arguments, checked and normalised without drawing:
    two nonempty, equal-length, finite float64 means, a finite scale > 0,
    two class sizes >= 0 holding at least one sample, and a seed >= 0."""
    means = [  # an object array keeps each entry as given, so no bool is read as 1
        np.array([finite(x, f"class_means[{i}][{j}]") for j, x in enumerate(np.array(m, object).flat)])
        for i, m in enumerate(class_means)
    ]
    if len(means) != 2 or means[0].shape != means[1].shape or means[0].size < 1:
        raise ValueError("class_means must be two nonempty vectors of equal length")
    scale = positive(class_cov_scale, "class_cov_scale")
    sizes = tuple(integer(n, f"n_per_class[{i}]") for i, n in enumerate(n_per_class))
    if len(sizes) != 2 or sum(sizes) < 1:
        raise ValueError("n_per_class must be two class sizes holding at least one sample")
    return means, scale, sizes, integer(seed, "seed")


def make_synthetic(
    class_means: tuple[np.ndarray, np.ndarray] | list,
    class_cov_scale: float,
    n_per_class: tuple[int, int],
    seed: int,
) -> Dataset:
    """Two isotropic Gaussian blobs, one per label.

    ``class_means`` holds the label-0 and label-1 means; features are
    drawn with standard deviation ``class_cov_scale`` around them, then
    the rows are shuffled so labels are interleaved.  Ids are 0..n-1.
    """
    (mean0, mean1), scale, (n0, n1), seed = synthetic_source(
        class_means, class_cov_scale, n_per_class, seed
    )
    rng = rng_from(seed)
    features = np.empty((n0 + n1, mean0.size))
    for rows, mean in ((features[:n0], mean0), (features[n0:], mean1)):
        rng.standard_normal(rows.shape, out=rows)
        rows *= scale  # the bits of mean + scale * normal: IEEE * and + commute exactly
        rows += mean
    labels = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    order = rng.permutation(n0 + n1)
    ids = np.arange(n0 + n1, dtype=np.int64)
    return _adopt_dataset(features[order], labels[order], ids)


def _near_equal_counts(n: int, k: int) -> list[int]:
    base, rem = divmod(n, k)
    return [base + 1 if i < rem else base for i in range(k)]


def _positive_targets(counts: list[int], fractions: tuple[float, ...]) -> list[int]:
    # Floor each per-client target, then hand the rounded-off shortfall out
    # one sample at a time to the lowest client ids with headroom.
    targets = [c * f for c, f in zip(counts, fractions)]
    pos = [math.floor(t) for t in targets]
    shortfall = round(sum(targets)) - sum(pos)
    for i in range(len(pos)):
        if shortfall == 0:
            break
        if pos[i] < counts[i]:
            pos[i] += 1
            shortfall -= 1
    return pos


def _split_shard(
    master: Dataset, sample_idx: np.ndarray, client_id: int, plan: PartitionPlan
) -> ClientShard:
    order = rng_from(plan.seed, _SPLIT, client_id).permutation(sample_idx.size)
    shuffled = sample_idx[order]
    n = shuffled.size
    n_train = min(n, max(1, round(plan.train_fraction * n)))
    # sample_idx holds distinct positions, dealt from permutations of disjoint pools, and train
    # and test are disjoint slices of its shuffle: no id repeats, so the rows need no check.
    return ClientShard(client_id, master._rows(shuffled[:n_train]), master._rows(shuffled[n_train:]))


def partition(master: Dataset, plan: PartitionPlan) -> list[ClientShard]:
    """Cut ``master`` into ``plan.client_count`` disjoint shards.

    Shards carry positional client ids 0..k-1; callers that use their
    own id scheme can rebind with ``relabel_shard``.  Raises
    InfeasiblePartition when the requested totals or label mixes exceed
    what the master holds.
    """
    k = plan.client_count
    if master.n < 1:
        raise InfeasiblePartition("master dataset is empty")
    if plan.counts is None:  # random-uniform, or label-skew at near-equal sizes
        if master.n < k:
            raise InfeasiblePartition(f"cannot cut {k} nonempty shards from {master.n} samples")
        counts = _near_equal_counts(master.n, k)
    else:
        counts = list(plan.counts)

    # Each pool, the whole master or its positives then its negatives, is shuffled and cut
    # at the clients' cumulative shares; the piece after the last share stays undealt.
    whole = {"samples": (np.arange(master.n), counts)}
    if plan.positive_fractions is None:
        pools = whole
    else:
        pos_share = _positive_targets(counts, plan.positive_fractions)
        neg_share = [c - p for c, p in zip(counts, pos_share)]
        pools = {
            "positives": (np.flatnonzero(master.labels == 1), pos_share),
            "negatives": (np.flatnonzero(master.labels == 0), neg_share),
        }
    for what, (ids, share) in {**whole, **pools}.items():  # the whole master is checked first
        if sum(share) > ids.size:
            raise InfeasiblePartition(f"requested {sum(share)} {what} but master holds {ids.size}")
    rng = rng_from(plan.seed, _SELECT)
    hands = [np.split(rng.permutation(ids), np.cumsum(share)) for ids, share in pools.values()]
    return [
        _split_shard(master, np.concatenate(pieces), cid, plan)
        for cid, pieces in zip(range(k), zip(*hands))
    ]


def relabel_shard(shard: ClientShard, client_id: int) -> ClientShard:
    """Same data under a different client id; the data keeps the shard's checks."""
    out = object.__new__(ClientShard)
    out.__dict__.update(vars(shard), client_id=integer(client_id, "client_id"))
    return out


def skew_report(shards: list[ClientShard]) -> SkewReport:
    """Label mix per shard (train and test pooled) plus an all-clients row."""
    if not shards:
        raise ValueError("skew_report needs at least one shard")
    rows = []
    tot_n = tot_pos = 0
    for shard in sorted(shards, key=lambda s: s.client_id):
        labels = np.concatenate([shard.train.labels, shard.test.labels])
        n = labels.size
        pos = int(labels.sum())
        tot_n += n
        tot_pos += pos
        rows.append(SkewRow(shard.client_id, n, 100.0 * (n - pos) / n, 100.0 * pos / n))
    overall = SkewRow(None, tot_n, 100.0 * (tot_n - tot_pos) / tot_n, 100.0 * tot_pos / tot_n)
    return SkewReport(tuple(rows), overall)


def write_dataset_csv(dataset: Dataset, path: str | Path) -> None:
    """Save as CSV with header id,label,f0..f{d-1}; floats via repr."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"] + [f"f{j}" for j in range(dataset.feature_dim)])
        for i in range(dataset.n):
            writer.writerow(
                [int(dataset.ids[i]), int(dataset.labels[i])]
                + [repr(float(v)) for v in dataset.features[i]]
            )


def read_dataset_csv(path: str | Path) -> Dataset:
    """Load a dataset written by ``write_dataset_csv`` (exact round-trip)."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 3 or header[:2] != ["id", "label"]:
            raise ValueError(f"{path}: expected header id,label,f0..")
        d = len(header) - 2
        if header[2:] != [f"f{j}" for j in range(d)]:
            raise ValueError(f"{path}: malformed feature columns in header")
        ids, labels, feats = [], [], []
        for row in reader:
            try:
                if len(row) != d + 2:
                    raise ValueError(f"row has {len(row)} fields, expected {d + 2}")
                ids.append(int(row[0]))
                labels.append(int(row[1]))
                feats.append([float(v) for v in row[2:]])
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if not ids:
        raise ValueError(f"{path}: no data rows")
    try:  # the whole-file checks; an id or label past 64 bits raises OverflowError
        return _adopt_dataset(np.array(feats), np.array(labels, np.int64), np.array(ids, np.int64))
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from None
