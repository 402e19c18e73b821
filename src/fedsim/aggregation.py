"""Server-side combination of client parameter updates.

Weighted federated averaging weights each update by its training-sample
count (w_i = n_i / sum n_j); plain averaging gives every update the same
weight.  Both accumulate in ascending client-id order and clamp each
output coordinate into the participants' [min, max] envelope, which
makes the convex-combination guarantee exact in floating point (a naive
dot product can escape the envelope by an ulp) and the result invariant
under reordering of the input list.  A uniform-noise operator supports
privacy-style perturbation of parameter vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .models import ParameterSet, _adopt
from .rules import integer, noise_amplitude
from .seeding import rng_from


@dataclass(frozen=True)
class Update:
    """One client's submitted parameters with provenance.

    ``n`` is the number of training samples behind the update and
    ``produced_round`` the round whose broadcast it was trained from.
    """

    client_id: int
    params: ParameterSet
    n: int
    produced_round: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "client_id", integer(self.client_id, "client_id"))
        object.__setattr__(self, "n", integer(self.n, "n", 1))
        object.__setattr__(self, "produced_round", integer(self.produced_round, "produced_round"))


@dataclass(frozen=True)
class AggregateResult:
    params: ParameterSet
    weights_used: tuple[tuple[int, float], ...]  # (client_id, weight), ascending id
    total_n: int


def _ordered(updates: Sequence[Update]) -> list[Update]:
    if not updates:
        raise ValueError("cannot aggregate an empty update list")
    ordered = sorted(updates, key=lambda u: u.client_id)
    ids = [u.client_id for u in ordered]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate client ids in one aggregation")
    first = ordered[0].params
    for u in ordered[1:]:
        if u.params.shapes != first.shapes:
            raise ValueError("updates carry incompatible parameter layouts")
    return ordered


def _aggregate(ordered: list[Update], weights: list[float]) -> AggregateResult:
    """The ``weights``-combination of the ordered updates, clamped into their envelope."""
    stacked = np.stack([u.params.values for u in ordered])
    low, high = stacked.min(axis=0), stacked.max(axis=0)
    stacked *= np.array(weights)[:, None]
    # Down the rows of a C-ordered stack this adds one row at a time in client-id order, as a
    # loop of ``acc += w * v`` would; only a one-column stack, which no model has, sums pairwise.
    acc = np.add.reduce(stacked, axis=0)
    np.clip(acc, low, high, out=acc)
    return AggregateResult(
        # The copy stays: when ``acc`` was allocated before the stack, adopting it left the peak
        # RSS of six in-process silo-mlp passes 0.3-1.0 MB higher.
        params=ordered[0].params.with_values(acc),
        weights_used=tuple((u.client_id, w) for u, w in zip(ordered, weights)),
        total_n=sum(u.n for u in ordered),
    )


def weighted_fedavg(updates: Sequence[Update]) -> AggregateResult:
    """Sample-count-weighted average of the updates."""
    ordered = _ordered(updates)
    total = sum(u.n for u in ordered)
    return _aggregate(ordered, [u.n / total for u in ordered])


def plain_average(updates: Sequence[Update]) -> AggregateResult:
    """Unweighted mean of the updates."""
    ordered = _ordered(updates)
    return _aggregate(ordered, [1.0 / len(ordered)] * len(ordered))


def add_uniform_noise(params: ParameterSet, amplitude: float, seed: int, *, _rng=None) -> ParameterSet:
    """Perturb every coordinate by i.i.d. uniform(-amplitude, amplitude) noise.

    Mean-zero, so averaging many independently noised copies of the same
    vector recovers the original.  Deterministic in ``seed``; ``_rng``, when
    given, is the generator ``rng_from(seed)``.  Raises ValueError when a
    noised coordinate is not finite.
    """
    a = noise_amplitude(amplitude)
    noise = (rng_from(seed) if _rng is None else _rng).uniform(-a, a, size=params.size)
    return _adopt(params.values + noise, params.shapes)
