"""Deterministic randomness plumbing.

Every random draw in this package comes from a PCG64 generator keyed by
a tuple of nonnegative integers mixed through numpy's SeedSequence.
Composite keys (for example ``(run_seed, purpose, client_id, round)``)
give every consumer its own independent stream, so adding or removing
one client never shifts the randomness seen by another.
"""

from __future__ import annotations

import numpy as np


def _as_key(parts: tuple[int, ...]) -> list[int]:
    key = []
    for p in parts:
        q = int(p)
        if q < 0:
            raise ValueError(f"seed components must be nonnegative, got {q}")
        key.append(q)
    if not key:
        raise ValueError("at least one seed component is required")
    return key


def rng_from(*parts: int) -> np.random.Generator:
    """PCG64 generator keyed by one or more nonnegative integers."""
    return np.random.default_rng(np.random.SeedSequence(_as_key(parts)))


def derive_seed(*parts: int) -> int:
    """Collapse a composite key into a single 64-bit seed."""
    seq = np.random.SeedSequence(_as_key(parts))
    return int(seq.generate_state(1, np.uint64)[0])

