"""Deterministic randomness plumbing.

Every random draw in this package comes from a PCG64 generator keyed by
a tuple of nonnegative integers mixed through numpy's SeedSequence.
Composite keys (for example ``(run_seed, purpose, client_id, round)``)
give every consumer its own independent stream, so adding or removing
one client never shifts the randomness seen by another.

Seeds and generators are bit-identical to ``SeedSequence(list(key))``:
numpy mixes the key's uint32 words into its pool, and only the output hash
of ``generate_state`` (slow in numpy) is replicated, for PCG64's request.
``tests/test_seeding.py`` checks it against numpy; it and the golden
output hashes were recorded on numpy 2.4.6, Python 3.11.7.
"""

from __future__ import annotations

import operator
from itertools import cycle, islice

import numpy as np

# Constants of SeedSequence's output hash (numpy/random/bit_generator.pyx).
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def _entropy(parts: tuple[int, ...]) -> np.ndarray:
    """The key's uint32 words, split as SeedSequence splits a list of ints."""
    if not parts:
        raise ValueError("at least one seed component is required")
    words = []
    for p in parts:
        q = operator.index(p)
        if q < 0:
            raise ValueError(f"seed components must be nonnegative, got {q}")
        words.append(q & _MASK32)  # little-endian words; 0 is one zero word
        while q := q >> 32:
            words.append(q & _MASK32)
    return np.array(words, dtype=np.uint32)


def _hash(pool: list[int], n_words: int) -> list[int]:
    """``generate_state``'s output hash: ``n_words`` uint32 words from ``pool``."""
    out = []
    h = _INIT_B
    for word in islice(cycle(pool), n_words):
        v = word ^ h
        h = h * _MULT_B & _MASK32
        v = v * h & _MASK32
        out.append(v ^ v >> _XSHIFT)
    return out


class _KeySequence(np.random.SeedSequence):
    """A SeedSequence whose ``generate_state`` runs :func:`_hash` directly for the
    uint64 words PCG64 asks for; any other request is numpy's own method."""

    def generate_state(self, n_words, dtype=np.uint32):
        if np.dtype(dtype) != np.uint64:
            return super().generate_state(n_words, dtype)
        words = iter(_hash(self.pool.tolist(), 2 * n_words))
        return np.array([lo | hi << 32 for lo, hi in zip(words, words)], dtype=np.uint64)


def rng_from(*parts: int) -> np.random.Generator:
    """PCG64 generator keyed by one or more nonnegative integers."""
    return np.random.Generator(np.random.PCG64(_KeySequence(_entropy(parts))))


def derive_seed(*parts: int) -> int:
    """Collapse a composite key into a single 64-bit seed."""
    lo, hi = _hash(np.random.SeedSequence(_entropy(parts)).pool.tolist(), 2)
    return lo | hi << 32
