"""Deterministic randomness plumbing.

Every random draw in this package comes from a PCG64 generator keyed by
a tuple of nonnegative integers mixed through numpy's SeedSequence.
Composite keys (for example ``(run_seed, purpose, client_id, round)``)
give every consumer its own independent stream, so adding or removing
one client never shifts the randomness seen by another.

Seeds and generators are bit-identical to ``SeedSequence(list(key))``.  One
key seeds through numpy's own ``SeedSequence``, given the key's uint32 words;
many keys seed through ``_batch_states``, one numpy pass that replicates the
pool mix and the output hash.  ``tests/test_seeding.py`` checks the replica
against numpy; it and the golden output hashes were recorded on numpy 2.4.6,
Python 3.11.7.
"""

from __future__ import annotations

import functools
import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Constants of SeedSequence's pool mix and output hash (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A, _MIX_L, _MIX_R = 0x43B0D7E5, 0x931E8875, 0xCA01F9DD, 0x4973F715
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


def rng_from(*parts: int) -> np.random.Generator:
    """PCG64 generator keyed by one or more nonnegative integers."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(_entropy(parts))))


def derive_seed(*parts: int) -> int:
    """Collapse a composite key into a single 64-bit seed."""
    return int(np.random.SeedSequence(_entropy(parts)).generate_state(1, np.uint64)[0])


@functools.cache
def _constants(init: int, mult: int, n: int) -> np.ndarray:
    """A hash's first ``n`` constants, ``init * mult**i`` mod 2**32, as a cached uint32 column."""
    out = np.array([init * pow(mult, i, 1 << 32) & _MASK32 for i in range(n)], np.uint32)[:, None]
    out.setflags(write=False)
    return out


def _batch_states(*parts) -> np.ndarray:
    """PCG64's four uint64 state words for n keys in one pass, as an (n, 4) array.

    A part is an int shared by every key or an integer array with one entry per key,
    so keys may split into different word counts.  Row k is numpy's
    ``SeedSequence(list(key_k)).generate_state(4, np.uint64)``; its first word is
    ``derive_seed(*key_k)``."""
    n = max(np.size(p) for p in parts)
    count, placed = np.zeros(n, dtype=np.intp), []  # each key's words so far
    for p in parts:  # split as _entropy splits
        q, rows = (p if isinstance(p, np.ndarray) else np.full(n, p)), np.arange(n)
        while rows.size:
            placed.append((count[rows], rows, (q & _MASK32).astype(np.uint32)))
            count[rows] += 1
            q = q >> 32
            nonzero = q.astype(bool)  # not q > 0: one numpy kernel (64 KB) fewer to page in
            rows, q = rows[nonzero], q[nonzero]
    words = np.zeros((max(4, count.max()), n), dtype=np.uint32)  # short keys mix in zeros
    for i, rows, w in placed:
        words[i, rows] = w
    a = _constants(_INIT_A, _MULT_A, 4 * len(words) + 1)

    def mixed(x, v, k, j):  # numpy's mix of x with hashmix(v) under the j constants from a[k]
        v = (v ^ a[k : k + j]) * a[k + 1 : k + j + 1]
        x = x * _MIX_L - (v ^ v >> _XSHIFT) * _MIX_R
        return x ^ x >> _XSHIFT

    pool = (words[:4] ^ a[:4]) * a[1:5]
    pool ^= pool >> _XSHIFT
    for s in range(4):
        d = [i for i in range(4) if i != s]
        pool[d] = mixed(pool[d], pool[s], 4 + 3 * s, 3)
    for i in range(4, len(words)):
        pool = np.where(count > i, mixed(pool, words[i], 4 * i, 4), pool)
    b = _constants(_INIT_B, _MULT_B, 9)
    out = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ b[:8]) * b[1:]
    return np.ascontiguousarray((out ^ out >> _XSHIFT).T).view(np.uint64)


class _StateWords(ISeedSequence):
    """Serves a ``_batch_states`` row to PCG64; any other request raises, so a numpy
    that seeds PCG64 differently fails loudly instead of drawing other numbers."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"state words serve only (4, uint64), not ({n_words}, {dtype})")
        return np.ascontiguousarray(self.words)  # PCG64 reads the raw buffer


def _generator(words: np.ndarray) -> np.random.Generator:
    """The generator ``rng_from`` gives the key whose ``_batch_states`` row is ``words``."""
    return np.random.Generator(np.random.PCG64(_StateWords(words)))
