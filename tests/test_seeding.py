import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.seeding import (
    _batch_states,
    _entropy,
    _generator,
    _StateWords,
    derive_seed,
    rng_from,
)


def test_same_key_same_stream():
    a = rng_from(7, 3, 1).standard_normal(16)
    b = rng_from(7, 3, 1).standard_normal(16)
    assert np.array_equal(a, b)


def test_different_keys_differ():
    a = rng_from(7, 3, 1).standard_normal(16)
    b = rng_from(7, 3, 2).standard_normal(16)
    c = rng_from(7, 4, 1).standard_normal(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_key_is_positional_not_flattened():
    # (1, 23) and (12, 3) must give distinct streams
    assert derive_seed(1, 23) != derive_seed(12, 3)


def test_negative_component_rejected():
    with pytest.raises(ValueError):
        rng_from(3, -1)
    with pytest.raises(ValueError):
        derive_seed(-5)
    with pytest.raises(ValueError):
        rng_from()


def test_derive_seed_stable_and_nonnegative():
    s = derive_seed(11, 2, 9)
    assert s == derive_seed(11, 2, 9)
    assert 0 <= s < 2**64


# A key part: 0, a 32-bit, a 64-bit or a wider integer, so keys split into
# one to several uint32 words each.
_PARTS = st.one_of(
    st.just(0),
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**130),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.lists(_PARTS, min_size=1, max_size=9))
def test_seeds_and_generators_match_numpys_seed_sequence(key):
    ref = np.random.SeedSequence(list(key))
    assert derive_seed(*key) == int(ref.generate_state(1, np.uint64)[0])
    rng = rng_from(*key)
    assert rng.bit_generator.state == np.random.default_rng(ref).bit_generator.state
    seq = rng.bit_generator.seed_seq
    assert isinstance(seq, np.random.SeedSequence)
    for n in range(1, 9):
        for dtype in (np.uint32, np.uint64):
            got, want = seq.generate_state(n, dtype), ref.generate_state(n, dtype)
            assert got.dtype == want.dtype and np.array_equal(got, want)
    for child, ref_child in zip(rng.spawn(2), np.random.default_rng(ref).spawn(2)):
        assert child.bit_generator.state == ref_child.bit_generator.state


def test_generate_state_rejects_other_dtypes_like_numpy():
    with pytest.raises(ValueError):
        rng_from(1).bit_generator.seed_seq.generate_state(2, np.int64)


def test_seed_parts_must_be_integers():
    for bad in (3.7, 3.0, "5", None, np.float64(2.0)):
        with pytest.raises(TypeError):
            derive_seed(1, bad)
        with pytest.raises(TypeError):
            rng_from(bad)
    assert derive_seed(np.int64(5), np.uint32(2)) == derive_seed(5, 2)
    assert rng_from(np.uint64(2**63)).random() == rng_from(2**63).random()


def test_pcg64_asks_only_for_four_uint64_words(monkeypatch):
    """The batch replica serves PCG64 this one request, so a numpy that asks for another
    is named here rather than failing deep inside a run."""
    requests = []
    real = _StateWords.generate_state

    def recording(self, n_words, dtype=np.uint32):
        requests.append((n_words, np.dtype(dtype)))
        return real(self, n_words, dtype)

    monkeypatch.setattr(_StateWords, "generate_state", recording)
    rng = _generator(_batch_states(7, 3)[0])
    rng.permutation(10)
    rng.uniform(-1.0, 1.0, 5)
    rng.standard_normal(5)
    rng.integers(0, 100, 5)
    assert requests == [(4, np.dtype(np.uint64))], f"numpy now asks for {requests}"


def _check_rows(keys, states):
    """Each row of ``states`` is numpy's PCG64 state for its key, and ``_generator`` of the
    row is the generator ``rng_from`` builds."""
    assert states.shape == (len(keys), 4) and states.dtype == np.uint64
    for key, row in zip(keys, states):
        want = np.random.SeedSequence(list(key)).generate_state(4, np.uint64)
        assert np.array_equal(row, want), key
        assert int(row[0]) == derive_seed(*key)
        assert _generator(row).bit_generator.state == rng_from(*key).bit_generator.state


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(st.integers(1, 9).flatmap(
    lambda k: st.lists(st.lists(_PARTS, min_size=k, max_size=k), min_size=1, max_size=6)))
def test_batch_states_match_numpys_seed_sequence(keys):
    # Per-key parts of every width, so the keys of one batch split into different word counts.
    columns = [np.array([key[j] for key in keys], dtype=object) for j in range(len(keys[0]))]
    _check_rows(keys, _batch_states(*columns))


def test_batch_states_take_shared_ints_and_integer_arrays():
    seeds = [0, 7, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1]
    # A seed below 2**32 makes (seed, epoch) 2 words, not 3.
    assert len(_entropy((7, 1))) == 2 and len(_entropy((2**32, 1))) == 3
    for epoch in (0, 1):
        _check_rows([(s, epoch) for s in seeds], _batch_states(np.array(seeds, np.uint64), epoch))
    epochs = np.tile(np.arange(2), len(seeds))
    _check_rows([(s, int(e)) for s, e in zip([s for s in seeds for _ in range(2)], epochs)],
                _batch_states(np.repeat(np.array(seeds, np.uint64), 2), epochs))
    # Client ids of 2**32 and more, beside a shared plan seed and purpose tag.
    cids, rounds = [3, 2**32, 2**40 + 1, 2**64 - 1], [1, 2, 3, 2**33]
    keys = [(2**70 + 9, 1, c, r) for c, r in zip(cids, rounds)]
    states = _batch_states(2**70 + 9, 1, np.array(cids, np.uint64), np.array(rounds, np.uint64))
    _check_rows(keys, states)
    wide = cids + [2**64]
    _check_rows([(c,) for c in wide], _batch_states(np.array(wide, dtype=object)))


def test_state_words_serve_only_pcg64s_request():
    """A numpy that seeds PCG64 with any other request fails here, not with other numbers."""
    words = _batch_states(7, 3)[0]
    seq = _StateWords(words)
    assert np.array_equal(seq.generate_state(4, np.uint64), words)
    for n_words, dtype in ((4, np.uint32), (2, np.uint64), (8, np.uint64), (4, np.int64)):
        with pytest.raises(ValueError, match="state words serve only"):
            seq.generate_state(n_words, dtype)
    assert _generator(words).random() == rng_from(7, 3).random()
    # PCG64 reads the words' buffer, so a strided row must not seed another stream.
    rows = np.asfortranarray(_batch_states(np.arange(3, dtype=np.uint64), 1))
    assert _generator(rows[2]).bit_generator.state == rng_from(2, 1).bit_generator.state
