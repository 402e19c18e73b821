import numpy as np
import pytest

from fedsim.seeding import derive_seed, rng_from


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

