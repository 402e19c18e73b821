import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsim.aggregation import (
    AggregateResult,
    Update,
    add_uniform_noise,
    plain_average,
    weighted_fedavg,
)
from fedsim.models import ParameterSet
from fedsim.orchestrator import NoiseConfig
from fedsim.seeding import derive_seed, rng_from

from _oracles import fedavg_loop_reference


def _pset(values):
    v = np.asarray(values, dtype=np.float64)
    return ParameterSet(v, (("output_kernel", (v.size,)),))


def _update(cid, values, n, produced=0):
    return Update(cid, _pset(values), n, produced)


def test_weighted_fixture_weights():
    updates = [
        _update(0, [1.0, 0.0], 1400),
        _update(1, [0.0, 1.0], 2400),
        _update(2, [1.0, 1.0], 1416),
    ]
    agg = weighted_fedavg(updates)
    assert agg.total_n == 5216
    assert agg.weights_used == (
        (0, 1400 / 5216),
        (1, 2400 / 5216),
        (2, 1416 / 5216),
    )


def test_single_update_is_identity():
    vals = rng_from(1).standard_normal(7)
    agg = weighted_fedavg([_update(3, vals, 250)])
    assert np.array_equal(agg.params.values, vals)
    assert agg.weights_used == ((3, 1.0),)


def test_two_equal_n_updates_average():
    a = np.array([1.0, -2.0, 3.0])
    b = np.array([3.0, 2.0, -1.0])
    agg = weighted_fedavg([_update(0, a, 10), _update(1, b, 10)])
    assert np.array_equal(agg.params.values, (a + b) / 2.0)


def test_plain_equals_weighted_for_equal_n():
    rng = rng_from(4)
    updates = [_update(i, rng.standard_normal(5), 37) for i in range(4)]
    assert np.array_equal(
        plain_average(updates).params.values, weighted_fedavg(updates).params.values
    )


def test_plain_vs_weighted_unbalanced_fixture():
    updates = [_update(0, np.zeros(3), 1), _update(1, np.ones(3), 999)]
    assert np.allclose(plain_average(updates).params.values, 0.5)
    assert np.allclose(weighted_fedavg(updates).params.values, 0.999)


def test_identical_updates_are_a_fixed_point():
    vals = rng_from(8).standard_normal(6)
    updates = [_update(i, vals, 5 + i) for i in range(5)]
    for agg in (weighted_fedavg(updates), plain_average(updates)):
        assert np.array_equal(agg.params.values, vals)


def test_aggregation_property_suite():
    rng = np.random.default_rng(1234)
    for case in range(120):
        k = int(rng.integers(1, 8))
        d = int(rng.integers(1, 40))
        scale = 10.0 ** float(rng.integers(-2, 3))
        updates = [
            _update(int(cid), scale * rng.standard_normal(d), int(rng.integers(1, 5000)))
            for cid in rng.choice(1000, size=k, replace=False)
        ]
        agg = weighted_fedavg(updates)

        # weights normalize and stay in (0, 1]
        ws = [w for _, w in agg.weights_used]
        assert abs(sum(ws) - 1.0) <= 1e-12
        assert all(0.0 < w <= 1.0 for w in ws)

        # convex-combination bound holds coordinate-wise, exactly
        stacked = np.stack([u.params.values for u in updates])
        assert np.all(agg.params.values >= stacked.min(axis=0))
        assert np.all(agg.params.values <= stacked.max(axis=0))

        # input order cannot matter: ids fix the summation order
        shuffled = [updates[i] for i in rng.permutation(k)]
        assert np.array_equal(weighted_fedavg(shuffled).params.values, agg.params.values)

        # scaling every update scales the aggregate
        lam = float(rng.uniform(0.25, 4.0))
        scaled = [
            Update(u.client_id, u.params.with_values(lam * u.params.values), u.n, 0)
            for u in updates
        ]
        assert np.allclose(
            weighted_fedavg(scaled).params.values,
            lam * agg.params.values,
            rtol=0,
            atol=1e-12 * max(1.0, lam * scale),
        )


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(st.integers(1, 300), st.integers(2, 3000), st.booleans(), st.integers(0, 2**32 - 1))
@example(1, 2, True, 0)
@example(8, 16897, True, 1)  # silo-mlp's layout
@example(220, 9, True, 2)  # fleet-churn's
@example(1000, 2, False, 3)
def test_aggregate_equals_the_sequential_loop_bit_for_bit(k, d, weighted, seed):
    rng = np.random.default_rng(seed)
    ids = sorted(int(c) for c in rng.choice(10**6, size=k, replace=False))
    values = [rng.standard_normal(d) * 10.0 ** float(rng.integers(-6, 7)) for _ in ids]
    ns = [int(n) for n in rng.integers(1, 5000, size=k)]
    updates = [_update(cid, v, n) for cid, v, n in zip(ids, values, ns)]
    shuffled = [updates[i] for i in rng.permutation(k)]
    agg = (weighted_fedavg if weighted else plain_average)(shuffled)
    weights = [n / sum(ns) for n in ns] if weighted else [1.0 / k] * k
    assert agg.weights_used == tuple(zip(ids, weights))
    assert agg.params.values.tobytes() == fedavg_loop_reference(values, weights).tobytes()


def test_aggregation_rejects_bad_input():
    with pytest.raises(ValueError):
        weighted_fedavg([])
    with pytest.raises(ValueError):
        plain_average([])
    with pytest.raises(ValueError):
        weighted_fedavg([_update(0, [1.0], 5), _update(0, [2.0], 5)])
    with pytest.raises(ValueError):
        weighted_fedavg([_update(0, [1.0], 5), _update(1, [1.0, 2.0], 5)])
    with pytest.raises(ValueError):
        Update(0, _pset([1.0]), 0, 0)
    with pytest.raises(ValueError):
        Update(-1, _pset([1.0]), 3, 0)


def test_noise_support_bound_and_determinism():
    base = _pset(rng_from(3).standard_normal(64))
    noised = add_uniform_noise(base, 0.25, seed=7)
    delta = noised.values - base.values
    assert np.all(np.abs(delta) <= 0.25)
    assert np.array_equal(noised.values, add_uniform_noise(base, 0.25, seed=7).values)
    assert not np.array_equal(noised.values, add_uniform_noise(base, 0.25, seed=8).values)
    with pytest.raises(ValueError):
        add_uniform_noise(base, 0.0, seed=1)


def test_noise_amplitude_stops_where_the_noise_range_would_overflow():
    # uniform(-a, a) once raised OverflowError for a > sys.float_info.max / 2
    top = sys.float_info.max / 2
    for make in (NoiseConfig, lambda a: add_uniform_noise(_pset(np.zeros(4)), a, seed=1)):
        make(top)
        with pytest.raises(ValueError, match=re.escape(f"must be <= {top!r}, got 1.7e+308")):
            make(1.7e308)


def test_noise_seed_must_be_an_integer():
    base = _pset(np.zeros(8))
    assert np.array_equal(
        add_uniform_noise(base, 0.5, seed=np.int64(3)).values,
        add_uniform_noise(base, 0.5, seed=3).values,
    )
    with pytest.raises(TypeError):
        add_uniform_noise(base, 0.5, seed=3.7)  # once the same noise as seed 3


def test_noise_mean_obeys_clt_bound():
    # one million draws: |mean| stays within 4 sigma / sqrt(d)
    base = _pset(np.zeros(10**6))
    noised = add_uniform_noise(base, 1.0, seed=42)
    bound = 4.0 / np.sqrt(12.0 * 10**6)
    assert abs(float(noised.values.mean())) <= bound


def test_averaging_noisy_copies_recovers_base():
    base = _pset(rng_from(5).standard_normal(20))
    updates = [
        Update(i, add_uniform_noise(base, 1.0, derive_seed(99, i)), 1, 0) for i in range(2000)
    ]
    agg = plain_average(updates)
    assert np.max(np.abs(agg.params.values - base.values)) <= 0.05


def test_aggregate_result_fields():
    agg = weighted_fedavg([_update(2, [4.0], 3), _update(1, [2.0], 1)])
    assert isinstance(agg, AggregateResult)
    assert [cid for cid, _ in agg.weights_used] == [1, 2]  # ascending ids
    assert agg.total_n == 4


def test_with_values_copies_and_results_are_read_only():
    base = _pset([1.0, 2.0, 3.0])
    mine = np.array([4.0, 5.0, 6.0])
    copy = base.with_values(mine)
    mine[0] = 99.0
    assert copy.values.tolist() == [4.0, 5.0, 6.0]
    noised = add_uniform_noise(base, 0.5, seed=3)
    aggregates = [f([_update(0, [1.0, 2.0], 2), _update(1, [3.0, 0.0], 1)]).params
                  for f in (weighted_fedavg, plain_average)]
    for params in (copy, noised, *aggregates):
        assert not params.values.flags.writeable
        with pytest.raises(ValueError):
            params.values[0] = 0.0
