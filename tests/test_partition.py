"""Sharding: disjointness, conservation, engineered label skew, CSV round-trip."""

import importlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsim.models import Dataset
from fedsim.partition import (
    ClientShard,
    InfeasiblePartition,
    PartitionPlan,
    make_synthetic,
    partition,
    read_dataset_csv,
    relabel_shard,
    skew_report,
    write_dataset_csv,
)

from _oracles import make_synthetic_reference


def _master(n_neg, n_pos, seed=0, d=3):
    return make_synthetic([np.zeros(d), np.ones(d)], 1.0, (n_neg, n_pos), seed=seed)


def _all_ids(shard):
    return np.concatenate([shard.train.ids, shard.test.ids])


def test_make_synthetic_shapes_and_labels():
    ds = make_synthetic([[0.0], [5.0]], 1.0, (0, 5), seed=1)
    assert ds.n == 5
    assert ds.labels.tolist() == [1] * 5
    assert sorted(ds.ids.tolist()) == list(range(5))


@st.composite
def _synthetic_args(draw):
    d = draw(st.integers(1, 5))
    mean = st.lists(st.floats(-50.0, 50.0), min_size=d, max_size=d)
    sizes = draw(st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(lambda s: sum(s) >= 1))
    scale, seed = draw(st.floats(1e-3, 1e3)), draw(st.integers(0, 2**63 - 1))
    return [draw(mean), draw(mean)], scale, sizes, seed


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(_synthetic_args())
@example(([[0.0], [5.0]], 1.0, (0, 7), 0))
@example(([[0.0] * 5, [-1.5] * 5], 0.25, (9, 0), 3))
def test_make_synthetic_keeps_the_bits_of_the_stacked_formula(args):
    ds = make_synthetic(*args)
    for got, want in zip((ds.features, ds.labels, ds.ids), make_synthetic_reference(*args)):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def test_make_synthetic_separation_controls_difficulty():
    # identical means: nothing to learn; far means: near-perfect
    from fedsim.models import ModelSpec, TrainConfig, forward, init_params, train_local

    spec = ModelSpec("logistic-regression", input_dim=2)
    cfg = TrainConfig(5, 32, 0.5, seed=0)

    same = make_synthetic([[1, 1], [1, 1]], 1.0, (1000, 1000), seed=2)
    fitted, _ = train_local(spec, init_params(spec, 0), same, cfg)
    probe = make_synthetic([[1, 1], [1, 1]], 1.0, (1000, 1000), seed=3)
    acc = np.mean((forward(spec, fitted, probe.features) >= 0.5) == (probe.labels == 1))
    assert 0.35 <= acc <= 0.65

    far = make_synthetic([[-3, -3], [3, 3]], 1.0, (1000, 1000), seed=2)
    fitted, _ = train_local(spec, init_params(spec, 0), far, cfg)
    probe = make_synthetic([[-3, -3], [3, 3]], 1.0, (1000, 1000), seed=3)
    acc = np.mean((forward(spec, fitted, probe.features) >= 0.5) == (probe.labels == 1))
    assert acc >= 0.99


def test_make_synthetic_deterministic():
    a = make_synthetic([[0, 0], [1, 1]], 2.0, (10, 10), seed=5)
    b = make_synthetic([[0, 0], [1, 1]], 2.0, (10, 10), seed=5)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_make_synthetic_seed_must_be_an_integer():
    a = make_synthetic([[0, 0], [1, 1]], 1.0, (np.int64(6), np.uint8(6)), seed=np.uint32(2))
    b = make_synthetic([[0, 0], [1, 1]], 1.0, (6, 6), seed=2)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    with pytest.raises(TypeError):
        make_synthetic([[0, 0], [1, 1]], 1.0, (6, 6), seed=2.9)  # once the data of seed 2


def test_make_synthetic_checks_its_source_before_drawing(monkeypatch):
    def no_draw(*parts):
        raise AssertionError("drew before checking the source")

    # the package's ``partition`` attribute is the function, not this module
    monkeypatch.setattr(importlib.import_module("fedsim.partition"), "rng_from", no_draw)
    two = [[0.0, 0.0], [1.0, 1.0]]
    for means, scale, sizes, message in [
        (two + [[2.0, 2.0]], 1.0, (6, 6), r"class_means must be two nonempty vectors"),
        (two[:1], 1.0, (6, 6), r"class_means must be two nonempty vectors"),
        ([[0.0, 0.0], [1.0]], 1.0, (6, 6), r"class_means must be two nonempty vectors"),
        ([[], []], 1.0, (6, 6), r"class_means must be two nonempty vectors"),
        ([[0.0, 0.0], [math.nan, 1.0]], 1.0, (6, 6), r"class_means\[1\]\[0\] must be finite"),
        ([[0.0, -math.inf], [1.0, 1.0]], 1.0, (6, 6), r"class_means\[0\]\[1\] must be finite"),
        ([[0.0, 10**400], [1.0, 1.0]], 1.0, (6, 6), r"class_means\[0\]\[1\] must be finite"),
        (two, 1.0, (6, 6, 6), r"n_per_class must be two class sizes"),
        (two, 1.0, (6,), r"n_per_class must be two class sizes"),
        (two, 1.0, (0, 0), r"n_per_class must be two class sizes holding at least one sample"),
        (two, 1.0, (6, -1), r"n_per_class\[1\] must be >= 0"),
    ]:
        with pytest.raises(ValueError, match=message):
            make_synthetic(means, scale, sizes, seed=1)


def test_plan_validation():
    with pytest.raises(ValueError):
        PartitionPlan("pie-chart", 2)
    with pytest.raises(ValueError):
        PartitionPlan("explicit-counts", 2)  # counts missing
    with pytest.raises(ValueError):
        PartitionPlan("explicit-counts", 2, counts=(5,))
    with pytest.raises(ValueError):
        PartitionPlan("random-uniform", 2, counts=(5, 5))
    with pytest.raises(ValueError):
        PartitionPlan("label-skew", 2)
    with pytest.raises(ValueError):
        PartitionPlan("random-uniform", 2, train_fraction=0.0)
    with pytest.raises(ValueError):
        PartitionPlan(
            "explicit-counts", 2, counts=(5, 5), positive_fractions=(0.5, 1.2)
        )


def test_explicit_counts_exact_sizes():
    master = _master(300, 300)
    plan = PartitionPlan("explicit-counts", 3, counts=(100, 250, 50), seed=1)
    shards = partition(master, plan)
    assert [s.n_total for s in shards] == [100, 250, 50]
    assert [s.client_id for s in shards] == [0, 1, 2]


def test_single_client_identity():
    master = _master(40, 60)
    plan = PartitionPlan("explicit-counts", 1, counts=(100,), seed=3)
    (shard,) = partition(master, plan)
    assert sorted(_all_ids(shard).tolist()) == sorted(master.ids.tolist())


def test_random_uniform_covers_master():
    master = _master(2608, 2608, seed=4)
    plan = PartitionPlan("random-uniform", 10, seed=9)
    shards = partition(master, plan)
    ids = np.concatenate([_all_ids(s) for s in shards])
    assert ids.size == 5216
    assert np.unique(ids).size == 5216  # pairwise disjoint and exhaustive


def test_disjointness_and_conservation_random_plans():
    master = _master(150, 250, seed=6)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 6))
        plan = PartitionPlan("random-uniform", k, seed=seed)
        shards = partition(master, plan)
        ids = np.concatenate([_all_ids(s) for s in shards])
        assert np.unique(ids).size == ids.size
        assert ids.size <= master.n
        for s in shards:
            assert np.intersect1d(s.train.ids, s.test.ids).size == 0
            assert s.n_train >= 1


def test_partition_deterministic():
    master = _master(100, 100)
    plan = PartitionPlan("explicit-counts", 2, counts=(80, 90), seed=12)
    a = partition(master, plan)
    b = partition(master, plan)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.train.ids, sb.train.ids)
        assert np.array_equal(sa.test.ids, sb.test.ids)


def test_train_fraction_split():
    master = _master(50, 50)
    plan = PartitionPlan("explicit-counts", 1, counts=(100,), train_fraction=0.75, seed=0)
    (shard,) = partition(master, plan)
    assert shard.n_train == 75
    assert shard.test.n == 25

    plan_full = PartitionPlan("explicit-counts", 1, counts=(100,), train_fraction=1.0, seed=0)
    (shard,) = partition(master, plan_full)
    assert shard.n_train == 100
    assert shard.test.n == 0


def test_engineered_label_skew_matches_requested_percentages():
    master = _master(1341, 3875, seed=20)
    plan = PartitionPlan(
        "explicit-counts",
        3,
        counts=(1400, 2400, 1416),
        positive_fractions=(0.7143, 0.8333, 0.6179),
        seed=21,
    )
    shards = partition(master, plan)
    pos = [int(np.concatenate([s.train.labels, s.test.labels]).sum()) for s in shards]
    assert pos == [1001, 2000, 874]  # floor targets plus remainder to low ids
    report = skew_report(shards)
    for row, want in zip(report.clients, (71.43, 83.33, 61.79)):
        assert abs(row.pct_positive - want) < 0.1
    assert abs(report.overall.pct_positive - 74.29) < 0.1
    assert abs(report.overall.pct_negative - 25.71) < 0.1


def test_label_skew_mode_defaults_to_near_equal_sizes():
    master = _master(500, 500, seed=30)
    plan = PartitionPlan("label-skew", 3, positive_fractions=(0.2, 0.5, 0.8), seed=31)
    shards = partition(master, plan)
    assert sorted(s.n_total for s in shards) == [333, 333, 334]
    report = skew_report(shards)
    fracs = [row.pct_positive / 100.0 for row in report.clients]
    for got, want in zip(fracs, (0.2, 0.5, 0.8)):
        assert abs(got - want) < 0.01


def test_infeasible_partitions_raise():
    master = _master(50, 50)
    with pytest.raises(InfeasiblePartition):
        partition(master, PartitionPlan("explicit-counts", 1, counts=(101,)))
    with pytest.raises(InfeasiblePartition):
        # asks for 90 positives; master has 50
        partition(
            master,
            PartitionPlan("explicit-counts", 1, counts=(90,), positive_fractions=(1.0,)),
        )
    with pytest.raises(InfeasiblePartition):
        partition(
            master,
            PartitionPlan("explicit-counts", 1, counts=(90,), positive_fractions=(0.0,)),
        )
    with pytest.raises(InfeasiblePartition):
        partition(master, PartitionPlan("random-uniform", 101))


def test_skew_report_single_shard_all_positive():
    ds = make_synthetic([[0.0], [5.0]], 1.0, (0, 8), seed=1)
    shard = ClientShard(client_id=4, train=ds.subset(np.arange(6)), test=ds.subset([6, 7]))
    report = skew_report([shard])
    assert report.clients[0].pct_negative == 0.0
    assert report.clients[0].pct_positive == 100.0
    assert "ALL" in report.format_table()


def test_skew_report_rows_sum_to_100():
    master = _master(123, 321, seed=40)
    shards = partition(master, PartitionPlan("random-uniform", 4, seed=41))
    report = skew_report(shards)
    for row in report.clients + (report.overall,):
        assert abs(row.pct_negative + row.pct_positive - 100.0) < 1e-9


def test_skew_report_uniform_split_is_roughly_balanced():
    master = _master(5000, 5000, seed=50)
    shards = partition(master, PartitionPlan("random-uniform", 2, seed=51))
    report = skew_report(shards)
    for row in report.clients:
        assert abs(row.pct_positive - 50.0) < 3.0


def test_relabel_shard():
    master = _master(20, 20)
    (shard,) = partition(master, PartitionPlan("random-uniform", 1, seed=0))
    renamed = relabel_shard(shard, 17)
    assert renamed.client_id == 17
    assert renamed.train is shard.train and renamed.test is shard.test
    assert (shard.client_id, renamed) == (0, ClientShard(17, shard.train, shard.test))
    with pytest.raises(TypeError, match=r"^client_id must be an integer, got 2\.5$"):
        relabel_shard(shard, 2.5)
    with pytest.raises(ValueError, match=r"^client_id must be >= 0, got -1$"):
        relabel_shard(shard, -1)


@pytest.mark.parametrize("call, message", [
    (lambda: PartitionPlan("random-uniform", 2, positive_fractions=(0.5,)),
     "positive_fractions length must equal client_count"),
    (lambda: ClientShard(0, _master(2, 2).subset(np.arange(0)), _master(2, 2).subset([0])),
     "a shard needs at least one training sample"),
    (lambda: ClientShard(0, _master(2, 2, d=3).subset([0]), _master(2, 2, d=2).subset([1])),
     "train and test feature widths differ"),
    (lambda: skew_report([]), "skew_report needs at least one shard"),
], ids=["fractions-length", "shard-no-training-rows", "shard-width-mismatch", "skew-no-shards"])
def test_partition_inputs_are_checked(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_shard_rejects_overlapping_train_test():
    ds = _master(5, 5)
    with pytest.raises(ValueError):
        ClientShard(0, ds.subset([0, 1, 2]), ds.subset([2, 3]))


def test_dataset_csv_roundtrip(tmp_path):
    ds = _master(7, 9, seed=60)
    path = tmp_path / "data.csv"
    write_dataset_csv(ds, path)
    back = read_dataset_csv(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.ids, ds.ids)


def test_dataset_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,label,g0\n0,1,0.5\n")
    with pytest.raises(ValueError):
        read_dataset_csv(path)
    path.write_text("id,label,f0\n")
    with pytest.raises(ValueError):
        read_dataset_csv(path)
    path.write_text("id,label,f0\n0,1\n")
    with pytest.raises(ValueError):
        read_dataset_csv(path)
    path.write_text("label,id,f0\n1,0,0.5\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: expected header id,label,f0..")):
        read_dataset_csv(path)


def test_empty_master_rejected():
    empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    with pytest.raises(InfeasiblePartition):
        partition(empty, PartitionPlan("random-uniform", 1))
