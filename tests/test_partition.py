"""Sharding: disjointness, conservation, engineered label skew, CSV round-trip."""

import csv
import decimal
import importlib
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsim.models import Dataset
from fedsim.partition import (
    ClientShard,
    PARTITION_MODES,
    InfeasiblePartition,
    PartitionPlan,
    make_synthetic,
    partition,
    read_dataset_csv,
    relabel_shard,
    skew_report,
    write_dataset_csv,
)

from test_models import _peak_bytes
from _oracles import make_synthetic_reference, partition_reference, read_dataset_csv_reference


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


def test_make_synthetic_overflow_fails_the_finite_check_without_a_warning():
    # Under the suite's error::RuntimeWarning filter a stray overflow warning raises here.
    with pytest.raises(ValueError, match=r"^features must be finite$"):
        make_synthetic([[1e308] * 3, [-1e308] * 3], 1e308, (20, 20), seed=1)


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


@st.composite
def _partition_cases(draw):
    """A master of generated rows, ids and label mix, and a plan of any mode over it."""
    d, n_neg, n_pos = draw(st.integers(1, 3)), draw(st.integers(0, 30)), draw(st.integers(0, 30))
    mode, k = draw(st.sampled_from(PARTITION_MODES)), draw(st.integers(1, 6))
    counts = draw(st.none() | st.lists(st.integers(1, 12), min_size=k, max_size=k).map(tuple))
    fraction = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    fractions = draw(st.none() | st.lists(fraction, min_size=k, max_size=k).map(tuple))
    if mode == "explicit-counts":
        counts = counts or (1,) * k
    elif mode == "random-uniform":
        counts = fractions = None
    else:
        fractions = fractions or (0.5,) * k
    train_fraction = draw(st.sampled_from([1.0]) | st.floats(0.0, 1.0, exclude_min=True))
    return (d, n_neg, n_pos, draw(st.integers(0, 2**32)), mode, k, counts, fractions,
            train_fraction, draw(st.integers(0, 2**64)))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_partition_cases())
@example((3, 20, 20, 1, "explicit-counts", 3, (5, 9, 4), (0.0, 1.0, 0.5), 0.75, 7))  # undealt rows
@example((2, 20, 20, 2, "explicit-counts", 2, (6, 7), None, 0.6, 8))  # undealt, no label mix
@example((2, 9, 14, 3, "random-uniform", 1, None, None, 1.0, 9))  # k = 1, no test rows
@example((1, 12, 12, 4, "label-skew", 4, None, (0.0, 1.0, 0.0, 1.0), 1.0, 10))
@example((2, 15, 5, 5, "label-skew", 2, (6, 9), (0.0, 1.0), 0.5, 2**64))
def test_partition_equals_the_split_and_subset_reference_bit_for_bit(case):
    d, n_neg, n_pos, data_seed, mode, k, counts, fractions, train_fraction, seed = case
    if n_neg + n_pos == 0:
        n_neg = 1
    rng = np.random.default_rng(data_seed)
    n = n_neg + n_pos
    master = Dataset(rng.standard_normal((n, d)), rng.permutation([0] * n_neg + [1] * n_pos),
                     rng.permutation(n) * 7 + 3)
    plan = PartitionPlan(mode, k, counts, fractions, train_fraction, seed)
    try:
        want = partition_reference(master, plan, ClientShard)
    except ValueError as exc:
        with pytest.raises(InfeasiblePartition, match=f"^{re.escape(str(exc))}$"):
            partition(master, plan)
        return
    got = partition(master, plan)
    assert [s.client_id for s in got] == [s.client_id for s in want] == list(range(k))
    for g, w in zip(got, want):
        for side in ("train", "test"):
            for name in ("features", "labels", "ids"):
                a, b = getattr(getattr(g, side), name), getattr(getattr(w, side), name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
                assert not a.flags.writeable and a.flags.c_contiguous


def test_partition_allocates_one_block_of_rows():
    master = _master(4000, 4000, seed=70, d=64)
    plan = PartitionPlan("label-skew", 40, counts=(150,) * 40,
                         positive_fractions=(0.2, 0.8) * 20, seed=71)
    peak = _peak_bytes(lambda: partition(master, plan))
    dealt = sum(plan.counts)
    rows = dealt * (master.features.itemsize * master.feature_dim + 16)  # features, labels, ids
    # The pools and their permutations, the clients' dealt positions and their concatenation.
    index = (2 * master.n + 2 * dealt) * 8
    assert peak <= 1.1 * (rows + index)
    shards = partition(master, plan)
    first, last = shards[0].train.features, shards[-1].test.features
    assert np.shares_memory(first.base, last)  # slices of one block


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
    # Spellings only Python reads (a quoted field, an underscore) still read as float() does.
    path.write_text('id,label,f0,f1\n4,1,"2.5",1_0\n7,0,-0.0,"1_000.25"\n')
    back = read_dataset_csv(path)
    assert back.features.tobytes() == np.array([[2.5, 10.0], [-0.0, 1000.25]]).tobytes()
    assert back.labels.tolist() == [1, 0] and back.ids.tolist() == [4, 7]


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


def _halfway(x):
    """The exact decimal midway between ``x`` and the next double up."""
    x = min(abs(x), 1e300)
    with decimal.localcontext() as ctx:
        ctx.prec = 2000
        return str((decimal.Decimal(x) + decimal.Decimal(float(np.nextafter(x, np.inf)))) / 2)


# Spellings that int() and float() read and numpy's reader reads the same way, then ones
# that either of them refuses or that numpy reads otherwise.
_PLAIN_SPELLINGS = ["-0.0", "1e-400", "5e-324", "2.2250738585072011e-308", "9007199254740993",
                    "+5", " 7", "\x0b7", "7\x0c", "\t7 "]
_ODD_SPELLINGS = ["1_0", "\u0663", '"3"', "0x1", "", " ", "1.0", "1e400", "nan", "-inf",
                  "\x1c7", "7\x1f", "\u11707", "\u30007", "1#", "1e5"]
_FINITE_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds(  # 17-25 significant digits, the inputs a naive parser rounds wrongly
        lambda digits, point, exp: f"{digits[:point]}.{digits[point:]}e{exp}",
        st.text("0123456789", min_size=17, max_size=25), st.integers(0, 17), st.integers(-340, 300),
    ),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(_halfway),
    st.sampled_from(_PLAIN_SPELLINGS),
)
_ODD_TEXT = st.one_of(
    st.sampled_from(_ODD_SPELLINGS),
    st.sampled_from(_ODD_SPELLINGS),
    st.floats().map(repr),
    st.integers(2**63 - 3, 2**63 + 2).map(str),
    st.integers(-(2**63) - 2, -(2**63) + 2).map(str),
)


@st.composite
def _csv_files(draw):
    """CSV bytes in or near the format.  A plain file holds only spellings that
    both readers take; a second kind respells one field of a plain file; an odd
    file also has other field counts, stray lines, and bytes that are not UTF-8."""
    kind = draw(st.sampled_from(["plain", "one spelling", "odd"]))
    odd = kind == "odd"
    d = draw(st.integers(1, 3))
    header = ",".join(["id", "label"] + [f"f{j}" for j in range(d)])
    lines = [draw(st.sampled_from([header] * 8 + ["id,label", "id,label,g0"])) if odd else header]
    for i in range(draw(st.integers(0 if odd else 1, 5))):
        fields = [str(i), draw(st.sampled_from(["0", "1", " 1", "-0"] + ["2", "1.0"] * odd))]
        fields += [draw(_FINITE_TEXT) for _ in range(d)]
        if odd and draw(st.integers(0, 2)) == 0:
            at = draw(st.integers(0, len(fields) - 1))  # one field respelled, dropped or doubled
            fields[at:at + 1] = draw(st.sampled_from([[draw(_ODD_TEXT)]] * 2 + [[], [fields[at]] * 2]))
        lines.append(fields)
    if kind == "one spelling":
        fields = lines[draw(st.integers(1, len(lines) - 1))]
        fields[draw(st.integers(0, d + 1))] = draw(st.sampled_from(_ODD_SPELLINGS))
    lines = [lines[0]] + [",".join(fields) for fields in lines[1:]]
    for _ in range(draw(st.integers(0, 2)) if odd else 0):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", "   ", "\t"])))
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line end
    data = text.encode()
    if odd and draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]  # not UTF-8 from there on
    return data


def _read_arrays(path):
    ds = read_dataset_csv(path)
    return ds.features, ds.labels, ds.ids


def _outcome(read, path):
    try:
        arrays = read(path)
    except Exception as exc:  # the exception the caller sees, compared by type and message
        return type(exc), str(exc)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(data=_csv_files(), field_limit=st.sampled_from([None, None, 48]))
@example(data=b"id,label,f0\n0,1,0.5\n\n1,0,0.25\n", field_limit=None)  # numpy skips empty lines
@example(data=b"id,label,f0\r\n", field_limit=None)  # numpy warns and returns no rows
@example(data=b"id,label,f0\n0,1,0.5\r1,0,\x1c2\r", field_limit=None)  # numpy strips \x1c
@example(data="id,label,f0\n\u11707,1,0.5\n".encode(), field_limit=None)  # and some non-ASCII
@example(data=b"id,label,f0\n0,1," + b"0" * 60 + b"\n", field_limit=48)  # csv: field too long
@example(data=b"id,label,f0\n0,1,0.5#1\n", field_limit=None)  # no comment syntax
def test_dataset_csv_reads_as_the_row_loop(data, field_limit):
    """The reader returns the row loop's three arrays bit for bit, or raises its exception."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(data)
        default = csv.field_size_limit()
        csv.field_size_limit(field_limit or default)
        try:
            want = _outcome(read_dataset_csv_reference, path)
            got = _outcome(_read_arrays, path)
        finally:
            csv.field_size_limit(default)
    assert got == want


def test_empty_master_rejected():
    empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    with pytest.raises(InfeasiblePartition):
        partition(empty, PartitionPlan("random-uniform", 1))
