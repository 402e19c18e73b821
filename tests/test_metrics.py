import csv
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim.orchestrator
from fedsim.metrics import (
    MetricSet,
    RocCurve,
    UndefinedAUCError,
    _stacked_loss_accuracy,
    evaluate,
    loss_accuracy,
    roc_auc,
    summarize,
)
from fedsim.models import Dataset, ModelSpec, ParameterSet, forward, init_params
from fedsim.orchestrator import RoundRecord, RunReport
from fedsim.partition import make_synthetic
from fedsim.seeding import rng_from

from _oracles import pairwise_auc, trapezoid_area


def test_auc_fixture_three_quarters():
    scores = np.array([0.1, 0.4, 0.35, 0.8])
    labels = np.array([0, 0, 1, 1])
    _, auc = roc_auc(scores, labels)
    assert abs(auc - 0.75) < 1e-12


def test_auc_all_ties_is_half():
    _, auc = roc_auc(np.full(9, 0.3), np.array([0, 1, 0, 1, 0, 1, 0, 1, 0]))
    assert abs(auc - 0.5) < 1e-12


def test_auc_total_inversion_is_zero():
    # every positive scored below every negative
    _, auc = roc_auc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([0, 0, 1, 1]))
    assert auc == 0.0


def test_auc_perfect_ranking_is_one():
    _, auc = roc_auc(np.array([0.1, 0.2, 0.8, 0.9]), np.array([0, 0, 1, 1]))
    assert auc == 1.0


def test_auc_single_class_raises():
    with pytest.raises(UndefinedAUCError):
        roc_auc(np.array([0.2, 0.4]), np.array([1, 1]))
    with pytest.raises(UndefinedAUCError):
        roc_auc(np.array([0.2, 0.4]), np.array([0, 0]))


def test_trapezoid_matches_pairwise_oracle():
    rng = np.random.default_rng(77)
    for case in range(120):
        n = int(rng.integers(2, 60))
        if case % 3 == 0:
            scores = np.round(rng.random(n), 1)  # heavy ties
        elif case % 3 == 1:
            scores = rng.random(n)
        else:
            scores = rng.integers(0, 4, size=n).astype(float)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        curve, auc = roc_auc(scores, labels)
        assert abs(auc - pairwise_auc(scores, labels)) <= 1e-12
        # the reported area really is the trapezoid area of the curve
        assert abs(auc - trapezoid_area(curve.points[:, 0], curve.points[:, 1])) <= 1e-12


def test_auc_label_complement_and_monotone_invariance():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(4, 40))
        scores = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        _, auc = roc_auc(scores, labels)
        _, flipped = roc_auc(scores, 1 - labels)
        assert abs(auc + flipped - 1.0) <= 1e-12
        _, warped = roc_auc(np.exp(3.0 * scores), labels)
        assert abs(auc - warped) <= 1e-12


def test_roc_curve_shape_and_csv(tmp_path):
    curve, _ = roc_auc(np.array([0.1, 0.5, 0.5, 0.9]), np.array([0, 1, 0, 1]))
    pts = curve.points
    assert tuple(pts[0]) == (0.0, 0.0)
    assert tuple(pts[-1]) == (1.0, 1.0)
    assert np.all(np.diff(pts[:, 0]) >= 0)
    assert np.all(np.diff(pts[:, 1]) >= 0)
    path = tmp_path / "roc.csv"
    curve.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "fpr,tpr"
    assert len(lines) == len(pts) + 1


def test_roc_csv_bytes_match_a_csv_writer_of_each_points_repr(tmp_path):
    fpr = np.array([0.0, 1e-17, 0.1 + 0.2, 1 / 3, 1.0])
    tpr = np.array([0.0, 2 / 3, 2 / 3, 0.9999999999999999, 1.0])
    curve = RocCurve(np.column_stack([fpr, tpr]))
    want = tmp_path / "want.csv"
    with want.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fpr", "tpr"])
        for a, b in zip(fpr, tpr):
            writer.writerow([repr(float(a)), repr(float(b))])
    got = tmp_path / "got.csv"
    curve.to_csv(got)
    assert got.read_bytes() == want.read_bytes()
    assert got.read_bytes().startswith(b"fpr,tpr\r\n0.0,0.0\r\n1e-17,")


def test_roc_curve_validation():
    with pytest.raises(ValueError):
        RocCurve(np.array([[0.0, 0.0], [0.5, 0.2]]))  # does not end at (1, 1)
    with pytest.raises(ValueError):
        RocCurve(np.array([[0.0, 0.0], [0.6, 0.8], [0.5, 1.0], [1.0, 1.0]]))


def test_accuracy_tie_rule_classifies_half_as_one():
    spec = ModelSpec("logistic-regression", input_dim=2)
    zero = ParameterSet(np.zeros(3), spec.layer_shapes)  # predicts 0.5 everywhere
    ds = make_synthetic([[0, 0], [0, 0]], 1.0, (10, 10), seed=1)
    m = evaluate(spec, zero, ds)
    assert m.accuracy == 0.5
    assert abs(m.loss - math.log(2)) < 1e-12
    assert abs(m.auc - 0.5) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 7, 45, 299, 1000, 4097])
def test_accuracy_is_the_python_float_mean_of_correct_predictions(n):
    spec = ModelSpec("logistic-regression", input_dim=2)
    ds = make_synthetic([[-0.5, 0.0], [0.5, 0.2]], 1.0, (n // 2, n - n // 2), seed=n)
    p = init_params(spec, 3)
    _, acc = loss_accuracy(spec, p, ds)
    assert type(acc) is float
    assert acc == float(np.mean((forward(spec, p, ds.features) >= 0.5) == (ds.labels == 1)))


@pytest.mark.parametrize("labels", [[0, 1, 2], [0.0, 0.5, 1.0], [0.0, np.nan, 1.0], [-1, 0, 1]])
def test_roc_auc_refuses_labels_other_than_0_and_1(labels):
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        roc_auc(np.array([0.2, 0.5, 0.7]), np.array(labels))


_LR1 = ModelSpec("logistic-regression", input_dim=1)
_NO_ROWS = Dataset(np.zeros((0, 1)), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))


@pytest.mark.parametrize("call, message", [
    (lambda: MetricSet(0.5, 0.5, 1.5, 10), "auc must lie in [0, 1]"),
    (lambda: RocCurve(np.array([[0.0, 0.0]])), "a ROC curve needs at least two (fpr, tpr) points"),
    (lambda: roc_auc(np.array([0.2, 0.7]), np.array([1])),
     "scores and labels must be nonempty and of equal length"),
    (lambda: roc_auc(np.array([]), np.array([])),
     "scores and labels must be nonempty and of equal length"),
    (lambda: evaluate(_LR1, init_params(_LR1, 0), _NO_ROWS), "cannot evaluate on an empty dataset"),
    (lambda: loss_accuracy(_LR1, init_params(_LR1, 0), _NO_ROWS),
     "cannot evaluate on an empty dataset"),
    (lambda: summarize(RunReport(plan=None, rounds=[], total_sim_time_s=0.0, final_params=None,
                                 audit_log=[])),
     "cannot summarize a run with no completed rounds"),
], ids=["auc-above-one", "one-point-curve", "unequal-lengths", "no-scores", "evaluate-no-rows",
        "loss-accuracy-no-rows", "summarize-no-rounds"])
def test_metric_inputs_are_checked(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_roc_auc_takes_bool_and_whole_float_labels():
    scores = np.array([0.1, 0.4, 0.35, 0.8])
    for labels in (np.array([False, False, True, True]), np.array([0.0, 0.0, 1.0, 1.0])):
        assert roc_auc(scores, labels)[1] == 0.75


def test_evaluate_perfectly_separated():
    spec = ModelSpec("logistic-regression", input_dim=1)
    p = ParameterSet(np.array([10.0, 0.0]), spec.layer_shapes)
    ds = make_synthetic([[-3.0], [3.0]], 0.1, (25, 25), seed=2)
    m = evaluate(spec, p, ds)
    assert m.accuracy == 1.0
    assert m.auc == 1.0
    assert m.n == 50


def test_evaluate_keeps_the_roc_curve_it_measured():
    spec = ModelSpec("logistic-regression", input_dim=2)
    p = init_params(spec, 4)
    ds = make_synthetic([[-1.0, 0.0], [1.0, 0.5]], 1.0, (30, 20), seed=6)
    m = evaluate(spec, p, ds)
    curve, auc = roc_auc(forward(spec, p, ds.features), ds.labels)
    assert np.array_equal(m.roc.points, curve.points)
    assert m.auc == auc
    assert (m.loss, m.accuracy) == loss_accuracy(spec, p, ds)
    # the curve takes no part in equality or repr
    bare = MetricSet(loss=m.loss, accuracy=m.accuracy, auc=m.auc, n=m.n)
    assert bare.roc is None
    assert bare == m
    assert repr(bare) == repr(m)


def test_loss_accuracy_allows_single_class():
    spec = ModelSpec("logistic-regression", input_dim=1)
    p = init_params(spec, 0)
    ds = make_synthetic([[0.0], [5.0]], 1.0, (0, 12), seed=3)
    loss, acc = loss_accuracy(spec, p, ds)
    assert loss >= 0.0
    assert 0.0 <= acc <= 1.0
    with pytest.raises(UndefinedAUCError):
        evaluate(spec, p, ds)


def test_metric_set_bounds():
    with pytest.raises(ValueError):
        MetricSet(loss=-0.1, accuracy=0.5, auc=0.5, n=3)
    with pytest.raises(ValueError):
        MetricSet(loss=0.1, accuracy=1.5, auc=0.5, n=3)
    with pytest.raises(ValueError):
        MetricSet(loss=0.1, accuracy=0.5, auc=0.5, n=0)


def _fake_report(losses, accs=None, aucs=None):
    accs = accs or [0.5] * len(losses)
    aucs = aucs or [0.5] * len(losses)
    spec = ModelSpec("logistic-regression", input_dim=1)
    params = init_params(spec, 0)
    from fedsim.aggregation import Update, weighted_fedavg

    agg = weighted_fedavg([Update(0, params, 1, 0)])
    rounds = [
        RoundRecord(
            round_index=i + 1,
            participants=(),
            aggregate=agg,
            global_params=params,
            global_metrics=MetricSet(loss, acc, auc, 10),
            client_metrics=(),
            sim_time_s=1.0,
        )
        for i, (loss, acc, auc) in enumerate(zip(losses, accs, aucs))
    ]
    return RunReport(plan=None, rounds=rounds, total_sim_time_s=float(len(losses)),
                     final_params=params, audit_log=[])


def test_summarize_argmin_loss():
    s = summarize(_fake_report([5.0, 2.0, 3.0]))
    assert s.best_loss == (2, 2.0)
    assert s.rounds_completed == 3
    assert s.final.loss == 3.0


def test_summarize_single_round():
    s = summarize(_fake_report([1.5]))
    assert s.best_loss == (1, 1.5)
    assert s.best_accuracy == (1, 0.5)
    assert s.best_auc == (1, 0.5)


def test_summarize_strictly_improving_picks_last():
    s = summarize(_fake_report([4.0, 3.0, 2.0, 1.0], accs=[0.1, 0.2, 0.3, 0.4]))
    assert s.best_loss == (4, 1.0)
    assert s.best_accuracy == (4, 0.4)


def test_summarize_ties_go_to_earliest_round():
    s = summarize(_fake_report([2.0, 2.0, 2.0], accs=[0.7, 0.7, 0.6]))
    assert s.best_loss[0] == 1
    assert s.best_accuracy[0] == 1


def test_forward_scores_feed_roc_cleanly():
    spec = ModelSpec("logistic-regression", input_dim=2)
    ds = make_synthetic([[-2, -2], [2, 2]], 1.0, (30, 30), seed=4)
    p = init_params(spec, 1)
    scores = forward(spec, p, ds.features)
    curve, auc = roc_auc(scores, ds.labels)
    assert 0.0 <= auc <= 1.0
    assert curve.points.shape[1] == 2


_STACKED_SPECS = [ModelSpec("logistic-regression", 8), ModelSpec("mlp-1hidden", 8, 16, "relu"),
                  ModelSpec("mlp-1hidden", 8, 16, "sigmoid")]


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(
    spec=st.sampled_from(_STACKED_SPECS),
    # Repeated sizes make stacks; 1-600 rows cross numpy's 128-entry pairwise-sum blocks.
    sizes=st.lists(st.sampled_from([1, 3, 15, 127, 128, 129, 600]) | st.integers(1, 600),
                   min_size=1, max_size=12),
    scale=st.sampled_from([0.5, 1e3]),  # 1e3 saturates the scores into the clip and the clamp
    max_rows=st.sampled_from([1, fedsim.orchestrator._STACK_ROWS, 10**9]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_evaluation_is_loss_accuracy_bit_for_bit(spec, sizes, scale, max_rows, seed):
    rng = rng_from(seed)
    params = ParameterSet(rng.standard_normal(spec.param_count) * scale, spec.layer_shapes)
    datasets = [Dataset(rng.standard_normal((n, 8)), rng.integers(0, 2, n), np.arange(n))
                for n in sizes]
    stacked = _stacked_loss_accuracy(spec, params, datasets, max_rows)
    alone = [loss_accuracy(spec, params, ds) for ds in datasets]
    assert [(loss.hex(), acc.hex()) for loss, acc in stacked] == [
        (loss.hex(), acc.hex()) for loss, acc in alone]
