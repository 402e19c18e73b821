import math
import re
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import fedsim.models
from fedsim.models import (
    ACTIVATIONS,
    LOGISTIC,
    MLP,
    Dataset,
    ModelSpec,
    ParameterSet,
    TrainConfig,
    _KERNELS,
    _P_HI,
    _P_LO,
    _sigmoid,
    _workspace,
    bce_loss,
    forward,
    init_params,
    loss_and_grad,
    train_local,
)
from fedsim.partition import make_synthetic
from fedsim.seeding import rng_from

from _oracles import (
    clipped_bce_reference,
    fd_gradient,
    logistic_sgd_reference,
    masked_sigmoid,
    sgd_step_loop_reference,
    where_sigmoid,
)

LR3 = ModelSpec(LOGISTIC, input_dim=3)
MLP23 = ModelSpec(MLP, input_dim=2, hidden_dim=3)


def _random_instance(spec, seed, n=8):
    rng = rng_from(seed)
    base = init_params(spec, seed)
    params = base.with_values(base.values + 0.5 * rng.standard_normal(base.size))
    X = rng.standard_normal((n, spec.input_dim))
    y = rng.integers(0, 2, size=n)
    return params, X, y


def test_parameter_set_layout():
    p = ParameterSet(np.arange(4.0), LR3.layer_shapes)
    assert p.size == 4
    layers = p.layers()
    assert np.array_equal(layers["output_kernel"], [0.0, 1.0, 2.0])
    assert np.array_equal(layers["output_bias"], [3.0])


def test_parameter_set_rejects_bad_input():
    with pytest.raises(ValueError):
        ParameterSet(np.arange(5.0), LR3.layer_shapes)  # wrong length
    with pytest.raises(ValueError):
        ParameterSet(np.array([[1.0, 2.0]]), (("output_kernel", (2,)),))
    with pytest.raises(ValueError):
        ParameterSet(np.array([1.0, np.nan]), (("output_kernel", (2,)),))


_TWO_ROWS = Dataset(np.zeros((2, 3)), np.array([0, 1]), np.array([0, 1]))
_NO_ROWS = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
_CFG = TrainConfig(epochs=1, batch_size=2, learning_rate=0.1)


@pytest.mark.parametrize("call, message", [
    (lambda: Dataset(np.zeros(3), np.array([0, 1, 0]), np.array([0, 1, 2])),
     "features must be 2-D, got shape (3,)"),
    (lambda: Dataset(np.zeros((3, 2)), np.array([0, 1]), np.array([0, 1, 2])),
     "features, labels and ids must agree in length"),
    (lambda: forward(LR3, init_params(LR3, 0), np.zeros(3)), "features must be 2-D, got shape (3,)"),
    (lambda: loss_and_grad(LR3, init_params(LR3, 0), np.zeros((2, 3)), np.array([1])),
     "features and labels must agree in length"),
    (lambda: loss_and_grad(LR3, init_params(LR3, 0), np.zeros((0, 3)), np.array([])),
     "empty batch"),
    (lambda: train_local(LR3, init_params(LR3, 0), _NO_ROWS, _CFG),
     "cannot train on an empty dataset"),
    (lambda: train_local(ModelSpec(LOGISTIC, input_dim=2), init_params(ModelSpec(LOGISTIC, 2), 0),
                         _TWO_ROWS, _CFG),
     "dataset width 3 does not match model input_dim 2"),
], ids=["dataset-1d-features", "dataset-short-labels", "forward-1d-features",
        "loss-short-labels", "loss-empty-batch", "train-no-rows", "train-width-mismatch"])
def test_model_inputs_are_checked(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_parameter_set_is_frozen():
    p = ParameterSet(np.zeros(4), LR3.layer_shapes)
    with pytest.raises(ValueError):
        p.values[0] = 1.0


def test_warm_layout_memo_still_rejects_a_wrong_length():
    spec = ModelSpec(MLP, input_dim=4, hidden_dim=2)
    good = init_params(spec, 3)
    loss_and_grad(spec, good, np.zeros((2, 4)), np.array([0, 1]))  # memo is warm
    for n in (spec.param_count - 1, spec.param_count + 1, 0):
        with pytest.raises(ValueError, match="layer shapes describe"):
            ParameterSet(np.zeros(n), spec.layer_shapes)
        with pytest.raises(ValueError, match="layer shapes describe"):
            good.with_values(np.zeros(n))


def test_cached_layout_leaves_model_spec_equality_hash_and_repr_alone():
    a = ModelSpec(MLP, input_dim=2, hidden_dim=3)
    b = ModelSpec(MLP, input_dim=2, hidden_dim=3)
    text, key = repr(b), hash(b)
    assert a.layer_shapes is a.layer_shapes
    assert a == b and hash(a) == key and repr(a) == text
    assert text == "ModelSpec(kind='mlp-1hidden', input_dim=2, hidden_dim=3, activation='relu')"
    assert a != ModelSpec(MLP, input_dim=2, hidden_dim=4)
    assert replace(a, hidden_dim=4).layer_shapes[0] == ("hidden_kernel", (2, 4))
    with pytest.raises(FrozenInstanceError):
        a.input_dim = 5


def test_model_spec_param_counts():
    assert LR3.param_count == 4
    assert MLP23.param_count == 13
    assert ModelSpec(MLP, input_dim=5, hidden_dim=4).param_count == 5 * 4 + 4 + 4 + 1


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("perceptron", input_dim=2)
    with pytest.raises(ValueError):
        ModelSpec(LOGISTIC, input_dim=2, hidden_dim=3)
    with pytest.raises(ValueError):
        ModelSpec(MLP, input_dim=2)
    with pytest.raises(ValueError):
        ModelSpec(MLP, input_dim=2, hidden_dim=3, activation="tanh")


def test_init_params_glorot():
    p = init_params(LR3, seed=42)
    assert p.size == 4
    assert p.values[-1] == 0.0  # bias starts at zero
    s = math.sqrt(6.0 / (3 + 1))
    assert np.all(np.abs(p.values[:3]) < s)
    assert np.array_equal(p.values, init_params(LR3, seed=42).values)
    assert not np.array_equal(p.values, init_params(LR3, seed=43).values)

    q = init_params(MLP23, seed=0)
    layers = q.layers()
    assert np.array_equal(layers["hidden_bias"], np.zeros(3))
    assert layers["output_bias"][0] == 0.0
    s1 = math.sqrt(6.0 / (2 + 3))
    assert np.all(np.abs(layers["hidden_kernel"]) < s1)


def test_forward_zero_params_gives_half():
    for spec in (LR3, MLP23):
        p = ParameterSet(np.zeros(spec.param_count), spec.layer_shapes)
        X = rng_from(1).standard_normal((6, spec.input_dim))
        assert np.allclose(forward(spec, p, X), 0.5)


def test_forward_fixtures():
    spec = ModelSpec(LOGISTIC, input_dim=2)
    p = ParameterSet(np.array([1.0, 0.0, 0.0]), spec.layer_shapes)
    assert forward(spec, p, np.array([[0.0, 5.0]]))[0] == 0.5

    spec1 = ModelSpec(LOGISTIC, input_dim=1)
    p1 = ParameterSet(np.array([2.0, 1.0]), spec1.layer_shapes)
    got = forward(spec1, p1, np.array([[1.0]]))[0]
    assert abs(got - 1.0 / (1.0 + math.exp(-3.0))) < 1e-15


def test_forward_saturation_stays_inside_unit_interval():
    spec = ModelSpec(LOGISTIC, input_dim=1)
    p = ParameterSet(np.array([1000.0, 0.0]), spec.layer_shapes)
    X = np.array([[1.0], [-1.0]])
    probs = forward(spec, p, X)
    assert 0.0 < probs[1] and probs[0] < 1.0
    assert np.all(np.isfinite(probs))


def test_forward_shape_checks():
    p = init_params(LR3, 0)
    with pytest.raises(ValueError):
        forward(LR3, p, np.zeros((4, 2)))
    with pytest.raises(ValueError):
        forward(MLP23, p, np.zeros((4, 2)))


def test_bce_loss_fixtures():
    assert abs(bce_loss(np.full(10, 0.5), rng_from(2).integers(0, 2, 10)) - math.log(2)) < 1e-15
    # saturated predictions are clamped, not infinite
    assert 0.0 <= bce_loss(np.array([1.0]), np.array([1])) <= 1e-11
    assert bce_loss(np.array([0.0]), np.array([1])) > 20.0
    with pytest.raises(ValueError):
        bce_loss(np.array([]), np.array([]))


def test_gradients_match_finite_differences():
    specs = [
        ModelSpec(LOGISTIC, input_dim=4),
        ModelSpec(MLP, input_dim=3, hidden_dim=5),
        ModelSpec(MLP, input_dim=3, hidden_dim=4, activation="sigmoid"),
    ]
    for spec in specs:
        for seed in range(5):
            params, X, y = _random_instance(spec, seed + 10)

            def loss_of(vals):
                return loss_and_grad(spec, params.with_values(vals), X, y)[0]

            _, grad = loss_and_grad(spec, params, X, y)
            fd = fd_gradient(loss_of, params.values)
            rel = np.abs(fd - grad.values) / np.maximum(np.abs(grad.values), 1e-8)
            assert rel.max() < 1e-5, f"{spec.kind} seed {seed}: rel err {rel.max():.2e}"


def test_train_local_zero_lr_is_identity():
    master = make_synthetic([[-1, -1], [1, 1]], 1.0, (20, 20), seed=3)
    spec = ModelSpec(LOGISTIC, input_dim=2)
    p = init_params(spec, 5)
    out, epochs = train_local(spec, p, master, TrainConfig(3, 8, 0.0, seed=1))
    assert epochs == 3
    assert np.array_equal(out.values, p.values)


def test_train_local_zero_epochs_is_identity():
    master = make_synthetic([[-1, -1], [1, 1]], 1.0, (10, 10), seed=3)
    spec = ModelSpec(LOGISTIC, input_dim=2)
    p = init_params(spec, 5)
    out, epochs = train_local(spec, p, master, TrainConfig(0, 8, 0.5, seed=1))
    assert epochs == 0
    assert np.array_equal(out.values, p.values)


def test_train_local_fits_separable_blobs():
    master = make_synthetic([[-3, -3], [3, 3]], 1.0, (100, 100), seed=7)
    spec = ModelSpec(LOGISTIC, input_dim=2)
    p = init_params(spec, 7)
    out, _ = train_local(spec, p, master, TrainConfig(20, 32, 0.5, seed=7))
    preds = forward(spec, out, master.features) >= 0.5
    acc = np.mean(preds == (master.labels == 1))
    assert acc >= 0.99


def test_train_local_matches_reference_sgd():
    master = make_synthetic([[-1, 0, 1], [1, 0, -1]], 1.5, (30, 34), seed=9)
    spec = ModelSpec(LOGISTIC, input_dim=3)
    p = init_params(spec, 11)
    cfg = TrainConfig(epochs=4, batch_size=16, learning_rate=0.3, seed=13)
    got, _ = train_local(spec, p, master, cfg)
    orders = [rng_from(cfg.seed, e).permutation(master.n) for e in range(cfg.epochs)]
    want = logistic_sgd_reference(
        p.values, master.features, master.labels, orders, cfg.batch_size, cfg.learning_rate
    )
    assert np.allclose(got.values, want, rtol=0, atol=1e-12)


def test_train_local_deterministic_and_pure():
    master = make_synthetic([[-1, -1], [1, 1]], 1.0, (25, 25), seed=4)
    spec = ModelSpec(LOGISTIC, input_dim=2)
    p = init_params(spec, 2)
    before = p.values.copy()
    cfg = TrainConfig(3, 10, 0.2, seed=8)
    a, _ = train_local(spec, p, master, cfg)
    b, _ = train_local(spec, p, master, cfg)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(p.values, before)
    c, _ = train_local(spec, p, master, TrainConfig(3, 10, 0.2, seed=9))
    assert not np.array_equal(a.values, c.values)


def test_train_local_input_checks():
    master = make_synthetic([[-1, -1], [1, 1]], 1.0, (5, 5), seed=4)
    spec = ModelSpec(LOGISTIC, input_dim=2)
    p = init_params(ModelSpec(LOGISTIC, input_dim=3), 0)
    with pytest.raises(ValueError):
        train_local(spec, p, master, TrainConfig(1, 4, 0.1))
    with pytest.raises(ValueError):
        TrainConfig(-1, 4, 0.1)
    with pytest.raises(ValueError):
        TrainConfig(1, 0, 0.1)
    with pytest.raises(ValueError):
        TrainConfig(1, 4, -0.1)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.array([0, 1, 2]), np.arange(3))
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.array([0, 1, 1]), np.array([0, 1, 1]))
    ds = Dataset(np.arange(6.0).reshape(3, 2), np.array([0, 1, 1]), np.arange(3))
    sub = ds.subset(np.array([2, 0]))
    assert sub.ids.tolist() == [2, 0]
    assert sub.features[0, 0] == 4.0


def test_public_dataset_constructor_copies_and_leaves_the_callers_arrays_writable():
    features, labels, ids = np.arange(6.0).reshape(3, 2), np.array([0, 1, 1]), np.arange(3)
    ds = Dataset(features, labels, ids)
    features[0, 0], labels[0], ids[0] = 9.0, 1, 7
    assert (ds.features[0, 0], ds.labels[0], ds.ids[0]) == (0.0, 0, 0)
    assert all(a.flags.writeable for a in (features, labels, ids))
    assert not any(a.flags.writeable for a in (ds.features, ds.labels, ds.ids))


@pytest.mark.parametrize("indices", [np.array([False, True]), np.array([0.7, 2.9])])
def test_subset_rejects_indices_that_are_not_integers(indices):
    ds = Dataset(np.arange(6.0).reshape(3, 2), np.array([0, 1, 1]), np.arange(3))
    with pytest.raises(ValueError, match="subset indices must be integers"):
        ds.subset(indices)


@pytest.mark.parametrize("indices", [[0, 0], [0, -3]])
def test_subset_refuses_positions_that_name_one_row_twice(indices):
    ds = Dataset(np.arange(6.0).reshape(3, 2), np.array([0, 1, 1]), np.arange(3))
    with pytest.raises(ValueError, match="sample ids must be unique"):
        ds.subset(indices)


def test_dataset_refuses_fractional_labels_and_ids():
    with pytest.raises(ValueError, match="labels"):
        Dataset(np.zeros((2, 2)), [0.7, 1.9], [0.2, 1.5])
    with pytest.raises(ValueError, match="ids"):
        Dataset(np.zeros((2, 2)), [0, 1], [0.2, 1.5])


@pytest.mark.parametrize("field", ["labels", "ids"])
@pytest.mark.parametrize("bad", [0.5, -0.25, np.nan, np.inf, -np.inf, 1e20, 2.0**63, -1e19])
def test_dataset_refuses_a_label_or_id_the_int64_cast_would_change(field, bad):
    arrays = {"labels": np.array([0.0, 1.0]), "ids": np.array([3.0, 4.0])}
    arrays[field][1] = bad
    with pytest.raises(ValueError, match=field):
        Dataset(np.zeros((2, 2)), arrays["labels"], arrays["ids"])


def test_dataset_refuses_a_uint64_id_past_int64():
    with pytest.raises(ValueError, match="ids"):
        Dataset(np.zeros((2, 2)), [0, 1], np.array([0, 2**63], dtype=np.uint64))


def test_dataset_accepts_bool_labels_and_whole_number_floats():
    ds = Dataset(np.zeros((3, 2)), np.array([False, True, True]), [0.0, -(2.0**63), 7.0])
    assert ds.labels.tolist() == [0, 1, 1] and ds.ids.tolist() == [0, -(2**63), 7]
    ds = Dataset(np.zeros((2, 2)), [0.0, 1.0], np.array([2**63 - 1, 5], dtype=np.uint64))
    assert ds.labels.tolist() == [0, 1] and ds.ids.tolist() == [2**63 - 1, 5]
    assert ds.labels.dtype == ds.ids.dtype == np.int64


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_mlp_forward_is_the_gradient_paths_p_and_leaves_its_inputs_alone(activation):
    spec = ModelSpec(MLP, input_dim=4, hidden_dim=6, activation=activation)
    params, X, y = _random_instance(spec, seed=5, n=40)
    X_before, v_before = X.copy(), params.values.copy()
    p, _ = _KERNELS[MLP](spec, params.values, X, y.astype(np.float64), _workspace(spec, 40))
    assert forward(spec, params, X).tobytes() == np.clip(p, _P_LO, _P_HI).tobytes()
    assert X.tobytes() == X_before.tobytes() and X.flags.writeable
    assert params.values.tobytes() == v_before.tobytes()


def _peak_bytes(call):
    """Peak traced allocation of ``call()``, after one untimed warm-up call
    (a first call may set up caches that later calls reuse)."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_make_synthetic_allocates_little_beyond_its_features():
    n_per_class, d = (3000, 3000), 64
    peak = _peak_bytes(lambda: make_synthetic([np.zeros(d), np.ones(d)], 1.0, n_per_class, 4))
    assert peak <= 2.6 * sum(n_per_class) * d * 8


def test_subset_allocates_little_beyond_the_selected_rows():
    master = make_synthetic([np.zeros(64), np.ones(64)], 1.0, (4000, 4000), 4)
    idx = rng_from(4).permutation(master.n)[:4000]
    sub = master.subset(idx)
    selected = sub.features.nbytes + sub.labels.nbytes + sub.ids.nbytes
    assert _peak_bytes(lambda: master.subset(idx)) <= 1.3 * selected


def test_relu_mlp_forward_allocates_one_hidden_activation():
    spec = ModelSpec(MLP, input_dim=16, hidden_dim=128)
    params, X, _ = _random_instance(spec, seed=6, n=4000)
    assert _peak_bytes(lambda: forward(spec, params, X)) <= 1.3 * X.shape[0] * spec.hidden_dim * 8


def test_sigmoid_mlp_forward_allocates_two_hidden_blocks():
    # z1, which the activation overwrites, and the sigmoid's scratch.
    spec = ModelSpec(MLP, input_dim=16, hidden_dim=128, activation="sigmoid")
    params, X, _ = _random_instance(spec, seed=6, n=4000)
    assert _peak_bytes(lambda: forward(spec, params, X)) <= 2.05 * X.shape[0] * spec.hidden_dim * 8


def test_train_local_allocates_one_epoch_of_rows_and_one_workspace():
    spec, n, batch_size = ModelSpec(MLP, input_dim=64, hidden_dim=256), 4000, 128
    params, ds = _oracle_case(spec, n, seed=2)
    trainings = [
        lambda epochs=epochs: train_local(spec, params, ds, TrainConfig(epochs, batch_size, 0.1))
        for epochs in (1, 4)
    ]
    # In a fresh process the 4-epoch peak reads ~700 bytes high over its first six or so
    # calls (small blocks kept inside np.take), so both run ten times before either is measured.
    for training in trainings * 10:
        training()
    peaks = [_peak_bytes(training) for training in trainings]
    workspace = sum(a.nbytes for a in _workspace(spec, batch_size))
    assert peaks[1] <= peaks[0]  # nothing grows with the epochs
    assert peaks[0] <= 1.2 * (ds.features.nbytes + workspace)


def _oracle_case(spec, n, seed):
    rng = rng_from(seed, 1)
    X = rng.standard_normal((n, spec.input_dim))
    y = rng.integers(0, 2, size=n)
    return init_params(spec, seed), Dataset(X, y, np.arange(n))


@pytest.mark.parametrize(
    "spec",
    [LR3, MLP23, ModelSpec(MLP, input_dim=2, hidden_dim=3, activation="sigmoid")],
    ids=["logistic", "mlp-relu", "mlp-sigmoid"],
)
@pytest.mark.parametrize("epochs", [0, 1, 2, 3])
def test_train_local_is_bitwise_the_checked_step_loop(spec, epochs):
    # (n, batch_size, learning_rate): a short last batch, one batch larger
    # than the data, and a zero learning rate.
    for n, batch_size, lr in [(23, 5, 0.4), (10, 16, 0.7), (12, 4, 0.0)]:
        params, ds = _oracle_case(spec, n, seed=epochs + n)
        before = params.values.copy()
        cfg = TrainConfig(epochs, batch_size, lr, seed=3)
        got, ran = train_local(spec, params, ds, cfg)
        want = sgd_step_loop_reference(
            before, ds.features, ds.labels, cfg.seed, epochs, batch_size, lr,
            hidden=spec.hidden_dim, activation=spec.activation,
        )
        assert ran == epochs
        assert got.values.tobytes() == want.tobytes()
        assert got.shapes == spec.layer_shapes
        assert params.values.tobytes() == before.tobytes()
        assert not params.values.flags.writeable


@pytest.mark.parametrize(
    "spec",
    [LR3, MLP23, ModelSpec(MLP, input_dim=2, hidden_dim=3, activation="sigmoid")],
    ids=["logistic", "mlp-relu", "mlp-sigmoid"],
)
def test_raw_step_gradient_is_bitwise_the_public_gradient(spec):
    # 23 rows in batches of 5, as train_local slices them: four full batches and a short one,
    # each through a workspace of its own size and through one 5-row workspace that all share.
    params, ds = _oracle_case(spec, 23, seed=4)
    X, y = ds.features, ds.labels.astype(np.float64)
    shared = _workspace(spec, 5)
    for start in range(0, ds.n, 5):
        Xb, yb = X[start : start + 5], y[start : start + 5]
        want = loss_and_grad(spec, params, Xb, yb)[1].values
        assert not np.shares_memory(want, loss_and_grad(spec, params, Xb, yb)[1].values)
        for work in (_workspace(spec, Xb.shape[0]), shared):
            raw = loss_and_grad(spec, params.values, Xb, yb, _work=work)
            assert type(raw) is np.ndarray and raw is work[0]
            assert np.array_equal(raw, want)
    assert Xb.shape[0] == 3


@pytest.mark.parametrize("n, batch_size, epochs", [(23, 5, 3), (10, 16, 2), (20, 4, 1)])
def test_train_local_calls_loss_and_grad_once_per_step(monkeypatch, n, batch_size, epochs):
    params, ds = _oracle_case(MLP23, n, seed=n)
    cfg = TrainConfig(epochs, batch_size, 0.4, seed=3)
    want, _ = train_local(MLP23, params, ds, cfg)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[3].size)
        return loss_and_grad(*args, **kwargs)

    monkeypatch.setattr(fedsim.models, "loss_and_grad", counted)
    got, _ = train_local(MLP23, params, ds, cfg)
    assert len(calls) == epochs * math.ceil(n / batch_size)
    assert sum(calls) == epochs * n
    assert got.values.tobytes() == want.values.tobytes()


def test_train_local_divergence_still_raises():
    params, ds = _oracle_case(MLP23, 23, seed=5)
    cfg = TrainConfig(3, 5, 1e300, seed=3)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="parameter values must be finite"):
            sgd_step_loop_reference(params.values, ds.features, ds.labels, cfg.seed, 3, 5,
                                    1e300, hidden=3)
        with pytest.raises(ValueError, match="parameter values must be finite"):
            train_local(MLP23, params, ds, cfg)


@pytest.mark.parametrize("spec", [
    ModelSpec(LOGISTIC, 8), ModelSpec(MLP, 64, 256), ModelSpec(MLP, 8, 16, "sigmoid"),
], ids=["logistic-d8", "relu-mlp-64-256", "sigmoid-mlp-8-16"])
@pytest.mark.parametrize("m", [1, 3, 5, 13, 15, 45])
def test_kernels_score_a_stack_as_its_slices_bit_for_bit(spec, m):
    # Per-client evaluation scores equal-sized test sets in (c, m, d) stacks.  It is exact
    # because matmul calls BLAS once per slice, as for the 2-D slice alone; these are row
    # counts where joining the rows into one 2-D matrix changes the bits.
    rng = rng_from(m, 31)
    v = rng.standard_normal(spec.param_count) * 0.5
    stack = rng.standard_normal((max(2, 1024 // m), m, spec.input_dim)) * 3.0
    scores, _ = _KERNELS[spec.kind](spec, v, stack)
    for c, X in enumerate(stack):
        alone, _ = _KERNELS[spec.kind](spec, v, X.copy())
        assert scores[c].tobytes() == alone.tobytes()


def test_sigmoid_and_bce_keep_the_reference_bits():
    z = np.concatenate([
        [0.0, -0.0, np.nan, np.inf, -np.inf, 709.0, -709.0, 745.5, -745.5, 1e-300, -1e-300],
        rng_from(8).standard_normal(200) * 30.0,
    ])
    assert _sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()
    probs = np.concatenate([[0.0, 1.0, 1e-13, 1.0 - 1e-13, 0.5], rng_from(9).random(50)])
    labels = rng_from(10).integers(0, 2, size=probs.size)
    assert bce_loss(probs, labels) == clipped_bce_reference(probs, labels)


def test_sigmoid_keeps_the_bits_of_one_where_over_both_quotients():
    z = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0)],
        [710.0, -710.0, 750.0, -750.0],
        rng_from(11).standard_normal(100_000) * 40.0,
    ])
    assert _sigmoid(z).tobytes() == where_sigmoid(z).tobytes()


# The kernels as they were before their 2-D products moved to ``ndarray.dot`` and the sigmoid
# lost its sign mask: each call is the plain ``matmul`` form, the reference for the bits.
def _masked_copyto_sigmoid(z, out=None, e=None, pos=None):
    e = np.negative(z, out=e)
    np.exp(np.minimum(z, e, out=e), out=e)
    pos = np.greater_equal(z, 0, out=pos)
    out = np.add(e, 1.0, out=out)
    np.copyto(e, 1.0, where=pos)
    return np.divide(e, out, out=out)


def _matmul_kernel(spec, v, X, y):
    """p and the gradient of one step, every vector product through ``matmul``."""
    g = np.empty(spec.param_count)
    if spec.kind == LOGISTIC:
        p = _masked_copyto_sigmoid(X @ v[:-1] + v[-1])
        dz = (p - y) / y.size
        np.matmul(X.T, dz, out=g[:-1])
    else:
        d, h = spec.input_dim, spec.hidden_dim
        k = d * h
        w2 = v[k + h : -1]
        z1 = np.matmul(X, v[:k].reshape(d, h)) + v[k : k + h]
        a = np.maximum(z1, 0.0) if spec.activation == "relu" else _masked_copyto_sigmoid(z1)
        p = _masked_copyto_sigmoid(a @ w2 + v[-1])
        dz = (p - y) / y.size
        dh = dz[:, None] * w2[None, :]
        dh = dh * (z1 > 0.0) if spec.activation == "relu" else (dh * a) * (1.0 - a)
        np.matmul(X.T, dh, out=g[:k].reshape(d, h))
        np.add.reduce(dh, axis=0, out=g[k : k + h])
        np.matmul(a.T, dz, out=g[k + h : -1])
    np.add.reduce(dz, keepdims=True, out=g[-1:])
    return p, g


def _sigmoid_edge_inputs():
    f = np.finfo(np.float64)
    # exp overflows past log(max), leaves the normals below log(tiny) and underflows to 0
    # below log(smallest subnormal / 2)
    edges = [np.log(f.max), np.log(f.tiny), np.log(f.smallest_subnormal) - np.log(2.0), 0.0]
    near = [np.nextafter(c, s * np.inf) for c in edges for s in (-1, 1)]
    z = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e308, -1e308, f.max, -f.max],
        [f.smallest_subnormal, -f.smallest_subnormal, f.tiny / 3, -f.tiny / 3, f.tiny, -f.tiny],
        edges, near, np.negative(edges), np.negative(near),
        [709.0, 710.0, -709.0, -710.0, 745.0, -745.0, 746.0, -746.0, 708.4, -708.4],
        np.linspace(-760.0, 760.0, 1521),
        rng_from(12).standard_normal(3000) * np.repeat([1e-310, 1e-3, 1.0, 30.0, 400.0], 600),
    ])
    nan_payload = np.array([0x7FF0000000000123, 0xFFF8000000000456], dtype=np.uint64)
    return np.concatenate([z, nan_payload.view(np.float64)])


def test_sigmoid_keeps_the_masked_forms_bits_on_edge_inputs_and_every_alias():
    z = _sigmoid_edge_inputs()
    for n in [*range(1, 20), 31, 32, 33, 64, 65, z.size]:  # every SIMD tail length
        part = z[-n:]
        want = _masked_copyto_sigmoid(part).view(np.uint64)
        assert np.array_equal(_sigmoid(part).view(np.uint64), want)
        given_e = np.full_like(part, 7.0)
        assert np.array_equal(_sigmoid(part, e=given_e).view(np.uint64), want)
        out = np.empty_like(part)
        assert _sigmoid(part, out, np.empty_like(part)) is out
        assert np.array_equal(out.view(np.uint64), want)
        z_in = part.copy()
        assert _sigmoid(z_in, z_in) is z_in  # out is z, as the kernels call it
        assert np.array_equal(z_in.view(np.uint64), want)
        z_in = part.copy()
        _sigmoid(z_in, z_in, np.empty_like(part))
        assert np.array_equal(z_in.view(np.uint64), want)


_KINDS = pytest.mark.parametrize("kind, activation", [
    (LOGISTIC, "relu"), (MLP, "relu"), (MLP, "sigmoid"),
], ids=["logistic", "relu-mlp", "sigmoid-mlp"])


@_KINDS
def test_every_workspace_array_is_written_by_a_full_batch_step(kind, activation):
    # A workspace array that no step writes is memory the kernel never needed.
    spec = ModelSpec(kind, 8, 16 if kind == MLP else None, activation)
    rng = rng_from(5)
    X, y = rng.standard_normal((32, 8)), rng.integers(0, 2, 32).astype(np.float64)
    work = _workspace(spec, 32)
    for w in work:
        w[...] = 7.25
    before = [w.copy() for w in work]
    _KERNELS[kind](spec, rng.standard_normal(spec.param_count), X, y, work)
    for i, (old, new) in enumerate(zip(before, work)):
        assert not np.array_equal(new, old), i


@_KINDS
def test_kernel_step_keeps_the_matmul_forms_bits(kind, activation):
    # One SGD step and one scoring call per (rows, width); the MLP's hidden layer is as wide as
    # its input, so the output product sees every width too.  Besides contiguous batches, the
    # public calls may pass other layouts: Fortran order, strided columns and a column slice.
    # The relu MLP also sees zero rows with a zero hidden bias: relu's derivative at 0 is 0.
    rng = rng_from(13)
    for m in (1, 2, 3, 5, 8, 17, 64, 129, 300):
        for d in (1, 3, 8, 64, 300):
            spec = ModelSpec(kind, d, d if kind == MLP else None, activation)
            v = rng.standard_normal(spec.param_count) * 0.5
            y = rng.integers(0, 2, m).astype(np.float64)
            wide = rng.standard_normal((m, 2 * d)) * 3.0
            layouts = [wide[:, :d].copy(), np.asfortranarray(wide[:, :d])]
            if m in (17, 300):
                layouts += [wide[:, ::2], wide[:, :d]]
            inputs = [(X, v) for X in layouts]
            if (kind, activation, m) == (MLP, "relu", 17):
                zero_bias = v.copy()
                zero_bias[d * d : d * d + d] = 0.0
                inputs.append((np.zeros((m, d)), zero_bias))
            for X, w in inputs:
                want_p, want_g = _matmul_kernel(spec, w, X, y)
                p, g = _KERNELS[kind](spec, w, X, y, _workspace(spec, m))
                assert p.tobytes() == want_p.tobytes(), (m, d)
                assert g.tobytes() == want_g.tobytes(), (m, d)
                assert _KERNELS[kind](spec, w, X)[0].tobytes() == want_p.tobytes(), (m, d)
