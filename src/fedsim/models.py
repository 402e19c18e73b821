"""Small differentiable binary classifiers with hand-written gradients.

Two model kinds are supported: plain logistic regression and a
one-hidden-layer MLP with a sigmoid output unit.  Parameters travel as
a flat float64 vector plus layer-shape metadata so the federation
machinery can exchange and average them coordinate-wise.  Each kind has
one forward/backward kernel that works on the raw vector and writes a
batch's gradient into a workspace (the gradient vector and, for the MLP, the
hidden-layer arrays); ``train_local`` allocates one workspace, parameter copy
and epoch of gathered rows per call, so an SGD step allocates no array of the
batch's size, and its vector products use ``ndarray.dot`` where that makes
matmul's BLAS call.  ``ParameterSet`` is validated where parameters cross this
module's boundary: ``train_local`` checks its parameters on entry and on exit,
not at every step, and a run that diverges still raises ``ValueError("parameter
values must be finite")``.  Everything here is a pure function: training returns
new parameters and never mutates its inputs, and all randomness comes
from explicitly seeded PCG64 streams, so a given (spec, params, data,
config) tuple always reproduces the same bits on one platform.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .rules import choice, finite, integer
from .seeding import rng_from

LOGISTIC = "logistic-regression"
MLP = "mlp-1hidden"
MODEL_KINDS = (LOGISTIC, MLP)
ACTIVATIONS = ("relu", "sigmoid")

# Probabilities are clamped into [PROB_EPS, 1 - PROB_EPS] before log().
PROB_EPS = 1e-12

# Tightest open-interval bounds representable in float64; forward() clips
# saturated sigmoid outputs into them so predictions never reach 0 or 1.
_P_LO = np.nextafter(0.0, 1.0)
_P_HI = np.nextafter(1.0, 0.0)

# forward, train_local and a checked loss_and_grad run under this once per call, not per SGD
# step: an overflow ends in a finiteness check's ValueError or a NaN, never in a numpy warning.
_QUIET = {"over": "ignore", "invalid": "ignore"}

LayerShapes = tuple[tuple[str, tuple[int, ...]], ...]
_Out = tuple[np.ndarray, np.ndarray | None]


def _sigmoid(z: np.ndarray, out=None, e=None) -> np.ndarray:
    # exp(min(z, 0)) / (1 + exp(min(z, -z))): exp() never sees a positive argument, and each
    # sign gets its branch's exp() argument (min(z, -z) keeps a NaN's sign).  ``out`` (which
    # may be ``z``) and scratch ``e`` have z's shape; None allocates.
    e = np.negative(z, out=e)
    np.add(np.exp(np.minimum(z, e, out=e), out=e), 1.0, out=e)
    out = np.exp(np.minimum(z, 0.0, out=out), out=out)  # 1 where z >= 0, else exp(z)
    return np.divide(out, e, out=out)


def _head(A: np.ndarray, w: np.ndarray, b) -> np.ndarray:
    """sigmoid(A @ w + b) for 1-D ``w``, in place.  ``ndarray.dot`` makes matmul's BLAS call at
    less cost on a C- or F-contiguous matrix, but not on a stack (c, m, k) or other strides."""
    z = A.dot(w) if A.ndim == 2 and A.flags.forc else A @ w
    z += b
    return _sigmoid(z, z)


@dataclass(frozen=True)
class ParameterSet:
    """Flat float64 parameter vector plus the layer layout it packs.

    ``shapes`` is an ordered tuple of (layer name, dimensions); the
    vector holds the layers' entries concatenated in that order, each in
    row-major order.  The vector is frozen read-only on construction and
    must be finite everywhere.
    """

    values: np.ndarray
    shapes: LayerShapes

    def __post_init__(self) -> None:
        shapes = tuple((str(n), tuple(integer(d, "dim") for d in dims)) for n, dims in self.shapes)
        _adopt(np.array(self.values, dtype=np.float64, copy=True), shapes, into=self)

    @property
    def size(self) -> int:
        return int(self.values.size)

    def layers(self) -> dict[str, np.ndarray]:
        """Read-only views of each layer, reshaped to its dimensions."""
        out = {}
        offset = 0
        for name, dims in self.shapes:
            step = math.prod(dims)
            out[name] = self.values[offset : offset + step].reshape(dims)
            offset += step
        return out

    def with_values(self, values: np.ndarray) -> "ParameterSet":
        """New ParameterSet with the same layout and different entries."""
        return _adopt(np.array(values, dtype=np.float64, copy=True), self.shapes)


def _adopt(values: np.ndarray, shapes: LayerShapes, into=None) -> ParameterSet:
    """Check and freeze ``values`` (float64, normalised ``shapes``) into ``into``
    or a new ParameterSet, without a copy."""
    ps = object.__new__(ParameterSet) if into is None else into
    if values.ndim != 1:
        raise ValueError(f"parameter values must be 1-D, got shape {values.shape}")
    n = _entry_count(shapes)
    if n != values.size:
        raise ValueError(f"layer shapes describe {n} entries but vector has {values.size}")
    if not np.isfinite(values).all():
        raise ValueError("parameter values must be finite")
    values.setflags(write=False)
    object.__setattr__(ps, "values", values)
    object.__setattr__(ps, "shapes", shapes)
    return ps


@functools.cache
def _entry_count(shapes: LayerShapes) -> int:
    return sum(math.prod(dims) for _, dims in shapes)


@dataclass(frozen=True)
class ModelSpec:
    """Architecture descriptor; the parameter layout is a pure function of it."""

    kind: str
    input_dim: int
    hidden_dim: int | None = None
    activation: str = "relu"

    def __post_init__(self) -> None:
        choice(self.kind, "kind", MODEL_KINDS)
        object.__setattr__(self, "input_dim", integer(self.input_dim, "input_dim", 1))
        if self.kind == MLP:
            if self.hidden_dim is None:
                raise ValueError("mlp-1hidden requires hidden_dim >= 1")
            object.__setattr__(self, "hidden_dim", integer(self.hidden_dim, "hidden_dim", 1))
            choice(self.activation, "activation", ACTIVATIONS)
        elif self.hidden_dim is not None:
            raise ValueError("logistic-regression takes no hidden_dim")

    @functools.cached_property
    def layer_shapes(self) -> LayerShapes:
        d = self.input_dim
        if self.kind == LOGISTIC:
            return (("output_kernel", (d,)), ("output_bias", (1,)))
        h = self.hidden_dim
        return (
            ("hidden_kernel", (d, h)),
            ("hidden_bias", (h,)),
            ("output_kernel", (h,)),
            ("output_bias", (1,)),
        )

    @property
    def param_count(self) -> int:
        return _entry_count(self.layer_shapes)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with binary labels and stable sample identifiers."""

    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64, values in {0, 1}
    ids: np.ndarray  # (n,) int64, unique

    def __post_init__(self) -> None:
        _adopt_dataset(
            np.array(self.features, dtype=np.float64, copy=True),
            _whole(self.labels, "labels"),
            _whole(self.ids, "ids"),
            into=self,
        )

    @property
    def n(self) -> int:
        return int(self.features.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    def subset(self, indices: np.ndarray) -> "Dataset":
        """Rows selected by integer position, in the given order."""
        idx = np.asarray(indices)
        if idx.dtype.kind not in "iu":  # as int64, a mask or floats would select other rows
            raise ValueError(f"subset indices must be integers, got dtype {idx.dtype}")
        sub = self._rows(idx)
        if not _distinct(sub.ids):  # a position repeated, or also written negative
            raise ValueError("sample ids must be unique")
        return sub

    def _rows(self, idx: np.ndarray) -> "Dataset":
        """Rows at distinct positions ``idx``, unchecked: they keep this frozen dataset's checks."""
        return _adopt_dataset(self.features[idx], self.labels[idx], self.ids[idx], check=False)


def _distinct(ids: np.ndarray) -> bool:
    """No value repeats in 1-D ``ids``; a sort beats numpy 2.4's hashing ``np.unique``."""
    s = np.sort(ids)
    return bool((s[1:] != s[:-1]).all())


def _whole(values, name: str) -> np.ndarray:
    """``values`` as a new int64 array, refusing any value the cast would change."""
    a = np.asarray(values)
    with np.errstate(invalid="ignore"):  # a NaN or out-of-range float fails the test below
        out = a.astype(np.int64)
    # The bound catches a float 2**63, which a saturating cast turns into int64's maximum.
    if a.dtype.kind in "fuO" and not ((out == a) & (a < 2**63)).all():
        raise ValueError(f"{name} must be whole numbers in the int64 range")
    return out


def _adopt_dataset(
    features: np.ndarray, labels: np.ndarray, ids: np.ndarray, check: bool = True, into=None
) -> Dataset:
    """Freeze float64 ``features`` and int64 ``labels`` and ``ids``, without a copy, into
    ``into`` or a new Dataset; callers pass arrays that nothing else holds.  ``check=False``
    skips validation, for rows taken from a Dataset, whose checks they keep."""
    if check:
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        n = features.shape[0]
        if labels.shape != (n,) or ids.shape != (n,):
            raise ValueError("features, labels and ids must agree in length")
        if not ((labels == 0) | (labels == 1)).all():
            raise ValueError("labels must be 0 or 1")
        if not _distinct(ids):
            raise ValueError("sample ids must be unique")
        if not np.isfinite(features).all():
            raise ValueError("features must be finite")
    ds = object.__new__(Dataset) if into is None else into
    for name, arr in (("features", features), ("labels", labels), ("ids", ids)):
        arr.setflags(write=False)
        object.__setattr__(ds, name, arr)
    return ds


@dataclass(frozen=True)
class TrainConfig:
    """Local-training hyperparameters; ``epochs`` is the per-round pass count.

    ``epochs`` of zero (or a zero learning rate) is legal and makes
    training the identity, which keeps composed schedules well defined.
    """

    epochs: int
    batch_size: int
    learning_rate: float
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "epochs", integer(self.epochs, "epochs"))
        object.__setattr__(self, "batch_size", integer(self.batch_size, "batch_size", 1))
        lr = finite(self.learning_rate, "learning_rate")
        if lr < 0:
            raise ValueError(f"learning_rate must be >= 0, got {lr}")
        object.__setattr__(self, "learning_rate", lr)
        object.__setattr__(self, "seed", integer(self.seed, "seed"))


def init_params(spec: ModelSpec, seed: int) -> ParameterSet:
    """Glorot-uniform kernels and zero biases, deterministic in (spec, seed).

    Each kernel entry is drawn uniformly from (-s, s) with
    s = sqrt(6 / (fan_in + fan_out)); layers are drawn in layout order
    from a single PCG64 stream.
    """
    rng = rng_from(seed)
    parts = []
    for name, dims in spec.layer_shapes:
        if name.endswith("bias"):
            parts.append(np.zeros(math.prod(dims)))
        else:
            # Kernels are (fan_in, fan_out) matrices or (fan_in,) vectors feeding one output unit.
            fan_in, fan_out = dims if len(dims) == 2 else (dims[0], 1)
            s = math.sqrt(6.0 / (fan_in + fan_out))
            parts.append(rng.uniform(-s, s, size=dims).ravel())
    return ParameterSet(np.concatenate(parts), spec.layer_shapes)


def _check_features(spec: ModelSpec, features: np.ndarray) -> np.ndarray:
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {X.shape}")
    if X.shape[1] != spec.input_dim:
        raise ValueError(
            f"feature width {X.shape[1]} does not match model input_dim {spec.input_dim}"
        )
    return X


def _check_params(spec: ModelSpec, params: ParameterSet) -> None:
    if params.shapes != spec.layer_shapes:
        raise ValueError("parameter layout does not match the model spec")


def _workspace(spec: ModelSpec, rows: int) -> tuple[np.ndarray, ...]:
    """What a kernel writes a batch of up to ``rows`` rows into: the gradient vector and, for
    the MLP, (rows, hidden) pre-activation, activation and hidden-gradient arrays."""
    grad = np.empty(spec.param_count)
    if spec.kind == LOGISTIC:
        return (grad,)
    return grad, *(np.empty((rows, spec.hidden_dim)) for _ in range(3))


# One kernel per model kind, on the raw vector ``v``: it returns the sigmoid outputs for
# ``X`` and, given float64 labels ``y`` and a ``_workspace``, the gradient of the mean
# cross-entropy in layout order, written into the workspace's gradient vector.
def _logistic(spec: ModelSpec, v: np.ndarray, X: np.ndarray, y=None, work=None) -> _Out:
    p = _head(X, v[:-1], v[-1])
    if y is None:
        return p, None
    (g,) = work
    dz = p - y
    dz /= y.size  # d(mean BCE)/d(logit) through the sigmoid output
    # dz @ X through dot as in _head; the public loss_and_grad may pass any strides
    np.dot(dz, X, out=g[:-1]) if X.flags.forc else np.matmul(X.T, dz, out=g[:-1])
    g[-1] = np.add.reduce(dz)
    return p, g


def _mlp(spec: ModelSpec, v: np.ndarray, X: np.ndarray, y=None, work=None) -> _Out:
    d, h = spec.input_dim, spec.hidden_dim
    k = d * h
    w2 = v[k + h : -1]
    # Nothing reads z1 once a is computed: without a workspace (evaluation) a overwrites it, and
    # a step writes the activation's derivative over it, as a has its own array there.
    g, z1, a, dh = (work[0], *(w[: len(X)] for w in work[1:])) if work else (None,) * 4
    z1 = np.matmul(X, v[:k].reshape(d, h), out=z1)
    z1 += v[k : k + h]
    a = z1 if a is None else a
    relu = spec.activation == "relu"
    a = np.maximum(z1, 0.0, out=a) if relu else _sigmoid(z1, a, dh)
    p = _head(a, w2, v[-1])
    if y is None:
        return p, None
    dz = (p - y) / y.size
    np.multiply(dz[:, None], w2[None, :], out=dh)
    if relu:  # 1.0 where z1 > 0, else 0.0
        np.multiply(dh, np.greater(z1, 0.0, out=z1), out=dh)
    else:  # (dh * a) * (1 - a)
        np.multiply(np.multiply(dh, a, out=dh), np.subtract(1.0, a, out=z1), out=dh)
    np.matmul(X.T, dh, out=g[:k].reshape(d, h))
    np.add.reduce(dh, axis=0, out=g[k : k + h])
    np.dot(dz, a, out=g[k + h : -1])  # a is a contiguous workspace
    g[-1] = np.add.reduce(dz)
    return p, g


_KERNELS = {LOGISTIC: _logistic, MLP: _mlp}


def _probs(spec: ModelSpec, v: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``forward`` without its checks; ``X`` may also be a stack of row blocks, (c, m, d)."""
    return np.clip(_KERNELS[spec.kind](spec, v, X)[0], _P_LO, _P_HI)


def forward(spec: ModelSpec, params: ParameterSet, features: np.ndarray) -> np.ndarray:
    """Per-row probability of the positive class, strictly inside (0, 1)."""
    X = _check_features(spec, features)
    _check_params(spec, params)
    with np.errstate(**_QUIET):
        return _probs(spec, params.values, X)


def _bce(p: np.ndarray, y: np.ndarray, axis=None):
    """Mean clamped cross-entropy of float64 ``p`` against ``y`` over ``axis`` (None: all)."""
    p = np.minimum(np.maximum(p, PROB_EPS), 1.0 - PROB_EPS)
    terms = y * np.log(p) + (1.0 - y) * np.log(1.0 - p)
    return -(np.add.reduce(terms, axis=axis) / (terms.size if axis is None else terms.shape[axis]))


def bce_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy with probabilities clamped away from 0 and 1."""
    y = np.asarray(labels, dtype=np.float64)
    if y.size == 0:
        raise ValueError("empty batch")
    return float(_bce(np.asarray(probs, dtype=np.float64), y))


def loss_and_grad(
    spec: ModelSpec, params: ParameterSet, features: np.ndarray, labels: np.ndarray,
    *, _work=None,
) -> tuple[float, ParameterSet]:
    """Batch cross-entropy and its analytic gradient in the params layout.

    ``_work``, a ``_workspace``, is private to ``train_local``: raw vector and checked float64
    batch in, the workspace's gradient out, with no checks and no loss.  Each SGD step still
    calls this module global, because the benchmark (``bench/spans.py``) patches it to count.
    """
    if _work is not None:
        return _KERNELS[spec.kind](spec, params, features, labels, _work)[1]
    X = _check_features(spec, features)
    _check_params(spec, params)
    y = np.asarray(labels, dtype=np.float64).ravel()
    if y.size != X.shape[0]:
        raise ValueError("features and labels must agree in length")
    if y.size == 0:
        raise ValueError("empty batch")
    with np.errstate(**_QUIET):
        p, grad = _KERNELS[spec.kind](spec, params.values, X, y, _workspace(spec, y.size))
        return bce_loss(p, y), _adopt(grad, params.shapes)


def train_local(
    spec: ModelSpec, params: ParameterSet, dataset: Dataset, cfg: TrainConfig, *, _rngs=None
) -> tuple[ParameterSet, int]:
    """Plain mini-batch SGD for ``cfg.epochs`` passes over ``dataset``.

    Each epoch visits every sample once in a fresh Fisher-Yates order
    keyed by (cfg.seed, epoch index); batches are consecutive slices of
    that order and the last batch may be short.  Returns the new
    parameters and the number of epochs run; the inputs are untouched.
    Parameters are validated on entry and on exit, not between steps; a
    run that diverges raises ``ValueError("parameter values must be finite")``.
    ``_rngs[epoch]``, when given, is the generator ``rng_from(cfg.seed, epoch)``.
    """
    _check_params(spec, params)
    if dataset.n == 0:
        raise ValueError("cannot train on an empty dataset")
    if dataset.feature_dim != spec.input_dim:
        raise ValueError(
            f"dataset width {dataset.feature_dim} does not match model input_dim {spec.input_dim}"
        )
    if cfg.epochs == 0:
        return params, 0
    n, bs, lr = dataset.n, cfg.batch_size, cfg.learning_rate
    # The copy that outlives the call comes first, so it does not split the hole the buffers leave.
    values, work = params.values.copy(), _workspace(spec, min(bs, n))
    labels = dataset.labels.astype(np.float64)
    X, y = np.empty_like(dataset.features), np.empty_like(labels)
    with np.errstate(**_QUIET):
        for epoch in range(cfg.epochs):
            order = (rng_from(cfg.seed, epoch) if _rngs is None else _rngs[epoch]).permutation(n)
            # mode="clip" writes straight into ``out``; the default buffers. ``order`` is in range.
            np.take(dataset.features, order, axis=0, out=X, mode="clip")
            np.take(labels, order, out=y, mode="clip")
            for start in range(0, n, bs):
                batch = slice(start, start + bs)
                grad = loss_and_grad(spec, values, X[batch], y[batch], _work=work)
                values -= np.multiply(lr, grad, out=grad)
    return _adopt(values, params.shapes), cfg.epochs
