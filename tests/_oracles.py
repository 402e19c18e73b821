"""Independent reference implementations the tests compare against.

Everything here is deliberately written the slow, obvious way (plain
loops, textbook formulas) and shares no code with the package beyond
numpy, so agreement is evidence rather than tautology.
"""

import numpy as np


def pairwise_auc(scores, labels):
    """Mann-Whitney AUC by brute force over every positive-negative pair.

    Ties in score count one half.  O(n^2); fine for test sizes.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    pos = s[y == 1]
    neg = s[y == 0]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both classes required")
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (pos.size * neg.size)


def fd_gradient(loss_of_values, values, step=1e-6):
    """Central finite differences of a scalar loss over a flat vector."""
    v = np.asarray(values, dtype=np.float64)
    grad = np.zeros_like(v)
    for i in range(v.size):
        plus = v.copy()
        minus = v.copy()
        plus[i] += step
        minus[i] -= step
        grad[i] = (loss_of_values(plus) - loss_of_values(minus)) / (2.0 * step)
    return grad


def logistic_sgd_reference(values, X, y, orders, batch_size, lr):
    """Textbook mini-batch SGD for logistic regression with mean BCE.

    ``values`` packs (weights..., bias); ``orders`` is one index
    permutation per epoch.  Returns the updated flat vector.
    """
    v = np.asarray(values, dtype=np.float64).copy()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    for order in orders:
        for start in range(0, len(order), batch_size):
            idx = order[start : start + batch_size]
            xb, yb = X[idx], y[idx]
            z = xb @ v[:-1] + v[-1]
            p = np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))),
                         np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))
            resid = (p - yb) / len(yb)
            v[:-1] -= lr * (xb.T @ resid)
            v[-1] -= lr * resid.sum()
    return v


def masked_sigmoid(z):
    """Logistic function split by sign, so exp() never overflows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _validated_copy(values):
    """A frozen float64 copy that must be finite, like a fresh parameter vector."""
    out = np.array(values, dtype=np.float64, copy=True)
    if not np.all(np.isfinite(out)):
        raise ValueError("parameter values must be finite")
    out.setflags(write=False)
    return out


def sgd_step_loop_reference(values, X, y, seed, epochs, batch_size, lr, hidden=None,
                            activation="relu"):
    """Mini-batch SGD on mean cross-entropy, one fully checked step at a time.

    ``hidden=None`` is logistic regression with ``values`` packing
    (weights..., bias); otherwise a one-hidden-layer MLP packing (hidden
    kernel row-major, hidden bias, output kernel, output bias) with a
    sigmoid output.  Epoch ``e`` visits the rows in the order
    ``default_rng(SeedSequence([seed, e])).permutation(n)``, in
    consecutive batches.  Every step makes a validated copy of the
    gradient and of the updated vector, so a step that leaves a
    coordinate non-finite raises ValueError.  Returns the final vector.
    """
    v = _validated_copy(values)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    for epoch in range(epochs):
        order = np.random.default_rng(np.random.SeedSequence([seed, epoch])).permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            xb, yb = X[idx], y[idx]
            if hidden is None:
                p = masked_sigmoid(xb @ v[:d] + v[d])
                dz = (p - yb) / yb.size
                grad = np.concatenate([xb.T @ dz, [dz.sum()]])
            else:
                h = hidden
                w1 = v[: d * h].reshape(d, h)
                b1 = v[d * h : d * h + h]
                w2 = v[d * h + h : d * h + 2 * h]
                z1 = xb @ w1 + b1
                a = np.maximum(z1, 0.0) if activation == "relu" else masked_sigmoid(z1)
                p = masked_sigmoid(a @ w2 + v[-1])
                dz = (p - yb) / yb.size
                dh = dz[:, None] * w2[None, :]
                if activation == "relu":
                    dz1 = dh * (z1 > 0.0)
                else:
                    s = masked_sigmoid(z1)
                    dz1 = dh * s * (1.0 - s)
                grad = np.concatenate([(xb.T @ dz1).ravel(), dz1.sum(axis=0), a.T @ dz, [dz.sum()]])
            grad = _validated_copy(grad)
            v = _validated_copy(v - lr * grad)
    return v


def clipped_bce_reference(probs, labels, eps=1e-12):
    """Mean binary cross-entropy with probabilities clipped into [eps, 1 - eps]."""
    y = np.asarray(labels, dtype=np.float64)
    p = np.clip(np.asarray(probs, dtype=np.float64), eps, 1.0 - eps)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def trapezoid_area(xs, ys):
    """Plain trapezoid rule over an (x, y) polyline."""
    total = 0.0
    for i in range(1, len(xs)):
        total += (xs[i] - xs[i - 1]) * (ys[i] + ys[i - 1]) / 2.0
    return total


def delay_phase_reference(events, client_id, round_index):
    """A client's phase in a round by scanning every delay event in the script.

    Returns "start", "mid" or "resume" inside a closed [round, resume_round]
    window of that client, and None outside all of them.
    """
    for ev in events:
        if ev.kind != "delay" or ev.client_id != client_id:
            continue
        if round_index == ev.round_index:
            return "start"
        if ev.round_index < round_index < ev.resume_round:
            return "mid"
        if round_index == ev.resume_round:
            return "resume"
    return None
