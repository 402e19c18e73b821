"""Independent reference implementations the tests compare against.

Everything here is deliberately written the slow, obvious way (plain
loops, textbook formulas) and shares no code with the package beyond
numpy, so agreement is evidence rather than tautology.
"""

import csv
import math
from pathlib import Path

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


def make_synthetic_reference(class_means, scale, n_per_class, seed):
    """Two Gaussian blobs by the literal formula: each class drawn as
    ``mean + scale * standard_normal``, label 0 first, stacked, then the rows
    shuffled by one permutation from the same ``SeedSequence([seed])`` stream.
    Returns (features, labels, ids).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    m0, m1 = (np.asarray(m, dtype=np.float64) for m in class_means)
    n0, n1 = n_per_class
    x0 = m0 + scale * rng.standard_normal((n0, m0.size))
    x1 = m1 + scale * rng.standard_normal((n1, m1.size))
    labels = np.array([0] * n0 + [1] * n1, dtype=np.int64)
    order = rng.permutation(n0 + n1)
    return np.vstack([x0, x1])[order], labels[order], np.arange(n0 + n1, dtype=np.int64)


def partition_reference(master, plan, shard):
    """``partition`` as it was first written: each pool's permutation cut by
    ``np.split``, two checked ``master.subset`` gathers per client, and each
    shard built by the caller's checked ``shard(client_id, train, test)``.
    Selection is keyed ``(seed, 0)`` and client c's split ``(seed, 1, c)``,
    through numpy's ``SeedSequence``.  An infeasible plan raises ValueError
    with the package's wording.
    """
    k = plan.client_count
    if master.n < 1:
        raise ValueError("master dataset is empty")
    if plan.counts is None:
        if master.n < k:
            raise ValueError(f"cannot cut {k} nonempty shards from {master.n} samples")
        base, rem = divmod(master.n, k)
        counts = [base + 1 if i < rem else base for i in range(k)]
    else:
        counts = list(plan.counts)
    whole = {"samples": (np.arange(master.n), counts)}
    if plan.positive_fractions is None:
        pools = whole
    else:
        targets = [c * f for c, f in zip(counts, plan.positive_fractions)]
        pos = [math.floor(t) for t in targets]
        shortfall = round(sum(targets)) - sum(pos)
        for i in range(k):  # the rounded-off shortfall, one sample each to the lowest ids
            if shortfall and pos[i] < counts[i]:
                pos[i] += 1
                shortfall -= 1
        pools = {
            "positives": (np.flatnonzero(master.labels == 1), pos),
            "negatives": (np.flatnonzero(master.labels == 0), [c - p for c, p in zip(counts, pos)]),
        }
    for what, (ids, share) in {**whole, **pools}.items():
        if sum(share) > ids.size:
            raise ValueError(f"requested {sum(share)} {what} but master holds {ids.size}")
    rng = np.random.default_rng(np.random.SeedSequence([plan.seed, 0]))
    hands = [np.split(rng.permutation(ids), np.cumsum(share)) for ids, share in pools.values()]
    shards = []
    for cid, pieces in zip(range(k), zip(*hands)):
        sample_idx = np.concatenate(pieces)
        split = np.random.default_rng(np.random.SeedSequence([plan.seed, 1, cid]))
        shuffled = sample_idx[split.permutation(sample_idx.size)]
        n_train = min(shuffled.size, max(1, round(plan.train_fraction * shuffled.size)))
        shards.append(shard(cid, master.subset(shuffled[:n_train]), master.subset(shuffled[n_train:])))
    return shards


def read_dataset_csv_reference(path):
    """The CSV reader one row at a time: Python's ``csv``, ``int()`` and
    ``float()`` on every field, then the whole-file checks in the package's
    order and wording.  Returns (features, labels, ids).
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 3 or header[:2] != ["id", "label"]:
            raise ValueError(f"{path}: expected header id,label,f0..")
        d = len(header) - 2
        if header[2:] != [f"f{j}" for j in range(d)]:
            raise ValueError(f"{path}: malformed feature columns in header")
        ids, labels, feats = [], [], []
        for row in reader:
            try:
                if len(row) != d + 2:
                    raise ValueError(f"row has {len(row)} fields, expected {d + 2}")
                ids.append(int(row[0]))
                labels.append(int(row[1]))
                feats.append([float(v) for v in row[2:]])
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if not ids:
        raise ValueError(f"{path}: no data rows")
    try:  # an id or label past 64 bits raises OverflowError
        features, labels, ids = np.array(feats), np.array(labels, np.int64), np.array(ids, np.int64)
    except OverflowError as exc:
        raise ValueError(f"{path}: {exc}") from None
    for bad, message in [
        (any(v not in (0, 1) for v in labels.tolist()), "labels must be 0 or 1"),
        (len(set(ids.tolist())) != ids.size, "sample ids must be unique"),
        (any(not np.isfinite(v) for v in features.ravel().tolist()), "features must be finite"),
    ]:
        if bad:
            raise ValueError(f"{path}: {message}")
    return features, labels, ids


def masked_sigmoid(z):
    """Logistic function split by sign, so exp() never overflows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def where_sigmoid(z):
    """Logistic function as one np.where over both branches' quotients; exp() sees only -|z|."""
    e = np.exp(np.minimum(z, -z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


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


def roc_auc_reference(scores, labels):
    """ROC points and trapezoid AUC built from concatenated columns, one step at a time."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel().astype(np.int64)
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    order = np.argsort(-s, kind="stable")
    s_sorted, y_sorted = s[order], y[order]
    last = np.flatnonzero(np.append(s_sorted[:-1] != s_sorted[1:], True))
    fpr = np.concatenate([[0.0], np.cumsum(1 - y_sorted)[last] / n_neg])
    tpr = np.concatenate([[0.0], np.cumsum(y_sorted)[last] / n_pos])
    auc = float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2.0))
    return np.column_stack([fpr, tpr]), auc


def fedavg_loop_reference(values, weights):
    """``sum(w * v)`` accumulated one update at a time, clamped into the updates' envelope."""
    acc = weights[0] * values[0]
    for w, v in zip(weights[1:], values[1:]):
        acc += w * v
    return np.clip(acc, np.min(values, axis=0), np.max(values, axis=0))


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


def _key_seed(*key):
    """The 64-bit seed numpy's own ``SeedSequence`` derives from an integer key."""
    return int(np.random.SeedSequence(list(key)).generate_state(1, np.uint64)[0])


def _glorot_init(model, seed):
    """Glorot-uniform kernels and zero biases, drawn in layout order from one stream."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    d, h = model.input_dim, model.hidden_dim
    if model.kind == "logistic-regression":
        layers = [("kernel", (d,), d + 1), ("bias", (1,), None)]
    else:
        layers = [("kernel", (d, h), d + h), ("bias", (h,), None),
                  ("kernel", (h,), h + 1), ("bias", (1,), None)]
    parts = []
    for kind, dims, fans in layers:
        if kind == "bias":
            parts.append(np.zeros(int(np.prod(dims))))
        else:
            s = (6.0 / fans) ** 0.5
            parts.append(rng.uniform(-s, s, size=dims).ravel())
    return np.concatenate(parts)


class ReferenceAborted(Exception):
    """The reference run stopped: ``reason`` is "starvation", "divergence" or "noise"."""

    def __init__(self, reason, round_index, rounds_csv, audit):
        super().__init__(reason)
        self.reason, self.round_index = reason, round_index
        self.rounds_csv, self.audit = rounds_csv, audit


def run_reference(plan, evaluate, loss_accuracy):
    """A whole run by a literal reading of README's round rules and the
    ``orchestrator`` docstring, written without a compiled timeline.

    Every round rescans ``plan.events``: joins apply first, each client's
    delay phase comes from ``delay_phase_reference``, and leaves apply after
    the round's aggregation and global evaluation.  Training is
    ``sgd_step_loop_reference`` keyed by ``(seed, 1, client, round)``; model
    init is keyed ``(seed, 0)``, client noise ``(seed, 2, client, round)`` and
    server noise ``(seed, 3, round)``, all through numpy's ``SeedSequence``.
    Updates combine in ascending client-id order, then are clamped into their
    envelope.  Metrics are the caller's: ``evaluate(values, dataset)`` gives
    (loss, accuracy, auc) and ``loss_accuracy(values, dataset)`` (loss,
    accuracy), so this oracle covers the orchestration, not the metric code.

    Returns ``(rounds_csv, audit_lines, final_values)``; a run that stops
    raises ``ReferenceAborted`` with the rounds completed before it.
    """
    model, tc, policy, noise = plan.model, plan.train, plan.policy, plan.noise
    stale_serving = policy.delay == "use-stale-accept-any"
    clients = {c.client_id: (c.shard, float(c.epoch_time_s)) for c in plan.clients}
    departed, last, in_flight = set(), {}, {}  # last/in_flight: cid -> (values, n, produced)
    rows = ["round,sim_time_s,participants,loss,accuracy,auc,client_metrics"]
    audit = []
    values = _glorot_init(model, _key_seed(plan.seed, 0))

    def stop(reason, r, detail=""):
        audit.append(f"round {r} abort reason={reason}{detail}")
        raise ReferenceAborted(reason, r, "".join(row + "\r\n" for row in rows), audit)

    def noised(v, key, r):
        a = noise.amplitude
        out = v + np.random.default_rng(np.random.SeedSequence([_key_seed(*key)])).uniform(
            -a, a, size=v.size)
        if not np.isfinite(out).all():
            stop("noise", r, f" placement={noise.placement}")
        return out

    def train(cid, broadcast, r):
        shard = clients[cid][0]
        try:
            v = sgd_step_loop_reference(broadcast, shard.train.features, shard.train.labels,
                                        _key_seed(plan.seed, 1, cid, r), tc.epochs,
                                        tc.batch_size, tc.learning_rate, hidden=model.hidden_dim,
                                        activation=model.activation)
        except ValueError:
            stop("divergence", r, f" client={cid}")
        if noise is not None and noise.placement == "client":
            v = noised(v, (plan.seed, 2, cid, r), r)
        return (v, shard.train.n, r)

    for r in range(1, plan.n_rounds + 1):
        for ev in plan.events:  # in script order, as for leaves below
            if ev.kind == "join" and ev.round_index == r:
                clients[ev.client_id] = (ev.shard, float(ev.epoch_time_s))
                audit.append(f"round {r} join client={ev.client_id} n_train={ev.shard.train.n}")

        broadcast = values
        entries = []  # (cid, update, fresh)
        for cid in sorted(clients):
            if cid in departed:  # retain-last keeps serving what it kept
                if cid in last:
                    entries.append((cid, last[cid], False))
                continue
            phase = delay_phase_reference(plan.events, cid, r)
            if phase is None:
                last[cid] = train(cid, broadcast, r)
                entries.append((cid, last[cid], True))
                continue
            if phase == "start":
                if stale_serving:  # trained on this broadcast, delivered at resume
                    in_flight[cid] = train(cid, broadcast, r)
                audit.append(f"round {r} delay client={cid} update held back")
            elif phase == "resume" and stale_serving:
                last[cid] = in_flight.pop(cid)
                audit.append(f"round {r} late-delivery client={cid} accepted")
            elif phase == "resume":
                audit.append(f"round {r} late-delivery client={cid} discarded")
                if policy.delay_resume_same_round:
                    last[cid] = train(cid, broadcast, r)
                    entries.append((cid, last[cid], True))
                    continue
            if stale_serving and cid in last:
                entries.append((cid, last[cid], False))
        if not entries:
            stop("starvation", r)

        total = sum(n for _, (_, n, _), _ in entries)
        if plan.aggregator == "weighted":
            weights = [n / total for _, (_, n, _), _ in entries]
        else:
            weights = [1.0 / len(entries)] * len(entries)
        vecs = [v for _, (v, _, _), _ in entries]
        acc = weights[0] * vecs[0]
        for w, v in zip(weights[1:], vecs[1:]):
            acc = acc + w * v
        lo, hi = vecs[0], vecs[0]
        for v in vecs[1:]:
            lo, hi = np.minimum(lo, v), np.maximum(hi, v)
        values = np.minimum(np.maximum(acc, lo), hi)
        if noise is not None and noise.placement == "server":
            values = noised(values, (plan.seed, 3, r), r)
        labels = [f"{cid}:fresh" if fresh else f"{cid}:stale({r - produced})"
                  for cid, (_, _, produced), fresh in entries]
        audit.append(f"round {r} aggregate participants={','.join(labels)} weights="
                     + ",".join(f"{cid}:{w!r}" for (cid, _, _), w in zip(entries, weights))
                     + f" total_n={total}")
        loss, accuracy, auc = evaluate(values, plan.global_test)

        for ev in plan.events:
            if ev.kind == "leave" and ev.round_index == r:
                departed.add(ev.client_id)
                if policy.departure == "drop-history":
                    last.pop(ev.client_id, None)
                audit.append(f"round {r} leave client={ev.client_id} policy={policy.departure}")

        per_client = []
        for cid in sorted(clients):
            test = clients[cid][0].test
            if cid not in departed and test.n:
                c_loss, c_acc = loss_accuracy(values, test)
                per_client.append(f"{cid}:{c_loss!r}:{c_acc!r}")
        fresh_times = [clients[cid][1] for cid, _, fresh in entries if fresh]
        sim_time = tc.epochs * max(fresh_times) if fresh_times else 0.0
        rows.append(",".join([str(r), repr(float(sim_time)), ";".join(labels), repr(loss),
                              repr(accuracy), repr(auc), ";".join(per_client)]))
    return "".join(row + "\r\n" for row in rows), audit, values
