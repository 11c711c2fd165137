"""Shared test utilities: finite differences and small brute-force oracles."""

import math

import numpy as np

from fedmvc import tensor as T
from fedmvc.errors import DimensionError, TrainingError
from fedmvc.evaluation import KMeansResult, _kmeanspp_init


def central_diff(f, x, h=1e-5):
    """Central-difference gradient of scalar f at matrix x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        left = x.copy()
        right = x.copy()
        left[idx] -= h
        right[idx] += h
        g[idx] = (f(right) - f(left)) / (2 * h)
    return g


def rel_error(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def cos(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def feature_contrast_bruteforce(feats, tau):
    """Direct double-loop evaluation of the cross-view feature contrast."""
    n_views = len(feats)
    n = feats[0].shape[0]
    total = 0.0
    for v in range(n_views):
        nxt = (v + 1) % n_views
        for i in range(n):
            num = math.exp(cos(feats[v][i], feats[nxt][i]) / tau)
            den = -math.exp(1.0 / tau)
            for j in range(n):
                for mat in (feats[v], feats[nxt]):
                    den += math.exp(cos(feats[v][i], mat[j]) / tau)
            total += -math.log(num / den)
    return total / n


def label_contrast_bruteforce(probs, tau):
    """Column-level contrast plus the cluster-size entropy regularizer."""
    n_views = len(probs)
    n, k = probs[0].shape
    total = 0.0
    for v in range(n_views):
        nxt = (v + 1) % n_views
        for j in range(k):
            num = math.exp(cos(probs[v][:, j], probs[nxt][:, j]) / tau)
            den = -math.exp(1.0 / tau)
            for col in range(k):
                for mat in (probs[v], probs[nxt]):
                    den += math.exp(cos(probs[v][:, j], mat[:, col]) / tau)
            total += -math.log(num / den)
    loss = total / k
    for v in range(n_views):
        sizes = probs[v].mean(axis=0)
        loss += float(np.sum(sizes[sizes > 0] * np.log(sizes[sizes > 0])))
    return loss


def partial_contrast_bruteforce(fused, feats, tau):
    n = fused.shape[0]
    total = 0.0
    for feat in feats:
        for i in range(n):
            num = math.exp(cos(fused[i], feat[i]) / tau)
            den = sum(math.exp(cos(fused[i], feat[j]) / tau)
                      for j in range(n) if j != i)
            total += -math.log(num / den)
    return total / n


def single_contrast_bruteforce(fused, feat, noisy, tau):
    n = fused.shape[0]
    total = 0.0
    for i in range(n):
        pos = math.exp(cos(fused[i], feat[i]) / tau)
        neg = math.exp(cos(feat[i], noisy[i]) / tau)
        total += -math.log(pos / (pos + neg))
    return total / n


def drift_contrast_bruteforce(fused, pos_ref, neg_ref, tau):
    n = fused.shape[0]
    total = 0.0
    for i in range(n):
        p = math.exp(cos(fused[i], pos_ref[i]) / tau)
        q = math.exp(cos(fused[i], neg_ref[i]) / tau)
        total += -math.log(p / (p + q))
    return total / n


def add_row(x, row):
    """Add a 1 x C row vector to every row of an N x C matrix; with
    ``matmul`` and ``relu``, the elementary reference for ``T.affine``."""
    tape = T._tape_of(x, row)
    x, row = T.wrap(tape, x), T.wrap(tape, row)
    if row.value.shape != (1, x.value.shape[1]):
        raise DimensionError(
            f"bias shape {row.value.shape} does not match matrix {x.value.shape}")

    def backprop(g, acc):
        acc(x, g)
        acc(row, g.sum(axis=0, keepdims=True))

    return tape._track(T.Tensor(x.value + row.value, tape, backprop=backprop))


def relu(a):
    """Elementwise max(a, 0) as its own tape node (see ``add_row``)."""
    tape = T._tape_of(a)
    a = T.wrap(tape, a)
    mask = a.value > 0

    def backprop(g, acc):
        acc(a, g * mask)

    return tape._track(T.Tensor(np.where(mask, a.value, 0.0), tape, backprop=backprop))


def sum_sq_dist_chain(leaves, refs):
    """sum_i ||leaves[i] - refs[i]||^2 as separate sub/mul/sum_all/add nodes."""
    tape = leaves[0].tape
    acc = None
    for leaf, ref in zip(leaves, refs):
        diff = T.sub(leaf, tape.constant(ref))
        term = T.sum_all(T.mul(diff, diff))
        acc = term if acc is None else T.add(acc, term)
    return acc


def _check_finite_grads_reference(params):
    for p in params:
        if not np.isfinite(p.grad).all():
            raise TrainingError("non-finite gradient encountered during optimizer step")


class SGDReference:
    """Plain gradient descent, one Param at a time: the reference for
    ``T.SGD``, which steps spans of a model's flat vector."""

    def __init__(self, lr):
        self.lr = float(lr)

    def step(self, params):
        _check_finite_grads_reference(params)
        for p in params:
            p.value -= self.lr * p.grad
            p.zero_grad()


class AdamReference:
    """Adam with its state keyed per Param: the reference for ``T.Adam``."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = float(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._state = {}
        self._step = 0

    def step(self, params):
        _check_finite_grads_reference(params)
        self._step += 1
        t = self._step
        b1, b2 = self.beta1, self.beta2
        for p in params:
            state = self._state.get(id(p))
            if state is None:
                state = (np.zeros_like(p.value), np.zeros_like(p.value))
                self._state[id(p)] = state
            m, v = state
            m *= b1
            m += (1 - b1) * p.grad
            v *= b2
            v += (1 - b2) * p.grad ** 2
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.zero_grad()


def init_params_reference(arch, seed):
    """Every parameter array in checkpoint order, drawn subnet by subnet.

    Glorot-uniform weights and zero biases, one ``rng.uniform`` draw per
    weight matrix in the order encoders, decoders, feature net, head.
    """
    rng = np.random.default_rng(seed)

    def glorot(fan_in, fan_out):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-s, s, size=(fan_in, fan_out))

    def mlp2(d_in, d_out):
        return [glorot(d_in, arch.hidden), np.zeros((1, arch.hidden)),
                glorot(arch.hidden, d_out), np.zeros((1, d_out))]

    arrays = []
    for d in arch.view_dims:
        arrays += mlp2(d, arch.latent_dim)
    for d in arch.view_dims:
        arrays += mlp2(arch.latent_dim, d)
    arrays += mlp2(arch.latent_dim, arch.high_dim)
    return arrays + [glorot(arch.high_dim, arch.n_clusters),
                     np.zeros((1, arch.n_clusters))]


def aggregate_reference(prev_global, client_params, shards, weights):
    """Balanced aggregation parameter slot by parameter slot, flattened.

    Clients in ascending id order; each slot starts from zeros and adds
    ``w * value`` client by client. A view's slots use the weights of its
    owners renormalised, the shared nets the raw weights, and a view that
    nobody owns keeps ``prev_global``.
    """
    order = sorted(range(len(shards)), key=lambda i: shards[i].client_id)
    client_params = [client_params[i] for i in order]
    shards = [shards[i] for i in order]
    weights = np.asarray([weights[i] for i in order], dtype=np.float64)

    def mix(param_lists, w):
        out = []
        for slot in zip(*param_lists):
            acc = np.zeros(slot[0].value.shape)
            for p, wi in zip(slot, w):
                acc += wi * p.value
            out.append(acc)
        return out

    encoders, decoders = [], []
    for v in range(prev_global.arch.n_views):
        owners = [i for i, s in enumerate(shards) if v in s.view_subset]
        if not owners:
            encoders += [p.value.copy() for p in prev_global.encoders[v]]
            decoders += [p.value.copy() for p in prev_global.decoders[v]]
            continue
        w = weights[owners]
        w = w / w.sum()
        encoders += mix([client_params[i].encoders[v] for i in owners], w)
        decoders += mix([client_params[i].decoders[v] for i in owners], w)
    shared = mix([p.feature_net + p.cluster_head for p in client_params], weights)
    return np.concatenate([a.ravel() for a in encoders + decoders + shared])


def pairwise_sq_dists_reference(points, centroids):
    """Every point-centroid squared distance, from an N×K×D difference tensor."""
    return ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def kmeans_reference(points, n_clusters, seed=0, max_iter=300, tol=1e-6):
    """Lloyd's k-means from the full distance tensor and one mask per cluster.

    The same k-means++ start, empty-cluster reseat and stopping rule as
    ``fedmvc.evaluation.kmeans``; only the assignment (every distance
    computed exactly) and the centroid update (a boolean mask per cluster)
    are done the direct way.
    """
    points = np.asarray(points, dtype=np.float64)
    n, k = points.shape[0], n_clusters
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(points, k, rng)
    trace = []
    for _ in range(max_iter):
        d2 = pairwise_sq_dists_reference(points, centroids)
        labels = d2.argmin(axis=1)
        assigned = d2[np.arange(n), labels]
        for j in range(k):
            if not np.any(labels == j):
                shared = np.bincount(labels, minlength=k)[labels] >= 2
                far = int(np.where(shared, assigned, -np.inf).argmax())
                centroids[j] = points[far]
                labels[far] = j
                assigned[far] = 0.0
        trace.append(float(assigned.sum()))
        new_centroids = np.array([points[labels == j].mean(axis=0) for j in range(k)])
        shift = np.linalg.norm(new_centroids - centroids, axis=1).max()
        centroids = new_centroids
        if shift < tol:
            break
    d2 = pairwise_sq_dists_reference(points, centroids)
    labels = d2.argmin(axis=1).astype(np.int64)
    return KMeansResult(centroids, labels, float(d2.min(axis=1).sum()), trace)
