"""Shared test utilities: finite differences and small brute-force oracles."""

import math

import numpy as np

from fedmvc import tensor as T
from fedmvc.errors import DimensionError, TrainingError
from fedmvc.evaluation import KMeansResult


def param(x):
    """A Param over a float64 copy of ``x`` with a zero gradient."""
    value = T.as_matrix(x).copy()
    return T.Param(value, np.zeros_like(value))


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
            # every row of both views but the anchor itself
            others = [feats[v][j] for j in range(n) if j != i] + list(feats[nxt])
            den = sum(math.exp(cos(feats[v][i], row) / tau) for row in others)
            total += -math.log(num / den)
    return total / n


def label_contrast_bruteforce(probs, tau):
    """Direct double-loop evaluation of the cross-view column contrast."""
    n_views = len(probs)
    n, k = probs[0].shape
    total = 0.0
    for v in range(n_views):
        nxt = (v + 1) % n_views
        for j in range(k):
            num = math.exp(cos(probs[v][:, j], probs[nxt][:, j]) / tau)
            others = [probs[v][:, c] for c in range(k) if c != j] + list(probs[nxt].T)
            den = sum(math.exp(cos(probs[v][:, j], col) / tau) for col in others)
            total += -math.log(num / den)
    return total / k


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


# The elementary tape ops that the fused nodes in ``fedmvc.tensor`` replace.
# Nothing in the package uses them on their own; they build the reference
# chains below, which the fused nodes are held to bit for bit.


def matmul(a, b):
    tape = T._tape_of(a, b)
    a, b = T.wrap(tape, a), T.wrap(tape, b)
    if a.value.shape[1] != b.value.shape[0]:
        raise DimensionError(
            f"matmul shapes do not conform: {a.value.shape} x {b.value.shape}")
    av, bv = a.value, b.value

    def backprop(g, acc):
        acc(a, g @ bv.T)
        acc(b, av.T @ g)

    return tape._track(T.Tensor(av @ bv, tape, backprop=backprop))


def transpose(a):
    tape = a.tape

    def backprop(g, acc):
        acc(a, g.T)

    return tape._track(T.Tensor(a.value.T.copy(), tape, backprop=backprop))


def sub(a, b):
    tape, a, b = T._binary_same_shape(a, b, "sub")

    def backprop(g, acc):
        acc(a, g)
        acc(b, -g)

    return tape._track(T.Tensor(a.value - b.value, tape, backprop=backprop))


def mul(a, b):
    tape, a, b = T._binary_same_shape(a, b, "mul")
    av, bv = a.value, b.value

    def backprop(g, acc):
        acc(a, g * bv)
        acc(b, g * av)

    return tape._track(T.Tensor(av * bv, tape, backprop=backprop))


def add_scalar(a, c: float):
    c = float(c)

    def backprop(g, acc):
        acc(a, g)

    return a.tape._track(T.Tensor(a.value + c, a.tape, backprop=backprop))


def exp(a):
    out = np.exp(a.value)

    def backprop(g, acc):
        acc(a, g * out)

    return a.tape._track(T.Tensor(out, a.tape, backprop=backprop))


def log(a):
    av = a.value

    def backprop(g, acc):
        acc(a, g / av)

    return a.tape._track(T.Tensor(np.log(av), a.tape, backprop=backprop))


def rowsum(a):
    """Sum along each row: N x C -> N x 1."""
    shape = a.value.shape

    def backprop(g, acc):
        acc(a, np.broadcast_to(g, shape))

    return a.tape._track(T.Tensor(a.value.sum(axis=1, keepdims=True), a.tape,
                              backprop=backprop))


def colsum(a):
    """Sum down each column: N x C -> 1 x C."""
    shape = a.value.shape

    def backprop(g, acc):
        acc(a, np.broadcast_to(g, shape))

    return a.tape._track(T.Tensor(a.value.sum(axis=0, keepdims=True), a.tape,
                              backprop=backprop))


def sum_all(a):
    """Sum over every entry: N x C -> 1 x 1."""
    shape = a.value.shape

    def backprop(g, acc):
        acc(a, np.full(shape, g[0, 0]))

    return a.tape._track(T.Tensor(np.array([[a.value.sum()]]), a.tape,
                              backprop=backprop))


def normalize_rows(a):
    """Scale each row to unit L2 norm; all-zero rows stay zero. A nonzero row
    of norm below sqrt(smallest normal float64) is divided by its largest
    magnitude first, and its unit row is that scaled row over its norm."""
    tape = T._tape_of(a)
    a = T.wrap(tape, a)
    norms = np.linalg.norm(a.value, axis=1, keepdims=True)
    small = np.flatnonzero(norms < np.sqrt(np.finfo(np.float64).tiny))
    peak = np.abs(a.value[small]).max(axis=1, keepdims=True, initial=0.0)
    scaled = a.value[small] / np.where(peak > 0, peak, 1.0)
    scaled_norms = np.linalg.norm(scaled, axis=1, keepdims=True)
    norms[small] = peak * scaled_norms
    nonzero = norms > 0
    safe = np.where(nonzero, norms, 1.0)
    out = a.value / safe
    out[small] = scaled / np.where(scaled_norms > 0, scaled_norms, 1.0)

    def backprop(g, acc):
        gx = (g - (g * out).sum(axis=1, keepdims=True) * out) / safe
        acc(a, np.where(nonzero, gx, 0.0))

    return tape._track(T.Tensor(out, tape, backprop=backprop))


def cycled_nt_xent_chain(items, tau, columns=False):
    """Elementary chain of ``T.cycled_nt_xent``, as the losses built it."""
    if columns:
        items = [transpose(q) for q in items]
    n_views = len(items)
    n_rows = items[0].value.shape[0]
    units = [normalize_rows(t) for t in items]
    eye = np.eye(n_rows)
    inv_tau = 1.0 / tau
    total = None
    for v in range(n_views):
        a, b = units[v], units[(v + 1) % n_views]
        s_own = matmul(a, transpose(a))
        s_pair = matmul(a, transpose(b))
        # the anchor's similarity to itself: e^{1/tau}, or e^0 for a zero row
        nonzero = (items[v].value != 0).any(axis=1, keepdims=True)
        den = T.add(
            T.add(rowsum(exp(T.scale(s_own, inv_tau))),
                  rowsum(exp(T.scale(s_pair, inv_tau)))),
            a.tape.constant(np.where(nonzero, -math.exp(inv_tau), -1.0)))
        pos = rowsum(mul(s_pair, eye))
        term = sub(log(den), T.scale(pos, inv_tau))
        total = term if total is None else T.add(total, term)
    return T.scale(sum_all(total), 1.0 / n_rows)


def partial_nt_xent_chain(fused, feats, tau):
    """Elementary chain of ``T.partial_nt_xent``."""
    n = fused.value.shape[0]
    eye = np.eye(n)
    offdiag = 1.0 - eye
    inv_tau = 1.0 / tau
    u_fused = normalize_rows(fused)
    total = None
    for f in feats:
        sims = matmul(u_fused, transpose(normalize_rows(f)))
        e = exp(T.scale(sims, inv_tau))
        den = rowsum(mul(e, offdiag))
        pos = rowsum(mul(sims, eye))
        term = sub(log(den), T.scale(pos, inv_tau))
        total = term if total is None else T.add(total, term)
    return T.scale(sum_all(total), 1.0 / n)


def one_vs_one_nt_xent_chain(anchor, pos, neg, tau):
    """Elementary chain of ``T.one_vs_one_nt_xent``, cos(anchor, pos) against
    cos(anchor, neg), with one normalisation node per operand."""
    tape = T._tape_of(anchor, pos, neg)
    anchor, pos, neg = (T.wrap(tape, t) for t in (anchor, pos, neg))
    u_anchor = normalize_rows(anchor)
    pos = rowsum(mul(u_anchor, normalize_rows(pos)))
    neg = rowsum(mul(u_anchor, normalize_rows(neg)))
    n = pos.value.shape[0]
    inv_tau = 1.0 / tau
    den = T.add(exp(T.scale(pos, inv_tau)), exp(T.scale(neg, inv_tau)))
    term = sub(log(den), T.scale(pos, inv_tau))
    return T.scale(sum_all(term), 1.0 / n)


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


# Pre-activations of every class the ReLU must pass through unchanged or
# zero: signed zeros, infinities, NaN, subnormals and the smallest normals.
RELU_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                          2.2250738585072014e-308, -2.2250738585072014e-308, 1.5, -1.5])


class PresetProduct(np.ndarray):
    """A weight matrix whose product with any input is ``self.preset``.

    A BLAS product accumulates from +0.0, so no input makes ``x @ W`` come out
    as -0.0; with this weight and a bias of -0.0, a test sets a dense layer's
    pre-activation exactly (``p + (-0.0) == p`` for every ``p``).
    """

    def __rmatmul__(self, other):
        return self.preset


def preset_weight(shape, preset):
    weight = np.zeros(shape).view(PresetProduct)
    weight.preset = preset
    return weight


def infer_fused_reference(params, views):
    """``model.infer_fused`` with the ReLU written as ``np.where(h > 0, h, 0.0)``."""
    acc = None
    for v in sorted(views):
        h = views[v]
        for layer in (params.encoders[v], params.feature_net):
            w1, b1, w2, b2 = (p.value for p in layer)
            pre = h @ w1 + b1
            h = np.where(pre > 0, pre, 0.0) @ w2 + b2
        acc = h if acc is None else acc + h
    return acc * (1.0 / len(views))


def sum_sq_dist_chain(leaves, refs):
    """sum_i ||leaves[i] - refs[i]||^2 as separate sub/mul/sum_all/add nodes."""
    tape = leaves[0].tape
    acc = None
    for leaf, ref in zip(leaves, refs):
        diff = sub(leaf, tape.constant(ref))
        term = sum_all(mul(diff, diff))
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
            p.grad[...] = 0.0


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
            p.grad[...] = 0.0


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


def kmeanspp_init_reference(points, k, rng):
    """k-means++ seeding with an exact distance pass over every row for
    each new centre."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centroids[j] = points[idx]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))
    return centroids


def kmeans_reference(points, n_clusters, seed=0, max_iter=300, tol=1e-6,
                     reseats=None):
    """Lloyd's k-means from the full distance tensor and one mask per cluster.

    The same k-means++ start, empty-cluster reseat and stopping rule as
    ``fedmvc.evaluation.kmeans``; the seeding, the assignment (every
    distance computed exactly) and the centroid update (every cluster's
    mean, from a boolean mask) are done the direct way. Each reseat is
    appended to the list ``reseats``, when given, as (iteration, cluster).
    """
    points = np.asarray(points, dtype=np.float64)
    n, k = points.shape[0], n_clusters
    rng = np.random.default_rng(seed)
    centroids = kmeanspp_init_reference(points, k, rng)
    trace = []
    for iteration in range(max_iter):
        d2 = pairwise_sq_dists_reference(points, centroids)
        labels = d2.argmin(axis=1)
        assigned = d2[np.arange(n), labels]
        for j in range(k):
            if not np.any(labels == j):
                if reseats is not None:
                    reseats.append((iteration, j))
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
