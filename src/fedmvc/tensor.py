"""Tape-based reverse-mode autodiff over dense float64 matrices.

Everything is a 2-D numpy array: features, parameters, gradients, even
scalar losses (shape ``(1, 1)``). A :class:`Tape` records every operation
applied to the tensors it owns; :meth:`Tape.backward` replays the record
in reverse creation order -- a reverse topological order of the
computation graph -- and accumulates gradients into the participating
:class:`Param` buffers. A tape is replayed once: ``backward`` takes the
record off it, so the graph is freed by reference counting as soon as the
caller drops the loss, and recording on the tape or replaying it again
raises ``ValueError``.

Sized for small MLPs: no broadcasting beyond row-vector bias addition,
no views, no in-place graph surgery. A tape and its tensors belong to a
single execution context; independent tapes may run concurrently.

Whole layers and whole loss terms are single nodes, to keep the tape
short: :func:`affine` (a dense layer, ``x @ W + b`` with an optional ReLU),
:func:`sum_sq_dist` (the proximal term and the reconstruction loss) and
three NT-Xent contrasts over row cosines (:func:`cycled_nt_xent`,
:func:`partial_nt_xent`, :func:`one_vs_one_nt_xent`). Each makes the numpy
calls of the chain of elementary ops it replaces, on arrays of the same
memory layout, and sums every gradient in the order the chain did, so its
value and gradients are bitwise equal to the chain's. Those elementary ops
(``matmul``, ``transpose``, ``exp``, ``log``, ``rowsum``, ``colsum``,
``sum_all``, ``normalize_rows``, ``add_scalar``, ``sub``, ``mul``,
``add_row``, ``relu``) and the chains live in ``tests/helpers.py`` as the
reference. The ReLU is ``np.fmax(x, 0.0)``, bitwise equal to
``np.where(x > 0, x, 0.0)`` for every input and faster.

:meth:`Tape.backward` keeps a node's first gradient without copying it when
it is C-contiguous and writeable, and never writes into such a kept array:
a second gradient makes a new sum. A transposed or broadcast first gradient
is copied with its layout kept, so every buffer has the layout a copy of
each first gradient had.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, TrainingError

Array = np.ndarray


def as_matrix(data) -> Array:
    """Coerce ``data`` to a 2-D float64 array. 1-D input becomes a row."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


class Param:
    """A model parameter: a value buffer and its gradient buffer.

    ``Param(value, grad)`` keeps the same-shaped arrays it is given without
    copying them, so both may be views of larger buffers (a model's
    parameters are reshaped views of its flat vector). Both are only ever
    updated in place. ``grad`` accumulates across backward passes until an
    optimizer step clears the spans it updates; nothing else clears it.
    A Param may have no ``grad`` (None): its values are read, never trained,
    and a backward pass into it raises.
    """

    __slots__ = ("value", "grad")

    def __init__(self, value: Array, grad: Array | None):
        self.value, self.grad = value, grad

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Param(shape={self.value.shape})"


class Tensor:
    """A value recorded on a tape, together with its gradient rule."""

    __slots__ = ("value", "tape", "param", "_backprop")

    def __init__(self, value: Array, tape: "Tape", param: Param | None = None,
                 backprop: Callable | None = None):
        self.value = value
        self.tape = tape
        self.param = param
        self._backprop = backprop

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.value.shape})"


_REPLAYED = "tape was already replayed by backward; record a new step on a new Tape"


class Tape:
    """Ordered record of operations; replayed once, in reverse, for gradients."""

    def __init__(self):
        self._nodes: list[Tensor] | None = []
        self._leaves: dict[int, Tensor] = {}

    def _track(self, t: Tensor) -> Tensor:
        if self._nodes is None:
            raise ValueError(_REPLAYED)
        self._nodes.append(t)
        return t

    def constant(self, data) -> Tensor:
        """A tensor that does not receive gradients."""
        return self._track(Tensor(as_matrix(data), self))

    def leaf(self, param: Param) -> Tensor:
        """The tensor view of ``param``; one shared node per tape."""
        node = self._leaves.get(id(param))
        if node is None:
            node = self._track(Tensor(param.value, self, param=param))
            self._leaves[id(param)] = node
        return node

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(param) into every participating Param.grad.

        Replays the record once: the tape is left empty, even when the replay
        raises, and a second call raises ``ValueError``. A call rejected before
        the replay (a loss from another tape, or not 1x1) leaves it recorded.
        """
        nodes = self._nodes
        if nodes is None:
            raise ValueError(_REPLAYED)
        if not isinstance(loss, Tensor) or loss.tape is not self:
            raise ValueError("loss was not recorded on this tape")
        if loss.value.shape != (1, 1):
            raise ValueError(f"loss must be a 1x1 scalar, got shape {loss.value.shape}")
        # without the tape's references, the graph lives only as long as
        # ``loss``: its nodes reach their parents through the backprop
        # closures. An empty leaf index sends ``leaf`` on to ``_track``'s check
        self._nodes, self._leaves = None, {}
        grads: dict[int, Array] = {id(loss): np.ones((1, 1))}
        owned: set[int] = set()  # nodes whose buffer this pass allocated

        def accumulate(node: Tensor, g: Array) -> None:
            # a kept first gradient may be held elsewhere (``add`` hands one
            # ``g`` to both parents), so only copies are added into in place
            key = id(node)
            buf = grads.get(key)
            if buf is None:
                if g.flags.c_contiguous and g.flags.writeable:
                    grads[key] = g
                else:
                    grads[key] = np.array(g, dtype=np.float64)
                    owned.add(key)
            elif key in owned:
                buf += g
            else:
                grads[key] = np.add(buf, g, out=np.empty_like(buf))
                owned.add(key)

        for node in reversed(nodes):
            g = grads.get(id(node))
            if g is None:
                continue
            if node.param is not None:
                if node.param.grad is None:
                    raise ValueError(
                        "backward into a parameter without a gradient buffer "
                        "(only a trainable model takes gradients)")
                node.param.grad += g
            if node._backprop is not None:
                node._backprop(g, accumulate)


def wrap(tape: Tape, x) -> Tensor:
    """Lift a raw array or Param onto ``tape`` (Tensors pass through)."""
    if isinstance(x, Tensor):
        if x.tape is not tape:
            raise ValueError("operands were recorded on different tapes")
        return x
    if isinstance(x, Param):
        return tape.leaf(x)
    return tape.constant(x)


def _tape_of(*xs) -> Tape:
    for x in xs:
        if isinstance(x, Tensor):
            return x.tape
    raise ValueError("at least one operand must be a Tensor")


def _binary_same_shape(a, b, name):
    tape = _tape_of(a, b)
    a, b = wrap(tape, a), wrap(tape, b)
    if a.value.shape != b.value.shape:
        raise DimensionError(
            f"{name} requires equal shapes, got {a.value.shape} and {b.value.shape}")
    return tape, a, b


def add(a, b) -> Tensor:
    tape, a, b = _binary_same_shape(a, b, "add")

    def backprop(g, acc):
        acc(a, g)
        acc(b, g)

    return tape._track(Tensor(a.value + b.value, tape, backprop=backprop))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backprop(g, acc):
        acc(a, g * c)

    return a.tape._track(Tensor(a.value * c, a.tape, backprop=backprop))


def softmax_rows(a) -> Tensor:
    """Row-wise softmax, stabilized by subtracting each row's max."""
    tape = _tape_of(a)
    a = wrap(tape, a)
    shifted = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def backprop(g, acc):
        acc(a, (g - (g * out).sum(axis=1, keepdims=True)) * out)

    return tape._track(Tensor(out, tape, backprop=backprop))


def affine(x, weight, bias, relu: bool = False) -> Tensor:
    """x @ weight + bias, the dense layer, optionally followed by a ReLU.

    One tape node. Forward and backward make the numpy calls of the
    composite ``relu(add_row(matmul(x, weight), bias))`` (``relu`` and
    ``add_row`` are in ``tests/helpers.py``) in the same order, so its
    value and every gradient are bitwise equal to it. The ReLU is
    ``np.fmax(out, 0.0)``: bitwise the reference's ``np.where(out > 0, out,
    0.0)`` for every input (±0, ±inf, NaN and subnormals included) and
    several times faster; its backward mask is still ``out > 0``. The
    gradient of ``x`` is not computed when ``x`` is a constant.
    """
    tape = _tape_of(x, weight, bias)
    x, weight, bias = wrap(tape, x), wrap(tape, weight), wrap(tape, bias)
    if x.value.shape[1] != weight.value.shape[0]:
        raise DimensionError(
            f"matmul shapes do not conform: {x.value.shape} x {weight.value.shape}")
    if bias.value.shape != (1, weight.value.shape[1]):
        raise DimensionError(
            f"bias shape {bias.value.shape} does not match matrix "
            f"{(x.value.shape[0], weight.value.shape[1])}")
    xv, wv = x.value, weight.value
    out = xv @ wv + bias.value
    mask = None
    if relu:
        mask = out > 0
        out = np.fmax(out, 0.0)
    x_is_constant = x.param is None and x._backprop is None

    def backprop(g, acc):
        if mask is not None:
            g = g * mask
        acc(bias, g.sum(axis=0, keepdims=True))
        if not x_is_constant:
            acc(x, g @ wv.T)
        acc(weight, xv.T @ g)

    return tape._track(Tensor(out, tape, backprop=backprop))


def sum_sq_dist(leaves: Sequence[Tensor], refs: Sequence) -> Tensor:
    """sum_i ||leaves[i] - refs[i]||^2 as one node; ``refs`` are constants.

    The value sums each ``(d*d).sum()`` left to right and each leaf gets
    ``t + t`` with ``t = g*d``, bitwise what the chain
    ``add(sum_all(mul(d, d)), ...)`` over ``d = sub(leaf, ref)`` gives. It is
    the proximal term over parameters and, scaled by 1/N, the
    reconstruction loss over views.
    """
    if len(leaves) != len(refs):
        raise DimensionError(
            f"operand lists differ in length: {len(leaves)} vs {len(refs)}")
    tape = _tape_of(*leaves)
    leaves = [wrap(tape, leaf) for leaf in leaves]
    diffs = []
    total = None
    for leaf, ref in zip(leaves, refs):
        ref = np.asarray(ref, dtype=np.float64)
        if leaf.value.shape != ref.shape:
            raise DimensionError(
                f"shape mismatch: {leaf.value.shape} vs {ref.shape}")
        d = leaf.value - ref
        s = (d * d).sum()
        total = s if total is None else total + s
        diffs.append(d)

    def backprop(g, acc):
        gs = g[0, 0]
        # last leaf first, as the chain's reverse replay reached them
        for leaf, d in zip(reversed(leaves), reversed(diffs)):
            t = gs * d
            acc(leaf, t + t)

    return tape._track(Tensor(np.array([[total]]), tape, backprop=backprop))


# below this norm a row's squares can fall under the smallest normal float64
_SMALL_NORM = np.sqrt(np.finfo(np.float64).tiny)


def _unit_rows(x: Array) -> tuple[Array, Array, Array]:
    """Rows of ``x`` scaled to unit L2 norm, with the norms used and the
    nonzero mask; an all-zero row stays zero.

    A row whose norm is below ``_SMALL_NORM`` may have lost bits of its
    squares to underflow, or all of them. Such a row is first divided by
    its largest magnitude: its norm is that magnitude times the scaled
    row's norm, and its unit row is the scaled row over its own norm, which
    stays of unit length even where the norm itself is subnormal. Every
    other row keeps ``np.linalg.norm``'s norm and ``x / norm``.
    """
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    small = np.flatnonzero(norms < _SMALL_NORM)
    if small.size:
        peak = np.abs(x[small]).max(axis=1, keepdims=True, initial=0.0)
        scaled = x[small] / np.where(peak > 0, peak, 1.0)
        scaled_norms = np.linalg.norm(scaled, axis=1, keepdims=True)
        norms[small] = peak * scaled_norms
    nonzero = norms > 0
    safe = np.where(nonzero, norms, 1.0)
    unit = x / safe
    if small.size:
        unit[small] = scaled / np.where(scaled_norms > 0, scaled_norms, 1.0)
    return unit, safe, nonzero


def _unit_rows_grad(g: Array, unit: Array, safe: Array, nonzero: Array) -> Array:
    """The gradient through :func:`_unit_rows`; zero for an all-zero row."""
    gx = (g - (g * unit).sum(axis=1, keepdims=True) * unit) / safe
    return np.where(nonzero, gx, 0.0)


def cycled_nt_xent(items: Sequence, tau: float, columns: bool = False) -> Tensor:
    """Cycled-partner NT-Xent over the row cosines of ``items``, one node.

    Row i of item v is paired with row i of item n = (v+1) mod V. The
    denominator sums the exponentiated similarities against every row of
    both items and subtracts the anchor's similarity to itself: e^{1/tau},
    or 1 for an all-zero row, whose cosine with itself is 0. The summed
    terms are divided by the row count. With ``columns`` the rows are the
    items' columns.
    """
    tape = _tape_of(*items)
    items = [wrap(tape, t) for t in items]
    if any(t.value.shape != items[0].value.shape for t in items):
        raise DimensionError("contrasted matrices must share one shape")
    units = [_unit_rows(t.value.T.copy() if columns else t.value) for t in items]
    n_views, n = len(items), units[0][0].shape[0]
    eye = np.eye(n)
    inv_tau = 1.0 / tau
    saved = []
    total = None
    for v in range(n_views):
        (a, _, nonzero), b = units[v], units[(v + 1) % n_views][0]
        self_sims = np.where(nonzero, -math.exp(inv_tau), -1.0)
        # transposed copies, as the chain's transpose nodes made them: the
        # products then run through the same BLAS calls, and the forward
        # stays a general product rather than a symmetric rank-k update
        a_t, b_t = a.T.copy(), b.T.copy()
        s_own, s_pair = a @ a_t, a @ b_t
        e_own, e_pair = np.exp(s_own * inv_tau), np.exp(s_pair * inv_tau)
        den = (e_own.sum(axis=1, keepdims=True)
               + e_pair.sum(axis=1, keepdims=True)) + self_sims
        term = np.log(den) - (s_pair * eye).sum(axis=1, keepdims=True) * inv_tau
        total = term if total is None else total + term
        saved.append((a_t, b_t, e_own, e_pair, den))

    def backprop(g, acc):
        each = np.full((n, 1), (g * (1.0 / n))[0, 0])
        g_pos = (-each) * inv_tau
        g_units = [None] * n_views

        def into(v, x):  # the first gradient is kept, later ones added into it
            buf = g_units[v]
            g_units[v] = x if buf is None else np.add(buf, x, out=buf)

        for v in reversed(range(n_views)):
            a = units[v][0]
            a_t, b_t, e_own, e_pair, den = saved[v]
            g_den = each / den
            g_pair = g_pos * eye
            g_pair += (g_den * e_pair) * inv_tau
            g_own = (g_den * e_own) * inv_tau
            into(v, g_pair @ b_t.T)
            into((v + 1) % n_views, (a.T @ g_pair).T)
            into(v, g_own @ a_t.T)
            into(v, (a.T @ g_own).T)
        for v in reversed(range(n_views)):
            g_item = _unit_rows_grad(g_units[v], *units[v])
            acc(items[v], g_item.T if columns else g_item)

    return tape._track(Tensor(np.array([[total.sum()]]) * (1.0 / n), tape,
                              backprop=backprop))


def partial_nt_xent(fused, feats: Sequence, tau: float) -> Tensor:
    """NT-Xent of the fused rows against each feature matrix, one node.

    Row i of ``fused`` is paired with row i of each matrix in ``feats``; the
    denominator runs over the other rows only (j != i). The summed terms are
    divided by the row count.
    """
    tape = _tape_of(fused, *feats)
    fused, feats = wrap(tape, fused), [wrap(tape, f) for f in feats]
    if any(f.value.shape != fused.value.shape for f in feats):
        raise DimensionError("feature matrices must match the fused shape")
    n = fused.value.shape[0]
    eye = np.eye(n)
    offdiag = 1.0 - eye
    inv_tau = 1.0 / tau
    fused_units = _unit_rows(fused.value)
    u_fused = fused_units[0]
    saved = []
    total = None
    for f in feats:
        units = _unit_rows(f.value)
        u_t = units[0].T.copy()
        sims = u_fused @ u_t
        e = np.exp(sims * inv_tau)
        den = (e * offdiag).sum(axis=1, keepdims=True)
        term = np.log(den) - (sims * eye).sum(axis=1, keepdims=True) * inv_tau
        total = term if total is None else total + term
        saved.append((units, u_t, e, den))

    def backprop(g, acc):
        each = np.full((n, 1), (g * (1.0 / n))[0, 0])
        g_pos = (-each) * inv_tau
        g_fused = None
        for f, (units, u_t, e, den) in zip(reversed(feats), reversed(saved)):
            g_sims = g_pos * eye
            g_sims += (((each / den) * offdiag) * e) * inv_tau
            g_u = g_sims @ u_t.T
            g_fused = g_u if g_fused is None else np.add(g_fused, g_u, out=g_fused)
            acc(f, _unit_rows_grad((u_fused.T @ g_sims).T, *units))
        acc(fused, _unit_rows_grad(g_fused, *fused_units))

    return tape._track(Tensor(np.array([[total.sum()]]) * (1.0 / n), tape,
                              backprop=backprop))


def one_vs_one_nt_xent(anchor, pos, neg, tau: float) -> Tensor:
    """-(1/N) sum_i log(e^{p_i/tau} / (e^{p_i/tau} + e^{q_i/tau})), one node,
    where p_i = cos(anchor_i, pos_i) is the positive and q_i =
    cos(anchor_i, neg_i) the negative row cosine.

    Each operand is normalised once; the anchor's two gradients are summed
    before its one normalisation backward. A constant operand (a
    reference) gets no gradient.
    """
    tape = _tape_of(anchor, pos, neg)
    anchor, pos, neg = (wrap(tape, t) for t in (anchor, pos, neg))
    if not (anchor.value.shape == pos.value.shape == neg.value.shape):
        raise DimensionError("contrasted matrices must share one shape")
    ua, up, un = (_unit_rows(t.value) for t in (anchor, pos, neg))
    n = anchor.value.shape[0]
    inv_tau = 1.0 / tau
    p = (ua[0] * up[0]).sum(axis=1, keepdims=True)
    q = (ua[0] * un[0]).sum(axis=1, keepdims=True)
    e_pos, e_neg = np.exp(p * inv_tau), np.exp(q * inv_tau)
    den = e_pos + e_neg
    term = np.log(den) - p * inv_tau

    def backprop(g, acc):
        each = np.full((n, 1), (g * (1.0 / n))[0, 0])
        g_den = each / den
        g_neg = (g_den * e_neg) * inv_tau
        g_pos = (-each) * inv_tau
        g_pos += (g_den * e_pos) * inv_tau

        def give(t, g_unit, units):
            if t.param is not None or t._backprop is not None:  # not a constant
                acc(t, _unit_rows_grad(g_unit, *units))

        # the order in which the chain's nodes reached the operands
        give(neg, g_neg * ua[0], un)
        give(pos, g_pos * ua[0], up)
        g_anchor = g_neg * un[0]
        g_anchor += g_pos * up[0]
        give(anchor, g_anchor, ua)

    return tape._track(Tensor(np.array([[term.sum()]]) * (1.0 / n), tape,
                              backprop=backprop))


class _SpanOptimizer:
    """Steps the coordinates ``spans`` of a flat parameter vector ``value``
    from the same coordinates of ``grad``, and clears them after each step.

    Every update is elementwise, so stepping a few long spans gives the
    bits that stepping each parameter on its own would. Per-coordinate
    state and scratch are rows of ``workspace`` (see
    :func:`optimizer_workspace`), as wide as ``value`` and indexed by the
    same spans. Optimizers built one after another may share one
    workspace, so a run allocates it once.
    """

    def __init__(self, value: Array, grad: Array | None, spans: Sequence[slice],
                 workspace: Array):
        if grad is None:
            raise ValueError("optimizer needs a model with a gradient buffer")
        if workspace.shape[1] != value.size:
            raise ValueError(f"optimizer workspace holds {workspace.shape[1]} "
                             f"coordinates, the model {value.size}")
        self.value, self.grad, self._spans = value, grad, spans
        self._work = workspace[0]

    def _check_finite_grads(self) -> None:
        for span in self._spans:
            if not np.isfinite(self.grad[span]).all():
                raise TrainingError("non-finite gradient encountered during optimizer step")


class SGD(_SpanOptimizer):
    """Plain gradient descent over owned spans; clears their gradients."""

    def __init__(self, lr: float, value: Array, grad: Array, spans: Sequence[slice],
                 workspace: Array):
        super().__init__(value, grad, spans, workspace)
        self.lr = float(lr)

    def step(self) -> None:
        self._check_finite_grads()
        for span in self._spans:
            g, step = self.grad[span], self._work[span]
            np.multiply(self.lr, g, out=step)
            self.value[span] -= step
            g[...] = 0.0


class Adam(_SpanOptimizer):
    """Adam with the conventional constants over owned spans.

    The moments ``m`` and ``v`` are one vector each over all spans. Each
    step makes the numpy calls of ``m = b1*m + (1-b1)*g``, ``v = b2*v +
    (1-b2)*g**2``, ``w -= lr*m_hat / (sqrt(v_hat) + eps)`` in that order,
    writing into its own buffers instead of new arrays, so the result is
    bitwise that of the per-parameter loop (``tests/helpers.py``).

    The first step starts from zero moments, so it writes them straight
    from the gradient, ``m = +0.0 + (1-b1)*g`` and ``v = (1-b2)*g**2``,
    and the optimizer never zeroes them. Adding ``+0.0`` turns a ``-0.0``
    into ``+0.0``, as ``b1*0 + (1-b1)*g`` does; ``v``'s term is never
    ``-0.0``. So the bits are those of the general step from zeroed moments.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, lr: float, value: Array, grad: Array, spans: Sequence[slice],
                 workspace: Array):
        super().__init__(value, grad, spans, workspace)
        self.lr = float(lr)
        self._work, self._denom, self._m, self._v = workspace
        self._step = 0

    def step(self) -> None:
        self._check_finite_grads()
        self._step += 1
        t = self._step
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1 - b1 ** t, 1 - b2 ** t
        for span in self._spans:
            g, w = self.grad[span], self.value[span]
            m, v, a, d = self._m[span], self._v[span], self._work[span], self._denom[span]
            if t == 1:
                np.multiply(1 - b1, g, out=m)
                m += 0.0
                np.square(g, out=v)
                np.multiply(1 - b2, v, out=v)
            else:
                m *= b1
                np.multiply(1 - b1, g, out=a)
                m += a
                v *= b2
                np.square(g, out=a)
                np.multiply(1 - b2, a, out=a)
                v += a
            np.divide(m, c1, out=a)            # m_hat
            np.divide(v, c2, out=d)            # v_hat
            np.sqrt(d, out=d)
            d += self.eps
            np.multiply(self.lr, a, out=a)
            a /= d
            w -= a
            g[...] = 0.0


OPTIMIZERS = ("adam", "sgd")


def optimizer_workspace(size: int) -> Array:
    """State and scratch rows for any optimizer over a ``size``-coordinate model."""
    return np.empty((4, size))


def make_optimizer(mode: str, lr: float, value: Array, grad: Array,
                   spans: Sequence[slice], workspace: Array):
    """An optimizer of ``mode`` over the ``spans`` of ``value`` and ``grad``,
    with its state and scratch in ``workspace``."""
    if mode == "sgd":
        return SGD(lr, value, grad, spans, workspace)
    if mode == "adam":
        return Adam(lr, value, grad, spans, workspace)
    raise ValueError(f"unknown optimizer mode {mode!r} (expected one of {OPTIMIZERS})")
