"""Tape-based reverse-mode autodiff over dense float64 matrices.

Everything is a 2-D numpy array: features, parameters, gradients, even
scalar losses (shape ``(1, 1)``). A :class:`Tape` records every operation
applied to the tensors it owns; :meth:`Tape.backward` replays the record
in reverse creation order -- a reverse topological order of the
computation graph -- and accumulates gradients into the participating
:class:`Param` buffers.

Sized for small MLPs: no broadcasting beyond row-vector bias addition,
no views, no in-place graph surgery. A tape and its tensors belong to a
single execution context; independent tapes may run concurrently.

Two ops are fused to keep the tape short. :func:`affine` is a whole dense
layer, ``x @ W + b`` with an optional ReLU, in one node, and
:func:`sum_sq_dist` is the proximal term ``sum_i ||w_i - g_i||^2`` over any
number of parameters in one node. Each makes the numpy calls of the
elementary ops it replaces (``matmul``, ``add_row``, ``relu``; ``sub``,
``mul``, ``sum_all``, ``add``) in the same order, so values and gradients
are bitwise equal to theirs; the elementary ops stay as the reference.
Nothing in the package needs ``add_row`` and ``relu`` on their own, so those
two live in the tests (``tests/helpers.py``).
"""

from __future__ import annotations

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
    """A trainable matrix with a persistent gradient buffer.

    ``grad`` accumulates across backward passes until cleared by
    :meth:`zero_grad` (optimizer steps clear it automatically). Both are
    only ever updated in place, so they may be views of larger buffers.
    A view may have no ``grad`` (None): its values are read, never trained,
    and a backward pass into it raises.
    """

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = as_matrix(value).copy()
        self.grad = np.zeros_like(self.value)

    @classmethod
    def view(cls, value: Array, grad: Array) -> "Param":
        """A Param over existing same-shaped buffers, which it does not copy."""
        p = cls.__new__(cls)
        p.value, p.grad = value, grad
        return p

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

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


class Tape:
    """Ordered record of operations; replayed in reverse for gradients."""

    def __init__(self):
        self._nodes: list[Tensor] = []
        self._leaves: dict[int, Tensor] = {}

    def _track(self, t: Tensor) -> Tensor:
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
        """Accumulate d(loss)/d(param) into every participating Param.grad."""
        if not isinstance(loss, Tensor) or loss.tape is not self:
            raise ValueError("loss was not recorded on this tape")
        if loss.value.shape != (1, 1):
            raise ValueError(f"loss must be a 1x1 scalar, got shape {loss.value.shape}")
        grads: dict[int, Array] = {id(loss): np.ones((1, 1))}

        def accumulate(node: Tensor, g: Array) -> None:
            buf = grads.get(id(node))
            if buf is None:
                grads[id(node)] = np.array(g, dtype=np.float64)
            else:
                buf += g

        for node in reversed(self._nodes):
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


def matmul(a, b) -> Tensor:
    tape = _tape_of(a, b)
    a, b = wrap(tape, a), wrap(tape, b)
    if a.value.shape[1] != b.value.shape[0]:
        raise DimensionError(
            f"matmul shapes do not conform: {a.value.shape} x {b.value.shape}")
    av, bv = a.value, b.value

    def backprop(g, acc):
        acc(a, g @ bv.T)
        acc(b, av.T @ g)

    return tape._track(Tensor(av @ bv, tape, backprop=backprop))


def transpose(a: Tensor) -> Tensor:
    tape = a.tape

    def backprop(g, acc):
        acc(a, g.T)

    return tape._track(Tensor(a.value.T.copy(), tape, backprop=backprop))


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


def sub(a, b) -> Tensor:
    tape, a, b = _binary_same_shape(a, b, "sub")

    def backprop(g, acc):
        acc(a, g)
        acc(b, -g)

    return tape._track(Tensor(a.value - b.value, tape, backprop=backprop))


def mul(a, b) -> Tensor:
    tape, a, b = _binary_same_shape(a, b, "mul")
    av, bv = a.value, b.value

    def backprop(g, acc):
        acc(a, g * bv)
        acc(b, g * av)

    return tape._track(Tensor(av * bv, tape, backprop=backprop))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backprop(g, acc):
        acc(a, g * c)

    return a.tape._track(Tensor(a.value * c, a.tape, backprop=backprop))


def add_scalar(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backprop(g, acc):
        acc(a, g)

    return a.tape._track(Tensor(a.value + c, a.tape, backprop=backprop))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.value)

    def backprop(g, acc):
        acc(a, g * out)

    return a.tape._track(Tensor(out, a.tape, backprop=backprop))


def log(a: Tensor) -> Tensor:
    av = a.value

    def backprop(g, acc):
        acc(a, g / av)

    return a.tape._track(Tensor(np.log(av), a.tape, backprop=backprop))


def xlogx(a: Tensor) -> Tensor:
    """Elementwise x*log(x) with the 0*log(0) := 0 convention."""
    av = a.value
    pos = av > 0
    out = np.where(pos, av * np.log(np.where(pos, av, 1.0)), 0.0)

    def backprop(g, acc):
        acc(a, g * np.where(pos, np.log(np.where(pos, av, 1.0)) + 1.0, 0.0))

    return a.tape._track(Tensor(out, a.tape, backprop=backprop))


def rowsum(a: Tensor) -> Tensor:
    """Sum along each row: N x C -> N x 1."""
    shape = a.value.shape

    def backprop(g, acc):
        acc(a, np.broadcast_to(g, shape))

    return a.tape._track(Tensor(a.value.sum(axis=1, keepdims=True), a.tape,
                                backprop=backprop))


def colsum(a: Tensor) -> Tensor:
    """Sum down each column: N x C -> 1 x C."""
    shape = a.value.shape

    def backprop(g, acc):
        acc(a, np.broadcast_to(g, shape))

    return a.tape._track(Tensor(a.value.sum(axis=0, keepdims=True), a.tape,
                                backprop=backprop))


def sum_all(a: Tensor) -> Tensor:
    """Sum over every entry: N x C -> 1 x 1."""
    shape = a.value.shape

    def backprop(g, acc):
        acc(a, np.full(shape, g[0, 0]))

    return a.tape._track(Tensor(np.array([[a.value.sum()]]), a.tape,
                                backprop=backprop))


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


def normalize_rows(a) -> Tensor:
    """Scale each row to unit L2 norm; all-zero rows stay zero."""
    tape = _tape_of(a)
    a = wrap(tape, a)
    norms = np.linalg.norm(a.value, axis=1, keepdims=True)
    nonzero = norms > 0
    safe = np.where(nonzero, norms, 1.0)
    out = a.value / safe

    def backprop(g, acc):
        gx = (g - (g * out).sum(axis=1, keepdims=True) * out) / safe
        acc(a, np.where(nonzero, gx, 0.0))

    return tape._track(Tensor(out, tape, backprop=backprop))


def affine(x, weight, bias, relu: bool = False) -> Tensor:
    """x @ weight + bias, the dense layer, optionally followed by a ReLU.

    One tape node. Forward and backward make the numpy calls of the
    composite ``relu(add_row(matmul(x, weight), bias))`` (``relu`` and
    ``add_row`` are in ``tests/helpers.py``) in the same order, so its
    value and every gradient are bitwise equal to it. The
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
        out = np.where(mask, out, 0.0)
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
    ``add(sum_all(mul(d, d)), ...)`` over ``d = sub(leaf, ref)`` gives.
    """
    if len(leaves) != len(refs):
        raise DimensionError(
            f"parameter lists differ in length: {len(leaves)} vs {len(refs)}")
    tape = _tape_of(*leaves)
    leaves = [wrap(tape, leaf) for leaf in leaves]
    diffs = []
    total = None
    for leaf, ref in zip(leaves, refs):
        ref = np.asarray(ref, dtype=np.float64)
        if leaf.value.shape != ref.shape:
            raise DimensionError(
                f"parameter layout mismatch: {leaf.value.shape} vs {ref.shape}")
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


class _SpanOptimizer:
    """Steps the coordinates ``spans`` of a flat parameter vector ``value``
    from the same coordinates of ``grad``, and clears them after each step.

    Every update is elementwise, so stepping a few long spans gives the
    bits that stepping each parameter on its own would. Per-coordinate
    state and scratch live in vectors as long as all spans together;
    ``_segments`` pairs each span with its slice of those vectors.
    """

    def __init__(self, value: Array, grad: Array | None, spans: Sequence[slice]):
        if grad is None:
            raise ValueError("optimizer needs a model with a gradient buffer")
        self.value, self.grad = value, grad
        self._segments = []
        offset = 0
        for span in spans:
            size = value[span].size
            self._segments.append((span, slice(offset, offset + size)))
            offset += size
        self._work = np.empty(offset)

    def _check_finite_grads(self) -> None:
        for span, _ in self._segments:
            if not np.isfinite(self.grad[span]).all():
                raise TrainingError("non-finite gradient encountered during optimizer step")


class SGD(_SpanOptimizer):
    """Plain gradient descent over owned spans; clears their gradients."""

    def __init__(self, lr: float, value: Array, grad: Array, spans: Sequence[slice]):
        super().__init__(value, grad, spans)
        self.lr = float(lr)

    def step(self) -> None:
        self._check_finite_grads()
        for span, seg in self._segments:
            g, step = self.grad[span], self._work[seg]
            np.multiply(self.lr, g, out=step)
            self.value[span] -= step
            g[...] = 0.0


class Adam(_SpanOptimizer):
    """Adam with the conventional defaults over owned spans.

    The moments ``m`` and ``v`` are one vector each over all spans. Each
    step makes the numpy calls of ``m = b1*m + (1-b1)*g``, ``v = b2*v +
    (1-b2)*g**2``, ``w -= lr*m_hat / (sqrt(v_hat) + eps)`` in that order,
    writing into its own buffers instead of new arrays, so the result is
    bitwise that of the per-parameter loop (``tests/helpers.py``).
    """

    def __init__(self, lr: float, value: Array, grad: Array, spans: Sequence[slice],
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        super().__init__(value, grad, spans)
        self.lr = float(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = np.zeros(self._work.size)
        self._v = np.zeros(self._work.size)
        self._denom = np.empty(self._work.size)
        self._step = 0

    def step(self) -> None:
        self._check_finite_grads()
        self._step += 1
        t = self._step
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1 - b1 ** t, 1 - b2 ** t
        for span, seg in self._segments:
            g, w = self.grad[span], self.value[span]
            m, v, a, d = self._m[seg], self._v[seg], self._work[seg], self._denom[seg]
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


def make_optimizer(mode: str, lr: float, value: Array, grad: Array,
                   spans: Sequence[slice]):
    """An optimizer of ``mode`` over the ``spans`` of ``value`` and ``grad``."""
    if mode == "sgd":
        return SGD(lr, value, grad, spans)
    if mode == "adam":
        return Adam(lr, value, grad, spans)
    raise ValueError(f"unknown optimizer mode {mode!r} (expected one of {OPTIMIZERS})")
