"""Per-client network: view autoencoders, shared feature net, cluster head.

Every model carries the autoencoders of ALL views even on clients that
only hold a subset; the unowned ones simply never receive gradients or
optimizer updates. Keeping every parameter set the same shape is what
makes cross-client weighted averaging well defined.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import tensor as T
from .config import check
from .data import BinaryReader
from .errors import DataFormatError, DimensionError
from .tensor import Param, Tape, Tensor

_MAGIC = b"MVP1"
_VERSION = 1


@dataclass(frozen=True)
class Architecture:
    """Layer sizes for one model. ``hidden`` is the width of every MLP stage."""

    view_dims: tuple[int, ...]
    n_clusters: int
    latent_dim: int
    high_dim: int
    hidden: int

    def __post_init__(self):
        object.__setattr__(self, "view_dims", tuple(int(d) for d in self.view_dims))
        check(view_dims=self.view_dims, n_clusters=self.n_clusters,
              latent_dim=self.latent_dim, high_dim=self.high_dim, hidden=self.hidden)

    @property
    def n_views(self) -> int:
        return len(self.view_dims)


def _layer_shapes(arch: Architecture) -> list[tuple[int, int]]:
    """Shape of every parameter in checkpoint order: all encoders, all
    decoders, the feature net, the cluster head. Each subnet is
    [W1, b1, W2, b2] ([W, b] for the head), so weights sit at even positions."""
    def mlp2(d_in: int, d_out: int) -> list[tuple[int, int]]:
        return [(d_in, arch.hidden), (1, arch.hidden), (arch.hidden, d_out), (1, d_out)]

    shapes = []
    for d in arch.view_dims:
        shapes += mlp2(d, arch.latent_dim)
    for d in arch.view_dims:
        shapes += mlp2(arch.latent_dim, d)
    shapes += mlp2(arch.latent_dim, arch.high_dim)
    return shapes + [(arch.high_dim, arch.n_clusters), (1, arch.n_clusters)]


class ModelParams:
    """All weights of one participant in one float64 ``vector``.

    ``vector`` holds every parameter in checkpoint order (see
    :func:`_layer_shapes`). Each :class:`Param` is a reshaped view of it,
    grouped by role: a subnet is a [W1, b1, W2, b2] list, the cluster head a
    [W, b] pair. Writing through a ``Param`` changes ``vector``. The
    constructor keeps the ``vector`` it is given (zeros by default) without
    copying it.

    Only a model built with ``trainable=True`` has a ``grad`` vector (and
    ``Param.grad`` views of it); every other model's ``grad`` is None, so a
    backward pass into it fails. Each process that trains a run's clients
    has one trainable model, the working model they train in one after
    another; the global model, the clients' snapshots and loaded
    checkpoints are read only for their values. An optimizer updates a client's :meth:`owned_spans` of
    ``vector`` and ``grad`` directly.
    """

    def __init__(self, arch: Architecture, vector: np.ndarray | None = None,
                 trainable: bool = False):
        shapes = _layer_shapes(arch)
        bounds = np.cumsum([0] + [r * c for r, c in shapes]).tolist()
        size = bounds[-1]
        if vector is None:
            vector = np.zeros(size)
        if vector.dtype != np.float64 or vector.shape != (size,):
            raise DimensionError(f"parameter vector has {vector.size} {vector.dtype} "
                                 f"values, architecture needs {size} float64")
        self.arch = arch
        self.vector = vector
        self.grad = np.zeros(size) if trainable else None
        self._bounds = bounds
        self._params = p = [
            Param(vector[a:b].reshape(shape),
                  None if self.grad is None else self.grad[a:b].reshape(shape))
            for a, b, shape in zip(bounds, bounds[1:], shapes)]
        n = arch.n_views
        self.encoders: list[list[Param]] = [p[4 * v:4 * v + 4] for v in range(n)]
        self.decoders: list[list[Param]] = [p[4 * v:4 * v + 4] for v in range(n, 2 * n)]
        self.feature_net: list[Param] = p[8 * n:8 * n + 4]
        self.cluster_head: list[Param] = p[8 * n + 4:]

    def shared_params(self) -> list[Param]:
        return [*self.feature_net, *self.cluster_head]

    def view_params(self, v: int) -> list[Param]:
        return [*self.encoders[v], *self.decoders[v]]

    def trainable_params(self, view_subset: Sequence[int]) -> list[Param]:
        """Owned-view autoencoders plus the shared nets, in a fixed order."""
        out: list[Param] = []
        for v in sorted(view_subset):
            out.extend(self.view_params(v))
        out.extend(self.shared_params())
        return out

    def all_params(self) -> list[Param]:
        return list(self._params)

    def view_spans(self, v: int) -> tuple[slice, slice]:
        """Where view ``v``'s encoder and decoder sit in ``vector``."""
        b, n = self._bounds, self.arch.n_views
        return slice(b[4 * v], b[4 * v + 4]), slice(b[4 * (n + v)], b[4 * (n + v) + 4])

    def shared_span(self) -> slice:
        """Where the feature net and the cluster head sit in ``vector``."""
        return slice(self._bounds[8 * self.arch.n_views], self._bounds[-1])

    def owned_spans(self, view_subset: Sequence[int], shared: bool = True) -> list[slice]:
        """The coordinates a client with ``view_subset`` trains, ascending.

        The owned views' encoder and decoder spans, plus the shared span
        when ``shared``; spans that touch are merged into one.
        """
        spans = [span for v in view_subset for span in self.view_spans(v)]
        if shared:
            spans.append(self.shared_span())
        merged: list[slice] = []
        for span in sorted(spans, key=lambda s: s.start):
            if merged and merged[-1].stop == span.start:
                merged[-1] = slice(merged[-1].start, span.stop)
            else:
                merged.append(span)
        return merged

    def clone(self) -> "ModelParams":
        """A grad-less copy: a new ``vector`` with the same values."""
        return ModelParams(self.arch, self.vector.copy())


def init_params(arch: Architecture, seed=0) -> ModelParams:
    """Glorot-uniform weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(seed)
    params = ModelParams(arch)
    for w in params.all_params()[::2]:
        fan_in, fan_out = w.shape
        s = np.sqrt(6.0 / (fan_in + fan_out))
        w.value[...] = rng.uniform(-s, s, size=(fan_in, fan_out))
    return params


def _forward_mlp2(x, layer: Sequence[Param]) -> Tensor:
    w1, b1, w2, b2 = layer
    return T.affine(T.affine(x, w1, b1, relu=True), w2, b2)


def _check_view_columns(params: ModelParams, v: int, x: np.ndarray) -> None:
    expected = params.arch.view_dims[v]
    if x.shape[1] != expected:
        raise DimensionError(f"view {v} expects {expected} columns, got {x.shape[1]}")


def encode(tape: Tape, params: ModelParams, x, v: int) -> Tensor:
    x = T.wrap(tape, x)
    _check_view_columns(params, v, x.value)
    return _forward_mlp2(x, params.encoders[v])


def decode(tape: Tape, params: ModelParams, z, v: int) -> Tensor:
    return _forward_mlp2(T.wrap(tape, z), params.decoders[v])


def encode_decode(tape: Tape, params: ModelParams, x, v: int) -> tuple[Tensor, Tensor]:
    z = encode(tape, params, x, v)
    return z, decode(tape, params, z, v)


def high_features(tape: Tape, params: ModelParams, z) -> Tensor:
    """Shared feature net: latent -> high-level feature space."""
    return _forward_mlp2(T.wrap(tape, z), params.feature_net)


def fuse(feats: Sequence[Tensor]) -> Tensor:
    """Elementwise mean of the available views' high-level features."""
    if not feats:
        raise ValueError("fuse needs at least one feature matrix")
    acc = feats[0]
    for f in feats[1:]:
        acc = T.add(acc, f)
    return T.scale(acc, 1.0 / len(feats))


def cluster_assign(tape: Tape, params: ModelParams, feat) -> Tensor:
    """Row-stochastic soft cluster assignments from high-level features."""
    w, b = params.cluster_head
    return T.softmax_rows(T.affine(T.wrap(tape, feat), w, b))


@dataclass
class ForwardOutputs:
    """Everything one forward pass produces for a client's available views."""

    recons: dict[int, Tensor]
    feats: dict[int, Tensor]
    fused: Tensor
    probs: dict[int, Tensor] | None = None


def forward_views(tape: Tape, params: ModelParams, views: Mapping[int, np.ndarray],
                  want_probs: bool = False) -> ForwardOutputs:
    """Run the full pipeline over the given views (keyed by view index)."""
    if not views:
        raise ValueError("forward_views needs at least one view")
    recons: dict[int, Tensor] = {}
    feats: dict[int, Tensor] = {}
    probs: dict[int, Tensor] = {}
    for v in sorted(views):
        z, xhat = encode_decode(tape, params, views[v], v)
        recons[v] = xhat
        feats[v] = high_features(tape, params, z)
        if want_probs:
            probs[v] = cluster_assign(tape, params, feats[v])
    fused = fuse([feats[v] for v in sorted(feats)])
    return ForwardOutputs(recons, feats, fused, probs if want_probs else None)


def _infer_mlp2(x: np.ndarray, layer: Sequence[Param]) -> np.ndarray:
    w1, b1, w2, b2 = (p.value for p in layer)
    # in place: a pool-sized temporary per operation costs fresh pages
    h = x @ w1
    h += b1
    np.fmax(h, 0.0, out=h)
    out = h @ w2
    out += b2
    return out


def infer_fused(params: ModelParams, views: Mapping[int, np.ndarray]) -> np.ndarray:
    """Fused features as plain numbers, through the encoders and feature net.

    No tape is built and no decoder runs. Every operation happens in the
    same order as in the taped forward, so the result is bitwise equal to
    ``forward_views(...).fused.value``.
    """
    if not views:
        raise ValueError("infer_fused needs at least one view")
    acc = None
    for v in sorted(views):
        x = T.as_matrix(views[v])
        _check_view_columns(params, v, x)
        feat = _infer_mlp2(_infer_mlp2(x, params.encoders[v]), params.feature_net)
        if acc is None:
            acc = feat
        else:
            acc += feat
    acc *= 1.0 / len(views)
    return acc


def save_checkpoint(params: ModelParams, path) -> None:
    """Write architecture descriptor plus the flattened parameter vector."""
    arch = params.arch
    vec = params.vector
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, arch.n_views))
        fh.write(struct.pack(f"<{arch.n_views}I", *arch.view_dims))
        fh.write(struct.pack("<IIIIQ", arch.latent_dim, arch.high_dim,
                             arch.hidden, arch.n_clusters, vec.size))
        fh.write(vec.astype("<f8").tobytes())


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint with the architecture its header describes; a
    caller that needs a given architecture (a resumed run) compares it."""
    reader = BinaryReader(path, _MAGIC, _VERSION, "checkpoint")
    (n_views,) = reader.unpack("<I", "header")
    view_dims = reader.unpack(f"<{n_views}I", "view dims")
    latent, high, hidden, n_clusters, count = reader.unpack("<IIIIQ", "architecture")
    arch = reader.rules("architecture", Architecture, view_dims, n_clusters,
                        latent, high, hidden)
    needed = sum(r * c for r, c in _layer_shapes(arch))
    if count != needed:
        raise DataFormatError(
            f"parameter vector has {count} values, architecture needs {needed}")
    vec = reader.array("<f8", count, "parameter vector")
    reader.end()
    bad = np.flatnonzero(~np.isfinite(vec))
    if bad.size:
        raise DataFormatError(
            f"parameter vector holds a non-finite value at index {bad[0]}")
    return ModelParams(arch, vec)
