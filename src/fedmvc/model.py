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
from .errors import ConfigError, DataFormatError, DimensionError
from .tensor import Param, Tape, Tensor

_MAGIC = b"MVP1"
_VERSION = 1


@dataclass(frozen=True)
class Architecture:
    """Layer sizes for one model. ``hidden`` is the width of every MLP stage."""

    view_dims: tuple[int, ...]
    n_clusters: int
    latent_dim: int = 16
    high_dim: int = 32
    hidden: int = 128

    def __post_init__(self):
        object.__setattr__(self, "view_dims", tuple(int(d) for d in self.view_dims))
        for name in ("n_clusters", "latent_dim", "high_dim", "hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.view_dims or any(d < 1 for d in self.view_dims):
            raise ConfigError(f"view_dims must all be >= 1, got {self.view_dims}")

    @property
    def n_views(self) -> int:
        return len(self.view_dims)


class ModelParams:
    """All weights of one participant, grouped by role.

    Each subnet is a flat [W1, b1, W2, b2] list (the cluster head is a
    single [W, b] pair). ``flatten``/``unflatten`` are exact inverses.
    """

    def __init__(self, arch: Architecture, encoders, decoders, feature_net, cluster_head):
        self.arch = arch
        self.encoders: list[list[Param]] = encoders
        self.decoders: list[list[Param]] = decoders
        self.feature_net: list[Param] = feature_net
        self.cluster_head: list[Param] = cluster_head

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
        out: list[Param] = []
        for v in range(self.arch.n_views):
            out.extend(self.encoders[v])
        for v in range(self.arch.n_views):
            out.extend(self.decoders[v])
        out.extend(self.feature_net)
        out.extend(self.cluster_head)
        return out

    def clone(self) -> "ModelParams":
        return ModelParams(
            self.arch,
            [[p.copy() for p in enc] for enc in self.encoders],
            [[p.copy() for p in dec] for dec in self.decoders],
            [p.copy() for p in self.feature_net],
            [p.copy() for p in self.cluster_head],
        )

    def flatten(self) -> np.ndarray:
        return np.concatenate([p.value.ravel() for p in self.all_params()])

    @classmethod
    def unflatten(cls, arch: Architecture, vec: np.ndarray) -> "ModelParams":
        params = init_params(arch, seed=0)
        offset = 0
        for p in params.all_params():
            size = p.value.size
            if offset + size > vec.size:
                raise DimensionError("parameter vector too short for architecture")
            p.value[...] = vec[offset:offset + size].reshape(p.value.shape)
            offset += size
        if offset != vec.size:
            raise DimensionError(
                f"parameter vector has {vec.size} values, architecture needs {offset}")
        return params


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> Param:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return Param(rng.uniform(-s, s, size=(fan_in, fan_out)))


def _mlp2(rng, d_in: int, d_hidden: int, d_out: int) -> list[Param]:
    return [_glorot(rng, d_in, d_hidden), Param(np.zeros((1, d_hidden))),
            _glorot(rng, d_hidden, d_out), Param(np.zeros((1, d_out)))]


def init_params(arch: Architecture, seed=0) -> ModelParams:
    """Glorot-uniform weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(seed)
    encoders = [_mlp2(rng, d, arch.hidden, arch.latent_dim) for d in arch.view_dims]
    decoders = [_mlp2(rng, arch.latent_dim, arch.hidden, d) for d in arch.view_dims]
    feature_net = _mlp2(rng, arch.latent_dim, arch.hidden, arch.high_dim)
    cluster_head = [_glorot(rng, arch.high_dim, arch.n_clusters),
                    Param(np.zeros((1, arch.n_clusters)))]
    return ModelParams(arch, encoders, decoders, feature_net, cluster_head)


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
    z = T.wrap(tape, z)
    if z.value.shape[1] != params.arch.latent_dim:
        raise DimensionError(
            f"latent input expects {params.arch.latent_dim} columns, "
            f"got {z.value.shape[1]}")
    return _forward_mlp2(z, params.decoders[v])


def encode_decode(tape: Tape, params: ModelParams, x, v: int) -> tuple[Tensor, Tensor]:
    z = encode(tape, params, x, v)
    return z, decode(tape, params, z, v)


def high_features(tape: Tape, params: ModelParams, z) -> Tensor:
    """Shared feature net: latent -> high-level feature space."""
    z = T.wrap(tape, z)
    if z.value.shape[1] != params.arch.latent_dim:
        raise DimensionError(
            f"feature net expects {params.arch.latent_dim} columns, "
            f"got {z.value.shape[1]}")
    return _forward_mlp2(z, params.feature_net)


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
    feat = T.wrap(tape, feat)
    if feat.value.shape[1] != params.arch.high_dim:
        raise DimensionError(
            f"cluster head expects {params.arch.high_dim} columns, "
            f"got {feat.value.shape[1]}")
    w, b = params.cluster_head
    return T.softmax_rows(T.affine(feat, w, b))


@dataclass
class ForwardOutputs:
    """Everything one forward pass produces for a client's available views."""

    latents: dict[int, Tensor]
    recons: dict[int, Tensor]
    feats: dict[int, Tensor]
    fused: Tensor
    probs: dict[int, Tensor] | None = None


def forward_views(tape: Tape, params: ModelParams, views: Mapping[int, np.ndarray],
                  want_probs: bool = False) -> ForwardOutputs:
    """Run the full pipeline over the given views (keyed by view index)."""
    if not views:
        raise ValueError("forward_views needs at least one view")
    latents: dict[int, Tensor] = {}
    recons: dict[int, Tensor] = {}
    feats: dict[int, Tensor] = {}
    probs: dict[int, Tensor] = {}
    for v in sorted(views):
        z, xhat = encode_decode(tape, params, views[v], v)
        latents[v] = z
        recons[v] = xhat
        feats[v] = high_features(tape, params, z)
        if want_probs:
            probs[v] = cluster_assign(tape, params, feats[v])
    fused = fuse([feats[v] for v in sorted(feats)])
    return ForwardOutputs(latents, recons, feats, fused, probs if want_probs else None)


def _infer_mlp2(x: np.ndarray, layer: Sequence[Param]) -> np.ndarray:
    w1, b1, w2, b2 = (p.value for p in layer)
    h = x @ w1 + b1
    return np.where(h > 0, h, 0.0) @ w2 + b2


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
        acc = feat if acc is None else acc + feat
    return acc * (1.0 / len(views))


def save_checkpoint(params: ModelParams, path) -> None:
    """Write architecture descriptor plus the flattened parameter vector."""
    arch = params.arch
    vec = params.flatten()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, arch.n_views))
        fh.write(struct.pack(f"<{arch.n_views}I", *arch.view_dims))
        fh.write(struct.pack("<IIIIQ", arch.latent_dim, arch.high_dim,
                             arch.hidden, arch.n_clusters, vec.size))
        fh.write(vec.astype("<f8").tobytes())


def load_checkpoint(path, expect_arch: Architecture | None = None) -> ModelParams:
    """Read a checkpoint; optionally require a specific architecture."""
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = 0

    def take(nbytes: int, what: str) -> bytes:
        nonlocal pos
        if pos + nbytes > len(blob):
            raise DataFormatError(f"truncated checkpoint while reading {what}")
        chunk = blob[pos:pos + nbytes]
        pos += nbytes
        return chunk

    if take(4, "magic") != _MAGIC:
        raise DataFormatError("bad magic bytes (not a model checkpoint)")
    version, n_views = struct.unpack("<II", take(8, "header"))
    if version != _VERSION:
        raise DataFormatError(f"unsupported checkpoint version {version}")
    view_dims = struct.unpack(f"<{n_views}I", take(4 * n_views, "view dims"))
    latent, high, hidden, n_clusters, count = struct.unpack(
        "<IIIIQ", take(24, "architecture"))
    arch = Architecture(view_dims, n_clusters, latent, high, hidden)
    if expect_arch is not None and arch != expect_arch:
        raise DataFormatError(
            f"checkpoint architecture {arch} does not match expected {expect_arch}")
    vec = np.frombuffer(take(8 * count, "parameter vector"), dtype="<f8").copy()
    if pos != len(blob):
        raise DataFormatError(f"unexpected {len(blob) - pos} trailing bytes")
    return ModelParams.unflatten(arch, vec)
