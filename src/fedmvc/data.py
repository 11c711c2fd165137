"""Multi-view datasets: generation, partitioning, view assignment, and I/O.

All functions here are pure in (inputs, seed), so they are safe to call
from any context. Seeds may be ints or ``numpy.random.SeedSequence``.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import check
from .errors import ConfigError, DataFormatError, PartitionError

CLIENT_FULL = "full"
CLIENT_PARTIAL = "partial"
CLIENT_SINGLE = "single"

_MAGIC = b"MVD1"
_VERSION = 1

# draws before a partition or a view assignment gives up
PARTITION_RETRIES = 100
ASSIGN_RETRIES = 200


@dataclass
class MultiViewDataset:
    """N samples observed through V feature views, with optional labels."""

    views: list[np.ndarray]
    labels: np.ndarray | None
    n_clusters: int

    def __post_init__(self):
        if not self.views:
            raise DataFormatError("dataset needs at least one view")
        check(n_clusters=self.n_clusters)
        self.views = [np.ascontiguousarray(v, dtype=np.float64) for v in self.views]
        n = self.views[0].shape[0]
        for i, v in enumerate(self.views):
            if v.ndim != 2:
                raise DataFormatError(f"view {i} is not a 2-D matrix")
            if v.shape[0] != n:
                raise DataFormatError(
                    f"view {i} has {v.shape[0]} rows, expected {n}")
            finite = np.isfinite(v)
            if not finite.all():
                row = int(np.argmin(finite.all(axis=1)))
                raise DataFormatError(f"view {i} has a NaN or infinite value in row {row}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (n,):
                raise DataFormatError(
                    f"labels have shape {self.labels.shape}, expected ({n},)")
            if n and (self.labels.min() < 0 or self.labels.max() >= self.n_clusters):
                raise DataFormatError(
                    f"labels must lie in [0, {self.n_clusters})")

    @property
    def n_samples(self) -> int:
        return self.views[0].shape[0]

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def view_dims(self) -> tuple[int, ...]:
        return tuple(v.shape[1] for v in self.views)

    def standardized(self) -> "MultiViewDataset":
        """Per-view, per-feature zero-mean unit-variance copy.

        Constant features are left centered but unscaled.
        """
        out = []
        for v in self.views:
            mean = v.mean(axis=0, keepdims=True)
            std = v.std(axis=0, keepdims=True)
            std = np.where(std > 0, std, 1.0)
            out.append((v - mean) / std)
        return MultiViewDataset(out, self.labels, self.n_clusters)


@dataclass(frozen=True)
class ClientShard:
    """One participant's slice of the dataset: which views, which rows.

    The one record of a client: aggregation weighs it by ``n_samples`` and
    ``n_views``, and its type follows from ``n_views``
    (:func:`client_type_for`).
    """

    client_id: int
    view_subset: tuple[int, ...]
    sample_indices: np.ndarray = field(compare=False)

    def __post_init__(self):
        # plain ints, whatever integer type the subset was drawn as; a
        # non-integer view raises TypeError rather than being truncated
        subset = tuple(operator.index(v) for v in self.view_subset)
        if len(subset) == 0:
            raise ConfigError("view subset must be nonempty")
        if len(set(subset)) != len(subset):
            raise ConfigError("view subset contains duplicates")
        idx = np.asarray(self.sample_indices, dtype=np.int64)
        if idx.size == 0:
            raise ConfigError(f"client {self.client_id} received no samples")
        if np.unique(idx).size != idx.size:
            raise ConfigError(f"client {self.client_id} has duplicate sample indices")
        object.__setattr__(self, "view_subset", subset)
        object.__setattr__(self, "sample_indices", idx)

    @property
    def n_samples(self) -> int:
        return int(self.sample_indices.size)

    @property
    def n_views(self) -> int:
        return len(self.view_subset)


def client_type_for(subset_size: int, n_views: int) -> str:
    """The client type implied by how many of the views a subset holds: a
    subset of one view is single-view even when the dataset has one view."""
    if subset_size == 1:
        return CLIENT_SINGLE
    if subset_size == n_views:
        return CLIENT_FULL
    return CLIENT_PARTIAL


def generate_blobs(n_clusters: int, n_samples: int, view_dims: Sequence[int],
                   separation: float, noise_sigma: float, seed=0) -> MultiViewDataset:
    """Gaussian clusters rendered independently in every view.

    Each view draws its own cluster means (the views are distinct looks at
    the same labels), rescaled so the minimum pairwise distance between
    means equals ``separation``. Cluster sizes are balanced within one
    sample. ``separation=0`` collapses every view to pure noise around the
    origin.
    """
    check(n_clusters=n_clusters, n_samples=n_samples, view_dims=tuple(view_dims),
          separation=separation, noise_sigma=noise_sigma)
    rng = np.random.default_rng(seed)

    base, extra = divmod(n_samples, n_clusters)
    counts = [base + (1 if k < extra else 0) for k in range(n_clusters)]
    labels = np.repeat(np.arange(n_clusters, dtype=np.int64), counts)
    rng.shuffle(labels)

    views = []
    for dim in view_dims:
        if n_clusters == 1:
            means = np.zeros((1, dim))
        else:
            min_dist = 0.0
            while min_dist == 0:  # coincident draws are measure zero but cheap to guard
                means = rng.standard_normal((n_clusters, dim))
                diffs = means[:, None, :] - means[None, :, :]
                dists = np.linalg.norm(diffs, axis=2)
                min_dist = dists[np.triu_indices(n_clusters, k=1)].min()
            means = means * (separation / min_dist) if separation > 0 else np.zeros_like(means)
        noise = rng.standard_normal((n_samples, dim)) * noise_sigma
        views.append(means[labels] + noise)
    return MultiViewDataset(views, labels, n_clusters)


def dirichlet_partition(labels, n_clients: int, beta: float | None,
                        seed=0) -> list[np.ndarray]:
    """Split sample indices across clients, skewed per label.

    For each label, its samples are divided by proportions drawn from a
    symmetric Dirichlet with concentration ``beta``; smaller ``beta``
    means more skew. ``beta=None`` requests the IID split (a uniform
    shuffle cut into near-equal chunks). Draws are repeated until every
    client holds at least one sample, up to ``PARTITION_RETRIES`` times; with
    fewer samples than clients no draw is made.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    check(n_clients=n_clients, dirichlet_beta=beta)
    if n < n_clients:
        raise PartitionError(
            f"cannot give every client a sample (beta={beta}, n_clients={n_clients}, "
            f"n_samples={n})")
    rng = np.random.default_rng(seed)

    if beta is None:
        order = rng.permutation(n)
        return [np.sort(chunk.astype(np.int64)) for chunk in np.array_split(order, n_clients)]

    classes = np.unique(labels)
    for _ in range(PARTITION_RETRIES):
        parts: list[list[np.ndarray]] = [[] for _ in range(n_clients)]
        for cls in classes:
            idx = rng.permutation(np.flatnonzero(labels == cls))
            props = rng.dirichlet(np.full(n_clients, beta))
            cuts = (np.cumsum(props) * idx.size).astype(int)[:-1]
            for client, chunk in enumerate(np.split(idx, cuts)):
                parts[client].append(chunk)
        result = [np.sort(np.concatenate(p).astype(np.int64)) for p in parts]
        if all(r.size > 0 for r in result):
            return result
    raise PartitionError(
        f"could not give every client a sample after {PARTITION_RETRIES} draws "
        f"(beta={beta}, n_clients={n_clients}, n_samples={n})")


def assign_views(n_clients: int, n_views: int, seed=0,
                 counts: tuple[int, int, int] | None = None
                 ) -> list[tuple[int, ...]]:
    """Decide each client's view subset.

    ``counts`` fixes how many clients hold all ``n_views`` views, some
    (2 to V-1) and one, in that order; without it each client's subset
    size is drawn uniformly from 1..V. Which views a subset holds is drawn
    too. Assignments are redrawn until every view is held by at least one
    client, up to ``ASSIGN_RETRIES`` times.
    """
    check(n_clients=n_clients)
    if n_views < 1:
        raise ConfigError(f"n_views must be >= 1, got {n_views}")
    if counts is not None:
        check(mixed_counts=tuple(counts), n_clients=n_clients)
        if counts[1] > 0 and n_views < 3:
            raise ConfigError("partial clients need at least 3 views")
    rng = np.random.default_rng(seed)

    all_views = tuple(range(n_views))
    for _ in range(ASSIGN_RETRIES):
        if counts is not None:
            n_full, n_partial, n_single = counts
            draw = ([n_views] * n_full
                    + list(rng.integers(2, n_views, size=n_partial))
                    + [1] * n_single)
        else:
            draw = list(rng.integers(1, n_views + 1, size=n_clients))
        subsets = []
        for size in draw:
            if size == n_views:
                subsets.append(all_views)
            else:
                subsets.append(tuple(sorted(rng.choice(n_views, size=size, replace=False))))
        if set().union(*subsets) == set(all_views):
            return subsets
    raise ConfigError(
        f"could not cover all {n_views} views with {n_clients} clients after "
        f"{ASSIGN_RETRIES} draws (mixed_counts={counts})")


def save_dataset(ds: MultiViewDataset, path) -> None:
    """Write ``ds`` in the MVD1 binary format (see README)."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIQIB", _VERSION, ds.n_views, ds.n_samples,
                             ds.n_clusters, 1 if ds.labels is not None else 0))
        for v in ds.views:
            fh.write(struct.pack("<I", v.shape[1]))
            fh.write(np.ascontiguousarray(v, dtype="<f8").tobytes())
        if ds.labels is not None:
            fh.write(ds.labels.astype("<i8").tobytes())


def load_dataset(path) -> MultiViewDataset:
    """Read a dataset written by :func:`save_dataset`. Bit-exact roundtrip."""
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = 0

    def take(nbytes: int, what: str) -> bytes:
        nonlocal pos
        if pos + nbytes > len(blob):
            raise DataFormatError(f"truncated file while reading {what}")
        chunk = blob[pos:pos + nbytes]
        pos += nbytes
        return chunk

    if take(4, "magic") != _MAGIC:
        raise DataFormatError("bad magic bytes (not an MVD1 file)")
    version, n_views, n_samples, n_clusters, has_labels = struct.unpack(
        "<IIQIB", take(21, "header"))
    if version != _VERSION:
        raise DataFormatError(f"unsupported MVD version {version}")
    views = []
    for v in range(n_views):
        (dim,) = struct.unpack("<I", take(4, f"view {v} dimension"))
        payload = take(8 * n_samples * dim, f"view {v} payload ({n_samples} rows)")
        views.append(np.frombuffer(payload, dtype="<f8").reshape(n_samples, dim).copy())
    labels = None
    if has_labels:
        labels = np.frombuffer(take(8 * n_samples, "labels"), dtype="<i8").copy()
    if pos != len(blob):
        raise DataFormatError(f"unexpected {len(blob) - pos} trailing bytes")
    return MultiViewDataset(views, labels, int(n_clusters))
