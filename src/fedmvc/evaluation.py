"""Final clustering and metrics: k-means on fused features, ACC/NMI/ARI."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .data import MultiViewDataset
from .errors import ConfigError
from .model import ModelParams, infer_fused


@dataclass
class KMeansResult:
    centroids: np.ndarray
    labels: np.ndarray
    objective: float
    trace: list[float]


@dataclass
class MetricsReport:
    """Clustering quality of one evaluation; metric fields are None when
    the dataset carries no ground-truth labels."""

    acc: float | None
    nmi: float | None
    ari: float | None
    kmeans_objective: float
    restart_objectives: tuple[float, ...] = ()


def _pairwise_sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def kmeans_objective(points: np.ndarray, centroids: np.ndarray) -> float:
    return float(_pairwise_sq_dists(points, centroids).min(axis=1).sum())


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
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


def kmeans(points, n_clusters: int, seed=0, max_iter: int = 300,
           tol: float = 1e-6) -> KMeansResult:
    """Lloyd iterations from a k-means++ start.

    The objective is non-increasing across iterations (``trace`` records
    it after each assignment step); an emptied cluster is repaired by
    reseating it on the point currently farthest from its centroid.
    """
    points = np.asarray(points, dtype=np.float64)
    n, k = points.shape[0], n_clusters
    if n < k:
        raise ConfigError(f"k-means needs at least {k} points, got {n}")
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(points, k, rng)
    trace: list[float] = []
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(max_iter):
        d2 = _pairwise_sq_dists(points, centroids)
        labels = d2.argmin(axis=1)
        assigned = d2[np.arange(n), labels]
        for j in range(k):
            if not np.any(labels == j):
                far = int(assigned.argmax())
                centroids[j] = points[far]
                labels[far] = j
                assigned[far] = 0.0
        trace.append(float(assigned.sum()))
        new_centroids = np.array([points[labels == j].mean(axis=0) for j in range(k)])
        shift = np.linalg.norm(new_centroids - centroids, axis=1).max()
        centroids = new_centroids
        if shift < tol:
            break
    labels = predict(points, centroids)
    return KMeansResult(centroids, labels, kmeans_objective(points, centroids), trace)


def kmeans_best(points, n_clusters: int, n_restarts: int = 10, seed=0,
                max_iter: int = 300, tol: float = 1e-6
                ) -> tuple[KMeansResult, list[float]]:
    """Best of several seeded restarts (ties keep the earliest restart),
    plus every restart's final objective."""
    if n_restarts < 1:
        raise ConfigError(f"n_restarts must be >= 1, got {n_restarts}")
    seq = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    best = None
    objectives = []
    for child in seq.spawn(n_restarts):
        result = kmeans(points, n_clusters, child, max_iter, tol)
        objectives.append(result.objective)
        if best is None or result.objective < best.objective:
            best = result
    return best, objectives


def predict(points, centroids) -> np.ndarray:
    """Nearest-centroid labels; ties break toward the lowest index."""
    points = np.asarray(points, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    return _pairwise_sq_dists(points, centroids).argmin(axis=1).astype(np.int64)


def _contingency(true_labels, pred_labels) -> np.ndarray:
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(pred_labels, dtype=np.int64)
    if t.shape != p.shape or t.ndim != 1:
        raise ValueError(
            f"labelings must be 1-D and equal length, got {t.shape} and {p.shape}")
    if t.size == 0:
        raise ValueError("labelings are empty")
    if t.min() < 0 or p.min() < 0:
        raise ValueError("labels must be nonnegative")
    k = int(max(t.max(), p.max())) + 1
    table = np.zeros((k, k), dtype=np.int64)
    np.add.at(table, (t, p), 1)
    return table


def accuracy(true_labels, pred_labels) -> float:
    """Fraction matched under the best one-to-one cluster relabeling."""
    table = _contingency(true_labels, pred_labels)
    rows, cols = linear_sum_assignment(-table)
    return float(table[rows, cols].sum() / table.sum())


def normalized_mutual_info(true_labels, pred_labels) -> float:
    """NMI with the geometric-mean normalization.

    Both labelings constant -> 1; otherwise a zero denominator -> 0.
    """
    table = _contingency(true_labels, pred_labels).astype(np.float64)
    n = table.sum()
    joint = table / n
    pt = joint.sum(axis=1)
    pp = joint.sum(axis=0)
    h_t = float(-np.sum(pt[pt > 0] * np.log(pt[pt > 0])))
    h_p = float(-np.sum(pp[pp > 0] * np.log(pp[pp > 0])))
    if h_t == 0.0 and h_p == 0.0:
        return 1.0
    if h_t == 0.0 or h_p == 0.0:
        return 0.0
    outer = pt[:, None] * pp[None, :]
    mask = joint > 0
    mi = float(np.sum(joint[mask] * np.log(joint[mask] / outer[mask])))
    return float(min(max(mi / np.sqrt(h_t * h_p), 0.0), 1.0))


def adjusted_rand_index(true_labels, pred_labels) -> float:
    """Pair-counting ARI from the contingency table."""
    table = _contingency(true_labels, pred_labels)
    n = int(table.sum())

    def comb2(x):
        return x * (x - 1) // 2

    sum_cells = int(comb2(table).sum())
    sum_rows = int(comb2(table.sum(axis=1)).sum())
    sum_cols = int(comb2(table.sum(axis=0)).sum())
    total = comb2(n)
    expected = sum_rows * sum_cols / total if total else 0.0
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))


def eval_view_order(view_subset: Sequence[int] | None, n_views: int) -> list[int]:
    """The views evaluation renders, in ascending order (all when None).

    Raises ConfigError naming ``eval_views`` for a view out of range.
    """
    if view_subset is None:
        return list(range(n_views))
    views = sorted(view_subset)
    for v in views:
        if not 0 <= v < n_views:
            raise ConfigError(
                f"eval_views: view {v} out of range for a {n_views}-view dataset")
    return views


def evaluate_global(params: ModelParams, dataset: MultiViewDataset, *,
                    n_restarts: int = 10, seed=0,
                    view_subset: Sequence[int] | None = None,
                    max_iter: int = 300, tol: float = 1e-6,
                    standardize: bool = True) -> MetricsReport:
    """Cluster the model's fused features over the whole pool.

    Evaluation is an offline measurement, so by default every sample is
    rendered with its full view set; pass ``view_subset`` to restrict it.
    Unlabeled datasets yield a report with only the k-means objective.
    """
    work = dataset.standardized() if standardize else dataset
    views = eval_view_order(view_subset, work.n_views)
    fused = infer_fused(params, {v: work.views[v] for v in views})
    best, objectives = kmeans_best(fused, work.n_clusters, n_restarts, seed,
                                   max_iter, tol)
    if work.labels is None:
        return MetricsReport(None, None, None, best.objective, tuple(objectives))
    return MetricsReport(
        acc=accuracy(work.labels, best.labels),
        nmi=normalized_mutual_info(work.labels, best.labels),
        ari=adjusted_rand_index(work.labels, best.labels),
        kmeans_objective=best.objective,
        restart_objectives=tuple(objectives),
    )
