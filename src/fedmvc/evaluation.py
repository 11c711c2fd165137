"""Final clustering and metrics: k-means on fused features, ACC/NMI/ARI."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import ExperimentConfig, check
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


_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal


def _nearest(points: np.ndarray, centroids: np.ndarray,
             sq_norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nearest centroid (ties to the lowest index) and its
    squared distance to it.

    Both are bitwise the argmin and the minimum of
    ``_pairwise_sq_dists(points, centroids)``, at the cost of one matrix
    product. ``points`` is C-contiguous; ``sq_norms`` is
    ``(points ** 2).sum(axis=1)``.
    """
    # Labels come from the GEMM form ‖x‖² − 2·x·c + ‖c‖². Two facts bound
    # how far each form's computed value is from the true ‖x − c‖², with
    # u = eps/2 the unit roundoff and g_n = n·u/(1 − n·u):
    #  * GEMM form: ‖x‖², x·c and ‖c‖² are dot products of length D, each
    #    within g_D of the sum of its terms' magnitudes in any summation
    #    order, with or without FMA; two more additions make the error at
    #    most g_{D+2}·(‖x‖² + 2‖x‖‖c‖ + ‖c‖²) = g_{D+2}·(‖x‖ + ‖c‖)².
    #  * Exact form: a subtraction and a square per term, then D − 1
    #    additions: at most g_{D+2}·‖x − c‖² ≤ g_{D+2}·(‖x‖ + ‖c‖)².
    # If the exact form ranks some centroid at or before the GEMM argmin,
    # their GEMM values differ by at most those four errors,
    # 4·g_{D+2}·(‖x‖ + max‖c‖)². A row with a single centroid within that
    # margin of its best therefore has the exact form's label, whatever
    # order BLAS used; every other row is redone with the exact form.
    # `gamma` uses eps in place of u, so the margin is at least twice the
    # bound: that covers the rounding of the margin, the norms and the
    # differences themselves (relatively below g_{2D+8}, far under a half).
    # 4·D·_TINY covers underflow (at most half a subnormal per product).
    # An inf or NaN anywhere in a row's comparison makes it be redone.
    d = points.shape[1]
    c_sq = (centroids ** 2).sum(axis=1)
    # one row per centroid, so the reductions below run across rows
    d2 = centroids @ points.T
    d2 *= -2.0
    d2 += sq_norms
    d2 += c_sq[:, None]
    d2 -= d2.min(axis=0)
    gamma = (d + 2) * _EPS / (1 - (d + 2) * _EPS)
    margin = 4 * gamma * (np.sqrt(sq_norms) + np.sqrt(c_sq.max())) ** 2 + 4 * d * _TINY
    near = ~(d2 > margin)
    labels = near.argmax(axis=0)
    close = near.sum(axis=0) != 1
    if close.any():
        labels[close] = _pairwise_sq_dists(points[close], centroids).argmin(axis=1)
    # ((x - c)**2).sum() row by row: the exact form's operations, in its order
    diff = centroids[labels]
    np.subtract(points, diff, out=diff)
    np.square(diff, out=diff)
    return labels, diff.sum(axis=1)


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


# Lloyd's stopping rules: at most this many iterations, and the last one
# is the first that moves no centroid by ``KMEANS_TOL`` or more
KMEANS_MAX_ITER = 300
KMEANS_TOL = 1e-6


def kmeans(points, n_clusters: int, seed=0) -> KMeansResult:
    """Lloyd iterations from a k-means++ start, stopped by
    ``KMEANS_MAX_ITER`` and ``KMEANS_TOL``.

    Each point is assigned to its nearest centroid, ties going to the
    lowest index. The assignment takes one matrix product per iteration
    and redoes exactly only the rows that rounding could decide
    (``_nearest``), so labels, centroids, objective and trace are
    bitwise those of computing every point-centroid distance as
    ``((x - c)**2).sum()``, whatever order the BLAS sums in.

    The objective is non-increasing across iterations (``trace`` records
    it after each assignment step); an emptied cluster is repaired by
    reseating it on the point farthest from its centroid among clusters
    that keep at least one other member.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    n, k = points.shape[0], n_clusters
    check(n_clusters=k, n_samples=n)
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(points, k, rng)
    sq_norms = (points ** 2).sum(axis=1)
    trace: list[float] = []
    for _ in range(KMEANS_MAX_ITER):
        labels, assigned = _nearest(points, centroids, sq_norms)
        counts = np.bincount(labels, minlength=k)
        for j in np.flatnonzero(counts == 0):
            far = int(np.where(counts[labels] >= 2, assigned, -np.inf).argmax())
            counts[labels[far]] -= 1
            counts[j] = 1
            centroids[j] = points[far]
            labels[far] = j
            assigned[far] = 0.0
        trace.append(float(assigned.sum()))
        # rows grouped by cluster, each group in its original row order;
        # labels in the narrowest dtype let numpy radix-sort them
        order = np.argsort(labels.astype(np.min_scalar_type(k - 1)), kind="stable")
        grouped = points[order]
        ends = np.cumsum(counts)
        new_centroids = np.array([grouped[end - count:end].mean(axis=0)
                                  for count, end in zip(counts, ends)])
        shift = np.linalg.norm(new_centroids - centroids, axis=1).max()
        centroids = new_centroids
        if shift < KMEANS_TOL:
            break
    labels, assigned = _nearest(points, centroids, sq_norms)
    return KMeansResult(centroids, labels, float(assigned.sum()), trace)


def kmeans_best(points, n_clusters: int,
                n_restarts: int = ExperimentConfig.eval_restarts, seed=0
                ) -> tuple[KMeansResult, list[float]]:
    """Best of several seeded restarts (ties keep the earliest restart),
    plus every restart's final objective."""
    check(eval_restarts=n_restarts)
    seq = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    best = None
    objectives = []
    for child in seq.spawn(n_restarts):
        result = kmeans(points, n_clusters, child)
        objectives.append(result.objective)
        if best is None or result.objective < best.objective:
            best = result
    return best, objectives


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


def _max_matching_total(table: np.ndarray) -> int:
    """The largest total of a one-to-one matching of rows to columns of a
    square integer table.

    The Hungarian method with shortest augmenting paths and row/column
    potentials (Kuhn 1955; Jonker and Volgenant 1987), O(k³) with the scan
    over columns vectorised. Each row in turn is matched by a Dijkstra
    search over reduced costs, which the potentials keep nonnegative.
    Integer arithmetic keeps it exact, so the total, and ACC with it, is
    the same whichever of several optimal matchings is found.
    """
    k = table.shape[0]
    cost = -table
    u = np.zeros(k, dtype=np.int64)       # row potentials
    v = np.zeros(k, dtype=np.int64)       # column potentials
    row_of = np.full(k, -1)               # each column's matched row, -1 free
    unreached = np.iinfo(np.int64).max
    for i in range(k):
        dist = np.full(k, unreached)      # shortest reduced path to each column
        prev = np.full(k, -1)             # the column before it, -1 the start
        done = np.zeros(k, dtype=bool)    # columns whose distance is final
        i0, j0 = i, -1
        while True:
            reduced = cost[i0] - u[i0] - v
            closer = ~done & (reduced < dist)
            dist[closer] = reduced[closer]
            prev[closer] = j0
            j0 = int(np.where(done, unreached, dist).argmin())
            delta = dist[j0]
            u[i] += delta
            u[row_of[done]] += delta
            v[done] -= delta
            dist[~done] -= delta
            done[j0] = True
            if row_of[j0] < 0:
                break
            i0 = row_of[j0]
        while j0 >= 0:                    # flip the path's matches
            j1 = prev[j0]
            row_of[j0] = row_of[j1] if j1 >= 0 else i
            j0 = j1
    return int(table[row_of, np.arange(k)].sum())


def accuracy(true_labels, pred_labels) -> float:
    """Fraction matched under the best one-to-one cluster relabeling."""
    table = _contingency(true_labels, pred_labels)
    return float(_max_matching_total(table) / table.sum())


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

    Raises ConfigError naming ``eval_views`` for an empty list or a view
    out of range.
    """
    check(eval_views=view_subset)
    if view_subset is None:
        return list(range(n_views))
    views = sorted(view_subset)
    for v in views:
        if not 0 <= v < n_views:
            raise ConfigError(
                f"eval_views: view {v} out of range for a {n_views}-view dataset")
    return views


def evaluate_global(params: ModelParams, dataset: MultiViewDataset,
                    config: ExperimentConfig, seed) -> MetricsReport:
    """Cluster the model's fused features over the whole pool.

    The evaluation settings are the config's: ``standardize``,
    ``eval_views`` (all views when None: evaluation is an offline
    measurement, so every sample is rendered with its full view set) and
    ``eval_restarts``, the number of :func:`kmeans` restarts, which spawn
    from ``seed``. Unlabeled datasets yield a report with only the k-means
    objective.
    """
    work = dataset.standardized() if config.standardize else dataset
    views = eval_view_order(config.eval_views, work.n_views)
    fused = infer_fused(params, {v: work.views[v] for v in views})
    best, objectives = kmeans_best(fused, work.n_clusters, config.eval_restarts, seed)
    if work.labels is None:
        return MetricsReport(None, None, None, best.objective, tuple(objectives))
    return MetricsReport(
        acc=accuracy(work.labels, best.labels),
        nmi=normalized_mutual_info(work.labels, best.labels),
        ari=adjusted_rand_index(work.labels, best.labels),
        kmeans_objective=best.objective,
        restart_objectives=tuple(objectives),
    )
