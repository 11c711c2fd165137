"""Final clustering and metrics: k-means on fused features, ACC/NMI/ARI."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import ExperimentConfig, check
from .data import MultiViewDataset
from .errors import ConfigError, DimensionError, NonFiniteError
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


def _margin(norms: np.ndarray, c_norm, d: int) -> np.ndarray:
    """At least twice the sum of four rounding errors, each of the GEMM form
    ‖x‖² − 2·x·c + ‖c‖² or of the exact form ``((x - c)**2).sum()`` of a
    squared distance, for rows of norm ``norms``, centroids of norm at most
    ``c_norm`` and ``d`` features."""
    # With u = eps/2 the unit roundoff and g_n = n·u/(1 − n·u):
    #  * GEMM form: ‖x‖², x·c and ‖c‖² are dot products of length D, each
    #    within g_D of the sum of its terms' magnitudes in any summation
    #    order, with or without FMA; two more additions make the error at
    #    most g_{D+2}·(‖x‖² + 2‖x‖‖c‖ + ‖c‖²) = g_{D+2}·(‖x‖ + ‖c‖)².
    #  * Exact form: a subtraction and a square per term, then D − 1
    #    additions: at most g_{D+2}·‖x − c‖² ≤ g_{D+2}·(‖x‖ + ‖c‖)².
    # The margin is 4·gamma·(‖x‖ + max‖c‖)², four such errors; `gamma` uses
    # eps in place of u, so it is at least twice their sum. That covers the
    # rounding of the margin, the norms and the differences themselves
    # (relatively below g_{2D+8}, far under a half). 4·D·_TINY covers
    # underflow (at most half a subnormal per product).
    gamma = (d + 2) * _EPS / (1 - (d + 2) * _EPS)
    return 4 * gamma * (norms + c_norm) ** 2 + 4 * d * _TINY


def _nearest(points: np.ndarray, centroids: np.ndarray,
             sq_norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nearest centroid, ties to the lowest index, and its
    squared distance to it.

    The labels are bitwise the argmin of
    ``_pairwise_sq_dists(points, centroids)``, at the cost of one matrix
    product. The distance is the GEMM form's, clipped at 0, except on the
    rows redone with the exact form, where it is the exact value.
    ``points`` is C-contiguous; ``sq_norms`` is ``(points ** 2).sum(axis=1)``.
    """
    # Labels come from the GEMM form. If the exact form ranks some centroid
    # at or before the GEMM argmin, their GEMM values differ by at most two
    # GEMM and two exact-form errors, within `_margin`. A row with a single
    # centroid within that margin of its best therefore has the exact
    # form's label, whatever order BLAS used; every other row is redone
    # with the exact form. An inf or NaN anywhere in a row's comparison
    # makes it be redone.
    c_sq = (centroids ** 2).sum(axis=1)
    # one row per centroid, so the reductions below run across rows
    d2 = centroids @ points.T
    d2 *= -2.0
    d2 += sq_norms
    d2 += c_sq[:, None]
    dists = d2.min(axis=0)
    d2 -= dists
    np.maximum(dists, 0.0, out=dists)
    margin = _margin(np.sqrt(sq_norms), np.sqrt(c_sq.max()), points.shape[1])
    near = ~(d2 > margin)
    labels = near.argmax(axis=0)
    close = near.sum(axis=0) != 1
    if close.any():
        exact = _pairwise_sq_dists(points[close], centroids)
        labels[close] = exact.argmin(axis=1)
        dists[close] = exact.min(axis=1)
    return labels, dists


def _exact_sq_dists(points: np.ndarray, centroids: np.ndarray,
                    labels: np.ndarray) -> np.ndarray:
    """``((x - c)**2).sum()`` for each row ``x`` of ``points`` and its
    centroid ``c = centroids[labels]``: the exact form's operations, in its
    order, so each value is bitwise the one ``_pairwise_sq_dists`` gives."""
    diff = centroids[labels]
    np.subtract(points, diff, out=diff)
    np.square(diff, out=diff)
    return diff.sum(axis=1)


def _finite_sq_norms(points: np.ndarray) -> np.ndarray:
    """``(points ** 2).sum(axis=1)``, once every row's ``8·N·‖x‖²`` is known
    to be finite for N rows. ``4·max‖x‖²`` bounds the squared distance
    between any two points and their means, in the exact form and in each
    term of the GEMM form ``‖x‖² − 2·x·c + ‖c‖²``, so N times it bounds
    every sum k-means takes (the seeding's total, the trace and the
    objective), and the factor 2 more covers their rounding.

    Raises NonFiniteError naming the first row that fails.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sq_norms = (points ** 2).sum(axis=1)
        bad = np.flatnonzero(~np.isfinite(8 * len(points) * sq_norms))
    if bad.size:
        raise NonFiniteError(
            f"k-means points: row {bad[0]} of {len(points)} has squared norm "
            f"{float(sq_norms[bad[0]])}; every row needs a finite 8·N·‖x‖²")
    return sq_norms


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator,
                   sq_norms: np.ndarray) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii, SODA 2007): each next
    centre is a row drawn with probability proportional to its exact
    squared distance to the nearest centre so far.

    After the first centre, a row's exact distance to a new centre is taken
    only where the GEMM form cannot show it to be no nearer than the
    current one; ``np.minimum`` keeps the current value elsewhere, so the
    distances, the draws and the centres are bitwise those of an exact pass
    over every row.
    """
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    norms = np.sqrt(sq_norms)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centroids[j] = points[idx]
        if j == k - 1:
            break
        # the GEMM form minus its margin is a lower bound on the exact
        # distance; rows it cannot place at or beyond d2 (NaN included)
        # are the ones the new centre may be nearer to
        bound = points @ centroids[j]
        bound *= -2.0
        bound += sq_norms
        bound += sq_norms[idx]
        bound -= _margin(norms, norms[idx], points.shape[1])
        redo = np.flatnonzero(~(bound >= d2))
        d2[redo] = np.minimum(d2[redo], ((points[redo] - centroids[j]) ** 2).sum(axis=1))
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
    (``_nearest``), so labels, centroids and objective are bitwise those
    of computing every point-centroid distance as ``((x - c)**2).sum()``,
    whatever order the BLAS sums in. The objective is one exact pass over
    the final assignment.

    Each iteration computes only what can change. A cluster whose member
    list is the same as in the last update sums the same rows in the same
    order, so its mean keeps its bits and is not recomputed; each changed
    cluster's mean is ``np.add.reduce`` of its rows in row order over the
    count, bitwise ``mean(axis=0)``. An iteration that moves no centroid
    and reseats none ends the run with its own labels, which another
    assignment pass would repeat bit for bit.

    ``trace`` records the objective after each assignment step, as that
    step measured it: the GEMM form's distances, exact on the rows
    ``_nearest`` redoes and in an iteration that reseats. It is
    non-increasing up to rounding. An emptied cluster is repaired by
    reseating it on the point farthest from its centroid, by exact
    distance, among clusters that keep at least one other member.

    Raises DimensionError when ``points`` is not a 2-D matrix, and
    NonFiniteError when some point's ``8·N·‖x‖²`` is not finite, for N
    points.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise DimensionError(
            f"k-means points must be a 2-D matrix, got shape {points.shape}")
    n, k = points.shape[0], n_clusters
    check(n_clusters=k, n_samples=n)
    sq_norms = _finite_sq_norms(points)
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(points, k, rng, sq_norms)
    # Before the first step every mean is stale (the k-means++ centres are
    # no cluster's mean), so the placeholder labels are all replaced.
    labels = np.zeros(n, dtype=np.intp)
    stale = np.ones(k, dtype=bool)
    trace: list[float] = []
    for _ in range(KMEANS_MAX_ITER):
        prev, (labels, dists) = labels, _nearest(points, centroids, sq_norms)
        counts = np.bincount(labels, minlength=k)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            dists = _exact_sq_dists(points, centroids, labels)
        for j in empty:
            far = int(np.where(counts[labels] >= 2, dists, -np.inf).argmax())
            counts[labels[far]] -= 1
            counts[j] = 1
            centroids[j] = points[far]
            labels[far] = j
            dists[far] = 0.0
        trace.append(float(dists.sum()))
        # a cluster that a row left or joined gets a new mean
        left = labels != prev
        stale[labels[left]] = True
        stale[prev[left]] = True
        new_centroids = centroids.copy()
        for j in np.flatnonzero(stale):
            new_centroids[j] = np.add.reduce(points[labels == j], axis=0) / counts[j]
        stale[:] = False
        shift = np.linalg.norm(new_centroids - centroids, axis=1).max()
        moved = (new_centroids != centroids).any()
        centroids = new_centroids
        if shift < KMEANS_TOL:
            break
    if moved or empty.size:
        labels, _ = _nearest(points, centroids, sq_norms)
    objective = float(_exact_sq_dists(points, centroids, labels).sum())
    return KMeansResult(centroids, labels, objective, trace)


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
    # features that overflow are reported once, by kmeans' NonFiniteError
    with np.errstate(over="ignore", invalid="ignore"):
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
