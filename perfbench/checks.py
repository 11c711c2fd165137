"""Output checks that do not trust fedmvc.

Every function here recomputes a result in plain numpy, from the inputs the
program was handed, and returns a list of human-readable failures (empty
when the output holds up). Nothing in this module imports fedmvc, so a
fault in the program's own metric or aggregation code cannot hide itself.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Recomputed floats must match the program's to this relative tolerance.
# The recomputation sums in a different order, so it cannot be bit-equal;
# any real fault moves a value far more than this.
RTOL = 1e-9
# The separable blobs of every workload must cluster at least this well.
MIN_ACC = 0.90
# Brute-force ACC enumerates k! relabelings.
MAX_BRUTE_FORCE_K = 9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(1.0, abs(a), abs(b))


def _counts(true_labels, pred_labels) -> np.ndarray:
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(pred_labels, dtype=np.int64)
    if t.shape != p.shape or t.ndim != 1 or t.size == 0:
        raise ValueError("labelings must be non-empty 1-D arrays of equal length")
    k = int(max(t.max(), p.max())) + 1
    table = np.zeros((k, k), dtype=np.int64)
    for i, j in zip(t.tolist(), p.tolist()):
        table[i, j] += 1
    return table


def brute_force_acc(true_labels, pred_labels) -> float:
    """Best matched fraction over every one-to-one relabeling."""
    table = _counts(true_labels, pred_labels)
    k = table.shape[0]
    if k > MAX_BRUTE_FORCE_K:
        raise ValueError(f"brute-force ACC is limited to {MAX_BRUTE_FORCE_K} labels")
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.int64)
    matched = table[np.arange(k), perms].sum(axis=1).max()
    return float(matched) / float(table.sum())


def _entropy(counts: np.ndarray, n: int) -> float:
    return -sum((c / n) * math.log(c / n) for c in counts.tolist() if c > 0)


def plain_nmi(true_labels, pred_labels) -> float:
    """Mutual information over the geometric mean of the two entropies."""
    table = _counts(true_labels, pred_labels)
    n = int(table.sum())
    rows, cols = table.sum(axis=1), table.sum(axis=0)
    h_t, h_p = _entropy(rows, n), _entropy(cols, n)
    if h_t == 0.0 and h_p == 0.0:
        return 1.0
    if h_t == 0.0 or h_p == 0.0:
        return 0.0
    mi = 0.0
    for (i, j), c in np.ndenumerate(table):
        if c > 0:
            mi += (c / n) * math.log(c * n / (rows[i] * cols[j]))
    return min(max(mi / math.sqrt(h_t * h_p), 0.0), 1.0)


def plain_ari(true_labels, pred_labels) -> float:
    """Hubert-Arabie adjusted Rand index from pair counts."""
    table = _counts(true_labels, pred_labels)

    def pairs(values) -> int:
        return sum(int(v) * (int(v) - 1) // 2 for v in np.ravel(values))

    index = pairs(table)
    a, b = pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    total = pairs([table.sum()])
    expected = a * b / total if total else 0.0
    top = (a + b) / 2.0
    if top == expected:
        return 1.0
    return (index - expected) / (top - expected)


def check_clustering(points, labels, centroids, true_labels, reported) -> list[str]:
    """Check one evaluation.

    ``labels`` and ``centroids`` are the best k-means restart; ``reported``
    maps acc, nmi, ari and kmeans_objective to the values the program
    reported for it.
    """
    failures = []
    points = np.asarray(points, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    d2 = np.stack([((points - c) ** 2).sum(axis=1) for c in centroids], axis=1)
    nearest = d2.min(axis=1)
    own = d2[np.arange(labels.size), labels]
    worse = np.flatnonzero(own > nearest + RTOL * (1.0 + nearest))
    if worse.size:
        failures.append(f"{worse.size} labels are not the nearest centroid "
                        f"(first at row {worse[0]})")
    objective = float(nearest.sum())
    if not _close(objective, reported["kmeans_objective"]):
        failures.append(f"kmeans_objective {reported['kmeans_objective']!r} != "
                        f"recomputed {objective!r}")
    for name, fn in (("acc", brute_force_acc), ("nmi", plain_nmi), ("ari", plain_ari)):
        value = fn(true_labels, labels)
        if not _close(value, reported[name]):
            failures.append(f"{name} {reported[name]!r} != recomputed {value!r}")
    return failures


def check_final_quality(acc: float) -> list[str]:
    if not acc >= MIN_ACC:
        return [f"final ACC {acc!r} is below {MIN_ACC} on separable blobs"]
    return []


def check_partition(index_sets, n_samples: int) -> list[str]:
    """Client shards must be disjoint and together cover every sample."""
    seen = np.zeros(n_samples, dtype=np.int64)
    for idx in index_sets:
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= n_samples):
            return [f"a shard holds indices outside [0, {n_samples})"]
        np.add.at(seen, idx, 1)
    failures = []
    if (seen > 1).any():
        failures.append(f"{int((seen > 1).sum())} samples sit in more than one shard")
    if (seen == 0).any():
        failures.append(f"{int((seen == 0).sum())} samples sit in no shard")
    return failures


def reference_aggregate(prev, clients, view_subsets, n_samples):
    """The balanced aggregate, recomputed from its definition.

    A model is a dict with ``views`` (one list of arrays per view: encoder
    then decoder) and ``shared`` (feature net and cluster head). Client i
    weighs coverage x samples, ``len(view_subsets[i]) / V * n_samples[i]``.
    Shared arrays average over every client; a view's arrays average over
    the clients that own it with their weights renormalised; a view owned by
    nobody keeps ``prev``. Returns the model and the normalised weights.
    """
    n_views = len(prev["views"])
    raw = np.array([len(s) / n_views * n for s, n in zip(view_subsets, n_samples)])
    weights = raw / raw.sum()

    def mix(arrays_per_client, w):
        return [sum(wi * arrays[j] for wi, arrays in zip(w, arrays_per_client))
                for j in range(len(arrays_per_client[0]))]

    views = []
    for v in range(n_views):
        owners = [i for i, s in enumerate(view_subsets) if v in s]
        if not owners:
            views.append([a.copy() for a in prev["views"][v]])
            continue
        w = raw[owners] / raw[owners].sum()
        views.append(mix([clients[i]["views"][v] for i in owners], w))
    shared = mix([c["shared"] for c in clients], weights)
    return {"views": views, "shared": shared}, weights


def check_aggregate(prev, clients, view_subsets, n_samples, weights, result) -> list[str]:
    """Compare the program's aggregate and weights with the reference."""
    expected, expected_w = reference_aggregate(prev, clients, view_subsets, n_samples)
    failures = []
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != expected_w.shape or not np.allclose(
            weights, expected_w, rtol=RTOL, atol=0.0):
        failures.append(f"aggregation weights {weights.tolist()} != "
                        f"coverage x samples {expected_w.tolist()}")
    parts = [(f"view {v}", expected["views"][v], result["views"][v])
             for v in range(len(expected["views"]))]
    parts.append(("shared nets", expected["shared"], result["shared"]))
    for name, want, got in parts:
        for j, (a, b) in enumerate(zip(want, got)):
            scale = max(1.0, float(np.abs(a).max(initial=0.0)))
            if a.shape != b.shape or not np.allclose(a, b, rtol=0.0, atol=RTOL * scale):
                failures.append(f"aggregate of {name}, array {j}, differs from "
                                "the recomputed weighted mean")
    return failures
