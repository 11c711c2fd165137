"""The benchmark's output checks accept true outputs and reject doctored ones."""

import numpy as np
import pytest

from perfbench import checks
from perfbench.tracer import Tracer


def blobs(seed=0, n=60, k=3):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(k), n // k)
    centroids = rng.standard_normal((k, 4)) * 10
    points = centroids[labels] + rng.standard_normal((labels.size, 4))
    centroids = np.array([points[labels == j].mean(axis=0) for j in range(k)])
    return points, labels, centroids


def reported_for(points, labels, centroids, true_labels):
    d2 = ((points[:, None, :] - centroids[None]) ** 2).sum(axis=2)
    return {"acc": checks.brute_force_acc(true_labels, labels),
            "nmi": checks.plain_nmi(true_labels, labels),
            "ari": checks.plain_ari(true_labels, labels),
            "kmeans_objective": float(d2.min(axis=1).sum())}


class TestMetrics:
    def test_permuted_labelling_is_perfect(self):
        true = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([2, 2, 0, 0, 1, 1])
        assert checks.brute_force_acc(true, pred) == 1.0
        assert checks.plain_nmi(true, pred) == pytest.approx(1.0)
        assert checks.plain_ari(true, pred) == pytest.approx(1.0)

    def test_known_values(self):
        true = np.array([0, 0, 1, 1])
        pred = np.array([0, 1, 0, 1])
        assert checks.brute_force_acc(true, pred) == 0.5
        assert checks.plain_nmi(true, pred) == pytest.approx(0.0, abs=1e-15)
        assert checks.plain_ari(true, pred) == pytest.approx(-0.5)

    def test_constant_labelings(self):
        ones = np.zeros(5, dtype=int)
        assert checks.plain_nmi(ones, ones) == 1.0
        assert checks.plain_nmi(ones, np.arange(5)) == 0.0


class TestClustering:
    def test_true_output_passes(self):
        points, labels, centroids = blobs()
        true = (labels + 1) % 3
        reported = reported_for(points, labels, centroids, true)
        assert checks.check_clustering(points, labels, centroids, true, reported) == []

    def test_permuted_labelling_with_wrong_acc_is_rejected(self):
        points, labels, centroids = blobs()
        true = (labels + 1) % 3
        reported = reported_for(points, labels, centroids, true)
        reported["acc"] = 0.0  # agreement before the best relabeling
        failures = checks.check_clustering(points, labels, centroids, true, reported)
        assert len(failures) == 1 and failures[0].startswith("acc")

    @pytest.mark.parametrize("name", ["nmi", "ari", "kmeans_objective"])
    def test_wrong_reported_value_is_rejected(self, name):
        points, labels, centroids = blobs()
        reported = reported_for(points, labels, centroids, labels)
        reported[name] *= 1 + 1e-6
        failures = checks.check_clustering(points, labels, centroids, labels, reported)
        assert len(failures) == 1 and name in failures[0]

    def test_label_off_its_nearest_centroid_is_rejected(self):
        points, labels, centroids = blobs()
        moved = labels.copy()
        moved[0] = (moved[0] + 1) % 3
        reported = reported_for(points, labels, centroids, labels)
        failures = checks.check_clustering(points, moved, centroids, labels, reported)
        assert any("nearest centroid" in f for f in failures)

    def test_final_quality_floor(self):
        assert checks.check_final_quality(0.95) == []
        assert checks.check_final_quality(0.85) != []
        assert checks.check_final_quality(float("nan")) != []


class TestPartition:
    def test_disjoint_cover_passes(self):
        assert checks.check_partition([[0, 3], [1], [2, 4]], 5) == []

    def test_overlapping_partition_is_rejected(self):
        failures = checks.check_partition([[0, 1, 3], [1], [2, 4]], 5)
        assert failures == ["1 samples sit in more than one shard"]

    def test_missing_sample_is_rejected(self):
        assert checks.check_partition([[0, 3], [2, 4]], 5) == ["1 samples sit in no shard"]

    def test_out_of_range_index_is_rejected(self):
        assert checks.check_partition([[0, 1, 2], [3, 4, 5]], 5) != []


def random_model(rng, n_views=3):
    return {"views": [[rng.standard_normal((3, 2)), rng.standard_normal((1, 2))]
                      for _ in range(n_views)],
            "shared": [rng.standard_normal((2, 4)), rng.standard_normal((1, 4))]}


class TestAggregate:
    subsets = [(0, 1, 2), (0, 1), (1,)]
    sizes = [10, 30, 20]

    def setup_method(self):
        rng = np.random.default_rng(7)
        self.prev = random_model(rng)
        self.clients = [random_model(rng) for _ in self.subsets]
        self.result, self.weights = checks.reference_aggregate(
            self.prev, self.clients, self.subsets, self.sizes)

    def check(self, result=None, weights=None):
        return checks.check_aggregate(
            self.prev, self.clients, self.subsets, self.sizes,
            self.weights if weights is None else weights,
            self.result if result is None else result)

    def test_weights_are_coverage_times_samples(self):
        raw = np.array([1.0 * 10, 2 / 3 * 30, 1 / 3 * 20])
        np.testing.assert_allclose(self.weights, raw / raw.sum())

    def test_view_average_renormalises_over_owners(self):
        w0 = np.array([10.0, 20.0]) / 30.0  # view 0 is owned by clients 0 and 1
        want = w0[0] * self.clients[0]["views"][0][0] + w0[1] * self.clients[1]["views"][0][0]
        np.testing.assert_allclose(self.result["views"][0][0], want)

    def test_reference_passes(self):
        assert self.check() == []

    def test_perturbed_aggregate_is_rejected(self):
        doctored = {"views": [[a.copy() for a in v] for v in self.result["views"]],
                    "shared": [a.copy() for a in self.result["shared"]]}
        doctored["shared"][0][1, 2] += 1e-6
        assert self.check(result=doctored) == [
            "aggregate of shared nets, array 0, differs from the recomputed weighted mean"]

    def test_uniform_weights_are_rejected(self):
        assert len(self.check(weights=np.full(3, 1 / 3))) == 1

    def test_unowned_view_keeps_previous_value(self):
        subsets = [(0, 1), (1,), (0,)]
        result, weights = checks.reference_aggregate(
            self.prev, self.clients, subsets, self.sizes)
        for got, prev in zip(result["views"][2], self.prev["views"][2]):
            np.testing.assert_array_equal(got, prev)
        result["views"][2][0] = self.clients[0]["views"][2][0]
        failures = checks.check_aggregate(self.prev, self.clients, subsets, self.sizes,
                                          weights, result)
        assert failures == [
            "aggregate of view 2, array 0, differs from the recomputed weighted mean"]


def test_self_time_excludes_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    outer()
    assert tracer.self_times() == {"outer": 8.0, "inner": 2.0}
    assert tracer.calls() == {"outer": 1, "inner": 1}
