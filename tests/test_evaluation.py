"""k-means, nearest-centroid assignment, and metric oracles."""

import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import kmeans_reference, kmeanspp_init_reference, pairwise_sq_dists_reference
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedmvc import evaluation
from fedmvc.config import ExperimentConfig
from fedmvc.data import generate_blobs
from fedmvc.errors import ConfigError, DimensionError, NonFiniteError
from fedmvc.evaluation import (
    accuracy,
    adjusted_rand_index,
    evaluate_global,
    kmeans,
    kmeans_best,
    normalized_mutual_info,
)
from fedmvc.model import Architecture, init_params


def nearest(points, centroids):
    """Each row's nearest centroid and its squared distance to it, from
    ``evaluation._nearest`` and ``_exact_sq_dists``, the assignment k-means
    uses."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    labels, _ = evaluation._nearest(points, centroids, (points ** 2).sum(axis=1))
    return labels, evaluation._exact_sq_dists(points, centroids, labels)


def partition_objective(points, labels, k):
    total = 0.0
    for j in range(k):
        members = points[labels == j]
        if members.size:
            total += ((members - members.mean(axis=0)) ** 2).sum()
    return total


def exhaustive_best_objective(points, k=2):
    """Global two-cluster optimum by enumerating every assignment."""
    n = points.shape[0]
    best = np.inf
    for bits in itertools.product((0, 1), repeat=n):
        labels = np.array(bits)
        if labels.min() == labels.max():
            continue  # an empty cluster never beats using both
        best = min(best, partition_objective(points, labels, k))
    return best


class TestKMeans:
    def test_n_equals_k_zero_objective(self):
        points = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        result = kmeans(points, 3, seed=0)
        assert result.objective == pytest.approx(0.0, abs=1e-20)
        assert sorted(result.labels.tolist()) == [0, 1, 2]

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            points = rng.standard_normal((40, 3))
            result = kmeans(points, 4, seed=trial)
            trace = np.array(result.trace)
            assert (np.diff(trace) <= 1e-9).all()

    def test_restarts_match_exhaustive_optimum(self):
        # two 6-sigma-separated blobs of four points each: the enumerated
        # global optimum is reliably inside the restarts' reach
        offset = np.where(np.arange(8)[:, None] < 4, [3.0, 0.0], [-3.0, 0.0])
        for trial in range(10):
            points = np.random.default_rng(trial).standard_normal((8, 2)) + offset
            best, _ = kmeans_best(points, 2, n_restarts=10, seed=trial)
            oracle = exhaustive_best_objective(points)
            assert best.objective == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("shape", [(5,), (5, 2, 2)])
    def test_points_not_a_matrix(self, shape):
        with pytest.raises(DimensionError, match=r"2-D matrix, got shape \(5,"):
            kmeans(np.zeros(shape), 2)

    def test_too_few_points(self):
        with pytest.raises(ConfigError):
            kmeans(np.zeros((2, 2)), 3)

    @pytest.mark.parametrize("k", [0, -1])
    def test_nonpositive_cluster_count(self, k):
        with pytest.raises(ConfigError, match="n_clusters"):
            kmeans(np.zeros((5, 2)), k)

    def test_reseat_never_empties_a_singleton(self):
        # every point ties, so each empty cluster is reseated; a reseat
        # must not take the only point of a cluster reseated before it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = kmeans(np.ones((5, 2)), 3)
        assert result.trace == [0.0]
        assert np.array_equal(result.centroids, np.ones((3, 2)))

    def test_fixed_point_consistency(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((50, 4))
        result = kmeans(points, 3, seed=7)
        assert np.array_equal(nearest(points, result.centroids)[0], result.labels)

    def test_ties_keep_earliest_restart(self):
        points = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        best, objectives = kmeans_best(points, 2, n_restarts=5, seed=0)
        assert best.objective == pytest.approx(min(objectives))


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=np.float64).tobytes() == \
        np.asarray(b, dtype=np.float64).tobytes()


@st.composite
def point_sets(draw):
    """Points that make near-ties: random, duplicated, or mirrored on a grid.

    The grid rows come in mirror pairs across x0 = 0, with some rows on
    that plane, so centroids at mirrored points leave rows on their
    bisector. Scales of 2**-540 and 2**500 push the squares into the
    subnormal range and near the top of the float range.
    """
    k = draw(st.integers(1, 8))
    d = draw(st.integers(1, 64))
    n = draw(st.integers(k, 40))
    kind = draw(st.sampled_from(["random", "duplicated", "bisector"]))
    scale = draw(st.sampled_from([2.0 ** -540, 1.0, 2.0 ** 500]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "random":
        points = rng.standard_normal((n, d))
    elif kind == "duplicated":
        distinct = rng.standard_normal((draw(st.integers(1, n)), d))
        points = distinct[rng.integers(0, len(distinct), n)]
    else:
        points = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
        points[1::2] = points[0::2][: n // 2]
        points[1::2, 0] *= -1
        points[::3, 0] = 0.0
    return points * scale, k, draw(st.integers(0, 2 ** 16))


class TestCertifiedAssignment:
    @settings(max_examples=200, deadline=None)
    @given(point_sets())
    def test_kmeans_bitwise_equals_reference(self, case):
        points, k, seed = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kmeans(points, k, seed=seed)
        want = kmeans_reference(points, k, seed=seed)
        assert np.array_equal(got.labels, want.labels)
        assert same_bits(got.centroids, want.centroids)
        assert same_bits(got.objective, want.objective)
        assert len(got.trace) == len(want.trace)
        assert np.isfinite(got.centroids).all()

    @settings(max_examples=200, deadline=None)
    @given(point_sets())
    def test_labels_and_distances_match_exact_form(self, case):
        points, k, seed = case
        rng = np.random.default_rng(seed)
        centroids = points[rng.choice(len(points), size=k, replace=False)]
        # midpoints of centroid pairs lie on (or next to) their bisector
        pairs = rng.integers(0, k, size=(len(points), 2))
        probes = np.concatenate(
            [points, (centroids[pairs[:, 0]] + centroids[pairs[:, 1]]) / 2])
        exact = pairwise_sq_dists_reference(probes, centroids)
        labels, dists = nearest(probes, centroids)
        assert np.array_equal(labels, exact.argmin(axis=1))
        assert same_bits(dists, exact.min(axis=1))
        # the distance the label step measured is the exact one within the
        # margin that certifies the label, and never negative
        sq_norms = (probes ** 2).sum(axis=1)
        _, measured = evaluation._nearest(probes, centroids, sq_norms)
        margin = evaluation._margin(np.sqrt(sq_norms),
                                    np.sqrt((centroids ** 2).sum(axis=1).max()),
                                    probes.shape[1])
        assert (measured >= 0).all()
        assert (np.abs(measured - exact.min(axis=1)) <= margin).all()

    def test_rows_on_a_bisector_are_rechecked_exactly(self, monkeypatch):
        rechecked = []
        exact_form = evaluation._pairwise_sq_dists

        def spy(points, centroids):
            rechecked.append(points.copy())
            return exact_form(points, centroids)

        monkeypatch.setattr(evaluation, "_pairwise_sq_dists", spy)
        centroids = np.array([[-1.0, 0.3], [1.0, 0.3]])
        bisector = np.array([[0.0, -2.5], [0.0, 0.1], [0.0, 7.0]])
        points = np.concatenate([bisector, [[-4.0, 0.0], [3.0, 1.0]]])
        assert nearest(points, centroids)[0].tolist() == [0, 0, 0, 0, 1]
        assert len(rechecked) == 1
        assert np.array_equal(rechecked[0], bisector)

    def test_redone_rows_carry_their_exact_distance(self):
        # far from the origin the GEMM form cancels: every row is within the
        # margin of its second centroid, so it is redone, and the distance
        # returned with its label is the exact form's
        centroids = np.array([[-1.0, 0.3], [1.0, 0.3]]) + 1e8
        points = np.array([[0.0, -2.5], [0.1, 7.0], [-4.0, 0.0], [3.0, 1.0]]) + 1e8
        labels, dists = evaluation._nearest(points, centroids, (points ** 2).sum(axis=1))
        exact = pairwise_sq_dists_reference(points, centroids)
        assert np.array_equal(labels, exact.argmin(axis=1))
        assert same_bits(dists, exact.min(axis=1))

    def test_underflowing_distances(self):
        # the squares fall into the subnormal range, where rounding error is
        # absolute; the margin's absolute term sends such rows to the exact form
        unit = 2.0 ** -539
        points = np.array([[1.0], [2.0], [6.0], [-2.0]]) * unit
        centroids = np.array([[8.0], [4.0]]) * unit
        exact = pairwise_sq_dists_reference(points, centroids)
        assert np.array_equal(nearest(points, centroids)[0], exact.argmin(axis=1))


class TestKMeansPlusPlus:
    @settings(max_examples=200, deadline=None)
    @given(point_sets())
    def test_pruned_seeding_equals_exact_passes(self, case):
        # the GEMM bound skips rows; the centres and the draws must not move
        points, k, seed = case
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = evaluation._kmeanspp_init(points, k, rng, (points ** 2).sum(axis=1))
        assert same_bits(got, kmeanspp_init_reference(points, k, rng_ref))
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    def test_near_ties_keep_the_distance_bits(self):
        # A row at equal distance from two centres in real arithmetic, whose
        # computed distances differ by rounding: the GEMM form may put the
        # new centre no nearer while the exact form puts it one ulp nearer.
        # Each draw's probabilities carry the distances' bits.
        class ScriptedDraws:
            """Row 0 first, then the scripted rows; keeps every p."""

            def __init__(self):
                self.rows, self.p = iter([1, 2, 3]), []

            def integers(self, n):
                return 0

            def choice(self, n, p):
                self.p.append(p.copy())
                return next(self.rows)

        rng = np.random.default_rng(0)
        for _ in range(100):
            d = int(rng.integers(3, 40))
            base = 10 * rng.standard_normal(d)
            delta = rng.standard_normal(d)
            points = np.vstack([base + delta, base + delta[rng.permutation(d)], base,
                                base + 1e-9 * rng.standard_normal((3, d))])
            got, want = ScriptedDraws(), ScriptedDraws()
            evaluation._kmeanspp_init(points, 4, got, (points ** 2).sum(axis=1))
            kmeanspp_init_reference(points, 4, want)
            assert same_bits(got.p, want.p)


def blobs(seed, per=10, k=3):
    rng = np.random.default_rng(seed)
    centres = np.repeat(rng.normal(0.0, 4.0, (k, 2)), per, axis=0)
    return rng.standard_normal((per * k, 2)) + centres


class TestIncrementalLloyd:
    def test_reseat_in_a_later_iteration_matches_reference(self):
        points = np.array([[-3.0, -3.0], [-3.0, 3.0], [4.0, 3.0], [1.0, -2.0],
                           [-4.0, 4.0], [1.0, 4.0], [2.0, -3.0], [-4.0, -1.0],
                           [0.0, -4.0], [1.0, -3.0]])
        reseats = []
        want = kmeans_reference(points, 5, seed=23705, reseats=reseats)
        assert reseats and min(it for it, _ in reseats) >= 1
        got = kmeans(points, 5, seed=23705)
        assert np.array_equal(got.labels, want.labels)
        assert same_bits(got.centroids, want.centroids)
        assert same_bits(got.objective, want.objective)
        assert len(got.trace) == len(want.trace)

    def test_exact_pass_runs_once_plus_once_per_reseat(self, monkeypatch):
        # the exact distances feed only the farthest-point choice and the
        # final objective; the trace takes the label step's own
        calls = []
        exact = evaluation._exact_sq_dists

        def spy(points, centroids, labels):
            calls.append(labels.copy())
            return exact(points, centroids, labels)

        monkeypatch.setattr(evaluation, "_exact_sq_dists", spy)
        points = np.array([[-3.0, -3.0], [-3.0, 3.0], [4.0, 3.0], [1.0, -2.0],
                           [-4.0, 4.0], [1.0, 4.0], [2.0, -3.0], [-4.0, -1.0],
                           [0.0, -4.0], [1.0, -3.0]])
        reseats = []
        kmeans_reference(points, 5, seed=23705, reseats=reseats)
        result = kmeans(points, 5, seed=23705)
        assert len(calls) == 1 + len({it for it, _ in reseats})
        assert np.array_equal(calls[-1], result.labels)
        calls.clear()
        result = kmeans(blobs(0), 3, seed=0)
        assert len(calls) == 1 and len(result.trace) >= 3

    def test_fixed_start_takes_one_pass(self, monkeypatch):
        calls = []
        exact = evaluation._exact_sq_dists

        def spy(points, centroids, labels):
            calls.append(labels.copy())
            return exact(points, centroids, labels)

        monkeypatch.setattr(evaluation, "_exact_sq_dists", spy)
        result = kmeans(np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]]), 3, seed=0)
        assert result.trace == [0.0] and result.objective == 0.0
        assert len(calls) == 1

    @pytest.mark.parametrize("restarts", [1, 4])
    def test_kmeans_best_runs_kmeans_once_per_restart(self, monkeypatch, restarts):
        seeds = []
        run = evaluation.kmeans

        def spy(points, n_clusters, seed):
            seeds.append(seed)
            return run(points, n_clusters, seed)

        monkeypatch.setattr(evaluation, "kmeans", spy)
        best, objectives = kmeans_best(blobs(1), 3, n_restarts=restarts, seed=5)
        assert len(seeds) == len(objectives) == restarts
        assert best.objective == min(objectives)


class TestPointsCheckedOnce:
    def test_kmeans_best_checks_its_points_once(self, monkeypatch):
        calls = []
        norms = evaluation._finite_sq_norms

        def spy(points):
            calls.append(points)
            return norms(points)

        monkeypatch.setattr(evaluation, "_finite_sq_norms", spy)
        points = blobs(3).tolist()
        best, objectives = kmeans_best(points, 3, n_restarts=5, seed=9)
        assert len(calls) == 1 and len(objectives) == 5
        children = np.random.SeedSequence(9).spawn(5)
        restarts = [kmeans(np.array(points), 3, c) for c in children]
        assert len(calls) == 6
        assert same_bits([r.objective for r in restarts], objectives)
        first = objectives.index(min(objectives))
        assert same_bits(best.centroids, restarts[first].centroids)
        assert np.array_equal(best.labels, restarts[first].labels)
        assert best.trace == restarts[first].trace

    @pytest.mark.parametrize("points, k, error", [
        (np.zeros(5), 2, DimensionError),
        (np.zeros((2, 2)), 3, ConfigError),
        (np.zeros((5, 2)), 0, ConfigError),
        (np.where(np.arange(60).reshape(30, 2) == 9, np.nan, 1.0), 3, NonFiniteError),
    ], ids=["not-a-matrix", "too-few-points", "no-clusters", "nan-row"])
    def test_kmeans_best_raises_what_kmeans_raises(self, points, k, error):
        with pytest.raises(error) as one:
            kmeans(points, k)
        seq = np.random.SeedSequence(0)
        with pytest.raises(error) as best:
            kmeans_best(points, k, n_restarts=3, seed=seq)
        assert str(best.value) == str(one.value)
        # the restarts' seeds are spawned before the points are checked
        assert seq.n_children_spawned == 3


class TestNonFinitePoints:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e160])
    def test_rejected_naming_the_first_bad_row(self, bad):
        points = blobs(2)
        points[[4, 7], 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="row 4 of 30"):
                kmeans(points, 3)

    def test_largest_accepted_norm_keeps_sums_finite(self):
        # 8·N·‖x‖² just below the top of the float range: every squared
        # distance between points and means, and every sum of N of them,
        # stays finite
        top = np.sqrt(np.finfo(np.float64).max / 32) * (1 - 1e-15)
        points = np.array([[top], [-top], [top / 2], [0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = kmeans(points, 2, seed=0)
        assert np.isfinite(result.objective) and np.isfinite(result.centroids).all()
        with pytest.raises(NonFiniteError, match="row 0"):
            kmeans(points * 1.01, 2)


class TestNearest:
    def test_exact_centroid_row(self):
        centroids = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
        labels, dists = nearest(np.array([[5.0, 5.0]]), centroids)
        assert labels.tolist() == [2] and dists.tolist() == [0.0]

    def test_tie_breaks_to_lowest_index(self):
        centroids = np.array([[-1.0, 0.0], [1.0, 0.0]])
        labels, _ = nearest(np.array([[0.0, 0.0]]), centroids)
        assert labels.tolist() == [0]


class TestAccuracy:
    def test_identical(self):
        y = np.array([0, 1, 2, 1, 0])
        assert accuracy(y, y) == 1.0

    def test_pure_relabeling(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 4, size=30)
        perm = np.array([2, 3, 0, 1])
        assert accuracy(y, perm[y]) == 1.0

    def test_matches_permutation_bruteforce(self):
        rng = np.random.default_rng(4)
        cases = []
        for _ in range(100):
            k = int(rng.integers(1, 8))
            n = int(rng.integers(5, 51))
            cases.append((rng.integers(0, k, size=n), rng.integers(0, k, size=n)))
        cases += [
            # predictions that use only some clusters: all-zero columns
            (rng.integers(0, 6, size=40), rng.integers(0, 2, size=40)),
            (np.arange(7).repeat(3), np.full(21, 6)),
            # labels from disjoint ranges: zero rows and zero columns
            (np.array([0, 1, 0, 1, 1]), np.array([3, 4, 4, 4, 3])),
            # tied tables, where several matchings reach the optimum
            (np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])),
            (np.arange(5).repeat(4), np.tile(np.arange(5), 4)),
            (np.array([0, 0, 1, 1, 2, 2]), np.array([0, 1, 1, 2, 2, 0])),
            # a single cluster
            (np.zeros(5, dtype=int), np.zeros(5, dtype=int)),
        ]
        for t, p in cases:
            k = int(max(t.max(), p.max())) + 1
            brute = max(np.mean(np.array(perm)[p] == t)
                        for perm in itertools.permutations(range(k)))
            assert accuracy(t, p) == brute

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_scipy_assignment_for_many_clusters(self, data):
        linear_sum_assignment = pytest.importorskip(
            "scipy.optimize").linear_sum_assignment
        k = data.draw(st.integers(1, 60))
        table = data.draw(arrays(np.int64, (k, k), elements=st.integers(0, 40)))
        zeroed = data.draw(st.lists(st.integers(0, k - 1), max_size=k))
        table[:, zeroed] = 0
        table[0, 0] += 1  # at least one sample
        # one sample per count: true label = row, predicted label = column
        t, p = np.divmod(np.repeat(np.arange(k * k), table.ravel()), k)
        rows, cols = linear_sum_assignment(-table)
        assert accuracy(t, p) == float(table[rows, cols].sum() / table.sum())

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.array([0, 1]), np.array([0, 1, 2]))


def test_runtime_imports_no_scipy():
    # numpy is fedmvc's only run-time dependency: ACC's matching is in-house
    src = str(Path(evaluation.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, fedmvc, fedmvc.cli; print(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


class TestNMI:
    def test_identical(self):
        y = np.array([0, 0, 1, 1, 2])
        assert normalized_mutual_info(y, y) == pytest.approx(1.0)

    def test_constant_prediction_zero(self):
        t = np.array([0, 1, 0, 1])
        p = np.zeros(4, dtype=int)
        assert normalized_mutual_info(t, p) == 0.0

    def test_both_constant_is_one(self):
        y = np.zeros(5, dtype=int)
        assert normalized_mutual_info(y, y) == 1.0

    def test_hand_contingencies(self):
        # diag [[2,0],[0,2]] -> 1.0; flat [[1,1],[1,1]] -> 0.0
        t = np.array([0, 0, 1, 1])
        assert normalized_mutual_info(t, np.array([0, 0, 1, 1])) == pytest.approx(1.0)
        assert normalized_mutual_info(t, np.array([0, 1, 0, 1])) == pytest.approx(0.0, abs=1e-12)


class TestARI:
    def test_identical(self):
        y = np.array([0, 1, 1, 2, 2, 2])
        assert adjusted_rand_index(y, y) == pytest.approx(1.0)

    def test_permuted_identical(self):
        y = np.array([0, 1, 1, 2, 2, 2])
        perm = np.array([1, 2, 0])
        assert adjusted_rand_index(y, perm[y]) == pytest.approx(1.0)

    def test_chance_level(self):
        rng = np.random.default_rng(5)
        values = [adjusted_rand_index(rng.integers(0, 10, 1000),
                                      rng.integers(0, 10, 1000))
                  for _ in range(100)]
        assert abs(np.mean(values)) < 0.05

    def test_matches_pair_enumeration(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            t = rng.integers(0, 3, size=6)
            p = rng.integers(0, 3, size=6)
            same_t = np.equal.outer(t, t)
            same_p = np.equal.outer(p, p)
            iu = np.triu_indices(6, k=1)  # the 15 unordered pairs
            a = np.sum(same_t[iu] & same_p[iu])
            b = np.sum(same_t[iu] & ~same_p[iu])
            c = np.sum(~same_t[iu] & same_p[iu])
            d = np.sum(~same_t[iu] & ~same_p[iu])
            total = a + b + c + d
            expected_index = (a + b) * (a + c) / total
            max_index = ((a + b) + (a + c)) / 2.0
            if max_index == expected_index:
                oracle = 1.0
            else:
                oracle = (a - expected_index) / (max_index - expected_index)
            assert adjusted_rand_index(t, p) == pytest.approx(oracle, abs=1e-12)


class TestEvaluateGlobal:
    def test_untrained_model_reports_all_metrics(self):
        ds = generate_blobs(3, 120, [6, 6], separation=6.0, noise_sigma=1.0, seed=0)
        arch = Architecture(ds.view_dims, 3, latent_dim=8, high_dim=8, hidden=16)
        params = init_params(arch, seed=0)
        report = evaluate_global(params, ds, ExperimentConfig(eval_restarts=4), 0)
        assert 0.0 <= report.acc <= 1.0
        assert 0.0 <= report.nmi <= 1.0
        assert -1.0 <= report.ari <= 1.0
        assert len(report.restart_objectives) == 4

    def test_unlabeled_dataset_objective_only(self):
        ds = generate_blobs(3, 60, [4], separation=4.0, noise_sigma=1.0, seed=1)
        unlabeled = type(ds)(ds.views, None, ds.n_clusters)
        arch = Architecture(ds.view_dims, 3, latent_dim=4, high_dim=4, hidden=8)
        report = evaluate_global(init_params(arch, seed=0), unlabeled,
                                 ExperimentConfig(eval_restarts=2), 0)
        assert report.acc is None and report.nmi is None and report.ari is None
        assert np.isfinite(report.kmeans_objective)

    def test_deterministic(self):
        ds = generate_blobs(3, 90, [5, 5], separation=5.0, noise_sigma=1.0, seed=2)
        arch = Architecture(ds.view_dims, 3, latent_dim=6, high_dim=6, hidden=12)
        params = init_params(arch, seed=3)
        a = evaluate_global(params, ds, ExperimentConfig(eval_restarts=3), 11)
        b = evaluate_global(params, ds, ExperimentConfig(eval_restarts=3), 11)
        assert (a.acc, a.nmi, a.ari, a.kmeans_objective) == \
            (b.acc, b.nmi, b.ari, b.kmeans_objective)

    def test_view_subset(self):
        ds = generate_blobs(2, 40, [3, 4], separation=5.0, noise_sigma=0.5, seed=3)
        arch = Architecture(ds.view_dims, 2, latent_dim=4, high_dim=4, hidden=8)
        params = init_params(arch, seed=4)
        full = evaluate_global(params, ds, ExperimentConfig(eval_restarts=2), 0)
        only0 = evaluate_global(params, ds,
                                ExperimentConfig(eval_restarts=2, eval_views=(0,)), 0)
        assert full.kmeans_objective != only0.kmeans_objective
