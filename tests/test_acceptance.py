"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import itertools
import math
import time

import numpy as np
import pytest
from helpers import central_diff, param, rel_error

from fedmvc import tensor as T
from fedmvc.cli import run_experiment
from fedmvc.config import ExperimentConfig
from fedmvc.data import ClientShard, dirichlet_partition
from fedmvc.evaluation import (
    accuracy,
    adjusted_rand_index,
    kmeans,
    kmeans_best,
    normalized_mutual_info,
)
from fedmvc.federation import aggregate, compute_weights
from fedmvc.losses import (
    drift_loss,
    feature_contrast_full,
    label_contrast,
    partial_contrast,
    reconstruction_loss,
    single_view_contrast,
)
from fedmvc.model import Architecture, init_params

TAU = 0.5


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def _fd_check(build, x0, h=1e-5):
    """Tape gradient of build(leaf) vs central differences at x0."""
    def value_at(xv):
        p = param(xv)
        tape = T.Tape()
        loss = build(tape, tape.leaf(p))
        return float(loss.value[0, 0]), p, tape, loss

    _, p, tape, loss = value_at(x0)
    tape.backward(loss)
    fd = central_diff(lambda xv: value_at(xv)[0], x0, h=h)
    return rel_error(p.grad, fd)


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    n, dim, n_views = 5, 4, 3
    errors = {}

    others = [rng.uniform(-2, 2, (n, dim)) for _ in range(n_views - 1)]
    x_input = rng.uniform(-2, 2, (n, dim))
    errors["reconstruction"] = _fd_check(
        lambda tape, leaf: reconstruction_loss([x_input], [leaf]),
        rng.uniform(-2, 2, (n, dim)))
    errors["feature_contrast"] = _fd_check(
        lambda tape, leaf: feature_contrast_full(
            [leaf] + [tape.constant(o) for o in others], TAU),
        rng.uniform(-2, 2, (n, dim)))
    other_logits = [rng.uniform(-2, 2, (n, 3)) for _ in range(n_views - 1)]
    errors["label_contrast"] = _fd_check(
        lambda tape, leaf: label_contrast(
            [T.softmax_rows(leaf)]
            + [T.softmax_rows(tape.constant(o)) for o in other_logits], TAU),
        rng.uniform(-2, 2, (n, 3)))
    feats = [rng.uniform(-2, 2, (n, dim)) for _ in range(2)]
    errors["partial_contrast"] = _fd_check(
        lambda tape, leaf: partial_contrast(
            leaf, [tape.constant(f) for f in feats], TAU),
        rng.uniform(-2, 2, (n, dim)))
    clean, noisy = rng.uniform(-2, 2, (n, dim)), rng.uniform(-2, 2, (n, dim))
    errors["single_contrast"] = _fd_check(
        lambda tape, leaf: single_view_contrast(
            leaf, tape.constant(clean), tape.constant(noisy), TAU),
        rng.uniform(-2, 2, (n, dim)))
    pos, neg = rng.uniform(-2, 2, (n, dim)), rng.uniform(-2, 2, (n, dim))
    w_global = rng.uniform(-1, 1, (3, 2))
    errors["drift_features"] = _fd_check(
        lambda tape, leaf: drift_loss(leaf, pos, neg,
                                      [tape.leaf(param(w_global + 0.2))],
                                      [w_global], TAU, mu=0.5),
        rng.uniform(-2, 2, (n, dim)))
    fused_const = rng.uniform(-2, 2, (n, dim))
    errors["drift_proximal"] = _fd_check(
        lambda tape, leaf: drift_loss(tape.constant(fused_const), pos, neg,
                                      [leaf], [w_global], TAU, mu=0.7),
        rng.uniform(-1, 1, (3, 2)))

    elapsed = time.perf_counter() - started
    worst = max(errors.values())
    ok = worst < 1e-4 and elapsed < 30.0
    report(1, ok, f"max relative gradient error {worst:.2e} "
                  f"across {sorted(errors)} in {elapsed:.1f}s")


def test_criterion_2_analytic_identities():
    checks = {}
    tape = T.Tape()
    h = np.array([[0.4, -1.1, 0.6]])
    checks["feature contrast, N=1 identical views"] = abs(float(
        feature_contrast_full([tape.constant(h), tape.constant(h)], TAU)
        .value[0, 0]))
    rng = np.random.default_rng(1)
    m = rng.uniform(-2, 2, (4, 3))
    val = float(single_view_contrast(tape.constant(m), tape.constant(m),
                                     tape.constant(m), TAU).value[0, 0])
    checks["single contrast degenerate = log 2"] = abs(val - math.log(2.0))

    w = rng.uniform(-1, 1, (3, 2))
    p = param(w)
    fused, neg = rng.uniform(-2, 2, (3, 4)), rng.uniform(-2, 2, (3, 4))

    def drift_at(mu):
        tape2 = T.Tape()
        return float(drift_loss(tape2.constant(fused), fused, neg,
                                [tape2.leaf(p)], [w.copy()], TAU, mu)
                     .value[0, 0])

    checks["drift proximal zero at equal params"] = abs(
        drift_at(3.0) - drift_at(0.0))

    worst = max(checks.values())
    report(2, worst < 1e-10,
           f"max identity deviation {worst:.2e} across {sorted(checks)}")


def test_criterion_3_aggregation():
    rng = np.random.default_rng(2)
    worst_sum = 0.0
    for _ in range(1000):
        c = int(rng.integers(1, 12))
        total_views = int(rng.integers(1, 6))
        shards = [ClientShard(i, tuple(range(int(rng.integers(1, total_views + 1)))),
                              np.arange(int(rng.integers(1, 1000))))
                  for i in range(c)]
        mode = ("linear", "uniform")[int(rng.integers(2))]
        w = compute_weights(shards, total_views, mode)
        worst_sum = max(worst_sum, abs(float(w.sum()) - 1.0))

    arch = Architecture((4, 3), 2, 4, 5, 6)
    base = init_params(arch, seed=0)
    params = [init_params(arch, seed=s) for s in (1, 2, 3)]
    shards = [ClientShard(i, (0, 1), np.arange(4) + 10 * i) for i in range(3)]
    w = compute_weights(shards, 2, "linear")
    merged = aggregate(base, params, shards, w)
    mean = np.mean([p.vector for p in params], axis=0)
    uniform_dev = float(np.abs(merged.vector - mean).max())

    shards_masked = [ClientShard(0, (0, 1), np.arange(4)),
                     ClientShard(1, (0, 1), np.arange(4) + 10),
                     ClientShard(2, (1,), np.arange(4) + 20)]
    masked = aggregate(base, params, shards_masked, [0.2, 0.3, 0.5])
    renorm_dev = 0.0
    for slot, (a, b) in enumerate(zip(params[0].view_params(0),
                                      params[1].view_params(0))):
        expected = 0.4 * a.value + 0.6 * b.value
        got = masked.view_params(0)[slot].value
        renorm_dev = max(renorm_dev, float(np.abs(got - expected).max()))

    ok = worst_sum < 1e-12 and uniform_dev < 1e-12 and renorm_dev < 1e-12
    report(3, ok, f"weight-sum dev {worst_sum:.2e}, fedavg-equivalence dev "
                  f"{uniform_dev:.2e}, hand-renormalization dev {renorm_dev:.2e}")


def test_criterion_4_partition_correctness():
    rng = np.random.default_rng(3)
    covers = 0
    for _ in range(200):
        n = int(rng.integers(20, 2000))
        c = int(rng.integers(1, 10))
        beta = float(rng.uniform(0.05, 50.0))
        labels = rng.integers(0, 10, size=n)
        parts = dirichlet_partition(labels, c, beta, seed=int(rng.integers(1 << 31)))
        merged = np.concatenate(parts)
        if merged.size == n and np.array_equal(np.sort(merged), np.arange(n)):
            covers += 1

    labels = np.repeat(np.arange(10), 500)  # N=5000, 10 balanced labels
    global_frac = np.bincount(labels) / labels.size
    devs = []
    for seed in range(20):
        parts = dirichlet_partition(labels, 5, 1e6, seed=seed)
        devs.append(max(np.abs(np.bincount(labels[p], minlength=10) / p.size
                               - global_frac).max() for p in parts))
    mean_dev = float(np.mean(devs))
    ok = covers == 200 and mean_dev < 0.05
    report(4, ok, f"{covers}/200 exact disjoint covers, "
                  f"beta=1e6 mean max-deviation {mean_dev:.4f}")


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(4)
    brute_ok = 0
    for _ in range(100):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(5, 51))
        t = rng.integers(0, k, size=n)
        p = rng.integers(0, k, size=n)
        brute = max(np.mean(np.array(perm)[p] == t)
                    for perm in itertools.permutations(range(k)))
        if abs(accuracy(t, p) - brute) < 1e-12:
            brute_ok += 1

    chance = float(np.mean([
        adjusted_rand_index(rng.integers(0, 10, 1000), rng.integers(0, 10, 1000))
        for _ in range(100)]))

    y = rng.integers(0, 4, size=60)
    perm = np.array([3, 0, 1, 2])
    permuted_ones = (accuracy(y, perm[y]), normalized_mutual_info(y, perm[y]),
                     adjusted_rand_index(y, perm[y]))
    perm_dev = max(abs(v - 1.0) for v in permuted_ones)

    ok = brute_ok == 100 and abs(chance) < 0.05 and perm_dev < 1e-12
    report(5, ok, f"{brute_ok}/100 brute-force matches, ARI chance mean "
                  f"{chance:+.4f}, permuted-identical deviation {perm_dev:.2e}")


def test_criterion_6_kmeans():
    rng = np.random.default_rng(5)
    monotone = 0
    for trial in range(50):
        points = rng.standard_normal((int(rng.integers(20, 60)), 3))
        result = kmeans(points, int(rng.integers(2, 6)), seed=trial)
        if (np.diff(result.trace) <= 1e-9).all():
            monotone += 1

    def partition_objective(points, labels):
        total = 0.0
        for j in (0, 1):
            members = points[labels == j]
            if members.size:
                total += ((members - members.mean(axis=0)) ** 2).sum()
        return total

    offset = np.where(np.arange(8)[:, None] < 4, [3.0, 0.0], [-3.0, 0.0])
    exact = 0
    for trial in range(10):
        points = np.random.default_rng(trial).standard_normal((8, 2)) + offset
        best, _ = kmeans_best(points, 2, n_restarts=10, seed=trial)
        oracle = min(partition_objective(points, np.array(bits))
                     for bits in itertools.product((0, 1), repeat=8)
                     if 0 < sum(bits) < 8)
        if np.isclose(best.objective, oracle, rtol=1e-9):
            exact += 1

    ok = monotone == 50 and exact == 10
    report(6, ok, f"{monotone}/50 monotone objective traces, "
                  f"{exact}/10 exhaustive-optimum matches")


ACCEPTANCE_SCENARIO = dict(
    seed=0, n_clusters=3, n_samples=600, view_dims=(10, 10, 10),
    separation=6.0, noise_sigma=1.0, n_clients=6,
    mixed_counts=(2, 2, 2), dirichlet_beta=10.0, rounds=30,
    alpha=0.5, mu=0.01)


@pytest.fixture(scope="module")
def end_to_end(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    started = time.perf_counter()
    full = run_experiment(ExperimentConfig(
        **ACCEPTANCE_SCENARIO, output_dir=str(root / "full")))
    ablated = run_experiment(ExperimentConfig(
        **ACCEPTANCE_SCENARIO, no_contrast=True, output_dir=str(root / "noc")))
    elapsed = time.perf_counter() - started
    repeat = run_experiment(ExperimentConfig(
        **ACCEPTANCE_SCENARIO, output_dir=str(root / "repeat")))
    return {"full": full, "ablated": ablated, "repeat": repeat,
            "elapsed": elapsed}


def test_criterion_7_end_to_end(end_to_end):
    full_acc = end_to_end["full"].final.acc
    ablated_acc = end_to_end["ablated"].final.acc
    elapsed = end_to_end["elapsed"]
    ok = full_acc >= 0.90 and (full_acc - ablated_acc) >= 0.05 and elapsed < 300.0
    report(7, ok, f"full ACC {full_acc:.3f} (needs >= 0.90), no-contrast ACC "
                  f"{ablated_acc:.3f} (gap {full_acc - ablated_acc:+.3f} needs "
                  f">= 0.05), runtime {elapsed:.0f}s (needs < 300s)")


def test_criterion_8_determinism(end_to_end):
    a = end_to_end["full"].csv_path.read_bytes()
    b = end_to_end["repeat"].csv_path.read_bytes()
    ok = a == b
    report(8, ok, f"repeated master-seed run: metrics CSV byte-identical={a == b}")
