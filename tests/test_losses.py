"""Loss oracles: hand evaluations, brute-force enumeration, finite differences."""

import math

import numpy as np
import pytest
from helpers import (
    central_diff,
    drift_contrast_bruteforce,
    feature_contrast_bruteforce,
    label_contrast_bruteforce,
    param,
    partial_contrast_bruteforce,
    rel_error,
    single_contrast_bruteforce,
    sum_sq_dist_chain,
)

from fedmvc import tensor as T
from fedmvc.errors import DimensionError
from fedmvc.losses import (
    drift_loss,
    feature_contrast_full,
    label_contrast,
    partial_contrast,
    reconstruction_loss,
    single_view_contrast,
)

TAU = 0.5


def scalar(t):
    return float(t.value[0, 0])


def rows(rng, n, d):
    return rng.uniform(-2, 2, (n, d))


def cosine(a, b):
    """The cosine similarity the contrast nodes use: a product of unit rows."""
    ua = T._unit_rows(np.array([a], dtype=np.float64))[0]
    ub = T._unit_rows(np.array([b], dtype=np.float64))[0]
    return float((ua @ ub.T)[0, 0])


class TestCosineSim:
    def test_identical(self):
        assert cosine([1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 5.0]) == pytest.approx(0.0)

    def test_opposite(self):
        assert cosine([1.0, -1.0], [-2.0, 2.0]) == pytest.approx(-1.0)

    def test_zero_norm_convention(self):
        # a zero row has similarity 0 to every row and takes no gradient
        assert cosine([0.0, 0.0], [1.0, 1.0]) == 0.0
        unit, safe, nonzero = T._unit_rows(np.zeros((1, 2)))
        grad = T._unit_rows_grad(np.ones((1, 2)), unit, safe, nonzero)
        assert not unit.any() and not grad.any()


class TestReconstruction:
    def test_perfect_reconstruction(self):
        tape = T.Tape()
        x = rows(np.random.default_rng(0), 4, 3)
        assert scalar(reconstruction_loss([x], [tape.constant(x)])) == 0.0

    def test_hand_value(self):
        tape = T.Tape()
        loss = reconstruction_loss([np.array([[1.0, 0.0]])],
                                   [tape.constant([[0.0, 0.0]])])
        assert scalar(loss) == pytest.approx(1.0)

    def test_quadratic_homogeneity(self):
        tape = T.Tape()
        rng = np.random.default_rng(1)
        x = rows(rng, 5, 4)
        r = rows(rng, 5, 4)
        one = scalar(reconstruction_loss([x], [tape.constant(x + r)]))
        two = scalar(reconstruction_loss([x], [tape.constant(x + 2 * r)]))
        assert two == pytest.approx(4 * one, rel=1e-12)

    def test_multi_view_sum(self):
        tape = T.Tape()
        rng = np.random.default_rng(2)
        xs = [rows(rng, 3, 2), rows(rng, 3, 5)]
        rec = [tape.constant(x + 1.0) for x in xs]
        expected = sum(((1.0) ** 2) * x.size for x in xs) / 3
        assert scalar(reconstruction_loss(xs, rec)) == pytest.approx(expected)

    def test_shape_mismatch(self):
        tape = T.Tape()
        with pytest.raises(DimensionError):
            reconstruction_loss([np.ones((2, 3))], [tape.constant(np.ones((2, 4)))])

    def test_bitwise_equal_to_elementary_chain(self):
        # one sum_sq_dist node against sub/mul/sum_all/add per view
        rng = np.random.default_rng(3)
        xs = [rows(rng, 5, 2), rows(rng, 5, 6), rows(rng, 5, 3)]

        def run(build):
            params = [param(x + rng.normal(0.0, 0.5, x.shape)) for x in xs]
            tape = T.Tape()
            loss = build(tape, [tape.leaf(p) for p in params])
            tape.backward(T.scale(loss, 0.3))
            return [loss.value] + [p.grad for p in params]

        rng = np.random.default_rng(4)
        got = run(lambda tape, recons: reconstruction_loss(xs, recons))
        rng = np.random.default_rng(4)
        want = run(lambda tape, recons: T.scale(sum_sq_dist_chain(recons, xs), 1.0 / 5))
        for g, w in zip(got, want, strict=True):
            assert g.tobytes() == w.tobytes()


class TestFeatureContrast:
    def test_single_sample_identical_views_zero(self):
        tape = T.Tape()
        h = np.array([[0.3, -1.2, 0.7]])
        loss = feature_contrast_full([tape.constant(h), tape.constant(h)], TAU)
        assert abs(scalar(loss)) < 1e-10

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        for n_views in (2, 3):
            feats = [rows(rng, 3, 4) for _ in range(n_views)]
            tape = T.Tape()
            loss = feature_contrast_full([tape.constant(f) for f in feats], TAU)
            assert scalar(loss) == pytest.approx(
                feature_contrast_bruteforce(feats, TAU), rel=1e-10)

    @pytest.mark.parametrize("tau", [0.1, TAU])
    def test_zero_row_matches_offdiagonal_sum(self, tau):
        # an all-zero row's similarity to itself is e^0, not e^{1/tau}
        rng = np.random.default_rng(11)
        for n_views in (2, 3):
            feats = [rows(rng, 3, 4) for _ in range(n_views)]
            feats[n_views - 1][1] = 0.0
            tape = T.Tape()
            value = scalar(feature_contrast_full([tape.constant(f) for f in feats], tau))
            assert math.isfinite(value)
            assert value == pytest.approx(feature_contrast_bruteforce(feats, tau),
                                          rel=1e-10)

    def test_raising_positive_similarity_lowers_loss(self):
        rng = np.random.default_rng(4)
        a = rows(rng, 4, 5)
        b = rows(rng, 4, 5)
        base = feature_contrast_bruteforce([a, b], TAU)
        closer = b + 0.5 * (a - b)  # move positives toward their anchors
        lower = feature_contrast_bruteforce([a, closer], TAU)
        assert lower < base

    def test_needs_two_views(self):
        tape = T.Tape()
        with pytest.raises(ValueError):
            feature_contrast_full([tape.constant(np.ones((2, 2)))], TAU)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(5)
        feats = [rows(rng, 6, 4) for _ in range(3)]
        perm = rng.permutation(6)
        tape = T.Tape()
        a = scalar(feature_contrast_full([tape.constant(f) for f in feats], TAU))
        b = scalar(feature_contrast_full([tape.constant(f[perm]) for f in feats], TAU))
        assert a == pytest.approx(b, rel=1e-12)

    def test_row_rescaling_invariance(self):
        rng = np.random.default_rng(6)
        feats = [rows(rng, 4, 3) for _ in range(2)]
        tape = T.Tape()
        a = scalar(feature_contrast_full([tape.constant(f) for f in feats], TAU))
        b = scalar(feature_contrast_full([tape.constant(3.7 * f) for f in feats], TAU))
        assert a == pytest.approx(b, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        h0 = rows(rng, 4, 3)
        h1 = rows(rng, 4, 3)

        def run(h0v):
            p = param(h0v)
            tape = T.Tape()
            loss = feature_contrast_full([tape.leaf(p), tape.constant(h1)], TAU)
            tape.backward(loss)
            return scalar(loss), p.grad

        _, grad = run(h0)
        fd = central_diff(lambda v: run(v)[0], h0)
        assert rel_error(grad, fd) < 1e-4


class TestLabelContrast:
    def test_is_the_column_nt_xent(self):
        rng = np.random.default_rng(7)
        for n_views in (2, 3):
            raw = [rng.uniform(0.05, 1.0, (5, 3)) for _ in range(n_views)]
            qs = [r / r.sum(axis=1, keepdims=True) for r in raw]
            tape = T.Tape()
            loss = label_contrast([tape.constant(q) for q in qs], TAU)
            direct = T.cycled_nt_xent([tape.constant(q) for q in qs], TAU,
                                      columns=True)
            assert loss.value.tobytes() == direct.value.tobytes()

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(8)
        for n_views in (2, 3):
            raw = [rng.uniform(0.05, 1.0, (4, 3)) for _ in range(n_views)]
            qs = [r / r.sum(axis=1, keepdims=True) for r in raw]
            tape = T.Tape()
            loss = label_contrast([tape.constant(q) for q in qs], TAU)
            assert scalar(loss) == pytest.approx(
                label_contrast_bruteforce(qs, TAU), rel=1e-10)

    def test_zero_column_matches_offdiagonal_sum(self):
        # a cluster no sample is assigned to: an all-zero column
        q = np.array([[0.7, 0.0, 0.3], [0.2, 0.0, 0.8], [0.5, 0.0, 0.5]])
        rng = np.random.default_rng(12)
        raw = rng.uniform(0.05, 1.0, (3, 3))
        qs = [q, raw / raw.sum(axis=1, keepdims=True)]
        tape = T.Tape()
        value = scalar(label_contrast([tape.constant(x) for x in qs], 0.1))
        assert math.isfinite(value)
        assert value == pytest.approx(label_contrast_bruteforce(qs, 0.1), rel=1e-10)

    def test_orthogonal_columns_identical_views(self):
        # Crisp, balanced assignments shared by both views: the contrast
        # term sits at this configuration's minimum over column pairings.
        n, k = 8, 2
        q = np.zeros((n, k))
        q[: n // 2, 0] = 1.0
        q[n // 2:, 1] = 1.0
        tape = T.Tape()
        value = scalar(label_contrast([tape.constant(q), tape.constant(q)], TAU))
        assert value == pytest.approx(label_contrast_bruteforce([q, q], TAU),
                                      rel=1e-10)
        rng = np.random.default_rng(9)
        for _ in range(10):
            raw = rng.uniform(0.05, 1.0, (n, k))
            soft = raw / raw.sum(axis=1, keepdims=True)
            assert label_contrast_bruteforce([q, q], TAU) <= \
                label_contrast_bruteforce([soft, soft], TAU) + 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        logits = rows(rng, 4, 3)
        other = rows(rng, 4, 3)

        def run(lv):
            p = param(lv)
            tape = T.Tape()
            qs = [T.softmax_rows(tape.leaf(p)), T.softmax_rows(tape.constant(other))]
            loss = label_contrast(qs, TAU)
            tape.backward(loss)
            return scalar(loss), p.grad

        _, grad = run(logits)
        fd = central_diff(lambda v: run(v)[0], logits)
        assert rel_error(grad, fd) < 1e-4


class TestPartialContrast:
    def test_two_identical_rows_zero(self):
        h = np.array([[1.0, 2.0], [1.0, 2.0]])
        tape = T.Tape()
        loss = partial_contrast(tape.constant(h), [tape.constant(h)], TAU)
        assert abs(scalar(loss)) < 1e-10

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        fused = rows(rng, 3, 4)
        feats = [rows(rng, 3, 4), rows(rng, 3, 4)]
        tape = T.Tape()
        loss = partial_contrast(tape.constant(fused),
                                [tape.constant(f) for f in feats], TAU)
        assert scalar(loss) == pytest.approx(
            partial_contrast_bruteforce(fused, feats, TAU), rel=1e-10)

    def test_raising_positive_lowers_loss(self):
        rng = np.random.default_rng(12)
        fused = rows(rng, 4, 3)
        feat = rows(rng, 4, 3)
        base = partial_contrast_bruteforce(fused, [feat], TAU)
        closer = feat + 0.5 * (fused - feat)
        assert partial_contrast_bruteforce(fused, [closer], TAU) < base

    def test_single_sample_rejected(self):
        tape = T.Tape()
        one = tape.constant([[1.0, 2.0]])
        with pytest.raises(ValueError):
            partial_contrast(one, [one], TAU)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        fused = rows(rng, 4, 3)
        feat = rows(rng, 4, 3)

        def run(fv):
            p = param(fv)
            tape = T.Tape()
            loss = partial_contrast(tape.leaf(p), [tape.constant(feat)], TAU)
            tape.backward(loss)
            return scalar(loss), p.grad

        _, grad = run(fused)
        fd = central_diff(lambda v: run(v)[0], fused)
        assert rel_error(grad, fd) < 1e-4


class TestSingleViewContrast:
    def test_degenerate_identical_log2(self):
        h = rows(np.random.default_rng(14), 5, 3)
        tape = T.Tape()
        c = tape.constant(h)
        loss = single_view_contrast(c, c, h, TAU)
        assert scalar(loss) == pytest.approx(math.log(2.0), abs=1e-10)

    def test_opposed_negative_closed_form(self):
        # pos similarity 1, neg similarity -1: loss is
        # -log(e^{1/tau} / (e^{1/tau} + e^{-1/tau})), strictly below log 2.
        fused = np.array([[1.0, 0.0]])
        noisy = np.array([[-1.0, 0.0]])
        tape = T.Tape()
        loss = single_view_contrast(tape.constant(fused), tape.constant(fused),
                                    tape.constant(noisy), TAU)
        expected = -math.log(math.exp(1 / TAU)
                             / (math.exp(1 / TAU) + math.exp(-1 / TAU)))
        assert scalar(loss) == pytest.approx(expected, abs=1e-12)
        assert scalar(loss) < math.log(2.0)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(15)
        fused, feat, noisy = (rows(rng, 4, 3) for _ in range(3))
        tape = T.Tape()
        loss = single_view_contrast(tape.constant(fused), tape.constant(feat),
                                    tape.constant(noisy), TAU)
        assert scalar(loss) == pytest.approx(
            single_contrast_bruteforce(fused, feat, noisy, TAU), rel=1e-12)

    def test_row_rescaling_invariance(self):
        rng = np.random.default_rng(16)
        fused, feat, noisy = (rows(rng, 4, 3) for _ in range(3))
        tape = T.Tape()
        a = scalar(single_view_contrast(tape.constant(fused), tape.constant(feat),
                                        tape.constant(noisy), TAU))
        scaled = noisy.copy()
        scaled[2] *= 41.0  # positive rescaling of one row
        b = scalar(single_view_contrast(tape.constant(fused), tape.constant(feat),
                                        tape.constant(scaled), TAU))
        assert a == pytest.approx(b, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        fused, feat, noisy = (rows(rng, 4, 3) for _ in range(3))

        def run(fv):
            p = param(fv)
            tape = T.Tape()
            loss = single_view_contrast(tape.constant(fused), tape.leaf(p),
                                        tape.constant(noisy), TAU)
            tape.backward(loss)
            return scalar(loss), p.grad

        _, grad = run(feat)
        fd = central_diff(lambda v: run(v)[0], feat)
        assert rel_error(grad, fd) < 1e-4


class TestDriftLoss:
    def test_proximal_zero_at_equal_params(self):
        rng = np.random.default_rng(18)
        fused = rows(rng, 3, 4)
        neg = rows(rng, 3, 4)
        w = rng.uniform(-1, 1, (2, 3))
        p = param(w)

        def loss_at(mu):
            tape = T.Tape()
            return scalar(drift_loss(tape.constant(fused), fused, neg,
                                     [tape.leaf(p)], [w.copy()], TAU, mu))

        assert loss_at(5.0) == pytest.approx(loss_at(0.0), abs=1e-15)

    def test_proximal_term_value(self):
        rng = np.random.default_rng(19)
        fused = rows(rng, 2, 3)
        w_local = rng.uniform(-1, 1, (3, 2))
        w_global = rng.uniform(-1, 1, (3, 2))
        p = param(w_local)
        mu = 0.8

        def loss_at(mu_val):
            tape = T.Tape()
            return scalar(drift_loss(tape.constant(fused), fused, -fused,
                                     [tape.leaf(p)], [w_global], TAU, mu_val))

        expected_prox = (mu / 2) * float(((w_local - w_global) ** 2).sum())
        assert loss_at(mu) - loss_at(0.0) == pytest.approx(expected_prox, rel=1e-12)

    def test_mu_zero_orthogonal_negative_closed_form(self):
        fused = np.array([[1.0, 0.0], [0.0, 1.0]])
        neg = np.array([[0.0, 1.0], [1.0, 0.0]])  # orthogonal rows
        tape = T.Tape()
        loss = drift_loss(tape.constant(fused), fused.copy(), neg, [], [], TAU, 0.0)
        expected = -math.log(math.exp(1 / TAU) / (math.exp(1 / TAU) + 1.0))
        assert scalar(loss) == pytest.approx(expected, abs=1e-12)

    def test_single_sample_scalar_formula(self):
        rng = np.random.default_rng(20)
        fused, pos, neg = (rows(rng, 1, 5) for _ in range(3))
        tape = T.Tape()
        loss = drift_loss(tape.constant(fused), pos, neg, [], [], TAU, 0.0)
        assert scalar(loss) == pytest.approx(
            drift_contrast_bruteforce(fused, pos, neg, TAU), rel=1e-12)

    def test_layout_mismatch(self):
        rng = np.random.default_rng(21)
        fused = rows(rng, 2, 3)
        p = param(np.ones((2, 2)))
        tape = T.Tape()
        with pytest.raises(DimensionError):
            drift_loss(tape.constant(fused), fused, fused, [tape.leaf(p)],
                       [np.ones((3, 2))], TAU, 1.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        fused = rows(rng, 4, 3)
        pos, neg = rows(rng, 4, 3), rows(rng, 4, 3)
        w_global = rng.uniform(-1, 1, (2, 2))

        def run(fv):
            pf = param(fv)
            pw = param(w_global + 0.3)
            tape = T.Tape()
            loss = drift_loss(tape.leaf(pf), pos, neg, [tape.leaf(pw)],
                              [w_global], TAU, mu=0.7)
            tape.backward(loss)
            return scalar(loss), pf.grad

        _, grad = run(fused)
        fd = central_diff(lambda v: run(v)[0], fused)
        assert rel_error(grad, fd) < 1e-4

    def test_proximal_gradients_bitwise_equal_to_separate_nodes(self):
        # the weights also shape the features, so each leaf sums a forward
        # gradient and the proximal one, in the order the chain summed them
        alpha, mu = 0.5, 0.01

        def run(with_prox):
            rng = np.random.default_rng(24)
            params = [param(rng.uniform(-1, 1, shape)) for shape in ((3, 4), (1, 4))]
            refs = [p.value + rng.normal(0.0, 0.1, p.shape) for p in params]
            pos, neg = rows(rng, 5, 4), rows(rng, 5, 4)
            tape = T.Tape()
            fused = T.affine(tape.constant(rows(rng, 5, 3)), *params, relu=True)
            leaves = [tape.leaf(p) for p in params]
            drift = with_prox(fused, pos, neg, leaves, refs)
            tape.backward(T.scale(drift, 1.0 - alpha))
            return drift.value, [p.grad for p in params]

        value, grads = run(lambda f, pos, neg, leaves, refs: drift_loss(
            f, pos, neg, leaves, refs, TAU, mu))
        ref_value, ref_grads = run(lambda f, pos, neg, leaves, refs: T.add(
            drift_loss(f, pos, neg, [], [], TAU, 0.0),
            T.scale(sum_sq_dist_chain(leaves, refs), mu / 2.0)))
        assert np.array_equal(value, ref_value)
        for got, want in zip(grads, ref_grads):
            assert np.array_equal(got, want)

    def test_references_receive_no_gradient(self):
        rng = np.random.default_rng(23)
        fused = rows(rng, 3, 4)
        p_pos = param(rows(rng, 3, 4))
        pf = param(fused)
        tape = T.Tape()
        # references enter as plain arrays, so the Param they came from
        # cannot be reached by backward at all
        loss = drift_loss(tape.leaf(pf), p_pos.value, rows(rng, 3, 4), [], [],
                          TAU, 0.0)
        tape.backward(loss)
        assert np.array_equal(p_pos.grad, np.zeros_like(p_pos.grad))
        assert np.abs(pf.grad).max() > 0


@pytest.mark.parametrize("call", [
    lambda t: feature_contrast_full([t.constant(np.ones((3, 2))),
                                     t.constant(np.ones((2, 2)))], TAU),
    lambda t: label_contrast([t.constant(np.full((3, 2), 0.5)),
                              t.constant(np.full((3, 3), 0.5))], TAU),
    lambda t: partial_contrast(t.constant(np.ones((3, 2))),
                               [t.constant(np.ones((3, 4)))], TAU),
    lambda t: single_view_contrast(t.constant(np.ones((3, 2))),
                                   t.constant(np.ones((3, 2))), np.ones((4, 2)), TAU),
    lambda t: drift_loss(t.constant(np.ones((3, 2))), np.ones((3, 2)), np.ones((3, 1)),
                         [], [], TAU, 0.0),
], ids=["feature", "label", "partial", "single", "drift"])
def test_contrasts_reject_mismatched_shapes(call):
    with pytest.raises(DimensionError, match="shape"):
        call(T.Tape())


class TestFiniteness:
    @pytest.mark.parametrize("tau", [0.1, 0.5, 2.0])
    def test_all_losses_finite_on_random_inputs(self, tau):
        TAU = tau
        rng = np.random.default_rng(24)
        for trial in range(5):
            n, d = 5, 4
            feats = [rows(rng, n, d) for _ in range(3)]
            raw = [rng.uniform(0.01, 1.0, (n, 3)) for _ in range(3)]
            qs = [r / r.sum(axis=1, keepdims=True) for r in raw]
            tape = T.Tape()
            values = [
                scalar(feature_contrast_full([tape.constant(f) for f in feats], TAU)),
                scalar(label_contrast([tape.constant(q) for q in qs], TAU)),
                scalar(partial_contrast(tape.constant(feats[0]),
                                        [tape.constant(f) for f in feats[1:]], TAU)),
                scalar(single_view_contrast(tape.constant(feats[0]),
                                            tape.constant(feats[1]),
                                            tape.constant(feats[2]), TAU)),
                scalar(drift_loss(tape.constant(feats[0]), feats[1], feats[2],
                                  [], [], TAU, 0.0)),
            ]
            assert np.isfinite(values).all()
