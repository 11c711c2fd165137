"""Tape autodiff: forward values, gradients vs finite differences, optimizers."""

import gc
import weakref

import numpy as np
import pytest
from helpers import (
    AdamReference,
    SGDReference,
    add_row,
    add_scalar,
    central_diff,
    colsum,
    cycled_nt_xent_chain,
    exp,
    feature_contrast_bruteforce,
    log,
    matmul,
    mul,
    normalize_rows,
    RELU_SPECIALS,
    one_vs_one_nt_xent_chain,
    param,
    partial_nt_xent_chain,
    preset_weight,
    rel_error,
    relu as relu_op,
    rowsum,
    sub,
    sum_all,
    sum_sq_dist_chain,
    transpose,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmvc import tensor as T
from fedmvc.errors import DimensionError, TrainingError
from fedmvc.model import Architecture, ModelParams, init_params


def scalar(t):
    return float(t.value[0, 0])


class TestForward:
    def test_affine_identity(self):
        tape = T.Tape()
        y = T.affine(tape.constant([[1.0, 2.0]]), param(np.eye(2)),
                     param(np.zeros((1, 2))))
        assert np.array_equal(y.value, [[1.0, 2.0]])

    def test_affine_bias(self):
        tape = T.Tape()
        y = T.affine(tape.constant([[1.0, 1.0]]), param(np.eye(2)),
                     param([[1.0, 1.0]]))
        assert np.array_equal(y.value, [[2.0, 2.0]])

    def test_affine_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 2, (3, 4))
        w = rng.uniform(-2, 2, (4, 2))
        b = rng.uniform(-2, 2, (1, 2))
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += x[i, k] * w[k, j]
                expected[i, j] += b[0, j]
        tape = T.Tape()
        y = T.affine(tape.constant(x), param(w), param(b))
        assert np.allclose(y.value, expected, rtol=1e-12)

    def test_affine_shape_mismatch(self):
        tape = T.Tape()
        with pytest.raises(DimensionError):
            T.affine(tape.constant(np.ones((2, 3))), param(np.ones((2, 3))),
                     param(np.ones((1, 3))))

    def test_relu(self):
        tape = T.Tape()
        y = relu_op(tape.constant([[-1.0, 0.0, 2.0]]))
        assert np.array_equal(y.value, [[0.0, 0.0, 2.0]])

    def test_relu_identity_on_nonnegative(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 3, (4, 5))
        tape = T.Tape()
        assert np.array_equal(relu_op(tape.constant(x)).value, x)

    def test_softmax_uniform(self):
        tape = T.Tape()
        y = T.softmax_rows(tape.constant([[0.0, 0.0]]))
        assert np.allclose(y.value, [[0.5, 0.5]])

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-2, 2, (3, 4))
        tape = T.Tape()
        a = T.softmax_rows(tape.constant(x)).value
        b = T.softmax_rows(tape.constant(x + 7.5)).value
        assert np.allclose(a, b, atol=1e-14)

    def test_softmax_hand_value(self):
        tape = T.Tape()
        y = T.softmax_rows(tape.constant([[np.log(2.0), 0.0]]))
        assert np.allclose(y.value, [[2 / 3, 1 / 3]], atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(-50, 50, (5, 7))
            y = T.softmax_rows(T.Tape().constant(x)).value
            assert np.abs(y.sum(axis=1) - 1.0).max() < 1e-12
            assert (y > 0).all()

    def test_normalize_rows_zero_row(self):
        tape = T.Tape()
        y = normalize_rows(tape.constant([[0.0, 0.0], [3.0, 4.0]]))
        assert np.allclose(y.value, [[0.0, 0.0], [0.6, 0.8]])

    def test_unit_rows_rescale_rows_with_underflowing_squares(self):
        # the squares of the first three rows underflow in part or in full;
        # the other rows keep np.linalg.norm's norm and its quotient bitwise
        x = np.array([[3e-162, 0.0], [1e-170, -1e-170], [1e-323, 1e-323],
                      [0.0, 0.0], [3.0, 4.0], [1e-150, 2e-150]])
        unit, norms, nonzero = T._unit_rows(x)
        assert nonzero[:, 0].tolist() == [True, True, True, False, True, True]
        assert np.allclose(unit[:3], [[1.0, 0.0], [2 ** -0.5, -2 ** -0.5],
                                      [2 ** -0.5, 2 ** -0.5]], rtol=1e-15, atol=0.0)
        assert norms[0, 0] == 3e-162
        assert norms[1, 0] == pytest.approx(1e-170 * 2 ** 0.5, rel=1e-15)
        assert not unit[3].any() and norms[3, 0] == 1.0
        plain = np.linalg.norm(x[4:], axis=1, keepdims=True)
        assert norms[4:].tobytes() == plain.tobytes()
        assert unit[4:].tobytes() == (x[4:] / plain).tobytes()



class TestBackward:
    def test_quadratic(self):
        tape = T.Tape()
        p = param([[1.0, -2.0, 3.0]])
        x = tape.leaf(p)
        loss = sum_all(mul(x, x))
        tape.backward(loss)
        assert np.allclose(p.grad, 2 * p.value)

    def test_self_mse_zero_grad(self):
        tape = T.Tape()
        p = param(np.random.default_rng(0).uniform(-2, 2, (3, 3)))
        x = tape.leaf(p)
        diff = sub(x, x)
        tape.backward(sum_all(mul(diff, diff)))
        assert np.array_equal(p.grad, np.zeros((3, 3)))

    def test_grad_accumulates_until_cleared(self):
        p = param([[2.0]])
        for _ in range(2):
            tape = T.Tape()
            x = tape.leaf(p)
            tape.backward(sum_all(mul(x, x)))
        assert np.allclose(p.grad, [[8.0]])
        T.make_optimizer("sgd", 0.1, p.value.reshape(-1), p.grad.reshape(-1),
                         [slice(0, 1)], T.optimizer_workspace(1)).step()
        assert np.array_equal(p.grad, [[0.0]])
        assert np.allclose(p.value, [[1.2]])

    def test_loss_not_on_tape(self):
        tape_a, tape_b = T.Tape(), T.Tape()
        loss = sum_all(tape_a.constant([[1.0]]))
        with pytest.raises(ValueError):
            tape_b.backward(loss)

    def test_non_scalar_loss_rejected(self):
        tape = T.Tape()
        p = param([[1.0, 2.0]])
        x = tape.leaf(p)
        with pytest.raises(ValueError, match="1x1"):
            tape.backward(x)
        # a call rejected before the replay leaves the record in place
        tape.backward(sum_all(x))
        assert np.array_equal(p.grad, [[1.0, 1.0]])


class TestReplayOnce:
    """``backward`` consumes its tape: a tape is replayed once, then empty."""

    def test_second_backward_raises(self):
        tape = T.Tape()
        p = param([[3.0]])
        x = tape.leaf(p)
        loss = sum_all(mul(x, x))
        tape.backward(loss)
        with pytest.raises(ValueError, match="already replayed"):
            tape.backward(loss)
        assert np.array_equal(p.grad, [[6.0]])

    @pytest.mark.parametrize("record", [
        lambda tape, x, p: tape.constant([[1.0]]),
        lambda tape, x, p: tape.leaf(p),
        lambda tape, x, p: tape.leaf(param([[1.0]])),
        lambda tape, x, p: sum_all(x),
    ], ids=["constant", "same-leaf", "new-leaf", "op"])
    def test_recording_on_a_replayed_tape_raises(self, record):
        tape = T.Tape()
        p = param([[3.0]])
        x = tape.leaf(p)
        tape.backward(sum_all(x))
        with pytest.raises(ValueError, match="already replayed"):
            record(tape, x, p)

    def test_failed_replay_still_empties_the_tape(self):
        tape = T.Tape()
        frozen = T.Param(np.ones((1, 2)), None)
        with pytest.raises(ValueError, match="without a gradient buffer"):
            tape.backward(sum_all(tape.leaf(frozen)))
        assert not tape._nodes and not tape._leaves
        with pytest.raises(ValueError, match="already replayed"):
            tape.constant([[1.0]])

    def test_replayed_step_is_freed_without_the_collector(self):
        w, b = param(np.ones((2, 4))), param(np.zeros((1, 4)))
        gc.collect()
        gc.disable()
        try:
            tape = T.Tape()
            hidden = T.affine(tape.constant(np.ones((3, 2))), w, b, relu=True)
            loss = sum_all(T.scale(hidden, 2.0))
            refs = [weakref.ref(tape), weakref.ref(hidden.value),
                    weakref.ref(loss.value)]
            tape.backward(loss)
            del tape, hidden, loss
            assert [ref() for ref in refs] == [None] * 3
        finally:
            gc.enable()

    @pytest.mark.parametrize("route", ["direct", "transposed", "broadcast"])
    def test_shared_gradient_is_not_written_through(self, route):
        # ``add`` hands one gradient array to both parents; ``a`` then takes
        # a second gradient (from ``mul(a, D)``, recorded before the add and
        # so replayed after it), which must not reach ``b`` through the
        # shared array, a transposed view of it or a broadcast of it
        rng = np.random.default_rng(9)
        shape = (3, 3) if route == "transposed" else (3, 4)
        pa, pb = param(rng.normal(size=shape)), param(rng.normal(size=shape))
        d = rng.normal(size=shape)
        tape = T.Tape()
        a, b = tape.leaf(pa), tape.leaf(pb)
        second = sum_all(mul(a, tape.constant(d)))
        through = {"direct": lambda t: t, "transposed": transpose, "broadcast": rowsum}
        route_op = through[route]
        s = T.add(route_op(a), route_op(b))
        c = rng.normal(size=s.value.shape)
        tape.backward(T.add(sum_all(mul(s, tape.constant(c))), second))
        first = {"direct": c, "transposed": c.T,
                 "broadcast": np.broadcast_to(c, shape)}[route]
        assert np.array_equal(pb.grad, first)
        assert np.array_equal(pa.grad, first + d)

    def test_copied_gradient_keeps_its_layout(self):
        # a node whose first gradient is a transposed view holds an F-ordered
        # copy of it (the layout ``np.array`` keeps), and still does after a
        # second, C-ordered gradient is added into it
        seen = []
        tape = T.Tape()
        x = tape.constant(np.arange(6.0).reshape(2, 3))
        probe = tape._track(T.Tensor(x.value.copy(), tape,
                                     backprop=lambda g, acc: seen.append(g.copy("K"))))
        second = sum_all(mul(probe, tape.constant(np.ones((2, 3)))))
        flipped = transpose(probe)
        tape.backward(T.add(sum_all(mul(flipped, tape.constant(np.ones((3, 2))))),
                            second))
        (g,) = seen
        assert g.flags.f_contiguous and not g.flags.c_contiguous
        assert np.array_equal(g, np.full((2, 3), 2.0))

    def test_mlp_grad_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-2, 2, (4, 3))
        w1 = rng.uniform(-1, 1, (3, 5))
        b1 = rng.uniform(-0.5, 0.5, (1, 5))
        w2 = rng.uniform(-1, 1, (5, 2))
        b2 = rng.uniform(-0.5, 0.5, (1, 2))
        target = rng.uniform(-2, 2, (4, 2))

        def run(w1v):
            h = np.maximum(x @ w1v + b1, 0.0)
            y = h @ w2 + b2
            return float(((y - target) ** 2).sum())

        p1 = param(w1)
        tape = T.Tape()
        y = T.affine(relu_op(T.affine(tape.constant(x), p1, param(b1))),
                     param(w2), param(b2))
        diff = sub(y, tape.constant(target))
        tape.backward(sum_all(mul(diff, diff)))
        assert rel_error(p1.grad, central_diff(run, w1)) < 1e-4

    @pytest.mark.parametrize("op,builder", [
        ("relu", lambda t, x: sum_all(mul(relu_op(x), relu_op(x)))),
        ("softmax", lambda t, x: sum_all(mul(T.softmax_rows(x),
                                                 t.constant(_W)))),
        ("normalize", lambda t, x: sum_all(mul(normalize_rows(x),
                                                   t.constant(_W)))),
        ("exp", lambda t, x: sum_all(exp(T.scale(x, 0.5)))),
        ("log", lambda t, x: sum_all(log(add_scalar(mul(x, x), 1.0)))),
        ("colsum", lambda t, x: sum_all(mul(colsum(x), colsum(x)))),
        ("rowsum", lambda t, x: sum_all(mul(rowsum(x), rowsum(x)))),
        ("transpose", lambda t, x: sum_all(mul(transpose(x), transpose(x)))),
        ("affine_x", lambda t, x: _dense_loss(x, _W45, _B5)),
        ("affine_relu_x", lambda t, x: _dense_loss(x, _W45, _B5, relu=True)),
        ("affine_w", lambda t, x: _dense_loss(_X23, x, _B4)),
        ("affine_relu_w", lambda t, x: _dense_loss(_X23, x, _B4, relu=True)),
        ("affine_b", lambda t, x: _dense_loss(_X23, _W34, colsum(x))),
        ("affine_relu_b", lambda t, x: _dense_loss(_X23, _W34, colsum(x), relu=True)),
        ("sum_sq_dist_0", lambda t, x: _sum_sq_dist_at(t, x, 0)),
        ("sum_sq_dist_1", lambda t, x: _sum_sq_dist_at(t, x, 1)),
        ("sum_sq_dist_2", lambda t, x: _sum_sq_dist_at(t, x, 2)),
        ("cycled_nt_xent", lambda t, x: T.cycled_nt_xent(
            [t.constant(_W), x, t.constant(_W2)], 0.5)),
        ("cycled_nt_xent_columns", lambda t, x: T.cycled_nt_xent(
            [x, t.constant(_W)], 0.5, columns=True)),
        ("partial_nt_xent_fused", lambda t, x: T.partial_nt_xent(
            x, [t.constant(_W), t.constant(_W2)], 0.5)),
        ("partial_nt_xent_feat", lambda t, x: T.partial_nt_xent(
            t.constant(_W), [t.constant(_W2), x], 0.5)),
        ("one_vs_one_anchor", lambda t, x: T.one_vs_one_nt_xent(x, _W, _W2, 0.5)),
        ("one_vs_one_positive", lambda t, x: T.one_vs_one_nt_xent(
            t.constant(_W), x, t.constant(_W2), 0.5)),
        ("one_vs_one_negative", lambda t, x: T.one_vs_one_nt_xent(
            t.constant(_W), t.constant(_W2), x, 0.5)),
    ])
    def test_op_grads_match_finite_differences(self, op, builder):
        rng = np.random.default_rng(sum(map(ord, op)))
        x = rng.uniform(-2, 2, (3, 4))
        x[np.abs(x) < 1e-3] += 0.01  # stay clear of the relu kink

        def run(xv):
            p = param(xv)
            tape = T.Tape()
            loss = builder(tape, tape.leaf(p))
            tape.backward(loss)
            return float(loss.value[0, 0]), p.grad

        value, grad = run(x)
        fd = central_diff(lambda xv: run(xv)[0], x)
        assert rel_error(grad, fd) < 1e-4, op

    def test_add_row_grad_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-2, 2, (3, 4))
        row = rng.uniform(-2, 2, (1, 4))

        def run(rv):
            p = param(rv)
            tape = T.Tape()
            y = add_row(tape.constant(x), tape.leaf(p))
            loss = sum_all(mul(y, y))
            tape.backward(loss)
            return float(loss.value[0, 0]), p.grad

        _, grad = run(row)
        fd = central_diff(lambda rv: run(rv)[0], row)
        assert rel_error(grad, fd) < 1e-4


_W = np.random.default_rng(123).uniform(-2, 2, (3, 4))
_W2 = np.random.default_rng(125).uniform(-2, 2, (3, 4))
_X23, _W34, _W45, _B4, _B5 = (np.random.default_rng(124).uniform(-2, 2, shape)
                              for shape in ((2, 3), (3, 4), (4, 5), (1, 4), (1, 5)))


def _dense_loss(x, weight, bias, relu=False):
    # exp has a nonzero slope where a ReLU output is zero, so a lost mask shows
    return sum_all(exp(T.scale(T.affine(x, weight, bias, relu=relu), 0.25)))


def _sum_sq_dist_at(tape, x, pos):
    """The squared-distance node over three leaves, ``x`` at ``pos``."""
    leaves = [tape.constant(_B4), tape.constant(_W45)]
    refs = [0.5 * _B4, _W45 + 1.0]
    leaves.insert(pos, x)
    refs.insert(pos, _W)
    return T.sum_sq_dist(leaves, refs)


class TestDeterminism:
    def test_bit_identical_runs(self):
        def run():
            rng = np.random.default_rng(42)
            p = param(rng.uniform(-1, 1, (6, 6)))
            tape = T.Tape()
            x = tape.constant(rng.uniform(-1, 1, (5, 6)))
            y = T.softmax_rows(relu_op(matmul(x, tape.leaf(p))))
            tape.backward(sum_all(mul(y, y)))
            return y.value.copy(), p.grad.copy()
        y1, g1 = run()
        y2, g2 = run()
        assert np.array_equal(y1, y2)
        assert np.array_equal(g1, g2)


def _composite_affine(x, weight, bias, relu=False):
    y = add_row(matmul(x, weight), bias)
    return relu_op(y) if relu else y


def _mlp_params(rng, d_in=4, hidden=6, d_out=3):
    return [param(rng.uniform(-1, 1, shape))
            for shape in ((d_in, hidden), (1, hidden), (hidden, d_out), (1, d_out))]


class TestFusedOps:
    """The one-node ops equal the composites they replace, bit for bit."""

    @pytest.mark.parametrize("taped_input", [True, False])
    def test_two_fused_layers_match_composite_bitwise(self, taped_input):
        def run(dense):
            rng = np.random.default_rng(17)
            w1, b1, w2, b2 = _mlp_params(rng)
            px = param(rng.uniform(-2, 2, (7, 4)))
            other = rng.uniform(-2, 2, (5, 4))
            target = rng.uniform(-1, 1, (7, 3))
            tape = T.Tape()
            x = tape.leaf(px) if taped_input else tape.constant(px.value)
            # the same layers on two inputs: shared leaves sum two gradients
            ys = [dense(dense(inp, w1, b1, relu=True), w2, b2)
                  for inp in (x, tape.constant(other))]
            loss = T.add(
                sum_all(mul(normalize_rows(ys[0]), tape.constant(target))),
                sum_all(mul(ys[1], ys[1])))
            tape.backward(loss)
            return [y.value for y in ys], [p.grad for p in (w1, b1, w2, b2, px)]

        values, grads = run(T.affine)
        ref_values, ref_grads = run(_composite_affine)
        for got, want in zip(values + grads, ref_values + ref_grads):
            assert np.array_equal(got, want)
        assert np.any(grads[4] != 0) == taped_input

    def test_two_layer_mlp_records_two_op_nodes(self):
        w1, b1, w2, b2 = _mlp_params(np.random.default_rng(0))
        tape = T.Tape()
        T.affine(T.affine(tape.constant(np.ones((3, 4))), w1, b1, relu=True), w2, b2)
        assert sum(node._backprop is not None for node in tape._nodes) == 2

    def test_relu_bitwise_equal_to_where_on_special_pre_activations(self):
        # every class in two rows, ordinary values in the others
        rng = np.random.default_rng(8)
        pre = rng.standard_normal((4, RELU_SPECIALS.size))
        pre[0] = RELU_SPECIALS
        pre[1] = RELU_SPECIALS[::-1]
        weight = T.Param(preset_weight((3, pre.shape[1]), pre),
                         np.zeros((3, pre.shape[1])))
        bias = param(np.full((1, pre.shape[1]), -0.0))
        tape = T.Tape()
        out = T.affine(tape.constant(np.ones((4, 3))), weight, bias, relu=True)
        assert out.value.tobytes() == np.where(pre > 0, pre, 0.0).tobytes()
        # the backward mask is still ``pre > 0``: NaN, zeros and negatives pass nothing
        tape.backward(sum_all(out))
        assert np.array_equal(bias.grad, (pre > 0).sum(axis=0, keepdims=True))

    def test_affine_rejects_mismatched_shapes(self):
        tape = T.Tape()
        x = tape.constant(np.ones((2, 3)))
        with pytest.raises(DimensionError):
            T.affine(x, np.ones((4, 2)), np.ones((1, 2)))
        with pytest.raises(DimensionError):
            T.affine(x, np.ones((3, 2)), np.ones((1, 3)))

    def test_sum_sq_dist_matches_chain_bitwise(self):
        alpha, mu = 0.3, 0.01

        def run(prox):
            rng = np.random.default_rng(23)
            params = _mlp_params(rng)
            refs = [p.value + rng.normal(0.0, 0.1, p.shape) for p in params]
            tape = T.Tape()
            y = T.affine(T.affine(tape.constant(rng.uniform(-2, 2, (5, 4))),
                                  params[0], params[1], relu=True),
                         params[2], params[3])
            # the leaves already carry forward gradients when the term joins
            drift = T.add(sum_all(mul(y, y)),
                          T.scale(prox([tape.leaf(p) for p in params], refs), mu / 2))
            loss = T.add(sum_all(y), T.scale(drift, 1.0 - alpha))
            tape.backward(loss)
            return loss.value, [p.grad for p in params]

        value, grads = run(T.sum_sq_dist)
        ref_value, ref_grads = run(sum_sq_dist_chain)
        assert np.array_equal(value, ref_value)
        for got, want in zip(grads, ref_grads):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_params", [1, 4, 30])
    def test_sum_sq_dist_records_one_node(self, n_params):
        params = [param(np.full((2, 3), float(i))) for i in range(n_params)]
        tape = T.Tape()
        leaves = [tape.leaf(p) for p in params]
        before = len(tape._nodes)
        T.sum_sq_dist(leaves, [np.zeros((2, 3))] * n_params)
        assert len(tape._nodes) - before == 1

    def test_sum_sq_dist_rejects_mismatched_layouts(self):
        tape = T.Tape()
        leaf = tape.leaf(param(np.zeros((2, 3))))
        with pytest.raises(DimensionError):
            T.sum_sq_dist([leaf], [np.zeros((3, 2))])
        with pytest.raises(DimensionError):
            T.sum_sq_dist([leaf], [np.zeros((2, 3))] * 2)


@st.composite
def contrast_batches(draw, n_mats, min_rows=1, zero_columns=False):
    """``n_mats`` equal-shaped matrices of 1-6 rows (at least ``min_rows``)
    and 1-5 columns, each with up to two lines (rows, or columns) zeroed."""
    n = draw(st.integers(min_rows, 6))
    d = draw(st.integers(1, 5))
    mats = []
    for _ in range(n_mats):
        m = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=n * d,
                                   max_size=n * d))).reshape(n, d)
        lines = m.T if zero_columns else m
        zero = draw(st.lists(st.integers(0, lines.shape[0] - 1), max_size=2))
        lines[zero] = 0.0
        mats.append(m)
    return mats


def _value_and_grads(build, arrays, upstream):
    """The node ``build`` makes over leaves of ``arrays``, and each leaf's
    gradient of ``upstream`` times it."""
    params = [param(a) for a in arrays]
    tape = T.Tape()
    out = build([tape.leaf(p) for p in params])
    tape.backward(T.scale(out, upstream))
    return [out.value] + [p.grad for p in params]


def assert_fused_matches_chain(fused, chain, arrays, upstream=0.7):
    want = _value_and_grads(chain, arrays, upstream)
    assert np.isfinite(want[0]).all()
    got = _value_and_grads(fused, arrays, upstream)
    for g, w in zip(got, want, strict=True):
        assert g.tobytes() == w.tobytes()


TAUS = st.sampled_from([0.1, 0.5, 2.0])
UPSTREAM = st.floats(-3.0, 3.0)


class TestFusedContrasts:
    """Each contrast node equals its elementary chain in ``tests/helpers.py``,
    value and every gradient, bit for bit; all-zero rows included."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda v: contrast_batches(v)), TAUS, UPSTREAM)
    def test_cycled_matches_chain(self, mats, tau, upstream):
        n = mats[0].shape[0]
        assert_fused_matches_chain(
            lambda xs: T.cycled_nt_xent(xs, tau),
            lambda xs: cycled_nt_xent_chain(xs, tau), mats, upstream)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda v: contrast_batches(v, zero_columns=True)),
           TAUS, UPSTREAM)
    def test_cycled_over_columns_matches_chain(self, mats, tau, upstream):
        k = mats[0].shape[1]
        assert_fused_matches_chain(
            lambda xs: T.cycled_nt_xent(xs, tau, columns=True),
            lambda xs: cycled_nt_xent_chain(xs, tau, columns=True),
            mats, upstream)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda m: contrast_batches(m, min_rows=2)),
           TAUS, UPSTREAM)
    def test_partial_matches_chain(self, mats, tau, upstream):
        assert_fused_matches_chain(
            lambda xs: T.partial_nt_xent(xs[0], xs[1:], tau),
            lambda xs: partial_nt_xent_chain(xs[0], xs[1:], tau), mats, upstream)

    @settings(max_examples=60, deadline=None)
    @given(contrast_batches(3), TAUS, UPSTREAM)
    def test_single_view_structure_matches_chain(self, mats, tau, upstream):
        # cos(clean, fused) against cos(clean, noisy): every operand a leaf
        def run(op):
            return lambda xs: op(xs[1], xs[0], xs[2], tau)
        assert_fused_matches_chain(run(T.one_vs_one_nt_xent),
                                   run(one_vs_one_nt_xent_chain), mats, upstream)

    @settings(max_examples=60, deadline=None)
    @given(contrast_batches(3), TAUS, UPSTREAM)
    def test_drift_structure_matches_chain(self, mats, tau, upstream):
        # cos(fused, pos_ref) against cos(fused, neg_ref), references constant
        fused, pos_ref, neg_ref = mats

        def run(op):
            return lambda xs: op(xs[0], pos_ref, neg_ref, tau)
        assert_fused_matches_chain(run(T.one_vs_one_nt_xent),
                                   run(one_vs_one_nt_xent_chain), [fused], upstream)

    @pytest.mark.parametrize("n_views", [2, 3])
    def test_training_sized_batches_match_chain(self, n_views):
        # a 100-row batch of 32-dim features, as the default run trains on:
        # large enough for BLAS to block its products
        rng = np.random.default_rng(n_views)
        mats = [rng.standard_normal((100, 32)) for _ in range(n_views)]
        probs = [rng.dirichlet(np.ones(3), size=100) for _ in range(n_views)]
        cases = [
            (lambda xs: T.cycled_nt_xent(xs, 0.5),
             lambda xs: cycled_nt_xent_chain(xs, 0.5), mats),
            (lambda xs: T.cycled_nt_xent(xs, 0.5, columns=True),
             lambda xs: cycled_nt_xent_chain(xs, 0.5, columns=True), probs),
            (lambda xs: T.partial_nt_xent(xs[0], xs[1:], 0.5),
             lambda xs: partial_nt_xent_chain(xs[0], xs[1:], 0.5), mats),
            (lambda xs: T.one_vs_one_nt_xent(xs[0], xs[1], xs[-1], 0.5),
             lambda xs: one_vs_one_nt_xent_chain(xs[0], xs[1], xs[-1], 0.5), mats),
        ]
        for fused, chain, arrays in cases:
            assert_fused_matches_chain(fused, chain, arrays)

    def test_two_rows_with_a_zero_row(self):
        rng = np.random.default_rng(3)
        mats = [rng.uniform(-2, 2, (2, 3)) for _ in range(3)]
        mats[1][0] = 0.0
        for build, chain in [
                (lambda xs: T.cycled_nt_xent(xs, 2.0),
                 lambda xs: cycled_nt_xent_chain(xs, 2.0)),
                (lambda xs: T.partial_nt_xent(xs[0], xs[1:], 0.5),
                 lambda xs: partial_nt_xent_chain(xs[0], xs[1:], 0.5)),
                (lambda xs: T.one_vs_one_nt_xent(xs[0], xs[1], xs[2], 0.5),
                 lambda xs: one_vs_one_nt_xent_chain(xs[0], xs[1], xs[2], 0.5))]:
            assert_fused_matches_chain(build, chain, mats)
        # the zero row takes no gradient, and the others do
        value, *grads = _value_and_grads(
            lambda xs: T.cycled_nt_xent(xs, 2.0), mats, 1.0)
        assert np.isfinite(value).all() and all(np.isfinite(g).all() for g in grads)
        assert not grads[1][0].any() and grads[1][1].any() and grads[0].any()

    def test_row_with_subnormal_squared_norm_matches_offdiagonal_sum(self):
        # [3e-162, 0] squares to a subnormal; unscaled, its unit row had norm
        # 0.954 and this contrast was NaN. Its direction is exactly [1, 0].
        a = np.array([[3e-162, 0.0], [1.0, 2.0]])
        b = np.array([[0.5, 1.0], [2.0, -1.0]])
        tape = T.Tape()
        value = scalar(T.cycled_nt_xent([tape.constant(a), tape.constant(b)], 0.1))
        assert np.isfinite(value)
        direction = np.array([[1.0, 0.0], [1.0, 2.0]])
        assert value == pytest.approx(feature_contrast_bruteforce([direction, b], 0.1),
                                      rel=1e-12)

    @pytest.mark.parametrize("build", [
        lambda xs: T.cycled_nt_xent(xs, 0.5),
        lambda xs: T.cycled_nt_xent(xs, 0.5, columns=True),
        lambda xs: T.partial_nt_xent(xs[0], xs[1:], 0.5),
        lambda xs: T.one_vs_one_nt_xent(xs[0], xs[1], xs[2], 0.5),
    ], ids=["cycled", "columns", "partial", "one_vs_one"])
    def test_records_one_node(self, build):
        tape = T.Tape()
        leaves = [tape.leaf(param(m)) for m in (_W, _W2, _W + 1.0)]
        before = len(tape._nodes)
        build(leaves)
        assert len(tape._nodes) - before == 1

    @pytest.mark.parametrize("build", [
        lambda x, y: T.cycled_nt_xent([x, y], 0.5),
        lambda x, y: T.cycled_nt_xent([x, y], 0.5, columns=True),
        lambda x, y: T.partial_nt_xent(x, [x, y], 0.5),
        lambda x, y: T.one_vs_one_nt_xent(x, x, y, 0.5),
    ], ids=["cycled", "columns", "partial", "one_vs_one"])
    def test_rejects_mismatched_shapes(self, build):
        tape = T.Tape()
        with pytest.raises(DimensionError, match="shape"):
            build(tape.constant(np.ones((3, 2))), tape.constant(np.ones((2, 2))))


def one_coordinate(value, grad=0.0):
    """A one-entry parameter vector, its gradient, its span and an optimizer
    workspace, for the span optimizers."""
    return np.array([value]), np.array([grad]), [slice(0, 1)], T.optimizer_workspace(1)


class TestOptimizers:
    def test_sgd_step(self):
        value, grad, spans, ws = one_coordinate(1.0, grad=1.0)
        T.SGD(0.1, value, grad, spans, ws).step()
        assert np.allclose(value, [0.9])
        assert np.array_equal(grad, [0.0])

    def test_sgd_zero_grad_no_move(self):
        value, grad, spans, ws = one_coordinate(3.0)
        T.SGD(0.5, value, grad, spans, ws).step()
        assert np.allclose(value, [3.0])

    def test_adam_first_step_matches_formula(self):
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        for g in (0.01, 1.0, 250.0):
            value, grad, spans, ws = one_coordinate(1.0, grad=g)
            T.Adam(lr, value, grad, spans, ws).step()
            m_hat = (1 - b1) * g / (1 - b1)
            v_hat = (1 - b2) * g * g / (1 - b2)
            expected = 1.0 - lr * m_hat / (np.sqrt(v_hat) + eps)
            assert np.allclose(value, [expected], rtol=1e-12)
            assert abs(abs(1.0 - value[0]) - lr) < lr * 1e-4

    def test_adam_two_steps_match_manual(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        grads = [0.7, -1.3]
        value, grad, spans, ws = one_coordinate(0.5)
        opt = T.Adam(lr, value, grad, spans, ws)
        w, m, v = 0.5, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            grad[...] = g
            opt.step()
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        assert np.allclose(value, [w], rtol=1e-12)

    def test_non_finite_grad_raises(self):
        value, grad, spans, ws = one_coordinate(1.0, grad=np.nan)
        with pytest.raises(TrainingError):
            T.Adam(0.1, value, grad, spans, ws).step()

    def test_unknown_mode(self):
        value, grad, spans, ws = one_coordinate(1.0)
        with pytest.raises(ValueError):
            T.make_optimizer("rmsprop", 0.1, value, grad, spans, ws)


ARCH3 = Architecture(view_dims=(4, 3, 2), n_clusters=2, latent_dim=4, high_dim=5,
                     hidden=6)
SUBSETS = [(1,), (0, 2), (0, 1, 2)]
REFERENCES = {"sgd": SGDReference, "adam": AdamReference}


def owned_coordinates(params, spans):
    mask = np.zeros(params.vector.size, dtype=bool)
    for span in spans:
        mask[span] = True
    return mask


class TestOwnedSpans:
    @pytest.mark.parametrize("subset", SUBSETS, ids=str)
    @pytest.mark.parametrize("shared", [True, False])
    def test_spans_cover_the_trainable_params_merged(self, subset, shared):
        params = ModelParams(ARCH3, init_params(ARCH3, seed=0).vector.copy(),
                             trainable=True)
        spans = params.owned_spans(subset, shared=shared)
        trained = (params.trainable_params(subset) if shared
                   else [p for v in subset for p in params.view_params(v)])
        expected = np.zeros(params.vector.size, dtype=bool)
        for p in trained:  # mark each parameter's coordinates in the vector
            params.vector[...] = 0.0
            p.value[...] = 1.0
            expected |= params.vector == 1.0
        assert np.array_equal(owned_coordinates(params, spans), expected)
        # ascending, disjoint and never touching: touching spans are merged
        for a, b in zip(spans, spans[1:]):
            assert a.stop < b.start

    def test_span_counts(self):
        params = init_params(ARCH3, seed=0)
        # the layout is enc0 enc1 enc2 dec0 dec1 dec2 shared
        assert params.owned_spans((0, 1, 2)) == [slice(0, params.vector.size)]
        # enc0 | enc2 dec0 | dec2 shared
        assert len(params.owned_spans((0, 2))) == 3
        # enc1 | dec1 | shared
        assert len(params.owned_spans((1,))) == 3
        assert len(params.owned_spans((1,), shared=False)) == 2


# finite floats with both zeros, subnormals and magnitudes from 1e-300 to 1e300
_MAGNITUDES = st.floats(-300, 300).map(lambda e: 10.0 ** e)
EXTREME_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    _MAGNITUDES, _MAGNITUDES.map(lambda x: -x),
    st.floats(-10.0, 10.0))


class TestSpanOptimizersMatchReference:
    @pytest.mark.parametrize("mode", sorted(REFERENCES))
    @pytest.mark.parametrize("subset", SUBSETS, ids=str)
    @pytest.mark.parametrize("shared", [True, False])
    def test_bitwise_equal_to_per_param_steps(self, mode, subset, shared):
        rng = np.random.default_rng(len(subset) + 10 * shared)
        spanned = ModelParams(ARCH3, init_params(ARCH3, seed=1).vector.copy(),
                              trainable=True)
        reference = ModelParams(ARCH3, spanned.vector.copy(), trainable=True)
        spans = spanned.owned_spans(subset, shared=shared)
        owned = owned_coordinates(spanned, spans)
        ref_params = (reference.trainable_params(subset) if shared
                      else [p for v in sorted(subset) for p in reference.view_params(v)])
        opt = T.make_optimizer(mode, 3e-3, spanned.vector, spanned.grad, spans,
                               T.optimizer_workspace(spanned.vector.size))
        ref_opt = REFERENCES[mode](3e-3)
        for _ in range(6):
            # gradients on every coordinate, over six orders of magnitude
            g = rng.standard_normal(spanned.grad.size) * 10.0 ** rng.uniform(
                -3, 3, spanned.grad.size)
            spanned.grad[...] = g
            reference.grad[...] = g
            unowned_before = spanned.vector[~owned].copy()
            opt.step()
            ref_opt.step(ref_params)
            assert spanned.vector.tobytes() == reference.vector.tobytes()
            assert spanned.grad.tobytes() == reference.grad.tobytes()
            assert not spanned.grad[owned].any()
            assert np.array_equal(spanned.grad[~owned], g[~owned])
            assert spanned.vector[~owned].tobytes() == unowned_before.tobytes()

    @pytest.mark.parametrize("mode", sorted(REFERENCES))
    @pytest.mark.parametrize("subset", SUBSETS, ids=str)
    def test_non_finite_grad_raises_before_any_update(self, mode, subset):
        params = ModelParams(ARCH3, init_params(ARCH3, seed=2).vector.copy(),
                             trainable=True)
        spans = params.owned_spans(subset)
        opt = T.make_optimizer(mode, 1e-3, params.vector, params.grad, spans,
                               T.optimizer_workspace(params.vector.size))
        before = params.vector.copy()
        params.grad[spans[0]] = 1.0
        params.grad[spans[-1].stop - 1] = np.nan
        with pytest.raises(TrainingError):
            opt.step()
        assert params.vector.tobytes() == before.tobytes()

    @pytest.mark.parametrize("mode", sorted(REFERENCES))
    def test_dirty_workspace_matches_fresh(self, mode):
        # a workspace left dirty by an earlier optimizer gives the bits of a
        # fresh one: Adam's first step writes m and v without reading them
        rng = np.random.default_rng(5)
        size = init_params(ARCH3, seed=4).vector.size
        workspace = T.optimizer_workspace(size)
        workspace[...] = rng.standard_normal(workspace.shape)
        for subset in SUBSETS:
            shared = ModelParams(ARCH3, init_params(ARCH3, seed=4).vector.copy(),
                                 trainable=True)
            own = ModelParams(ARCH3, shared.vector.copy(), trainable=True)
            spans = shared.owned_spans(subset)
            opt = T.make_optimizer(mode, 3e-3, shared.vector, shared.grad, spans,
                                   workspace)
            own_opt = T.make_optimizer(mode, 3e-3, own.vector, own.grad, spans,
                                       np.zeros_like(workspace))
            for _ in range(3):
                g = rng.standard_normal(shared.grad.size)
                shared.grad[...] = g
                own.grad[...] = g
                opt.step()
                own_opt.step()
            assert shared.vector.tobytes() == own.vector.tobytes()
            assert np.shares_memory(opt._work, workspace)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_first_steps_on_dirty_workspace_match_reference(self, data):
        # the first step writes the moments straight from the gradient; its
        # bits, and the second step's, are those of moments zeroed first,
        # for signed zeros, subnormals and magnitudes from 1e-300 to 1e300
        n = data.draw(st.integers(1, 12))
        floats = st.lists(EXTREME_FLOATS, min_size=n, max_size=n)
        value = np.array(data.draw(floats))
        grads = [np.array(data.draw(floats)) for _ in range(2)]
        cut = data.draw(st.integers(0, n - 1))
        spans = [span for span in (slice(0, cut), slice(cut, n))
                 if span.stop > span.start]
        workspace = np.full((4, n), data.draw(st.sampled_from(
            [np.nan, np.inf, -0.0, -1e300])))
        grad = np.zeros(n)
        opt = T.Adam(3e-3, value, grad, spans, workspace)
        ref_value, ref_grad = value.copy(), grad.copy()
        ref_params = [T.Param(ref_value[span], ref_grad[span]) for span in spans]
        ref_opt = AdamReference(3e-3)
        for g in grads:
            grad[...] = g
            ref_grad[...] = g
            with np.errstate(over="ignore", under="ignore"):  # g**2 of 1e300
                opt.step()
                ref_opt.step(ref_params)
            assert value.tobytes() == ref_value.tobytes()
            assert grad.tobytes() == ref_grad.tobytes()

    def test_short_workspace_rejected(self):
        params = ModelParams(ARCH3, init_params(ARCH3, seed=3).vector.copy(),
                             trainable=True)
        with pytest.raises(ValueError, match="workspace"):
            T.make_optimizer("adam", 1e-3, params.vector, params.grad,
                             params.owned_spans((0, 1, 2)), T.optimizer_workspace(10))

    def test_grad_less_model_rejected(self):
        params = init_params(ARCH3, seed=3)
        with pytest.raises(ValueError, match="gradient buffer"):
            T.make_optimizer("adam", 1e-3, params.vector, params.grad,
                             params.owned_spans((0,)),
                             T.optimizer_workspace(params.vector.size))
