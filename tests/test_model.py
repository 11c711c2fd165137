"""Model construction, forward contracts, parameter vector and checkpoint roundtrips."""

import struct

import numpy as np
import pytest
from helpers import (
    RELU_SPECIALS,
    infer_fused_reference,
    init_params_reference,
    preset_weight,
)

from fedmvc import tensor as T
from fedmvc.errors import ConfigError, DataFormatError, DimensionError
from fedmvc.losses import reconstruction_loss
from fedmvc.model import (
    Architecture,
    ModelParams,
    cluster_assign,
    encode_decode,
    forward_views,
    fuse,
    infer_fused,
    init_params,
    load_checkpoint,
    save_checkpoint,
)

ARCH = Architecture(view_dims=(5, 7), n_clusters=3, latent_dim=4, high_dim=6, hidden=8)


class TestInit:
    def test_deterministic(self):
        a = init_params(ARCH, seed=3)
        b = init_params(ARCH, seed=3)
        assert np.array_equal(a.vector, b.vector)
        c = init_params(ARCH, seed=4)
        assert not np.array_equal(a.vector, c.vector)

    def test_biases_zero(self):
        params = init_params(ARCH, seed=0)
        for net in [*params.encoders, *params.decoders, [params.feature_net[1]],
                    [params.cluster_head[1]]]:
            for p in net[1::2] if len(net) > 1 else net:
                assert np.array_equal(p.value, np.zeros_like(p.value))

    def test_glorot_variance(self):
        arch = Architecture(view_dims=(64,), n_clusters=2, latent_dim=64,
                            high_dim=4, hidden=64)
        params = init_params(arch, seed=1)
        w = params.encoders[0][0].value  # 64 x 64
        s = np.sqrt(6.0 / (64 + 64))
        expected_var = s ** 2 / 3.0
        assert abs(w.var() - expected_var) / expected_var < 0.2
        assert np.abs(w).max() <= s

    def test_matches_subnet_by_subnet_draws(self):
        # view 0's first encoder weight is (1, hidden), the shape of a bias
        arch = Architecture(view_dims=(1, 3), n_clusters=2, latent_dim=4,
                            high_dim=5, hidden=6)
        params = init_params(arch, seed=11)
        expected = init_params_reference(arch, seed=11)
        got = [p.value for p in params.all_params()]
        assert [a.shape for a in got] == [a.shape for a in expected]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))
        assert params.encoders[0][0].shape == params.encoders[0][1].shape == (1, 6)
        assert np.abs(params.encoders[0][0].value).min() > 0

    def test_bad_architecture(self):
        with pytest.raises(ConfigError):
            Architecture(view_dims=(), n_clusters=3, latent_dim=4, high_dim=6, hidden=8)
        with pytest.raises(ConfigError):
            Architecture(view_dims=(4,), n_clusters=0, latent_dim=4, high_dim=6, hidden=8)


class TestForward:
    def test_encode_decode_shapes(self):
        params = init_params(ARCH, seed=0)
        tape = T.Tape()
        x = np.random.default_rng(0).standard_normal((9, 5))
        z, xhat = encode_decode(tape, params, x, 0)
        assert z.value.shape == (9, 4)
        assert xhat.value.shape == (9, 5)

    def test_each_mlp_is_two_tape_nodes(self):
        # one fused dense node per layer: encoder and decoder are 2 each
        params = init_params(ARCH, seed=0)
        tape = T.Tape()
        encode_decode(tape, params, np.ones((3, 5)), 0)
        assert sum(node._backprop is not None for node in tape._nodes) == 4

    def test_wrong_column_count(self):
        params = init_params(ARCH, seed=0)
        with pytest.raises(DimensionError):
            encode_decode(T.Tape(), params, np.ones((3, 4)), 0)

    def test_relu_split_identity_reconstruction(self):
        # W1=[I,-I], W2=[I;-I] makes relu(xW1)W2 an exact identity, so a
        # hand-built autoencoder reproduces any input with zero loss.
        dim = 3
        arch = Architecture(view_dims=(dim,), n_clusters=2, latent_dim=dim,
                            hidden=2 * dim, high_dim=2)
        params = init_params(arch, seed=0)
        split = np.hstack([np.eye(dim), -np.eye(dim)])
        merge = np.vstack([np.eye(dim), -np.eye(dim)])
        for net in (params.encoders[0], params.decoders[0]):
            net[0].value[...] = split
            net[1].value[...] = 0.0
            net[2].value[...] = merge
            net[3].value[...] = 0.0
        x = np.random.default_rng(1).uniform(-2, 2, (6, dim))
        tape = T.Tape()
        z, xhat = encode_decode(tape, params, x, 0)
        assert np.allclose(z.value, x, atol=1e-12)
        assert np.allclose(xhat.value, x, atol=1e-12)
        loss = reconstruction_loss([x], [xhat])
        assert abs(float(loss.value[0, 0])) < 1e-20

    def test_zero_weights_give_bias_rows(self):
        params = init_params(ARCH, seed=0)
        for p in params.encoders[0]:
            p.value[...] = 0.0
        params.encoders[0][3].value[...] = 1.5  # output bias
        tape = T.Tape()
        z, _ = encode_decode(tape, params, np.random.default_rng(2).standard_normal((4, 5)), 0)
        assert np.allclose(z.value, 1.5)

    def test_fuse_mean(self):
        tape = T.Tape()
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((4, 6)), rng.standard_normal((4, 6))
        fused = fuse([tape.constant(a), tape.constant(b)])
        assert np.allclose(fused.value, (a + b) / 2, atol=1e-15)

    def test_fuse_single_view_is_identity(self):
        tape = T.Tape()
        a = np.random.default_rng(4).standard_normal((4, 6))
        assert np.allclose(fuse([tape.constant(a)]).value, a)

    def test_fuse_identical_views(self):
        tape = T.Tape()
        a = np.random.default_rng(5).standard_normal((4, 6))
        fused = fuse([tape.constant(a), tape.constant(a)])
        assert np.allclose(fused.value, a)

    def test_fuse_permutation_invariant(self):
        tape = T.Tape()
        rng = np.random.default_rng(6)
        mats = [tape.constant(rng.standard_normal((5, 4))) for _ in range(3)]
        a = fuse(mats).value
        b = fuse([mats[2], mats[0], mats[1]]).value
        assert np.allclose(a, b, rtol=1e-12, atol=1e-14)

    def test_fuse_empty_rejected(self):
        with pytest.raises(ValueError):
            fuse([])

    def test_cluster_assign_rows_sum_to_one(self):
        params = init_params(ARCH, seed=0)
        tape = T.Tape()
        q = cluster_assign(tape, params, np.random.default_rng(7).standard_normal((5, 6)))
        assert np.abs(q.value.sum(axis=1) - 1.0).max() < 1e-12

    def test_cluster_assign_zero_head_uniform(self):
        params = init_params(ARCH, seed=0)
        params.cluster_head[0].value[...] = 0.0
        q = cluster_assign(T.Tape(), params,
                           np.random.default_rng(8).standard_normal((4, 6)))
        assert np.allclose(q.value, 1.0 / 3.0)

    def test_cluster_argmax_matches_logits(self):
        params = init_params(ARCH, seed=1)
        h = np.random.default_rng(9).standard_normal((10, 6))
        logits = np.maximum(h, h) @ params.cluster_head[0].value + params.cluster_head[1].value
        q = cluster_assign(T.Tape(), params, h)
        assert np.array_equal(q.value.argmax(axis=1), logits.argmax(axis=1))

    def test_forward_views_shapes_and_infer_matches(self):
        params = init_params(ARCH, seed=2)
        rng = np.random.default_rng(10)
        views = {0: rng.standard_normal((8, 5)), 1: rng.standard_normal((8, 7))}
        tape = T.Tape()
        fwd = forward_views(tape, params, views, want_probs=True)
        assert fwd.fused.value.shape == (8, 6)
        assert fwd.probs[0].value.shape == (8, 3)
        assert np.array_equal(infer_fused(params, views), fwd.fused.value)


ARCH3 = Architecture(view_dims=(5, 7, 3), n_clusters=3, latent_dim=4, high_dim=6,
                     hidden=8)


class TestInferFused:
    """The tape-free forward, and the row slicing that drift references rely on."""

    def _views(self, subset, n, seed):
        rng = np.random.default_rng(seed)
        return {v: rng.standard_normal((n, ARCH3.view_dims[v])) for v in subset}

    @pytest.mark.parametrize("subset", [(1,), (0, 2), (0, 1, 2)])
    def test_bitwise_equal_to_taped_forward(self, subset):
        params = init_params(ARCH3, seed=4)
        views = self._views(subset, 33, seed=len(subset))
        fwd = forward_views(T.Tape(), params, views)
        assert np.array_equal(infer_fused(params, views), fwd.fused.value)

    @pytest.mark.parametrize("subset", [(2,), (0, 1, 2)])
    @pytest.mark.parametrize("n", [7, 100, 257])
    def test_slicing_whole_shard_equals_inferring_the_batch(self, n, subset):
        params = init_params(ARCH3, seed=n)
        views = self._views(subset, n, seed=n + 1)
        whole = infer_fused(params, views)
        rng = np.random.default_rng(n + 2)
        for size in sorted({2, max(2, n // 3), n}):
            rows = rng.permutation(n)[:size]
            batch = infer_fused(params, {v: x[rows] for v, x in views.items()})
            assert np.array_equal(whole[rows], batch)

    def test_relu_bitwise_equal_to_where_on_special_pre_activations(self):
        # the first encoder layer of view 0 meets every class in two rows
        arch = Architecture(view_dims=(3, 2), n_clusters=2, latent_dim=4, high_dim=5,
                            hidden=RELU_SPECIALS.size)
        params = init_params(arch, seed=6)
        rng = np.random.default_rng(6)
        pre = rng.standard_normal((5, arch.hidden))
        pre[1], pre[3] = RELU_SPECIALS, RELU_SPECIALS[::-1]
        params.encoders[0][0].value = preset_weight((3, arch.hidden), pre)
        params.encoders[0][1].value[...] = -0.0
        views = {0: rng.standard_normal((5, 3)), 1: rng.standard_normal((5, 2))}
        with np.errstate(invalid="ignore", over="ignore"):  # inf meets the next layer
            got = infer_fused(params, views)
            want = infer_fused_reference(params, views)
        assert got.tobytes() == want.tobytes()
        assert np.isfinite(got[[0, 2, 4]]).all()  # rows without specials stay clean

    def test_wrong_column_count(self):
        params = init_params(ARCH3, seed=0)
        with pytest.raises(DimensionError, match="view 1"):
            infer_fused(params, {0: np.zeros((4, 5)), 1: np.zeros((4, 5))})

    def test_empty_views_rejected(self):
        with pytest.raises(ValueError):
            infer_fused(init_params(ARCH3, seed=0), {})


class TestMasking:
    def test_unowned_view_gets_zero_grad(self):
        params = ModelParams(ARCH, init_params(ARCH, seed=3).vector.copy(), trainable=True)
        rng = np.random.default_rng(11)
        tape = T.Tape()
        fwd = forward_views(tape, params, {0: rng.standard_normal((6, 5))},
                            want_probs=True)
        loss = reconstruction_loss([np.zeros((6, 5))], [fwd.recons[0]])
        tape.backward(loss)
        for p in params.view_params(1):
            assert np.array_equal(p.grad, np.zeros_like(p.grad))
        assert any(np.abs(p.grad).max() > 0 for p in params.view_params(0))


class TestParameterVector:
    def test_params_are_views_of_vector_and_grad(self):
        params = ModelParams(ARCH, init_params(ARCH, seed=2).vector.copy(), trainable=True)
        ordered = np.concatenate([p.value.ravel() for p in params.all_params()])
        assert np.array_equal(ordered, params.vector)
        for p in params.all_params():
            assert np.shares_memory(p.value, params.vector)
            assert np.shares_memory(p.grad, params.grad)
        params.decoders[1][2].value[0, 0] = 123.0
        assert np.count_nonzero(params.vector == 123.0) == 1
        params.vector[-1] = 7.0
        assert params.cluster_head[1].value[0, -1] == 7.0

    def test_backward_fills_the_grad_vector(self):
        params = ModelParams(ARCH, init_params(ARCH, seed=3).vector.copy(), trainable=True)
        tape = T.Tape()
        fwd = forward_views(tape, params, {0: np.ones((4, 5))})
        tape.backward(reconstruction_loss([np.zeros((4, 5))], [fwd.recons[0]]))
        ordered = np.concatenate([p.grad.ravel() for p in params.all_params()])
        assert np.array_equal(ordered, params.grad)
        enc, dec = params.view_spans(0)
        assert np.abs(params.grad[enc]).max() > 0 and np.abs(params.grad[dec]).max() > 0
        assert not params.grad[params.shared_span()].any()

    def test_clone_shares_neither_buffer(self):
        params = ModelParams(ARCH, init_params(ARCH, seed=4).vector.copy(),
                             trainable=True)
        other = params.clone()
        assert np.array_equal(other.vector, params.vector)
        assert not np.shares_memory(other.vector, params.vector)
        assert other.grad is None
        for p in other.all_params():
            assert np.shares_memory(p.value, other.vector)
            assert not np.shares_memory(p.value, params.vector)

    def test_only_a_trainable_clone_has_a_grad(self, tmp_path):
        params = init_params(ARCH, seed=4)
        save_checkpoint(params, tmp_path / "m.ckpt")
        for model in (params, params.clone(), load_checkpoint(tmp_path / "m.ckpt"),
                      ModelParams(ARCH, params.vector.copy())):
            assert model.grad is None
            assert all(p.grad is None for p in model.all_params())
        trainable = ModelParams(ARCH, params.vector.copy(), trainable=True)
        assert not trainable.grad.any()
        assert all(np.shares_memory(p.grad, trainable.grad)
                   for p in trainable.all_params())

    def test_spans_partition_the_vector(self):
        params = init_params(ARCH, seed=5)
        covered = np.zeros(params.vector.size, dtype=int)
        for v in range(ARCH.n_views):
            for span, net in zip(params.view_spans(v),
                                 (params.encoders[v], params.decoders[v])):
                covered[span] += 1
                expected = np.concatenate([p.value.ravel() for p in net])
                assert np.array_equal(params.vector[span], expected)
        covered[params.shared_span()] += 1
        assert (covered == 1).all()

    def test_wrong_length_vector_rejected(self):
        size = init_params(ARCH, seed=0).vector.size
        with pytest.raises(DimensionError, match=f"needs {size}"):
            ModelParams(ARCH, np.zeros(size + 1))


def _checkpoint_offsets(arch):
    """Byte offsets of the value count and of the first value in MVP1."""
    count_at = 4 + 8 + 4 * arch.n_views + 16
    return count_at, count_at + 8


class TestFlattenCheckpoint:
    def test_vector_rebuilds_the_params(self):
        params = init_params(ARCH, seed=4)
        vec = params.vector.copy()
        rebuilt = ModelParams(ARCH, vec)
        assert rebuilt.vector is vec
        for a, b in zip(params.all_params(), rebuilt.all_params()):
            assert np.array_equal(a.value, b.value)

    def test_short_vector_rejected(self):
        params = init_params(ARCH, seed=4)
        with pytest.raises(DimensionError):
            ModelParams(ARCH, params.vector[:-1])

    def test_clone_is_independent(self):
        params = init_params(ARCH, seed=5)
        other = params.clone()
        other.feature_net[0].value[...] = 0.0
        assert np.abs(params.feature_net[0].value).max() > 0

    def test_checkpoint_roundtrip(self, tmp_path):
        params = init_params(ARCH, seed=6)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.arch == ARCH
        assert np.array_equal(loaded.vector, params.vector)

    def test_checkpoint_bad_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(ARCH, seed=8), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="magic"):
            load_checkpoint(path)

    def test_checkpoint_count_disagreeing_with_architecture(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(ARCH, seed=9), path)
        blob = bytearray(path.read_bytes())
        count_at, _ = _checkpoint_offsets(ARCH)
        (count,) = struct.unpack_from("<Q", blob, count_at)
        struct.pack_into("<Q", blob, count_at, count - 1)
        path.write_bytes(bytes(blob[:-8]))  # the file agrees with its header
        with pytest.raises(DataFormatError,
                           match=f"parameter vector has {count - 1} values.*needs {count}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_checkpoint_non_finite_value(self, tmp_path, bad):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(ARCH, seed=10), path)
        blob = bytearray(path.read_bytes())
        _, first = _checkpoint_offsets(ARCH)
        struct.pack_into("<d", blob, first + 8 * 17, bad)
        struct.pack_into("<d", blob, first + 8 * 40, bad)
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="parameter vector.*index 17$"):
            load_checkpoint(path)
