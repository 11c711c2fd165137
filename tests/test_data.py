"""Dataset generation, partitioning, view assignment, file formats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmvc.data import (
    CLIENT_FULL,
    CLIENT_PARTIAL,
    CLIENT_SINGLE,
    ClientShard,
    MultiViewDataset,
    assign_views,
    client_type_for,
    dirichlet_partition,
    generate_blobs,
    load_dataset,
    save_dataset,
)
from fedmvc.errors import ConfigError, DataFormatError, PartitionError
from fedmvc.evaluation import accuracy, kmeans_best


class TestGenerateBlobs:
    def test_single_cluster_all_label_zero(self):
        ds = generate_blobs(1, 10, [4], separation=3.0, noise_sigma=1.0, seed=0)
        assert (ds.labels == 0).all()

    def test_zero_separation_is_centered_noise(self):
        ds = generate_blobs(3, 4000, [5], separation=0.0, noise_sigma=1.0, seed=1)
        for v in ds.views:
            assert np.abs(v.mean(axis=0)).max() < 0.1

    def test_balanced_cluster_sizes(self):
        ds = generate_blobs(3, 11, [2, 3], separation=2.0, noise_sigma=0.5, seed=2)
        counts = np.bincount(ds.labels, minlength=3)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == 11

    def test_views_share_labels_but_not_means(self):
        ds = generate_blobs(4, 40, [6, 6], separation=8.0, noise_sigma=0.1, seed=3)
        centers0 = np.array([ds.views[0][ds.labels == k].mean(axis=0) for k in range(4)])
        centers1 = np.array([ds.views[1][ds.labels == k].mean(axis=0) for k in range(4)])
        assert not np.allclose(centers0, centers1, atol=1.0)

    def test_separated_blobs_kmeans_recovers_labels(self):
        # K=3, separation 6, noise 1: one view alone should be clusterable.
        ds = generate_blobs(3, 300, [8], separation=6.0, noise_sigma=1.0, seed=4)
        best, _ = kmeans_best(ds.views[0], 3, n_restarts=5, seed=0)
        assert accuracy(ds.labels, best.labels) >= 0.95

    def test_n_less_than_k_rejected(self):
        with pytest.raises(ConfigError):
            generate_blobs(5, 4, [2], separation=1.0, noise_sigma=1.0)

    def test_deterministic_per_seed(self):
        a = generate_blobs(2, 20, [3], 4.0, 1.0, seed=9)
        b = generate_blobs(2, 20, [3], 4.0, 1.0, seed=9)
        assert np.array_equal(a.views[0], b.views[0])
        assert np.array_equal(a.labels, b.labels)


class TestDirichletPartition:
    def test_single_client_gets_everything(self):
        labels = np.repeat([0, 1], 10)
        parts = dirichlet_partition(labels, 1, beta=1.0, seed=0)
        assert len(parts) == 1
        assert np.array_equal(parts[0], np.arange(20))

    def test_iid_split_sizes_and_fractions(self):
        labels = np.repeat(np.arange(4), 25)
        parts = dirichlet_partition(labels, 4, beta=None, seed=2)
        assert [p.size for p in parts] == [25, 25, 25, 25]
        global_frac = np.bincount(labels, minlength=4) / 100
        for p in parts:
            frac = np.bincount(labels[p], minlength=4) / p.size
            assert np.abs(frac - global_frac).max() < 0.15

    def test_disjoint_exact_cover(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 5, size=137)
        parts = dirichlet_partition(labels, 6, beta=1.0, seed=3)
        merged = np.concatenate(parts)
        assert merged.size == 137
        assert np.array_equal(np.sort(merged), np.arange(137))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(10, 200), st.integers(1, 8),
           st.floats(0.1, 100.0), st.integers(0, 10_000))
    def test_cover_property(self, n, n_clients, beta, seed):
        labels = np.random.default_rng(seed).integers(0, 4, size=n)
        try:
            parts = dirichlet_partition(labels, n_clients, beta, seed)
        except PartitionError:
            return  # legitimately impossible draws are reported, not silent
        merged = np.sort(np.concatenate(parts))
        assert np.array_equal(merged, np.arange(n))
        assert all(p.size > 0 for p in parts)

    def test_large_beta_approaches_iid(self):
        labels = np.repeat(np.arange(5), 200)
        global_frac = np.bincount(labels) / labels.size

        def max_dev(parts):
            return max(np.abs(np.bincount(labels[p], minlength=5) / p.size
                              - global_frac).max() for p in parts)

        dir_devs = [max_dev(dirichlet_partition(labels, 5, 1e6, seed=s))
                    for s in range(20)]
        iid_devs = [max_dev(dirichlet_partition(labels, 5, None, seed=s))
                    for s in range(20)]
        assert np.mean(dir_devs) < np.mean(iid_devs) + 0.05

    def test_impossible_partition_raises(self):
        with pytest.raises(PartitionError) as err:
            dirichlet_partition(np.zeros(3, dtype=int), 10, beta=1.0, seed=0)
        msg = str(err.value)
        assert "beta=1.0" in msg and "n_clients=10" in msg and "n_samples=3" in msg

    def test_bad_beta_rejected(self):
        with pytest.raises(ConfigError):
            dirichlet_partition(np.zeros(10, dtype=int), 2, beta=-1.0)


def types_of(subsets, n_views):
    return [client_type_for(len(s), n_views) for s in subsets]


class TestAssignViews:
    def test_full_only(self):
        out = assign_views(4, 3, seed=0, counts=(4, 0, 0))
        assert out == [(0, 1, 2)] * 4
        assert types_of(out, 3) == [CLIENT_FULL] * 4

    def test_single_only_sizes(self):
        out = assign_views(7, 3, seed=1, counts=(0, 0, 7))
        assert all(len(s) == 1 for s in out)
        assert types_of(out, 3) == [CLIENT_SINGLE] * 7
        assert set().union(*out) == {0, 1, 2}

    def test_mixed_covers_views_and_types_match(self):
        out = assign_views(6, 3, seed=2)
        assert set().union(*out) == {0, 1, 2}
        for ctype, subset in zip(types_of(out, 3), out):
            if len(subset) == 3:
                assert ctype == CLIENT_FULL
            elif len(subset) == 1:
                assert ctype == CLIENT_SINGLE
            else:
                assert ctype == CLIENT_PARTIAL

    def test_mixed_with_fixed_counts(self):
        out = assign_views(6, 3, seed=3, counts=(2, 2, 2))
        types = types_of(out, 3)
        assert types.count(CLIENT_FULL) == 2
        assert types.count(CLIENT_PARTIAL) == 2
        assert types.count(CLIENT_SINGLE) == 2
        assert set().union(*out) == {0, 1, 2}

    def test_uncoverable_configuration(self):
        with pytest.raises(ConfigError, match="could not cover all 3 views"):
            assign_views(2, 3, seed=0, counts=(0, 0, 2))
        with pytest.raises(ConfigError):
            assign_views(0, 3, seed=0)

    def test_counts_must_sum(self):
        with pytest.raises(ConfigError):
            assign_views(6, 3, seed=0, counts=(1, 1, 1))

    def test_partial_clients_need_three_views(self):
        with pytest.raises(ConfigError, match="partial clients need at least 3 views"):
            assign_views(2, 2, seed=0, counts=(1, 1, 0))

    @pytest.mark.parametrize("counts", [None, (3, 0, 0), (1, 0, 2), (0, 0, 3)])
    def test_one_view_makes_every_client_single(self, counts):
        # the one view is all views, so every draw holds it; a client that
        # holds one view trains as a single-view client
        out = assign_views(3, 1, seed=0, counts=counts)
        assert out == [(0,)] * 3
        assert types_of(out, 1) == [CLIENT_SINGLE] * 3

    @pytest.mark.parametrize("counts", [None, (2, 2, 2), (6, 0, 0), (0, 0, 6)])
    def test_shards_hold_plain_int_views(self, counts):
        # a drawn subset may hold numpy integers; a shard holds ints
        for seed in range(10):
            for i, subset in enumerate(assign_views(6, 3, seed=seed, counts=counts)):
                shard = ClientShard(i, subset, np.arange(2))
                assert shard.view_subset == subset
                assert all(type(v) is int for v in shard.view_subset)


class TestShardInvariants:
    def test_duplicate_indices_rejected(self):
        with pytest.raises(ConfigError):
            ClientShard(0, (0,), np.array([1, 1, 2]))

    def test_non_integer_view_rejected(self):
        with pytest.raises(TypeError):
            ClientShard(0, (1.7,), np.arange(3))

    def test_empty_shard_rejected(self):
        with pytest.raises(ConfigError):
            ClientShard(0, (0,), np.array([], dtype=int))


class TestDatasetIO:
    def _random_dataset(self, labeled=True):
        rng = np.random.default_rng(5)
        views = [rng.standard_normal((12, 3)), rng.standard_normal((12, 5))]
        labels = rng.integers(0, 4, size=12) if labeled else None
        return MultiViewDataset(views, labels, 4)

    @pytest.mark.parametrize("labeled", [True, False])
    def test_roundtrip_bit_exact(self, tmp_path, labeled):
        ds = self._random_dataset(labeled)
        path = tmp_path / "data.mvd"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.n_clusters == ds.n_clusters
        for a, b in zip(ds.views, loaded.views):
            assert np.array_equal(a, b)
        if labeled:
            assert np.array_equal(ds.labels, loaded.labels)
        else:
            assert loaded.labels is None

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "data.mvd"
        save_dataset(self._random_dataset(), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"JUNK"
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="magic"):
            load_dataset(path)

    def test_truncated_view_payload_names_view(self, tmp_path):
        path = tmp_path / "data.mvd"
        save_dataset(self._random_dataset(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 8 * 12 - 30])  # cut into view 1
        with pytest.raises(DataFormatError, match="view 1"):
            load_dataset(path)

    def test_view_row_mismatch_names_view(self):
        with pytest.raises(DataFormatError, match="view 1"):
            MultiViewDataset([np.zeros((10, 2)), np.zeros((9, 2))], None, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_view_and_row(self, bad):
        views = [np.zeros((5, 2)), np.zeros((5, 3))]
        views[1][3, 2] = bad
        views[1][4, 0] = bad
        with pytest.raises(DataFormatError, match="view 1 .* row 3"):
            MultiViewDataset(views, None, 2)

    def test_standardized(self):
        ds = self._random_dataset()
        std = ds.standardized()
        for v in std.views:
            assert np.abs(v.mean(axis=0)).max() < 1e-12
            assert np.abs(v.std(axis=0) - 1.0).max() < 1e-12
