"""Round loop: local training, weights, masked aggregation, determinism."""

import dataclasses
import gc
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from helpers import aggregate_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmvc import evaluation, federation
from fedmvc import tensor as T
from fedmvc.config import ExperimentConfig
from fedmvc.data import ClientShard, client_type_for, generate_blobs
from fedmvc.errors import ConfigError, FedmvcError, NonFiniteError, TrainingError
from fedmvc.evaluation import kmeans, kmeans_best
from fedmvc.federation import (
    ClientState,
    aggregate,
    broadcast,
    build_clients,
    compute_weights,
    derive_seeds,
    local_train_round,
    pretrain_client,
    run_federation,
)
from fedmvc.losses import (
    drift_loss,
    feature_contrast_full,
    label_contrast,
    partial_contrast,
    reconstruction_loss,
    single_view_contrast,
)
from fedmvc.model import (
    Architecture,
    ModelParams,
    encode,
    forward_views,
    high_features,
    infer_fused,
    init_params,
    load_checkpoint,
    save_checkpoint,
)

ARCH = Architecture(view_dims=(4, 3), n_clusters=2, latent_dim=4, high_dim=5,
                    hidden=6)
ARCH3 = Architecture(view_dims=(4, 3, 2), n_clusters=2, latent_dim=4, high_dim=5,
                     hidden=6)


def tiny_config(**overrides):
    base = dict(seed=0, n_clusters=2, n_samples=40, view_dims=(4, 3),
                separation=5.0, noise_sigma=1.0, n_clients=2,
                dirichlet_beta=1.0, rounds=2,
                warmup_epochs=1, local_epochs=1, batch_size=20, lr=1e-3,
                latent_dim=4, high_dim=5, hidden=6, eval_restarts=2,
                output_dir="unused")
    base.update(overrides)
    # every client holds every view unless the mix is given (None draws it)
    base.setdefault("mixed_counts", (base["n_clients"], 0, 0))
    return ExperimentConfig(**base)


def make_client(client_id=0, subset=(0, 1), n=12, seed=5, arch=ARCH):
    rng = np.random.default_rng(seed)
    shard = ClientShard(client_id, subset, np.arange(n))
    views = {v: rng.standard_normal((n, arch.view_dims[v])) for v in subset}
    return ClientState(shard=shard, views=views, snapshot=init_params(arch, seed=seed),
                       rng=np.random.default_rng(seed + 100))


def workspace(model):
    """Optimizer state and scratch for any optimizer over ``model``."""
    return T.optimizer_workspace(model.vector.size)


def warm_up(client, epochs, lr=1e-3, batch_size=8, optimizer_mode="adam"):
    """``pretrain_client`` in a fresh working model, which it returns."""
    working = ModelParams(client.snapshot.arch, trainable=True)
    cfg = tiny_config(warmup_epochs=epochs, lr=lr, batch_size=batch_size,
                      optimizer=optimizer_mode)
    pretrain_client(client, cfg, working, workspace(working))
    return working


def train_round(client, global_params, cfg, round_index):
    """``local_train_round`` in a fresh working model."""
    working = ModelParams(client.snapshot.arch, trainable=True)
    local_train_round(client, global_params, cfg, round_index, working,
                      workspace(working))


class TestClientType:
    @pytest.mark.parametrize("view_dims,expected", [
        ((4,), ["single"]),  # one view is single-view, though it is all views
        ((4, 3), ["single", "full"]),
        ((4, 3, 2), ["single", "partial", "full"]),
    ])
    def test_follows_the_subset_size(self, view_dims, expected):
        n_views = len(view_dims)
        arch = Architecture(view_dims, n_clusters=2, latent_dim=4, high_dim=5,
                            hidden=6)
        for size, ctype in enumerate(expected, start=1):
            assert client_type_for(size, n_views) == ctype
            for subset in itertools.combinations(range(n_views), size):
                assert make_client(subset=subset, n=4, arch=arch).client_type == ctype


class TestPretrain:
    def test_zero_epochs_leaves_the_snapshot(self):
        client = make_client()
        before = client.snapshot.vector.copy()
        warm_up(client, epochs=0)
        assert np.array_equal(client.snapshot.vector, before)

    def test_warmup_reduces_reconstruction(self):
        deltas = []
        for seed in range(5):
            client = make_client(seed=seed)

            def recon_now():
                tape = T.Tape()
                fwd = forward_views(tape, client.snapshot, client.views)
                order = sorted(client.views)
                loss = reconstruction_loss([client.views[v] for v in order],
                                           [fwd.recons[v] for v in order])
                return float(loss.value[0, 0])

            before = recon_now()
            warm_up(client, epochs=20, batch_size=6)
            deltas.append(recon_now() - before)
        assert np.median(deltas) < 0

    def test_single_step_matches_manual(self):
        client = make_client(seed=7)
        manual = ModelParams(ARCH, client.snapshot.vector.copy(), trainable=True)
        rng = np.random.default_rng(7 + 100)  # same stream the client consumes
        rows = rng.permutation(client.shard.n_samples)

        tape = T.Tape()
        order = sorted(client.views)
        recons = []
        from fedmvc.model import encode_decode
        for v in order:
            _, xhat = encode_decode(tape, manual, client.views[v][rows], v)
            recons.append(xhat)
        loss = reconstruction_loss([client.views[v][rows] for v in order], recons)
        tape.backward(loss)
        T.make_optimizer("adam", 1e-3, manual.vector, manual.grad,
                         manual.owned_spans((0, 1)), workspace(manual)).step()

        warm_up(client, epochs=1, batch_size=client.shard.n_samples)
        assert np.array_equal(client.snapshot.vector, manual.vector)

    @pytest.mark.parametrize("ctype,subset", [
        ("full", (0, 1, 2)), ("partial", (0, 2)), ("single", (1,))],
        ids=["full", "partial", "single"])
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_warmup_never_touches_the_shared_nets(self, ctype, subset, optimizer):
        # warm-up steps only the owned autoencoder spans; that is exact only
        # because the reconstruction loss gives the shared nets no gradient
        client = make_client(subset=subset, n=11, seed=61, arch=ARCH3)
        snapshot = client.snapshot
        shared = snapshot.shared_span()
        before = snapshot.vector.copy()
        working = warm_up(client, epochs=3, lr=1e-2, batch_size=4,
                          optimizer_mode=optimizer)
        assert snapshot.vector[shared].tobytes() == before[shared].tobytes()
        assert not working.grad.any()
        for v in subset:  # the owned autoencoders did train
            for span in snapshot.view_spans(v):
                assert not np.array_equal(snapshot.vector[span], before[span])


class TestLocalTrainRound:
    def test_zero_epochs_snapshot_the_start_point(self):
        # round 1 starts from the snapshot, later rounds from the global model
        client = make_client()
        before = client.snapshot.vector.copy()
        global_params = init_params(ARCH, seed=1)
        cfg = tiny_config(local_epochs=0)
        train_round(client, global_params, cfg, round_index=1)
        assert np.array_equal(client.snapshot.vector, before)
        train_round(client, global_params, cfg, round_index=2)
        assert np.array_equal(client.snapshot.vector, global_params.vector)

    def test_requires_broadcast(self):
        client = make_client()
        with pytest.raises(ValueError):
            train_round(client, None, tiny_config(), round_index=1)

    def test_unowned_view_params_untouched(self):
        client = make_client(subset=(0,), n=10)
        cfg = tiny_config(local_epochs=3, batch_size=4)
        global_params = init_params(ARCH, seed=3)
        initial = init_params(ARCH, seed=5)  # the client's first snapshot
        for r, start in ((1, initial), (2, global_params), (3, global_params)):
            train_round(client, global_params, cfg, round_index=r)
            for p, q in zip(client.snapshot.view_params(1), start.view_params(1)):
                assert np.array_equal(p.value, q.value)
            assert not np.array_equal(client.snapshot.vector, start.vector)

    @pytest.mark.parametrize("ctype,subset", [
        ("full", (0, 1, 2)), ("partial", (0, 2)), ("single", (1,))],
        ids=["full", "partial", "single"])
    def test_one_step_matches_manual_assembly(self, monkeypatch, ctype, subset):
        # the single-view client's noisy forward shares leaves with the
        # proximal term, so each leaf's gradient sums in tape order; the
        # gradients are compared too, as one step may round a difference away
        steps = []

        class RecordingAdam(T.Adam):
            def step(self):
                steps.append(self.grad.copy())
                super().step()

        monkeypatch.setattr(federation, "make_optimizer",
                            lambda mode, lr, *buffers: RecordingAdam(lr, *buffers))
        n = 8
        client = make_client(subset=subset, n=n, seed=51, arch=ARCH3)
        client.snapshot = init_params(ARCH3, seed=52)
        global_params = init_params(ARCH3, seed=53)
        cfg = tiny_config(local_epochs=1, batch_size=n, lr=2e-3)

        manual = ModelParams(global_params.arch, global_params.vector.copy(),
                             trainable=True)  # round 2 starts from it
        rng = np.random.default_rng(51 + 100)
        rows = rng.permutation(n)
        views_b = {v: client.views[v][rows] for v in subset}
        tape = T.Tape()
        fwd = forward_views(tape, manual, views_b, want_probs=ctype == "full")
        feats = [fwd.feats[v] for v in subset]
        recon = reconstruction_loss([views_b[v] for v in subset],
                                    [fwd.recons[v] for v in subset])
        frozen_feats = infer_fused(client.snapshot, views_b)
        global_feats = infer_fused(global_params, views_b)
        if ctype == "full":
            feature = feature_contrast_full(feats, cfg.tau)
            contrast = T.add(label_contrast([fwd.probs[v] for v in subset], cfg.tau),
                             feature)
            pos, neg = frozen_feats, global_feats
        elif ctype == "partial":
            contrast = partial_contrast(fwd.fused, feats, cfg.tau)
            pos, neg = global_feats, frozen_feats
        else:
            (v0,) = subset
            x = views_b[v0]
            noisy = x + rng.standard_normal(x.shape) * cfg.sigma_noise
            noisy_feat = high_features(tape, manual, encode(tape, manual, noisy, v0))
            contrast = single_view_contrast(fwd.fused, fwd.feats[v0], noisy_feat,
                                            cfg.tau)
            pos, neg = global_feats, noisy_feat.value.copy()
        trainable = manual.trainable_params(subset)
        drift = drift_loss(
            fwd.fused, pos, neg, [tape.leaf(p) for p in trainable],
            [p.value for p in global_params.trainable_params(subset)],
            cfg.tau, cfg.mu)
        tape.backward(T.add(T.add(recon, T.scale(contrast, cfg.alpha)),
                            T.scale(drift, 1.0 - cfg.alpha)))
        grad = manual.grad.copy()
        T.make_optimizer("adam", cfg.lr, manual.vector, manual.grad,
                         manual.owned_spans(subset), workspace(manual)).step()

        train_round(client, global_params, cfg, round_index=2)
        (seen,) = steps
        assert np.array_equal(seen, grad)
        assert np.array_equal(client.snapshot.vector, manual.vector)

    def test_full_client_epochs_match_manual_assembly_with_batch_references(self):
        # the round slices references inferred once over the shard; the manual
        # assembly infers them per batch, as the drift term is defined
        n, batch_size, epochs = 10, 4, 3
        client = make_client(seed=31, n=n)
        client.snapshot = init_params(ARCH, seed=32)
        global_params = init_params(ARCH, seed=33)
        cfg = tiny_config(local_epochs=epochs, batch_size=batch_size, lr=2e-3)

        manual = ModelParams(global_params.arch, global_params.vector.copy(),
                             trainable=True)  # round 2 starts from it
        trainable = manual.trainable_params((0, 1))
        opt = T.make_optimizer("adam", cfg.lr, manual.vector, manual.grad,
                               manual.owned_spans((0, 1)), workspace(manual))
        rng = np.random.default_rng(31 + 100)
        steps = 0
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):  # 4 + 4 + 2: no folded tail
                rows = order[start:start + batch_size]
                views_b = {v: client.views[v][rows] for v in client.views}
                tape = T.Tape()
                fwd = forward_views(tape, manual, views_b, want_probs=True)
                recon = reconstruction_loss([views_b[v] for v in (0, 1)],
                                            [fwd.recons[v] for v in (0, 1)])
                feature = feature_contrast_full([fwd.feats[v] for v in (0, 1)],
                                                cfg.tau)
                contrast = T.add(label_contrast([fwd.probs[v] for v in (0, 1)],
                                                cfg.tau), feature)
                drift = drift_loss(
                    fwd.fused,
                    infer_fused(client.snapshot, views_b),
                    infer_fused(global_params, views_b),
                    [tape.leaf(p) for p in trainable],
                    [p.value for p in global_params.trainable_params((0, 1))],
                    cfg.tau, cfg.mu)
                tape.backward(T.add(T.add(recon, T.scale(contrast, cfg.alpha)),
                                    T.scale(drift, 1.0 - cfg.alpha)))
                opt.step()
                steps += 1
        assert steps == 9

        train_round(client, global_params, cfg, round_index=2)
        assert np.array_equal(client.snapshot.vector, manual.vector)

    @pytest.mark.parametrize("ctype,subset,refs", [
        ("full", (0, 1, 2), 2), ("partial", (0, 2), 2), ("single", (1,), 1)])
    def test_drift_references_inferred_once_per_round(self, monkeypatch, ctype,
                                                      subset, refs):
        n = 11
        calls = []

        def counting(params, views):
            calls.append({v: x.shape[0] for v, x in views.items()})
            return infer_fused(params, views)

        monkeypatch.setattr(federation, "infer_fused", counting)
        client = make_client(subset=subset, n=n, seed=41, arch=ARCH3)
        cfg = tiny_config(local_epochs=3, batch_size=4)
        global_params = init_params(ARCH3, seed=42)
        train_round(client, global_params, cfg, round_index=1)
        assert calls == []
        train_round(client, global_params, cfg, round_index=2)
        assert calls == [dict.fromkeys(subset, n)] * refs

    def test_full_client_drift_step_records_few_tape_nodes(self, monkeypatch):
        # each contrast is one node, so a two-view full client's drift step
        # records 54 nodes, 22 of them parameter leaves (its one step is the
        # round's first, which leaves the proximal term out)
        counts = []
        backward = T.Tape.backward

        def counting(tape, loss):
            counts.append(len(tape._nodes))
            backward(tape, loss)

        monkeypatch.setattr(T.Tape, "backward", counting)
        client = make_client(n=8, seed=12)
        cfg = tiny_config(local_epochs=1, batch_size=8)
        train_round(client, init_params(ARCH, seed=13), cfg, round_index=2)
        (nodes,) = counts
        assert nodes < 60

    def test_round_one_skips_drift(self):
        # round 1 starts from the snapshot, so the global model reaches it
        # only through the drift term: two different global models must
        # give identical results
        c1 = make_client(seed=21, n=8)
        c2 = make_client(seed=21, n=8)
        cfg = tiny_config(local_epochs=1, batch_size=8)
        train_round(c1, init_params(ARCH, seed=1), cfg, round_index=1)
        train_round(c2, init_params(ARCH, seed=77), cfg, round_index=1)
        assert np.array_equal(c1.snapshot.vector, c2.snapshot.vector)


CLIENTS3 = [("full", (0, 1, 2)), ("partial", (0, 2)), ("single", (1,))]


def one_step_stats(ctype, subset, round_index, n=8, **overrides):
    """The stats of a local round of one step: one epoch of one batch."""
    client = make_client(subset=subset, n=n, seed=61, arch=ARCH3)
    client.snapshot = init_params(ARCH3, seed=62)
    cfg = tiny_config(local_epochs=1, batch_size=n, **overrides)
    working = ModelParams(ARCH3, trainable=True)
    return local_train_round(client, init_params(ARCH3, seed=63), cfg, round_index,
                             working, workspace(working))


class TestObjective:
    """The step composes recon + alpha*contrast + (1 - alpha)*drift."""

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("no_contrast", [False, True])
    @pytest.mark.parametrize("round_index", [1, 2])
    @pytest.mark.parametrize("ctype,subset", CLIENTS3, ids=["full", "partial", "single"])
    def test_total_composes_the_terms(self, ctype, subset, round_index, no_contrast,
                                      alpha):
        s = one_step_stats(ctype, subset, round_index, alpha=alpha,
                           no_contrast=no_contrast)
        if round_index == 1:
            assert s["drift"] == 0.0
            assert s["total"] == s["recon"] + alpha * s["contrast"]
        else:
            assert s["drift"] != 0.0
            assert s["total"] == (s["recon"] + alpha * s["contrast"]
                                  + (1 - alpha) * s["drift"])
        assert (s["contrast"] == 0.0) == no_contrast

    @pytest.mark.parametrize("round_index", [1, 2])
    def test_one_row_partial_shard_has_no_contrast(self, round_index):
        s = one_step_stats("partial", (0, 2), round_index, n=1, alpha=0.5)
        assert s["contrast"] == 0.0
        assert s["total"] == s["recon"] + 0.5 * s["drift"]

    @pytest.mark.parametrize("ctype,subset", CLIENTS3, ids=["full", "partial", "single"])
    def test_each_term_is_called_through_federation(self, monkeypatch, ctype, subset):
        # the benchmark's tracer times the loss terms by these names
        names = ("reconstruction_loss", "feature_contrast_full", "label_contrast",
                 "partial_contrast", "single_view_contrast", "drift_loss")
        calls = dict.fromkeys(names, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(federation, name,
                                counting(name, getattr(federation, name)))
        client = make_client(subset=subset, n=8, seed=71, arch=ARCH3)
        cfg = tiny_config(local_epochs=2, batch_size=4)
        train_round(client, init_params(ARCH3, seed=72), cfg, round_index=2)
        own = {"full": ("feature_contrast_full", "label_contrast"),
               "partial": ("partial_contrast",),
               "single": ("single_view_contrast",)}[ctype]
        expected = dict.fromkeys(names, 0)
        for name in ("reconstruction_loss", *own, "drift_loss"):
            expected[name] = 4  # two epochs of two batches
        assert calls == expected


def round_start(subset, n=8, seed=82):
    """A client, the global model and the working model at the start of a
    round from 2 on, when ``broadcast`` has copied the global model in."""
    client = make_client(subset=subset, n=n, seed=seed, arch=ARCH3)
    client.snapshot = init_params(ARCH3, seed=seed + 1)
    global_params = init_params(ARCH3, seed=seed + 2)
    working = ModelParams(ARCH3, global_params.vector.copy(), trainable=True)
    return client, global_params, working


def step_at(client, working, global_params, cfg, rows, mu, refs, use_contrast=True):
    """``_train_step``'s stats and the gradient its backward leaves in
    ``working``, which is cleared again. The client's rng is restored, so
    every call draws the same single-view noise."""
    state = client.rng.bit_generator.state
    trainable = working.trainable_params(client.shard.view_subset)
    loss, stats = federation._train_step(client, working, rows, global_params, cfg,
                                         use_contrast, refs, trainable, mu)
    loss.tape.backward(loss)
    grad = working.grad.copy()
    working.grad[...] = 0.0
    client.rng.bit_generator.state = state
    return stats, grad


def stat_bits(stats):
    return np.array(list(stats.values())).tobytes()


class TestProximalTermAtRoundStart:
    """A round's first step runs at the global model, where the proximal
    term and its gradient are +0.0, so the round leaves it out."""

    @pytest.mark.parametrize("ctype,subset", CLIENTS3, ids=["full", "partial", "single"])
    def test_first_step_is_bitwise_the_same_without_the_term(self, ctype, subset):
        client, global_params, working = round_start(subset)
        cfg = tiny_config(mu=0.5)
        refs = federation._drift_references(client, global_params)
        rows = np.random.default_rng(3).permutation(client.shard.n_samples)
        with_term = step_at(client, working, global_params, cfg, rows, cfg.mu, refs)
        without = step_at(client, working, global_params, cfg, rows, 0.0, refs)
        assert stat_bits(with_term[0]) == stat_bits(without[0])
        assert with_term[1].tobytes() == without[1].tobytes()

        # control: one update later the term is no longer zero
        working.grad[...] = with_term[1]
        T.make_optimizer("adam", 1e-2, working.vector, working.grad,
                         working.owned_spans(subset), workspace(working)).step()
        with_term = step_at(client, working, global_params, cfg, rows, cfg.mu, refs)
        without = step_at(client, working, global_params, cfg, rows, 0.0, refs)
        assert with_term[0]["drift"] > without[0]["drift"]
        assert with_term[0]["total"] > without[0]["total"]
        assert not np.array_equal(with_term[1], without[1])

    @pytest.mark.parametrize("ctype,subset", CLIENTS3, ids=["full", "partial", "single"])
    def test_round_passes_mu_to_every_step_but_the_first(self, monkeypatch, ctype,
                                                         subset):
        mus = []
        step = federation._train_step

        def recording(*args):
            mus.append(args[-1])
            return step(*args)

        monkeypatch.setattr(federation, "_train_step", recording)
        client = make_client(subset=subset, n=8, seed=83, arch=ARCH3)
        cfg = tiny_config(local_epochs=2, batch_size=4, mu=0.5)
        train_round(client, init_params(ARCH3, seed=84), cfg, round_index=2)
        assert mus == [0.0, 0.5, 0.5, 0.5]

    def test_every_step_starts_from_a_clear_gradient(self, monkeypatch):
        # leaving a +0.0 out of a leaf's gradient is exact only because every
        # coordinate of the gradient buffer holds +0.0 when a step starts
        phase = federation._train_phase
        starts = []

        def checking(client, config, epochs, where, working, ws, spans, step, keys):
            def checked(rows):
                assert not working.grad.any()
                assert not np.signbit(working.grad).any()
                starts.append(where)
                return step(rows)
            return phase(client, config, epochs, where, working, ws, spans, checked,
                         keys)

        monkeypatch.setattr(federation, "_train_phase", checking)
        cfg = tiny_config(n_clients=3, mixed_counts=(1, 1, 1),
                          view_dims=(4, 3, 2), rounds=2, warmup_epochs=2,
                          local_epochs=2, batch_size=5)
        ds = generate_blobs(2, 36, (4, 3, 2), 5.0, 1.0, seed=2)
        run_federation(cfg, ds)
        assert set(starts) == {"warm-up", "round 1", "round 2"}


def noisy_negative(client, params, rows, cfg):
    """A single-view client's drift negative at ``params`` as a shard-sized
    reference: its features of the batch rows plus the noise the client's
    next step draws."""
    state = client.rng.bit_generator.state
    (v,) = client.shard.view_subset
    x = client.views[v][rows]
    noisy = x + client.rng.standard_normal(x.shape) * cfg.sigma_noise
    client.rng.bit_generator.state = state
    neg = np.full((client.shard.n_samples, params.arch.high_dim), np.nan)
    neg[rows] = infer_fused(params, {v: noisy})
    return neg


class TestWholeObjectiveGradient:
    """The gradient the optimizer steps is the derivative of the total that
    ``_train_step`` reports, with respect to the working model's vector."""

    @pytest.mark.parametrize("later", [False, True], ids=["first_step", "later_step"])
    @pytest.mark.parametrize("use_drift", [True, False], ids=["drift", "no_drift"])
    @pytest.mark.parametrize("use_contrast", [True, False],
                             ids=["contrast", "no_contrast"])
    @pytest.mark.parametrize("ctype,subset", CLIENTS3, ids=["full", "partial", "single"])
    def test_directional_central_difference(self, ctype, subset, use_contrast,
                                            use_drift, later):
        client, global_params, working = round_start(subset)
        cfg = tiny_config(mu=0.5)
        rng = np.random.default_rng(len(subset) + 10 * later)
        spans = working.owned_spans(subset)
        owned = np.zeros(working.vector.size, dtype=bool)
        for span in spans:
            owned[span] = True
        if later:  # away from the global model, as after an update
            working.vector[owned] += 0.05 * rng.standard_normal(owned.sum())
        # a zero feature row is a kink of the cosines: stay off it
        assert np.linalg.norm(infer_fused(working, client.views), axis=1).min() > 1e-3
        direction = np.where(owned, rng.standard_normal(owned.size), 0.0)
        direction /= np.linalg.norm(direction)
        rows = rng.permutation(client.shard.n_samples)
        refs = (federation._drift_references(client, global_params)
                if use_drift else None)
        # the step the round takes: its first leaves the proximal term out
        stats, grad = step_at(client, working, global_params, cfg, rows,
                              cfg.mu if later else 0.0, refs, use_contrast)
        assert not grad[~owned].any()  # the optimizer steps all of it
        if ctype == "single" and use_drift:
            # the step takes its noisy negative as a constant: hold it there
            refs = (refs[0], noisy_negative(client, working, rows, cfg))

        start = working.vector.copy()

        def total(w):
            working.vector[...] = w
            s, _ = step_at(client, working, global_params, cfg, rows, cfg.mu, refs,
                           use_contrast)
            return s["total"]

        assert total(start) == stats["total"]
        h = 1e-6
        numeric = (total(start + h * direction) - total(start - h * direction)) / (2 * h)
        assert numeric == pytest.approx(grad @ direction, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("ctype,subset", CLIENTS3, ids=["full", "partial", "single"])
    def test_warm_up_step(self, monkeypatch, ctype, subset):
        # the step warm-up takes, captured from the loop it hands it to
        phases = []

        def capturing(client, config, epochs, where, working, ws, spans, step, keys):
            phases.append((working, spans, step))
            return dict.fromkeys(keys, 0.0)

        monkeypatch.setattr(federation, "_train_phase", capturing)
        client = make_client(subset=subset, n=8, seed=86, arch=ARCH3)
        warm_up(client, epochs=1)
        ((working, spans, step),) = phases
        assert spans == working.owned_spans(subset, shared=False)
        owned = np.zeros(working.vector.size, dtype=bool)
        for span in spans:
            owned[span] = True
        rows = np.random.default_rng(len(subset)).permutation(client.shard.n_samples)
        loss, stats = step(rows)
        loss.tape.backward(loss)
        grad = working.grad.copy()
        working.grad[...] = 0.0
        assert not grad[~owned].any()  # the optimizer steps all of it

        start = working.vector.copy()

        def total(w):
            working.vector[...] = w
            return step(rows)[1]["recon"]

        assert total(start) == stats["recon"]
        rng = np.random.default_rng(87)
        h = 1e-6
        # each view's autoencoder on its own, then all of them: a view whose
        # reconstruction the loss left out would have a zero derivative
        views = [working.view_spans(v) for v in subset]
        for view_spans in [*views, spans]:
            direction = np.zeros(working.vector.size)
            for span in view_spans:
                direction[span] = rng.standard_normal(span.stop - span.start)
            direction /= np.linalg.norm(direction)
            numeric = (total(start + h * direction)
                       - total(start - h * direction)) / (2 * h)
            assert numeric == pytest.approx(grad @ direction, rel=1e-6, abs=1e-9)
            assert grad @ direction != 0.0


def batch_holding(row, n, batch_size, seed):
    """1-based index of the first-epoch batch that holds ``row`` for a
    ``make_client(seed=seed)`` client; no tail is folded for these sizes."""
    order = np.random.default_rng(seed + 100).permutation(n)
    return int(np.flatnonzero(order == row)[0]) // batch_size + 1


class TestTrainingErrors:
    """A non-finite loss or gradient names where it happened and which term."""

    def test_warm_up_names_client_batch_and_recon(self):
        client = make_client(client_id=3, n=12, seed=61)
        client.views[1][7] *= 1e200  # its squared residual overflows
        batch = batch_holding(7, 12, 4, seed=61)
        message = (f"warm-up, client 3, epoch 1, batch {batch}: "
                   f"non-finite recon loss (inf)")
        assert batch == 3
        with np.errstate(over="ignore"), pytest.raises(TrainingError,
                                                       match=re.escape(message)):
            warm_up(client, epochs=2, batch_size=4)

    def test_round_names_the_contrast(self):
        client = make_client(client_id=2, n=8, seed=62)
        for w in client.snapshot.feature_net[::2]:
            w.value[...] = 1e300  # high-level features overflow; recon is untouched
        cfg = tiny_config(local_epochs=1, batch_size=8)
        with np.errstate(all="ignore"), pytest.raises(
                TrainingError, match="round 1, client 2, epoch 1, batch 1: "
                                     "non-finite contrast loss"):
            train_round(client, init_params(ARCH, seed=1), cfg, round_index=1)

    def test_round_names_the_drift(self):
        # round 4 trains from the finite global model, so recon and contrast
        # stay finite; only the drift term reads the snapshot, whose
        # overflowing feature net gives non-finite reference features
        client = make_client(client_id=1, n=12, seed=63)
        for w in client.snapshot.feature_net[::2]:
            w.value[...] = 1e300
        cfg = tiny_config(local_epochs=2, batch_size=4)
        message = "round 4, client 1, epoch 1, batch 1: non-finite drift loss (nan)"
        with np.errstate(all="ignore"), pytest.raises(TrainingError,
                                                      match=re.escape(message)):
            train_round(client, init_params(ARCH, seed=64), cfg, round_index=4)

    def test_optimizer_failure_is_located(self, monkeypatch):
        class FailingThirdStep(T.Adam):
            calls = 0

            def step(self):
                FailingThirdStep.calls += 1
                if FailingThirdStep.calls == 3:
                    raise TrainingError("non-finite gradient encountered during "
                                        "optimizer step")
                super().step()

        monkeypatch.setattr(federation, "make_optimizer",
                            lambda mode, lr, *buffers: FailingThirdStep(lr, *buffers))
        client = make_client(n=8, seed=65)
        cfg = tiny_config(local_epochs=2, batch_size=4)
        with pytest.raises(TrainingError, match="round 2, client 0, epoch 2, batch 1: "
                                                "non-finite gradient"):
            train_round(client, init_params(ARCH, seed=1), cfg, round_index=2)


def shard_of(client_id, n_samples, n_views):
    """A shard of ``n_samples`` rows holding the first ``n_views`` views."""
    return ClientShard(client_id, tuple(range(n_views)), np.arange(n_samples))


class TestWeights:
    def test_uniform_when_equal(self):
        shards = [shard_of(i, 10, 2) for i in range(4)]
        w = compute_weights(shards, 3, "linear")
        assert np.allclose(w, 0.25, atol=1e-15)
        assert abs(w.sum() - 1.0) < 1e-12

    def test_view_coverage_example(self):
        shards = [shard_of(0, 50, 1), shard_of(1, 50, 3)]
        w = compute_weights(shards, 3, "linear")
        assert np.allclose(w, [0.25, 0.75], atol=1e-12)

    def test_sample_scale_invariance(self):
        shards = [shard_of(0, 10, 1), shard_of(1, 30, 2)]
        doubled = [shard_of(0, 20, 1), shard_of(1, 60, 2)]
        assert np.allclose(compute_weights(shards, 2, "linear"),
                           compute_weights(doubled, 2, "linear"), atol=1e-15)

    def test_modes(self):
        shards = [shard_of(0, 10, 1), shard_of(1, 10, 2)]
        lin = compute_weights(shards, 2, "linear")
        unif = compute_weights(shards, 2, "uniform")
        assert np.allclose(lin, [1 / 3, 2 / 3])
        assert np.allclose(unif, [0.5, 0.5])

    def test_no_clients(self):
        with pytest.raises(ValueError):
            compute_weights([], 2, "linear")

    def test_random_shards_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            c = int(rng.integers(1, 12))
            total_views = int(rng.integers(1, 6))
            shards = [shard_of(i, int(rng.integers(1, 500)),
                               int(rng.integers(1, total_views + 1)))
                      for i in range(c)]
            mode = ("linear", "uniform")[int(rng.integers(2))]
            w = compute_weights(shards, total_views, mode)
            assert abs(w.sum() - 1.0) < 1e-12
            assert (w > 0).all()


def shard_for(client_id, subset, n=4):
    return ClientShard(client_id, subset, np.arange(n) + 100 * client_id)


class TestAggregate:
    def test_identical_clients_identity(self):
        g = init_params(ARCH, seed=0)
        params = [init_params(ARCH, seed=1) for _ in range(3)]
        shards = [shard_for(i, (0, 1)) for i in range(3)]
        out = aggregate(g, params, shards, [0.2, 0.3, 0.5])
        assert np.allclose(out.vector, params[0].vector, atol=1e-15)

    def test_two_client_mean(self):
        g = init_params(ARCH, seed=0)
        a, b = init_params(ARCH, seed=1), init_params(ARCH, seed=1)
        a.feature_net[0].value[...] = 0.0
        b.feature_net[0].value[...] = 2.0
        shards = [shard_for(0, (0, 1)), shard_for(1, (0, 1))]
        out = aggregate(g, [a, b], shards, [0.5, 0.5])
        assert np.allclose(out.feature_net[0].value, 1.0)

    def test_masked_view_renormalization(self):
        # view 0 owned by clients A and B with global weights 0.2 / 0.3:
        # its parameters must use the renormalized weights 0.4 / 0.6
        g = init_params(ARCH, seed=0)
        params = [init_params(ARCH, seed=s) for s in (1, 2, 3)]
        shards = [shard_for(0, (0, 1)), shard_for(1, (0, 1)),
                  ClientShard(2, (1,), np.arange(4) + 500)]
        weights = [0.2, 0.3, 0.5]
        out = aggregate(g, params, shards, weights)
        expected = 0.4 * params[0].encoders[0][0].value \
            + 0.6 * params[1].encoders[0][0].value
        assert np.allclose(out.encoders[0][0].value, expected, atol=1e-15)
        # the shared nets still use the full weight vector
        expected_shared = sum(w * p.feature_net[0].value
                              for w, p in zip(weights, params))
        assert np.allclose(out.feature_net[0].value, expected_shared, atol=1e-15)

    def test_orphan_view_keeps_global(self):
        g = init_params(ARCH, seed=0)
        params = [init_params(ARCH, seed=1)]
        shards = [ClientShard(0, (0,), np.arange(4))]
        out = aggregate(g, params, shards, [1.0])
        for a, b in zip(out.view_params(1), g.view_params(1)):
            assert np.array_equal(a.value, b.value)
        for a, b in zip(out.view_params(0), params[0].view_params(0)):
            assert np.allclose(a.value, b.value, atol=1e-15)

    def test_equal_factor_matches_fedavg(self):
        g = init_params(ARCH, seed=0)
        params = [init_params(ARCH, seed=s) for s in (1, 2, 3, 4)]
        shards = [shard_for(i, (0, 1)) for i in range(4)]
        w = compute_weights(shards, 2, "linear")
        out = aggregate(g, params, shards, w)
        mean = np.mean([p.vector for p in params], axis=0)
        assert np.abs(out.vector - mean).max() < 1e-12


@st.composite
def aggregation_cases(draw):
    """Clients with random view subsets (views may go unowned), shuffled
    ids and positive weights that sum to 1."""
    view_dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    n_views = len(view_dims)
    n_clients = draw(st.integers(1, 6))
    subsets = [tuple(sorted(draw(st.sets(st.integers(0, n_views - 1), min_size=1))))
               for _ in range(n_clients)]
    ids = draw(st.permutations(range(n_clients)))
    raw = np.array(draw(st.lists(st.floats(0.01, 10.0), min_size=n_clients,
                                 max_size=n_clients)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return view_dims, subsets, ids, raw / raw.sum(), seed


class TestAggregateProperty:
    @settings(max_examples=150, deadline=None)
    @given(aggregation_cases())
    def test_matches_per_slot_reference(self, case):
        view_dims, subsets, ids, weights, seed = case
        arch = Architecture(tuple(view_dims), n_clusters=2, latent_dim=2,
                            high_dim=3, hidden=3)
        rng = np.random.default_rng(seed)
        prev, *params = [init_params(arch, seed=0) for _ in range(len(ids) + 1)]
        for p in (prev, *params):
            p.vector[:] = rng.standard_normal(p.vector.size)
        shards = [ClientShard(cid, sub, np.arange(3)) for cid, sub in zip(ids, subsets)]
        out = aggregate(prev, params, shards, weights)
        expected = aggregate_reference(prev, params, shards, weights)
        assert out.vector.tobytes() == expected.tobytes()


    @settings(max_examples=100, deadline=None)
    @given(aggregation_cases())
    def test_unowned_coordinates_never_reach_the_aggregate(self, case):
        # only the coordinates a client trains cross to the server
        view_dims, subsets, ids, weights, seed = case
        arch = Architecture(tuple(view_dims), n_clusters=2, latent_dim=2,
                            high_dim=3, hidden=3)
        rng = np.random.default_rng(seed)
        prev, *params = [init_params(arch, seed=0) for _ in range(len(ids) + 1)]
        for p in (prev, *params):
            p.vector[:] = rng.standard_normal(p.vector.size)
        shards = [ClientShard(cid, sub, np.arange(3)) for cid, sub in zip(ids, subsets)]
        masked = []
        for p, sub in zip(params, subsets):
            upload = np.full(p.vector.size, np.nan)
            for span in p.owned_spans(sub):
                upload[span] = p.vector[span]
            masked.append(ModelParams(arch, upload))
        out = aggregate(prev, params, shards, weights)
        assert aggregate(prev, masked, shards, weights).vector.tobytes() \
            == out.vector.tobytes()


class TestBroadcast:
    def test_broadcast_and_idempotence(self):
        g = init_params(ARCH, seed=0)
        working = ModelParams(ARCH, trainable=True)
        vector, grad = working.vector, working.grad
        vector[:] = np.nan
        broadcast(g, working)
        first = working.vector.copy()
        broadcast(g, working)
        assert working.vector is vector and working.grad is grad
        assert np.array_equal(first, g.vector)
        assert np.array_equal(working.vector, first)
        assert not grad.any()


class TestSharedWorkingModel:
    """Clients take turns in one working model; nothing crosses between them."""

    def test_client_order_changes_nothing(self):
        # a full, a partial and a single-view client warm up and train two
        # rounds (the second with drift) in order A, B, C and in order C, B,
        # A, from the same start: each ends with the same bits either way
        cfg = tiny_config(view_dims=(4, 3, 2), local_epochs=2, batch_size=5)
        warm_cfg = cfg.replace(warmup_epochs=2, batch_size=4)
        ds = generate_blobs(2, 36, (4, 3, 2), 5.0, 1.0, seed=2)
        shards = [ClientShard(0, (0, 1, 2), np.arange(0, 12)),
                  ClientShard(1, (0, 2), np.arange(12, 24)),
                  ClientShard(2, (1,), np.arange(24, 36))]
        base, global_params = init_params(ARCH3, seed=0), init_params(ARCH3, seed=1)

        def run(order):
            clients = build_clients(ds, shards, base, np.random.SeedSequence(9))
            working = ModelParams(ARCH3, trainable=True)
            working.vector[:] = np.nan  # each phase must copy in its whole start
            ws = workspace(working)
            losses = {i: [] for i in order}
            for i in order:
                losses[i].append(pretrain_client(clients[i], warm_cfg, working, ws))
                assert not working.grad.any()
            for r in (1, 2):
                for i in order:
                    losses[i].append(local_train_round(clients[i], global_params, cfg,
                                                       r, working, ws))
                    assert not working.grad.any()
            return {i: (clients[i].snapshot.vector.tobytes(), losses[i],
                        clients[i].rng.bit_generator.state) for i in order}

        forward, backward = run((0, 1, 2)), run((2, 1, 0))
        assert forward == backward
        assert len({snapshot for snapshot, _, _ in forward.values()}) == 3


def initial_global(cfg, view_dims):
    """The global model a run with ``cfg`` starts from."""
    arch = Architecture(view_dims, cfg.n_clusters, cfg.latent_dim, cfg.high_dim,
                        cfg.hidden)
    return init_params(arch, derive_seeds(cfg.seed).init)


class TestRunFederation:
    def test_zero_rounds_returns_initial(self):
        cfg = tiny_config(rounds=0, warmup_epochs=0)
        ds = generate_blobs(2, 40, (4, 3), 5.0, 1.0, seed=0)
        reports = []
        global_params = run_federation(cfg, ds, round_hook=lambda g, r: reports.append(r))
        assert reports == []
        assert np.array_equal(global_params.vector, initial_global(cfg, (4, 3)).vector)

    def test_returns_the_model_the_last_hook_received(self):
        cfg = tiny_config(rounds=3, warmup_epochs=1)
        ds = generate_blobs(2, 40, (4, 3), 5.0, 1.0, seed=6)
        received = []
        global_params = run_federation(
            cfg, ds, round_hook=lambda g, r: received.append((g, r.round_index)))
        assert [r for _, r in received] == [1, 2, 3]
        assert global_params is received[-1][0]
        # each round aggregates into a new model
        assert len({id(g) for g, _ in received}) == 3

    def test_single_full_client_round_is_its_params(self):
        cfg = tiny_config(n_clients=1, rounds=1, warmup_epochs=2)
        ds = generate_blobs(2, 30, (4, 3), 5.0, 1.0, seed=1)
        captured = {}

        def hook(global_params, report):
            captured["weights"] = report.weights

        global_params = run_federation(cfg, ds, round_hook=hook)
        assert captured["weights"] == [1.0]

        # the same steps composed by hand: with weight 1 the aggregate IS
        # the lone client's trained parameters
        seeds = derive_seeds(cfg.seed)
        work = ds.standardized()
        shards = [ClientShard(0, (0, 1), np.arange(30))]
        base = init_params(global_params.arch, seeds.init)
        clients = build_clients(work, shards, base, seeds.train)
        working = ModelParams(base.arch, trainable=True)
        pretrain_client(clients[0], cfg, working, workspace(base))
        local_train_round(clients[0], base, cfg, 1, working, workspace(base))
        merged = aggregate(base, [clients[0].snapshot], shards, [1.0])
        assert np.array_equal(global_params.vector, merged.vector)
        assert np.array_equal(merged.vector, clients[0].snapshot.vector)

    def test_deterministic_reruns(self):
        cfg = tiny_config(rounds=2, warmup_epochs=1, mixed_counts=None,
                          view_dims=(4, 3), n_clients=3)
        ds = generate_blobs(2, 36, (4, 3), 5.0, 1.0, seed=2)
        a = run_federation(cfg, ds)
        b = run_federation(cfg, ds)
        assert np.array_equal(a.vector, b.vector)

    def test_weights_reported_and_sum_to_one(self):
        cfg = tiny_config(rounds=1, warmup_epochs=0)
        ds = generate_blobs(2, 40, (4, 3), 5.0, 1.0, seed=3)
        reports = []
        run_federation(cfg, ds, round_hook=lambda g, r: reports.append(r))
        assert len(reports) == 1
        for r in reports:
            assert abs(sum(r.weights) - 1.0) < 1e-12
            assert set(r.client_losses) == {0, 1}

    def test_out_of_range_view_rejected(self):
        ds = generate_blobs(2, 20, (4, 3), 5.0, 1.0, seed=8)
        out_of_range = [ClientShard(0, (5,), np.arange(20))]
        with pytest.raises(ConfigError, match="out of range"):
            build_clients(ds, out_of_range, init_params(ARCH, seed=0),
                          np.random.SeedSequence(0))

    def test_clients_hold_only_their_rows_and_views(self):
        ds = generate_blobs(2, 30, (4, 3), 5.0, 1.0, seed=4)
        shards = [ClientShard(0, (1,), np.arange(0, 10)),
                  ClientShard(1, (0, 1), np.arange(10, 30))]
        params = init_params(ARCH, seed=0)
        clients = build_clients(ds, shards, params, np.random.SeedSequence(0))
        assert set(clients[0].views) == {1}
        assert clients[0].views[1].shape == (10, 3)
        assert np.array_equal(clients[1].views[0], ds.views[0][10:30])

    def test_training_beats_untrained_baseline(self):
        cfg = tiny_config(n_clients=3, mixed_counts=None, n_samples=90,
                          rounds=6, warmup_epochs=10, local_epochs=5,
                          batch_size=32)
        ds = generate_blobs(2, 90, (4, 3), 5.0, 1.0, seed=7)
        seeds = derive_seeds(cfg.seed)
        global_params = run_federation(cfg, ds)
        from fedmvc.evaluation import evaluate_global
        trained = evaluate_global(global_params, ds, cfg.replace(eval_restarts=5), 0)
        untrained = evaluate_global(
            init_params(global_params.arch, seeds.init), ds,
            cfg.replace(eval_restarts=5), 0)
        assert trained.acc >= untrained.acc

    def test_unlabeled_requires_iid(self):
        ds = generate_blobs(2, 30, (4, 3), 5.0, 1.0, seed=5)
        unlabeled = type(ds)(ds.views, None, 2)
        cfg = tiny_config(rounds=0, warmup_epochs=0)
        with pytest.raises(ConfigError):
            run_federation(cfg, unlabeled)
        cfg_iid = tiny_config(rounds=0, warmup_epochs=0, dirichlet_beta=None)
        global_params = run_federation(cfg_iid, unlabeled)
        assert np.array_equal(global_params.vector,
                              initial_global(cfg_iid, (4, 3)).vector)

    def test_round_loop_allocates_no_model(self, monkeypatch, tmp_path):
        # a run constructs one trainable model, the working model, and each
        # client holds one grad-less snapshot for the whole run. After
        # build_clients, each round constructs one model (the aggregate) and
        # clones none: broadcast and the end-of-phase copies write into the
        # buffers allocated before round 1
        counts = {"init": 0, "clone": 0}
        seen = {}
        trainable = []
        init, clone = ModelParams.__init__, ModelParams.clone

        def counting_init(self, *args, **kwargs):
            counts["init"] += 1
            init(self, *args, **kwargs)
            if self.grad is not None:
                trainable.append(self)

        def counting_clone(self, *args, **kwargs):
            counts["clone"] += 1
            return clone(self, *args, **kwargs)

        def capture(*args, **kwargs):
            clients = build_clients(*args, **kwargs)
            seen["clients"] = clients
            seen["buffers"] = [(c.snapshot, c.snapshot.vector) for c in clients]
            counts.update(init=0, clone=0)
            return clients

        per_round = []

        def hook(global_params, report):
            per_round.append(dict(counts))

        monkeypatch.setattr(ModelParams, "__init__", counting_init)
        monkeypatch.setattr(ModelParams, "clone", counting_clone)
        monkeypatch.setattr(federation, "build_clients", capture)
        # the counts are this process's: train every client in it
        monkeypatch.setattr(federation, "_usable_cpus", lambda: 1)
        cfg = tiny_config(n_clients=3, mixed_counts=(1, 1, 1),
                          view_dims=(4, 3, 2), rounds=3, warmup_epochs=1,
                          batch_size=8)
        ds = generate_blobs(2, 36, (4, 3, 2), 5.0, 1.0, seed=2)
        global_params = run_federation(cfg, ds, round_hook=hook)
        # the working model, then one aggregate per round
        assert per_round == [{"init": 1 + r, "clone": 0} for r in (1, 2, 3)]
        (working,) = trainable
        clients = seen["clients"]
        assert {c.client_type for c in clients} == {"full", "partial", "single"}
        for c, held in zip(clients, seen["buffers"], strict=True):
            assert [k for k, v in vars(c).items() if isinstance(v, ModelParams)] \
                == ["snapshot"]
            assert c.snapshot is held[0] and c.snapshot.vector is held[1]
            assert c.snapshot.grad is None
            assert not np.shares_memory(c.snapshot.vector, working.vector)

        # only the run's working model takes gradients
        views = {v: ds.views[v][:5] for v in range(3)}
        save_checkpoint(global_params, tmp_path / "model.ckpt")
        loaded = load_checkpoint(tmp_path / "model.ckpt")
        grad_less = [global_params, clients[0].snapshot, loaded]
        for model in grad_less:
            assert model.grad is None
            tape = T.Tape()
            fwd = forward_views(tape, model, views)
            loss = reconstruction_loss([views[v] for v in range(3)],
                                       [fwd.recons[v] for v in range(3)])
            with pytest.raises(ValueError, match="without a gradient buffer"):
                tape.backward(loss)

    def test_run_allocates_one_optimizer_workspace(self, monkeypatch):
        # every warm-up and local-round optimizer keeps its state in one
        # workspace allocated per run; nothing of it is held per client
        workspaces, built = [], []
        make = federation.make_optimizer

        def allocating(size):
            workspaces.append(T.optimizer_workspace(size))
            return workspaces[-1]

        def recording(*args):
            built.append(args[-1])
            return make(*args)

        monkeypatch.setattr(federation, "optimizer_workspace", allocating)
        monkeypatch.setattr(federation, "make_optimizer", recording)
        # the records are this process's: train every client in it
        monkeypatch.setattr(federation, "_usable_cpus", lambda: 1)
        cfg = tiny_config(n_clients=3, mixed_counts=(1, 1, 1),
                          view_dims=(4, 3, 2), rounds=2, warmup_epochs=1,
                          batch_size=8)
        ds = generate_blobs(2, 36, (4, 3, 2), 5.0, 1.0, seed=2)
        global_params = run_federation(cfg, ds)
        (workspace,) = workspaces
        assert workspace.shape[1] == global_params.vector.size
        assert len(built) == 3 + 3 * 2
        assert all(w is workspace for w in built)


def tapes_left_by(work):
    """Tapes alive after ``work`` runs with the cyclic collector off."""
    gc.collect()
    gc.disable()
    try:
        work()
        return [o for o in gc.get_objects() if isinstance(o, T.Tape)]
    finally:
        gc.enable()


class TestTapeLifetime:
    """Each step's tape is freed by reference counting, not by the collector."""

    def test_phases_leave_no_tape(self):
        # warm-up, round 1 and round 2 (with drift) of a full, a partial and
        # a single-view client
        cfg = tiny_config(view_dims=(4, 3, 2), local_epochs=2, batch_size=5)
        ds = generate_blobs(2, 36, (4, 3, 2), 5.0, 1.0, seed=2)
        shards = [ClientShard(0, (0, 1, 2), np.arange(0, 12)),
                  ClientShard(1, (0, 2), np.arange(12, 24)),
                  ClientShard(2, (1,), np.arange(24, 36))]
        clients = build_clients(ds, shards, init_params(ARCH3, seed=0),
                                np.random.SeedSequence(9))
        global_params = init_params(ARCH3, seed=1)
        working = ModelParams(ARCH3, trainable=True)
        ws = workspace(working)

        def phases():
            for client in clients:
                pretrain_client(client, cfg, working, ws)
                for r in (1, 2):
                    local_train_round(client, global_params, cfg, r, working, ws)

        assert tapes_left_by(phases) == []

    def test_run_leaves_no_tape(self, monkeypatch):
        # the tapes counted are this process's: train every client in it
        monkeypatch.setattr(federation, "_usable_cpus", lambda: 1)
        cfg = tiny_config(n_clients=3, mixed_counts=(1, 1, 1),
                          view_dims=(4, 3, 2), rounds=2, warmup_epochs=1,
                          batch_size=8)
        ds = generate_blobs(2, 36, (4, 3, 2), 5.0, 1.0, seed=2)
        assert tapes_left_by(lambda: run_federation(cfg, ds)) == []


def child_pids() -> set[int]:
    """This process's children, zombies included."""
    return {int(pid) for f in Path(f"/proc/{os.getpid()}/task").glob("*/children")
            for pid in f.read_text().split()}


def mixed_run_config(**overrides):
    # five clients of three types and unequal sizes: 2 full, 2 partial, 1 single
    return tiny_config(n_clients=5, mixed_counts=(2, 2, 1), view_dims=(4, 3, 2),
                       n_samples=60, dirichlet_beta=0.5, rounds=3, warmup_epochs=1,
                       local_epochs=2, batch_size=6, **overrides)


MIXED_DATA = dict(n_clusters=2, n_samples=60, view_dims=(4, 3, 2), separation=5.0,
                  noise_sigma=1.0, seed=2)


class Unpicklable(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None


class TwoArgs(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


class TestParallelRounds:
    """Rounds train in several processes; the output is that of one."""

    @pytest.fixture(autouse=True)
    def no_children_left(self):
        before = child_pids()
        yield
        assert child_pids() <= before

    def run_with(self, monkeypatch, n_procs, cfg, **kwargs):
        monkeypatch.setattr(federation, "_usable_cpus", lambda: n_procs)
        seen, reports = {}, []
        build = federation.build_clients

        def capture(*args, **kw):
            seen["clients"] = build(*args, **kw)
            return seen["clients"]

        def hook(global_params, report):
            import multiprocessing
            reports.append((report.client_losses, len(multiprocessing.active_children())))

        monkeypatch.setattr(federation, "build_clients", capture)
        global_params = run_federation(cfg, generate_blobs(**MIXED_DATA),
                                       round_hook=hook, **kwargs)
        return global_params, seen["clients"], reports

    @pytest.mark.parametrize("no_drift", [False, True])
    def test_any_process_count_gives_the_same_bits(self, monkeypatch, no_drift):
        cfg = mixed_run_config(no_drift=no_drift)
        runs = {}
        for n_procs in (1, 2, 3):
            global_params, clients, reports = self.run_with(monkeypatch, n_procs, cfg)
            assert {c.client_type for c in clients} == {"full", "partial", "single"}
            assert [workers for _, workers in reports] == [n_procs - 1] * cfg.rounds
            runs[n_procs] = (global_params.vector.tobytes(),
                             [c.snapshot.vector.tobytes() for c in clients],
                             [json.dumps(losses) for losses, _ in reports])
        assert runs[1] == runs[2] == runs[3]
        assert len(set(runs[1][1])) == 5

    def test_a_failing_round_raises_the_lowest_failing_client(self, monkeypatch):
        real = federation.local_train_round

        def failing(client, global_params, config, round_index, *args):
            if round_index == 2 and client.shard.client_id in (2, 4):
                raise TrainingError(f"client {client.shard.client_id} failed")
            return real(client, global_params, config, round_index, *args)

        monkeypatch.setattr(federation, "local_train_round", failing)
        for n_procs in (1, 3):
            with pytest.raises(TrainingError, match=r"^client 2 failed$"):
                self.run_with(monkeypatch, n_procs, mixed_run_config())

    def test_a_failing_warm_up_raises_the_lowest_failing_client(self, monkeypatch):
        real = federation.pretrain_client
        trained = []

        def failing(client, *args):
            if client.shard.client_id in (2, 4):
                raise TrainingError(f"client {client.shard.client_id} failed")
            return real(client, *args)

        monkeypatch.setattr(federation, "pretrain_client", failing)
        monkeypatch.setattr(federation, "local_train_round",
                            lambda *args: trained.append(args))
        # three processes: clients 4 and 2 fail in two workers' shares
        for n_procs in (1, 3):
            with pytest.raises(TrainingError, match=r"^client 2 failed$"):
                self.run_with(monkeypatch, n_procs, mixed_run_config())
        assert trained == []

    @pytest.mark.parametrize("n_procs", [2, 3])
    def test_each_client_is_warmed_up_where_it_trains(self, monkeypatch, tmp_path,
                                                      n_procs):
        # perfbench times warm-up by wrapping the module's pretrain_client:
        # the main process must call it, for its own share, before round 1
        log = tmp_path / "phases"
        warm_up, train = federation.pretrain_client, federation.local_train_round

        def logged(phase, real):
            def call(client, *args):
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(f"{os.getpid()} {phase(args)} {client.shard.client_id}\n")
                return real(client, *args)
            return call

        monkeypatch.setattr(federation, "pretrain_client", logged(lambda a: 0, warm_up))
        monkeypatch.setattr(federation, "local_train_round",
                            logged(lambda a: a[2], train))
        cfg = mixed_run_config()
        _, clients, _ = self.run_with(monkeypatch, n_procs, cfg)
        lines = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        phases = [phase for _, phase, _ in lines]
        # every warm-up, in any process, ends before round 1 starts in any
        assert phases == sorted(phases)
        ids = [c.shard.client_id for c in clients]
        main = os.getpid()
        assert [i for pid, phase, i in lines if pid == main and phase == 0] \
            == ids[0::n_procs]
        owners = {i: {pid for pid, _, j in lines if j == i} for i in ids}
        assert all(len(pids) == 1 for pids in owners.values())
        assert len(set().union(*owners.values())) == n_procs
        assert sorted(phases) == sorted([0, *range(1, cfg.rounds + 1)] * len(ids))

    @pytest.mark.parametrize("error", [
        # does not pickle: its attribute is a local function
        lambda: Unpicklable("client 1 failed"),
        # pickles, but its constructor needs two arguments and gets one back
        lambda: TwoArgs("client 1 failed", 7),
    ], ids=["unpicklable", "not-rebuildable"])
    def test_an_error_that_cannot_cross_a_pipe_keeps_its_type_and_message(
            self, monkeypatch, error):
        real = federation.local_train_round

        def failing(client, global_params, config, round_index, *args):
            if round_index == 2 and client.shard.client_id == 1:
                raise error()
            return real(client, global_params, config, round_index, *args)

        monkeypatch.setattr(federation, "local_train_round", failing)
        kind = type(error()).__name__
        with pytest.raises(FedmvcError, match=rf"^{kind}: client 1 failed$"):
            # three processes: client 1 is in a worker's share
            self.run_with(monkeypatch, 3, mixed_run_config())

    def test_a_daemonic_process_runs_its_rounds_in_one_process(self, monkeypatch):
        import multiprocessing

        # a daemonic process may not start processes: a run in one uses none,
        # whatever its CPUs
        monkeypatch.setattr(federation.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert federation._usable_cpus() == 3
        cfg = mixed_run_config()
        expected = run_federation(cfg, generate_blobs(**MIXED_DATA)).vector.tobytes()

        def run(conn):
            assert federation._usable_cpus() == 1
            conn.send(run_federation(cfg, generate_blobs(**MIXED_DATA)).vector.tobytes())

        ctx = multiprocessing.get_context("fork")
        mine, theirs = ctx.Pipe()
        proc = ctx.Process(target=run, args=(theirs,), daemon=True)
        proc.start()
        try:
            assert mine.poll(60) and mine.recv() == expected
        finally:
            proc.join(60)
        assert proc.exitcode == 0

    def test_one_process_without_a_cpu_affinity_call(self, monkeypatch):
        monkeypatch.delattr(federation.os, "sched_getaffinity")
        assert federation._usable_cpus() == 1

    def test_the_main_process_polls_for_replies_instead_of_blocking(self):
        class Conn:
            polls = 0

            def poll(self):
                self.polls += 1
                return self.polls == 3

            def recv(self):
                assert self.polls == 3, "a read before the reply had come"
                return {}, None

        workers = federation._Workers([], None, None, None, None)
        workers.conns = [Conn()]
        assert workers.replies(1) == [({}, None)]

    def test_a_worker_that_dies_fails_the_round(self, monkeypatch):
        main = os.getpid()
        real = federation.local_train_round

        def dying(*args):
            if os.getpid() != main and args[3] == 2:
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(federation, "local_train_round", dying)
        with pytest.raises(FedmvcError, match="^round 2: a training process exited "
                                              "without replying$"):
            self.run_with(monkeypatch, 3, mixed_run_config())

    def test_a_worker_that_dies_fails_the_warm_up(self, monkeypatch):
        main = os.getpid()
        real = federation.pretrain_client

        def dying(*args):
            if os.getpid() != main:
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(federation, "pretrain_client", dying)
        with pytest.raises(FedmvcError, match="^warm-up: a training process exited "
                                              "without replying$"):
            self.run_with(monkeypatch, 3, mixed_run_config())

    def test_workers_exit_when_the_main_process_is_killed(self, tmp_path):
        script = tmp_path / "run.py"
        script.write_text(f"""
import json, multiprocessing, os, sys, time
sys.path.insert(0, {str(Path(federation.__file__).parents[1])!r})
from fedmvc import federation
from fedmvc.config import config_from_mapping
from fedmvc.data import generate_blobs

federation._usable_cpus = lambda: 3
main = os.getpid()
real = federation.local_train_round

def stalling(*args):
    out = real(*args)
    if os.getpid() == main and args[3] == 2:
        pids = [p.pid for p in multiprocessing.active_children()]
        print(json.dumps(pids), flush=True)
        time.sleep(60)
    return out

federation.local_train_round = stalling
cfg = config_from_mapping(json.loads({json.dumps(mixed_run_config().to_mapping())!r}))
federation.run_federation(cfg, generate_blobs(**{MIXED_DATA!r}))
""")
        proc = subprocess.Popen([sys.executable, str(script)], stdout=subprocess.PIPE,
                                text=True)
        try:
            workers = json.loads(proc.stdout.readline())
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
        assert len(workers) == 2

        def running(pid):
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except FileNotFoundError:
                return False
            return stat.rsplit(")", 1)[1].split()[0] != "Z"

        deadline = time.monotonic() + 5.0
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, workers))
        # the workers wrote nothing to the standard output they shared
        assert proc.stdout.read() == ""

    def test_importing_the_package_leaves_multiprocessing_out(self):
        # importing multiprocessing would add to every run's set-up time; only
        # a run that forks workers imports it
        src = str(Path(federation.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import sys, fedmvc.cli; print('multiprocessing' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "False"


def restart_points() -> np.ndarray:
    rng = np.random.default_rng(4)
    centres = rng.standard_normal((4, 5)) * 3
    return centres[rng.integers(0, 4, 120)] + rng.standard_normal((120, 5))


def kmeans_bits(best, objectives) -> tuple:
    return (best.labels.tobytes(), best.centroids.tobytes(),
            np.float64(best.objective).tobytes(), np.array(best.trace).tobytes(),
            np.array(objectives).tobytes())


def logging_kmeans(monkeypatch, log: Path, fail=()):
    """Make every k-means restart append ``pid entropy index`` to ``log``,
    and raise ``ValueError("restart <index>")`` for an index in ``fail``.
    Patched before a run forks, so its workers log too."""
    real = evaluation.kmeans

    def logged(points, n_clusters, seed):
        index = seed.spawn_key[-1]
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {seed.entropy} {index}\n")
        if index in fail:
            raise ValueError(f"restart {index}")
        return real(points, n_clusters, seed)

    monkeypatch.setattr(evaluation, "kmeans", logged)


def served_by(log: Path) -> dict[int, dict[int, set[int]]]:
    """From ``logging_kmeans``'s log: for each evaluation (its seed's
    entropy), the restart indices each pid ran."""
    out: dict[int, dict[int, set[int]]] = {}
    for line in log.read_text().split("\n")[:-1]:
        pid, entropy, index = map(int, line.split())
        out.setdefault(entropy, {}).setdefault(pid, set()).add(index)
    return out


class TestKMeansInRunProcesses:
    """In a round hook, k-means restarts run on the run's processes; the
    result is that of one process."""

    @pytest.fixture(autouse=True)
    def no_children_left(self):
        before = child_pids()
        yield
        assert child_pids() <= before
        assert federation._idle_workers is None

    def run_with(self, monkeypatch, n_procs, hook, cfg=None):
        import multiprocessing

        monkeypatch.setattr(federation, "_usable_cpus", lambda: n_procs)
        reports = []

        def recorded(global_params, report):
            reports.append((json.dumps(report.client_losses),
                            {p.pid for p in multiprocessing.active_children()}))
            hook(global_params, report)

        global_params = run_federation(cfg or mixed_run_config(),
                                       generate_blobs(**MIXED_DATA), round_hook=recorded)
        return global_params.vector.tobytes(), reports

    def test_any_process_count_gives_the_same_bits(self, monkeypatch):
        points = restart_points()
        seq = np.random.SeedSequence(11)
        expected = kmeans_bits(*kmeans_best(points, 4, 7, seq))
        assert seq.n_children_spawned == 7
        for n_procs in (1, 2, 3):
            got = []

            def hook(global_params, report):
                seq = np.random.SeedSequence(11)
                got.append((kmeans_bits(*kmeans_best(points, 4, 7, seq)),
                            seq.n_children_spawned))

            _, reports = self.run_with(monkeypatch, n_procs, hook)
            assert [len(workers) for _, workers in reports] == [n_procs - 1] * 3
            assert got == [(expected, 7)] * 3

    def test_every_evaluation_is_served_by_the_run_s_workers(self, monkeypatch,
                                                             tmp_path):
        # the same worker pids in every round: no process is forked per call
        logging_kmeans(monkeypatch, tmp_path / "log")
        points = restart_points()

        def hook(global_params, report):
            kmeans_best(points, 4, 7, report.round_index)

        _, reports = self.run_with(monkeypatch, 3, hook)
        (workers,) = {frozenset(w) for _, w in reports}
        assert len(workers) == 2
        served = served_by(tmp_path / "log")
        assert sorted(served) == [1, 2, 3]
        for by_pid in served.values():
            assert set(by_pid) == {os.getpid(), *workers}
            assert by_pid[os.getpid()] == {0, 3, 6}
            assert sorted(map(sorted, by_pid.values())) == [[0, 3, 6], [1, 4], [2, 5]]

    @pytest.mark.parametrize("n_procs", [1, 2, 3])
    def test_a_tie_across_shares_keeps_the_earliest_restart(self, monkeypatch,
                                                            n_procs):
        # objectives 3, 1, 2, 1, 1: restarts 1, 3 and 4 tie, in two or three
        # shares, and restart 1 is the best
        scripted = [3.0, 1.0, 2.0, 1.0, 1.0]

        def kmeans(points, n_clusters, seed):
            index = seed.spawn_key[-1]
            return evaluation.KMeansResult(
                np.full((n_clusters, 2), float(index)),
                np.full(len(points.points), index), scripted[index], [])

        monkeypatch.setattr(evaluation, "kmeans", kmeans)
        got = []

        def hook(global_params, report):
            best, objectives = kmeans_best(np.zeros((6, 2)), 2, 5, 0)
            got.append((best.labels.tolist(), objectives))

        self.run_with(monkeypatch, n_procs, hook)
        assert got == [([1] * 6, scripted)] * 3

    def test_a_tie_on_real_points_keeps_the_earliest_restart(self, monkeypatch):
        # every restart reaches objective 0, with one of two labelings
        points = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        seeds = np.random.SeedSequence(5).spawn(6)
        labelings = [kmeans(points, 2, s).labels.tolist() for s in seeds]
        # each worker's first restart found the other labeling
        assert labelings[1] != labelings[0] and labelings[2] != labelings[0]
        got = []

        def hook(global_params, report):
            best, objectives = kmeans_best(points, 2, 6, np.random.SeedSequence(5))
            got.append((best.labels.tolist(), objectives))

        self.run_with(monkeypatch, 3, hook)
        assert got == [(labelings[0], [0.0] * 6)] * 3

    @pytest.mark.parametrize("fail, first", [
        ({1, 2}, 1),      # in both workers' shares
        ({0, 2, 4}, 0),   # in this process's share and the workers'
    ], ids=["in-workers", "here-and-in-workers"])
    def test_a_failing_restart_leaves_the_run_as_it_was(self, monkeypatch, tmp_path,
                                                        fail, first):
        points = restart_points()
        expected = self.run_with(monkeypatch, 3, lambda *args: None)
        logging_kmeans(monkeypatch, tmp_path / "log", fail)
        errors = []

        def hook(global_params, report):
            with pytest.raises(ValueError) as err:
                kmeans_best(points, 4, 6, report.round_index)
            errors.append(str(err.value))

        global_vector, reports = self.run_with(monkeypatch, 3, hook)
        assert errors == [f"restart {first}"] * 3
        assert (global_vector, [losses for losses, _ in reports]) == \
            (expected[0], [losses for losses, _ in expected[1]])
        # every share ran until its first failure
        for by_pid in served_by(tmp_path / "log").values():
            assert len(by_pid) == 3

    def test_points_that_fail_their_check_leave_the_run_as_it_was(self, monkeypatch):
        expected = self.run_with(monkeypatch, 3, lambda *args: None)
        points = restart_points()
        points[5, 2] = np.nan
        errors = []

        def hook(global_params, report):
            with pytest.raises(NonFiniteError) as err:
                kmeans_best(points, 4, 6, 0)
            errors.append(str(err.value))

        global_vector, reports = self.run_with(monkeypatch, 3, hook)
        assert len(errors) == 3 and all("row 5 of 120" in e for e in errors)
        assert (global_vector, [losses for losses, _ in reports]) == \
            (expected[0], [losses for losses, _ in expected[1]])

    def test_a_nested_run_gives_the_outer_run_its_workers_back(self, monkeypatch,
                                                               tmp_path):
        import multiprocessing

        logging_kmeans(monkeypatch, tmp_path / "log")
        points = restart_points()
        seen = {}

        def inner_hook(global_params, report):
            seen["inner"] = {p.pid for p in multiprocessing.active_children()}
            kmeans_best(points, 4, 6, 100)

        def hook(global_params, report):
            if report.round_index == 1:
                seen["outer"] = {p.pid for p in multiprocessing.active_children()}
                run_federation(dataclasses.replace(mixed_run_config(), rounds=1),
                               generate_blobs(**MIXED_DATA), round_hook=inner_hook)
                kmeans_best(points, 4, 6, 101)

        self.run_with(monkeypatch, 3, hook)
        served = served_by(tmp_path / "log")
        inner_workers = seen["inner"] - seen["outer"]
        assert len(seen["outer"]) == len(inner_workers) == 2
        assert set(served[100]) == {os.getpid(), *inner_workers}
        assert set(served[101]) == {os.getpid(), *seen["outer"]}

    def test_a_process_forked_in_a_round_hook_runs_every_restart_itself(
            self, monkeypatch, tmp_path):
        import multiprocessing

        logging_kmeans(monkeypatch, tmp_path / "log")
        points = restart_points()
        expected = kmeans_bits(*kmeans_best(points, 4, 5, 0))
        (tmp_path / "log").unlink()
        got = []

        def run(conn):
            conn.send(kmeans_bits(*kmeans_best(points, 4, 5, 0)))

        def hook(global_params, report):
            if report.round_index == 1:
                ctx = multiprocessing.get_context("fork")
                mine, theirs = ctx.Pipe()
                proc = ctx.Process(target=run, args=(theirs,), daemon=True)
                proc.start()
                try:
                    assert mine.poll(60)
                    got.append((proc.pid, mine.recv()))
                finally:
                    proc.join(60)
                assert proc.exitcode == 0

        self.run_with(monkeypatch, 3, hook)
        ((pid, bits),) = got
        assert bits == expected
        assert served_by(tmp_path / "log") == {0: {pid: {0, 1, 2, 3, 4}}}

    @pytest.mark.parametrize("raises", [False, True])
    def test_after_a_run_every_restart_runs_here(self, monkeypatch, tmp_path, raises):
        real = federation.local_train_round

        def failing(client, global_params, config, round_index, *args):
            if raises and round_index == 2:
                raise TrainingError("round 2 failed")
            return real(client, global_params, config, round_index, *args)

        monkeypatch.setattr(federation, "local_train_round", failing)
        if raises:
            with pytest.raises(TrainingError, match="round 2 failed"):
                self.run_with(monkeypatch, 3, lambda *args: None)
        else:
            self.run_with(monkeypatch, 3, lambda *args: None)
        logging_kmeans(monkeypatch, tmp_path / "log")
        before = child_pids()
        kmeans_best(restart_points(), 4, 5, 0)
        assert served_by(tmp_path / "log") == {0: {os.getpid(): {0, 1, 2, 3, 4}}}
        assert child_pids() == before
