"""Federated round loop: local training, balanced aggregation, broadcast.

Clients train one after another, each in turn in the run's one trainable
working model. A run is deterministic per master seed: every client owns
its data, a grad-less snapshot of its latest model, and its random stream,
and the server always reduces in ascending client-id order.

The drift term's reference features come from the client's snapshot (its
previous-round model) and the global model. Neither changes within a
round, so each client computes them once per round over its whole shard
and every batch takes its rows from that result. This is exact, not an
approximation: each inferred row depends only on its own input row, and
the tests check that the sliced rows are bitwise equal to inferring the
batch on its own.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .config import check
from .data import (
    CLIENT_FULL,
    CLIENT_PARTIAL,
    CLIENT_SINGLE,
    ClientShard,
    MultiViewDataset,
    client_type_for,
    assign_views,
    dirichlet_partition,
)
from .errors import ConfigError, DimensionError, TrainingError
from .losses import (
    drift_loss,
    feature_contrast_full,
    label_contrast,
    partial_contrast,
    reconstruction_loss,
    single_view_contrast,
)
from .model import (
    Architecture,
    ModelParams,
    encode,
    encode_decode,
    forward_views,
    high_features,
    infer_fused,
    init_params,
)
from .tensor import Param, Tape, Tensor, make_optimizer, optimizer_workspace


@dataclass(frozen=True)
class RunSeeds:
    """Independent random streams derived from one master seed."""

    data: np.random.SeedSequence
    partition: np.random.SeedSequence
    assign: np.random.SeedSequence
    init: np.random.SeedSequence
    train: np.random.SeedSequence
    evaluation: np.random.SeedSequence


def derive_seeds(master_seed: int) -> RunSeeds:
    return RunSeeds(*np.random.SeedSequence(master_seed).spawn(6))


@dataclass
class RoundReport:
    round_index: int
    client_losses: dict[int, dict[str, float]]
    weights: list[float]
    wall_time: float


@dataclass
class ClientState:
    """One participant: its shard, its rows, its latest model and its rng.

    ``snapshot`` is the one model-sized buffer a client holds, allocated
    once by :func:`build_clients`, without a gradient. It holds the initial
    global model until warm-up, then the client's model from the end of
    its latest phase (warm-up or round): the model :func:`aggregate` reads
    and the drift term's frozen previous-round model. Training happens in
    the run's one working model (see :func:`local_train_round`).

    ``views`` holds only the rows and views this client owns; nothing else
    about the dataset is reachable from here. The rng is consumed in a
    fixed order: one permutation per local epoch, then one noise draw per
    batch on single-view clients. From round 2 on, the drift reference
    features of ``snapshot`` and of the global model are inferred once per
    round, over all of ``views``, before the first epoch: both models'
    weights are fixed for the whole round, so the references cannot change
    between batches.
    """

    shard: ClientShard
    views: dict[int, np.ndarray]
    snapshot: ModelParams
    rng: np.random.Generator

    @property
    def client_type(self) -> str:
        """Full, partial or single, from how many of the model's views the
        shard holds."""
        return client_type_for(self.shard.n_views, self.snapshot.arch.n_views)


def _batches(rng: np.random.Generator, n: int, batch_size: int):
    order = rng.permutation(n)
    chunks = [order[s:s + batch_size] for s in range(0, n, batch_size)]
    # a singleton tail cannot feed the pairwise contrast terms; fold it in
    if len(chunks) > 1 and chunks[-1].size < 2:
        chunks[-2] = np.concatenate([chunks[-2], chunks[-1]])
        chunks.pop()
    yield from chunks


def _train_phase(client: ClientState, config, epochs: int, where: str,
                 working: ModelParams, workspace: np.ndarray, spans: list[slice],
                 step: Callable[[np.ndarray], tuple[Tensor, dict[str, float]]],
                 keys: Sequence[str]) -> dict[str, float]:
    """The training loop of warm-up and of every local round.

    Each of ``epochs`` epochs draws one permutation of the client's rows
    and steps the optimizer once per batch of it. ``step(rows)`` records a
    batch's loss and returns it with its stats. The optimizer starts from
    zero state in ``workspace`` and updates only ``spans`` of ``working``,
    which is then copied into the client's snapshot. Returns the mean of
    each of ``keys`` over the steps, 0.0 when none ran.

    A non-finite loss raises a ``TrainingError`` naming the first
    non-finite stat. Every ``TrainingError`` is raised again prefixed with
    ``where`` (the round, or warm-up), the client, and the epoch and batch
    counted from 1.
    """
    optimizer = make_optimizer(config.optimizer, config.lr, working.vector,
                               working.grad, spans, workspace)
    sums = dict.fromkeys(keys, 0.0)
    steps = 0
    for epoch in range(1, epochs + 1):
        for batch, rows in enumerate(_batches(client.rng, client.shard.n_samples,
                                              config.batch_size), start=1):
            try:
                loss, stats = step(rows)
                if not np.isfinite(loss.value[0, 0]):
                    term = next(k for k in stats if not np.isfinite(stats[k]))
                    raise TrainingError(f"non-finite {term} loss ({stats[term]})")
                loss.tape.backward(loss)
                optimizer.step()
                # ``loss`` reaches the step's whole graph through the backprop
                # closures; dropping it frees the graph before the next forward
                del loss
            except TrainingError as err:
                raise TrainingError(f"{where}, client {client.shard.client_id}, "
                                    f"epoch {epoch}, batch {batch}: {err}") from err
            for k in keys:
                sums[k] += stats[k]
            steps += 1
    np.copyto(client.snapshot.vector, working.vector)
    return {k: v / steps if steps else 0.0 for k, v in sums.items()}


def pretrain_client(client: ClientState, config, working: ModelParams,
                    workspace: np.ndarray) -> dict[str, float]:
    """Warm up the client's autoencoders on reconstruction alone.

    Runs ``config.warmup_epochs`` epochs of the loop local rounds use
    (:func:`_train_phase`), starting from a copy of the client's snapshot
    (the initial global model) in ``working``, the run's trainable model;
    the result is copied back into the snapshot.
    """
    np.copyto(working.vector, client.snapshot.vector)
    order = sorted(client.views)

    def step(rows):
        tape = Tape()
        recons = [encode_decode(tape, working, client.views[v][rows], v)[1]
                  for v in order]
        loss = reconstruction_loss([client.views[v][rows] for v in order], recons)
        return loss, {"recon": float(loss.value[0, 0])}

    # the reconstruction loss never reaches the shared nets: their gradient
    # is zero, and a zero-gradient step would leave them bitwise as they are
    spans = working.owned_spans(client.shard.view_subset, shared=False)
    return _train_phase(client, config, config.warmup_epochs, "warm-up", working,
                        workspace, spans, step, ("recon",))


def _drift_references(client: ClientState, global_params: ModelParams,
                      ) -> tuple[np.ndarray, np.ndarray | None]:
    """(positive, negative) drift references over the client's whole shard.

    Full clients pull toward their previous-round model (the snapshot) and
    away from the global model; partial clients the other way round.
    Single-view clients pull toward the global model, and their negative
    (``None`` here) is the current model on noisy input, drawn per batch.
    """
    ctype = client.client_type
    if ctype == CLIENT_FULL:
        return (infer_fused(client.snapshot, client.views),
                infer_fused(global_params, client.views))
    if ctype == CLIENT_PARTIAL:
        return (infer_fused(global_params, client.views),
                infer_fused(client.snapshot, client.views))
    return infer_fused(global_params, client.views), None


def _train_step(client: ClientState, params: ModelParams, rows: np.ndarray,
                global_params: ModelParams, config, use_contrast: bool,
                refs: tuple[np.ndarray, np.ndarray | None] | None,
                trainable: Sequence[Param], mu: float,
                ) -> tuple[Tensor, dict[str, float]]:
    """The total loss of ``params`` on batch ``rows``, recorded on a new
    tape, and its ``recon``, ``contrast``, ``drift`` and ``total`` values.

    Every client type's total is ``recon + alpha*contrast + (1-alpha)*drift``
    with its own contrast: feature plus label contrast on a full client,
    partial contrast on a partial one, the noise-enhanced contrast on a
    single-view one, and 0 when contrast is off. ``refs`` is None without
    drift, and then the drift term is left out. The drift term's proximal
    pull toward ``global_params`` has weight ``mu``; 0 leaves it out."""
    use_drift = refs is not None
    shard = client.shard
    ctype = client.client_type
    views_b = {v: x[rows] for v, x in client.views.items()}
    order = sorted(views_b)
    tape = Tape()
    want_probs = use_contrast and ctype == CLIENT_FULL
    fwd = forward_views(tape, params, views_b, want_probs=want_probs)
    recon = reconstruction_loss([views_b[v] for v in order],
                                [fwd.recons[v] for v in order])

    noisy_feat = None
    if ctype == CLIENT_SINGLE and (use_contrast or use_drift):
        (v0,) = shard.view_subset
        x = views_b[v0]
        noisy = x + client.rng.standard_normal(x.shape) * config.sigma_noise
        noisy_feat = high_features(tape, params, encode(tape, params, noisy, v0))

    feats = [fwd.feats[v] for v in order]
    if not use_contrast:
        contrast = tape.constant([[0.0]])
    elif ctype == CLIENT_FULL:
        feature = feature_contrast_full(feats, config.tau)
        contrast = T.add(label_contrast([fwd.probs[v] for v in order], config.tau),
                         feature)
    elif ctype == CLIENT_PARTIAL:
        # a one-sample shard has no in-batch negatives to contrast against
        contrast = (partial_contrast(fwd.fused, feats, config.tau)
                    if rows.size >= 2 else tape.constant([[0.0]]))
    else:
        contrast = single_view_contrast(fwd.fused, feats[0], noisy_feat, config.tau)
    total = T.add(recon, T.scale(contrast, config.alpha))

    drift = None
    if use_drift:
        pos, neg = refs
        # a single-view client's negative: the current model on noisy input, detached
        neg = noisy_feat.value if neg is None else neg[rows]
        global_values = [p.value for p in
                         global_params.trainable_params(shard.view_subset)]
        drift = drift_loss(fwd.fused, pos[rows], neg, [tape.leaf(p) for p in trainable],
                           global_values, config.tau, mu)
        total = T.add(total, T.scale(drift, 1.0 - config.alpha))

    stats = {
        "recon": float(recon.value[0, 0]),
        "contrast": float(contrast.value[0, 0]),
        "drift": float(drift.value[0, 0]) if drift is not None else 0.0,
        "total": float(total.value[0, 0]),
    }
    return total, stats


def local_train_round(client: ClientState, global_params: ModelParams, config,
                      round_index: int, working: ModelParams,
                      workspace: np.ndarray) -> dict[str, float]:
    """One round of local optimization in ``working``, the run's trainable
    model, then copy the result into the client's snapshot.

    Round 1 starts from the snapshot, the client's warm-up result; later
    rounds start from the global model, which :func:`broadcast` copies in.
    The drift term is active from round 2 on: in round 1 neither the
    snapshot nor the global model has moved past initialization, so there
    is nothing meaningful to contrast against. The round runs
    ``config.local_epochs`` epochs of the loop warm-up uses
    (:func:`_train_phase`).

    The first step of a round from 2 on runs at the global model itself,
    where the proximal term ``(mu/2)*||w - w_global||**2`` and its gradient
    are exactly +0.0, so that step leaves the term out; later steps keep
    it. This is exact: dropping a +0.0 from a leaf's gradient can change
    only the sign of a zero, and adding it into the gradient buffer, which
    holds +0.0 on every coordinate when a step starts, gives +0.0 either way.
    """
    if global_params is None:
        raise ValueError("local training requires the broadcast global parameters")
    if round_index < 1:
        raise ValueError(f"round_index must be >= 1, got {round_index}")
    use_contrast = not config.no_contrast
    use_drift = round_index >= 2 and not config.no_drift
    if round_index == 1:
        np.copyto(working.vector, client.snapshot.vector)
    else:
        broadcast(global_params, working)
    subset = client.shard.view_subset
    trainable = working.trainable_params(subset)
    refs = _drift_references(client, global_params) if use_drift else None
    mus = itertools.chain([0.0], itertools.repeat(config.mu))
    return _train_phase(
        client, config, config.local_epochs, f"round {round_index}", working,
        workspace, working.owned_spans(subset),
        lambda rows: _train_step(client, working, rows, global_params, config,
                                 use_contrast, refs, trainable, next(mus)),
        ("recon", "contrast", "drift", "total"))


def compute_weights(shards: Sequence[ClientShard], total_views: int,
                    mode: str) -> np.ndarray:
    """Aggregation weights: each shard's sample count, times its view
    coverage ``n_views / total_views`` in ``linear`` mode (the balanced
    aggregation) or times 1 in ``uniform`` mode (sample count alone, the
    FedAvg ablation), normalized to sum to 1.

    A shard is never empty (:class:`ClientShard` rejects that), and
    :func:`build_clients` keeps its views within ``total_views``."""
    if not shards:
        raise ValueError("cannot compute weights for no clients")
    check(alpha_c_mode=mode)
    raw = np.asarray([(s.n_views / total_views if mode == "linear" else 1.0)
                      * s.n_samples for s in shards], dtype=np.float64)
    return raw / raw.sum()


def aggregate(prev_global: ModelParams, client_params: Sequence[ModelParams],
              shards: Sequence[ClientShard], weights: Sequence[float]) -> ModelParams:
    """Weighted model average with per-view masking.

    One weighted sum of the clients' parameter vectors in which every
    coordinate has its own owners and weights. Shared nets average over
    every client. A view's autoencoder averages over the clients that
    actually own the view, with their weights renormalized; a view owned by
    nobody keeps the previous global values. Each coordinate sums its
    owners in ascending client-id order, so the reduction is bit-exact
    deterministic.
    """
    if not (len(client_params) == len(shards) == len(weights)):
        raise ValueError("client params, shards, and weights must align")
    order = sorted(range(len(shards)), key=lambda i: shards[i].client_id)
    client_params = [client_params[i] for i in order]
    shards = [shards[i] for i in order]
    weights = np.asarray([weights[i] for i in order], dtype=np.float64)
    if abs(weights.sum() - 1.0) > 1e-6:
        raise ValueError(f"aggregation weights sum to {weights.sum()}, expected 1")
    arch = prev_global.arch
    if any(p.arch != arch for p in client_params):
        raise DimensionError("parameter layout mismatch: client architectures differ")

    out = np.zeros_like(prev_global.vector)
    # (coordinates, owners, their weights), each coordinate in exactly one
    blocks = [(prev_global.shared_span(), range(len(shards)), weights)]
    for v in range(arch.n_views):
        owners = [i for i, s in enumerate(shards) if v in s.view_subset]
        spans = prev_global.view_spans(v)
        if not owners:
            for span in spans:
                out[span] = prev_global.vector[span]
            continue
        w = weights[owners]
        blocks += [(span, owners, w / w.sum()) for span in spans]
    for span, owners, w in blocks:
        for i, wi in zip(owners, w):
            out[span] += wi * client_params[i].vector[span]
    return ModelParams(arch, out)


def broadcast(global_params: ModelParams, working: ModelParams) -> None:
    """Copy the global model into the run's working model, in place.

    Every local round from round 2 on starts with it. No model is
    allocated, and the gradient is left as it is.
    """
    np.copyto(working.vector, global_params.vector)


def build_clients(dataset: MultiViewDataset, shards: Sequence[ClientShard],
                  base_params: ModelParams,
                  train_seed: np.random.SeedSequence) -> list[ClientState]:
    """Materialize client states; each holds only its own rows and views.

    Each client gets the one model buffer it keeps for the whole run: a
    grad-less snapshot, first a copy of ``base_params``. The trainable
    working model is not a client's: the run allocates one for all.
    """
    children = train_seed.spawn(len(shards))
    clients = []
    for shard, child in zip(shards, children):
        if any(not 0 <= v < dataset.n_views for v in shard.view_subset):
            raise ConfigError(
                f"client {shard.client_id}: view subset {shard.view_subset} out "
                f"of range for a {dataset.n_views}-view dataset")
        views = {v: dataset.views[v][shard.sample_indices]
                 for v in shard.view_subset}
        clients.append(ClientState(
            shard=shard,
            views=views,
            snapshot=base_params.clone(),
            rng=np.random.default_rng(child),
        ))
    return clients


def run_federation(config, dataset: MultiViewDataset,
                   initial_global: ModelParams | None = None,
                   round_hook: Callable[[ModelParams, RoundReport], None] | None = None,
                   ) -> ModelParams:
    """Full pipeline: partition, warm-up, then R rounds of train/aggregate.

    Deterministic per ``config.seed``, from which every stream is derived
    (``derive_seeds``). Returns the final global model, which
    is the initial one when ``config.rounds`` is 0. ``round_hook`` (if
    given) runs after each round's aggregation with the new global model
    and the round's report; it is the only way reports leave the run.
    """
    config.validate()
    seeds = derive_seeds(config.seed)
    if dataset.labels is None and config.dirichlet_beta is not None:
        raise ConfigError(
            "dirichlet_beta: label-skewed partitioning needs a labeled dataset "
            "(use dirichlet_beta=iid)")
    work = dataset.standardized() if config.standardize else dataset

    assignments = assign_views(config.n_clients, work.n_views, seeds.assign,
                               counts=config.mixed_counts)
    parts = dirichlet_partition(
        work.labels if work.labels is not None else np.zeros(work.n_samples),
        config.n_clients, config.dirichlet_beta, seeds.partition)
    shards = [ClientShard(i, subset, idx)
              for i, (subset, idx) in enumerate(zip(assignments, parts))]

    arch = Architecture(work.view_dims, work.n_clusters, config.latent_dim,
                        config.high_dim, config.hidden)
    if initial_global is None:
        initial_global = init_params(arch, seeds.init)
    elif initial_global.arch != arch:
        raise ConfigError(
            f"resume checkpoint architecture {initial_global.arch} does not match "
            f"the configured architecture {arch}")
    global_params = initial_global
    clients = build_clients(work, shards, global_params, seeds.train)
    # clients train one after another, so one working model with its
    # gradient and one optimizer state serve the whole run
    working = ModelParams(arch, trainable=True)
    workspace = optimizer_workspace(working.vector.size)
    for c in clients:
        pretrain_client(c, config, working, workspace)

    # the shards never change, so neither do the weights
    weights = compute_weights(shards, work.n_views, config.alpha_c_mode)
    for r in range(1, config.rounds + 1):
        t0 = time.perf_counter()
        losses = [local_train_round(c, global_params, config, r, working, workspace)
                  for c in clients]
        global_params = aggregate(global_params, [c.snapshot for c in clients],
                                  shards, weights)
        report = RoundReport(
            round_index=r,
            client_losses={c.shard.client_id: stats
                           for c, stats in zip(clients, losses)},
            weights=[float(w) for w in weights],
            wall_time=time.perf_counter() - t0,
        )
        if round_hook is not None:
            round_hook(global_params, report)
    return global_params
