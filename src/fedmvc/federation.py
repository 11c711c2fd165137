"""Federated round loop: local training, balanced aggregation, broadcast.

Warm-up and every round train their clients in parallel, one process per
CPU the run may use (at most one per client): the main process and workers
forked once, before warm-up. A run keeps its state in one record
(:class:`_Run`) that the workers inherit by fork, and every job of its
processes is one :func:`split` of numbered items over them: process ``p``
of ``P`` runs the items ``p::P``. Warm-up and each round split the
clients, so each process warms up and trains the same clients for the
whole run, one after another in its own trainable working model; an
evaluation in the round hook splits its k-means restarts. The global model
and every client's snapshot live in shared memory mappings, so a worker's
share of a round carries only the round's index and returns its clients'
losses. A run is deterministic per master seed, whatever its process
count: every client owns its data, a grad-less snapshot of its latest
model, and its random stream, and the server always reduces in ascending
client-id order. A snapshot is read and written only on the coordinates
its client trains (:attr:`ClientState.spans`), so the pages of the other
coordinates are never touched and the system never allocates them.

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
import mmap
import os
import pickle
import sys
import time
from dataclasses import dataclass, field
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
from .errors import ConfigError, DimensionError, FedmvcError, TrainingError
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

    ``snapshot`` is the client's model, allocated once by
    :func:`build_clients` as a row of a shared memory mapping, without a
    gradient. Only its ``spans`` are ever read or written: the coordinates
    the client trains and shares, its views' autoencoders and the shared
    nets (:meth:`ModelParams.owned_spans`). They hold the initial global
    model until warm-up, then the client's model from the end of its
    latest phase (warm-up or round): what :func:`aggregate` reads of it and
    the drift term's frozen previous-round model. The other coordinates
    keep whatever they held (zeros from :func:`build_clients`), and nothing
    reads them. Training happens in the working model of the
    process that owns the client, the one whose share of every
    :func:`split` of the clients holds it (see :func:`local_train_round`).
    That process alone, from warm-up on, advances the client's rng: the
    main process's copy of a worker's client keeps its initial state.

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
    spans: list[slice] = field(init=False, repr=False)

    def __post_init__(self):
        self.spans = self.snapshot.owned_spans(self.shard.view_subset)

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


def _copy_spans(dst: np.ndarray, src: np.ndarray, spans: Sequence[slice]) -> None:
    for span in spans:
        dst[span] = src[span]


def _train_phase(client: ClientState, config, epochs: int, where: str,
                 working: ModelParams, workspace: np.ndarray, spans: list[slice],
                 step: Callable[[np.ndarray], tuple[Tensor, dict[str, float]]],
                 keys: Sequence[str]) -> dict[str, float]:
    """The training loop of warm-up and of every local round.

    Each of ``epochs`` epochs draws one permutation of the client's rows
    and steps the optimizer once per batch of it. ``step(rows)`` records a
    batch's loss and returns it with its stats. The optimizer starts from
    zero state in ``workspace`` and updates only ``spans`` of ``working``;
    then the client's spans (:attr:`ClientState.spans`) of ``working`` are
    copied into its snapshot. Returns the mean of each of ``keys`` over the
    steps, 0.0 when none ran.

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
    _copy_spans(client.snapshot.vector, working.vector, client.spans)
    return {k: v / steps if steps else 0.0 for k, v in sums.items()}


def pretrain_client(client: ClientState, config, working: ModelParams,
                    workspace: np.ndarray) -> dict[str, float]:
    """Warm up the client's autoencoders on reconstruction alone.

    Runs ``config.warmup_epochs`` epochs of the loop local rounds use
    (:func:`_train_phase`) in ``working``, the run's trainable model,
    starting from a copy of the client's spans of its snapshot (the initial
    global model); the result is copied back into those spans. The rest of
    ``working`` holds what the process's previous client left, and nothing
    reads it.
    """
    _copy_spans(working.vector, client.snapshot.vector, client.spans)
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
    model, then copy the client's spans of the result into its snapshot.

    Round 1 starts from the client's spans of the snapshot, its warm-up
    result (nothing reads the rest of ``working``); later rounds start from
    the global model, which :func:`broadcast` copies in.
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
        _copy_spans(working.vector, client.snapshot.vector, client.spans)
    else:
        broadcast(global_params, working)
    trainable = working.trainable_params(client.shard.view_subset)
    refs = _drift_references(client, global_params) if use_drift else None
    mus = itertools.chain([0.0], itertools.repeat(config.mu))
    return _train_phase(
        client, config, config.local_epochs, f"round {round_index}", working,
        workspace, client.spans,
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


def _shared_rows(n_rows: int, size: int) -> np.ndarray:
    """An ``(n_rows, size)`` float64 array of zeros in one anonymous shared
    mapping: a process forked later reads and writes the same pages."""
    block = mmap.mmap(-1, n_rows * size * 8)
    return np.frombuffer(block, dtype=np.float64).reshape(n_rows, size)


def build_clients(dataset: MultiViewDataset, shards: Sequence[ClientShard],
                  base_params: ModelParams,
                  train_seed: np.random.SeedSequence) -> list[ClientState]:
    """Materialize client states; each holds only its own rows and views.

    Each client gets the one model buffer it keeps for the whole run: a
    grad-less snapshot whose spans (:attr:`ClientState.spans`) are first a
    copy of those of ``base_params``; its other coordinates stay zero. The
    snapshots are the rows of one shared mapping (see :func:`_shared_rows`),
    so a process forked after this call writes its clients' snapshots where
    every process reads them, and a page that holds none of a client's
    spans is never allocated. The trainable working model is not a
    client's: each training process has one, in the run's record
    (:class:`_Run`).
    """
    rows = _shared_rows(len(shards), base_params.vector.size)
    children = train_seed.spawn(len(shards))
    clients = []
    for shard, child, row in zip(shards, children, rows):
        if any(not 0 <= v < dataset.n_views for v in shard.view_subset):
            raise ConfigError(
                f"client {shard.client_id}: view subset {shard.view_subset} out "
                f"of range for a {dataset.n_views}-view dataset")
        views = {v: dataset.views[v][shard.sample_indices]
                 for v in shard.view_subset}
        client = ClientState(
            shard=shard,
            views=views,
            snapshot=ModelParams(base_params.arch, row),
            rng=np.random.default_rng(child),
        )
        _copy_spans(row, base_params.vector, client.spans)
        clients.append(client)
    return clients


def model_architecture(config, dataset: MultiViewDataset) -> Architecture:
    """The architecture a run of ``config`` on ``dataset`` trains; a
    resumed run's checkpoint must have it."""
    return Architecture(dataset.view_dims, dataset.n_clusters, config.latent_dim,
                        config.high_dim, config.hidden)


def _usable_cpus() -> int:
    """The CPUs this process may run on: the most processes a round uses.

    One where the platform has no CPU affinity call (it may not fork
    safely either), and in a daemonic ``multiprocessing`` process, which
    may not start processes of its own.
    """
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.current_process().daemon:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _each(task: Callable, indices, args: tuple) -> tuple[dict, tuple | None]:
    """``task(i, *args)`` for each ``i`` of ``indices`` in order: the results
    by item, and the first failing item and its exception (None when none
    failed), after which no call runs. Every process's share of a
    :func:`split` returns this."""
    done = {}
    for i in indices:
        try:
            done[i] = task(i, *args)
        except Exception as err:
            return done, (i, err)
    return done, None


def _train(i: int, round_index: int) -> dict[str, float]:
    """Warm up client ``i`` of the run in progress (``round_index`` 0), or
    train it for round ``round_index``, in this process's working model."""
    run = _run
    if round_index == 0:
        return pretrain_client(run.clients[i], run.config, run.working, run.workspace)
    return local_train_round(run.clients[i], run.shared_global, run.config,
                             round_index, run.working, run.workspace)


def _portable(err: Exception) -> Exception:
    """``err``, or when it would not come through a pipe (it does not pickle,
    or does not unpickle), a :class:`FedmvcError` with its type and message."""
    try:
        pickle.loads(pickle.dumps(err))
    except Exception:
        return FedmvcError(f"{type(err).__name__}: {err}")
    return err


def _serve(conn, inherited) -> None:
    """A worker's loop, until "stop" or end of file. Each message
    ``(task, indices, args)`` is the worker's share of a :func:`split`, and
    the reply is what :func:`_each` returns, with the error made portable.
    The task reads the run's state from the record the worker inherited by
    fork (:class:`_Run`).

    The worker ignores SIGINT (the main process handles it and stops the
    workers), and closes ``inherited``, the main process's pipe ends it
    was forked with, so that when the main process dies, the worker's next
    read ends the loop.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for other in inherited:
        other.close()
    while True:
        try:
            message = conn.recv()
            if message == "stop":
                return
            done, failed = _each(*message)
            if failed:
                failed = (failed[0], _portable(failed[1]))
            conn.send((done, failed))
        except (EOFError, OSError):
            return


def _talk(what: str, call: Callable, *args):
    try:
        return call(*args)
    except (EOFError, OSError):
        raise FedmvcError(f"{what}: a training process exited without "
                          "replying") from None


class _Workers:
    """The processes a run forks once, before warm-up (:meth:`fork`), that
    serve their shares of every :func:`split` of the run (:func:`_serve`)
    until :meth:`stop`. They belong to the process that forked them
    (``pid``); with none, every item of a split runs in this process."""

    def __init__(self):
        self.pid = os.getpid()
        self.conns, self.procs = [], []

    def fork(self, n: int) -> None:
        """Start ``n`` workers; each inherits the run's record (:data:`_run`)."""
        if not n:
            return
        # only a run that forks pays for importing multiprocessing
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        for _ in range(n):
            mine, theirs = ctx.Pipe()
            proc = ctx.Process(target=_serve, daemon=True,
                               args=(theirs, [*self.conns, mine]))
            proc.start()
            theirs.close()
            self.conns.append(mine)
            self.procs.append(proc)

    def replies(self, what) -> list:
        # Wait by polling, not in a blocking read: on a 2-vCPU virtual
        # machine, a process whose CPU had gone idle ran up to 45 % slower
        # for the next 70 ms, and evaluation follows the round. sched_yield
        # lets any other runnable process have this CPU.
        for conn in self.conns:
            while not _talk(what, conn.poll):
                os.sched_yield()
        return [_talk(what, conn.recv) for conn in self.conns]

    def stop(self) -> None:
        for conn in self.conns:
            try:
                conn.send("stop")
            except OSError:
                pass
            conn.close()
        for proc in self.procs:
            # an idle worker stops at once; one still in a round is ended
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.terminate()
                proc.join()


@dataclass(frozen=True)
class _Run:
    """The state of a run that its processes share: the clients, the global
    model each round trains against (in a shared mapping), the config, this
    process's trainable working model and optimizer workspace, and the
    workers. Each process trains its clients one after another, so one
    working model and one workspace serve all of them."""

    clients: list[ClientState]
    shared_global: ModelParams
    config: object
    working: ModelParams
    workspace: np.ndarray
    workers: _Workers


# The record of the run in progress, from before its workers fork until it
# returns or raises: the workers inherit it, and split finds them in it.
# None outside every run.
_run: _Run | None = None


def split(what: str, task: Callable, n_items: int, *args) -> dict:
    """``task(i, *args)`` for each item ``i`` of ``range(n_items)``, split
    over the processes of the run in progress: process ``p`` of ``P`` (this
    one is 0, worker ``p`` is ``p``) runs the items ``p::P`` in order until
    its first failure (:func:`_each`). In a worker, in any other process
    forked during a run, and outside every run, ``P`` is 1 and every item
    runs here.

    ``task`` is a module-level function, so a worker finds it by name.
    Every reply is read before anything is raised, so the pipes stay in
    step for the next split. Returns every item's result by item; when an
    item failed, raises the exception of the lowest failing item, the one a
    serial run would meet first. ``what`` names the job in the error of a
    worker that exits without replying.
    """
    workers = _run.workers if _run is not None else None
    if workers is None or workers.pid != os.getpid():
        workers = _Workers()
    n_procs = 1 + len(workers.conns)
    for p, conn in enumerate(workers.conns, start=1):
        _talk(what, conn.send, (task, range(p, n_items, n_procs), args))
    try:
        done, failed = _each(task, range(0, n_items, n_procs), args)
    finally:
        replies = workers.replies(what)
    failures = [failed] if failed else []
    for their_done, their_failed in replies:
        done.update(their_done)
        failures += [their_failed] if their_failed else []
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return done


def run_federation(config, dataset: MultiViewDataset,
                   initial_global: ModelParams | None = None,
                   round_hook: Callable[[ModelParams, RoundReport], None] | None = None,
                   ) -> ModelParams:
    """Full pipeline: partition, warm-up, then R rounds of train/aggregate.

    Deterministic per ``config.seed``, from which every stream is derived
    (``derive_seeds``), and bitwise the same for any process count. Returns
    the final global model, which is the initial one when ``config.rounds``
    is 0. ``round_hook`` (if given) runs after each round's aggregation
    with the new global model and the round's report; it is the only way
    reports leave the run.

    Warm-up and rounds use one process per CPU in this process's affinity
    mask, at most one per client: this process and workers forked before
    warm-up, which end before the function returns or raises. Each process
    warms up and trains the same clients. A failing warm-up or round raises
    the exception of its lowest-numbered failing client, the one a serial
    run would meet first. A run of no rounds warms up no client, since
    nothing would read the result. In ``round_hook``, :func:`split`
    (through ``fedmvc.evaluation.kmeans_best``) gives the run's workers
    work too; a run nested in the hook gives them back to this run when it
    ends.
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

    arch = model_architecture(config, work)
    if initial_global is None:
        initial_global = init_params(arch, seeds.init)
    elif initial_global.arch != arch:
        raise ConfigError(
            f"resume checkpoint architecture {initial_global.arch} does not match "
            f"the configured architecture {arch}")
    global_params = initial_global
    # the global model each round trains against, where every process reads it
    shared_global = ModelParams(arch, _shared_rows(1, global_params.vector.size)[0])
    clients = build_clients(work, shards, global_params, seeds.train)
    run = _Run(clients, shared_global, config, ModelParams(arch, trainable=True),
               optimizer_workspace(global_params.vector.size), _Workers())

    # the shards never change, so neither do the weights
    weights = compute_weights(shards, work.n_views, config.alpha_c_mode)
    # warm-up and every round split the clients by the same stride, so each
    # process trains the same clients all run; any split gives the same bits
    n_procs = min(_usable_cpus(), len(clients)) if config.rounds else 1
    global _run
    outer, _run = _run, run
    try:
        run.workers.fork(n_procs - 1)
        if config.rounds:
            split("warm-up", _train, len(clients), 0)
        for r in range(1, config.rounds + 1):
            t0 = time.perf_counter()
            np.copyto(shared_global.vector, global_params.vector)
            losses = split(f"round {r}", _train, len(clients), r)
            global_params = aggregate(global_params, [c.snapshot for c in clients],
                                      shards, weights)
            report = RoundReport(
                round_index=r,
                client_losses={c.shard.client_id: losses[i]
                               for i, c in enumerate(clients)},
                weights=[float(w) for w in weights],
                wall_time=time.perf_counter() - t0,
            )
            if round_hook is not None:
                round_hook(global_params, report)
    finally:
        run.workers.stop()
        # a nested run gives its caller's record back the same way
        _run = outer
    return global_params
