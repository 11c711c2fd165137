"""Training objectives for the three client types.

Every contrastive term measures similarity with row-wise cosine, so all
of them are invariant to a common positive rescaling of the feature
rows. Reference features (from the frozen previous-round model or the
broadcast global model) enter as plain arrays: they are constants and
never receive gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .data import CLIENT_FULL, CLIENT_PARTIAL, CLIENT_SINGLE
from .errors import DimensionError
from .tensor import Tensor


def cosine_sim(a, b, on_zero: str = "zero") -> float:
    """Cosine similarity of two vectors, in [-1, 1].

    By convention a zero-norm input yields 0.0 (the degenerate case);
    pass ``on_zero="raise"`` to get a ValueError instead.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise DimensionError(f"vectors have different lengths {a.size} and {b.size}")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        if on_zero == "raise":
            raise ValueError("cosine similarity of a zero-norm vector is undefined")
        return 0.0
    return float(a @ b / (na * nb))


def reconstruction_loss(inputs: Sequence, recons: Sequence[Tensor]) -> Tensor:
    """Mean (over samples) of the summed squared residuals, all views."""
    if len(inputs) != len(recons) or not recons:
        raise ValueError("need one input per reconstruction")
    n = recons[0].value.shape[0]
    total = None
    for x, xhat in zip(inputs, recons):
        diff = T.sub(xhat, x)
        term = T.sum_all(T.mul(diff, diff))
        total = term if total is None else T.add(total, term)
    return T.scale(total, 1.0 / n)


def _diag_and_offdiag(n: int) -> tuple[np.ndarray, np.ndarray]:
    eye = np.eye(n)
    return eye, 1.0 - eye


def _cross_view_nt_xent(items: Sequence[Tensor], tau: float, denom: int) -> Tensor:
    """Cycled-partner NT-Xent over matched rows of the given matrices.

    Row i of view v is paired with row i of the next view n = (v+1) mod V;
    the denominator sums similarities against every row of both views and
    subtracts e^{1/tau}, the anchor's similarity to itself.
    """
    n_views = len(items)
    n_rows = items[0].value.shape[0]
    units = [T.normalize_rows(t) for t in items]
    eye, _ = _diag_and_offdiag(n_rows)
    inv_tau = 1.0 / tau
    total = None
    for v in range(n_views):
        nxt = (v + 1) % n_views
        a, b = units[v], units[nxt]
        s_own = T.matmul(a, T.transpose(a))
        s_pair = T.matmul(a, T.transpose(b))
        den = T.add_scalar(
            T.add(T.rowsum(T.exp(T.scale(s_own, inv_tau))),
                  T.rowsum(T.exp(T.scale(s_pair, inv_tau)))),
            -math.exp(inv_tau))
        pos = T.rowsum(T.mul(s_pair, eye))
        term = T.sub(T.log(den), T.scale(pos, inv_tau))
        total = term if total is None else T.add(total, term)
    return T.scale(T.sum_all(total), 1.0 / denom)


def feature_contrast_full(feats: Sequence[Tensor], tau: float) -> Tensor:
    """Cross-view contrast on high-level features (full-view clients)."""
    if len(feats) < 2:
        raise ValueError("feature contrast needs at least two views")
    shape = feats[0].value.shape
    for f in feats:
        if f.value.shape != shape:
            raise DimensionError("all feature matrices must share one shape")
    return _cross_view_nt_xent(feats, tau, denom=shape[0])


def cluster_size_entropy(probs: Sequence[Tensor]) -> Tensor:
    """sum_v sum_j s_j log s_j over mean cluster masses s_j (one view's
    s_j is the column mean of its assignment matrix). Minimizing this
    pushes cluster sizes toward uniform."""
    if not probs:
        raise ValueError("need at least one assignment matrix")
    reg = None
    for q in probs:
        n = q.value.shape[0]
        sizes = T.scale(T.colsum(q), 1.0 / n)
        term = T.sum_all(T.xlogx(sizes))
        reg = term if reg is None else T.add(reg, term)
    return reg


def label_contrast(probs: Sequence[Tensor], tau: float) -> Tensor:
    """Cross-view contrast on cluster-assignment columns, plus the
    cluster-size regularizer :func:`cluster_size_entropy`."""
    if len(probs) < 2:
        raise ValueError("label contrast needs at least two views")
    n, k = probs[0].value.shape
    for q in probs:
        if q.value.shape != (n, k):
            raise DimensionError("all assignment matrices must share one shape")
    columns = [T.transpose(q) for q in probs]
    contrast = _cross_view_nt_xent(columns, tau, denom=k)
    return T.add(contrast, cluster_size_entropy(probs))


def partial_contrast(fused: Tensor, feats: Sequence[Tensor], tau: float) -> Tensor:
    """Align each available view's features with the fused common ones.

    The denominator ranges over the other samples only (j != i), so the
    value can be negative; that is the intended form.
    """
    if not feats:
        raise ValueError("partial contrast needs at least one view")
    n = fused.value.shape[0]
    if n < 2:
        raise ValueError("partial contrast needs at least two samples")
    eye, offdiag = _diag_and_offdiag(n)
    inv_tau = 1.0 / tau
    u_fused = T.normalize_rows(fused)
    total = None
    for f in feats:
        if f.value.shape != fused.value.shape:
            raise DimensionError("feature matrices must match the fused shape")
        sims = T.matmul(u_fused, T.transpose(T.normalize_rows(f)))
        e = T.exp(T.scale(sims, inv_tau))
        den = T.rowsum(T.mul(e, offdiag))
        pos = T.rowsum(T.mul(sims, eye))
        term = T.sub(T.log(den), T.scale(pos, inv_tau))
        total = term if total is None else T.add(total, term)
    return T.scale(T.sum_all(total), 1.0 / n)


def _one_vs_one_nt_xent(pos_sims: Tensor, neg_sims: Tensor, tau: float) -> Tensor:
    """-(1/N) sum_i log( e^{pos_i/tau} / (e^{pos_i/tau} + e^{neg_i/tau}) )."""
    n = pos_sims.value.shape[0]
    inv_tau = 1.0 / tau
    den = T.add(T.exp(T.scale(pos_sims, inv_tau)), T.exp(T.scale(neg_sims, inv_tau)))
    term = T.sub(T.log(den), T.scale(pos_sims, inv_tau))
    return T.scale(T.sum_all(term), 1.0 / n)


def _row_cosines(a: Tensor, b: Tensor) -> Tensor:
    return T.rowsum(T.mul(T.normalize_rows(a), T.normalize_rows(b)))


def single_view_contrast(fused: Tensor, feat: Tensor, feat_noisy, tau: float) -> Tensor:
    """Noise-enhanced contrast for one-view clients: the perturbed-input
    features act as the negative against the clean positives."""
    tape = fused.tape
    feat_noisy = T.wrap(tape, feat_noisy)
    if not (fused.value.shape == feat.value.shape == feat_noisy.value.shape):
        raise DimensionError("fused, clean, and noisy features must share one shape")
    u_feat = T.normalize_rows(feat)
    pos = T.rowsum(T.mul(T.normalize_rows(fused), u_feat))
    neg = T.rowsum(T.mul(u_feat, T.normalize_rows(feat_noisy)))
    return _one_vs_one_nt_xent(pos, neg, tau)


def drift_loss(fused: Tensor, pos_ref: np.ndarray, neg_ref: np.ndarray,
               local_params: Sequence[Tensor], global_values: Sequence[np.ndarray],
               tau: float, mu: float) -> Tensor:
    """Per-sample contrast against reference features plus the proximal
    pull of the local weights toward the broadcast global weights.

    ``local_params`` are tape leaves of the trainable weights and
    ``global_values`` the matching global arrays; the reference feature
    matrices are constants.
    """
    tape = fused.tape
    pos = _row_cosines(fused, T.wrap(tape, pos_ref))
    neg = _row_cosines(fused, T.wrap(tape, neg_ref))
    loss = _one_vs_one_nt_xent(pos, neg, tau)
    if mu:
        prox = T.sum_sq_dist(local_params, global_values)
        loss = T.add(loss, T.scale(prox, mu / 2.0))
    return loss


@dataclass
class LossComponents:
    """The pieces a client's total objective is assembled from."""

    recon: Tensor
    feature: Tensor | None = None
    label: Tensor | None = None
    partial: Tensor | None = None
    single: Tensor | None = None
    drift: Tensor | None = None


def total_loss(client_type: str, comps: LossComponents, alpha: float) -> Tensor:
    """Combine components for the given client type:

    full:    recon + alpha*(label + feature) + (1-alpha)*drift
    partial: recon + alpha*partial           + (1-alpha)*drift
    single:  recon + alpha*single            + (1-alpha)*drift

    A missing drift component means it is skipped for this round (its
    coefficient multiplies zero).
    """
    if client_type == CLIENT_FULL:
        if comps.feature is None or comps.label is None:
            raise ValueError("full-view total loss needs feature and label contrast")
        contrast = T.add(comps.label, comps.feature)
    elif client_type == CLIENT_PARTIAL:
        if comps.partial is None:
            raise ValueError("partial-view total loss needs the partial contrast")
        contrast = comps.partial
    elif client_type == CLIENT_SINGLE:
        if comps.single is None:
            raise ValueError("single-view total loss needs the single-view contrast")
        contrast = comps.single
    else:
        raise ValueError(f"unknown client type {client_type!r}")
    total = T.add(comps.recon, T.scale(contrast, alpha))
    if comps.drift is not None:
        total = T.add(total, T.scale(comps.drift, 1.0 - alpha))
    return total
