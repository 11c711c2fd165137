"""The terms of the clients' training objectives.

``fedmvc.federation`` composes each client type's objective from them.
Every contrastive term measures similarity with row-wise cosine, so all
of them are invariant to a common positive rescaling of the feature
rows. Reference features (from the frozen previous-round model or the
broadcast global model) enter as plain arrays: they are constants and
never receive gradients. Each contrast and the reconstruction loss are one
tape node each (see ``fedmvc.tensor``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import tensor as T
from .tensor import Tensor


def reconstruction_loss(inputs: Sequence, recons: Sequence[Tensor]) -> Tensor:
    """Mean (over samples) of the summed squared residuals, all views."""
    if len(inputs) != len(recons) or not recons:
        raise ValueError("need one input per reconstruction")
    n = recons[0].value.shape[0]
    return T.scale(T.sum_sq_dist(recons, inputs), 1.0 / n)


def feature_contrast_full(feats: Sequence[Tensor], tau: float) -> Tensor:
    """Cross-view contrast on high-level features (full-view clients): the
    cycled-partner NT-Xent over matched rows (``tensor.cycled_nt_xent``)."""
    if len(feats) < 2:
        raise ValueError("feature contrast needs at least two views")
    return T.cycled_nt_xent(feats, tau)


def label_contrast(probs: Sequence[Tensor], tau: float) -> Tensor:
    """Cross-view contrast on cluster-assignment columns: the cycled-partner
    NT-Xent over matched columns (``tensor.cycled_nt_xent``), with no
    cluster-size regularizer."""
    if len(probs) < 2:
        raise ValueError("label contrast needs at least two views")
    return T.cycled_nt_xent(probs, tau, columns=True)


def partial_contrast(fused: Tensor, feats: Sequence[Tensor], tau: float) -> Tensor:
    """Align each available view's features with the fused common ones.

    The denominator ranges over the other samples only (j != i), so the
    value can be negative; that is the intended form.
    """
    if not feats:
        raise ValueError("partial contrast needs at least one view")
    if fused.value.shape[0] < 2:
        raise ValueError("partial contrast needs at least two samples")
    return T.partial_nt_xent(fused, feats, tau)


def single_view_contrast(fused: Tensor, feat: Tensor, feat_noisy, tau: float) -> Tensor:
    """Noise-enhanced contrast for one-view clients: the perturbed-input
    features act as the negative against the clean positives, cos(clean,
    fused) against cos(clean, noisy)."""
    return T.one_vs_one_nt_xent(feat, fused, feat_noisy, tau)


def drift_loss(fused: Tensor, pos_ref: np.ndarray, neg_ref: np.ndarray,
               local_params: Sequence[Tensor], global_values: Sequence[np.ndarray],
               tau: float, mu: float) -> Tensor:
    """Per-sample contrast against reference features plus the proximal
    pull of the local weights toward the broadcast global weights.

    ``local_params`` are tape leaves of the trainable weights and
    ``global_values`` the matching global arrays; the reference feature
    matrices are constants.
    """
    loss = T.one_vs_one_nt_xent(fused, pos_ref, neg_ref, tau)
    if mu:
        prox = T.sum_sq_dist(local_params, global_values)
        loss = T.add(loss, T.scale(prox, mu / 2.0))
    return loss
