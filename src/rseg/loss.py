"""Combined Dice + binary cross-entropy objective and its analytic gradient.

Each loss scores one slice, or with ``items = n`` each slice of an n-stack.
The sequence loss is the plain sum of the per-slice losses, so the gradient of
the total with respect to any one slice's prediction is exactly its own gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

BCE_CLAMP = 1e-7
DICE_SMOOTHING = 1e-6


@dataclass(frozen=True)
class LossWeights:
    """Mixing weights: omega1 scales the BCE term, omega2 the Dice term."""

    omega1: float = 0.5
    omega2: float = 0.5

    def __post_init__(self):
        if self.omega1 < 0 or self.omega2 < 0:
            raise ValueError(f"loss weights must be >= 0, got ({self.omega1}, {self.omega2})")
        if self.omega1 + self.omega2 <= 0:
            raise ValueError("at least one loss weight must be positive")


def _check_pair(pred: Tensor, target: Tensor, op: str) -> None:
    if pred.shape != target.shape:
        raise ValueError(f"{op}: shape mismatch {pred.shape} vs {target.shape}")
    td = target.data
    if not np.all((td == 0) | (td == 1)):
        raise ValueError(f"{op}: target must be binary")


def bce_loss(pred: Tensor, target: Tensor, items: int = None) -> Tensor:
    """Mean binary cross-entropy; predictions clamped away from {0, 1}."""
    _check_pair(pred, target, "bce_loss")
    n = pred.data.size // (items or 1)
    p = ad.clamp(pred, BCE_CLAMP, 1.0 - BCE_CLAMP)
    ones = Tensor(np.ones_like(pred.data))
    pos = ad.mul(target, ad.log(p))
    neg = ad.mul(ad.sub(ones, target), ad.log(ad.sub(ones, p)))
    return ad.scale(ad.reduce_sum(ad.add(pos, neg), items), -1.0 / n)


def dice_loss(pred: Tensor, target: Tensor, smoothing: float = DICE_SMOOTHING,
              items: int = None) -> Tensor:
    """1 - 2|y.p| / (|y| + |p|), smoothed so empty-vs-empty is well defined."""
    _check_pair(pred, target, "dice_loss")
    inter = ad.reduce_sum(ad.mul(target, pred), items)
    total = ad.reduce_sum(ad.add(target, pred), items)
    s = Tensor(np.full(inter.shape, smoothing, dtype=pred.dtype))
    num = ad.add(ad.scale(inter, 2.0), s)
    den = ad.add(total, s)
    return ad.sub(Tensor(np.ones(inter.shape, dtype=pred.dtype)), ad.div(num, den))


def combined_loss(pred: Tensor, target: Tensor, w: LossWeights = LossWeights(),
                  smoothing: float = DICE_SMOOTHING, items: int = None) -> Tensor:
    return ad.add(
        ad.scale(bce_loss(pred, target, items), w.omega1),
        ad.scale(dice_loss(pred, target, smoothing, items), w.omega2),
    )


def sequence_loss(preds, targets) -> Tensor:
    """Sum of the per-slice combined losses at the default weights, in slice order.

    Takes stacks along axis 0, as ``unroll_forward`` returns, or lists of slices to join.
    """
    if isinstance(preds, Tensor):
        return ad.reduce_sum(combined_loss(preds, targets, items=len(preds.data)))
    if len(preds) != len(targets) or len({t.shape for t in (*preds, *targets)}) != 1:
        raise ValueError(f"sequence_loss: {len(preds)} predictions and {len(targets)} targets; "
                         "it needs one of each per slice, all of one shape")
    stacked = Tensor(np.concatenate([t.data for t in targets]))
    return ad.reduce_sum(combined_loss(ad.concat_batch(preds), stacked, items=len(preds)))


def grad_loss_wrt_pred(
    pred: Tensor,
    target: Tensor,
    w: LossWeights = LossWeights(),
    smoothing: float = 0.0,
) -> Tensor:
    """Closed-form d(combined_loss)/d(pred), computed without the tape.

    Assumes pred already sits inside the BCE clamp bounds; the autodiff
    gradient of combined_loss is the independent cross-check.
    """
    _check_pair(pred, target, "grad_loss_wrt_pred")
    y = target.data
    p = pred.data
    n = p.size
    bce_part = -(w.omega1 / n) * (y / p - (1.0 - y) / (1.0 - p))
    q = float((y + p).sum()) + smoothing
    inter2 = 2.0 * float((y * p).sum()) + smoothing
    dice_part = w.omega2 * (-2.0 * y / q + inter2 / (q * q))
    return Tensor(bce_part + dice_part)
