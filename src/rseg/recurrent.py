"""Unrolling a backbone over a slice sequence with prediction feedback.

Each step receives the current slice and, when the config is recurrent,
the previous step's predicted probability map as a second input channel.
The first step sees zeros ("no prior object"). Two training modes:

- detach (default): the previous prediction enters the step as a constant,
  so each step's gradient is exactly the isolated per-step gradient.
- full: gradients flow through the recurrent edge across all steps.

Probabilities, not thresholded masks, are carried across steps. Under
teacher forcing each step after the first is fed the previous slice's label
instead; ``next_feed`` is that rule. Then no step waits for another, and a
taped unroll runs the sequence's (T, 1, H, W) frame stack as one batch, fed
its label stack shifted by one slice. Predictions come back as such a stack.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbones import ParamStore, forward
from .data import SliceSequence, to_sequence
from .metrics import VolumeMask

MODES = ("detach", "full")


def step(params: ParamStore, x_t: Tensor, y_prev: Tensor = None) -> Tensor:
    """Slices (one, or a batch) through the backbone; sigmoid applied to the logits."""
    cfg = params.config
    if cfg.recurrent:
        if y_prev is None:
            raise ValueError("recurrent step needs the previous prediction")
        if y_prev.shape != (x_t.shape[0], 1, x_t.shape[2], x_t.shape[3]):
            raise ValueError(
                f"previous prediction shape {y_prev.shape} does not match slice {x_t.shape}"
            )
        inp = ad.concat_channels(x_t, y_prev)
    else:
        inp = x_t
    return ad.sigmoid(forward(params, inp))


def unroll_forward(
    params: ParamStore,
    seq: SliceSequence,
    y0: Tensor = None,
    mode: str = "detach",
    teacher_forcing: bool = False,
) -> Tensor:
    """Predictions for every slice, in sequence order, as one (T, 1, H, W) stack.

    Taped, with no step's input depending on an earlier output (teacher
    forcing, or no feedback), the slices run as one batch through one
    ``step``; batch norm normalizes each item on its own, so the values are
    the per-slice loop's. Otherwise one slice per call, joined once at the
    end: untaped, a batch would hold every slice's temporaries at once,
    where a tape holds every slice's activations anyway.
    """
    if len(seq) == 0:
        raise ValueError("cannot unroll an empty sequence")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if teacher_forcing and seq.labels is None:
        raise ValueError("teacher forcing needs a labeled sequence")
    if y0 is None:
        y0 = Tensor(np.zeros_like(seq.frames[:1]))
    recurrent = params.config.recurrent
    # a y0 that takes a gradient in full mode needs its own step
    if ad.grad_enabled() and (not recurrent or teacher_forcing) and not (
            mode == "full" and y0.requires_grad):
        feed = Tensor(np.concatenate([y0.data, seq.labels[:-1]])) if recurrent else None
        return step(params, Tensor(seq.frames), feed)
    preds = []
    y_prev = y0
    for t in range(len(seq)):
        feed = y_prev.detach() if mode == "detach" else y_prev
        pred = step(params, Tensor(seq.frames[t:t + 1]), feed)
        preds.append(pred)
        y_prev = next_feed(seq, t, pred, teacher_forcing)
    return ad.concat_batch(preds)


def next_feed(seq: SliceSequence, t: int, pred: Tensor, teacher_forcing: bool) -> Tensor:
    """What the slice after slice t is fed: label t under teacher forcing, else its prediction."""
    return Tensor(seq.labels[t:t + 1]) if teacher_forcing else pred


def segment_sequence(params: ParamStore, seq: SliceSequence, threshold: float):
    """Untaped free-running pass with a zero prior; ((T, 1, H, W) probabilities, cropped mask).

    The mask thresholds strictly and drops the padding that ``to_sequence`` added.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be inside (0, 1), got {threshold}")
    with ad.no_grad():
        preds = unroll_forward(params, seq, mode="detach")
    voxels = seq.restore(preds.data > threshold).astype(np.uint8)
    return preds, VolumeMask(voxels, seq.spacing_mm)


def segment_volume(params: ParamStore, volume, threshold: float = 0.5) -> VolumeMask:
    """Slice the volume and return ``segment_sequence``'s mask.

    Extents that are not divisible by 2^levels are zero-padded on the way
    in and cropped on the way out, so the mask always matches the volume.
    """
    seq = to_sequence(volume, pad_to=2 ** params.config.levels)
    return segment_sequence(params, seq, threshold)[1]
