"""Central finite-difference oracles for verifying autodiff gradients."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbones import ModelConfig, build_model, forward


def max_rel_error(analytic, numeric, floor: float = 1e-6) -> float:
    """Elementwise |a - n| / max(|a|, |n|, floor), reduced with max.

    The floor keeps near-zero gradient entries from inflating the ratio
    with finite-difference noise. A non-finite entry on either side is an
    infinite error, so a NaN can never pass a ``max`` over checks.
    """
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    if a.shape != n.shape:
        raise ValueError(f"max_rel_error: shape mismatch {a.shape} vs {n.shape}")
    if not (np.isfinite(a).all() and np.isfinite(n).all()):
        return float("inf")
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def numeric_grad(f, arr: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Full central-difference gradient of scalar f() w.r.t. arr.

    f must re-run the forward pass reading arr; arr is perturbed in place
    and restored.
    """
    return numeric_grad_sampled(f, arr, np.arange(arr.size), h).reshape(arr.shape)


def numeric_grad_sampled(f, arr: np.ndarray, flat_indices, h: float = 1e-5) -> np.ndarray:
    """Central differences at selected flat positions of arr only."""
    flat = arr.reshape(-1)
    out = np.zeros(len(flat_indices), dtype=np.float64)
    for k, i in enumerate(flat_indices):
        old = flat[i]
        flat[i] = old + h
        fp = f()
        flat[i] = old - h
        fm = f()
        flat[i] = old
        out[k] = (fp - fm) / (2.0 * h)
    return out


def sample_indices(rng: np.random.Generator, size: int, count: int) -> np.ndarray:
    """Up to `count` distinct flat indices into an array of `size` elements."""
    if size <= count:
        return np.arange(size)
    return rng.choice(size, size=count, replace=False)


def backbone_fd_worst(backbone: str, model_seed: int, rng: np.random.Generator,
                      dtype=np.float64, h: float = 1e-5) -> float:
    """Sampled end-to-end gradcheck of a tiny (L2C4) backbone.

    The loss is a weighted sum of the logits of a 16x16 input. ``rng`` draws
    the input, the weights, then 3 coordinates of every parameter tensor,
    each compared against central differences at step ``h``.
    """
    store = build_model(ModelConfig(backbone=backbone, levels=2, base_channels=4),
                        model_seed, dtype=dtype)
    x = Tensor(rng.normal(size=(1, 1, 16, 16)).astype(dtype))
    coef = Tensor(rng.normal(size=x.shape).astype(dtype))

    def loss():
        return ad.reduce_sum(ad.mul(forward(store, x), coef))

    def value():
        with ad.no_grad():
            return float(loss().data)

    ad.backward(loss())
    worst = 0.0
    for _, tens in store.items():
        idxs = sample_indices(rng, tens.data.size, 3)
        numeric = numeric_grad_sampled(value, tens.data, idxs, h)
        worst = max(worst, max_rel_error(tens.grad.reshape(-1)[idxs], numeric))
    return worst
