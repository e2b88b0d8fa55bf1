"""Finite-difference cases for every autodiff op, shared across test files.

Each case builds a scalar loss from f64 arrays, compares the autodiff
gradient of every differentiable input against central differences, and
returns the worst relative error. Nonsmooth ops use inputs pushed away
from their kinks so the numeric oracle is valid.
"""

from __future__ import annotations

import numpy as np

from rseg import autodiff as ad
from rseg.gradcheck import max_rel_error, numeric_grad

H = 1e-5


def _check(build_graph, arrays, h: float = H) -> float:
    """Worst rel error across arrays; build_graph() -> (loss, tensors)."""
    loss, tensors = build_graph()
    ad.backward(loss)
    worst = 0.0
    for arr, t in zip(arrays, tensors):
        num = numeric_grad(lambda: float(build_graph()[0].data), arr, h)
        worst = max(worst, max_rel_error(t.grad, num))
    return worst


def _weighted_sum(out: ad.Tensor, coef: np.ndarray) -> ad.Tensor:
    return ad.reduce_sum(ad.mul(out, ad.Tensor(coef)))


def _away_from(x: np.ndarray, points, margin: float = 5e-3) -> np.ndarray:
    for p in points:
        x = np.where(np.abs(x - p) < margin, x + 2 * margin, x)
    return x


def bn_away_from_zero(x: np.ndarray, gamma, beta, margin: float = 5e-3) -> np.ndarray:
    """Shift the elements of x whose batch-norm pre-activation gamma * x-hat + beta
    lies within margin of the relu's kink at 0, until none does (gamma > 0)."""
    shape = (1, x.shape[1], 1, 1)
    gamma = np.reshape(gamma, shape).astype(np.float64)
    beta = np.reshape(beta, shape).astype(np.float64)
    for _ in range(20):
        xd = x.astype(np.float64)
        std = np.sqrt(xd.var(axis=(2, 3), keepdims=True) + ad.BN_EPS)
        pre = gamma * (xd - xd.mean(axis=(2, 3), keepdims=True)) / std + beta
        near = np.abs(pre) < margin
        if not near.any():
            return x
        # about 4 margins up; the statistics move by only 1/m of that
        x = np.where(near, xd + 4 * margin * std / gamma, xd).astype(x.dtype)
    raise AssertionError("bn_away_from_zero: pre-activations did not settle")


def check_add(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    c = rng.normal(size=(3, 4))

    def build():
        ta, tb = ad.Tensor(a, requires_grad=True), ad.Tensor(b, requires_grad=True)
        return _weighted_sum(ad.add(ta, tb), c), (ta, tb)

    return _check(build, [a, b])


def check_sub(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    c = rng.normal(size=(3, 4))

    def build():
        ta, tb = ad.Tensor(a, requires_grad=True), ad.Tensor(b, requires_grad=True)
        return _weighted_sum(ad.sub(ta, tb), c), (ta, tb)

    return _check(build, [a, b])


def check_mul(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    c = rng.normal(size=(3, 4))

    def build():
        ta, tb = ad.Tensor(a, requires_grad=True), ad.Tensor(b, requires_grad=True)
        return _weighted_sum(ad.mul(ta, tb), c), (ta, tb)

    return _check(build, [a, b])


def check_div(rng):
    a = rng.normal(size=(3, 4))
    b = rng.uniform(0.5, 2.0, size=(3, 4)) * rng.choice([-1.0, 1.0], size=(3, 4))
    c = rng.normal(size=(3, 4))

    def build():
        ta, tb = ad.Tensor(a, requires_grad=True), ad.Tensor(b, requires_grad=True)
        return _weighted_sum(ad.div(ta, tb), c), (ta, tb)

    return _check(build, [a, b])


def check_scale(rng):
    a = rng.normal(size=(3, 4))
    c = rng.normal(size=(3, 4))

    def build():
        ta = ad.Tensor(a, requires_grad=True)
        return _weighted_sum(ad.scale(ta, 1.7), c), (ta,)

    return _check(build, [a])


def check_log(rng):
    a = rng.uniform(0.5, 2.0, size=(3, 4))
    c = rng.normal(size=(3, 4))

    def build():
        ta = ad.Tensor(a, requires_grad=True)
        return _weighted_sum(ad.log(ta), c), (ta,)

    return _check(build, [a])


def check_clamp(rng):
    a = _away_from(rng.uniform(-2.0, 2.0, size=(3, 4)), [-0.5, 0.5])
    c = rng.normal(size=(3, 4))

    def build():
        ta = ad.Tensor(a, requires_grad=True)
        return _weighted_sum(ad.clamp(ta, -0.5, 0.5), c), (ta,)

    return _check(build, [a])


def check_relu(rng):
    a = _away_from(rng.normal(size=(3, 4)), [0.0])
    c = rng.normal(size=(3, 4))

    def build():
        ta = ad.Tensor(a, requires_grad=True)
        return _weighted_sum(ad.relu(ta), c), (ta,)

    return _check(build, [a])


def check_sigmoid(rng):
    a = rng.normal(scale=2.0, size=(3, 4))
    c = rng.normal(size=(3, 4))

    def build():
        ta = ad.Tensor(a, requires_grad=True)
        return _weighted_sum(ad.sigmoid(ta), c), (ta,)

    return _check(build, [a])


def check_conv2d(rng):
    worst = 0.0
    # includes the padded strided 3x3 and the 1x1 convs the backbones run;
    # the fifth case (16x16 outputs, stride 1, cout <= cin) takes conv2d's
    # shift lowering. It has two channels: with four, central-difference
    # noise on near-zero gradient entries exceeds 1e-6 relative error on
    # some seeds under either lowering. The last case (one output pixel,
    # cout*cin > (cout + cin)*ho*wo) takes the weight-bound form. Each case
    # runs with a bias and without one, as a conv feeding a batch norm does.
    for side, cout, k, stride, pad in ((5, 3, 3, (1, 1), (1, 1)), (5, 3, 3, (2, 2), (0, 0)),
                                       (5, 3, 3, (2, 2), (1, 1)), (5, 3, 1, (1, 1), (0, 0)),
                                       (16, 2, 3, (1, 1), (1, 1)), (2, 4, 3, (2, 2), (1, 1))):
        x = rng.normal(size=(1, 2, side, side))
        w = rng.normal(size=(cout, 2, k, k))
        b = rng.normal(size=(cout,))
        sy, sx = stride
        py, px = pad
        ho = (side + 2 * py - k) // sy + 1
        c = rng.normal(size=(1, cout, ho, ho))

        for biased in (True, False):
            def build():
                tx = ad.Tensor(x, requires_grad=True)
                tw = ad.Tensor(w, requires_grad=True)
                tb = ad.Tensor(b, requires_grad=True) if biased else None
                return _weighted_sum(ad.conv2d(tx, tw, tb, stride, pad), c), (tx, tw, tb)

            worst = max(worst, _check(build, [x, w, b] if biased else [x, w]))
    return worst


def check_conv2d_transpose(rng):
    x = rng.normal(size=(1, 3, 3, 3))
    w = rng.normal(size=(3, 2, 2, 2))
    c = rng.normal(size=(1, 2, 6, 6))

    def build():
        tx = ad.Tensor(x, requires_grad=True)
        tw = ad.Tensor(w, requires_grad=True)
        return _weighted_sum(ad.conv2d_transpose(tx, tw), c), (tx, tw)

    return _check(build, [x, w])


def check_maxpool2d(rng):
    # distinct values with gaps far above the step size keep argmax stable
    x = rng.permutation(2 * 4 * 4).astype(np.float64).reshape(1, 2, 4, 4) / 10.0
    c = rng.normal(size=(1, 2, 2, 2))

    def build():
        tx = ad.Tensor(x, requires_grad=True)
        out, _ = ad.maxpool2d(tx)
        return _weighted_sum(out, c), (tx,)

    return _check(build, [x])


def check_maxunpool2d(rng):
    src = rng.permutation(2 * 4 * 4).astype(np.float64).reshape(1, 2, 4, 4)
    with ad.no_grad():
        _, idx = ad.maxpool2d(ad.Tensor(src))
    y = rng.normal(size=(1, 2, 2, 2))
    c = rng.normal(size=(1, 2, 4, 4))

    def build():
        ty = ad.Tensor(y, requires_grad=True)
        return _weighted_sum(ad.maxunpool2d(ty, idx, (4, 4)), c), (ty,)

    return _check(build, [y])


def check_concat_channels(rng):
    a = rng.normal(size=(1, 2, 3, 3))
    b = rng.normal(size=(1, 3, 3, 3))
    c = rng.normal(size=(1, 5, 3, 3))

    def build():
        ta, tb = ad.Tensor(a, requires_grad=True), ad.Tensor(b, requires_grad=True)
        return _weighted_sum(ad.concat_channels(ta, tb), c), (ta, tb)

    return _check(build, [a, b])


def check_upsample_nearest2x(rng):
    x = rng.normal(size=(1, 2, 3, 3))
    c = rng.normal(size=(1, 2, 6, 6))

    def build():
        tx = ad.Tensor(x, requires_grad=True)
        return _weighted_sum(ad.upsample_nearest2x(tx), c), (tx,)

    return _check(build, [x])


def check_concat_batch(rng):
    # unequal parts, one of them joined twice: each use hands it its own slice
    x = rng.normal(size=(1, 2, 3, 3))
    y = rng.normal(size=(2, 2, 3, 3))
    c = rng.normal(size=(4, 2, 3, 3))

    def build():
        tx = ad.Tensor(x, requires_grad=True)
        ty = ad.Tensor(y, requires_grad=True)
        return _weighted_sum(ad.concat_batch([tx, ty, tx]), c), (tx, ty)

    return _check(build, [x, y])


def check_expand_channels(rng):
    x = rng.normal(size=(1, 1, 3, 3))
    c = rng.normal(size=(1, 4, 3, 3))

    def build():
        tx = ad.Tensor(x, requires_grad=True)
        return _weighted_sum(ad.expand_channels(tx, 4), c), (tx,)

    return _check(build, [x])


def check_batchnorm2d(rng):
    x = rng.normal(size=(2, 3, 4, 4))
    gamma = rng.uniform(0.5, 1.5, size=(3,))
    beta = rng.normal(scale=0.3, size=(3,))
    x = bn_away_from_zero(x, gamma, beta)
    c = rng.normal(size=(2, 3, 4, 4))

    def build():
        tx = ad.Tensor(x, requires_grad=True)
        tg = ad.Tensor(gamma, requires_grad=True)
        tb = ad.Tensor(beta, requires_grad=True)
        return _weighted_sum(ad.batchnorm2d(tx, tg, tb), c), (tx, tg, tb)

    return _check(build, [x, gamma, beta])


def check_reduce_sum(rng):
    # the whole sum, plus weighted per-item sums that the vector sum adds in order
    x = rng.normal(size=(3, 4))
    c = rng.normal(size=(3,))

    def build():
        tx = ad.Tensor(x, requires_grad=True)
        items = _weighted_sum(ad.reduce_sum(tx, items=3), c)
        return ad.add(ad.reduce_sum(tx), items), (tx,)

    return _check(build, [x])


# name -> (case fn, tolerance); nonsmooth or statistics-coupled ops get 1e-4,
# everything else is effectively exact under central differences
OP_CASES = {
    "add": (check_add, 1e-6),
    "sub": (check_sub, 1e-6),
    "mul": (check_mul, 1e-6),
    "div": (check_div, 1e-6),
    "scale": (check_scale, 1e-6),
    "log": (check_log, 1e-6),
    "clamp": (check_clamp, 1e-6),
    "relu": (check_relu, 1e-6),
    "sigmoid": (check_sigmoid, 1e-6),
    "conv2d": (check_conv2d, 1e-6),
    "conv2d_transpose": (check_conv2d_transpose, 1e-6),
    "maxpool2d": (check_maxpool2d, 1e-6),
    "maxunpool2d": (check_maxunpool2d, 1e-6),
    "concat_channels": (check_concat_channels, 1e-6),
    "upsample_nearest2x": (check_upsample_nearest2x, 1e-6),
    "expand_channels": (check_expand_channels, 1e-6),
    "concat_batch": (check_concat_batch, 1e-6),
    "batchnorm2d": (check_batchnorm2d, 1e-4),
    "reduce_sum": (check_reduce_sum, 1e-6),
}


def run_op_gradchecks(seeds) -> dict:
    """Worst rel error per op over the given seeds."""
    results = {}
    for name, (fn, _tol) in OP_CASES.items():
        worst = 0.0
        for seed in seeds:
            worst = max(worst, fn(np.random.default_rng(seed)))
        results[name] = worst
    return results
