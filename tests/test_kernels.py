"""The relu, sigmoid, max-pool, upsample, conv2d and batch-norm kernels against reference forms.

Each reference is the plain numpy form the kernel replaced: ``np.where``
for relu and sigmoid, an argmax and ``take_along_axis`` window gather for
max pooling, a reshape-sum for the upsample backward, ``np.pad``, im2col
and an out-of-place bias add for conv2d. Batch norm, which includes the
relu, has two: the composed pair it replaced (the unfused kernel, then the
``np.where`` relu) and the out-of-place batch-norm expressions with
``np.var`` and x-hat captured at forward time, then the same relu. The
kernels must match them byte for byte: outputs, pool indices, and every
gradient. The exceptions are sums taken in another order, each held to a
rounding bound instead: the conv2d shift lowering's output and weight
gradient, the col2im and shift input gradients, the input gradient of a
strided call (one correlation per stride phase), the weight gradient taken
as one GEMM per item of a batch, and batch norm's outputs and gradients
against the out-of-place expressions.
"""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from rseg import autodiff as ad

from _opchecks import bn_away_from_zero

DTYPES = [np.float32, np.float64]


# ---------------------------------------------------------------------------
# reference forms


def relu_reference(a):
    mask = a.data > 0

    def backward_fn(g):
        ad._accumulate(a, g * mask)

    return ad._make_result(np.where(mask, a.data, 0), "relu", (a,), backward_fn)


def sigmoid_reference(a):
    x = a.data
    t = np.exp(-np.abs(x))
    s = np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))
    one = x.dtype.type(1.0)
    s = np.clip(s, np.finfo(x.dtype).tiny, np.nextafter(one, x.dtype.type(0.0)))

    def backward_fn(g):
        ad._accumulate(a, g * s * (1.0 - s))

    return ad._make_result(s, "sigmoid", (a,), backward_fn)


def upsample_nearest2x_reference(x):
    n, c, h, w = x.shape

    def backward_fn(g):
        ad._accumulate(x, g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)))

    return ad._make_result(x.data.repeat(2, axis=2).repeat(2, axis=3), "upsample2x", (x,),
                           backward_fn)


def maxpool2d_reference(x):
    n, c, h, w = x.shape
    ho, wo = h // 2, w // 2
    windows = (
        x.data.reshape(n, c, ho, 2, wo, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, ho, wo, 4)
    )
    k = windows.argmax(axis=4)
    out = np.take_along_axis(windows, k[..., None], axis=4)[..., 0]
    rows = 2 * np.arange(ho).reshape(1, 1, ho, 1) + k // 2
    cols = 2 * np.arange(wo).reshape(1, 1, 1, wo) + k % 2
    indices = (rows * w + cols).astype(np.int64)

    def backward_fn(g):
        gx = np.zeros((n, c, h * w), dtype=g.dtype)
        np.put_along_axis(gx, indices.reshape(n, c, ho * wo), g.reshape(n, c, ho * wo), axis=2)
        ad._accumulate(x, gx.reshape(n, c, h, w))

    return ad._make_result(out, "maxpool2d", (x,), backward_fn), indices


def conv2d_reference(x, w, b, stride, pad):
    sy, sx = stride
    py, px = pad
    n, cin, h, wdt = x.shape
    cout, _, kh, kw = w.shape
    ho = (h + 2 * py - kh) // sy + 1
    wo = (wdt + 2 * px - kw) // sx + 1
    xp = np.pad(x.data, ((0, 0), (0, 0), (py, py), (px, px)))
    cols = ad._im2col(xp.reshape(n, cin, -1), xp.shape[3], kh, kw, sy, sx, ho, wo)
    out = np.matmul(w.data.reshape(cout, -1), cols) + b.data.reshape(1, cout, 1)

    def backward_fn(g):
        g2 = g.reshape(n, cout, ho * wo)
        ad._accumulate(b, g2.sum(axis=(0, 2)))
        ad._accumulate(w, np.tensordot(g2, cols, axes=([0, 2], [0, 2])).reshape(w.shape))
        gd = np.zeros((n, cout, h + kh - 1, wdt + kw - 1), dtype=g.dtype)
        gd[:, :, kh - 1 - py :: sy, kw - 1 - px :: sx][:, :, :ho, :wo] = g
        wflip = w.data[:, :, ::-1, ::-1].swapaxes(0, 1).reshape(cin, -1)
        gcols = ad._im2col(gd.reshape(n, cout, -1), wdt + kw - 1, kh, kw, 1, 1, h, wdt)
        gx = np.matmul(wflip, gcols)
        ad._accumulate(x, gx.reshape(n, cin, h, wdt))

    return ad._make_result(out.reshape(n, cout, ho, wo), "conv2d", (x, w, b), backward_fn)


def batchnorm2d_reference(x, gamma, beta, eps=1e-5):
    n, c, h, w = x.shape
    m = h * w
    mean = x.data.mean(axis=(2, 3), keepdims=True)
    inv_std = 1.0 / np.sqrt(x.data.var(axis=(2, 3), keepdims=True) + eps)
    xhat = (x.data - mean) * inv_std

    def backward_fn(g):
        gsum = g.sum(axis=(2, 3), keepdims=True)
        gxhat_sum = (g * xhat).sum(axis=(2, 3), keepdims=True)
        ad._accumulate(gamma, (g * xhat).sum(axis=(0, 2, 3)))
        ad._accumulate(beta, g.sum(axis=(0, 2, 3)))
        coeff = gamma.data.reshape(1, c, 1, 1) * inv_std
        gx = coeff * (g - gsum / m - xhat * gxhat_sum / m)
        ad._accumulate(x, gx)

    out = gamma.data.reshape(1, c, 1, 1) * xhat + beta.data.reshape(1, c, 1, 1)
    return ad._make_result(out, "batchnorm2d", (x, gamma, beta), backward_fn)


def batchnorm2d_unfused_reference(x, gamma, beta):
    """The kernel before the relu moved into it: the same einsum sums and
    in-place steps, gamma * x-hat + beta with no relu."""
    n, c, h, w = x.shape
    m = h * w
    mean = (np.einsum("nchw->nc", x.data) / m).reshape(n, c, 1, 1)
    out = x.data - mean
    var = np.einsum("nchw,nchw->nc", out, out) / m
    inv_std = 1.0 / np.sqrt(var + ad.BN_EPS)
    out *= (gamma.data * inv_std).reshape(n, c, 1, 1)
    out += beta.data.reshape(1, c, 1, 1)

    def backward_fn(g):
        gx = x.data - mean
        gx *= inv_std.reshape(n, c, 1, 1)
        gsum = np.einsum("nchw->nc", g)
        gxhat_sum = np.einsum("nchw,nchw->nc", g, gx)
        ad._accumulate(gamma, gxhat_sum.sum(axis=0))
        ad._accumulate(beta, gsum.sum(axis=0))
        gx *= (-gxhat_sum / m).reshape(n, c, 1, 1)
        gx += g
        gx -= (gsum / m).reshape(n, c, 1, 1)
        gx *= (gamma.data * inv_std).reshape(n, c, 1, 1)
        ad._accumulate(x, gx)

    return ad._make_result(out, "batchnorm2d", (x, gamma, beta), backward_fn)


# ---------------------------------------------------------------------------
# helpers


def _leaves(arrays):
    return [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]


def _backprop(out, upstream):
    ad.backward(ad.reduce_sum(ad.mul(out, ad.Tensor(upstream))))


def assert_same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _compare(op, reference, arrays, upstream_rng):
    """Run op and reference on fresh leaves; same output, extras and gradients."""
    mine, theirs = _leaves(arrays), _leaves(arrays)
    out_m, out_r = op(*mine), reference(*theirs)
    if isinstance(out_m, tuple):
        (out_m, *extra_m), (out_r, *extra_r) = out_m, out_r
        for em, er in zip(extra_m, extra_r):
            assert_same_bytes(em, er)
    assert_same_bytes(out_m.data, out_r.data)
    upstream = upstream_rng.normal(size=out_m.shape).astype(out_m.dtype)
    _backprop(out_m, upstream)
    _backprop(out_r, upstream)
    for tm, tr in zip(mine, theirs):
        assert_same_bytes(tm.grad, tr.grad)


# ---------------------------------------------------------------------------
# relu


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("size", [1, 3, 17, 67, 2 * 3 * 9 * 7])
def test_relu_matches_where(dtype, size):
    # sizes cover the vector body and the scalar tail of numpy's loops
    rng = np.random.default_rng(size)
    specials = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, -1.0, 1.0])
    a = rng.normal(size=size)
    a[rng.random(size) < 0.5] = -0.0
    a[rng.random(size) < 0.2] = np.nan
    a[: min(size, specials.size)] = specials[: min(size, specials.size)]
    _compare(ad.relu, relu_reference, [a.astype(dtype)], rng)


@pytest.mark.parametrize("dtype", DTYPES)
def test_relu_maps_negative_zero_and_nan_to_positive_zero(dtype):
    out = ad.relu(ad.Tensor(np.array([-0.0, np.nan, -0.0], dtype=dtype))).data
    assert not np.signbit(out).any()
    assert_same_bytes(out, np.zeros(3, dtype=dtype))


# ---------------------------------------------------------------------------
# sigmoid


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("size", [1, 3, 17, 67, 378, 36864])
def test_sigmoid_matches_where(dtype, size):
    rng = np.random.default_rng(size + 1)
    specials = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, -1.0, 1.0])
    # scale 30 reaches both clip bounds in f32 and f64
    a = rng.normal(scale=30.0, size=size)
    a[rng.random(size) < 0.1] = -0.0
    a[rng.random(size) < 0.05] = np.nan
    a[-min(size, specials.size):] = specials[: min(size, specials.size)]
    _compare(ad.sigmoid, sigmoid_reference, [a.astype(dtype)], rng)


# ---------------------------------------------------------------------------
# upsampling


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", [(2, 3, 5, 7), (1, 16, 24, 24), (1, 3, 7, 9), (1, 128, 4, 4),
                                   (1, 1, 1, 5), (2, 2, 1, 3), (1, 1, 4, 3)])
def test_upsample_backward_matches_reshape_sum(dtype, shape):
    rng = np.random.default_rng(shape[-1] * 7 + shape[-2])
    _compare(ad.upsample_nearest2x, upsample_nearest2x_reference,
             [rng.normal(size=shape).astype(dtype)], rng)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", [(1, 1, 1, 1), (2, 1, 3, 1), (3, 2, 1, 1)])
def test_upsample_backward_on_unit_width_within_one_rounding(dtype, shape):
    # at width 1 numpy's reshape-sum adds the four phases in one running sum,
    # not in the kernel's pairs, so only a rounding bound holds
    rng = np.random.default_rng(sum(shape))
    mine, theirs = _leaves([rng.normal(size=shape).astype(dtype)] * 2)
    upstream = rng.normal(size=(shape[0], shape[1], 2 * shape[2], 2 * shape[3])).astype(dtype)
    _backprop(ad.upsample_nearest2x(mine), upstream)
    _backprop(upsample_nearest2x_reference(theirs), upstream)
    n, c, h, w = shape
    magnitude = np.abs(upstream).reshape(n, c, h, 2, w, 2).sum(axis=(3, 5))
    assert np.all(np.abs(mine.grad - theirs.grad) <= 4 * np.finfo(dtype).eps * magnitude)


# ---------------------------------------------------------------------------
# max pooling

# every set of at least two tied positions in a 2x2 window, row-major 0..3:
# pairs across a row, down a column and on both diagonals, triples, all four
TIE_SETS = [s for k in (2, 3, 4) for s in itertools.combinations(range(4), k)]


def _planted_ties(dtype, rng):
    """(1, len(TIE_SETS) * 2, 4, 4): each tie set planted once at the window max
    and once below a larger untied element."""
    planes = []
    for ties in TIE_SETS:
        for below in (False, True):
            plane = rng.normal(size=(4, 4))
            for wy, wx in itertools.product(range(2), range(2)):
                window = plane[2 * wy : 2 * wy + 2, 2 * wx : 2 * wx + 2].reshape(4)
                window[list(ties)] = 5.0
                if below:
                    rest = [p for p in range(4) if p not in ties]
                    if rest:
                        window[rest[0]] = 7.0
                plane[2 * wy : 2 * wy + 2, 2 * wx : 2 * wx + 2] = window.reshape(2, 2)
            planes.append(plane)
    return np.stack(planes)[None].astype(dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_maxpool_matches_argmax_gather_on_planted_ties(dtype):
    rng = np.random.default_rng(71)
    _compare(ad.maxpool2d, maxpool2d_reference, [_planted_ties(dtype, rng)], rng)


@pytest.mark.parametrize("dtype", DTYPES)
def test_maxpool_tie_index_is_first_in_row_major_order(dtype):
    x = _planted_ties(dtype, np.random.default_rng(73))
    _, idx = ad.maxpool2d(ad.Tensor(x))
    assert idx.dtype == np.int64
    for p, ties in enumerate(TIE_SETS):
        first = ties[0]
        # window (0, 0) of the plane with the tie at the maximum
        assert idx[0, 2 * p, 0, 0] == (first // 2) * 4 + first % 2


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", [(1, 1, 2, 2), (2, 3, 6, 10), (1, 16, 48, 48)])
def test_maxpool_matches_argmax_gather_on_random_and_coarse_values(dtype, shape):
    rng = np.random.default_rng(shape[-1])
    # integers in 0..3 tie often, in every arrangement
    for x in (rng.normal(size=shape), rng.integers(0, 4, size=shape).astype(float)):
        _compare(ad.maxpool2d, maxpool2d_reference, [x.astype(dtype)], rng)


@pytest.mark.parametrize("dtype", DTYPES)
def test_maxpool_tied_zero_keeps_first_sign(dtype):
    x = np.zeros((1, 1, 2, 6), dtype=dtype)
    x[0, 0, 0, 0] = -0.0  # window 0: -0.0 first, then +0.0
    x[0, 0, 1, 3] = -0.0  # window 1: +0.0 first
    x[0, 0, :, 4:] = -0.0  # window 2: all -0.0
    _compare(ad.maxpool2d, maxpool2d_reference, [x], np.random.default_rng(79))


# ---------------------------------------------------------------------------
# conv2d


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize(
    "k,stride,pad",
    [(3, (1, 1), (1, 1)), (3, (2, 2), (1, 1)), (3, (1, 2), (2, 0)), (3, (2, 2), (0, 0)),
     (1, (1, 1), (0, 0)), (2, (2, 2), (1, 0))],
)
def test_conv2d_matches_pad_reference(dtype, k, stride, pad):
    rng = np.random.default_rng(83)
    x = rng.normal(size=(2, 3, 9, 8)).astype(dtype)
    w = rng.normal(size=(4, 3, k, k)).astype(dtype)
    b = rng.normal(size=(4,)).astype(dtype)
    mine = _leaves([x, w, b])
    out = ad.conv2d(*mine, stride, pad)
    upstream = rng.normal(size=out.shape).astype(dtype)
    _backprop(out, upstream)
    # in another order: the weight gradient of N = 2 items sums by item, and
    # a strided input gradient by stride phase
    rounded = {"w"} if stride == (1, 1) else {"w", "x"}
    _assert_matches_reference(mine, [x, w, b], out, upstream, stride, pad, rounded)


# Each row gives the forms ad._conv_forms picks for it, (forward, weight,
# input); its docstring states the rule. The rows sit on both sides of every
# cut, and N = 1 rows on large maps keep the per-slice forms.
CONV_CASES = [
    # n, cin, cout, (h, w), k, stride, pad, ad._conv_forms
    (1, 16, 16, (16, 16), 3, 1, 1, ("shift", "shift", "items")),  # ho*wo exactly at the cut
    (1, 16, 16, (15, 17), 3, 1, 1, ("columns", "items", "items")),  # ho*wo = 255, one below it
    (2, 8, 4, (24, 19), 3, 1, 0, ("shift", "shift", "items")),  # N = 2, pad 0, non-square
    (2, 6, 6, (17, 23), 5, 1, 2, ("shift", "shift", "items")),  # 5x5 kernel, pad 2
    (1, 7, 5, (20, 15), 3, 1, (1, 0), ("shift", "shift", "items")),  # pad on one axis only
    (1, 4, 8, (20, 20), 3, 1, 1, ("columns", "items", "items")),  # cout > cin
    (1, 8, 8, (40, 40), 3, 2, 1, ("columns", "items", "shift")),  # stride 2
    (1, 8, 8, (20, 20), 1, 1, 0, ("columns", "items", "gemm")),  # 1x1 kernel, pixel-bound
    # cout*cin = (cout + cin)*ho*wo exactly
    (1, 8, 8, (2, 2), 3, 1, 1, ("columns", "items", "items")),
    (1, 9, 8, (2, 2), 3, 1, 1, ("columns", "items", "col2im")),  # one input channel more
    (1, 48, 40, (4, 4), 3, 1, 1, ("columns", "items", "col2im")),  # 4x4 outputs
    (2, 40, 40, (3, 3), 3, 1, 1, ("columns", "items", "col2im")),  # N = 2
    # stride 2, weight-bound, 3x4 outputs
    (1, 32, 24, (6, 7), 3, 2, 1, ("columns", "items", "col2im")),
    (1, 24, 16, (3, 3), 1, 1, 0, ("columns", "items", "gemm")),  # 1x1, weight-bound
    (1, 24, 20, (5, 5), 1, 2, 0, ("columns", "items", "col2im")),  # strided 1x1, weight-bound
    # strided 1x1: one phase, zeros elsewhere
    (1, 6, 4, (10, 9), 1, 2, 0, ("columns", "items", "shift")),
    # cout = 1 1x1 (K = 1): the broadcast product
    (1, 8, 1, (20, 20), 1, 1, 0, ("columns", "items", "gemm")),
    (2, 5, 1, (7, 9), 1, 1, 0, ("columns", "items", "gemm")),
    # strided: odd extents, stride (1, 2), stride 3, k < s (an input phase
    # with no taps), a 5x5 kernel
    (1, 5, 7, (13, 11), 3, 2, 1, ("columns", "items", "shift")),
    (1, 6, 6, (12, 15), 3, (1, 2), 1, ("columns", "items", "shift")),
    (1, 4, 6, (17, 16), 3, 3, 1, ("columns", "items", "shift")),
    (1, 4, 4, (11, 13), 2, 3, 1, ("columns", "items", "shift")),
    (1, 3, 5, (14, 13), 5, 2, 2, ("columns", "items", "shift")),
    # N = 1 on large maps
    (1, 4, 8, (48, 48), 3, 1, 1, ("columns", "items", "items")),  # cin < cout, ho*wo = 2304
    (1, 8, 8, (64, 64), 3, 2, 1, ("columns", "items", "shift")),  # stride 2, 1024
    # N = 8, N*ho*wo from 968 to 2048, on both sides of the cut
    (8, 8, 4, (11, 11), 3, 1, 1, ("columns", "items", "items")),  # N*ho*wo = 968
    (8, 8, 4, (12, 12), 3, 1, 1, ("columns", "items", "items")),  # 1152
    (8, 4, 8, (15, 17), 3, 1, 1, ("columns", "items", "items")),  # cin < cout, 2040
    (8, 4, 8, (16, 16), 3, 1, 1, ("columns", "shift", "shift")),  # cin < cout, 2048
    (8, 2, 8, (16, 16), 3, 1, 1, ("columns", "shift", "shift")),  # two input channels
    (8, 1, 8, (16, 16), 3, 1, 1, ("columns", "items", "shift")),  # one input channel
    (8, 8, 4, (16, 16), 3, 1, 1, ("shift", "shift", "items")),  # cin > cout, 2048
    (8, 6, 6, (16, 16), 3, 1, 1, ("shift", "shift", "shift")),  # cin = cout, 2048
    (8, 8, 8, (22, 22), 3, 2, 1, ("columns", "items", "shift")),  # stride 2, 968
    (8, 8, 8, (24, 24), 3, 2, 1, ("columns", "items", "shift")),  # stride 2, 1152
    (8, 8, 8, (48, 48), 3, 2, 1, ("columns", "items", "shift")),  # train-small's enc0.conv_b
    (8, 8, 8, (11, 11), 1, 1, 0, ("columns", "items", "gemm")),  # 1x1, 968
    (8, 8, 8, (12, 12), 1, 1, 0, ("columns", "items", "gemm")),  # 1x1, 1152
    (8, 8, 1, (12, 12), 1, 1, 0, ("columns", "items", "gemm")),  # a head: K = 1, 1152
    # N = 8, strided: odd extents, stride (1, 2), stride 3, k < s, 5x5, 1x1
    (8, 3, 4, (13, 11), 3, 2, 1, ("columns", "items", "shift")),
    (8, 6, 6, (16, 15), 3, (1, 2), 1, ("columns", "items", "shift")),  # 1024
    (8, 4, 6, (17, 16), 3, 3, 1, ("columns", "items", "shift")),
    (8, 4, 4, (11, 13), 2, 3, 1, ("columns", "items", "shift")),
    (8, 3, 5, (14, 13), 5, 2, 2, ("columns", "items", "shift")),
    (8, 6, 4, (10, 9), 1, 2, 0, ("columns", "items", "shift")),
]


def _rounded(forms, stride, n):
    """What a call of N items with these forms sums in another order than the
    im2col reference, held to a rounding bound: the output ("out") after a
    shift forward, the weight gradient ("w") by shift or by more than one
    item (one item's product is the reference's one GEMM), and the input
    gradient ("x") by col2im, by shift or by stride phases."""
    forward, weight, grad = forms
    return ({"out"} if forward == "shift" else set()) | (
        {"w"} if weight == "shift" or n > 1 else set()) | (
        {"x"} if grad in ("col2im", "shift") or stride != (1, 1) else set())


def _conv_case(dtype, case, seed):
    n, cin, cout, (h, w), k, *_ = case
    rng = np.random.default_rng(seed)
    return rng, [rng.normal(size=(n, cin, h, w)).astype(dtype),
                 rng.normal(size=(cout, cin, k, k)).astype(dtype),
                 rng.normal(size=(cout,)).astype(dtype)]


def _assert_within_rounding(mine, theirs, terms, magnitude):
    """Two sums of the same `terms` products in different orders: each lies
    within terms*eps*sum|products| of the exact sum, so within twice that of
    each other."""
    assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
    bound = 2 * terms * np.finfo(mine.dtype).eps * magnitude
    assert np.all(np.abs(mine.astype(np.float64) - theirs) <= bound)


def _assert_matches_reference(mine, arrays, out_m, upstream, stride, pad, rounded):
    """conv2d's output and gradients on leaves ``mine`` against the im2col
    reference on ``arrays``: byte for byte, or for each of ``rounded`` within
    the rounding bound."""
    theirs = _leaves(arrays)
    out_r = conv2d_reference(*theirs, stride, pad)
    _backprop(out_r, upstream)
    # the same graph over |x|, |w|, |b| and |upstream| in f64 sums the
    # magnitudes of every output's and every gradient's products
    magnitudes = _leaves([np.abs(a).astype(np.float64) for a in arrays])
    out_abs = conv2d_reference(*magnitudes, stride, pad)
    _backprop(out_abs, np.abs(upstream).astype(np.float64))
    (xm, wm, bm), (xr, wr, br) = mine, theirs
    n, cout, ho, wo = out_m.shape
    cin, k = arrays[1].shape[1:3]
    if "out" in rounded:
        _assert_within_rounding(out_m.data, out_r.data, cin * k * k + 1, out_abs.data)
    else:
        assert_same_bytes(out_m.data, out_r.data)
    assert_same_bytes(bm.grad, br.grad)
    if "w" in rounded:
        _assert_within_rounding(wm.grad, wr.grad, n * ho * wo, magnitudes[1].grad)
    else:
        assert_same_bytes(wm.grad, wr.grad)
    if "x" in rounded:
        _assert_within_rounding(xm.grad, xr.grad, cout * k * k, magnitudes[0].grad)
    else:
        assert_same_bytes(xm.grad, xr.grad)


def _upstream(rng, shape, dtype):
    """A normal upstream gradient with a tenth of it +0.0 and a tenth -0.0:
    with a negative weight, +0.0 * w is -0.0, which a GEMM sums onto +0.0."""
    upstream = rng.normal(size=shape).astype(dtype)
    zeros = rng.random(size=shape)
    upstream[zeros < 0.1] = 0.0
    upstream[zeros > 0.9] = -0.0
    return upstream


def _against_reference(dtype, case, forms):
    """conv2d on a CONV_CASES row against the im2col reference, rounded where ``forms`` are."""
    stride, pad = ad._pair(case[5]), ad._pair(case[6])
    rng, arrays = _conv_case(dtype, case, 101)
    mine = _leaves(arrays)
    out = ad.conv2d(*mine, stride, pad)
    upstream = _upstream(rng, out.shape, dtype)
    _backprop(out, upstream)
    rounded = _rounded(forms, stride, case[0])
    _assert_matches_reference(mine, arrays, out, upstream, stride, pad, rounded)


def _case_id(c):
    return f"n{c[0]}-{c[1]}to{c[2]}-{c[3][0]}x{c[3][1]}-k{c[4]}s{c[5]}"


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", CONV_CASES, ids=_case_id)
def test_conv2d_lowerings_against_im2col_reference(dtype, case):
    n, cin, cout, (h, w), k, stride, pad, forms = case
    (sy, sx), (py, px) = ad._pair(stride), ad._pair(pad)
    ho, wo = (h + 2 * py - k) // sy + 1, (w + 2 * px - k) // sx + 1
    assert ad._conv_forms(n, cin, cout, ho, wo, k, k, sy, sx) == forms
    _against_reference(dtype, case, forms)


def _valid_forms(case):
    """Every (forward, weight, input) conv2d can run on a CONV_CASES row with k > 1:
    shift forward and weight gradient need stride 1, the phases of the input
    gradient do not."""
    unit = ad._pair(case[5]) == (1, 1)
    correlations = ("shift", "columns", "items") if unit else ("columns", "items")
    weights = ("shift", "items") if unit else ("items",)
    grads = ("col2im", "shift", "columns", "items")
    return list(itertools.product(correlations, weights, grads))


# stride 1 with k > 1, strided, and weight-bound: each runs every form,
# most of which the cuts do not pick for it
EVERY_FORM_CASES = [CONV_CASES[3], CONV_CASES[40], CONV_CASES[11]]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case,forms",
                         [(c, f) for c in EVERY_FORM_CASES for f in _valid_forms(c)],
                         ids=lambda v: "-".join(v) if isinstance(v[0], str) else _case_id(v))
def test_conv2d_every_form_against_im2col_reference(dtype, case, forms, monkeypatch):
    monkeypatch.setattr(ad, "_conv_forms", lambda *shape: forms)
    _against_reference(dtype, case, forms)


def test_conv2d_shift_forward_builds_columns_only_for_a_backward(monkeypatch):
    built = []
    real = ad._im2col
    monkeypatch.setattr(ad, "_im2col", lambda xp, *a: built.append(a) or real(xp, *a))
    rng, arrays = _conv_case(np.float32, CONV_CASES[0], 103)
    with ad.no_grad():
        ad.conv2d(*_leaves(arrays), (1, 1), (1, 1))
    assert built == []
    out = ad.conv2d(*_leaves(arrays), (1, 1), (1, 1))
    assert built == []
    _backprop(out, rng.normal(size=out.shape).astype(np.float32))
    # the input gradient's correlation; the weight gradient reads the input,
    # padded again, through the forward's shifted views
    assert built == [(18, 3, 3, 1, 1, 16, 16)]


# what a taped conv2d call may keep beyond its output: the tensor, its
# closures and their cells (about 2.8 KB on CPython 3), no array
TAPE_SLACK_BYTES = 4096


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", CONV_CASES, ids=_case_id)
def test_taped_conv2d_keeps_no_more_than_its_output(dtype, case):
    stride, pad = ad._pair(case[5]), ad._pair(case[6])
    _, arrays = _conv_case(dtype, case, 107)
    leaves = _leaves(arrays)
    ad.conv2d(*leaves, stride, pad)  # warm-up: first-call caches are not the tape's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = ad.conv2d(*leaves, stride, pad)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # no padded copy of x and no columns
    assert kept <= out.data.nbytes + TAPE_SLACK_BYTES


# (N, cin, h, w) of cout = 1 1x1 convs: every backbone's head and attunet's psi gates
K1_SHAPES = [(1, 8, 48, 48), (8, 8, 48, 48), (1, 16, 32, 32), (1, 8, 4, 4), (3, 5, 7, 9),
             (1, 1, 1, 1)]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", K1_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_conv2d_k1_input_gradient_is_the_gemms_bytes(dtype, shape):
    # a negative weight times +0.0 is -0.0, and times inf is -inf; the GEMM
    # with inner size 1 sums each product onto +0.0
    n, cin, h, w = shape
    rng = np.random.default_rng(131)
    x = ad.Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
    wts = -np.abs(rng.normal(size=(1, cin, 1, 1))).astype(dtype)
    wts[0, 0] = 0.0 if cin > 1 else wts[0, 0]
    g = rng.normal(size=(n, 1, h, w)).astype(dtype)
    g.flat[::3] = 0.0
    g.flat[1::7] = -0.0
    g.flat[2::11] = np.inf
    out = ad.conv2d(x, ad.Tensor(wts), None, (1, 1), (0, 0))
    with np.errstate(invalid="ignore"):  # 0 * inf
        out._backward(g)
        product = wts.reshape(1, cin, 1) * g.reshape(n, 1, h * w)
        gemm = np.matmul(wts.reshape(1, cin).T, g.reshape(n, 1, h * w))
    assert np.signbit(gemm).sum() < np.signbit(product).sum()
    assert_same_bytes(x.grad, gemm.reshape(shape))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", [(8, 16, 8, 24, 24, 2), (1, 32, 16, 12, 12, 2), (2, 3, 5, 7, 5, 2),
                                   (1, 4, 3, 5, 6, 3), (3, 2, 1, 1, 1, 2)],
                         ids=lambda s: "-".join(map(str, s)))
def test_conv2d_transpose_phase_writes_match_the_transpose_copy(dtype, shape):
    n, cin, cout, h, w, k = shape
    rng = np.random.default_rng(137)
    x = rng.normal(size=(n, cin, h, w)).astype(dtype)
    wts = rng.normal(size=(cin, cout, k, k)).astype(dtype)
    cols = np.matmul(wts.reshape(cin, -1).T, x.reshape(n, cin, h * w)).reshape(n, cout, k, k, h, w)
    shuffled = cols.transpose(0, 1, 4, 2, 5, 3).reshape(n, cout, h * k, w * k)
    assert_same_bytes(ad.conv2d_transpose(ad.Tensor(x), ad.Tensor(wts)).data, shuffled)


# the train-small step's two stride-1 ``items`` input gradients at N = 8:
# dec1.conv and dec0.conv
ITEMS_INPUT_GRADS = [(8, 32, 16, 24), (8, 16, 8, 48)]


def _items_input_grad_call(dtype, n, cin, cout, hw, seed):
    """A taped 3x3 "same" conv whose weight takes no gradient, and an upstream g."""
    rng = np.random.default_rng(seed)
    x = ad.Tensor(rng.normal(size=(n, cin, hw, hw)).astype(dtype), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(cout, cin, 3, 3)).astype(dtype))
    out = ad.conv2d(x, w, None, (1, 1), (1, 1))
    return x, w, out, rng.normal(size=out.shape).astype(dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", ITEMS_INPUT_GRADS + [(2, 3, 4, 9)],
                         ids=lambda s: f"n{s[0]}-{s[1]}to{s[2]}-{s[3]}")
def test_conv2d_items_input_grad_matches_the_batched_correlation(dtype, shape):
    n, cin, cout, hw = shape
    x, w, out, g = _items_input_grad_call(dtype, *shape, 109)
    out._backward(g)
    gd = np.zeros((n, cout, hw + 2, hw + 2), dtype=dtype)
    gd[:, :, 1:-1, 1:-1] = g
    wflip = w.data[:, :, ::-1, ::-1].swapaxes(0, 1).reshape(cin, -1)
    batched = np.matmul(wflip, ad._im2col(gd.reshape(n, cout, -1), hw + 2, 3, 3, 1, 1, hw, hw))
    assert_same_bytes(x.grad, batched.reshape(x.shape))


# what the ``items`` input gradient may hold beyond its arrays: the flipped
# kernel (at most 18 KB here) and small temporaries
ITEMS_SLACK_BYTES = 32768


@pytest.mark.parametrize("shape", ITEMS_INPUT_GRADS,
                         ids=lambda s: f"n{s[0]}-{s[1]}to{s[2]}-{s[3]}")
def test_conv2d_items_input_grad_holds_one_item_of_columns(shape):
    n, cin, cout, hw = shape
    x, w, out, g = _items_input_grad_call(np.float32, *shape, 113)
    item_columns = cout * 9 * hw * hw * 4
    # the padded g and the input gradient
    held = n * cout * (hw + 2) ** 2 * 4 + x.data.nbytes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out._backward(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert x.grad is not None
    assert peak <= held + item_columns + ITEMS_SLACK_BYTES < held + n * item_columns


# train-small's two strided input gradients at N = 8: enc0.conv_b and enc1.conv_b
STRIDED = [(8, 8, 8, 48), (8, 16, 16, 24)]


@pytest.mark.parametrize("shape", STRIDED, ids=lambda s: f"n{s[0]}-{s[1]}to{s[2]}-{s[3]}")
def test_conv2d_strided_backward_holds_no_dilated_buffer(shape):
    n, cin, cout, hw = shape
    rng = np.random.default_rng(139)
    x = ad.Tensor(rng.normal(size=(n, cin, hw, hw)).astype(np.float32), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(cout, cin, 3, 3)).astype(np.float32))
    out = ad.conv2d(x, w, None, (2, 2), (1, 1))
    g = rng.normal(size=out.shape).astype(np.float32)
    # g zero dilated to stride 1 and padded by k - 1 - pad, as a correlation with
    # the whole flipped kernel reads it
    dilated = n * cout * (hw + 2) ** 2 * 4
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out._backward(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the input gradient, g padded once, and a phase's GEMM output and its
    # temporary, each about a quarter of the input gradient
    assert x.grad is not None
    assert peak < x.data.nbytes + dilated


# (M, K, P) of train-wide's N = 1 weight products (attunet L4C16 on 32x32)
# that take no shift form: the 1x1 gates and head at every level, and the
# 4x4 3x3 layers
WEIGHT_PRODUCTS = [(64, 128, 16), (1, 64, 16), (32, 64, 64), (1, 32, 64), (16, 32, 256),
                   (1, 16, 256), (8, 16, 1024), (1, 8, 1024), (1, 16, 1024),
                   (128, 576, 16), (128, 1152, 16), (128, 2304, 16)]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("m,k,p", WEIGHT_PRODUCTS, ids=str)
def test_weight_product_is_one_gemm_per_item(dtype, n, m, k, p):
    # one item's product is the one GEMM np.tensordot takes, byte for byte;
    # a batch's sums its items' GEMMs in item order, not one GEMM over N*P
    rng = np.random.default_rng(127)
    a, b = (rng.normal(size=(n, rows, p)).astype(dtype) for rows in (m, k))
    prod = ad._weight_product(a, b)
    whole = np.tensordot(a, b, axes=([0, 2], [0, 2]))
    if n == 1:
        assert_same_bytes(prod, whole)
        return
    magnitude = np.tensordot(np.abs(a).astype(np.float64), np.abs(b).astype(np.float64),
                             axes=([0, 2], [0, 2]))
    _assert_within_rounding(prod, whole, n * p, magnitude)


# ---------------------------------------------------------------------------
# batch norm


# Against the composed pair it replaced, the kernel runs the same numpy
# calls in the same order, so every output and gradient matches byte for
# byte, specials included: channel 2's pre-activations are NaN (beta NaN)
# and about half of channel 3's are exactly -0.0 (gamma 0, beta -0.0).


def _bn_arrays(dtype, rng, c=3, shape=(2, 5, 7)):
    n, h, w = shape
    return [
        rng.normal(loc=0.5, scale=2.0, size=(n, c, h, w)).astype(dtype),
        rng.uniform(0.5, 1.5, size=(c,)).astype(dtype),
        rng.normal(scale=0.3, size=(c,)).astype(dtype),
    ]


def _bn_special_arrays(dtype, rng, shape):
    x, gamma, beta = _bn_arrays(dtype, rng, c=4, shape=shape)
    beta[2] = np.nan
    gamma[3], beta[3] = 0.0, -0.0
    return [x, gamma, beta]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("record", [True, False])
def test_batchnorm_matches_composed_pair(dtype, record):
    # record: the kernel runs on the tape (and backward is compared) or under no_grad
    rng = np.random.default_rng(97)
    for shape in ((2, 5, 7), (1, 48, 48)):
        arrays = _bn_special_arrays(dtype, rng, shape)
        with ad.no_grad():
            pre = batchnorm2d_unfused_reference(*_leaves(arrays)).data
        assert np.isnan(pre[:, 2]).all() and np.signbit(pre[:, 3]).any()
        assert (pre[:, 3] == 0).all()
        if record:
            _compare(ad.batchnorm2d,
                     lambda *t: relu_reference(batchnorm2d_unfused_reference(*t)), arrays, rng)
            continue
        with ad.no_grad():
            out_m = ad.batchnorm2d(*_leaves(arrays))
            out_r = relu_reference(batchnorm2d_unfused_reference(*_leaves(arrays)))
        assert not out_m.requires_grad
        assert_same_bytes(out_m.data, out_r.data)


# Against the out-of-place expressions, the kernel sums with einsum, applies
# gamma/sigma as one factor and runs its backward in place in another order;
# the reference sums with np.mean, np.var and np.sum and multiplies x-hat by
# gamma. So each value is held to BN_ULPS units of eps times the magnitude
# of its terms, where a = (|x| + |mean|) / sigma bounds |x-hat| together
# with the cancellation of centring, and g is the upstream gradient masked
# by the relu; mean, sigma and the sums over (H, W) are each item's own,
# and the gamma and beta sums then run over the items too:
#   output           |gamma| a + |beta|
#   gamma gradient   sum |g| a
#   beta gradient    sum |g|
#   input gradient   |gamma| / sigma (|g| + sum |g| / m + a sum |g| a / m)
# Over 50 seeded cases (1 to 3 items, maps up to 64x64, means up to 30
# sigma) the two forms differed by at most 2.5 such units in f32 and f64. The relu is
# 1-Lipschitz, so the bound carries through it; the outputs it clips are
# +0.0 in both and compared byte for byte. Pre-activations sit at least
# 5e-3 from 0, far outside the bound, so both forms mask the same elements.
BN_ULPS = 16


def _bn_magnitudes(x, gamma, beta, g):
    """The per-value magnitudes above, in f64; g is the masked upstream gradient."""
    x, gamma, beta, g = (np.asarray(a, dtype=np.float64) for a in (x, gamma, beta, g))
    n, c, h, w = x.shape
    m = h * w
    mean = x.mean(axis=(2, 3), keepdims=True)
    inv_std = 1.0 / np.sqrt(x.var(axis=(2, 3), keepdims=True) + 1e-5)
    a = (np.abs(x) + np.abs(mean)) * inv_std
    gam = np.abs(gamma).reshape(1, c, 1, 1)
    gabs_sum = np.abs(g).sum(axis=(2, 3), keepdims=True)
    ga_sum = (np.abs(g) * a).sum(axis=(2, 3), keepdims=True)
    return {
        "out": gam * a + np.abs(beta).reshape(1, c, 1, 1),
        "gamma": ga_sum.sum(axis=0).reshape(c),
        "beta": gabs_sum.sum(axis=0).reshape(c),
        "x": gam * inv_std * (np.abs(g) + gabs_sum / m + a * ga_sum / m),
    }


def _assert_within_ulps(mine, theirs, magnitude):
    assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
    diff = np.abs(mine.astype(np.float64) - theirs.astype(np.float64))
    assert np.all(diff <= BN_ULPS * np.finfo(mine.dtype).eps * magnitude)


def _assert_relu_within_ulps(mine, theirs, magnitude):
    clipped = theirs == 0
    assert clipped.any() and not clipped.all()
    assert_same_bytes(mine[clipped], theirs[clipped])
    _assert_within_ulps(mine, theirs, magnitude)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("record", [True, False])
def test_batchnorm_matches_reference(dtype, record):
    # record: the kernel runs on the tape (and backward is compared) or under no_grad
    rng = np.random.default_rng(89)
    for shape in ((2, 5, 7), (1, 48, 48)):
        x, gamma, beta = _bn_arrays(dtype, rng, shape=shape)
        arrays = [bn_away_from_zero(x, gamma, beta), gamma, beta]
        upstream = rng.normal(size=x.shape).astype(dtype)
        mine, theirs = _leaves(arrays), _leaves(arrays)
        out_r = relu_reference(batchnorm2d_reference(*theirs))
        mags = _bn_magnitudes(*arrays, upstream * (out_r.data > 0))
        if not record:
            with ad.no_grad():
                out_m = ad.batchnorm2d(*mine)
            assert not out_m.requires_grad
            _assert_relu_within_ulps(out_m.data, out_r.data, mags["out"])
            continue
        out_m = ad.batchnorm2d(*mine)
        _assert_relu_within_ulps(out_m.data, out_r.data, mags["out"])
        _backprop(out_m, upstream)
        _backprop(out_r, upstream)
        for key, tm, tr in zip(("x", "gamma", "beta"), mine, theirs):
            _assert_within_ulps(tm.grad, tr.grad, mags[key])


@pytest.mark.parametrize("dtype", DTYPES)
def test_batchnorm_bytes_do_not_depend_on_the_input_layout(dtype):
    # a conv2d shift output sliced to its valid columns, as a view and as a copy
    rng = np.random.default_rng(101)
    for c, h, w in ((8, 48, 48), (16, 24, 24), (3, 5, 7)):
        wide, gamma, beta = _bn_arrays(dtype, rng, c=c, shape=(1, h, w + 2))
        upstream = rng.normal(size=(1, c, h, w)).astype(dtype)
        view, copy = (ad.Tensor(a, requires_grad=True)
                      for a in (wide[..., :w], np.ascontiguousarray(wide[..., :w])))
        assert not view.data.flags.c_contiguous
        grads = []
        for x in (view, copy):
            params = _leaves([gamma, beta])
            out = ad.batchnorm2d(x, *params)
            _backprop(out, upstream)
            grads.append([out.data, x.grad, *(p.grad for p in params)])
        for a, b in zip(*grads):
            assert_same_bytes(a, b)


@pytest.mark.parametrize("dtype", DTYPES)
def test_batchnorm_batch_is_its_items(dtype):
    # each item is one slice with its own statistics: a batch of three gives
    # the output and input-gradient bytes of three single-item calls; the
    # gamma and beta gradients sum the items in another order
    rng = np.random.default_rng(107)
    for c, h, w in ((8, 48, 48), (16, 12, 12), (3, 5, 7)):
        x, gamma, beta = _bn_arrays(dtype, rng, c=c, shape=(3, h, w))
        x = bn_away_from_zero(x, gamma, beta)
        upstream = rng.normal(size=x.shape).astype(dtype)
        batch = _leaves([x, gamma, beta])
        out = ad.batchnorm2d(*batch)
        _backprop(out, upstream)
        items = _leaves([gamma, beta])
        outs, grads = [], []
        for i in range(3):
            xi = ad.Tensor(x[i : i + 1], requires_grad=True)
            out_i = ad.batchnorm2d(xi, *items)
            _backprop(out_i, upstream[i : i + 1])
            outs.append(out_i.data)
            grads.append(xi.grad)
        assert_same_bytes(out.data, np.concatenate(outs))
        assert_same_bytes(batch[0].grad, np.concatenate(grads))
        mags = _bn_magnitudes(x, gamma, beta, upstream * (out.data > 0))
        for key, mine, theirs in zip(("gamma", "beta"), batch[1:], items):
            _assert_within_ulps(mine.grad, theirs.grad, mags[key])
