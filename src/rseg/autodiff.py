"""Reverse-mode automatic differentiation over dense numpy tensors.

Tensors are immutable once produced by an op. Every op records its backward
rule on the output tensor; ``backward(loss)`` runs the recorded graph once
in reverse creation order, which is a valid topological order because
tensors are created strictly after their inputs, and frees each node's
rule, saved arrays and gradient as soon as it has run.

Image tensors use the (N, C, H, W) layout. f32 is the working dtype for
training; gradient checks run in f64.
"""

from __future__ import annotations

import functools
import itertools
import threading
from contextlib import contextmanager

import numpy as np

_state = threading.local()


def grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / constants)."""
    prev = grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


_tids = itertools.count(1)


class Tensor:
    """Dense n-d array with an optional gradient buffer.

    ``data`` is f32 or f64, the types BLAS computes in: any other input is
    cast to f32. It is owned by the tensor and must not be mutated after
    creation, except for leaf parameters updated between optimizer steps.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_tid", "_inputs", "_backward", "_own")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self.op = "leaf"
        self._tid = next(_tids)
        self._inputs = ()
        self._backward = None
        self._own = None  # a grad buffer only this tensor holds; cleared with grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Same values, cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.dtype}, op={self.op})"


def _make_result(data, op: str, inputs, backward_fn) -> Tensor:
    out = Tensor(data)
    if grad_enabled() and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.op = op
        out._inputs = tuple(inputs)
        out._backward = backward_fn
    return out


def _accumulate(t: Tensor, g) -> None:
    # Never mutate an incoming gradient array: it may be shared between
    # branches (e.g. both parents of an add receive the same object). The
    # first sum makes a buffer t owns, in C order; a conv weight owns its
    # first product instead (_accumulate_weight_grad).
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g
    elif t.grad is t._own:
        t.grad += g
    else:
        t.grad = t._own = np.asarray(np.add(t.grad, g, order="C"))


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")

    def backward_fn(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _make_result(a.data + b.data, "add", (a, b), backward_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")

    def backward_fn(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return _make_result(a.data - b.data, "sub", (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    ad, bd = a.data, b.data

    def backward_fn(g):
        _accumulate(a, g * bd)
        _accumulate(b, g * ad)

    return _make_result(ad * bd, "mul", (a, b), backward_fn)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "div")
    ad, bd = a.data, b.data

    def backward_fn(g):
        _accumulate(a, g / bd)
        _accumulate(b, -g * ad / (bd * bd))

    return _make_result(ad / bd, "div", (a, b), backward_fn)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    c = float(c)

    def backward_fn(g):
        _accumulate(a, g * c)

    return _make_result(a.data * c, "scale", (a,), backward_fn)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise ValueError("log: non-positive input (clamp first)")
    ad = a.data

    def backward_fn(g):
        _accumulate(a, g / ad)

    return _make_result(np.log(ad), "log", (a,), backward_fn)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    mask = (a.data >= lo) & (a.data <= hi)

    def backward_fn(g):
        _accumulate(a, g * mask)

    return _make_result(np.clip(a.data, lo, hi), "clamp", (a,), backward_fn)


def relu(a: Tensor) -> Tensor:
    """max(a, 0) with NaN -> 0 and -0.0 -> +0.0; the gradient passes where out > 0."""
    out = np.fmax(a.data, 0)
    # fmax may keep -0.0 from a tie with 0; abs clears the sign and nothing else
    np.abs(out, out=out)

    def backward_fn(g):
        _accumulate(a, g * (out > 0))

    return _make_result(out, "relu", (a,), backward_fn)


def sigmoid(a: Tensor) -> Tensor:
    """Numerically stable logistic; output clipped strictly inside (0, 1)."""
    x = a.data
    t = np.exp(-np.abs(x))
    # numerator 1 where x >= 0 (t <= 1 there) and t elsewhere, NaN kept
    s = np.maximum(t, x >= 0) / (1.0 + t)
    info = np.finfo(x.dtype)
    one = x.dtype.type(1.0)
    s = np.clip(s, info.tiny, np.nextafter(one, x.dtype.type(0.0)))

    def backward_fn(g):
        _accumulate(a, g * s * (1.0 - s))

    return _make_result(s, "sigmoid", (a,), backward_fn)


# ---------------------------------------------------------------------------
# spatial ops


def _pair(v):
    if isinstance(v, (tuple, list)):
        return int(v[0]), int(v[1])
    return int(v), int(v)


# conv2d's cuts, read by _conv_forms alone: see _conv_forms
SHIFT_MIN_PIXELS = 256
SHIFT_GRAD_MIN_PIXELS = 2048


def _conv_forms(n, cin, cout, ho, wo, kh, kw, sy, sx):
    """(forward, weight, input): the form each pass of one conv2d call takes.

    - forward: ``shift`` (_correlate by one GEMM per tap over shifted
      views) for a stride-1 k x k kernel (k > 1) with cout <= cin on at
      least SHIFT_MIN_PIXELS outputs per item (BENCH_conv_shift.json; at
      N = 8 no forward choice moves, BENCH_conv_batch.json); else
      ``columns``, the whole batch's im2col and one GEMM.
    - weight: ``shift`` (_shifted_weight_grad, one GEMM per tap against
      the shifted views) after a shift forward, or for a stride-1 k x k
      call with cin > 1, N > 1 and N*ho*wo >= SHIFT_GRAD_MIN_PIXELS
      (BENCH_conv_batch.json; with one input channel a tap's GEMM has one
      row, BENCH_stride_phase.json). Else ``items``: _weight_product, one
      GEMM per item against the columns built again, summed in item order
      (BENCH_conv_batch.json: OpenBLAS runs one long-K product over N*ho*wo
      several times slower). An N = 1 product is its one GEMM, with no sum
      to copy it. conv2d_transpose's weight gradient takes that product
      too. Either product is fresh, so the weight owns the first and adds
      each later one into it in place (_accumulate_weight_grad).
    - input: ``gemm``, wmat^T @ g, for a stride-1 1x1 kernel. ``col2im``
      for a weight-bound call, cout*cin > (cout + cin)*N*ho*wo, without a
      shift forward (BENCH_conv_backward.json; BENCH_stride_phase.json
      counts the flipped-kernel copy it saves). Else one stride-1
      correlation per stride phase (_phase_input_grad) in the _correlate
      form ``shift`` for every strided call (BENCH_stride_phase.json) and
      for stride 1 with cin <= cout, N > 1 and N*ho*wo >=
      SHIFT_GRAD_MIN_PIXELS, or ``items``, one item's columns at a time.

    An N = 1 call keeps its per-slice backward whatever its size.
    """
    shift = sy == sx == 1 and kh * kw > 1 and cout <= cin and ho * wo >= SHIFT_MIN_PIXELS
    shift_grads = n > 1 and sy == sx == 1 and kh * kw > 1 and n * ho * wo >= SHIFT_GRAD_MIN_PIXELS
    weight = "shift" if shift or (shift_grads and cin > 1) else "items"
    if kh * kw * sy * sx == 1:
        grad = "gemm"
    elif not shift and cout * cin > (cout + cin) * n * ho * wo:
        grad = "col2im"
    else:
        grad = "shift" if sy * sx > 1 or (shift_grads and cin <= cout) else "items"
    return "shift" if shift else "columns", weight, grad


def _padded(a, rows, cols, top, left, tail):
    """a (N, C, h, w) at (top, left) of a zero (rows, cols) map, flattened per channel and
    followed by ``tail`` zeros: (N, C, rows*cols + tail). With nothing to pad, a view of a."""
    n, c, h, w = a.shape
    if (rows, cols, tail) == (h, w, 0):
        return a.reshape(n, c, h * w)
    buf = np.zeros((n, c, rows * cols + tail), dtype=a.dtype)
    buf[:, :, : rows * cols].reshape(n, c, rows, cols)[:, :, top : top + h, left : left + w] = a
    return buf


def _im2col(buf, wp, kh, kw, sy, sx, ho, wo):
    """Gather sliding-window patches into (N, C*kh*kw, ho*wo) columns.

    ``buf`` is the padded input as _padded lays it out at row pitch ``wp``,
    the buffer the shift correlation reads too; the first window starts at
    its first element.
    """
    n, c, _ = buf.shape
    sn, sc, s = buf.strides
    view = np.lib.stride_tricks.as_strided(
        buf,
        shape=(n, c, kh, kw, ho, wo),
        strides=(sn, sc, s * wp, s, s * wp * sy, s * sx),
        writeable=False,
    )
    return view.reshape(n, c * kh * kw, ho * wo)


def _correlate(buf, w, wp, ho, wo, stride, form):
    """w (cout, cin, kh, kw) correlated with the padded input in ``buf``: (N, cout, ho, wo).

    ``buf`` is laid out as _im2col reads it. ``columns`` multiplies the
    whole batch's columns by one GEMM, ``items`` one item's columns per
    GEMM (a batch holds one item's columns, not N): the same bytes.
    ``shift`` (stride 1) builds no columns: tap (ky, kx) multiplies
    w[:, :, ky, kx] by the view of ``buf`` starting at ky*wp + kx, which
    puts padded pixel (oy + ky, ox + kx) in column oy*wp + ox for every
    ox < wo, summed in row-major tap order. Its views read kw - 1 past the
    last row of ``buf``; the wp - wo columns past wo wrap into the next
    row, and the returned view leaves them out.
    """
    n = buf.shape[0]
    cout, cin, kh, kw = w.shape
    if form == "shift":
        # one contiguous (cout, cin) matrix per tap, which BLAS takes without a copy
        taps = w.reshape(cout, cin, kh * kw).transpose(2, 0, 1).copy()
        span = ho * wp
        out = np.matmul(taps[0], buf[:, :, :span])
        tmp = np.empty_like(out)
        for t in range(1, kh * kw):
            start = (t // kw) * wp + t % kw
            out += np.matmul(taps[t], buf[:, :, start : start + span], out=tmp)
        return out.reshape(n, cout, ho, wp)[:, :, :, :wo]
    wmat = w.reshape(cout, -1)
    if form == "columns":
        out = np.matmul(wmat, _im2col(buf, wp, kh, kw, *stride, ho, wo))
    else:
        out = np.empty((n, cout, ho * wo), dtype=np.result_type(buf, w))
        for i in range(n):  # no name keeps an item's columns past its GEMM
            np.matmul(wmat, _im2col(buf[i : i + 1], wp, kh, kw, *stride, ho, wo)[0], out=out[i])
    return out.reshape(n, cout, ho, wo)


def _shifted_weight_grad(g, buf, wp, kh, kw):
    """Weight gradient of the shift correlation: per tap, that tap's view of ``buf`` times g^T.

    g is laid out at the padded width with its wrap-around columns zero, so
    the garbage columns of each view add nothing.
    """
    n, cout, ho, wo = g.shape
    span = ho * wp
    gp = np.zeros((n, cout, ho, wp), dtype=g.dtype)
    gp[:, :, :, :wo] = g
    gt = gp.reshape(n, cout, span).swapaxes(1, 2)
    taps = np.empty((kh * kw, n, buf.shape[1], cout), dtype=g.dtype)
    for t in range(kh * kw):
        start = (t // kw) * wp + t % kw
        np.matmul(buf[:, :, start : start + span], gt, out=taps[t])
    # (tap, N, cin, cout) -> (cout, cin, tap), summed over N
    return taps.sum(axis=1).transpose(2, 1, 0).reshape(cout, -1, kh, kw)


def _col2im(gcols, hp, wp, sy, sx):
    """Adjoint of _im2col: add each tap's (N, C, ho, wo) slice into a zero padded map."""
    n, c, kh, kw, ho, wo = gcols.shape
    gxp = np.zeros((n, c, hp, wp), dtype=gcols.dtype)
    for ky in range(kh):
        for kx in range(kw):
            gxp[:, :, ky : ky + sy * ho : sy, kx : kx + sx * wo : sx] += gcols[:, :, ky, kx]
    return gxp


@functools.lru_cache(maxsize=256)  # a training step asks for the same few shapes
def _phases(size, k, s, pad, out):
    """One axis of conv2d's input gradient, split into its stride phases.

    Input i (padded i + pad) takes only the taps a, a + s, ... below k, with
    a = (i + pad) mod s, the j-th of them from output (i + pad) // s - j. So
    the inputs of phase a are the stride-1 correlation of g, zero padded,
    with the phase's taps flipped. Returns (phases, ahead, extent): for each
    phase with inputs, (a, its first input, its input count, its taps, the
    first index it reads of g padded by ``ahead`` zeros to ``extent``). A
    stride-1 axis has one phase, (0, 0, size, k, 0), over g padded by
    k - 1 - pad zeros ahead to size + k - 1.
    """
    phases = []
    for a in range(min(s, k)):
        first = (a - pad) % s
        taps = (k - a + s - 1) // s
        if first < size:
            count = (size - first + s - 1) // s
            phases.append((a, first, count, taps, (first + pad) // s - taps + 1))
    ahead = max(0, -min(p[4] for p in phases))
    phases = tuple((a, first, count, taps, lo + ahead) for a, first, count, taps, lo in phases)
    return phases, ahead, max([out + ahead] + [p[4] + p[2] + p[3] - 1 for p in phases])


def _phase_input_grad(g, w, h, wdt, stride, pad, form):
    """conv2d's input gradient as one stride-1 correlation per stride phase.

    Phase (ay, ax) correlates g, zero padded, with the flipped and
    channel-swapped taps w[:, :, ay::sy, ax::sx] (_correlate in ``form``)
    and writes inputs gx[:, :, iy::sy, ix::sx]. All phases read one _padded
    buffer of g; with stride 1 that is the one phase, the flipped kernel over
    g padded by k - 1 - pad.
    """
    n, _, ho, wo = g.shape
    cin, kh, kw = w.shape[1:]
    (sy, sx), (py, px) = stride, pad
    ys, top, rows = _phases(h, kh, sy, py, ho)
    xs, left, cols = _phases(wdt, kw, sx, px, wo)
    # a phase's shifted views run up to its last read column past the last row
    gbuf = _padded(g, rows, cols, top, left, max(p[4] + p[3] for p in xs) - 1)
    if sy == sx == 1:
        gx = None
    else:  # an input no phase reaches (a kernel smaller than its stride) keeps zero
        gx = (np.empty if kh >= sy and kw >= sx else np.zeros)((n, cin, h, wdt), dtype=g.dtype)
    for (ay, iy, my, ty, r0), (ax, ix, mx, tx, c0) in itertools.product(ys, xs):
        wflip = w[:, :, ay::sy, ax::sx][:, :, ::-1, ::-1].swapaxes(0, 1)
        part = _correlate(gbuf[:, :, r0 * cols + c0 :], wflip, cols, my, mx, (1, 1), form)
        if gx is None:  # stride 1: the one phase is the whole gradient
            gx = np.ascontiguousarray(part)
        else:
            gx[:, :, iy::sy, ix::sx] = part
        del part  # freed before the next phase's GEMMs
    return gx


def _weight_product(a, b):
    """The contraction of a (N, M, P) with b (N, K, P) over N and P: one GEMM
    per item, summed in item order (the ``items`` weight form of _conv_forms)."""
    prod = np.matmul(a, b.swapaxes(1, 2))
    return prod[0] if len(prod) == 1 else prod.sum(axis=0)


def _accumulate_weight_grad(w, prod):
    """Add a fresh weight-gradient product to w.grad by _conv_forms's weight rule."""
    _accumulate(w, prod.reshape(w.shape))
    w._own = w.grad  # the fresh product, or the buffer it was added into


def conv2d(x: Tensor, w: Tensor, b: Tensor = None, stride=(1, 1), pad=(0, 0)) -> Tensor:
    """Cross-correlation with zero padding (pad < kernel), plus a bias ``b`` if given.

    Each pass takes the form _conv_forms picks from the call's shape, and
    each backward is the adjoint of its own forward. The forward and each
    stride phase of the input gradient run _correlate. The tape keeps x, w
    and b only: the weight gradient pads x again and builds its columns or
    shifted views for its own product.
    """
    sy, sx = _pair(stride)
    py, px = _pair(pad)
    n, cin, h, wdt = x.shape
    cout, cw, kh, kw = w.shape
    if cw != cin:
        raise ValueError(f"conv2d: channel mismatch, input {cin} vs kernel {cw}")
    if b is not None and b.shape != (cout,):
        raise ValueError(f"conv2d: bias shape {b.shape}, expected ({cout},)")
    if py >= kh or px >= kw:
        raise ValueError(f"conv2d: padding {(py, px)} must be smaller than kernel {(kh, kw)}")
    ho = (h + 2 * py - kh) // sy + 1
    wo = (wdt + 2 * px - kw) // sx + 1
    if ho <= 0 or wo <= 0 or h + 2 * py < kh or wdt + 2 * px < kw:
        raise ValueError(f"conv2d: non-positive output extent for input {x.shape}")
    hp, wp = h + 2 * py, wdt + 2 * px
    forward, weight, grad = _conv_forms(n, cin, cout, ho, wo, kh, kw, sy, sx)

    # contiguous, as a consumer's einsum sums a strided view in another order
    out = np.ascontiguousarray(_correlate(
        _padded(x.data, hp, wp, py, px, kw - 1 if forward == "shift" else 0),
        w.data, wp, ho, wo, (sy, sx), forward))
    if b is not None:
        out += b.data.reshape(1, cout, 1, 1)

    def backward_fn(g):
        g2 = g.reshape(n, cout, ho * wo)
        if b is not None:
            _accumulate(b, g2.sum(axis=(0, 2)))
        if w.requires_grad:
            # x padded again, and its columns or views, built for this product only
            if weight == "shift":
                _accumulate_weight_grad(w, _shifted_weight_grad(
                    g, _padded(x.data, hp, wp, py, px, kw - 1), wp, kh, kw))
            else:
                _accumulate_weight_grad(w, _weight_product(
                    g2, _im2col(_padded(x.data, hp, wp, py, px, 0), wp, kh, kw, sy, sx, ho, wo)))
        if not x.requires_grad:
            return
        if grad == "gemm":  # a 1x1 kernel has no padding
            if cout == 1:
                gx = w.data.reshape(1, cin, 1) * g2
                gx += 0.0  # the GEMM sums onto +0.0: a -0.0 product becomes +0.0
            else:
                gx = np.matmul(w.data.reshape(cout, -1).T, g2)
        elif grad == "col2im":
            gx = np.matmul(w.data.reshape(cout, -1).T, g2).reshape(n, cin, kh, kw, ho, wo)
            gx = _col2im(gx, hp, wp, sy, sx)[:, :, py : py + h, px : px + wdt]
        else:
            gx = _phase_input_grad(g, w.data, h, wdt, (sy, sx), (py, px), grad)
        _accumulate(x, gx.reshape(n, cin, h, wdt))

    return _make_result(out, "conv2d", (x, w) if b is None else (x, w, b), backward_fn)


def conv2d_transpose(x: Tensor, w: Tensor) -> Tensor:
    """Stride-k transposed conv, k x k kernel laid out (Cin, Cout, k, k), no padding.

    One GEMM, then k x k phase writes: tap (ky, kx) of every input pixel
    lands in output pixels (ky::k, kx::k). The backward reads the taps back
    by one transposed copy, which is faster there than k x k phase reads,
    and takes the weight gradient by conv2d's ``items`` rule (_conv_forms).
    """
    n, cin, h, wdt = x.shape
    cw, cout, kh, kw = w.shape
    if cw != cin:
        raise ValueError(f"conv2d_transpose: channel mismatch, input {cin} vs kernel {cw}")
    x2 = x.data.reshape(n, cin, h * wdt)
    wmat = w.data.reshape(cin, cout * kh * kw)
    cols = np.matmul(wmat.T, x2).reshape(n, cout, kh, kw, h, wdt)
    out = np.empty((n, cout, h, kh, wdt, kw), dtype=cols.dtype)
    for ky, kx in itertools.product(range(kh), range(kw)):
        out[:, :, :, ky, :, kx] = cols[:, :, ky, kx]
    out = out.reshape(n, cout, h * kh, wdt * kw)

    def backward_fn(g):
        gcols = g.reshape(n, cout, h, kh, wdt, kw).transpose(0, 1, 3, 5, 2, 4)
        gcols = gcols.reshape(n, cout * kh * kw, h * wdt)
        if w.requires_grad:
            _accumulate_weight_grad(w, _weight_product(x2, gcols))
        if x.requires_grad:
            _accumulate(x, np.matmul(wmat, gcols).reshape(n, cin, h, wdt))

    return _make_result(out, "conv2d_transpose", (x, w), backward_fn)


def maxpool2d(x: Tensor):
    """2x2/stride-2 max pooling.

    Returns (pooled, indices) where indices holds the flat position of each
    window's argmax within its (H, W) plane. Ties resolve to the first
    element in row-major scan order. A window holding NaN pools to NaN at an
    unspecified index.
    """
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2d: odd spatial extent {h}x{w}")
    ho, wo = h // 2, w // 2
    v = x.data.reshape(n, c, ho, 2, wo, 2)
    v00, v01 = v[:, :, :, 0, :, 0], v[:, :, :, 0, :, 1]
    v10, v11 = v[:, :, :, 1, :, 0], v[:, :, :, 1, :, 1]
    # np.maximum returns its second operand on a tie, so the earlier element
    # goes second: a tied maximum keeps the first element's bits (a zero's sign)
    top = np.maximum(v01, v00)
    bottom = np.maximum(v11, v10)
    out = np.maximum(bottom, top)
    # strict comparisons: the bottom row or the right column wins only outright
    row = bottom > top
    col = (row & (v11 > v10)) | (~row & (v01 > v00))
    indices = np.multiply(row, w, dtype=np.int64)
    indices += col
    indices += 2 * w * np.arange(ho).reshape(ho, 1) + 2 * np.arange(wo)

    def backward_fn(g):
        if not x.requires_grad:
            return
        gx = np.zeros((n, c, h * w), dtype=g.dtype)
        # windows are disjoint, so positions are unique per plane
        np.put_along_axis(gx, indices.reshape(n, c, ho * wo), g.reshape(n, c, ho * wo), axis=2)
        _accumulate(x, gx.reshape(n, c, h, w))

    return _make_result(out, "maxpool2d", (x,), backward_fn), indices


def maxunpool2d(x: Tensor, indices: np.ndarray, out_hw) -> Tensor:
    """Place x's values at the recorded positions of a 2x2 pooling; zeros elsewhere."""
    n, c, ho, wo = x.shape
    h, w = int(out_hw[0]), int(out_hw[1])
    if indices.shape != x.shape:
        raise ValueError(f"maxunpool2d: indices shape {indices.shape} != input shape {x.shape}")
    if indices.min() < 0 or indices.max() >= h * w:
        raise ValueError(f"maxunpool2d: index out of bounds for {h}x{w} output")
    flat = indices.reshape(n, c, ho * wo)
    out = np.zeros((n, c, h * w), dtype=x.dtype)
    np.put_along_axis(out, flat, x.data.reshape(n, c, ho * wo), axis=2)

    def backward_fn(g):
        if not x.requires_grad:
            return
        gathered = np.take_along_axis(g.reshape(n, c, h * w), flat, axis=2)
        _accumulate(x, gathered.reshape(x.shape))

    return _make_result(out.reshape(n, c, h, w), "maxunpool2d", (x,), backward_fn)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    na, ca, ha, wa = a.shape
    nb, cb, hb, wb = b.shape
    if (na, ha, wa) != (nb, hb, wb):
        raise ValueError(f"concat_channels: extent mismatch {a.shape} vs {b.shape}")

    def backward_fn(g):
        _accumulate(a, g[:, :ca])
        _accumulate(b, g[:, ca:])

    return _make_result(np.concatenate([a.data, b.data], axis=1), "concat", (a, b), backward_fn)


def upsample_nearest2x(x: Tensor) -> Tensor:
    n, c, h, w = x.shape
    out = x.data.repeat(2, axis=2).repeat(2, axis=3)

    def backward_fn(g):
        v = g.reshape(n, c, h, 2, w, 2)
        # rows first, then their sum: the bytes of numpy's sum over the 2x2
        # axes, which runs one serial sum instead only when w == 1
        gx = v[:, :, :, 0, :, 0] + v[:, :, :, 0, :, 1]
        gx += v[:, :, :, 1, :, 0] + v[:, :, :, 1, :, 1]
        _accumulate(x, gx)

    return _make_result(out, "upsample2x", (x,), backward_fn)


def expand_channels(x: Tensor, channels: int) -> Tensor:
    """Tile a single-channel map across `channels` channels."""
    n, c, h, w = x.shape
    if c != 1:
        raise ValueError(f"expand_channels: expected 1 channel, got {c}")

    def backward_fn(g):
        _accumulate(x, g.sum(axis=1, keepdims=True))

    return _make_result(np.repeat(x.data, channels, axis=1), "expand", (x,), backward_fn)


# added to the variance before its square root
BN_EPS = 1e-5


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """relu(gamma * x-hat + beta), x-hat normalized per (item, channel) over (H, W).

    Each item of the batch is one slice, normalized by its own statistics,
    in training and inference alike: a batch of T slices gives the bytes of
    T single-slice calls. The affine map and the relu (NaN -> 0, -0.0 ->
    +0.0, as in ``relu``) are written into the centred array; the tape keeps
    only the means and 1/sigma, and the backward masks g by out > 0, rebuilds
    x-hat from x and differentiates through both statistics, summing the
    gamma and beta gradients over the items. Sums over (H, W) run in einsum
    over a contiguous copy, so a strided view gives the same bytes.
    """
    n, c, h, w = x.shape
    for t, name in ((gamma, "gamma"), (beta, "beta")):
        if t.shape != (c,):
            raise ValueError(f"batchnorm2d: {name} shape {t.shape}, expected ({c},)")
    m = h * w
    xd = np.ascontiguousarray(x.data)
    mean = (np.einsum("nchw->nc", xd) / m).reshape(n, c, 1, 1)
    out = xd - mean
    var = np.einsum("nchw,nchw->nc", out, out) / m
    inv_std = (1.0 / np.sqrt(var + BN_EPS)).reshape(n, c, 1, 1)
    out *= gamma.data.reshape(1, c, 1, 1) * inv_std
    out += beta.data.reshape(1, c, 1, 1)
    np.fmax(out, 0, out=out)
    np.abs(out, out=out)

    def backward_fn(g):
        g = g * (out > 0)  # a new array: an incoming gradient is never written
        # x-hat again, in the one buffer that becomes the input gradient
        gx = xd - mean
        gx *= inv_std
        gsum = np.einsum("nchw->nc", g)
        gxhat_sum = np.einsum("nchw,nchw->nc", g, gx)
        _accumulate(gamma, gxhat_sum.sum(axis=0))
        _accumulate(beta, gsum.sum(axis=0))
        if x.requires_grad:
            # gamma / sigma * (g - mean(g) - x-hat * mean(g * x-hat))
            gx *= (-gxhat_sum / m).reshape(n, c, 1, 1)
            gx += g
            gx -= (gsum / m).reshape(n, c, 1, 1)
            gx *= gamma.data.reshape(1, c, 1, 1) * inv_std
            _accumulate(x, gx)

    return _make_result(out, "batchnorm2d", (x, gamma, beta), backward_fn)


def concat_batch(parts) -> Tensor:
    """Tensors joined along the batch axis; each input's gradient is its slice of g."""
    ends = np.cumsum([p.shape[0] for p in parts])

    def backward_fn(g):
        for p, end in zip(parts, ends):
            _accumulate(p, g[end - p.shape[0] : end])

    return _make_result(np.concatenate([p.data for p in parts]), "concat_batch", parts,
                        backward_fn)


def reduce_sum(x: Tensor, items: int = None) -> Tensor:
    """Sum of x, or with ``items = n`` the (n,) sums of its n equal consecutive parts.

    Each item of a C-ordered stack sums as it would alone; a vector sums left
    to right, the order of a chain of ``add``s.
    """
    if items is not None:
        data = x.data.reshape(items, -1).sum(axis=1)
    else:
        data = np.cumsum(x.data)[-1] if x.data.ndim == 1 and x.data.size else x.data.sum()

    def backward_fn(g):
        gx = np.empty(x.shape, dtype=x.dtype)
        gx.reshape(np.size(g), -1)[...] = np.reshape(g, (-1, 1))
        _accumulate(x, gx)

    return _make_result(np.asarray(data, dtype=x.dtype), "sum", (x,), backward_fn)


# ---------------------------------------------------------------------------
# reverse pass


def schedule(root: Tensor) -> list:
    """Recorded nodes reachable from root, in creation (execution) order.

    A node an earlier ``backward`` consumed is no longer recorded, so the
    schedule of a consumed root is empty; a consumed node below a live one
    raises ValueError.
    """
    seen = set()
    nodes = []
    stack = [root]
    while stack:
        t = stack.pop()
        if id(t) in seen or t._backward is None:
            continue
        seen.add(id(t))
        nodes.append(t)
        for i in t._inputs:
            if i._backward is None and i.op != "leaf":
                raise ValueError(f"backward: a {i.op} node was consumed by an earlier backward")
        stack.extend(t._inputs)
    nodes.sort(key=lambda t: t._tid)
    return nodes


def backward(loss: Tensor) -> None:
    """Populate .grad for every requires_grad leaf reachable from loss, consuming the graph.

    Each node drops its gradient, its backward rule and its inputs once the
    rule has run, so every saved array and intermediate gradient is freed
    after its last consumer. Leaves keep their gradients; a second backward
    over the same graph raises ValueError.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    if loss._backward is None and loss.op != "leaf":
        raise ValueError("backward: the graph was consumed by an earlier backward")
    nodes = schedule(loss)
    loss.grad = np.ones_like(loss.data)
    while nodes:
        # popped, not iterated: the list must not keep a consumed node's data alive
        t = nodes.pop()
        g, fn = t.grad, t._backward
        t.grad = t._own = t._backward = None
        t._inputs = ()
        if g is not None:
            fn(g)
