"""Time each form of conv2d and conv2d_transpose on every layer shape of a workload.

    python3 tools/conv_table.py --json table.json
    python3 tools/conv_table.py --workload train-small --batch 8 --layer conv_b

Run from the root of a source checkout; it imports ``rseg`` from ``src/``.
The layers are those of the benchmark workloads' models, found by one
untaped forward pass with ``backbones._conv`` wrapped: train-small
(recurrent unet L2C8 on 48x48), criterion-7 (that net without the feedback
channel, acceptance criterion 7's plain arm), train-wide (recurrent attunet
L4C16 on 32x32) and infer-eval (recurrent segunet L3C16 on the six padded
extents perfbench segments; forward only, as inference runs no backward).
Each shape runs at every ``--batch`` N.

Every form is built from ``rseg.autodiff``'s helpers outside conv2d's cuts,
so the cuts in ``autodiff._conv_forms`` can be derived again from the table:

- forward: ``im2col`` (the ``columns`` correlation) and, for stride 1 and
  k > 1, ``shift``;
- input gradient: ``gemm`` for a stride-1 1x1 kernel and ``k1`` when cout is
  1 as well (the broadcast product); else ``col2im``, ``phases_items`` and
  ``phases_shift`` (``_phase_input_grad`` in that correlation form). Every
  correlation includes the copy of its flipped kernel;
- weight gradient: ``items`` (``autodiff._weight_product``, the product
  conv2d takes) and, for stride 1 and k > 1, ``shift``; each pads x again
  and builds its columns or views;
- transposed convs: forward ``phase_writes`` and ``shuffle`` (the pixel
  shuffle by one transposed copy), input gradient ``transpose_copy`` and
  ``phase_reads``, weight gradient ``items``.

Samples are interleaved: each round times every form of a shape once, in
an order drawn from ``--seed``, with BLAS at one thread and glibc's malloc
pinned as rseg's commands pin it. A row gives each form's median and
interquartile range in microseconds, and ``picked``: the (forward, weight,
input) forms ``autodiff._conv_forms`` gives that call.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# (backbone, levels, base channels, recurrent, slice extents, backward timed)
WORKLOADS = {
    "train-small": ("unet", 2, 8, True, [(48, 48)], True),
    "criterion-7": ("unet", 2, 8, False, [(48, 48)], True),
    "train-wide": ("attunet", 4, 16, True, [(32, 32)], True),
    "infer-eval": ("segunet", 3, 16, True,
                   [(56, 56), (56, 48), (48, 48), (40, 40), (40, 64)], False),
}


def layers(workload):
    """(name, cin, cout, k, stride, pad, transpose, h, w) of each conv of one forward pass."""
    import numpy as np
    from rseg import autodiff as ad
    from rseg import backbones

    backbone, levels, base, recurrent, extents, _ = WORKLOADS[workload]
    config = backbones.ModelConfig(backbone, levels, base, recurrent)
    store = backbones.build_model(config, seed=0)
    found, real = [], backbones._conv

    def spy(store, name, x, cout, k, stride=1, pad=0, transpose=False, bias=True):
        found.append((name, x.shape[1], cout, k, stride, pad, transpose) + tuple(x.shape[2:]))
        return real(store, name, x, cout, k, stride, pad, transpose, bias)

    backbones._conv = spy
    try:
        for h, w in extents:
            with ad.no_grad():
                backbones.forward(store, ad.Tensor(np.zeros((1, config.in_channels, h, w),
                                                            dtype=np.float32)))
    finally:
        backbones._conv = real
    return list(dict.fromkeys(found))


def picked(n, layer):
    """The (forward, weight, input) forms conv2d takes for this call."""
    from rseg import autodiff as ad

    _, cin, cout, k, s, p, _, h, w = layer
    ho, wo = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
    return list(ad._conv_forms(n, cin, cout, ho, wo, k, k, s, s))


def conv_forms(n, layer, rng, backward):
    """{pass: {form: callable}} for one conv2d call."""
    import numpy as np
    from rseg import autodiff as ad

    _, cin, cout, k, s, p, _, h, w = layer
    x = rng.normal(size=(n, cin, h, w)).astype(np.float32)
    wt = rng.normal(size=(cout, cin, k, k)).astype(np.float32)
    ho, wo = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
    hp, wp = h + 2 * p, w + 2 * p
    g = rng.normal(size=(n, cout, ho, wo)).astype(np.float32)
    g2 = g.reshape(n, cout, ho * wo)

    def padded(form="columns"):
        buf = np.zeros((n, cin, hp * wp + (k - 1 if form == "shift" else 0)), dtype=np.float32)
        buf[:, :, : hp * wp].reshape(n, cin, hp, wp)[:, :, p : p + h, p : p + w] = x
        return buf

    def columns():
        return ad._im2col(padded(), wp, k, k, s, s, ho, wo)

    def forward(form):
        return lambda: np.ascontiguousarray(
            ad._correlate(padded(form), wt, wp, ho, wo, (s, s), form))

    def col2im():
        cols = np.matmul(wt.reshape(cout, -1).T, g2).reshape(n, cin, k, k, ho, wo)
        return ad._col2im(cols, hp, wp, s, s)[:, :, p : p + h, p : p + w]

    def phases(form):
        return lambda: ad._phase_input_grad(g, wt, h, w, (s, s), (p, p), form)

    forms = {"forward": {"im2col": forward("columns")}}
    if s == 1 and k > 1:
        forms["forward"]["shift"] = forward("shift")
    if not backward:
        return forms
    if s == k == 1:
        forms["input_grad"] = {"gemm": lambda: np.matmul(wt.reshape(cout, -1).T, g2)}
        if cout == 1:
            forms["input_grad"]["k1"] = lambda: np.add(wt.reshape(1, cin, 1) * g2, 0.0)
    else:
        forms["input_grad"] = {"col2im": col2im, "phases_items": phases("items"),
                               "phases_shift": phases("shift")}
    forms["weight_grad"] = {"items": lambda: ad._weight_product(g2, columns())}
    if s == 1 and k > 1:
        forms["weight_grad"]["shift"] = lambda: ad._shifted_weight_grad(
            g, padded("shift"), wp, k, k)
    return forms


def transpose_forms(n, layer, rng, backward):
    """{pass: {form: callable}} for one conv2d_transpose call (stride k, no padding)."""
    import numpy as np
    from rseg import autodiff as ad

    _, cin, cout, k, _, _, _, h, w = layer
    x2 = rng.normal(size=(n, cin, h * w)).astype(np.float32)
    wmat = rng.normal(size=(cin, cout * k * k)).astype(np.float32)
    g = rng.normal(size=(n, cout, h * k, w * k)).astype(np.float32)

    def gemm():
        return np.matmul(wmat.T, x2).reshape(n, cout, k, k, h, w)

    def phase_writes():
        cols = gemm()
        out = np.empty((n, cout, h, k, w, k), dtype=np.float32)
        for ky, kx in itertools.product(range(k), range(k)):
            out[:, :, :, ky, :, kx] = cols[:, :, ky, kx]
        return out

    def gcols():
        return g.reshape(n, cout, h, k, w, k).transpose(0, 1, 3, 5, 2, 4).reshape(n, -1, h * w)

    def phase_reads():
        v = g.reshape(n, cout, h, k, w, k)
        out = np.zeros((n, cin, h, w), dtype=np.float32)
        taps = wmat.reshape(cin, cout, k, k)
        for ky, kx in itertools.product(range(k), range(k)):
            out += np.matmul(taps[:, :, ky, kx], v[:, :, :, ky, :, kx].reshape(n, cout, h * w)
                             ).reshape(n, cin, h, w)
        return out

    forms = {"forward": {
        "phase_writes": phase_writes,
        "shuffle": lambda: gemm().transpose(0, 1, 4, 2, 5, 3).reshape(n, cout, h * k, w * k),
    }}
    if backward:
        forms["input_grad"] = {"transpose_copy": lambda: np.matmul(wmat, gcols()),
                               "phase_reads": phase_reads}
        forms["weight_grad"] = {"items": lambda: ad._weight_product(x2, gcols())}
    return forms


def time_forms(forms, samples, order_rng):
    """{pass: {form: {median_us, iqr_us}}}, the forms timed interleaved in a random order."""
    flat = [(ps, name, fn) for ps, named in forms.items() for name, fn in named.items()]
    times = {(ps, name): [] for ps, name, _ in flat}
    for _, _, fn in flat:
        fn()  # warm-up: first-call caches and page faults are not the form's
    for _ in range(samples):
        order_rng.shuffle(flat)
        for ps, name, fn in flat:
            t0 = time.perf_counter()
            fn()
            times[ps, name].append((time.perf_counter() - t0) * 1e6)
    table = {}
    for (ps, name), ts in sorted(times.items()):
        q = statistics.quantiles(ts, n=4) if len(ts) > 1 else [ts[0]] * 3
        table.setdefault(ps, {})[name] = {"median_us": round(statistics.median(ts), 1),
                                          "iqr_us": [round(q[0], 1), round(q[2], 1)]}
    return table


def build_table(workloads, batches, samples, seed, layer_filter=None):
    """One row per layer shape and batch size, printed as it is timed."""
    import numpy as np

    rows = []
    order_rng = random.Random(seed)
    for workload in workloads:
        backward = WORKLOADS[workload][5]
        for layer, n in itertools.product(layers(workload), batches if backward else [1]):
            name, cin, cout, k, s, p, transpose, h, w = layer
            if layer_filter and layer_filter not in name:
                continue
            rng = np.random.default_rng(seed)
            make = transpose_forms if transpose else conv_forms
            row = {"workload": workload, "layer": name, "n": n, "cin": cin, "cout": cout,
                   "h": h, "w": w, "k": k, "stride": k if transpose else s, "pad": p,
                   "transpose": transpose}
            row.update(time_forms(make(n, layer, rng, backward), samples, order_rng))
            if not transpose and backward:
                row["picked"] = picked(n, layer)
            rows.append(row)
            print(json.dumps(row), flush=True)
    return rows


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS) + ("all",), default="all")
    parser.add_argument("--batch", type=int, action="append",
                        help="batch size N, repeatable (default 1 and 8)")
    parser.add_argument("--samples", type=int, default=21)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--layer", help="only layers whose name contains this")
    parser.add_argument("--json", help="also write the rows here")
    args = parser.parse_args(argv)
    batches = args.batch or [1, 8]
    if args.samples < 1 or min(batches) < 1:
        parser.error("--samples and --batch must be at least 1")
    sys.path.insert(0, str(ROOT / "src"))
    from rseg import cli

    cli.pin_malloc()
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rows = build_table(workloads, batches, args.samples, args.seed, args.layer)
    if args.json:
        Path(args.json).write_text(json.dumps({"rows": rows}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    # before numpy first loads: every module here imports it only when called
    for var in THREAD_ENV:
        os.environ[var] = "1"
    main()
