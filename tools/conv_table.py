"""Time each form of conv2d and conv2d_transpose on every layer shape of a workload.

    python3 tools/conv_table.py --json table.json
    python3 tools/conv_table.py --workload train-small --batch 8 --layer conv_b

Run from the root of a source checkout; it imports ``rseg`` from ``src/``.
The layers are the convs of one untaped forward pass of each benchmark model
(``backbones._conv`` wrapped), each at every ``--batch`` N: train-small
(recurrent unet L2C8 on 48x48), criterion-7 (that net without the feedback
channel, acceptance criterion 7's plain arm), train-wide (recurrent attunet
L4C16 on 32x32) and infer-eval (recurrent segunet L3C16 on the six padded
extents perfbench segments; forward only at N = 1, as inference runs no backward).

Every form is the package's own op, so the table can re-derive the cuts of
``autodiff._conv_forms``: ``ad.conv2d`` runs with ``_conv_forms`` patched to
give the call's own triple with one pass's form swapped in, by that
function's names. Forward: ``columns`` and, at stride 1 with k > 1,
``shift``; weight gradient: ``items`` and that ``shift``; input gradient:
``gemm`` for a stride-1 1x1 kernel, else ``col2im``, ``shift`` and
``items``. ``ad.conv2d_transpose`` has one form per pass: ``phase_writes``,
``items`` and ``transpose_copy``. A forward sample is one untaped call; a
backward sample runs one taped call's rule on a fixed output gradient, with
only that pass's leaf taking a gradient.

Samples are interleaved: each round times every form of a shape once, in
an order drawn from ``--seed``, with BLAS at one thread and glibc's malloc
pinned as rseg's commands pin it. A row gives each form's median and
interquartile range in microseconds, and ``picked``: the (forward, weight,
input) forms the call takes, each a key of its pass's timings.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (backbone, levels, base channels, recurrent, slice extents, backward timed)
WORKLOADS = {
    "train-small": ("unet", 2, 8, True, [(48, 48)], True),
    "criterion-7": ("unet", 2, 8, False, [(48, 48)], True),
    "train-wide": ("attunet", 4, 16, True, [(32, 32)], True),
    "infer-eval": ("segunet", 3, 16, True,
                   [(56, 56), (56, 48), (48, 48), (40, 40), (40, 64)], False),
}
# each pass in a picked triple's order, and the leaf that takes its gradient (x 0, w 1)
PASSES = {"forward": None, "weight_grad": 1, "input_grad": 0}
TRANSPOSE_FORMS = ("phase_writes", "items", "transpose_copy")


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
            probe = np.random.default_rng(0).normal(size=(1, config.in_channels, h, w))
            with ad.no_grad():
                backbones.forward(store, ad.Tensor(probe.astype(np.float32)))
    finally:
        backbones._conv = real
    return list(dict.fromkeys(found))


def out_hw(layer):
    """The (ho, wo) extent of the call's output."""
    _, _, _, k, s, p, transpose, h, w = layer
    if transpose:
        return h * k, w * k
    return (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1


def forms(n, layer):
    """The (forward, weight, input) forms the call takes, and the forms each pass can take."""
    from rseg import autodiff as ad

    _, cin, cout, k, s, _, transpose, _, _ = layer
    if transpose:
        return list(TRANSPOSE_FORMS), [[form] for form in TRANSPOSE_FORMS]
    shift = ["shift"] if s == 1 and k > 1 else []
    return (list(ad._conv_forms(n, cin, cout, *out_hw(layer), k, k, s, s)),
            [["columns"] + shift, ["items"] + shift,
             ["gemm"] if s == k == 1 else ["col2im", "shift", "items"]])


def draw(n, layer, seed):
    """[x, w, g]: the call's input, kernel and output gradient, normal f32 draws."""
    import numpy as np

    _, cin, cout, k, _, _, transpose, h, w = layer
    rng = np.random.default_rng(seed)
    shapes = [(n, cin, h, w), (cin, cout, k, k) if transpose else (cout, cin, k, k),
              (n, cout) + out_hw(layer)]
    return [rng.normal(size=shape).astype(np.float32) for shape in shapes]


def timed_calls(n, layer, backward, x, wt, g):
    """{pass: {form: callable}}: each runs the package's op in that form and returns
    what the pass computes, the output or the leaf's gradient."""
    from rseg import autodiff as ad

    _, _, _, _, s, p, transpose, _, _ = layer
    real = ad._conv_forms

    def call(triple, leaves):
        ad._conv_forms = lambda *shape: triple
        try:
            return ad.conv2d_transpose(*leaves) if transpose else ad.conv2d(*leaves, None, s, p)
        finally:
            ad._conv_forms = real

    def timed(triple, leaf):
        leaves = [ad.Tensor(x, leaf == 0), ad.Tensor(wt, leaf == 1)]
        if leaf is None:
            return lambda: call(triple, leaves).data
        rule = call(triple, leaves)._backward

        def sample():
            leaves[leaf].grad = leaves[leaf]._own = None
            rule(g)
            return leaves[leaf].grad

        return sample

    own, names = forms(n, layer)
    calls = {}
    for i, ps in enumerate(list(PASSES)[: 3 if backward else 1]):
        for name in names[i]:
            calls.setdefault(ps, {})[name] = timed(own[:i] + [name] + own[i + 1 :], PASSES[ps])
    return calls


def time_forms(calls, samples, order_rng):
    """{pass: {form: {median_us, iqr_us}}}, the forms timed interleaved in a random order."""
    flat = [(ps, name, fn) for ps, named in calls.items() for name, fn in named.items()]
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
    rows = []
    order_rng = random.Random(seed)
    for workload in workloads:
        backward = WORKLOADS[workload][5]
        for layer, n in itertools.product(layers(workload), batches if backward else [1]):
            name, cin, cout, k, s, p, transpose, h, w = layer
            if layer_filter and layer_filter not in name:
                continue
            row = {"workload": workload, "layer": name, "n": n, "cin": cin, "cout": cout,
                   "h": h, "w": w, "k": k, "stride": k if transpose else s, "pad": p,
                   "transpose": transpose}
            calls = timed_calls(n, layer, backward, *draw(n, layer, seed))
            row.update(time_forms(calls, samples, order_rng))
            row["picked"] = forms(n, layer)[0]
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
    from rseg import cli

    cli.pin_malloc()
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rows = build_table(workloads, batches, args.samples, args.seed, args.layer)
    if not rows:
        parser.error(f"--layer {args.layer}: no layer of {', '.join(workloads)} has it in its name")
    if args.json:
        Path(args.json).write_text(json.dumps({"rows": rows}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    from rseg import cli

    # before numpy first loads: every module here imports it only when called
    cli._set_threads(1)
    main()
