"""Per-layer spans and counts for rseg, installed from outside the package.

Each span replaces one public function at the module attribute its callers
look up at call time, so no file of the package changes. ``Tracer.section``
installs every wrapper for one request, records the request itself as the
root span and restores the originals on exit; code outside a section (the
benchmark's own output checks) runs untraced.

A span's self time is its duration minus the time its child spans and the
counting hooks take. Counting hooks (FLOPs from shapes, tape sizes, file
sizes) are timed apart, under ``trace.counting``, so they inflate no layer.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
from rseg import autodiff

# (module, attribute callers look up, span name). Names shared by two rows
# are one layer reached through two lookups.
SPANS = (
    ("rseg.cli", "run_cli", "cli.run_cli"),
    ("rseg.data", "load_volume", "data.load_volume"),
    ("rseg.data", "save_volume", "data.save_volume"),
    ("rseg.data", "normalize_intensity", "data.normalize_intensity"),
    ("rseg.trainer", "train", "trainer.train"),
    ("rseg.trainer", "train_step", "trainer.train_step"),
    ("rseg.trainer", "adam_step", "trainer.adam_step"),
    ("rseg.trainer", "validation_stats", "trainer.validation_stats"),
    ("rseg.trainer", "save_checkpoint", "trainer.save_checkpoint"),
    ("rseg.trainer", "load_checkpoint", "trainer.load_checkpoint"),
    ("rseg.trainer", "sequence_loss", "loss.sequence_loss"),
    ("rseg.trainer", "unroll_forward", "recurrent.unroll_forward"),
    ("rseg.recurrent", "unroll_forward", "recurrent.unroll_forward"),
    ("rseg.recurrent", "segment_volume", "recurrent.segment_volume"),
    ("rseg.recurrent", "forward", "backbones.forward"),
    ("rseg.metrics", "evaluate", "metrics.evaluate"),
    ("rseg.metrics", "extract_surface", "metrics.extract_surface"),
    ("rseg.autodiff", "backward", "autodiff.backward"),
) + tuple(
    ("rseg.autodiff", op, f"autodiff.{op}")
    for op in ("conv2d", "conv2d_transpose", "batchnorm2d", "relu", "sigmoid",
               "concat_channels", "maxpool2d", "maxunpool2d", "upsample_nearest2x",
               "expand_channels")
) + tuple(
    ("rseg.autodiff", op, "autodiff.elementwise")
    for op in ("add", "sub", "mul", "div", "scale", "log", "clamp", "reduce_sum")
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPANS)) + (
    "trace.unattributed", "trace.counting")
AUTODIFF_SPANS = tuple(n for n in SPAN_NAMES if n.startswith("autodiff."))

# op labels as the tape records them (Tensor.op)
TAPE_OPS = ("conv2d", "conv2d_transpose", "batchnorm2d", "relu", "sigmoid", "concat",
            "maxpool2d", "maxunpool2d", "upsample2x", "expand", "add", "sub", "mul",
            "div", "scale", "log", "clamp", "sum")


class Tracer:
    """Aggregates spans by name; one instance per benchmark run."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.requests = 0
        self.request_s = 0.0
        self.tape_steps = 0
        self.tape_nodes = Counter()
        self.tape_bytes = 0
        self.flop = Counter()
        self.moved_bytes = Counter()
        self.gemm_shapes = Counter()
        self.io_bytes = Counter()
        self.surface_points = 0
        self.checkpoint_bytes = 0
        self._stack = []
        self._hooks = {
            "autodiff.backward": (self._count_tape, None),
            "autodiff.conv2d": (None, self._count_conv2d),
            "autodiff.conv2d_transpose": (None, self._count_conv2d_transpose),
            "data.load_volume": (self._count_read, None),
            "data.save_volume": (None, self._count_written),
            "trainer.save_checkpoint": (None, self._count_checkpoint),
            "trainer.load_checkpoint": (self._count_checkpoint, None),
            "metrics.extract_surface": (None, self._count_surface),
        }

    # -- installation ------------------------------------------------------

    @contextmanager
    def section(self):
        """Trace one request: wrap every span, time the request as the root."""
        originals = []
        try:
            for module_name, attr, name in SPANS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                yield
            finally:
                dt = time.perf_counter() - t0
                child = self._stack.pop()
                self.requests += 1
                self.request_s += dt
                self.calls["trace.unattributed"] += 1
                self.self_s["trace.unattributed"] += dt - child
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def _wrap(self, name, fn):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        before, after = self._hooks.get(name, (None, None))
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                self._timed_hook(before, args, kwargs, None)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                calls[name] += 1
                self_s[name] += dt - child
            if after is not None:
                self._timed_hook(after, args, kwargs, result)
            return result

        return wrapper

    def _timed_hook(self, hook, args, kwargs, result):
        t0 = time.perf_counter()
        hook(args, kwargs, result)
        dt = time.perf_counter() - t0
        self._stack[-1] += dt
        self.calls["trace.counting"] += 1
        self.self_s["trace.counting"] += dt

    # -- counting hooks ----------------------------------------------------

    def _count_tape(self, args, kwargs, result):
        nodes = autodiff.schedule(args[0])
        self.tape_steps += 1
        self.tape_nodes.update(t.op for t in nodes)
        self.tape_bytes += sum(t.data.nbytes for t in nodes)

    def _count_conv2d(self, args, kwargs, out):
        x, w = args[0], args[1]
        n, cout, ho, wo = out.shape
        k = w.shape[1] * w.shape[2] * w.shape[3]
        self.flop["conv2d"] += 2 * n * cout * k * ho * wo
        self.moved_bytes["conv2d"] += x.data.nbytes + w.data.nbytes + out.data.nbytes
        self.gemm_shapes[(cout, k, ho * wo)] += n

    def _count_conv2d_transpose(self, args, kwargs, out):
        x, w = args[0], args[1]
        n, cin, h, wd = x.shape
        self.flop["conv2d_transpose"] += 2 * n * cin * (w.data.size // cin) * h * wd
        self.moved_bytes["conv2d_transpose"] += x.data.nbytes + w.data.nbytes + out.data.nbytes

    def _count_read(self, args, kwargs, result):
        self.io_bytes["read"] += os.path.getsize(args[0])

    def _count_written(self, args, kwargs, result):
        self.io_bytes["written"] += os.path.getsize(args[1])

    def _count_checkpoint(self, args, kwargs, result):
        self.checkpoint_bytes = os.path.getsize(args[-1])

    def _count_surface(self, args, kwargs, points):
        self.surface_points += len(points)

    # -- report ------------------------------------------------------------

    def metrics(self, gemm_gflops: float) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        per_req = 1.0 / self.requests
        per_step = 1.0 / self.tape_steps if self.tape_steps else 0.0
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_pct"] = (100.0 * self.self_s[name] / self.request_s, "%")
        for name in AUTODIFF_SPANS:
            out[f"{name}.calls"] = (self.calls[name] * per_req, "count")
        out["autodiff.tape_nodes"] = (sum(self.tape_nodes.values()) * per_step, "count")
        for op in TAPE_OPS:
            out[f"autodiff.tape_nodes.{op}"] = (self.tape_nodes[op] * per_step, "count")
        out["autodiff.tape_bytes"] = (self.tape_bytes * per_step, "B")
        for op in ("conv2d", "conv2d_transpose"):
            busy = self.self_s[f"autodiff.{op}"]
            out[f"autodiff.{op}.computed_mflop"] = (self.flop[op] * per_req / 1e6, "MFLOP")
            out[f"autodiff.{op}.computed_mbytes"] = (self.moved_bytes[op] * per_req / 1e6, "MB")
            out[f"autodiff.{op}.gflops"] = (self.flop[op] / busy / 1e9 if busy else 0.0,
                                            "GFLOP/s")
        out["blas.gemm_gflops"] = (gemm_gflops, "GFLOP/s")
        out["trainer.checkpoint_bytes"] = (self.checkpoint_bytes, "B")
        out["metrics.surface_points"] = (self.surface_points * per_req, "count")
        out["data.bytes_read"] = (self.io_bytes["read"] * per_req, "B")
        out["data.bytes_written"] = (self.io_bytes["written"] * per_req, "B")
        out["trace.request_mean_ms"] = (1e3 * self.request_s * per_req, "ms")
        return out


def gemm_reference_gflops(shapes: Counter, seed: int) -> float:
    """Bare np.matmul rate on the (Cout, Cin*k*k) x (Cin*k*k, H*W) shapes conv2d ran.

    Each shape is weighted by how often conv2d ran it, so the result is the
    rate conv2d's forward pass would reach at plain GEMM speed.
    """
    rng = np.random.default_rng(seed)
    flop = 0.0
    seconds = 0.0
    for (m, k, p), count in sorted(shapes.items()):
        a = rng.standard_normal((m, k), dtype=np.float32)
        b = rng.standard_normal((k, p), dtype=np.float32)
        np.matmul(a, b)
        times = []
        for _ in range(7):
            t0 = time.perf_counter()
            np.matmul(a, b)
            times.append(time.perf_counter() - t0)
        flop += count * 2.0 * m * k * p
        seconds += count * statistics.median(times)
    return flop / seconds / 1e9
