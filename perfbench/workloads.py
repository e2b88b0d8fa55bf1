"""Workload inputs, requests and output checks for the rseg benchmark.

Every request drives the user path, ``rseg.cli.run_cli`` called in-process,
on files the set-up generated from the workload seed. The README's exit-code
contract (0 ok, 1 validation error, 2 runtime failure) and the checks below
decide whether an operation failed. Checks run outside the timed part of a
request and use the package's functions as imported here, so a traced
section never sees them.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import struct
import statistics
import time
from collections import defaultdict

import numpy as np
from scipy.ndimage import binary_erosion, generate_binary_structure
from scipy.spatial.distance import cdist

import rseg.cli
from rseg.backbones import ModelConfig, build_model
from rseg.data import PhantomSpec, derive_seed, generate_phantom, save_volume
from rseg.metrics import VolumeMask, evaluate
from rseg.trainer import load_checkpoint, save_checkpoint

# object and decoys share one intensity (1400); streaks are brighter (2600).
# A mask of this band is what a model without slice context would mark.
THRESHOLD_BAND = (700.0, 2100.0)
ORACLE_TOL_MM = 1e-9
ORACLE_PAIRS = 2
# the report CSV keeps 6 decimals
CSV_TOL = 5e-7 + 1e-12

_MVF_HEADER = struct.Struct("<4sB3I3f")


def run_cli(argv):
    """(exit code, wall seconds, stderr) of one in-process CLI call."""
    sink, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = rseg.cli.run_cli([str(a) for a in argv])
        dt = time.perf_counter() - t0
    return code, dt, err.getvalue().strip()


def parse_mask(raw: bytes):
    """Parse MVF1 mask bytes independently of rseg.data; (dims, voxels)."""
    magic, code, d, h, w, _, _, _ = _MVF_HEADER.unpack_from(raw)
    if magic != b"MVF1" or code != 1:
        raise ValueError("not an MVF1 mask")
    if len(raw) != _MVF_HEADER.size + d * h * w:
        raise ValueError("payload length does not match dims")
    voxels = np.frombuffer(raw, dtype=np.uint8, offset=_MVF_HEADER.size).reshape(d, h, w)
    return (d, h, w), voxels


def _surface(voxels) -> np.ndarray:
    v = voxels != 0
    inner = binary_erosion(v, generate_binary_structure(3, 1), border_value=0)
    return np.argwhere(v & ~inner).astype(np.float64)


def _min_dist(a, b, chunk=64) -> np.ndarray:
    return np.concatenate([cdist(a[i:i + chunk], b).min(axis=1)
                           for i in range(0, len(a), chunk)])


def oracle_metrics(pred, gt):
    """Dice and (asd, hd95, hd) in mm by counting and all-pairs distances; unit spacing."""
    inter = int(np.count_nonzero((pred != 0) & (gt != 0)))
    dice = 2.0 * inter / (int(np.count_nonzero(pred)) + int(np.count_nonzero(gt)))
    sp, sg = _surface(pred), _surface(gt)
    dab, dba = _min_dist(sp, sg), _min_dist(sg, sp)
    asd = 0.5 * (float(dab.mean()) + float(dba.mean()))
    hd95 = max(float(np.percentile(dab, 95)), float(np.percentile(dba, 95)))
    hd = max(float(dab.max()), float(dba.max()))
    return dice, (asd, hd95, hd)


class Checks:
    """Operations attempted and failed; a failed check is never retried."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, op: str, check, *args) -> None:
        """Run `check(*args)`, a list of problems; unreadable output is one too."""
        self.attempted += 1
        try:
            problems = check(*args)
        except (OSError, ValueError, struct.error) as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.append(f"{op}: " + "; ".join(problems))


class Pair:
    """One volume and its ground truth on disk; `scored` adds the threshold mask."""

    def __init__(self, directory, index, dims, seed, streaks, scored=True):
        spec = PhantomSpec(dims=dims, decoys=True, artifact_streaks=streaks,
                           seed=derive_seed(seed, index))
        vol, mask = generate_phantom(spec)
        self.index = index
        self.dims = tuple(dims)
        self.gt = mask.voxels
        self.vol_path = os.path.join(directory, f"vol_{index:03d}.mvf")
        self.gt_path = os.path.join(directory, f"mask_{index:03d}.mvf")
        save_volume(vol, self.vol_path)
        save_volume(mask, self.gt_path)
        if scored:
            lo, hi = THRESHOLD_BAND
            self.thr = ((vol.intensities > lo) & (vol.intensities < hi)).astype(np.uint8)
            self.thr_path = os.path.join(directory, f"thr_{index:03d}.mvf")
            save_volume(VolumeMask(self.thr, vol.spacing_mm), self.thr_path)


class Reference:
    """A fixed computation, timed between requests: the unit of the timing metrics.

    On a shared host other tenants make the whole machine faster or slower
    for seconds at a time, and that drift moves a run's wall times by more
    than a code change should be allowed to. Each CLI call's wall time is
    divided by the time this computation took just before and just after
    its request, which cancels the drift. The computation mixes what rseg
    spends its time on: an interpreted loop, small elementwise numpy ops on
    a feature map, and a GEMM of a conv's im2col shape. It does not use
    rseg, so a change to the package cannot change the unit.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.weights = rng.standard_normal((16, 144), dtype=np.float32)
        self.columns = rng.standard_normal((144, 2304), dtype=np.float32)
        self.feature = rng.standard_normal((1, 16, 48, 48), dtype=np.float32)
        self.times = []
        self.restart()

    def run(self) -> float:
        """Wall seconds of one run of the computation."""
        t0 = time.perf_counter()
        total = 0
        for i in range(4000):
            total += i * i
        for _ in range(8):
            np.matmul(self.weights, self.columns)
        for _ in range(40):
            np.pad(np.maximum(1.5 * self.feature + 0.1, 0.0),
                   ((0, 0), (0, 0), (1, 1), (1, 1))).sum()
        dt = time.perf_counter() - t0
        self.times.append(dt)
        return dt

    def restart(self) -> None:
        self.times.clear()
        self._last = self.run()

    def around(self) -> float:
        """Seconds of one reference, as the mean of the last run and a new one."""
        before, self._last = self._last, self.run()
        return 0.5 * (before + self._last)


def p50_mean(samples) -> float:
    """Mean over inputs of each input's median; every input counts the same."""
    return statistics.mean(statistics.median(v) for v in samples.values())


class Workload:
    """A set-up, a request made of CLI calls, and the checks on their outputs.

    A round is one request. The measuring loop stops only after whole
    cycles of ``cycle`` rounds, which cover every scored pair equally often.
    ``samples`` holds each CLI call's time in reference units, per input;
    ``wall`` holds the same calls in wall seconds.
    """

    cycle = 1
    min_rounds = 1
    CALLS = ("segment", "evaluate")

    def __init__(self):
        self.seed = None
        self.checks = Checks()
        self.reference = Reference()
        self.samples = {call: defaultdict(list) for call in self.CALLS}
        self.wall = {call: [] for call in self.CALLS}
        self._seen = {}

    def restart(self) -> None:
        """Drop the samples so far; timing starts again from here."""
        for call in self.CALLS:
            self.samples[call].clear()
            self.wall[call].clear()
        self.reference.restart()

    def _sample(self, call, item, seconds, ref) -> None:
        self.samples[call][item].append(seconds / ref)
        self.wall[call].append(seconds)

    def end_to_end(self) -> dict:
        """{name: (value, unit)} of the timing metrics, from the samples."""
        return {"slices_per_ref": (self.slices_per_ref(), "slice/ref"),
                "segment.p50_ref": (p50_mean(self.samples["segment"]), "ref"),
                "evaluate.p50_ref": (p50_mean(self.samples["evaluate"]), "ref")}

    def slices_per_ref(self) -> float:
        raise NotImplementedError

    def setup(self, directory, seed) -> None:
        """Write the inputs drawn from `seed` under `directory`; they replace any before."""
        self.dir = directory
        self.seed = seed
        self._seen.clear()

    def round(self, index, section=contextlib.nullcontext):
        """Run round `index`; returns the wall seconds of its timed part."""
        raise NotImplementedError

    # -- inference half, shared by every workload --------------------------

    def _segment_evaluate(self, model, pair):
        pred_path = os.path.join(self.dir, f"pred_{pair.index:03d}.mvf")
        csv_path = os.path.join(self.dir, f"report_{pair.index:03d}.csv")
        seg = run_cli(["segment", "--model", model, "--in", pair.vol_path,
                       "--out", pred_path, "--threads", 1])
        ev = run_cli(["evaluate", "--pred", pair.thr_path, "--gt", pair.gt_path,
                      "--csv", csv_path, "--threads", 1])
        return seg, ev, pred_path, csv_path

    def _record_inference(self, pair, ref, seg, ev, pred_path, csv_path):
        code, dt, err = seg
        self._sample("segment", pair.index, dt, ref)
        self.checks.record("segment", self._check_segment, pair, code, err, pred_path)
        code, dt, err = ev
        self._sample("evaluate", pair.index, dt, ref)
        self.checks.record("evaluate", self._check_evaluate, pair, code, err, csv_path)

    def _same_as_first(self, key, data, what):
        first = self._seen.setdefault(key, data)
        return [] if first == data else [f"{what} differs from the first run with the same inputs"]

    def _check_segment(self, pair, code, err, pred_path):
        if code != 0:
            return [f"exit {code}: {err}"]
        with open(pred_path, "rb") as fh:
            raw = fh.read()
        dims, voxels = parse_mask(raw)
        problems = []
        if dims != pair.dims:
            problems.append(f"mask dims {dims} != volume dims {pair.dims}")
        if not np.all(voxels <= 1):
            problems.append("mask is not binary")
        problems += self._same_as_first(("segment", pair.vol_path), raw, "mask")
        return problems

    def _check_evaluate(self, pair, code, err, csv_path):
        if code != 0:
            return [f"exit {code}: {err}"]
        with open(csv_path, encoding="utf-8") as fh:
            text = fh.read()
        lines = text.splitlines()
        if len(lines) != 2 or lines[0] != "scan_id,dice,asd_mm,hd95_mm,hd_mm":
            return [f"malformed report {text!r}"]
        dice = float(lines[1].split(",")[1])
        inter = int(np.count_nonzero(pair.thr & pair.gt))
        ref = 2.0 * inter / (int(pair.thr.sum()) + int(pair.gt.sum()))
        problems = []
        if abs(dice - ref) > CSV_TOL:
            problems.append(f"dice {dice} != counted {ref:.9f}")
        problems += self._same_as_first(("evaluate", pair.gt_path), text, "report")
        return problems

    def oracle_check(self) -> None:
        """Distances of evaluate and of the reports against all-pairs cdist."""
        for pair in self.pairs[:ORACLE_PAIRS]:
            self.checks.record("oracle", self._check_oracle, pair)

    def _check_oracle(self, pair):
        problems = []
        dice, dist = oracle_metrics(pair.thr, pair.gt)
        spacing = (1.0, 1.0, 1.0)
        rep = evaluate(VolumeMask(pair.thr, spacing), VolumeMask(pair.gt, spacing), "oracle")
        for label, got, want in zip(("asd", "hd95", "hd"),
                                    (rep.asd_mm, rep.hd95_mm, rep.hd_mm), dist):
            if abs(got - want) > ORACLE_TOL_MM:
                problems.append(f"{label} {got!r} vs brute force {want!r}")
        if abs(rep.dice - dice) > 1e-12:
            problems.append(f"dice {rep.dice!r} vs counted {dice!r}")
        report = self._seen.get(("evaluate", pair.gt_path))
        if report is not None:
            csv_vals = [float(v) for v in report.splitlines()[1].split(",")[2:]]
            for label, got, want in zip(("asd", "hd95", "hd"), csv_vals, dist):
                if abs(got - want) > CSV_TOL:
                    problems.append(f"report {label} {got} vs brute force {want!r}")
        return problems


class TrainWorkload(Workload):
    """``rseg train``, then segment and evaluate held-out volumes with the result.

    Every request trains from the same seed on the same files, so each
    checkpoint and history CSV must equal the first byte for byte. Requests
    take turns over the held-out pairs, because evaluate's cost depends on
    each phantom's surface and a few pairs would make it depend on the seed.
    A request is kept to a fraction of a second, so that a run holds many
    samples of each call.
    """

    TRAIN_DIMS = (8, 48, 48)
    HELD_OUT = 16
    PER_REQUEST = 2
    cycle = HELD_OUT // PER_REQUEST
    min_rounds = cycle
    CALLS = ("train",) + Workload.CALLS

    def __init__(self, model_args, volumes, epochs, dims=TRAIN_DIMS):
        super().__init__()
        self.dims = dims
        self.model_args = model_args
        self.volumes = volumes
        self.epochs = epochs

    def slices_per_ref(self) -> float:
        """Training slices (volumes x slices x epochs) over the median ``rseg train``."""
        slices = self.volumes * self.dims[0] * self.epochs
        return slices / statistics.median(self.samples["train"]["train"])

    def setup(self, directory, seed) -> None:
        super().setup(directory, seed)
        self.train_dir = os.path.join(directory, "train")
        self.val_dir = os.path.join(directory, "val")
        held_dir = os.path.join(directory, "held")
        for d in (self.train_dir, self.val_dir, held_dir):
            os.makedirs(d)
        # one seed, distinct phantom indices for train, validation and held-out
        for i in range(self.volumes):
            Pair(self.train_dir, i, self.dims, seed, streaks=False, scored=False)
        Pair(self.val_dir, self.volumes, self.dims, seed, streaks=False, scored=False)
        self.pairs = [Pair(held_dir, self.volumes + 1 + i, self.dims, seed, streaks=False)
                      for i in range(self.HELD_OUT)]
        self.model = os.path.join(directory, "model.rsck")

    def round(self, index, section=contextlib.nullcontext):
        argv = ["train", "--data", self.train_dir, "--val", self.val_dir,
                "--out", self.model, *self.model_args, "--epochs", self.epochs,
                "--patience", self.epochs, "--lr", "1e-3", "--seed", self.seed,
                "--threads", 1]
        pairs = [self.pairs[(index * self.PER_REQUEST + j) % self.HELD_OUT]
                 for j in range(self.PER_REQUEST)]
        with section():
            t0 = time.perf_counter()
            train = run_cli(argv)
            inference = [self._segment_evaluate(self.model, p) for p in pairs]
            wall = time.perf_counter() - t0
        ref = self.reference.around()
        code, dt, err = train
        self._sample("train", "train", dt, ref)
        self.checks.record("train", self._check_train, code, err)
        for pair, out in zip(pairs, inference):
            self._record_inference(pair, ref, *out)
        return wall

    def _check_train(self, code, err):
        if code != 0:
            return [f"exit {code}: {err}"]
        problems = []
        csv_path = os.path.splitext(self.model)[0] + ".csv"
        with open(csv_path, encoding="utf-8") as fh:
            history = fh.read()
        rows = history.splitlines()[1:]
        if len(rows) != self.epochs:
            problems.append(f"{len(rows)} history rows for {self.epochs} epochs")
        if not all(math.isfinite(float(v)) for r in rows for v in r.split(",")):
            problems.append("non-finite value in history")
        with open(self.model, "rb") as fh:
            blob = fh.read()
        again = os.path.join(self.dir, "roundtrip.rsck")
        save_checkpoint(load_checkpoint(self.model), again)
        with open(again, "rb") as fh:
            if fh.read() != blob:
                problems.append("checkpoint changes on a load/save round trip")
        problems += self._same_as_first("checkpoint", blob, "checkpoint")
        problems += self._same_as_first("history", history, "history CSV")
        return problems


class InferEvalWorkload(Workload):
    """Closed loop, one client: each request segments one volume, then evaluates it.

    Shapes are fixed so that every seed costs the same; the seed draws the
    phantoms, several per shape, so that evaluate's content-dependent cost
    averages out within a run. Volumes are small enough (about 0.1 s to
    segment) that a run holds many samples of each. No extent is a
    multiple of 2^levels = 8, so pad and crop run on every request.
    """

    SHAPES = ((8, 53, 55), (9, 50, 46), (10, 45, 47), (11, 41, 43), (12, 37, 39),
              (8, 33, 61))
    PER_SHAPE = 3
    cycle = PER_SHAPE * len(SHAPES)
    min_rounds = cycle

    def slices_per_ref(self) -> float:
        """Slices of the pool over the sum of each volume's median ``rseg segment``."""
        seg = self.samples["segment"]
        return (sum(p.dims[0] for p in self.pairs)
                / sum(statistics.median(seg[p.index]) for p in self.pairs))

    def setup(self, directory, seed) -> None:
        super().setup(directory, seed)
        self.pairs = [Pair(directory, i, self.SHAPES[i % len(self.SHAPES)], seed,
                           streaks=True)
                      for i in range(self.cycle)]
        self.model = os.path.join(directory, "segunet.rsck")
        config = ModelConfig(backbone="segunet", levels=3, base_channels=16, recurrent=True)
        save_checkpoint(build_model(config, seed=0), self.model)

    def round(self, index, section=contextlib.nullcontext):
        pair = self.pairs[index % len(self.pairs)]
        with section():
            t0 = time.perf_counter()
            out = self._segment_evaluate(self.model, pair)
            wall = time.perf_counter() - t0
        self._record_inference(pair, self.reference.around(), *out)
        return wall


WORKLOADS = {
    "train-small": lambda: TrainWorkload(
        ["--backbone", "unet", "--levels", 2, "--base-channels", 8, "--recurrent",
         "--teacher-forcing"],
        volumes=1, epochs=1),
    "train-wide": lambda: TrainWorkload(
        ["--backbone", "attunet", "--levels", 4, "--base-channels", 16, "--recurrent",
         "--bptt", "full"],
        volumes=1, epochs=1, dims=(8, 32, 32)),
    "infer-eval": InferEvalWorkload,
}
