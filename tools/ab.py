"""In-process A/B of two rseg source trees: a base revision against the working tree.

    python3 tools/ab.py --base HEAD~1 --workload train-small --rounds 30 --seed 1
    python3 tools/ab.py --base HEAD~1 --workload train-wide --setup --rounds 10
    python3 tools/ab.py --base HEAD~1 --workload infer-eval --evaluate --rounds 20

Run from the root of a git checkout. The base revision's ``src/rseg`` is
extracted with ``git archive`` into the gitignored ``.bench_build/<sha>/``
and imported as the package ``rseg_base``; the working tree's ``src/rseg``
is imported as ``rseg_work``. rseg uses only relative imports, so a copied
tree imports under any name. With ``--base HEAD`` on a clean tree, both
sides run the same code.

One set-up writes the workload's phantoms with the working tree's
generator. Each round then times two requests per side, in the order
A B B A with A drawn from the seed, with BLAS pinned to one thread, and
sums each side's two:

- ``train-small``, ``train-wide``: one ``rseg train`` of the benchmark
  workload's model (one volume, one epoch), each side into its own files;
- ``infer-eval``: ``rseg segment`` of one volume of each of the six shapes,
  summed, each side with a segunet L3C16 checkpoint it wrote itself;
- with ``--setup``, in place of the above: each side generates, in memory,
  the 18 phantoms of one perfbench set-up of the workload (its shapes,
  decoys, streaks and ``derive_seed`` indices), and the bytes compared are
  their volumes and masks. perfbench's ``setup_s`` is wall seconds and
  drifts with the host; this ratio does not;
- with ``--evaluate``, in place of the above: each side runs ``rseg
  evaluate`` on every threshold/ground-truth pair that one perfbench
  set-up of the workload scores (its 16 held-out pairs on a train
  workload, its 18 pairs on infer-eval), each into its own CSV, and the
  bytes compared are the CSVs.

One untimed warm-up request per side comes first. The report gives each
round's ratio (work / base), the median ratio, with ``--setup`` each side's
median ms per phantom (a round's time over the phantoms it generated), the
number of rounds in which the work side was faster, the exact two-sided
sign-test p, each side's minor page faults per timed request
(``getrusage``), each side's traced peak over one more untimed request
(``tracemalloc``: the most memory that request's Python and numpy
allocations held at once), and whether both sides wrote the same
checkpoint, history, mask or report bytes.
``--json FILE`` also writes the table.

Both sides share one process and so one allocator: whichever side first
sets a malloc option sets it for both, and pages one side frees the other
reuses. So the A/B cancels allocator and page-fault costs, and a change
that moves them shows only in ``perfbench`` runs of each tree, in
alternating pairs of processes; the fault counts show where to look. The
traced peaks count what each tree allocates, apart from the allocator, so
a change in the memory a request holds shows there.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# model flags and training volume extent of perfbench's train workloads
TRAIN = {
    "train-small": (["--backbone", "unet", "--levels", "2", "--base-channels", "8",
                     "--recurrent", "--teacher-forcing"], (8, 48, 48)),
    "train-wide": (["--backbone", "attunet", "--levels", "4", "--base-channels", "16",
                    "--recurrent", "--bptt", "full"], (8, 32, 32)),
}
# perfbench's infer-eval volume shapes: no extent divides by 2^3
SEGMENT_SHAPES = ((8, 53, 55), (9, 50, 46), (10, 45, 47), (11, 41, 43), (12, 37, 39),
                  (8, 33, 61))
# perfbench's intensity band of the threshold mask that evaluate scores
THRESHOLD_BAND = (700.0, 2100.0)
WORKLOADS = tuple(TRAIN) + ("infer-eval",)


def sign_test_p(wins: int, n: int) -> float:
    """Exact two-sided sign-test p of ``wins`` out of ``n`` fair coin flips."""
    k = min(wins, n - wins)
    return min(1.0, 2 * sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n)


def traced_peak_mb(request) -> float:
    """Peak traced memory in MB (2^20 bytes) of what one ``request()`` allocates."""
    tracemalloc.start()
    try:
        request()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def import_tree(package_dir, name: str):
    """Import the package in ``package_dir`` as ``name``, apart from every other copy."""
    spec = importlib.util.spec_from_file_location(
        name, Path(package_dir) / "__init__.py", submodule_search_locations=[str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def extract(rev: str) -> Path:
    """``src/rseg`` of revision ``rev``, extracted once under .bench_build/."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    dest = BUILD / sha
    if not (dest / "src" / "rseg" / "__init__.py").is_file():
        blob = subprocess.run(["git", "archive", "--format=tar", sha, "src/rseg"], cwd=ROOT,
                              check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
            tar.extractall(dest, filter="data")
    return dest / "src" / "rseg"


class Side:
    """One imported tree and the files its requests write."""

    def __init__(self, package_dir, name, workdir):
        import_tree(package_dir, name)
        self.name = name
        self.cli = self.module("cli")
        self.dir = Path(workdir) / name
        self.dir.mkdir()
        self.faults = []  # minor page faults of each call

    def module(self, sub: str):
        return importlib.import_module(f"{self.name}.{sub}")

    def timed(self, call):
        """(wall seconds, result) of ``call()``; its minor page faults go to ``faults``."""
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        result = call()
        dt = time.perf_counter() - t0
        self.faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
        return dt, result

    def run(self, argv) -> float:
        """Wall seconds of one in-process CLI call; a non-zero exit stops the run."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            dt, code = self.timed(lambda: self.cli.run_cli([str(a) for a in argv]))
        if code != 0:
            raise SystemExit(f"ab: {self.name} exited {code}: {err.getvalue().strip()}")
        return dt


class TrainRequests:
    def __init__(self, workload, seed, data, workdir):
        self.args, dims = TRAIN[workload]
        self.seed = seed
        self.train_dir, self.val_dir = Path(workdir) / "train", Path(workdir) / "val"
        for index, d in enumerate((self.train_dir, self.val_dir)):
            d.mkdir()
            write_phantom(data, d, index, dims, seed, streaks=False)

    def prepare(self, side) -> None:
        pass

    def run(self, side) -> float:
        return side.run(["train", "--data", self.train_dir, "--val", self.val_dir,
                         "--out", side.dir / "model.rsck", *self.args, "--epochs", 1,
                         "--patience", 1, "--lr", "1e-3", "--seed", self.seed,
                         "--threads", 1])

    def outputs(self, side):
        return [(side.dir / f).read_bytes() for f in ("model.rsck", "model.csv")]


class SegmentRequests:
    def __init__(self, workload, seed, data, workdir):
        self.volumes = [write_phantom(data, workdir, i, dims, seed, streaks=True)
                        for i, dims in enumerate(SEGMENT_SHAPES)]

    def prepare(self, side) -> None:
        backbones = side.module("backbones")
        config = backbones.ModelConfig(backbone="segunet", levels=3, base_channels=16,
                                       recurrent=True)
        side.module("trainer").save_checkpoint(backbones.build_model(config, seed=0),
                                               str(side.dir / "segunet.rsck"))

    def run(self, side) -> float:
        return sum(side.run(["segment", "--model", side.dir / "segunet.rsck", "--in", vol,
                             "--out", side.dir / f"pred_{i}.mvf", "--threads", 1])
                   for i, vol in enumerate(self.volumes))

    def outputs(self, side):
        return [(side.dir / f"pred_{i}.mvf").read_bytes() for i in range(len(self.volumes))]


class SetupRequests:
    def __init__(self, workload, seed, data, workdir):
        self.phantoms = setup_phantoms(workload)
        self.seed = seed
        self.made = {}  # each side's last phantoms

    def prepare(self, side) -> None:
        pass

    def run(self, side) -> float:
        data = side.module("data")
        dt, self.made[side.name] = side.timed(
            lambda: [phantom(data, index, dims, self.seed, streaks)
                     for index, dims, streaks in self.phantoms])
        return dt

    def outputs(self, side):
        return [a.tobytes() for vol, mask in self.made[side.name]
                for a in (vol.intensities, mask.voxels)]


class EvaluateRequests:
    def __init__(self, workload, seed, data, workdir):
        self.pairs = [write_scored_pair(data, workdir, index, dims, seed, streaks)
                      for index, dims, streaks in scored_phantoms(workload)]

    def prepare(self, side) -> None:
        pass

    def run(self, side) -> float:
        return sum(side.run(["evaluate", "--pred", thr, "--gt", gt,
                             "--csv", side.dir / f"report_{i}.csv", "--threads", 1])
                   for i, (thr, gt) in enumerate(self.pairs))

    def outputs(self, side):
        return [(side.dir / f"report_{i}.csv").read_bytes() for i in range(len(self.pairs))]


def setup_phantoms(workload):
    """(index, dims, streaks) of the 18 phantoms one perfbench set-up of ``workload`` writes.

    A train set-up writes one training volume, one validation volume and 16
    held-out pairs; an infer-eval set-up writes three volumes of each shape.
    """
    if workload in TRAIN:
        return [(i, TRAIN[workload][1], False) for i in range(18)]
    return [(i, SEGMENT_SHAPES[i % len(SEGMENT_SHAPES)], True) for i in range(18)]


def scored_phantoms(workload):
    """(index, dims, streaks) of the phantoms whose threshold mask a perfbench set-up scores.

    A train set-up scores its 16 held-out pairs, after the training and the
    validation volume; an infer-eval set-up scores all 18.
    """
    phantoms = setup_phantoms(workload)
    return phantoms[2:] if workload in TRAIN else phantoms


def phantom(data, index, dims, seed, streaks):
    """Phantom ``index`` of a workload drawn from ``seed``, as perfbench generates it."""
    return data.generate_phantom(data.PhantomSpec(
        dims=dims, decoys=True, artifact_streaks=streaks, seed=data.derive_seed(seed, index)))


def write_phantom(data, directory, index, dims, seed, streaks) -> Path:
    vol, mask = phantom(data, index, dims, seed, streaks)
    path = Path(directory) / f"vol_{index:03d}.mvf"
    data.save_volume(vol, str(path))
    data.save_volume(mask, str(Path(directory) / f"mask_{index:03d}.mvf"))
    return path


def write_scored_pair(data, directory, index, dims, seed, streaks):
    """(threshold mask path, ground truth path) of one scored pair, as perfbench writes it."""
    vol, mask = phantom(data, index, dims, seed, streaks)
    lo, hi = THRESHOLD_BAND
    thr = ((vol.intensities > lo) & (vol.intensities < hi)).astype("uint8")
    paths = Path(directory) / f"thr_{index:03d}.mvf", Path(directory) / f"mask_{index:03d}.mvf"
    data.save_volume(data.VolumeMask(thr, vol.spacing_mm), str(paths[0]))
    data.save_volume(mask, str(paths[1]))
    return paths


def compare(base_dir, work_dir, workload, rounds, seed, setup=False, evaluate=False) -> dict:
    """Time ``rounds`` rounds of one workload's requests, set-up or evaluations; the report."""
    with tempfile.TemporaryDirectory(prefix="ab_", dir=BUILD) as workdir:
        base = Side(base_dir, "rseg_base", workdir)
        work = Side(work_dir, "rseg_work", workdir)
        kind = (SetupRequests if setup else EvaluateRequests if evaluate
                else TrainRequests if workload in TRAIN else SegmentRequests)
        requests = kind(workload, seed, work.module("data"), workdir)
        for side in (base, work):
            requests.prepare(side)
            requests.run(side)  # warm-up
            side.faults.clear()
        order = random.Random(seed)
        times = {"rseg_base": [], "rseg_work": []}
        for _ in range(rounds):
            first, second = order.sample([base, work], 2)
            # first, second, second, first: a linear drift of the host's speed cancels
            t_first = requests.run(first)
            times[second.name].append(requests.run(second) + requests.run(second))
            times[first.name].append(t_first + requests.run(first))
        same = requests.outputs(base) == requests.outputs(work)
        # per request: a segment request is several CLI calls
        faults = {side.name: round(sum(side.faults) / (2 * rounds), 1) for side in (base, work)}
        peaks = {side.name: round(traced_peak_mb(lambda: requests.run(side)), 2)
                 for side in (base, work)}
    ratios = [w / b for b, w in zip(times["rseg_base"], times["rseg_work"])]
    wins = sum(r < 1.0 for r in ratios)
    decided = sum(r != 1.0 for r in ratios)
    report = {
        "workload": workload, "setup": setup, "evaluate": evaluate, "rounds": rounds,
        "seed": seed,
        "base_ms": [round(1e3 * t, 3) for t in times["rseg_base"]],
        "work_ms": [round(1e3 * t, 3) for t in times["rseg_work"]],
        "ratios": [round(r, 4) for r in ratios],
        "median_ratio": round(statistics.median(ratios), 4),
        "work_faster": wins,
        "sign_test_p": sign_test_p(wins, decided),
        "base_faults_per_request": faults["rseg_base"],
        "work_faults_per_request": faults["rseg_work"],
        "base_traced_peak_mb": peaks["rseg_base"],
        "work_traced_peak_mb": peaks["rseg_work"],
        "same_outputs": same,
    }
    if setup:
        # a round is two requests, each generating every phantom of one set-up
        phantoms = 2 * len(requests.phantoms)
        for side in ("base", "work"):
            report[f"{side}_ms_per_phantom"] = round(
                1e3 * statistics.median(times[f"rseg_{side}"]) / phantoms, 3)
    return report


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    kind = parser.add_mutually_exclusive_group()
    kind.add_argument("--setup", action="store_true",
                      help="time the workload's set-up phantoms instead of its requests")
    kind.add_argument("--evaluate", action="store_true",
                      help="time rseg evaluate on the workload's scored pairs instead")
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", help="also write the report here")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    # before numpy first loads, which both trees import
    for var in THREAD_ENV:
        os.environ[var] = "1"
    BUILD.mkdir(exist_ok=True)
    report = compare(extract(args.base), ROOT / "src" / "rseg", args.workload, args.rounds,
                     args.seed, args.setup, args.evaluate)
    report["base"] = args.base
    print("round  base_ms   work_ms   ratio")
    for i, (b, w, r) in enumerate(zip(report["base_ms"], report["work_ms"], report["ratios"])):
        print(f"{i:5d} {b:9.3f} {w:9.3f} {r:7.4f}")
    label = (f"{args.workload} set-up" if args.setup
             else f"{args.workload} evaluate" if args.evaluate else args.workload)
    per_phantom = (f"ms per phantom base {report['base_ms_per_phantom']} "
                   f"work {report['work_ms_per_phantom']}, " if args.setup else "")
    print(f"{label}: median ratio {report['median_ratio']:.4f}, {per_phantom}work faster in "
          f"{report['work_faster']}/{args.rounds}, sign-test p {report['sign_test_p']:.3g}, "
          f"minor faults per request base {report['base_faults_per_request']} "
          f"work {report['work_faults_per_request']}, "
          f"traced peak MB base {report['base_traced_peak_mb']} "
          f"work {report['work_traced_peak_mb']}, "
          f"outputs {'identical' if report['same_outputs'] else 'DIFFER'}")
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
