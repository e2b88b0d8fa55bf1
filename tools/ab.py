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

The inputs are perfbench's own: one ``setup`` of the workload from
``perfbench/workloads.py``, which imports ``rseg`` from the working tree,
writes them, and every request reads its files and settings from that
set-up. Each round then times two requests per side, in the order A B B A
with A drawn from the seed, with BLAS pinned to one thread, and sums each
side's two:

- ``train-small``, ``train-wide``: one ``rseg train`` of the set-up's
  model flags, training and validation volumes, epochs and seed, each side
  into its own files;
- ``infer-eval``: ``rseg segment`` of the set-up's first volume of each
  shape, summed, each side with a checkpoint it wrote itself, of the model
  config echoed in the set-up's ``segunet.rsck``;
- with ``--setup``, in place of the above: each side generates, in memory,
  every phantom the set-up generated, each side's ``PhantomSpec`` built
  from the arguments the set-up passed, and the bytes compared are their
  volumes and masks. perfbench's ``setup_s`` is wall seconds and drifts
  with the host; this ratio does not;
- with ``--evaluate``, in place of the above: each side runs ``rseg
  evaluate`` on every threshold/ground-truth pair the set-up scores (its 16
  held-out pairs on a train workload, its 18 pairs on infer-eval), each
  into its own CSV, and the bytes compared are the CSVs.

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
import dataclasses
import functools
import importlib
import importlib.util
import io
import json
import math
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
    try:
        sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                             check=True, capture_output=True, text=True).stdout.strip()
    except subprocess.CalledProcessError:
        raise SystemExit(f"ab: unknown revision {rev!r}") from None
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
    def __init__(self, inputs):
        self.args = ["--data", inputs.train_dir, "--val", inputs.val_dir, *inputs.model_args,
                     "--epochs", inputs.epochs, "--patience", inputs.epochs, "--lr", "1e-3",
                     "--seed", inputs.seed, "--threads", 1]

    def run(self, side) -> float:
        return side.run(["train", "--out", side.dir / "model.rsck", *self.args])

    def outputs(self, side):
        return [(side.dir / f).read_bytes() for f in ("model.rsck", "model.csv")]


class SegmentRequests:
    def __init__(self, inputs, sides):
        # one volume of each shape
        self.volumes = [p.vol_path for p in inputs.pairs[:len(inputs.SHAPES)]]
        # read by the tree that wrote it; each side builds and writes its own
        config = dataclasses.asdict(perfbench().load_checkpoint(inputs.model).config)
        for side in sides:
            backbones = side.module("backbones")
            model = backbones.build_model(backbones.ModelConfig(**config), seed=0)
            side.module("trainer").save_checkpoint(model, str(side.dir / "segunet.rsck"))

    def run(self, side) -> float:
        return sum(side.run(["segment", "--model", side.dir / "segunet.rsck", "--in", vol,
                             "--out", side.dir / f"pred_{i}.mvf", "--threads", 1])
                   for i, vol in enumerate(self.volumes))

    def outputs(self, side):
        return [(side.dir / f"pred_{i}.mvf").read_bytes() for i in range(len(self.volumes))]


class SetupRequests:
    def __init__(self, specs):
        self.specs = specs
        self.made = {}  # each side's last phantoms

    def run(self, side) -> float:
        data = side.module("data")
        dt, self.made[side.name] = side.timed(
            lambda: [data.generate_phantom(data.PhantomSpec(**spec)) for spec in self.specs])
        return dt

    def outputs(self, side):
        return [a.tobytes() for vol, mask in self.made[side.name]
                for a in (vol.intensities, mask.voxels)]


class EvaluateRequests:
    def __init__(self, inputs):
        self.pairs = [(p.thr_path, p.gt_path) for p in inputs.pairs]

    def run(self, side) -> float:
        return sum(side.run(["evaluate", "--pred", thr, "--gt", gt,
                             "--csv", side.dir / f"report_{i}.csv", "--threads", 1])
                   for i, (thr, gt) in enumerate(self.pairs))

    def outputs(self, side):
        return [(side.dir / f"report_{i}.csv").read_bytes() for i in range(len(self.pairs))]


@functools.cache
def perfbench():
    """``perfbench/workloads.py``, which imports ``rseg``: the working tree's, on the path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def set_up(workload, directory, seed):
    """perfbench's set-up of ``workload`` in the new ``directory``; it and its phantom specs.

    The specs are the keyword arguments of each ``PhantomSpec`` the set-up made, in order.
    """
    Path(directory).mkdir()
    bench = perfbench()
    inputs = bench.WORKLOADS[workload]()
    specs = []
    phantom_spec = bench.PhantomSpec

    def recorded(**kwargs):
        specs.append(kwargs)
        return phantom_spec(**kwargs)

    bench.PhantomSpec = recorded
    try:
        inputs.setup(str(directory), seed)
    finally:
        bench.PhantomSpec = phantom_spec
    return inputs, specs


def compare(base_dir, work_dir, workload, rounds, seed, setup=False, evaluate=False) -> dict:
    """Time ``rounds`` rounds of one workload's requests, set-up or evaluations; the report."""
    with tempfile.TemporaryDirectory(prefix="ab_", dir=BUILD) as workdir:
        inputs, specs = set_up(workload, Path(workdir) / "inputs", seed)
        base = Side(base_dir, "rseg_base", workdir)
        work = Side(work_dir, "rseg_work", workdir)
        if setup:
            requests = SetupRequests(specs)
        elif evaluate:
            requests = EvaluateRequests(inputs)
        elif isinstance(inputs, perfbench().TrainWorkload):
            requests = TrainRequests(inputs)
        else:
            requests = SegmentRequests(inputs, (base, work))
        for side in (base, work):
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
        phantoms = 2 * len(requests.specs)
        for side in ("base", "work"):
            report[f"{side}_ms_per_phantom"] = round(
                1e3 * statistics.median(times[f"rseg_{side}"]) / phantoms, 3)
    return report


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--workload", choices=list(perfbench().WORKLOADS), required=True)
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
    sys.path.insert(0, str(ROOT / "src"))
    from rseg import cli

    # before numpy first loads, which perfbench and both trees import
    cli._set_threads(1)
    main()
