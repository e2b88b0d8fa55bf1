"""rseg benchmark: one process, one client, BLAS pinned to one thread.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``. With ``--trace 0`` the last line of standard output is a JSON
object holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a separate traced run. The exit code is 0 only when
every output check passed. Working files go under ``.bench_work/`` and are
removed on exit.
"""

import os

# Before numpy first loads: `rseg --threads` sets these too, but only takes
# full effect at process start.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def import_package():
    if not (SRC / "rseg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rseg package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import rseg

    if Path(rseg.__file__).resolve().parent != SRC / "rseg":
        sys.exit(f"perfbench: imported rseg from {rseg.__file__}, not from {SRC}")


def environment() -> str:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    cpus = len(os.sched_getaffinity(0))
    return (f"nproc={cpus} cpu_count={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas.get('name')}-{blas.get('version')} "
            f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")


def measure(workload, seconds, traced_section=None):
    """Repeat whole cycles of rounds until the next cycle would overrun `seconds`.

    With `traced_section`, each round runs twice, untraced then inside the
    tracer's section; returns the (untraced, traced) wall seconds.
    """
    start = time.perf_counter()
    rounds = 0
    plain = traced = 0.0
    cycle_start = start
    while True:
        plain += workload.round(rounds)
        if traced_section is not None:
            traced += workload.round(rounds, traced_section)
        rounds += 1
        if rounds % workload.cycle:
            continue
        now = time.perf_counter()
        last_cycle = now - cycle_start
        cycle_start = now
        if rounds >= workload.min_rounds and now - start + last_cycle > seconds:
            return plain, traced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_package()
    from rseg.data import derive_seed
    from tracer import Tracer, gemm_reference_gflops
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        workload = WORKLOADS[args.workload]()
        # Set-up writes the inputs and runs a first request, whose outputs
        # are checked but not sampled. Phantom generation time depends on
        # the phantoms, so each set-up draws its inputs from its own seed,
        # derived from --seed; the last set-up's inputs are measured.
        setup_s = []
        for i in range(SETUP_REPEATS):
            target = work / f"setup{i}"
            target.mkdir()
            t0 = time.perf_counter()
            workload.setup(str(target), derive_seed(args.seed, i))
            workload.round(0)
            setup_s.append(time.perf_counter() - t0)
            if i + 1 < SETUP_REPEATS:
                shutil.rmtree(target)
        workload.restart()
        tracer = Tracer() if args.trace else None
        plain, traced = measure(workload, args.seconds,
                                tracer.section if tracer else None)
        workload.oracle_check()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    checks = workload.checks
    metrics = {}
    if tracer is None:
        metrics["setup_s"] = (statistics.median(setup_s), "s")
        metrics.update(workload.end_to_end())
        ref_ms = 1e3 * statistics.median(workload.reference.times)
        print(f"reference: median {ref_ms:.3f} ms of {len(workload.reference.times)} runs")
        for call, per_input in workload.samples.items():
            counts = [len(v) for v in per_input.values()]
            wall_ms = 1e3 * statistics.median(workload.wall[call])
            print(f"{call}: {sum(counts)} samples over {len(counts)} inputs, "
                  f"at least {min(counts)} each; median wall {wall_ms:.3f} ms")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                  "MB")
        metrics["ok_ratio"] = ((checks.attempted - checks.failed) / checks.attempted, "ratio")
    else:
        gemm = gemm_reference_gflops(tracer.gemm_shapes, args.seed)
        metrics = tracer.metrics(gemm)
        metrics["trace.overhead_ratio"] = (traced / plain, "ratio")

    for problem in checks.problems:
        print(f"check failed: {problem}")
    print(f"env: {environment()}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    correct = checks.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
