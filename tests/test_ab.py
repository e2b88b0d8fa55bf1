"""tools/ab.py's sign test, its traced peak and its import of a second copy of the package."""

import importlib.util
import pathlib
import shutil
import sys
import tracemalloc

import numpy as np
import pytest

import rseg
from rseg import autodiff

ROOT = pathlib.Path(__file__).resolve().parent.parent
AB = ROOT / "tools" / "ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("tools_ab", AB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("wins,n,p", [(10, 10, 2 / 1024), (0, 10, 2 / 1024), (5, 10, 1.0),
                                      (9, 10, 22 / 1024), (0, 0, 1.0)])
def test_sign_test_p(ab, wins, n, p):
    assert ab.sign_test_p(wins, n) == p


def test_traced_peak_is_the_most_a_request_held_at_once(ab):
    def request():
        a = np.ones(2 ** 18)  # 2 MB
        del a
        b = np.ones(2 ** 17)  # 1 MB, after the first is freed
        return b

    peak = ab.traced_peak_mb(request)
    assert 2.0 <= peak < 2.05
    assert not tracemalloc.is_tracing()
    # a failing request still stops tracing
    with pytest.raises(ZeroDivisionError):
        ab.traced_peak_mb(lambda: 1 / 0)
    assert not tracemalloc.is_tracing()


def test_copied_tree_imports_under_another_name(ab, tmp_path):
    copy = tmp_path / "rseg"
    shutil.copytree(pathlib.Path(rseg.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        other = ab.import_tree(copy, "rseg_ab_copy")
        other_autodiff = importlib.import_module("rseg_ab_copy.autodiff")
        assert other is not rseg and other_autodiff is not autodiff
        assert pathlib.Path(other_autodiff.__file__).parent == copy
        assert other_autodiff.Tensor is not autodiff.Tensor
        # its relative imports resolve inside the copy
        assert importlib.import_module("rseg_ab_copy.backbones").ad is other_autodiff
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "rseg_ab_copy"]:
            del sys.modules[name]


def test_workloads_are_perfbench_workloads(ab):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert ab.WORKLOADS == tuple(bench.WORKLOADS)
    for name, (args, dims) in ab.TRAIN.items():
        workload = bench.WORKLOADS[name]()
        assert args == [str(a) for a in workload.model_args], name
        assert dims == workload.dims, name
    assert ab.SEGMENT_SHAPES == bench.InferEvalWorkload.SHAPES
