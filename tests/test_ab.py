"""tools/ab.py's sign test, its traced peak, its import of a second copy of the package,
its record of the phantom specs of perfbench's set-ups, its set-up rounds and its
evaluate rounds on those set-ups, and its exit on a revision git does not know."""

import importlib.util
import pathlib
import shutil
import subprocess
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


@pytest.mark.parametrize("workload", ["train-small", "train-wide", "infer-eval"])
def test_set_up_records_the_spec_of_every_phantom_it_wrote(ab, tmp_path, workload):
    from rseg import data

    _, specs = ab.set_up(workload, tmp_path / "inputs", 3)
    assert ab.perfbench().PhantomSpec is data.PhantomSpec  # the recorder is gone again
    written = sorted(p.read_bytes() for p in (tmp_path / "inputs").rglob("vol_*.mvf"))
    assert len(specs) == len(written) > 0
    made = []
    for i, spec in enumerate(specs):
        path = tmp_path / f"made_{i}.mvf"
        data.save_volume(data.generate_phantom(data.PhantomSpec(**spec))[0], path)
        made.append(path.read_bytes())
    assert sorted(made) == written


def forget_sides():
    for name in [m for m in sys.modules if m.split(".")[0] in ("rseg_base", "rseg_work")]:
        del sys.modules[name]


def test_setup_rounds_compare_the_phantom_bytes(ab, tmp_path, monkeypatch):
    monkeypatch.setattr(ab, "BUILD", tmp_path)
    package = pathlib.Path(rseg.__file__).parent
    # the same generator with a brighter decoy
    brighter = tmp_path / "brighter" / "rseg"
    shutil.copytree(package, brighter, ignore=shutil.ignore_patterns("__pycache__"))
    source = (brighter / "data.py").read_text()
    (brighter / "data.py").write_text(
        source.replace("DECOY_INTENSITY = 1400.0", "DECOY_INTENSITY = 1500.0"))

    try:
        for base, same in ((package, True), (brighter, False)):
            forget_sides()  # each compare imports both trees afresh
            report = ab.compare(base, package, "train-wide", 1, 3, setup=True)
            assert report["setup"] and report["same_outputs"] is same
            assert len(report["ratios"]) == 1 and report["base_ms"][0] > 0
            # one round is two requests of the set-up's 18 phantoms
            for side in ("base", "work"):
                assert report[f"{side}_ms_per_phantom"] == pytest.approx(
                    report[f"{side}_ms"][0] / 36, abs=1e-3)
    finally:
        forget_sides()


def test_evaluate_rounds_compare_the_report_bytes(ab, tmp_path, monkeypatch):
    monkeypatch.setattr(ab, "BUILD", tmp_path)
    package = pathlib.Path(rseg.__file__).parent
    # the same metrics with one decimal fewer in the report
    shorter = tmp_path / "shorter" / "rseg"
    shutil.copytree(package, shorter, ignore=shutil.ignore_patterns("__pycache__"))
    source = (shorter / "metrics.py").read_text()
    assert "{r.asd_mm:.6f}" in source
    (shorter / "metrics.py").write_text(source.replace("{r.asd_mm:.6f}", "{r.asd_mm:.5f}"))

    try:
        for base, same in ((package, True), (shorter, False)):
            forget_sides()
            report = ab.compare(base, package, "train-small", 1, 3, evaluate=True)
            assert report["evaluate"] and not report["setup"]
            assert "base_ms_per_phantom" not in report
            assert report["same_outputs"] is same
            assert len(report["ratios"]) == 1 and report["base_ms"][0] > 0
    finally:
        forget_sides()


def test_an_unknown_base_revision_is_one_line():
    proc = subprocess.run([sys.executable, str(AB), "--base", "no-such-rev", "--workload",
                           "train-small"], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "ab: unknown revision 'no-such-rev'\n")
