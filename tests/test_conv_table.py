"""tools/conv_table.py times the package's own conv ops, one layer shape per row."""

import importlib.util
import json
import pathlib

import numpy as np
import pytest

from rseg import autodiff as ad

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "conv_table.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("tools_conv_table", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_shape_one_sample(tool, tmp_path):
    out = tmp_path / "table.json"
    tool.main(["--workload", "train-small", "--batch", "2", "--samples", "1",
               "--layer", "enc0.conv_b", "--json", str(out)])
    (row,) = json.loads(out.read_text(encoding="utf-8"))["rows"]
    assert (row["layer"], row["n"], row["cin"], row["cout"], row["stride"]) == ("enc0.conv_b", 2,
                                                                                 8, 8, 2)
    assert set(row["input_grad"]) == {"col2im", "shift", "items"}
    assert set(row["weight_grad"]) == {"items"}
    assert all(form["median_us"] > 0 for ps in ("forward", "input_grad", "weight_grad")
               for form in row[ps].values())
    # stride 2: the weight gradient one GEMM per item, the input gradient
    # by shifted GEMMs per stride phase
    assert row["picked"] == ["columns", "items", "shift"]


def test_a_layer_that_matches_nothing_is_a_usage_error(tool, tmp_path, capsys):
    out = tmp_path / "table.json"
    with pytest.raises(SystemExit) as exc:
        tool.main(["--workload", "train-small", "--samples", "1", "--layer", "nope",
                   "--json", str(out)])
    assert exc.value.code == 2
    assert "--layer nope" in capsys.readouterr().err
    assert not out.exists()


def _public(layer, x, wt, g, triple, ps, monkeypatch):
    """What one pass of the call computes through the public ops under ``triple``:
    the output, or the leaf's gradient of sum(out * g)."""
    _, _, _, _, s, p, transpose, _, _ = layer
    monkeypatch.setattr(ad, "_conv_forms", lambda *shape: triple)
    xt, wtt = ad.Tensor(x, ps == "input_grad"), ad.Tensor(wt, ps == "weight_grad")
    out = ad.conv2d_transpose(xt, wtt) if transpose else ad.conv2d(xt, wtt, None, s, p)
    if ps == "forward":
        return out.data
    ad.backward(ad.reduce_sum(ad.mul(out, ad.Tensor(g))))
    return (xt if ps == "input_grad" else wtt).grad


# train-small's 1x1 head (pad 0), a stride-1 3x3 layer and a transposed conv
@pytest.mark.parametrize("name", ["head", "dec1.conv", "dec1.up"])
def test_every_timed_form_is_the_package_op(tool, name, monkeypatch):
    (layer,) = [l for l in tool.layers("train-small") if l[0] == name]
    arrays = tool.draw(2, layer, 5)
    calls = tool.timed_calls(2, layer, True, *arrays)
    own = tool.forms(2, layer)[0]
    timed = 0
    for i, ps in enumerate(("forward", "weight_grad", "input_grad")):
        for form, fn in calls[ps].items():
            got = fn()
            triple = own[:i] + [form] + own[i + 1 :]
            with monkeypatch.context() as patch:
                want = _public(layer, *arrays, triple, ps, patch)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (ps, form)
            timed += 1
    assert timed == {"head": 3, "dec1.conv": 7, "dec1.up": 3}[name]


def test_each_row_picks_timed_forms(tool):
    rows = tool.build_table(["train-small"], [2], 1, 1)
    assert len(rows) == len(tool.layers("train-small"))
    for row in rows:
        assert all(form in row[ps] for ps, form in zip(("forward", "weight_grad", "input_grad"),
                                                        row["picked"])), row
