"""tools/conv_table.py times one layer shape with one sample and writes its row."""

import importlib.util
import json
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "conv_table.py"


def test_one_shape_one_sample(tmp_path):
    spec = importlib.util.spec_from_file_location("tools_conv_table", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    out = tmp_path / "table.json"
    tool.main(["--workload", "train-small", "--batch", "2", "--samples", "1",
               "--layer", "enc0.conv_b", "--json", str(out)])
    (row,) = json.loads(out.read_text(encoding="utf-8"))["rows"]
    assert (row["layer"], row["n"], row["cin"], row["cout"], row["stride"]) == ("enc0.conv_b", 2,
                                                                                 8, 8, 2)
    assert set(row["input_grad"]) == {"col2im", "phases_items", "phases_shift"}
    assert set(row["weight_grad"]) == {"items"}
    assert all(form["median_us"] > 0 for ps in ("forward", "input_grad", "weight_grad")
               for form in row[ps].values())
    # stride 2: the weight gradient one GEMM per item, the input gradient
    # by shifted GEMMs per stride phase
    assert row["picked"] == ["columns", "items", "shift"]
