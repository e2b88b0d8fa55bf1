"""The benchmark tracer's targets exist, so ``perfbench/run.py --trace 1`` can install them."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_attribute_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{attr}" for module, attr, _ in tracer.SPANS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing, f"perfbench/tracer.py wraps names that do not exist: {missing}"
