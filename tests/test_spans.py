"""The benchmark tracer wraps functions by name; a renamed or deleted one
would break ``perfbench/run.py --trace 1`` only when it runs."""

import importlib
import importlib.util
from pathlib import Path

from cdgame import analysis

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    spans = _load_spans()
    for module_name, functions in spans.TARGETS.items():
        module = importlib.import_module(module_name)
        for name in functions:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"
    assert analysis.GROUPS and all(callable(fn) for fn in analysis.GROUPS.values())
