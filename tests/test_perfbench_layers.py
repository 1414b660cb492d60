"""The traced benchmark run (perfbench/spans.py) wraps library functions
named by (module, attribute path).  Each name must resolve the way the
tracer resolves it, so a move or rename fails here and not only in the
benchmark smoke run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS + spans.EXTRA


def test_every_traced_attribute_resolves_in_the_package():
    missing = []
    for name, module, path in _traced_names():
        owner = importlib.import_module(f"skewgalois.{module}")
        *cls, attr = path.split(".")
        if cls:
            owner = getattr(owner, cls[0], None)
        if owner is None or attr not in vars(owner):
            missing.append(name)
    assert missing == []
