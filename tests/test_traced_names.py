"""Every callable that the benchmark tracer wraps still exists.

``perfbench/spans.py`` names the traced callables as ``(module, path)``
strings, so a rename in ``critlocus`` would only surface when a traced
benchmark run fails.  The tracer looks a method up in its class's own
``__dict__``, and this test resolves the names the same way.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


@pytest.mark.parametrize("module, path", _traced())
def test_traced_name_resolves(module, path):
    owner = importlib.import_module(f"critlocus.{module}")
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    assert callable(vars(owner).get(attr)), f"critlocus.{module}.{path}"
