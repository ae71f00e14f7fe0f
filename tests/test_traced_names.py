"""Every callable that the benchmark tracer wraps still exists, and the
command line reaches each traced critical-locus analysis and the traced
1-form path.

``perfbench/spans.py`` names the traced callables as ``(module, path)``
strings, so a rename in ``critlocus`` would only surface when a traced
benchmark run fails.  The tracer looks a method up in its class's own
``__dict__``, and this test resolves the names the same way.  A traced
name that no request passes through reads 0 in every traced run, so the
second test runs requests under the tracer and counts its spans.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from critlocus import cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


@pytest.mark.parametrize("module, path", _spans().TRACED)
def test_traced_name_resolves(module, path):
    owner = importlib.import_module(f"critlocus.{module}")
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    assert callable(vars(owner).get(attr)), f"critlocus.{module}.{path}"


def _traced_calls(capsys, *requests):
    """Calls per traced name while ``cli.main`` answers each request."""
    tracer = _spans().Tracer()
    tracer.install()
    try:
        for argv in requests:
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    return {name: row["calls"] for name, row in tracer.summary().items()}


def test_requests_reach_every_traced_critical_analysis(capsys):
    calls = _traced_calls(
        capsys,
        ["analyze", "--vars", "x,y", "--f", "x^2+y^2", "--point", "0,0"],
        ["family", "--vars", "x,y", "--f", "x^2*y", "--tangent", "y"],
    )
    critical = [f"critical.{path}" for module, path in _spans().TRACED if module == "critical"]
    assert len(critical) == 7
    assert [name for name in critical if not calls.get(name)] == []


def test_oneform_reaches_the_traced_symplectic_names(capsys):
    calls = _traced_calls(capsys, ["oneform", "--vars", "x,y", "--alpha", "y;x"])
    assert calls.get("symplectic.zero_locus_one_form") == 1
    assert calls.get("symplectic.omega_minus_one") == 1
