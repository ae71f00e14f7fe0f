"""Koszul homology reports, representatives included, pinned to recorded files.

The CLI prints dimensions but never the representative cycles, so these
reports are compared in full: mode, table, dimensions, stabilized,
sliceable and the exact coefficients of every representative that
``homology_representatives`` gives.

    PYTHONPATH=src python tests/test_homology_golden.py

rewrites ``tests/golden/homology.json`` after an announced change of the
reports.
"""

import json
from pathlib import Path

import pytest

from critlocus import KoszulComplex, homology_representatives, koszul_homology, parse_polynomial

GOLDEN = Path(__file__).parent / "golden" / "homology.json"

# (variables, structure polynomials separated by ';' or a functional, bound)
HOMOLOGY_CORPUS = [
    ("x,y", "x^2+y^2", None),
    ("x,y", "x^3+y^3", None),
    ("x,y,z", "x^2+y^2+z^2", None),
    ("x,y", "x^4+y^3", None),
    ("x,y", "x^3+3*x^2*y+3*x*y^2+2*y^3", None),  # (x+y)^3 + y^3
    ("x,y", "1/3*x^3+7/2*y^2", None),
    ("x,y", "x^3+y^3+x*y", 5),
    ("x,y", "x^3/3+y^2/2+x*y/5", 4),
    ("x,y", "x^2*y", None),
    ("x,y,z", "x*y*z", 4),
    ("x,y", "y;x", None),
    ("x,y", "2/3*x^2-y;x*y^2", 6),
    ("x,y,z", "x^3+y^3+z^3+x*y*z/2+x*y", 3),
]


def complex_of(variables: str, text: str) -> KoszulComplex:
    names = variables.split(",")
    if ";" in text:
        gs = tuple(parse_polynomial(t, names) for t in text.split(";"))
        return KoszulComplex(len(names), gs, "one_form")
    f = parse_polynomial(text, names)
    return KoszulComplex(f.arity, tuple(f.partial(i) for i in range(f.arity)), "critical_locus")


def _element(element) -> list:
    return [
        [list(subset), [[list(m), str(c)] for m, c in sorted(poly.terms.items())]]
        for subset, poly in sorted(element.terms.items())
    ]


def report_data(variables: str, text: str, bound) -> dict:
    K = complex_of(variables, text)
    report = koszul_homology(K, bound)
    reps = homology_representatives(K, report)
    return {
        "input": [variables, text, bound],
        "mode": report.mode,
        "bound": report.bound,
        "table": {str(k): list(v) for k, v in sorted(report.table.items())},
        "dimensions": None if report.dimensions is None
        else {str(k): v for k, v in sorted(report.dimensions.items())},
        "stabilized": report.stabilized,
        "sliceable": report.sliceable,
        "representatives": None if reps is None
        else {str(k): [_element(e) for e in v] for k, v in sorted(reps.items())},
    }


def write_golden() -> None:
    data = [report_data(*case) for case in HOMOLOGY_CORPUS]
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n")


@pytest.mark.parametrize("case", HOMOLOGY_CORPUS, ids=lambda c: f"{c[1]}@{c[2]}")
def test_report_matches_recorded(case):
    recorded = {tuple(e["input"]): e for e in json.loads(GOLDEN.read_text())}
    assert report_data(*case) == recorded[case]


if __name__ == "__main__":
    write_golden()
