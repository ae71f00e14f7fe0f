"""The oracle accepts the engine's reports and rejects corrupted ones.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import critlocus.cli as cli  # noqa: E402
from oracle import check  # noqa: E402
from run import call  # noqa: E402
from workloads import CYCLES, stream  # noqa: E402


def one_pass(workload: str):
    return list(islice(stream(workload, 7), len(CYCLES[workload])))


def request_labelled(workload: str, label: str):
    return next(r for r in one_pass(workload) if r.label == label)


@pytest.mark.parametrize("workload", sorted(CYCLES))
def test_accepts_every_report_of_a_pass(workload):
    for req in one_pass(workload):
        assert check(req, *call(cli, req.argv)) is None, req.label


def _bump_mu(d):
    d["strict_locus"]["milnor_number"] += 1


def _homology_in_degree_one(d):
    d["homology"]["dimensions"]["1"] = 1


def _unstabilized(d):
    d["homology"]["stabilized"] = False


def _alpha_entry(d):
    on = next(p for p in d["points"] if p["on_locus"])
    on["alpha_matrix"][0][0] = str(Fraction(on["alpha_matrix"][0][0]) + 1)


def _hessian_entry(d):
    d["points"][0]["hessian"][0][1] = "12345"


def _flip_on_locus(d):
    d["points"][0]["on_locus"] = not d["points"][0]["on_locus"]


def _fat_point(d):
    d["strict_locus"]["fat_point_signal"] = not d["strict_locus"]["fat_point_signal"]


def _flip_verdict(d):
    phi = d["family"]["phi_comparison"]
    phi["verdict"] = "unequal" if phi["verdict"] == "equal" else "equal"


def _flip_closed(d):
    d["one_form"]["closed"] = not d["one_form"]["closed"]


def _flip_pairing(d):
    sec = d["one_form"]
    sec["pairing_internal_differential_vanishes"] = not sec["pairing_internal_differential_vanishes"]


def _not_regular(d):
    d["lambda_equivalence"]["regular_sequence"] = False


CORRUPTIONS = [
    ("isolated-graded", "analyze n=3 d=3", _bump_mu),
    ("isolated-graded", "analyze n=3 d=2", _homology_in_degree_one),
    ("isolated-graded", "analyze n=2 d=5 sheared", _unstabilized),
    ("isolated-graded", "analyze n=3 d=2", _alpha_entry),
    ("locus-points", "point n=6 d=2", _alpha_entry),
    ("locus-points", "point n=5 d=3", _hessian_entry),
    ("locus-points", "point n=4 d=2", _flip_on_locus),
    ("locus-points", "point n=4 d=3", _fat_point),
    ("locus-points", "point n=6 d=3", _bump_mu),
    ("families-oneforms", "family T=1 N=2 const b=4", _flip_verdict),
    ("families-oneforms", "family T=1 N=1 factor b=4", _flip_verdict),
    ("families-oneforms", "oneform n=3 closed graded", _flip_closed),
    ("families-oneforms", "oneform n=2 curl ungraded", _flip_pairing),
    ("families-oneforms", "analyze n=2 ungraded", _not_regular),
    ("families-oneforms", "analyze n=2 ungraded", _bump_mu),
]


@pytest.mark.parametrize("workload,label,corrupt", CORRUPTIONS,
                         ids=[f"{lab}-{fn.__name__.strip('_')}" for _, lab, fn in CORRUPTIONS])
def test_rejects_a_corrupted_report(workload, label, corrupt):
    req = request_labelled(workload, label)
    status, out, err = call(cli, req.argv)
    assert check(req, status, out, err) is None
    data = json.loads(out)
    corrupt(data)
    assert check(req, status, json.dumps(data), err) is not None


def test_rejects_a_failed_exit_status():
    req = request_labelled("locus-points", "point n=4 d=3")
    status, out, err = call(cli, req.argv)
    assert check(req, 3, out, err) is not None
    assert check(req, 1, "", "Traceback (most recent call last):\n") is not None
