"""Relations between engine runs on related inputs, through the command line.

Neither relation needs an oracle: each compares two reports of the engine.

- Z(df) = Crit(f): ``oneform`` on the partials of f reports the same
  Groebner basis, dimension and homology as ``analyze`` on f, and the form
  is closed by both routes.
- Permuting the variables of a 1-form together with its components is a
  change of coordinates, so closedness, the locus dimension and the
  homology section do not change, except that its weights are permuted.
"""

import json
import random
from itertools import permutations

from critlocus.cli import main

from conftest import random_poly

BOUND = 5


def report(argv, capsys):
    status = main([*argv, "--bound", str(BOUND), "--format", "json"])
    return status, json.loads(capsys.readouterr().out)


def test_oneform_of_the_partials_is_the_critical_locus(capsys):
    rng = random.Random(2903)
    for _ in range(20):
        n = rng.randint(1, 3)
        names = ["x", "y", "z"][:n]
        f = random_poly(rng, n, max_degree=4)
        vars_ = ["--vars", ",".join(names)]
        alpha = ";".join(f.partial(i).to_string(names) for i in range(n))
        status_f, crit = report(["analyze", *vars_, "--f", f.to_string(names)], capsys)
        status_a, zero = report(["oneform", *vars_, "--alpha", alpha], capsys)
        form = zero["one_form"]
        assert status_a == status_f
        assert form["zero_locus_groebner_basis"] == crit["strict_locus"]["groebner_basis"]
        assert form["zero_locus_dimension"] == crit["strict_locus"]["dimension"]
        assert form["homology"] == crit["homology"]
        assert form["closed"] is True
        assert form["pairing_internal_differential_vanishes"] is True


def test_permuting_the_variables_of_a_one_form(capsys):
    rng = random.Random(2904)
    for _ in range(14):
        n = rng.randint(2, 3)
        names = ["x", "y", "z"][:n]
        comps = [random_poly(rng, n, max_degree=2).to_string(names) for _ in range(n)]
        perm = rng.choice(list(permutations(range(n)))[1:])  # not the identity
        runs = []
        for order in (range(n), perm):
            argv = ["oneform", "--vars", ",".join(names[i] for i in order),
                    "--alpha", ";".join(comps[i] for i in order)]
            runs.append(report(argv, capsys))
        (status, before), (status_p, after) = runs
        assert status_p == status
        a, b = before["one_form"], after["one_form"]
        assert b["closed"] == a["closed"]
        assert b["zero_locus_dimension"] == a["zero_locus_dimension"]
        ha, hb = dict(a["homology"]), dict(b["homology"])
        assert sorted(hb.pop("weights", [])) == sorted(ha.pop("weights", []))
        assert hb == ha
