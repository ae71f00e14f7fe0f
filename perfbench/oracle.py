"""Independent checks of a report against the answer planted in its request.

``check`` returns None when the report agrees, otherwise a short reason.
Nothing here calls the engine: Hessians come from ``polys`` and the
inverse-Hessian claim is checked by exact multiplication.
"""

from __future__ import annotations

import json
from fractions import Fraction

from polys import evaluate, hessian
from workloads import Request


def _points(data: dict, exp: dict) -> str | None:
    reports = data.get("points", [])
    if len(reports) != len(exp["points"]):
        return f"{len(reports)} point reports for {len(exp['points'])} points"
    n, d = exp["n"], exp["d"]
    second = hessian(exp["f"], n)
    for rep, pt, on in zip(reports, exp["points"], exp["on_locus"]):
        if [Fraction(c) for c in rep["point"]] != list(pt):
            return f"point {rep['point']} echoed for {pt}"
        if rep["on_locus"] is not on:
            return f"on_locus {rep['on_locus']} at {pt}, planted {on}"
        h = [[Fraction(c) for c in row] for row in rep["hessian"]]
        if h != [[evaluate(p, pt) for p in row] for row in second]:
            return f"hessian at {pt} differs from the planted functional's"
        nondeg = on and d == 2
        if rep["nondegenerate"] is not nondeg:
            return f"nondegenerate {rep['nondegenerate']} at {pt}, planted {nondeg}"
        if not nondeg:
            if rep["alpha_matrix"] is not None:
                return f"alpha_matrix reported at {pt} where none exists"
        else:
            alpha = [[Fraction(c) for c in row] for row in rep["alpha_matrix"]]
            product = [[sum(alpha[i][k] * h[k][j] for k in range(n)) for j in range(n)]
                       for i in range(n)]
            if product != [[int(i == j) for j in range(n)] for i in range(n)]:
                return f"alpha*H != I at {pt}"
        if rep["omega_flat_invertible"] is not True:
            return f"omega_flat_invertible false at {pt}"
    return None


def _strict_locus(data: dict, mu: int, with_points: bool) -> str | None:
    sl = data["strict_locus"]
    if sl["milnor_number"] != mu:
        return f"milnor_number {sl['milnor_number']}, planted {mu}"
    if sl["zero_dimensional"] is not True or sl["dimension"] != 0:
        return f"strict locus dimension {sl['dimension']}, planted 0"
    if with_points and sl.get("fat_point_signal") is not (mu > 1):
        return f"fat_point_signal {sl.get('fat_point_signal')} with mu {mu}"
    return None


def _regular(data: dict, n: int, mu: int) -> str | None:
    le = data["lambda_equivalence"]
    if le.get("regular_sequence") is not True or le.get("homology_cross_check") != "confirms":
        return f"lambda verdict {le}, planted regular"
    h = data["homology"]
    totals = {str(k): (mu if k == 0 else 0) for k in range(n + 1)}
    if h.get("mode") != "finite" or h.get("dimensions") != totals:
        return f"homology totals {h.get('dimensions')}, planted {totals}"
    return None


def _isolated(data: dict, exp: dict) -> str | None:
    return (
        _strict_locus(data, exp["mu"], bool(exp["points"]))
        or _regular(data, exp["n"], exp["mu"])
        or (None if data["homology"]["stabilized"] is True else "homology not stabilized")
        or _points(data, exp)
    )


def _point(data: dict, exp: dict) -> str | None:
    return _strict_locus(data, exp["mu"], True) or _points(data, exp)


def _ungraded(data: dict, exp: dict) -> str | None:
    return _strict_locus(data, exp["mu"], False) or _regular(data, exp["n"], exp["mu"])


def _family(data: dict, exp: dict) -> str | None:
    fam = data["family"]
    phi = fam["phi_comparison"]
    planted = exp["nondegenerate"]
    if fam["tangent_variables"] != exp["tangent"]:
        return f"tangent variables {fam['tangent_variables']}, sent {exp['tangent']}"
    if fam["normal_hessian_nondegenerate"] is not planted:
        return f"normal Hessian nondegenerate {fam['normal_hessian_nondegenerate']}, planted {planted}"
    if phi["verdict"] != ("equal" if planted else "unequal"):
        return f"phi verdict {phi['verdict']}, planted nondegenerate {planted}"
    if phi["biconditional_holds"] is not True:
        return "biconditional does not hold"
    return None


def _oneform(data: dict, exp: dict) -> str | None:
    sec = data["one_form"]
    for key in ("closed", "lagrangian_flag", "symplectic_claim",
                "pairing_internal_differential_vanishes"):
        if sec[key] is not exp["closed"]:
            return f"{key} {sec[key]}, planted closed {exp['closed']}"
    return None


_CHECKS = {
    "isolated": _isolated,
    "point": _point,
    "ungraded": _ungraded,
    "family": _family,
    "oneform": _oneform,
}


def check(request: Request, status: int, stdout: str, stderr: str) -> str | None:
    """None if the report agrees with the planted answer, else the reason."""
    if status != 0:
        return f"exit status {status}: {stderr.strip()[-200:]}"
    try:
        data = json.loads(stdout)
        return _CHECKS[request.kind](data, request.expect)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
