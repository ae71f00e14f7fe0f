"""Command-line surface: parse requests, orchestrate analyses, emit reports.

Subcommands mirror the analyses: ``analyze`` (critical locus), ``oneform``
(zero locus of a 1-form), ``family`` (splitting analyses), ``point``
(single-point reports).  Output is deterministic text or JSON (schema 2);
exit status 0 on success, 2 on input errors, 3 on inconclusive verdicts,
4 when an internal cross-check fails.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from typing import Sequence

from . import __version__
from .critical import (
    INFINITE,
    EngineError,
    SplittingData,
    SplittingError,
    build_crit,
    fat_point_signal,
    lambda_equivalence_verdict,
    milnor_number,
    normal_hessian,
    phi_comparison,
    point_report,
    validate_splitting,
)
from .koszul import BoundTooSmall, KoszulComplex
from .polynomials import NAME, ArityError, GREVLEX, MultiPoly, ParseError, parse_polynomial
from .symplectic import omega_minus_one, one_form_closed, zero_locus_one_form


class InputError(ValueError):
    """Malformed request: parse failure, arity mismatch, invalid splitting."""


@dataclass(frozen=True)
class AnalysisRequest:
    command: str  # "analyze" | "oneform" | "family" | "point"
    variables: tuple[str, ...]
    functional: str | None = None
    one_form: str | None = None
    points: tuple[str, ...] = ()
    tangent: tuple[str, ...] | None = None
    bound: int | None = None
    output_format: str = "text"


@dataclass(frozen=True)
class AnalysisReport:
    data: dict
    exit_status: int

    def to_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines: list[str] = []
        _render(self.data, lines, 0)
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        return self.to_json() if fmt == "json" else self.to_text()


def _render(value, lines: list[str], depth: int, label: str | None = None) -> None:
    pad = "  " * depth
    if isinstance(value, dict):
        if label is not None:
            lines.append(f"{pad}{label}:")
        for key in sorted(value):
            _render(value[key], lines, depth + (label is not None), key)
    elif isinstance(value, list) and any(isinstance(v, dict) for v in value):
        if label is not None:
            lines.append(f"{pad}{label}:")
        for i, v in enumerate(value):
            _render(v, lines, depth + 1, f"[{i}]")
    elif isinstance(value, list):
        if label is not None:
            lines.append(f"{pad}{label}: [" + ", ".join(_scalar(v) for v in value) + "]")
        else:
            lines.append(pad + "[" + ", ".join(_scalar(v) for v in value) + "]")
    else:
        lines.append(f"{pad}{label}: {_scalar(value)}")


def _scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    if isinstance(v, list):
        return "[" + ", ".join(_scalar(x) for x in v) + "]"
    return str(v)


def _echo(request: AnalysisRequest) -> dict:
    return {
        "command": request.command,
        "variables": list(request.variables),
        "functional": request.functional,
        "one_form": request.one_form,
        "points": list(request.points),
        "tangent": list(request.tangent) if request.tangent is not None else None,
        "bound": request.bound,
        "format": request.output_format,
    }


def _too_long() -> InputError:
    """The refusal of a report value whose str() passes the interpreter's
    integer digit limit; that str() raises a plain ValueError."""
    return InputError(
        f"report value is too long: more than {sys.get_int_max_str_digits()} digits"
    )


def _frac(x: Fraction) -> str:
    try:
        return str(x)
    except ValueError:
        raise _too_long() from None


def _parse_point(text: str, arity: int) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != arity:
        raise InputError(
            f"point {text!r} has {len(parts)} coordinates, expected {arity}"
        )
    try:
        return tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"invalid rational coordinate in point {text!r}: {exc}") from None


def _variables(request: AnalysisRequest) -> list[str]:
    names = list(request.variables)
    if not names:
        raise InputError("at least one variable is required")
    if len(set(names)) != len(names):
        raise InputError("variable names must be unique")
    for name in names:
        if not re.fullmatch(NAME, name):
            raise InputError(f"invalid variable name {name!r}: a name matches {NAME}")
    return names


def _parse_functional(request: AnalysisRequest, names: list[str]) -> MultiPoly:
    if not request.functional:
        raise InputError(f"subcommand {request.command!r} requires --f")
    try:
        return parse_polynomial(request.functional, names)
    except ParseError as exc:
        raise InputError(f"cannot parse functional: {exc}") from None


def _poly_str(p: MultiPoly, names: Sequence[str]) -> str:
    try:
        return p.to_string(names, GREVLEX)
    except ArityError:
        raise
    except ValueError:
        raise _too_long() from None


def _strict_locus_section(K: KoszulComplex, mu: int | float, names) -> dict:
    return {
        "groebner_basis": [_poly_str(g, names) for g in K.basis.generators],
        "monomial_order": K.basis.order.kind,
        "dimension": "empty" if K.dimension is None else K.dimension,
        "zero_dimensional": K.zero_dimensional,
        "milnor_number": "infinite" if mu == INFINITE else mu,
    }


def _bound_error(exc: BoundTooSmall) -> dict:
    return {"error": "bound too small", "bound": exc.bound, "minimal_safe_bound": exc.minimal}


def _homology_section(K: KoszulComplex, bound) -> tuple[dict, bool]:
    """Table of ``K.homology(bound)`` as JSON-safe data; second value flags inconclusive."""
    try:
        rep = K.homology(bound)
    except BoundTooSmall as exc:
        return _bound_error(exc), True
    section = {
        "mode": rep.mode,
        "bound": rep.bound,
        "weights": list(rep.weights),
        "graded_dimensions": {str(k): list(rep.table[k]) for k in sorted(rep.table)},
        "sliceable": rep.sliceable,
    }
    if rep.mode == "finite":
        section["dimensions"] = {str(k): rep.dimensions[k] for k in sorted(rep.dimensions)}
        section["stabilized"] = rep.stabilized
    return section, False


def _point_section(K: KoszulComplex, pts) -> tuple[list[dict], int]:
    reports = []
    on_locus = set()
    for pt in pts:
        r = point_report(K, pt)
        if r.on_locus:
            on_locus.add(r.point)
        reports.append(
            {
                "point": [_frac(c) for c in r.point],
                "on_locus": r.on_locus,
                "hessian": [[_frac(c) for c in row] for row in r.hessian_at],
                "nondegenerate": r.nondegenerate,
                "alpha_matrix": None
                if r.alpha_matrix is None
                else [[_frac(c) for c in row] for row in r.alpha_matrix],
                "omega_flat_invertible": r.omega_flat_invertible,
            }
        )
    return reports, len(on_locus)


def _lambda_section(verdict) -> dict:
    return {
        "regular_sequence": verdict.regular,
        "criterion": verdict.criterion,
        "dimension": "empty" if verdict.dimension is None else verdict.dimension,
        "homology_cross_check": verdict.cross_check,
        "positive_degree_dimensions": {
            str(k): v for k, v in sorted(verdict.positive_degree_dimensions.items())
        },
        "homology_bound": verdict.homology_bound,
    }


# Each subcommand fills its sections of ``data`` and returns True when a
# verdict is inconclusive.
def _oneform(request: AnalysisRequest, names: list[str], data: dict) -> bool:
    if not request.one_form:
        raise InputError("subcommand 'oneform' requires --alpha")
    comps = []
    for chunk in request.one_form.split(";"):
        try:
            comps.append(parse_polynomial(chunk, names))
        except ParseError as exc:
            raise InputError(f"cannot parse one-form component: {exc}") from None
    if len(comps) != len(names):
        raise InputError(f"one-form has {len(comps)} components, expected {len(names)}")
    K = zero_locus_one_form(comps)
    closed = one_form_closed(K)
    internal_closed = omega_minus_one(K)
    if closed != internal_closed:
        raise EngineError(
            f"the curl (closed: {closed}) and the internal differential of the "
            f"pairing form (vanishes: {internal_closed}) disagree"
        )
    hsection, inconclusive = _homology_section(K, request.bound)
    data["one_form"] = {
        "components": [_poly_str(c, names) for c in comps],
        # a 1-form section is Lagrangian, and its isotropic structure
        # symplectic, exactly when the form is closed
        "closed": closed,
        "lagrangian_flag": closed,
        "symplectic_claim": closed,
        "pairing_internal_differential_vanishes": internal_closed,
        "zero_locus_groebner_basis": [_poly_str(g, names) for g in K.basis.generators],
        "zero_locus_dimension": "empty" if K.dimension is None else K.dimension,
        "homology": hsection,
    }
    return inconclusive


def _analyze(K: KoszulComplex, bound: int | None, data: dict) -> bool:
    inconclusive = False
    try:
        data["lambda_equivalence"] = _lambda_section(lambda_equivalence_verdict(K, bound))
    except BoundTooSmall as exc:
        data["lambda_equivalence"] = _bound_error(exc)
        inconclusive = True
    data["homology"], hflag = _homology_section(K, bound)
    return inconclusive or hflag


def _splitting(request: AnalysisRequest, names: list[str]) -> SplittingData:
    """The coordinate splitting named by --tangent, not yet validated."""
    if request.tangent is None:
        raise InputError("subcommand 'family' requires --tangent")
    index = {name: i for i, name in enumerate(names)}
    try:
        tangent = [index[t] for t in request.tangent]
    except KeyError as exc:
        raise InputError(f"unknown tangent variable {exc.args[0]!r}") from None
    return SplittingData.from_tangent(tangent, len(names))


def _family(K: KoszulComplex, split: SplittingData, bound: int | None, names, data: dict) -> bool:
    try:
        split = validate_splitting(K, split)
    except SplittingError as exc:
        raise InputError(str(exc)) from None
    q_matrix, nondeg = normal_hessian(K, split)
    phi = phi_comparison(K, split, bound)
    data["family"] = {
        "tangent_variables": [names[i] for i in split.tangent_vars],
        "normal_variables": [names[i] for i in split.normal_vars],
        "normal_hessian": [
            [_poly_str(q_matrix.entry(i, j), names) for j in range(q_matrix.ncols)]
            for i in range(q_matrix.nrows)
        ],
        "normal_hessian_nondegenerate": nondeg,
        "phi_comparison": {
            "bound": phi.bound,
            "verdict": phi.verdict,
            "crit_dimensions": {str(k): list(v) for k, v in sorted(phi.crit_table.items())},
            "model_dimensions": {str(k): list(v) for k, v in sorted(phi.model_table.items())},
            "mismatches": [list(m) for m in phi.mismatches],
            "biconditional_holds": phi.biconditional_holds,
        },
    }
    return phi.verdict == "inconclusive"


def run(request: AnalysisRequest) -> AnalysisReport:
    """Execute one analysis request and assemble the deterministic report."""
    names = _variables(request)
    data: dict = {
        "schema": 2,
        "engine_version": __version__,
        "request": _echo(request),
    }
    if request.command == "oneform":
        inconclusive = _oneform(request, names, data)
        return AnalysisReport(data, 3 if inconclusive else 0)

    f = _parse_functional(request, names)
    pts = [_parse_point(p, len(names)) for p in request.points]
    # every option is checked before Crit(f) is built
    if request.command not in ("analyze", "family", "point"):
        raise InputError(f"unknown subcommand {request.command!r}")
    if request.command == "point" and not pts:
        raise InputError("subcommand 'point' requires at least one --point")
    split = _splitting(request, names) if request.command == "family" else None
    K = build_crit(f)
    mu = milnor_number(K)
    data["strict_locus"] = _strict_locus_section(K, mu, names)
    if pts:
        data["points"], distinct_on_locus = _point_section(K, pts)
        data["strict_locus"]["fat_point_signal"] = fat_point_signal(mu, distinct_on_locus)
    inconclusive = False
    if request.command == "analyze":
        inconclusive = _analyze(K, request.bound, data)
    elif request.command == "family":
        inconclusive = _family(K, split, request.bound, names, data)
    return AnalysisReport(data, 3 if inconclusive else 0)


@cache  # one parser per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critlocus",
        description="Exact derived-critical-locus engine over the rationals",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "strict locus, regular-sequence verdict and homology of Crit(f)"),
        ("oneform", "derived zero locus of a polynomial 1-form"),
        ("family", "splitting validation, normal Hessian and the T*[-1]S comparison"),
        ("point", "report at user-supplied rational points"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--vars", required=True, help="comma-separated variable names")
        p.add_argument("--f", help="polynomial functional")
        p.add_argument("--alpha", help="1-form components separated by ';'")
        p.add_argument(
            "--point",
            action="append",
            default=[],
            help="rational point, e.g. '0,1/2' (repeatable)",
        )
        p.add_argument("--tangent", help="comma-separated tangent variable names")
        p.add_argument("--bound", type=int, help="homology degree bound override")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )
    return parser


_VALUE_OPTIONS = {"--vars", "--f", "--alpha", "--point", "--tangent", "--bound", "--format"}


def _join_values(argv: Sequence[str]) -> list[str]:
    """Write each value-taking option and its separate value as ``--opt=value``,
    so that argparse does not read a value such as ``-3*x^4`` as a flag."""
    joined: list[str] = []
    args = iter(argv)
    for arg in args:
        value = next(args, None) if arg in _VALUE_OPTIONS else None
        joined.append(arg if value is None else f"{arg}={value}")
    return joined


def request_from_args(argv: Sequence[str]) -> AnalysisRequest:
    ns = _build_parser().parse_args(_join_values(argv))
    return AnalysisRequest(
        command=ns.command,
        variables=tuple(v.strip() for v in ns.vars.split(",") if v.strip()),
        functional=ns.f,
        one_form=ns.alpha,
        points=tuple(ns.point),
        tangent=(
            tuple(t.strip() for t in ns.tangent.split(",") if t.strip())
            if ns.tangent is not None
            else None
        ),
        bound=ns.bound,
        output_format=ns.format,
    )


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        request = request_from_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report = run(request)
    except (InputError, ArityError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"error: internal cross-check failed: {exc}", file=sys.stderr)
        return 4
    sys.stdout.write(report.render(request.output_format))
    return report.exit_status


if __name__ == "__main__":
    raise SystemExit(main())
