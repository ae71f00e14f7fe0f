import contextlib
import dataclasses
import io
import json
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from critlocus import cli, critical, koszul, parse_polynomial, symplectic
from critlocus.cli import (
    AnalysisRequest,
    InputError,
    main,
    request_from_args,
    run,
)
from critlocus.linalg import KernelTracker


def req(command, variables, **kwargs):
    return AnalysisRequest(command=command, variables=tuple(variables), **kwargs)


class TestRun:
    def test_analyze_morse_plane(self):
        report = run(
            req("analyze", ["x", "y"], functional="x^2+y^2", points=("0,0",), bound=8)
        )
        assert report.exit_status == 0
        data = report.data
        assert data["schema"] == 2
        assert data["strict_locus"]["milnor_number"] == 1
        assert data["lambda_equivalence"]["regular_sequence"] is True
        point = data["points"][0]
        assert point["nondegenerate"] is True
        assert point["alpha_matrix"] == [["1/2", "0"], ["0", "1/2"]]
        assert data["strict_locus"]["fat_point_signal"] is False

    def test_family_degenerate(self):
        report = run(req("family", ["x", "y"], functional="x^2*y", tangent=("y",), bound=8))
        assert report.exit_status == 0
        fam = report.data["family"]
        assert fam["normal_hessian"] == [["2*y"]]
        assert fam["normal_hessian_nondegenerate"] is False
        assert fam["phi_comparison"]["verdict"] == "unequal"
        assert fam["phi_comparison"]["biconditional_holds"] is True

    def test_oneform_non_closed(self):
        report = run(req("oneform", ["x", "y"], one_form="y;0", bound=4))
        assert report.exit_status == 0
        section = report.data["one_form"]
        assert section["closed"] is False
        assert section["lagrangian_flag"] is False
        assert section["zero_locus_groebner_basis"] == ["y"]
        assert section["pairing_internal_differential_vanishes"] is False

    def test_point_fat_point_signal(self):
        report = run(req("point", ["x"], functional="x^3/3", points=("0",)))
        assert report.exit_status == 0
        assert report.data["strict_locus"]["milnor_number"] == 2
        assert report.data["strict_locus"]["fat_point_signal"] is True
        point = report.data["points"][0]
        assert point["on_locus"] is True
        assert point["nondegenerate"] is False
        assert point["alpha_matrix"] is None

    def test_milnor_infinite_serialized(self):
        report = run(req("analyze", ["x", "y"], functional="x^2*y", bound=6))
        assert report.data["strict_locus"]["milnor_number"] == "infinite"

    def test_unit_jacobian_dimension_empty(self):
        report = run(req("analyze", ["x"], functional="x", bound=4))
        assert report.data["strict_locus"]["dimension"] == "empty"
        assert report.data["strict_locus"]["milnor_number"] == 0


class TestDeterminism:
    def test_json_is_byte_stable(self):
        r = req(
            "analyze",
            ["x", "y"],
            functional="x^2+y^2",
            points=("0,0", "1,1"),
            bound=6,
            output_format="json",
        )
        assert run(r).to_json() == run(r).to_json()

    def test_round_trip_echo(self):
        for r in (
            req("analyze", ["x", "y"], functional="x^2+y^2", points=("0,0",), bound=6),
            req("oneform", ["x", "y"], one_form="y;x", bound=4, output_format="json"),
            req("family", ["x", "y"], functional="x^2", tangent=("y",), bound=8),
            req("point", ["x"], functional="x^3/3", points=("0", "1/2")),
        ):
            echo = run(r).data["request"]
            fields = {f.name: getattr(r, f.name) for f in dataclasses.fields(r)}
            fields["format"] = fields.pop("output_format")
            assert echo == {
                k: list(v) if isinstance(v, tuple) else v for k, v in fields.items()
            }


class TestArgumentParsing:
    def test_args_to_request(self):
        r = request_from_args(
            [
                "analyze",
                "--vars",
                "x,y",
                "--f",
                "x^2+y^2",
                "--point",
                "0,0",
                "--bound",
                "12",
                "--format",
                "json",
            ]
        )
        assert r == req(
            "analyze",
            ["x", "y"],
            functional="x^2+y^2",
            points=("0,0",),
            bound=12,
            output_format="json",
        )

    def test_main_json_output(self, capsys):
        status = main(
            ["analyze", "--vars", "x", "--f", "x^2", "--bound", "4", "--format", "json"]
        )
        out = capsys.readouterr().out
        assert status == 0
        data = json.loads(out)
        assert data["schema"] == 2 and data["strict_locus"]["milnor_number"] == 1


GOLDEN_CORPUS = [
    # (argv, expected exit status)
    (["analyze", "--vars", "x,y,z", "--f", "x^2+y^2+z^2", "--point", "0,0,0", "--bound", "6"], 0),
    (["analyze", "--vars", "x", "--f", "x^3/3", "--point", "0", "--bound", "6"], 0),
    (["analyze", "--vars", "x,y", "--f", "x^3 - y^2", "--bound", "6"], 0),
    (["family", "--vars", "x,y", "--f", "x^2", "--tangent", "y", "--bound", "8"], 0),
    (["family", "--vars", "x,y", "--f", "x^2*y", "--tangent", "y", "--bound", "8"], 0),
    (["oneform", "--vars", "x,y", "--alpha", "y;x", "--bound", "4"], 0),
    (["oneform", "--vars", "x,y", "--alpha", "y;0", "--bound", "4"], 0),
    (["point", "--vars", "x,y", "--f", "x^2+y^2", "--point", "1,1"], 0),
    (["analyze", "--vars", "x,y", "--f", "x^2 + w"], 2),
    (["family", "--vars", "x,y", "--f", "x^2", "--tangent", "x"], 2),
    (["point", "--vars", "x", "--f", "x^2", "--point", "0,0"], 2),
    (["analyze", "--vars", "x,y", "--f", "x^3+y^3", "--bound", "1"], 3),
    (["analyze", "--vars", "x,y", "--f", "x^3+y^3"], 0),  # pins the default bound
    # ungraded and isolated: H_0 = mu = 7 at the first bound, 6
    (["analyze", "--vars", "x,y", "--f", "-2*x^2*y^2+5*x^3+4*x*y^2+4*y^3"], 0),
]


class TestExitStatusContract:
    @pytest.mark.parametrize("argv,expected", GOLDEN_CORPUS)
    def test_golden_corpus(self, argv, expected, capsys):
        assert main(argv) == expected
        capsys.readouterr()

    def test_parse_error_reports_byte_offset(self, capsys):
        assert main(["analyze", "--vars", "x,y", "--f", "x^2 + w"]) == 2
        err = capsys.readouterr().err
        assert "byte 6" in err and "unknown variable" in err

    def test_splitting_error_surfaced_verbatim(self, capsys):
        assert main(["family", "--vars", "x,y", "--f", "x^2", "--tangent", "x"]) == 2
        err = capsys.readouterr().err
        assert "splitting not tangent to critical locus" in err

    def test_bound_too_small_reports_minimal(self, capsys):
        status = main(
            ["analyze", "--vars", "x,y", "--f", "x^3+y^3", "--bound", "1", "--format", "json"]
        )
        assert status == 3
        data = json.loads(capsys.readouterr().out)
        assert data["homology"]["error"] == "bound too small"
        assert data["homology"]["minimal_safe_bound"] == 2


class TestInputValidation:
    def test_missing_functional(self):
        with pytest.raises(InputError):
            run(req("analyze", ["x"]))

    def test_duplicate_variables(self):
        with pytest.raises(InputError):
            run(req("analyze", ["x", "x"], functional="x"))

    def test_bad_point_coordinate(self):
        with pytest.raises(InputError):
            run(req("point", ["x"], functional="x^2", points=("a",)))

    def test_oneform_component_count(self):
        with pytest.raises(InputError):
            run(req("oneform", ["x", "y"], one_form="x"))

    def test_unknown_tangent_name(self):
        with pytest.raises(InputError):
            run(req("family", ["x", "y"], functional="x^2", tangent=("q",)))

    @pytest.mark.parametrize(
        "variables, f, name", [("2,y", "y^2", "2"), ("a b,y", "y", "a b"), ("x,y^2", "x", "y^2")]
    )
    def test_name_outside_the_grammar_exits_2(self, variables, f, name, capsys):
        assert main(["analyze", "--vars", variables, "--f", f]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: invalid variable name {name!r}: ")


GOLDEN_DIR = Path(__file__).parent / "golden"


def golden_cases():
    """(argv, file stem) for every corpus command, in text and in json."""
    for i, (argv, _) in enumerate(GOLDEN_CORPUS):
        yield argv, f"{i:02d}-text"
        yield argv + ["--format", "json"], f"{i:02d}-json"


def write_golden() -> None:
    """Record stdout and exit status of every golden case under tests/golden/."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    index = []
    for argv, stem in golden_cases():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = main(argv)
        (GOLDEN_DIR / f"{stem}.out").write_text(out.getvalue())
        index.append({"argv": argv, "exit_status": status, "stdout": f"{stem}.out"})
    (GOLDEN_DIR / "index.json").write_text(json.dumps(index, indent=1) + "\n")


class TestGoldenOutput:
    """stdout and exit status are byte-identical to the recorded reports."""

    @pytest.mark.parametrize("argv,stem", list(golden_cases()))
    def test_matches_recorded_report(self, argv, stem, capsys):
        index = {e["stdout"]: e for e in json.loads((GOLDEN_DIR / "index.json").read_text())}
        entry = index[f"{stem}.out"]
        assert entry["argv"] == argv
        status = main(argv)
        assert capsys.readouterr().out == (GOLDEN_DIR / entry["stdout"]).read_text()
        assert status == entry["exit_status"]


class TestOptionValues:
    def test_functional_starting_with_minus(self, capsys):
        assert main(["analyze", "--vars", "x", "--f", "-3*x^4", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["request"]["functional"] == "-3*x^4"
        assert data["strict_locus"]["milnor_number"] == 3

    def test_point_starting_with_minus(self, capsys):
        argv = ["point", "--vars", "x,y", "--f", "x^2+y^2", "--point", "-1,0", "--format", "json"]
        assert main(argv) == 0
        point = json.loads(capsys.readouterr().out)["points"][0]
        assert point["point"] == ["-1", "0"]
        assert point["on_locus"] is False

    @pytest.mark.parametrize("f, verdict", [("x^2+y^2", "equal"), ("x^3+y^2", "unequal")])
    @pytest.mark.parametrize("tangent", [["--tangent="], ["--tangent", ""], ["--tangent", " , "]])
    def test_empty_tangent_set(self, f, verdict, tangent, capsys):
        argv = ["family", "--vars", "x,y", "--f", f, *tangent, "--format", "json"]
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["request"]["tangent"] == []
        assert data["family"]["tangent_variables"] == []
        assert data["family"]["phi_comparison"]["verdict"] == verdict
        assert data["family"]["phi_comparison"]["biconditional_holds"] is True


class TestComputeOnce:
    """One request builds one Koszul complex: one Groebner basis of the
    Jacobian ideal and one homology per bound.  It computes only what its report
    reads: no 2-form record outside ``oneform``, no representatives."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module, name in (
            (koszul, "buchberger"),
            (koszul, "koszul_homology"),
            (symplectic, "omega_minus_one"),
            (cli, "omega_minus_one"),
            (symplectic, "de_rham_and_internal"),
            (koszul, "_reduce_cycles"),
            (KernelTracker, "insert"),
        ):
            count(module, name)
        return counts

    def test_graded_analyze_with_point(self, calls):
        run(req("analyze", ["x", "y"], functional="x^2+y^2", points=("0,0",)))
        assert calls["buchberger"] == 1
        assert calls["koszul_homology"] == 1
        assert calls["omega_minus_one"] == 0
        assert calls["de_rham_and_internal"] == 0

    def test_point_with_three_points(self, calls):
        run(req("point", ["x", "y"], functional="x^3+y^3", points=("0,0", "1,1", "1/2,0")))
        assert calls["buchberger"] == 1
        assert calls["omega_minus_one"] == 0
        assert calls["de_rham_and_internal"] == 0

    def test_family(self, calls):
        run(req("family", ["x", "y"], functional="x^2*y", tangent=("y",), bound=8))
        assert calls["buchberger"] == 1
        assert calls["koszul_homology"] == 1
        assert calls["de_rham_and_internal"] == 0

    def test_oneform(self, calls):
        run(req("oneform", ["x", "y"], one_form="y;x"))
        assert calls["koszul_homology"] == 1
        assert calls["omega_minus_one"] == 1
        assert calls["de_rham_and_internal"] == 1  # delta(omega) only

    def test_homology_is_computed_once_per_bound(self, calls):
        K = critical.build_crit(parse_polynomial("x^2*y", ["x", "y"]))
        for bound in (None, 6, 8):
            assert K.homology(bound) is K.homology(bound)
        assert calls["koszul_homology"] == 3

    def test_dimension_is_read_from_the_complex(self, monkeypatch):
        monkeypatch.setattr(koszul.KoszulComplex, "dimension", property(lambda K: 5))
        analyze = run(req("analyze", ["x", "y"], functional="x^2+y^2")).data
        oneform = run(req("oneform", ["x", "y"], one_form="y;x")).data
        assert analyze["strict_locus"]["dimension"] == 5
        assert oneform["one_form"]["zero_locus_dimension"] == 5

    def test_analyze_builds_no_representatives(self, calls):
        report = run(req("analyze", ["x", "y"], functional="x^3+y^3"))
        assert report.data["homology"]["dimensions"]["0"] == 4
        assert calls["koszul_homology"] == 1
        assert calls["_reduce_cycles"] == 0
        assert calls["insert"] == 0


class TestOptionsCheckedFirst:
    """A request with a missing or unknown option exits 2 before any
    Groebner basis is computed."""

    @pytest.fixture
    def bases(self, monkeypatch):
        counts = Counter()
        original = koszul.buchberger

        def counted(*args, **kwargs):
            counts["buchberger"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(koszul, "buchberger", counted)
        return counts

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["point"], "subcommand 'point' requires at least one --point"),
            (["family"], "subcommand 'family' requires --tangent"),
            (["family", "--tangent", "q"], "unknown tangent variable 'q'"),
        ],
    )
    def test_missing_option(self, bases, capsys, argv, message):
        f = ["--vars", "x,y,z,w", "--f", "x^3+y^3+z^3+w^3+x*y*z*w"]
        assert main(argv[:1] + f + argv[1:]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert bases["buchberger"] == 0

    def test_unknown_subcommand(self, bases):
        with pytest.raises(InputError, match="unknown subcommand 'bogus'"):
            run(req("bogus", ["x", "y"], functional="x^2+y^2"))
        assert bases["buchberger"] == 0

    def test_parse_errors_come_first(self, bases, capsys):
        argv = ["point", "--vars", "x,y", "--f", "x^2+y^2", "--point", "1"]
        assert main(argv) == 2
        assert "has 1 coordinates, expected 2" in capsys.readouterr().err
        assert main(["family", "--vars", "x,y", "--f", "x^2+"]) == 2
        assert "cannot parse functional" in capsys.readouterr().err
        assert bases["buchberger"] == 0


class TestStaircaseOnce:
    def test_analyze_enumerates_standard_monomials_once(self, monkeypatch):
        from critlocus import groebner

        calls = Counter()
        original = groebner.quotient_basis

        def counted(gb):
            calls["quotient_basis"] += 1
            return original(gb)

        for module in (groebner, critical, koszul):
            monkeypatch.setattr(module, "quotient_basis", counted, raising=False)
        run(req("analyze", ["x", "y"], functional="x^3+y^3"))
        assert calls["quotient_basis"] == 1


class TestInternalError:
    """A failed internal cross-check exits with status 4, not a traceback."""

    def test_cross_check_failure_exits_4(self, monkeypatch, capsys):
        real = koszul.koszul_homology

        def contradicting(K, bound=None):
            report = real(K, bound)
            return dataclasses.replace(report, dimensions={**report.dimensions, 1: 1})

        monkeypatch.setattr(koszul, "koszul_homology", contradicting)
        assert main(["analyze", "--vars", "x,y", "--f", "x^2+y^2"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal cross-check failed: ")
        assert "positive-degree homology is nonzero" in captured.err

    @pytest.mark.parametrize("alpha", ["y;x", "y;0"])
    def test_closedness_routes_disagree_exits_4(self, alpha, monkeypatch, capsys):
        real = cli.omega_minus_one

        def flipped(arity, K):
            return not real(arity, K)

        monkeypatch.setattr(cli, "omega_minus_one", flipped)
        assert main(["oneform", "--vars", "x,y", "--alpha", alpha]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal cross-check failed: the curl ")


class TestParentheses:
    """The grammar has no parentheses; they fail as unexpected characters."""

    @pytest.mark.parametrize("text,offset,char", [("(x+y)^2", 0, "("), ("x^2 + y)", 7, ")")])
    def test_rejected_with_status_2(self, text, offset, char, capsys):
        assert main(["analyze", "--vars", "x,y", "--f", text]) == 2
        err = capsys.readouterr().err
        assert f"at byte {offset}: unexpected character {char!r}" in err


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="the interpreter converts integer strings of any length",
)
class TestLongNumbers:
    """A number longer than the interpreter converts is a parse error at its
    byte, for a functional and for a 1-form component.  (A long exponent is
    refused the same way, but an interpreter without the digit limit would
    read it and then enumerate its staircase.)  A report value longer than
    that is refused with exit 2 as well."""

    DIGITS = "9" * 5000

    @pytest.mark.parametrize(
        "text, offset", [(DIGITS + "*x", 0), ("x/" + DIGITS, 2)], ids=["coefficient", "denominator"]
    )
    @pytest.mark.parametrize("option", ["--f", "--alpha"])
    def test_exit_2_with_offset(self, text, offset, option, capsys):
        command = "oneform" if option == "--alpha" else "analyze"
        assert main([command, "--vars", "x", option, text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot parse ")
        assert f"at byte {offset}: number of 5000 digits is too long" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            # the Hessian 6*c*p at the point has 6001 digits
            ["point", "--vars", "x", "--f", "9" * 3000 + "*x^3", "--point", "9" * 3000],
            # the normal Hessian 2*c has 4301 digits
            ["family", "--vars", "x,t", "--f", "9" * 4300 + "*x^2", "--tangent", "t"],
        ],
        ids=["point", "family"],
    )
    def test_long_report_value_exits_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        limit = sys.get_int_max_str_digits()
        assert captured.out == ""
        assert captured.err == f"error: report value is too long: more than {limit} digits\n"


class TestParserReuse:
    def test_points_do_not_leak_between_calls(self, capsys):
        base = ["point", "--vars", "x,y", "--f", "x^2+y^2", "--format", "json"]
        echoed = []
        for points in (["0,0", "1,0"], ["0,1"], []):
            argv = base + [a for p in points for a in ("--point", p)]
            status = main(argv)
            data = json.loads(capsys.readouterr().out) if points else None
            echoed.append((status, data and data["request"]["points"]))
        assert echoed[0] == (0, ["0,0", "1,0"])
        assert echoed[1] == (0, ["0,1"])
        assert echoed[2] == (2, None)  # 'point' still requires a --point

    def test_parser_built_once(self):
        assert cli._build_parser() is cli._build_parser()


if __name__ == "__main__":
    write_golden()
