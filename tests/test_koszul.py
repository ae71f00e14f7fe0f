import json
import math
import random
from fractions import Fraction as F

import pytest

from critlocus import (
    ArityError,
    BoundTooSmall,
    CdgaElement,
    EngineError,
    FormElement,
    KoszulComplex,
    MultiPoly,
    de_rham_and_internal,
    default_homology_bound,
    homology_representatives,
    koszul_differential,
    koszul_homology,
    parse_polynomial,
)
from critlocus import cli, koszul
from critlocus.groebner import is_zero_dimensional
from critlocus.koszul import _slice_basis
from critlocus.polynomials import monomials_of_degree
from critlocus.linalg import KernelTracker

from conftest import random_poly
from oracles import koszul_homology_dim
from oracles import dense_rank, koszul_slice_basis, koszul_slice_matrix
from test_homology_golden import complex_of


def variables(n):
    return [MultiPoly.variable(i, n) for i in range(n)]


def crit(f):
    return KoszulComplex(f.arity, tuple(f.partial(i) for i in range(f.arity)), "critical_locus")


def _two_morse_points():
    x = variables(1)[0]
    return crit(x**2 + x**3)


def _one_form_with_h1():
    # the homology of its truncation at bound 3 has H_1 != 0; the complex has none
    x, y, z = variables(3)
    return KoszulComplex(3, (F(5, 2) * x * y, 5 * x**3 - 2, x * z), "one_form")


def _unit_ideal_with_zero_generator():
    # at bound 3 the image keeps 1 and the cycle xi_0 of degree 0: neither
    # bounds anything of degree <= 3, so a kernel combination is read
    x, y, _ = variables(3)
    return KoszulComplex(3, (MultiPoly.zero(3), -4 * x**2, x * y - 3), "one_form")


def random_complex(rng, n, max_degree=3):
    return KoszulComplex(n, tuple(random_poly(rng, n, max_degree) for _ in range(n)))


def random_single_term_form(rng, n):
    """One-term form element with well-defined parity."""
    dx = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
    dxi = tuple(sorted(rng.choices(range(n), k=rng.randint(0, 2))))
    xi = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
    poly = random_poly(rng, n, max_degree=4)
    if poly.is_zero():
        poly = MultiPoly.one(n)
    form = FormElement({(dx, dxi): CdgaElement({xi: poly}, n)}, n)
    return form, (len(xi) + len(dx)) % 2


def random_form(rng, n):
    total = FormElement.zero(n)
    for _ in range(rng.randint(1, 3)):
        term, _ = random_single_term_form(rng, n)
        total = total + term
    return total


class TestWedge:
    def test_odd_generators_anticommute(self):
        n = 2
        a = CdgaElement.xi((0,), n)
        b = CdgaElement.xi((1,), n)
        assert a * b == -(b * a)

    def test_square_of_odd_generator(self):
        a = CdgaElement.xi((0,), 2)
        assert (a * a).is_zero()

    def test_polynomial_coefficients_central(self):
        n = 2
        x, y = variables(n)
        a = CdgaElement.xi((0,), n, x)
        b = CdgaElement.xi((1,), n, y)
        assert a * b == CdgaElement.xi((0, 1), n, x * y)

    def test_sign_soundness_500_pairs(self):
        rng = random.Random(99)
        for _ in range(500):
            n = rng.randint(1, 4)
            ka = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
            kb = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
            a = CdgaElement({ka: random_poly(rng, n) or MultiPoly.one(n)}, n)
            b = CdgaElement({kb: random_poly(rng, n) or MultiPoly.one(n)}, n)
            sign = -1 if (len(ka) * len(kb)) % 2 else 1
            assert a * b == (b * a).scale(sign)

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            CdgaElement.unit(1) * CdgaElement.unit(2)


class TestKoszulDifferential:
    def test_sends_generators_to_partials(self):
        n = 2
        x, y = variables(n)
        K = crit(x**2 + y**2)
        for i in range(n):
            image = koszul_differential(K, CdgaElement.xi((i,), n))
            assert image == CdgaElement.from_poly((x**2 + y**2).partial(i))

    def test_leibniz_expansion(self):
        n = 2
        g1 = MultiPoly.variable(0, n) * 3
        g2 = MultiPoly.variable(1, n) ** 2
        K = KoszulComplex(n, (g1, g2))
        image = koszul_differential(K, CdgaElement.xi((0, 1), n))
        expected = CdgaElement.xi((1,), n, g1) - CdgaElement.xi((0,), n, g2)
        assert image == expected

    def test_squares_to_zero(self, rng):
        for _ in range(40):
            n = rng.randint(1, 3)
            K = random_complex(rng, n)
            xi = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
            e = CdgaElement({xi: random_poly(rng, n) or MultiPoly.one(n)}, n)
            assert koszul_differential(K, koszul_differential(K, e)).is_zero()

    def test_leibniz_rule(self, rng):
        for _ in range(40):
            n = rng.randint(1, 3)
            K = random_complex(rng, n)
            ka = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
            a = CdgaElement({ka: random_poly(rng, n) or MultiPoly.one(n)}, n)
            b_key = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
            b = CdgaElement({b_key: random_poly(rng, n) or MultiPoly.one(n)}, n)
            lhs = koszul_differential(K, a * b)
            sign = -1 if len(ka) % 2 else 1
            rhs = koszul_differential(K, a) * b + (a * koszul_differential(K, b)).scale(sign)
            assert lhs == rhs


class TestDeRhamAndInternal:
    def test_de_rham_of_polynomial_engine_normalization(self):
        # d and delta anticommute exactly; that normalization puts the sign
        # on d of the polynomial generators: d(x^2) = -2x dx
        n = 1
        x = variables(n)[0]
        K = crit(x**2)
        d, delta = de_rham_and_internal(FormElement.from_poly(x**2), K)
        assert d == FormElement.dx(0, n, -2 * x)
        assert delta.is_zero()

    def test_internal_on_dxi_is_hessian_row(self):
        n = 2
        x, y = variables(n)
        f = x**2 * y + 3 * x * y
        K = crit(f)
        for i in range(n):
            _, delta = de_rham_and_internal(FormElement.dxi(i, n), K)
            expected = FormElement.zero(n)
            for j in range(n):
                h = f.partial(i).partial(j)
                if not h.is_zero():
                    expected = expected + FormElement.dx(j, n, h)
            assert delta == expected

    def test_de_rham_of_tautological_form(self):
        n = 2
        K = crit(variables(n)[0] ** 2)
        lam = FormElement.zero(n)
        omega = FormElement.zero(n)
        for i in range(n):
            lam = lam + FormElement({((i,), ()): CdgaElement.xi((i,), n)}, n)
            omega = omega + FormElement({((i,), (i,)): CdgaElement.unit(n)}, n)
        d, _ = de_rham_and_internal(lam, K)
        assert d == omega

    def test_differential_identities_on_random_forms(self, rng):
        for _ in range(60):
            n = rng.randint(1, 3)
            K = random_complex(rng, n)
            w = random_form(rng, n)
            dw, deltaw = de_rham_and_internal(w, K)
            assert de_rham_and_internal(dw, K)[0].is_zero()
            assert de_rham_and_internal(deltaw, K)[1].is_zero()
            mixed = de_rham_and_internal(deltaw, K)[0] + de_rham_and_internal(dw, K)[1]
            assert mixed.is_zero()

    def test_graded_leibniz_for_both_differentials(self, rng):
        for _ in range(60):
            n = rng.randint(1, 3)
            K = random_complex(rng, n)
            a, pa = random_single_term_form(rng, n)
            b, _ = random_single_term_form(rng, n)
            da, dla = de_rham_and_internal(a, K)
            db, dlb = de_rham_and_internal(b, K)
            dab, dlab = de_rham_and_internal(a * b, K)
            sign = -1 if pa % 2 else 1
            assert dab == da * b + (a * db).scale(sign)
            assert dlab == dla * b + (a * dlb).scale(sign)


class TestHomology:
    def test_univariate_morse(self):
        x = variables(1)[0]
        rep = koszul_homology(crit(x**2))
        assert rep.mode == "finite"
        assert rep.dimensions == {0: 1, 1: 0}
        assert rep.stabilized

    def test_line_of_critical_points(self):
        n = 2
        x = variables(n)[0]
        rep = koszul_homology(crit(x**2), bound=8)
        assert rep.mode == "hilbert"
        # both H0 and H1 look like the polynomial ring on the tangent line
        assert rep.table[0] == tuple([1] * 9)
        assert rep.table[1] == tuple([1] * 9)
        assert rep.table[2] == tuple([0] * 9)

    def test_zero_differential_gives_free_pattern(self):
        n = 2
        K = KoszulComplex(n, tuple(MultiPoly.zero(n) for _ in range(n)), "critical_locus")
        rep = koszul_homology(K, bound=5)
        for k in range(n + 1):
            expected = tuple(math.comb(n, k) * (d + 1) for d in range(6))
            assert rep.table[k] == expected

    def test_brute_force_dense_oracle_agreement(self, rng):
        checked = 0
        while checked < 12:
            n = rng.randint(1, 3)
            K = random_complex(rng, n, max_degree=3)
            if not K.is_weight_graded():
                continue
            bound = 5
            rep = koszul_homology(K, bound=bound)
            gs_terms = [dict(g.terms) for g in K.diff_images]
            for k in range(n + 1):
                for d in range(bound + 1):
                    assert rep.table[k][d] == koszul_homology_dim(
                        gs_terms, n, k, d, K.weights()
                    )
            checked += 1

    def test_euler_characteristic_per_slice(self, rng):
        for _ in range(8):
            n = rng.randint(1, 3)
            K = random_complex(rng, n, max_degree=2)
            if not K.is_weight_graded():
                continue
            bound = 4
            rep = koszul_homology(K, bound=bound)
            for d in range(bound + 1):
                chain_euler = sum(
                    (-1) ** k * len(_slice_basis(n, k, d, K.weights()))
                    for k in range(n + 1)
                )
                homology_euler = sum(
                    (-1) ** k * rep.table[k][d] for k in range(n + 1)
                )
                assert chain_euler == homology_euler

    def test_representatives_are_independent_cycles(self):
        x = variables(1)[0]
        K = crit(x**3)  # g = 3x^2, finite with mu = 2
        rep = koszul_homology(K)
        assert rep.dimensions == {0: 2, 1: 0}
        reps = homology_representatives(K, rep)[0]
        assert len(reps) == 2
        for r in reps:
            assert koszul_differential(K, r).is_zero()

    def test_no_representatives_in_hilbert_mode(self):
        x, y = variables(2)
        K = crit(x**2 * y)
        rep = koszul_homology(K, 6)
        assert rep.mode == "hilbert"
        assert homology_representatives(K, rep) is None

    @pytest.mark.parametrize(
        "build, bound, dimensions, stabilized",
        [
            (_two_morse_points, 8, {0: 2, 1: 0}, True),
            (_one_form_with_h1, None, {0: 3, 1: 0, 2: 0, 3: 0}, True),
            (_unit_ideal_with_zero_generator, 3, {0: 1, 1: 1, 2: 0, 3: 0}, False),
        ],
        ids=["two-morse-points", "one-form-h1", "unit-ideal-at-bound-3"],
    )
    def test_filtered_path_on_inhomogeneous_input(self, build, bound, dimensions, stabilized):
        K = build()
        rep = koszul_homology(K, bound=bound)
        assert not rep.sliceable
        assert rep.mode == "finite"
        assert rep.dimensions == dimensions and rep.stabilized == stabilized
        for k, reps in homology_representatives(K, rep).items():
            assert len(reps) == dimensions[k]
            for r in reps:
                assert koszul_differential(K, r).is_zero()

    @pytest.mark.parametrize("f, mode", [("x^3+y^3", "finite"), ("x^2*y", "hilbert")])
    def test_no_kernel_combinations_unless_read(self, f, mode, monkeypatch):
        inserts = []
        original = KernelTracker.insert

        def counted(self, vector):
            inserts.append(vector)
            return original(self, vector)

        monkeypatch.setattr(KernelTracker, "insert", counted)
        rep = koszul_homology(crit(parse_polynomial(f, ["x", "y"])))
        assert rep.mode == mode and rep.sliceable
        assert inserts == []

    def test_bound_too_small_reports_minimal(self):
        x, y = variables(2)
        K = crit(x**3 + y**3)
        with pytest.raises(BoundTooSmall) as err:
            koszul_homology(K, bound=1)
        assert err.value.minimal == 2


def sheared(n, degree, shear):
    """sum_i l_i^degree for the linear forms l_i = x_i + shear * x_{i+1}."""
    xs = variables(n)
    f = MultiPoly.zero(n)
    for i in range(n):
        l = xs[i] + xs[i + 1] * shear if i + 1 < n else xs[i]
        f = f + l**degree
    return f


class TestRepresentativesModuloBoundaries:
    """Representatives are independent modulo the boundaries, so there is
    one per dimension, on graded inputs in sheared coordinates too."""

    CASES = [(2, 3, 1), (2, 3, F(-1, 2)), (2, 4, 2), (3, 3, 1), (3, 2, 3)]

    @pytest.mark.parametrize("n,degree,shear", CASES)
    def test_one_representative_per_dimension(self, n, degree, shear):
        K = crit(sheared(n, degree, shear))
        rep = koszul_homology(K)
        assert rep.mode == "finite" and rep.sliceable
        representatives = homology_representatives(K, rep)
        for k in range(n + 1):
            assert len(representatives[k]) == rep.dimensions[k]
        gs_terms = [dict(g.terms) for g in K.diff_images]
        weights = K.weights()
        by_degree = {}
        for r in representatives[0]:
            poly = r.terms[()]
            assert poly.is_homogeneous()
            by_degree.setdefault(poly.total_degree(), []).append(poly)
        for d, polys in by_degree.items():
            basis = koszul_slice_basis(n, 0, d, weights)
            boundary, ncols = koszul_slice_matrix(gs_terms, n, 1, d, weights)
            columns = [[row[j] for row in boundary] for j in range(ncols)]
            columns += [[p.terms.get(mono, F(0)) for _, mono in basis] for p in polys]
            assert dense_rank(columns) == dense_rank(columns[:ncols]) + len(polys)


def random_graded_isolated(rng):
    """A homogeneous f in 2-3 variables whose partials cut out a point: a sum
    of powers of the sheared forms x_i + c*x_{i+1} (c = 0: unsheared), or a
    random form of the same degree when its Jacobian ideal is zero-dimensional.
    Cubics in 3 variables are sums of powers, whose homology at the bound
    2*n*deg = 18 takes a tenth of the time a dense cubic's does."""
    while True:
        n = rng.randint(2, 3)
        degree = rng.randint(2, 4 if n == 2 else 3)
        if (n, degree) == (3, 3) or rng.random() < 0.5:
            f = sheared(n, degree, rng.choice([0, 1, F(-1, 2), 2, F(-3, 2)]))
        else:
            f = MultiPoly(
                {m: F(rng.randint(-4, 4)) for m in monomials_of_degree(n, degree)}, n
            )
        K = crit(f)
        if not f.is_zero() and is_zero_dimensional(K.basis):
            return K, degree


class TestGradedDefaultBound:
    """A graded finite complex resolves R/J, so the default bound
    sum(w_i - 1) + max w certifies the same report as the bound 2*n*deg."""

    def test_same_report_as_at_bound_2nd(self, rng):
        for _ in range(10):
            K, degree = random_graded_isolated(rng)
            n = K.arity
            mu = (degree - 1) ** n
            bound = default_homology_bound(K)
            assert bound == max(degree - 1, n * (degree - 2) + degree - 1)
            rep = koszul_homology(K)
            assert rep.bound == bound and rep.sliceable and rep.stabilized
            assert rep.dimensions == {k: mu if k == 0 else 0 for k in range(n + 1)}
            wide = koszul_homology(K, 2 * n * degree)
            assert wide.dimensions == rep.dimensions and wide.stabilized
            assert homology_representatives(K, wide) == homology_representatives(K, rep)

    def test_unit_ideal_and_hilbert_mode(self):
        x, y = variables(2)
        assert default_homology_bound(crit(variables(1)[0])) == 0  # f = x: weights (0,)
        assert default_homology_bound(crit(x**2 * y)) == 2 * 2 * 3  # not isolated


class TestHilbertSeriesRoute:
    """The H_0 row, the Hilbert series of R/J and the staircase must agree."""

    @staticmethod
    def corrupt_h0(monkeypatch):
        real = koszul._filtered_homology

        def corrupted(*args):
            table, reps = real(*args)
            table[0][0] += 1
            return table, reps

        monkeypatch.setattr(koszul, "_filtered_homology", corrupted)

    @pytest.mark.parametrize("bound", [None, 7])
    def test_corrupted_h0_row_raises(self, bound, monkeypatch):
        self.corrupt_h0(monkeypatch)
        x, y = variables(2)
        with pytest.raises(EngineError, match="Hilbert series"):
            koszul_homology(crit(x**3 + y**3), bound)

    def test_corrupted_h0_row_exits_4(self, monkeypatch, capsys):
        self.corrupt_h0(monkeypatch)
        assert cli.main(["analyze", "--vars", "x,y", "--f", "x^3+y^3"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal cross-check failed: ")


class TestDepthRoute:
    """Route B: a graded report has no H_k above the locus dimension, and no
    homology at all on an empty locus (depth sensitivity)."""

    @staticmethod
    def move_up(monkeypatch, k):
        """Move the first nonzero entry of row k - 1 up to row k (or put a 1
        in row k when row k - 1 is zero)."""
        real = koszul._filtered_homology

        def moved(*args):
            table, reps = real(*args)
            row = table[k - 1]
            d = next((d for d, v in enumerate(row) if v), 0)
            row[d] -= bool(row[d])
            table[k][d] += 1
            return table, reps

        monkeypatch.setattr(koszul, "_filtered_homology", moved)

    @pytest.mark.parametrize(
        "f, k, where",
        [(["x,y", "x^2*y"], 2, "has dimension 1"), (["x", "x"], 1, "is empty")],
        ids=["hilbert", "empty"],
    )
    def test_homology_above_the_dimension_exits_4(self, f, k, where, monkeypatch, capsys):
        self.move_up(monkeypatch, k)
        assert cli.main(["analyze", "--vars", f[0], "--f", f[1]]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: internal cross-check failed: H_{k} is nonzero but the locus {where}: "
            "depth sensitivity fails\n"
        )

    def test_raises_from_the_library(self, monkeypatch):
        self.move_up(monkeypatch, 2)
        x, y = variables(2)
        with pytest.raises(EngineError, match="depth sensitivity"):
            koszul_homology(crit(x**2 * y), 4)


UNGRADED = ["analyze", "--vars", "x,y", "--f", "-2*x^2*y^2+5*x^3+4*x*y^2+4*y^3"]


class TestImageHomology:
    """Ungraded finite complexes: the image of H(C^{<=top}) in H(C^{<=bound})
    gives H_0 = mu and H_k = 0 for k >= 1, certified at the default bound.
    The Milnor numbers are those of sympy's grevlex bases."""

    REPROS = [
        ("x,y", "-2*x^2*y^2+5*x^3+4*x*y^2+4*y^3", 7),
        ("x,y", "2/3*x^2-y;x*y^2", 5),
        ("x,y,z", "x^3+y^3+z^3+x*y*z/2+x*y", 8),
        ("x,y,z,w", "x^3+y^3+z^3+w^3+x*y*z*w", 43),
    ]

    @pytest.mark.parametrize("variables, text, mu", REPROS, ids=[c[1] for c in REPROS])
    def test_default_bound_reaches_the_milnor_number(self, variables, text, mu):
        K = complex_of(variables, text)
        rep = koszul_homology(K)
        assert not rep.sliceable and rep.stabilized
        assert rep.dimensions == {k: mu if k == 0 else 0 for k in range(K.arity + 1)}
        reps = homology_representatives(K, rep)
        assert [len(reps[k]) for k in range(K.arity + 1)] == [mu] + [0] * K.arity

    def test_explicit_bounds_certify_only_a_complete_image(self):
        K = complex_of("x,y,z,w", "x^3+y^3+z^3+w^3+x*y*z*w")
        short = koszul_homology(K, 6)
        assert short.dimensions[0] == 76 and not short.stabilized
        wide = koszul_homology(K, 7)
        assert wide.dimensions[0] == 43 and wide.stabilized

    def test_random_sweep_at_the_default_bound(self):
        rng = random.Random(1983)
        seen = {"zero generator": 0, "unit ideal": 0}
        checked = 0
        while checked < 200:
            n = rng.randint(1, 3)
            gs = tuple(
                MultiPoly.zero(n) if rng.random() < 0.1 else random_poly(rng, n) for _ in range(n)
            )
            K = KoszulComplex(n, gs, "one_form")
            if K.is_weight_graded() or not is_zero_dimensional(K.basis):
                continue
            mu = len(K.standard_monomials)
            seen["zero generator"] += any(g.is_zero() for g in gs)
            seen["unit ideal"] += mu == 0
            rep = koszul_homology(K)
            assert rep.stabilized, gs
            assert rep.dimensions == {k: mu if k == 0 else 0 for k in range(n + 1)}, gs
            checked += 1
        assert all(seen.values()), seen

    def test_ungraded_analyze_computes_homology_once(self, monkeypatch, capsys):
        bounds = []
        real = koszul._filtered_homology

        def counted(*args):
            bounds.append(args[2])
            return real(*args)

        monkeypatch.setattr(koszul, "_filtered_homology", counted)
        assert cli.main(UNGRADED) == 0
        assert bounds == [6]

    @staticmethod
    def shift(monkeypatch, k, delta):
        real = koszul._filtered_homology

        def shifted(*args):
            table, reps = real(*args)
            table[k][0] += delta
            return table, reps

        monkeypatch.setattr(koszul, "_filtered_homology", shifted)

    def test_h0_image_below_the_staircase_exits_4(self, monkeypatch, capsys):
        self.shift(monkeypatch, 0, -1)
        assert cli.main(UNGRADED) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal cross-check failed: H_0 image 6 ")

    def test_positive_image_leaves_the_cross_check_inconclusive(self, monkeypatch, capsys):
        self.shift(monkeypatch, 1, 1)
        assert cli.main(UNGRADED + ["--bound", "6", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        verdict = data["lambda_equivalence"]
        assert verdict["regular_sequence"] is True
        assert verdict["homology_cross_check"] == "inconclusive within bound"
        assert verdict["positive_degree_dimensions"]["1"] == 1
        assert data["homology"]["stabilized"] is False
