import itertools
import math
import random
from fractions import Fraction as F

import pytest

from critlocus import (
    INFINITE,
    MultiPoly,
    SplittingData,
    SplittingError,
    build_crit,
    fat_point_signal,
    hessian,
    koszul_homology,
    lambda_equivalence_verdict,
    milnor_number,
    normal_hessian,
    phi_comparison,
    point_report,
    validate_splitting,
)
from critlocus.groebner import (
    buchberger,
    hilbert_function,
    is_unit_mod,
    krull_dimension,
    normal_form,
)
from critlocus.koszul import minimal_safe_bound
from critlocus.linalg import PolyMatrix
from critlocus.polynomials import GREVLEX

from conftest import P, random_poly
from oracles import identity, is_symmetric, mat_mul, staircase_dimension


def variables(n):
    return [MultiPoly.variable(i, n) for i in range(n)]


class TestBuildCrit:
    def test_morse_plane(self):
        x, y = variables(2)
        K = build_crit(x**2 + y**2)
        assert K.diff_images == (2 * x, 2 * y)
        assert K.origin_tag == "critical_locus"
        assert K.zero_dimensional and K.dimension == 0
        for g in K.diff_images:
            assert normal_form(g, K.basis).is_zero()

    def test_constant_functional_is_shifted_cotangent(self):
        K = build_crit(MultiPoly.constant(7, 2))
        assert all(g.is_zero() for g in K.diff_images)
        assert K.dimension == 2 and not K.zero_dimensional

    def test_degenerate_family(self):
        x, y = variables(2)
        K = build_crit(x**2 * y)
        assert K.diff_images == (2 * x * y, x**2)
        assert K.dimension == 1 and not K.zero_dimensional


class TestMilnorNumber:
    def test_morse(self):
        x = variables(1)[0]
        assert milnor_number(build_crit(x**2)) == 1

    def test_cusp_functional_fat_point(self):
        x = variables(1)[0]
        assert milnor_number(build_crit(x**3 * F(1, 3))) == 2

    def test_cusp_curve(self):
        x, y = variables(2)
        assert milnor_number(build_crit(x**3 - y**2)) == 2

    def test_non_isolated(self):
        x, y = variables(2)
        assert milnor_number(build_crit(x**2 * y)) == INFINITE

    def test_no_critical_points(self):
        x = variables(1)[0]
        assert milnor_number(build_crit(x)) == 0

    def test_matches_staircase_oracle(self, rng):
        for _ in range(15):
            n = rng.randint(1, 2)
            f = random_poly(rng, n, max_degree=3)
            crit = build_crit(f)
            mu = milnor_number(crit)
            oracle = staircase_dimension(crit.basis.leading_monomials(), n)
            assert (mu == INFINITE and oracle is None) or mu == oracle


class TestLambdaEquivalence:
    def test_morse_true(self):
        x, y = variables(2)
        v = lambda_equivalence_verdict(build_crit(x**2 + y**2))
        assert v.regular and v.cross_check == "confirms"
        assert all(d == 0 for d in v.positive_degree_dimensions.values())

    def test_degenerate_family_false_with_homology_witness(self):
        x, y = variables(2)
        v = lambda_equivalence_verdict(build_crit(x**2 * y))
        assert not v.regular
        assert v.positive_degree_dimensions[1] > 0
        assert v.cross_check == "confirms"

    def test_constant_false(self):
        v = lambda_equivalence_verdict(build_crit(MultiPoly.constant(3, 2)), bound=3)
        assert not v.regular

    def test_empty_locus_is_regular(self):
        x = variables(1)[0]
        assert lambda_equivalence_verdict(build_crit(x)).regular

    def test_agrees_with_milnor_finiteness(self, rng):
        for _ in range(12):
            n = rng.randint(1, 2)
            f = random_poly(rng, n, max_degree=3)
            crit = build_crit(f)
            mu = milnor_number(crit)
            verdict = lambda_equivalence_verdict(crit, bound=6)
            assert verdict.regular == (mu != INFINITE)


class TestHessian:
    def test_direct_second_partials(self):
        x, y = variables(2)
        h = hessian(build_crit(x**2 + 3 * x * y))
        assert h.evaluate([F(0), F(0)]) == [[F(2), F(3)], [F(3), F(0)]]

    def test_blocks_of_partial_functional(self):
        x, y = variables(2)
        h = hessian(build_crit(x**2))
        assert h.entry(0, 0) == MultiPoly.constant(2, 2)
        assert h.entry(0, 1).is_zero() and h.entry(1, 1).is_zero()

    def test_symmetry_random(self, rng):
        for _ in range(20):
            f = random_poly(rng, 3, max_degree=4)
            assert is_symmetric(hessian(build_crit(f)))

    def test_equals_jacobian_of_partials(self, rng):
        for _ in range(10):
            f = random_poly(rng, 2, max_degree=4)
            h = hessian(build_crit(f))
            for i in range(2):
                for j in range(2):
                    assert h.entry(i, j) == f.partial(i).partial(j)


class TestHessianIsJacobian:
    """The Hessian is the Jacobian of the Koszul complex, computed once and
    shared with the Hessian at a point."""

    def test_hessian_is_the_cached_jacobian(self, rng):
        for _ in range(10):
            f = random_poly(rng, 3, max_degree=4)
            crit = build_crit(f)
            assert hessian(crit).entries is crit.jacobian
            assert hessian(build_crit(f)) == hessian(crit)

    def test_cotangent_matrix_is_the_transposed_jacobian(self, rng):
        for _ in range(10):
            n = rng.randint(1, 3)
            point = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            f = random_poly(rng, n, max_degree=4)
            # subtract the linear form df(point) so that the point is critical
            grad = [f.partial(i).evaluate(point) for i in range(n)]
            for i, c in enumerate(grad):
                f = f - MultiPoly.variable(i, n) * c
            crit = build_crit(f)
            K = crit
            for i, g in enumerate(K.diff_images):
                assert K.jacobian[i] == tuple(g.partial(j) for j in range(n))
            at = PolyMatrix(K.jacobian).evaluate(point)
            expected = tuple(tuple(at[i][j] for i in range(n)) for j in range(n))
            r = point_report(crit, point)
            assert r.on_locus and r.hessian_at == expected


class TestPointReport:
    def test_morse_inverse(self):
        x = variables(1)[0]
        r = point_report(build_crit(x**2), (0,))
        assert r.on_locus and r.nondegenerate
        assert r.alpha_matrix == ((F(1, 2),),)

    def test_scaled_morse_inverse(self):
        x = variables(1)[0]
        r = point_report(build_crit(2 * x**2), (0,))
        assert r.alpha_matrix == ((F(1, 4),),)

    def test_degenerate_point_no_alpha(self):
        x = variables(1)[0]
        r = point_report(build_crit(x**3 * F(1, 3)), (0,))
        assert r.on_locus and not r.nondegenerate and r.alpha_matrix is None

    def test_off_locus(self):
        x, y = variables(2)
        r = point_report(build_crit(x**2 + y**2), (1, 2))
        assert not r.on_locus and not r.nondegenerate and r.alpha_matrix is None

    def test_alpha_times_hessian_is_identity(self, rng):
        for _ in range(15):
            n = rng.randint(1, 3)
            coeffs = [F(rng.choice([1, 2, 3, -1, -2])) for _ in range(n)]
            f = MultiPoly.zero(n)
            for i, c in enumerate(coeffs):
                f = f + MultiPoly.variable(i, n) ** 2 * c
            r = point_report(build_crit(f), tuple(F(0) for _ in range(n)))
            assert r.nondegenerate
            assert mat_mul(
                [list(row) for row in r.alpha_matrix],
                [list(row) for row in r.hessian_at],
            ) == identity(n)

    def test_omega_flat_is_verified(self):
        x = variables(1)[0]
        assert point_report(build_crit(x**2), (0,)).omega_flat_invertible


class TestFatPointSignal:
    def test_fires_for_fat_point(self):
        assert fat_point_signal(2, 1)

    def test_quiet_for_reduced_point(self):
        assert not fat_point_signal(1, 1)

    def test_quiet_for_infinite(self):
        assert not fat_point_signal(INFINITE, 3)


class TestValidateSplitting:
    def test_morse_normal_line(self):
        x = variables(2)[0]
        s = validate_splitting(build_crit(x**2), SplittingData.from_tangent([1], 2))
        assert s.validated and s.normal_vars == (0,)

    def test_wrong_subspace(self):
        x = variables(2)[0]
        with pytest.raises(SplittingError) as err:
            validate_splitting(build_crit(x**2), SplittingData.from_tangent([0], 2))
        assert err.value.kind == "not_tangent"

    def test_degenerate_family_blocks_vanish(self):
        x, y = variables(2)
        s = validate_splitting(build_crit(x**2 * y), SplittingData.from_tangent([1], 2))
        assert s.validated

    def test_dimension_guard(self):
        # strict locus of x^2 in 3 variables is a plane, not the claimed line
        x = variables(3)[0]
        with pytest.raises(SplittingError):
            validate_splitting(build_crit(x**2), SplittingData.from_tangent([1], 3))

    def test_q_orthogonality_failure(self):
        x, y = variables(2)
        # partials of x^2 + x*y^2: (2x + y^2, 2xy); tangent y fails block check
        with pytest.raises(SplittingError) as err:
            validate_splitting(build_crit(x**2 + y**2 * x), SplittingData.from_tangent([1], 2))
        assert err.value.kind == "not_tangent"


class TestNormalHessian:
    def test_unit_constant(self):
        x = variables(2)[0]
        crit = build_crit(x**2)
        s = validate_splitting(crit, SplittingData.from_tangent([1], 2))
        q, nondeg = normal_hessian(crit, s)
        assert q.entry(0, 0) == MultiPoly.constant(2, 2)
        assert nondeg

    def test_degenerate_weight(self):
        x, y = variables(2)
        crit = build_crit(x**2 * y)
        s = validate_splitting(crit, SplittingData.from_tangent([1], 2))
        q, nondeg = normal_hessian(crit, s)
        assert q.entry(0, 0) == 2 * y
        assert not nondeg

    def test_diagonal_pair(self):
        x, y, z = variables(3)
        f = x**2 + z**2
        crit = build_crit(f)
        s = validate_splitting(crit, SplittingData.from_tangent([1], 3))
        q, nondeg = normal_hessian(crit, s)
        assert q.det() == MultiPoly.constant(4, 3)
        assert nondeg


class TestPhiComparison:
    def test_morse_family_equal(self):
        x = variables(2)[0]
        crit = build_crit(x**2)
        s = validate_splitting(crit, SplittingData.from_tangent([1], 2))
        rep = phi_comparison(crit, s, bound=8)
        assert rep.verdict == "equal"
        assert rep.normal_hessian_nondegenerate
        assert rep.biconditional_holds
        assert rep.crit_table[0] == tuple([1] * 9)
        assert rep.crit_table[1] == tuple([1] * 9)

    def test_degenerate_family_unequal(self):
        x, y = variables(2)
        f = x**2 * y
        crit = build_crit(f)
        s = validate_splitting(crit, SplittingData.from_tangent([1], 2))
        rep = phi_comparison(crit, s, bound=8)
        assert rep.verdict == "unequal"
        assert not rep.normal_hessian_nondegenerate
        assert rep.biconditional_holds
        assert rep.mismatches

    def test_zero_functional_whole_space(self):
        f = MultiPoly.zero(2)
        crit = build_crit(f)
        s = validate_splitting(crit, SplittingData.from_tangent([0, 1], 2))
        rep = phi_comparison(crit, s, bound=5)
        assert rep.verdict == "equal" and rep.normal_hessian_nondegenerate

    def test_point_case_as_full_normal_instance(self):
        x, y = variables(2)
        f = x**2 + y**2
        crit = build_crit(f)
        s = validate_splitting(crit, SplittingData.from_tangent([], 2))
        rep = phi_comparison(crit, s, bound=5)
        assert rep.verdict == "equal" and rep.biconditional_holds


def curated_family_instances(count=20, seed=4821):
    """Monomial and quadratic-plus-degenerate functionals with coordinate
    splittings; each partial derivative is homogeneous so the comparison
    tables are honest graded dimensions."""
    rng = random.Random(seed)
    instances = []
    while len(instances) < count:
        shape = rng.choice(["plane_monomial", "two_normal", "diagonal"])
        if shape == "plane_monomial":
            # f = c * x^2 * y^e on (x, y), tangent {y}
            n, tangent = 2, [1]
            c = rng.choice([1, 2, 3])
            e = rng.randint(0, 2)
            x, y = variables(2)
            f = x**2 * y**e * c
        elif shape == "two_normal":
            # f = c1 x^2 y^e + c2 z^2 y^e on (x, y, z), tangent {y}
            n, tangent = 3, [1]
            c1, c2 = rng.choice([1, 2]), rng.choice([1, 3])
            e = rng.randint(0, 1)
            x, y, z = variables(3)
            f = x**2 * y**e * c1 + z**2 * y**e * c2
        else:
            # pure Morse point case
            n, tangent = 2, []
            c1, c2 = rng.choice([1, 2, 5]), rng.choice([1, 2, 3])
            x, y = variables(2)
            f = x**2 * c1 + y**2 * c2
        instances.append((f, tangent, n))
    return instances


class TestPhiBiconditionalProperty:
    def test_holds_on_curated_family(self):
        both_branches = set()
        for f, tangent, n in curated_family_instances():
            crit = build_crit(f)
            s = validate_splitting(crit, SplittingData.from_tangent(tangent, n))
            rep = phi_comparison(crit, s, bound=8)
            assert rep.verdict in ("equal", "unequal")
            assert rep.biconditional_holds, (f, tangent)
            both_branches.add(rep.verdict)
        assert both_branches == {"equal", "unequal"}


class TestDiagonalQuadratics:
    def test_morse_normal_form(self, rng):
        for _ in range(8):
            n = rng.randint(1, 3)
            f = MultiPoly.zero(n)
            for i in range(n):
                f = f + MultiPoly.variable(i, n) ** 2 * F(rng.choice([1, 2, 3, -2]))
            crit = build_crit(f)
            assert milnor_number(crit) == 1
            rep = koszul_homology(crit, bound=6)
            assert all(rep.dimensions[k] == 0 for k in range(1, n + 1))
            assert rep.dimensions[0] == 1


def _rational_poly(rng, n, terms, max_degree=4):
    d = {}
    for _ in range(terms):
        mono = tuple(rng.randint(0, max_degree) for _ in range(n))
        if sum(mono) <= max_degree:
            d[mono] = F(rng.randint(-5, 5), rng.randint(1, 4))
    return MultiPoly(d, n)


def _normal_quadratic(rng, n):
    """f = c + sum_{i <= j normal} q_ij(x_T) x_i x_j (+ a cubic normal term),
    built so that the coordinate subspace of a chosen tangent set is critical:
    each q_ij is a constant or a constant times a tangent monomial."""
    tangent = [i for i in range(n) if rng.random() < 0.5]
    normal = [i for i in range(n) if i not in tangent]
    f = MultiPoly.constant(F(rng.randint(-2, 2), rng.randint(1, 3)), n)
    for i, j in itertools.combinations_with_replacement(normal, 2):
        if i != j and rng.random() < 0.5:
            continue
        mono = [0] * n
        mono[i] += 1
        mono[j] += 1
        if tangent and rng.random() < 0.4:
            mono[rng.choice(tangent)] += rng.randint(1, 2)
        f = f + MultiPoly.monomial(tuple(mono), F(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3)))
    if normal and rng.random() < 0.3:
        f = f + MultiPoly.variable(rng.choice(normal), n) ** 3
    return f


def _reference_splitting(f, s, bound):
    """The splitting analyses through a Groebner basis of the ideal of the
    subspace: normal forms, a unit test and a Hilbert function.  Returns the
    error kind, or the normal block, its verdict and the model table."""
    n = f.arity
    gb = buchberger([MultiPoly.variable(j, n) for j in s.normal_vars], GREVLEX, arity=n)
    partials = [f.partial(i) for i in range(n)]
    if not all(normal_form(g, gb).is_zero() for g in partials):
        return "not_tangent"
    if krull_dimension(buchberger(partials, arity=n)) != len(s.tangent_vars):
        return "not_tangent"
    hess = [[g.partial(j) for j in range(n)] for g in partials]
    if not all(normal_form(hess[i][j], gb).is_zero() for i in s.tangent_vars for j in range(n)):
        return "not_q_orthogonal"
    block = PolyMatrix(
        tuple(tuple(normal_form(hess[i][j], gb) for j in s.normal_vars) for i in s.normal_vars)
    )
    det = normal_form(block.det(), gb) if s.normal_vars else MultiPoly.one(n)
    hilbert = [hilbert_function(gb, d) for d in range(bound + 1)]
    t = len(s.tangent_vars)
    model = {k: tuple(math.comb(t, k) * h for h in hilbert) for k in range(n + 1)}
    return block, is_unit_mod(det, gb), model


class TestSplittingByRestriction:
    """Restricting to the coordinate subspace gives the answers of the
    Groebner route on seeded random functionals and every splitting."""

    def test_matches_groebner_route(self):
        rng = random.Random(60221)
        pairs, kinds, verdicts = 0, set(), set()
        for count in range(90):
            n = rng.choice([2, 3])
            if count % 2:
                f = _rational_poly(rng, n, terms=rng.randint(2, 5))
            else:
                f = _normal_quadratic(rng, n)
            crit = build_crit(f)
            bound = minimal_safe_bound(crit) + 1
            for size in range(n + 1):
                for tangent in itertools.combinations(range(n), size):
                    s = SplittingData.from_tangent(tangent, n)
                    expected = _reference_splitting(f, s, bound)
                    pairs += 1
                    if isinstance(expected, str):
                        with pytest.raises(SplittingError) as err:
                            validate_splitting(crit, s)
                        assert err.value.kind == expected, (f, tangent)
                        kinds.add(expected)
                        continue
                    split = validate_splitting(crit, s)
                    block, nondeg, model = expected
                    assert normal_hessian(crit, split) == (block, nondeg), (f, tangent)
                    assert phi_comparison(crit, split, bound).model_table == model, (f, tangent)
                    verdicts.add(nondeg)
        assert pairs >= 300
        assert kinds == {"not_tangent"} and verdicts == {True, False}
