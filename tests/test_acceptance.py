"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Expected values marked as derived were computed with the independent
oracles in oracles.py (dense slice ranks, staircase enumeration) or by
hand (S-polynomial reduction) and are frozen here.
"""

import functools
import math
import random
from fractions import Fraction as F

from critlocus import (
    CdgaElement,
    FormElement,
    GroebnerBasis,
    INFINITE,
    KoszulComplex,
    LEX,
    MultiPoly,
    SplittingData,
    build_crit,
    buchberger,
    de_rham_and_internal,
    fat_point_signal,
    hessian,
    koszul_homology,
    lambda_equivalence_verdict,
    milnor_number,
    normal_form,
    normal_hessian,
    omega_minus_one,
    one_form_closed,
    phi_comparison,
    point_report,
    validate_splitting,
    zero_locus_one_form,
)

from conftest import random_poly
from oracles import (
    dense_rank,
    differential_of,
    koszul_homology_dim,
    pullback_tautological,
    staircase_dimension,
)
from test_critical import curated_family_instances


def criterion(number, summary):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL: {summary}")
                raise
            print(f"criterion {number:2d} PASS: {summary}")

        return wrapper

    return decorate


def variables(n):
    return [MultiPoly.variable(i, n) for i in range(n)]


@criterion(1, "Morse functional: mu, regularity, homology, inverse Hessian")
def test_criterion_01_morse_case():
    n = 3
    x, y, z = variables(n)
    f = x**2 + y**2 + z**2
    crit = build_crit(f)
    assert milnor_number(crit) == 1
    assert lambda_equivalence_verdict(crit, bound=6).regular

    K = crit
    report = koszul_homology(K, bound=6)
    assert report.mode == "finite"
    assert report.dimensions == {0: 1, 1: 0, 2: 0, 3: 0}

    # independent oracles: staircase enumeration and dense slice ranks
    assert staircase_dimension(K.basis.leading_monomials(), n) == 1
    gs_terms = [dict(g.terms) for g in K.diff_images]
    for k in range(n + 1):
        oracle_total = sum(
            koszul_homology_dim(gs_terms, n, k, d, K.weights()) for d in range(7)
        )
        assert oracle_total == report.dimensions[k]

    r = point_report(crit, (0, 0, 0))
    assert r.on_locus and r.nondegenerate
    half = F(1, 2)
    assert r.alpha_matrix == tuple(
        tuple(half if i == j else F(0) for j in range(n)) for i in range(n)
    )


@criterion(2, "A2 functional x^3/3: mu = 2, fat-point signal, degenerate point")
def test_criterion_02_a2_case():
    x = variables(1)[0]
    crit = build_crit(x**3 * F(1, 3))
    mu = milnor_number(crit)
    assert mu == 2
    r = point_report(crit, (0,))
    assert r.on_locus
    assert not r.nondegenerate
    assert r.alpha_matrix is None
    # the strict locus carries more structure than its single visible point
    assert fat_point_signal(mu, 1)


@criterion(3, "cusp x^3 - y^2: mu = 2 exactly")
def test_criterion_03_cusp():
    x, y = variables(2)
    crit = build_crit(x**3 - y**2)
    assert milnor_number(crit) == 2
    # staircase oracle on the Jacobian leading terms
    assert staircase_dimension(crit.basis.leading_monomials(), 2) == 2


@criterion(4, "family x^2 with tangent y: splitting, Q = (2), comparison equal")
def test_criterion_04_nondegenerate_family():
    x, y = variables(2)
    crit = build_crit(x**2)
    split = validate_splitting(crit, SplittingData.from_tangent([1], 2))
    assert split.validated
    q, nondeg = normal_hessian(crit, split)
    assert q.entry(0, 0) == MultiPoly.constant(2, 2)
    assert nondeg
    rep = phi_comparison(crit, split, bound=8)
    assert rep.verdict == "equal"
    line = tuple([1] * 9)  # graded dimensions of the free rank-one module
    assert rep.crit_table[0] == line and rep.crit_table[1] == line
    assert rep.model_table[0] == line and rep.model_table[1] == line


@criterion(5, "family x^2*y: Q = (2y) degenerate, comparison unequal, biconditional")
def test_criterion_05_degenerate_family_and_biconditional():
    x, y = variables(2)
    crit = build_crit(x**2 * y)
    split = validate_splitting(crit, SplittingData.from_tangent([1], 2))
    q, nondeg = normal_hessian(crit, split)
    assert q.entry(0, 0) == 2 * y
    assert not nondeg
    rep = phi_comparison(crit, split, bound=8)
    assert rep.verdict == "unequal"
    assert rep.biconditional_holds

    # biconditional across criteria 4-5 plus 20 randomized family instances
    outcomes = set()
    for g, tangent, n in curated_family_instances(count=20):
        crit = build_crit(g)
        s = validate_splitting(crit, SplittingData.from_tangent(tangent, n))
        r = phi_comparison(crit, s, bound=8)
        assert r.verdict in ("equal", "unequal")
        assert r.biconditional_holds
        outcomes.add(r.verdict)
    assert outcomes == {"equal", "unequal"}


@criterion(6, "constant functional, n = 2: free-module homology pattern C(2,k)")
def test_criterion_06_shifted_cotangent_of_plane():
    n = 2
    f = MultiPoly.constant(5, n)
    K = build_crit(f)
    assert all(g.is_zero() for g in K.diff_images)
    bound = 6
    report = koszul_homology(K, bound=bound)
    for k in range(n + 1):
        free_rank = math.comb(n, k)
        # degree-d slice of the free module: all monomials of degree d
        expected = tuple(free_rank * (d + 1) for d in range(bound + 1))
        assert report.table[k] == expected


@criterion(7, "tautological pullback is the identity on 100 random 1-forms")
def test_criterion_07_tautological_pullback():
    rng = random.Random(2110)
    for _ in range(100):
        n = rng.randint(1, 3)
        alpha = zero_locus_one_form([random_poly(rng, n, max_degree=3) for _ in range(n)])
        record = pullback_tautological(alpha)
        assert record.matches_input
        assert record.pulled_back == alpha


@criterion(8, "internal differential of dxi rows equals the Hessian pairing, 50 functionals")
def test_criterion_08_hessian_pairing_identity():
    rng = random.Random(4106)
    for _ in range(50):
        n = rng.randint(1, 3)
        f = random_poly(rng, n, max_degree=4)
        crit = build_crit(f)
        K, h = crit, hessian(crit)
        for i in range(n):
            _, delta = de_rham_and_internal(FormElement.dxi(i, n), K)
            expected = FormElement.zero(n)
            for j in range(n):
                entry = h.entry(i, j)
                if not entry.is_zero():
                    expected = expected + FormElement.dx(j, n, entry)
            assert delta == expected


@criterion(9, "differential graded algebra axioms: zero violations over 500 trials")
def test_criterion_09_cdga_axioms():
    rng = random.Random(31415)

    def single_term(n):
        dx = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
        dxi = tuple(sorted(rng.choices(range(n), k=rng.randint(0, 2))))
        xi = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
        poly = random_poly(rng, n, max_degree=3) or MultiPoly.one(n)
        parity = (len(xi) + len(dx)) % 2
        return FormElement({(dx, dxi): CdgaElement({xi: poly}, n)}, n), parity

    violations = 0
    for trial in range(500):
        n = rng.randint(1, 3)
        K = KoszulComplex(n, tuple(random_poly(rng, n, max_degree=3) for _ in range(n)))
        a, pa = single_term(n)
        b, pb = single_term(n)
        w = a + b
        dw, deltaw = de_rham_and_internal(w, K)
        if not de_rham_and_internal(dw, K)[0].is_zero():
            violations += 1  # d^2
        if not de_rham_and_internal(deltaw, K)[1].is_zero():
            violations += 1  # delta^2
        mixed = de_rham_and_internal(deltaw, K)[0] + de_rham_and_internal(dw, K)[1]
        if not mixed.is_zero():
            violations += 1  # d delta + delta d
        comm_sign = -1 if (pa * pb) % 2 else 1
        if a * b != (b * a).scale(comm_sign):
            violations += 1  # graded commutativity
        da, dla = de_rham_and_internal(a, K)
        db, dlb = de_rham_and_internal(b, K)
        sign = -1 if pa % 2 else 1
        if de_rham_and_internal(a * b, K)[0] != da * b + (a * db).scale(sign):
            violations += 1  # Leibniz for d
        if de_rham_and_internal(a * b, K)[1] != dla * b + (a * dlb).scale(sign):
            violations += 1  # Leibniz for delta
    assert violations == 0


@criterion(10, "Groebner engine: idempotence, membership, exact lex basis")
def test_criterion_10_groebner_engine():
    x, y = variables(2)
    gb = buchberger([x**2 + y**2, x * y], LEX)
    rendered = [g.to_string(["x", "y"], LEX) for g in gb.generators]
    assert rendered == ["x^2 + y^2", "x*y", "y^3"]

    rng = random.Random(808)
    for _ in range(20):
        arity = rng.randint(1, 3)
        gens = [random_poly(rng, arity, max_degree=3) for _ in range(rng.randint(1, 3))]
        gb = buchberger(gens, arity=arity)
        again = buchberger(list(gb.generators), gb.order, arity=arity)
        assert again.generators == gb.generators
        for g in gens:
            assert normal_form(g, gb).is_zero()


@criterion(11, "closedness gating: two independent detections agree on 200 forms")
def test_criterion_11_closedness_gating():
    rng = random.Random(1729)
    closed_seen = unclosed_seen = 0
    for _ in range(200):
        n = rng.randint(1, 3)
        if rng.random() < 0.35:  # mix in exact (hence closed) forms
            alpha = differential_of(random_poly(rng, n, max_degree=4))
        else:
            alpha = zero_locus_one_form([random_poly(rng, n, max_degree=3) for _ in range(n)])
        closed = one_form_closed(alpha)
        assert closed == omega_minus_one(alpha)
        if closed:
            closed_seen += 1
        else:
            unclosed_seen += 1
    assert closed_seen and unclosed_seen
