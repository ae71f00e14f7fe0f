import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from critlocus import (
    GREVLEX,
    LEX,
    GroebnerBasis,
    MultiPoly,
    NotZeroDimensional,
    buchberger,
    hilbert_function,
    is_unit_mod,
    is_zero_dimensional,
    krull_dimension,
    normal_form,
    quotient_basis,
)

from critlocus.groebner import _reduce

from conftest import P, random_poly
from oracles import reference_reduce, staircase_dimension, standard_monomial_count_in_degree


X = MultiPoly.variable(0, 2)
Y = MultiPoly.variable(1, 2)


def strings(gb, order=None):
    order = order or gb.order
    return [g.to_string(["x", "y"], order) for g in gb.generators]


class TestBuchberger:
    def test_lex_example_hand_reduction(self):
        # hand S-polynomial oracle: S(x^2+y^2, xy) = y*(x^2+y^2) - x*(xy) = y^3
        gb = buchberger([X**2 + Y**2, X * Y], LEX)
        assert strings(gb) == ["x^2 + y^2", "x*y", "y^3"]

    def test_already_reduced_singleton(self):
        gb = buchberger([X], LEX)
        assert strings(gb) == ["x"]

    def test_one_reduction_step(self):
        gb = buchberger([X - Y, Y], LEX)
        assert strings(gb) == ["x", "y"]

    def test_idempotence(self, rng):
        for _ in range(25):
            gens = [random_poly(rng, 2) for _ in range(rng.randint(1, 3))]
            gb = buchberger(gens, GREVLEX)
            again = buchberger(list(gb.generators), GREVLEX, arity=2)
            assert again.generators == gb.generators

    def test_membership_of_inputs(self, rng):
        for _ in range(25):
            gens = [random_poly(rng, 2) for _ in range(rng.randint(1, 3))]
            gb = buchberger(gens, GREVLEX)
            for g in gens:
                assert normal_form(g, gb).is_zero()

    def test_monic_and_interreduced(self, rng):
        for _ in range(15):
            gens = [random_poly(rng, 2) for _ in range(2)]
            gb = buchberger(gens, GREVLEX)
            lms = gb.leading_monomials()
            for i, g in enumerate(gb.generators):
                assert g.leading_coefficient(GREVLEX) == 1
                for mono in g.terms:
                    assert not any(
                        all(a <= b for a, b in zip(lm, mono))
                        for j, lm in enumerate(lms)
                        if j != i or mono != g.leading_monomial(GREVLEX)
                    ) or mono == g.leading_monomial(GREVLEX)

    def test_deterministic(self):
        gens = [X**2 * Y - 1, X * Y**2 - X]
        assert buchberger(gens, GREVLEX).generators == buchberger(gens, GREVLEX).generators


class TestNormalForm:
    def test_membership(self):
        assert normal_form(X**2, buchberger([X], LEX)).is_zero()

    def test_single_division_step(self):
        gb = buchberger([X**2 + Y**2], LEX)
        assert normal_form(X**2 + 1, gb) == 1 - Y**2

    def test_zero_ideal(self):
        p = X**2 - Y
        assert normal_form(p, GroebnerBasis((), LEX, 2)) == p

    def test_congruence_stability(self, rng):
        gb = buchberger([X**2 + Y**2, X * Y], GREVLEX)
        for _ in range(30):
            p = random_poly(rng, 2)
            q = random_poly(rng, 2)
            r = random_poly(rng, 2)
            direct = normal_form(p * q + r, gb)
            staged = normal_form(
                normal_form(p, gb) * normal_form(q, gb) + r, gb
            )
            assert direct == staged


class TestZeroDimensional:
    def test_bounded_staircase(self):
        assert is_zero_dimensional(buchberger([X**2, Y]))

    def test_unbounded_variable(self):
        assert not is_zero_dimensional(buchberger([X]))

    def test_zero_ideal(self):
        assert not is_zero_dimensional(GroebnerBasis((), GREVLEX, 2))


class TestQuotientBasis:
    def test_staircase_enumeration(self):
        assert quotient_basis(buchberger([X**2, Y])) == [(0, 0), (1, 0)]

    def test_maximal_ideal(self):
        assert quotient_basis(buchberger([X, Y])) == [(0, 0)]

    def test_univariate(self):
        x = MultiPoly.variable(0, 1)
        assert quotient_basis(buchberger([x**3])) == [(0,), (1,), (2,)]

    def test_requires_zero_dimensional(self):
        with pytest.raises(NotZeroDimensional):
            quotient_basis(buchberger([X]))

    def test_against_box_oracle(self, rng):
        for _ in range(20):
            gens = [random_poly(rng, 2, max_degree=2) for _ in range(3)]
            gb = buchberger(gens, GREVLEX)
            if not is_zero_dimensional(gb):
                continue
            expected = staircase_dimension(gb.leading_monomials(), 2)
            assert len(quotient_basis(gb)) == expected


class TestKrullDimension:
    def test_subset_scan(self):
        assert krull_dimension(buchberger([X**2, Y])) == 0

    def test_line(self):
        assert krull_dimension(buchberger([X])) == 1

    def test_full_space(self):
        assert krull_dimension(GroebnerBasis((), GREVLEX, 3)) == 3

    def test_unit_ideal_empty_sentinel(self):
        assert krull_dimension(buchberger([MultiPoly.one(2)])) is None

    def test_agrees_with_zero_dimensionality_on_200_random_ideals(self):
        rng = random.Random(555)
        agree = 0
        for _ in range(200):
            arity = rng.randint(1, 3)
            gens = [random_poly(rng, arity, max_degree=2, terms=3) for _ in range(rng.randint(1, arity + 1))]
            gb = buchberger(gens, GREVLEX, arity=arity)
            zero_dim = is_zero_dimensional(gb)
            dim = krull_dimension(gb)
            assert zero_dim == (dim == 0 or dim is None)
            agree += 1
        assert agree == 200


class TestIsUnitMod:
    def test_nonzero_constant(self):
        assert is_unit_mod(MultiPoly.constant(2, 2), buchberger([X]))

    def test_element_of_ideal(self):
        assert not is_unit_mod(X, buchberger([X]))

    def test_derived_example(self):
        # GB of {x, 2y} is {x, y}, not {1}
        assert not is_unit_mod(2 * Y, buchberger([X]))


class TestHilbertFunction:
    def test_line_quotient(self):
        assert hilbert_function(buchberger([X]), 3) == 1

    def test_zero_ideal_univariate(self):
        gb = GroebnerBasis((), GREVLEX, 1)
        assert all(hilbert_function(gb, d) == 1 for d in range(6))

    def test_unit_ideal(self):
        gb = buchberger([MultiPoly.one(2)])
        assert hilbert_function(gb, 0) == 0 and hilbert_function(gb, 3) == 0

    def test_against_enumeration_oracle(self, rng):
        for _ in range(10):
            gens = [random_poly(rng, 2, max_degree=2) for _ in range(2)]
            gb = buchberger(gens, GREVLEX, arity=2)
            for d in range(5):
                assert hilbert_function(gb, d) == standard_monomial_count_in_degree(
                    gb.leading_monomials(), 2, d
                )

    def test_quotient_basis_length_is_hilbert_sum(self, rng):
        for _ in range(15):
            gens = [random_poly(rng, 2, max_degree=2) for _ in range(3)]
            gb = buchberger(gens, GREVLEX)
            if not is_zero_dimensional(gb):
                continue
            qb = quotient_basis(gb)
            top = max((sum(m) for m in qb), default=-1)
            assert len(qb) == sum(hilbert_function(gb, d) for d in range(top + 1))
            assert hilbert_function(gb, top + 1 + max(0, top)) <= len(qb)


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_division_matches_reference(order):
    """In-place division against the MultiPoly-product reference: the same
    remainder, term for term and in the same order, on random dividends and
    random (not Groebner, not monic) divisor lists."""
    rng = random.Random(5)
    for _ in range(300):
        arity = rng.randint(1, 3)
        p = random_poly(rng, arity, max_degree=5, terms=8)
        gens = [random_poly(rng, arity, max_degree=3, terms=4) for _ in range(rng.randint(1, 4))]
        divisors = [(g.leading_monomial(order), g) for g in gens if g]
        got = _reduce(p, divisors, order)
        want = reference_reduce(p, divisors, order)
        assert list(got.terms.items()) == list(want.terms.items())
