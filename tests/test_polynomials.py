from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from critlocus import (
    ArityError,
    GREVLEX,
    LEX,
    MultiPoly,
    ParseError,
    parse_polynomial,
)

from conftest import P


def vars2():
    return MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)


def test_ring_ops_binomial_identity():
    x, y = vars2()
    assert (x + y) * (x - y) == x**2 - y**2


def test_ring_ops_additive_identity():
    x, y = vars2()
    p = 3 * x**2 - y + 1
    assert p + MultiPoly.zero(2) == p


def test_ring_ops_inverse_scalars():
    x, _ = vars2()
    assert x.scale(Fraction(1, 2)).scale(2) == x


def test_ring_ops_arity_mismatch():
    with pytest.raises(ArityError):
        MultiPoly.variable(0, 2) + MultiPoly.variable(0, 3)


def test_no_zero_coefficients_stored():
    x, y = vars2()
    assert (x - x).terms == {}
    assert not (x * y - y * x)


def test_partial_derivative_power_rule():
    x = MultiPoly.variable(0, 1)
    assert (x**3 * Fraction(1, 3)).partial(0) == x**2


def test_partial_derivative_absent_variable():
    x, _ = vars2()
    assert (x**2).partial(1).is_zero()


def test_partial_derivative_product_of_powers():
    x, y = vars2()
    assert (x**2 * y).partial(0) == 2 * x * y


def test_partial_derivative_index_range():
    x, _ = vars2()
    with pytest.raises(IndexError):
        x.partial(2)


def test_evaluate_exact():
    x, y = vars2()
    p = x**2 * Fraction(3, 2) - y + 1
    assert p.evaluate([Fraction(2), Fraction(1, 2)]) == Fraction(13, 2)


def test_lex_order_on_spec_example():
    # x^2 > x*y > y^3 under lex with x > y
    assert LEX.key((2, 0)) > LEX.key((1, 1)) > LEX.key((0, 3))


def test_grevlex_breaks_ties_from_the_back():
    # deg-3 comparison: x^2 z < x y^2 in grevlex
    assert GREVLEX.key((2, 0, 1)) < GREVLEX.key((1, 2, 0))


def test_orders_have_one_minimal():
    monos = [(0, 0), (1, 0), (0, 1), (2, 1), (0, 3)]
    for order in (GREVLEX, LEX):
        assert min(monos, key=order.key) == (0, 0)


def test_order_compatible_with_multiplication(rng):
    for order in (GREVLEX, LEX):
        for _ in range(200):
            a = tuple(rng.randint(0, 4) for _ in range(3))
            b = tuple(rng.randint(0, 4) for _ in range(3))
            c = tuple(rng.randint(0, 4) for _ in range(3))
            if order.key(a) > order.key(b):
                am = tuple(x + y for x, y in zip(a, c))
                bm = tuple(x + y for x, y in zip(b, c))
                assert order.key(am) > order.key(bm)


def test_parse_spec_grammar():
    x, y = vars2()
    assert P("3/2*x^2*y - y + 1", "xy") == x**2 * y * Fraction(3, 2) - y + 1
    assert P("3x", "xy") == 3 * x
    assert P(" x ^ 2 y ", "xy") == x**2 * y
    assert P("-x + -2", "xy") == -x - 2
    assert P("x^3/3", "xy") == x**3 * Fraction(1, 3)


def test_parse_error_offsets():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + z^2", ["x", "y"])
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse_polynomial("x ? y", ["x", "y"])
    assert err.value.offset == 2
    with pytest.raises(ParseError) as err:
        parse_polynomial("1/0", ["x"])
    assert err.value.offset == 2
    with pytest.raises(ParseError):
        parse_polynomial("", ["x"])


coeffs = st.integers(-6, 6).map(Fraction)
monos2 = st.tuples(st.integers(0, 3), st.integers(0, 3))


@given(st.dictionaries(monos2, coeffs, max_size=5))
def test_to_string_parse_round_trip(terms):
    p = MultiPoly(terms, 2)
    assert parse_polynomial(p.to_string(["x", "y"]), ["x", "y"]) == p


@given(
    st.dictionaries(monos2, coeffs, max_size=4),
    st.dictionaries(monos2, coeffs, max_size=4),
    st.dictionaries(monos2, coeffs, max_size=4),
)
def test_ring_axioms(ta, tb, tc):
    a, b, c = (MultiPoly(t, 2) for t in (ta, tb, tc))
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)


@given(st.dictionaries(monos2, coeffs, max_size=4), st.dictionaries(monos2, coeffs, max_size=4))
def test_derivative_is_linear_and_leibniz(ta, tb):
    a, b = MultiPoly(ta, 2), MultiPoly(tb, 2)
    assert (a + b).partial(0) == a.partial(0) + b.partial(0)
    assert (a * b).partial(1) == a.partial(1) * b + a * b.partial(1)
