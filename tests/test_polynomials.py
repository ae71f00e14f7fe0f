import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from critlocus import (
    ArityError,
    GREVLEX,
    LEX,
    MultiPoly,
    ParseError,
    buchberger,
    normal_form,
    parse_polynomial,
)

from conftest import P
from oracles import reference_parse


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


def test_constant_hash_agrees_with_equality():
    assert MultiPoly.constant(3, 2) == 3
    assert hash(MultiPoly.constant(3, 2)) == hash(3)
    assert len({MultiPoly.constant(3, 2), 3}) == 1
    assert hash(MultiPoly.zero(2)) == hash(0)
    assert len({MultiPoly.zero(3), 0, Fraction(0)}) == 1
    half = Fraction(1, 2)
    assert {half: "half"}[MultiPoly.constant(half, 1)] == "half"


def test_parse_rejects_duplicate_names():
    with pytest.raises(ValueError, match="duplicate variable names"):
        parse_polynomial("x", ["x", "x"])
    with pytest.raises(ValueError, match="duplicate variable names"):
        parse_polynomial("y + x", ["x", "y", "x"])


# -- the parser against the reference parser of tests/oracles.py --------------

_NAMES = ["x", "y", "z"]
_SOUP = [
    "x", "y", "z", "w", "xy", "0", "1", "2", "3", "10", "x^0", "y^2", "z^3", "0*x",
    "/0", "/2", "/3", "^", "^2", "*", "+", "-", "/", " ", "  ", "?", "(", "1.5", "\t",
]


def _term_text(rng):
    factors = [rng.choice(["x", "y", "z", "x^0", "y^2", "z^3", "x^2"]) for _ in range(rng.randint(0, 3))]
    if not factors or rng.random() < 0.5:
        factors.insert(rng.randint(0, len(factors)), str(rng.randint(0, 4)))
    text = "".join(f + rng.choice(["*", "*", "*", " ", ""]) for f in factors[:-1]) + factors[-1]
    if rng.random() < 0.3:
        text += "/" + rng.choice("1223330")
    return text


def _fuzz_text(rng):
    if rng.random() < 0.5:
        return "".join(rng.choice(_SOUP) for _ in range(rng.randint(0, 8)))
    # terms that repeat with random signs, so that some sums cancel
    terms = [_term_text(rng) for _ in range(rng.randint(1, 3))]
    terms += rng.sample(terms, rng.randint(0, len(terms)))
    rng.shuffle(terms)
    signs = ["+", "-", " + ", " - ", "--", "+-"]
    lead = rng.choice(signs) if rng.random() < 0.3 else ""
    return lead + "".join(t + rng.choice(signs) for t in terms[:-1]) + terms[-1]


def _outcome(parse, text):
    try:
        p = parse(text, _NAMES)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)
    return p.arity, p.terms


def test_parser_matches_reference_on_fuzzed_text():
    rng = random.Random(11)
    texts = [_fuzz_text(rng) for _ in range(18000)]
    kinds = {"valid": 0, "error": 0, "zero": 0}
    for text in texts:
        got = _outcome(parse_polynomial, text)
        assert got == _outcome(reference_parse, text), text
        if got[0] is ParseError:
            kinds["error"] += 1
        else:
            kinds["zero" if not got[1] else "valid"] += 1
    # the corpus reaches every branch it is meant to
    assert min(kinds.values()) > 500, kinds
    for fragment in ("x^0", "0*x", "/0"):
        assert any(fragment in t for t in texts)


# -- every result is clean: what MultiPoly(terms, arity) would have built ------

def _assert_clean(p, arity):
    assert type(p) is MultiPoly and p.arity == arity
    for mono, coeff in p.terms.items():
        assert type(mono) is tuple and len(mono) == arity
        assert all(type(e) is int and e >= 0 for e in mono)
        assert type(coeff) is Fraction and coeff != 0
    assert MultiPoly(p.terms, p.arity) == p


small_coeffs = st.one_of(st.integers(-3, 3), st.fractions(max_denominator=4).filter(lambda c: abs(c) < 4))


@given(
    st.dictionaries(monos2, small_coeffs, max_size=4),
    st.dictionaries(monos2, small_coeffs, max_size=4),
    st.dictionaries(monos2, small_coeffs, max_size=3),
    st.sampled_from([0, 1, -2, Fraction(3, 4)]),
    st.integers(0, 3),
)
def test_every_operation_returns_clean_terms(ta, tb, tc, scalar, exponent):
    a, b, c = (MultiPoly(t, 2) for t in (ta, tb, tc))
    results = [
        a + b, a - b, a * b, a + scalar, scalar - a, a * scalar, scalar * a,
        -a, a.scale(scalar), a**exponent, a.partial(0), a.partial(1),
        parse_polynomial(a.to_string(["x", "y"]), ["x", "y"]),
    ]
    for order in (GREVLEX, LEX):
        if a:
            results.append(a.monic(order))
        results.append(normal_form(a, buchberger([b, c], order, arity=2)))
    for p in results:
        _assert_clean(p, 2)
