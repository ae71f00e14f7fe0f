"""Differential test of the Groebner layer against sympy.

Reduced Groebner bases are unique for an ideal and an order, so
``buchberger`` must return exactly sympy's monic reduced basis, in the same
(descending leading monomial) order.  ``milnor_number`` and
``hilbert_function`` are checked against brute-force counts of the monomials
below sympy's leading monomials.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from critlocus import (
    GREVLEX,
    INFINITE,
    LEX,
    MultiPoly,
    buchberger,
    build_crit,
    hilbert_function,
    milnor_number,
)

sympy = pytest.importorskip("sympy")

SYMBOLS = sympy.symbols("x0:3")
SYMPY_ORDER = {GREVLEX: "grevlex", LEX: "lex"}
CASES = 160


def rational_poly(rng: random.Random, arity: int, max_degree: int, terms: int) -> MultiPoly:
    d = {}
    for _ in range(terms):
        mono = tuple(rng.randint(0, max_degree) for _ in range(arity))
        if sum(mono) <= max_degree:
            d[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return MultiPoly(d, arity)


def to_sympy(p: MultiPoly):
    return sympy.Poly.from_dict(
        {m: sympy.Rational(c.numerator, c.denominator) for m, c in p.terms.items()},
        *SYMBOLS[: p.arity],
        domain=sympy.QQ,
    )


def from_sympy(q, arity: int) -> MultiPoly:
    return MultiPoly({m: Fraction(int(c.p), int(c.q)) for m, c in q.as_dict().items()}, arity)


def sympy_groebner(gens: list[MultiPoly], arity: int, order):
    return sympy.groebner(
        [to_sympy(g).as_expr() for g in gens],
        *SYMBOLS[:arity],
        order=SYMPY_ORDER[order],
        domain=sympy.QQ,
    ).polys


def sympy_basis(gens: list[MultiPoly], arity: int, order) -> list[MultiPoly]:
    return [from_sympy(q, arity) for q in sympy_groebner(gens, arity, order)]


def generator_sets():
    rng = random.Random(8128)
    cases = 0
    while cases < CASES:
        arity = rng.randint(1, 3)
        gens = [
            rational_poly(rng, arity, 3 if arity < 3 else 2, rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))
        ]
        gens = [g for g in gens if not g.is_zero()]
        if gens:
            cases += 1
            yield arity, gens


def below(leads: list[tuple[int, ...]], mono: tuple[int, ...]) -> bool:
    return not any(all(a <= b for a, b in zip(lead, mono)) for lead in leads)


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_buchberger_matches_sympy(order):
    for arity, gens in generator_sets():
        ours = buchberger(gens, order)
        theirs = sympy_basis(gens, arity, order)
        assert list(ours.generators) == theirs, gens
        assert all(g.leading_coefficient(order) == 1 for g in ours.generators)


def test_milnor_and_hilbert_match_sympy_staircase():
    rng = random.Random(496)
    finite = 0
    for _ in range(CASES):
        arity = rng.randint(1, 3)
        f = rational_poly(rng, arity, 4 if arity < 3 else 3, rng.randint(2, 5))
        partials = [f.partial(i) for i in range(arity)]
        partials = [p for p in partials if not p.is_zero()]
        theirs = sympy_groebner(partials, arity, GREVLEX) if partials else []
        leads = [q.monoms(order="grevlex")[0] for q in theirs]
        pure = [
            min((lead[v] for lead in leads if sum(lead) == lead[v]), default=None)
            for v in range(arity)
        ]
        if None in pure:
            expected = INFINITE
        else:
            expected = sum(below(leads, m) for m in product(*(range(e) for e in pure)))
            finite += 1
        assert milnor_number(build_crit(f)) == expected, f.terms
        gb = buchberger(partials, GREVLEX, arity=arity)
        for d in range(7):
            degree_d = (m for m in product(range(d + 1), repeat=arity) if sum(m) == d)
            count = sum(below(leads, m) for m in degree_d)
            assert hilbert_function(gb, d) == count, (f.terms, d)
    assert finite >= 50
