"""Sparse multivariate polynomials with exact rational coefficients.

The coefficient field is the rationals, realized by ``fractions.Fraction``
(already reduced, positive denominator).  Monomials are plain exponent
tuples; a polynomial is a finite map from monomials to nonzero coefficients.
All values are immutable after construction and every operation is pure.

The public constructor ``MultiPoly(terms, arity)`` validates its input: it
checks every monomial's arity, converts every coefficient with ``Fraction``
and drops zeros.  Arithmetic, differentiation, the parser and the Groebner
layer build their results with the private ``MultiPoly._trusted``, which
wraps a term dict that is already clean (tuple monomials of the right
arity, nonzero coefficients of type ``Fraction``) without copying or
checking it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add, le, sub
from typing import Iterator, Mapping, Sequence

Monomial = tuple[int, ...]

Scalar = Fraction | int


class ArityError(ValueError):
    """Operands live in polynomial rings with different variable counts."""


class ParseError(ValueError):
    """Polynomial text that does not match the grammar; carries a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"at byte {offset}: {message}")
        self.offset = offset


# ---------------------------------------------------------------------------
# monomial helpers


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(sub, a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def mono_degree(a: Monomial) -> int:
    return sum(a)


def monomials_of_degree(arity: int, degree: int) -> Iterator[Monomial]:
    """All exponent tuples of the given total degree, in a fixed order."""
    if arity == 0:
        if degree == 0:
            yield ()
        return
    if arity == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(arity - 1, degree - first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# monomial orders


@dataclass(frozen=True)
class MonomialOrder:
    """A total order on monomials compatible with multiplication, 1 minimal.

    ``kind`` is "grevlex" or "lex", with variables ordered x0 > x1 > ...
    """

    kind: str = "grevlex"

    def __post_init__(self) -> None:
        if self.kind not in ("grevlex", "lex"):
            raise ValueError(f"unknown monomial order kind: {self.kind!r}")

    def key(self, mono: Monomial):
        if self.kind == "lex":
            return mono
        # grevlex: total degree first, ties broken by smaller exponent in the
        # least significant position (scanned from the back).
        return (sum(mono), tuple([-e for e in reversed(mono)]))


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


# ---------------------------------------------------------------------------
# polynomials


def _accumulate(terms: dict[Monomial, Fraction], mono: Monomial, coeff: Fraction) -> None:
    """Add the nonzero term coeff*mono into a term dict in place; a sum that
    cancels removes the monomial."""
    old = terms.get(mono)
    if old is None:
        terms[mono] = coeff
    else:
        total = old + coeff
        if total:
            terms[mono] = total
        else:
            del terms[mono]


class MultiPoly:
    """A polynomial over the rationals in ``arity`` variables.

    ``terms`` maps exponent tuples to nonzero Fractions, e.g.
    ``{(2, 0): Fraction(3, 2), (0, 1): Fraction(-1)}`` is 3/2*x^2 - y.
    """

    __slots__ = ("terms", "arity")

    def __init__(self, terms: Mapping[Monomial, Scalar], arity: int):
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in terms.items():
            if len(mono) != arity:
                raise ArityError(f"monomial {mono} does not have arity {arity}")
            c = Fraction(coeff)
            if c != 0:
                clean[tuple(mono)] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "arity", arity)

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("MultiPoly is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def _trusted(cls, terms: dict[Monomial, Fraction], arity: int) -> "MultiPoly":
        """Wrap ``terms`` as is: the caller guarantees tuple monomials of
        length ``arity`` and nonzero ``Fraction`` coefficients, and hands the
        dict over."""
        p = object.__new__(cls)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "arity", arity)
        return p

    @classmethod
    def zero(cls, arity: int) -> "MultiPoly":
        return cls({}, arity)

    @classmethod
    def constant(cls, value: Scalar, arity: int) -> "MultiPoly":
        return cls({(0,) * arity: Fraction(value)}, arity)

    @classmethod
    def one(cls, arity: int) -> "MultiPoly":
        return cls.constant(1, arity)

    @classmethod
    def variable(cls, index: int, arity: int) -> "MultiPoly":
        if not 0 <= index < arity:
            raise IndexError(f"variable index {index} out of range for arity {arity}")
        mono = tuple(1 if i == index else 0 for i in range(arity))
        return cls({mono: Fraction(1)}, arity)

    @classmethod
    def monomial(cls, mono: Monomial, coeff: Scalar = 1) -> "MultiPoly":
        return cls({tuple(mono): Fraction(coeff)}, len(mono))

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(mono_degree(m) == 0 for m in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * self.arity, Fraction(0))

    def total_degree(self) -> int:
        """Max total degree of the terms; -1 for the zero polynomial."""
        return max((mono_degree(m) for m in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        return len({mono_degree(m) for m in self.terms}) <= 1

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.arity != other.arity:
            raise ArityError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other, self.arity)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            _accumulate(res, m, c)
        return MultiPoly._trusted(res, self.arity)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._trusted({m: -c for m, c in self.terms.items()}, self.arity)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other, self.arity)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        res: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _accumulate(res, mono_mul(m1, m2), c1 * c2)
        return MultiPoly._trusted(res, self.arity)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, scalar: Scalar) -> "MultiPoly":
        # a Fraction times an int or a Fraction is a Fraction
        s = scalar if isinstance(scalar, (int, Fraction)) else Fraction(scalar)
        if s == 0:
            return MultiPoly.zero(self.arity)
        return MultiPoly._trusted({m: c * s for m, c in self.terms.items()}, self.arity)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MultiPoly.one(self.arity)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other, self.arity)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        # a constant polynomial equals its value (see __eq__), so it hashes
        # as that value
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.arity, frozenset(self.terms.items())))

    # -- calculus and evaluation ----------------------------------------

    def partial(self, index: int) -> "MultiPoly":
        """Formal partial derivative with respect to variable ``index``."""
        if not 0 <= index < self.arity:
            raise IndexError(f"variable index {index} out of range")
        # distinct monomials with a positive exponent at ``index`` have
        # distinct derivatives, so no two terms collect
        res: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            e = m[index]
            if e:
                res[m[:index] + (e - 1,) + m[index + 1 :]] = c * e
        return MultiPoly._trusted(res, self.arity)

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        if len(point) != self.arity:
            raise ArityError(f"point has {len(point)} coordinates, expected {self.arity}")
        pt = [Fraction(x) for x in point]
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for x, e in zip(pt, m):
                if e:
                    v *= x**e
            total += v
        return total

    # -- leading terms ---------------------------------------------------

    def leading_monomial(self, order: MonomialOrder) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=order.key)

    def leading_coefficient(self, order: MonomialOrder) -> Fraction:
        return self.terms[self.leading_monomial(order)]

    def monic(self, order: MonomialOrder) -> "MultiPoly":
        lc = self.leading_coefficient(order)
        return self if lc == 1 else self.scale(Fraction(1) / lc)

    # -- rendering -------------------------------------------------------

    def to_string(self, names: Sequence[str], order: MonomialOrder = GREVLEX) -> str:
        if not self.terms:
            return "0"
        if len(names) != self.arity:
            raise ArityError("name list does not match arity")
        parts: list[str] = []
        for mono in sorted(self.terms, key=order.key, reverse=True):
            coeff = self.terms[mono]
            factors = [
                f"{names[i]}^{e}" if e > 1 else names[i]
                for i, e in enumerate(mono)
                if e
            ]
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        names = [f"x{i}" for i in range(self.arity)]
        return f"MultiPoly({self.to_string(names)})"


# ---------------------------------------------------------------------------
# text grammar
#
#   poly   := [sign] term { sign term }
#   term   := factor { ["*"] factor | "/" number }
#   factor := number | name ["^" number]
#
# Whitespace is insignificant; "*" between a coefficient and a variable is
# optional.  Variables must come from the declared name list.

NAME = r"[A-Za-z_][A-Za-z_0-9]*"  # a variable name
_TOKEN = re.compile(rf"\s*(?:(\d+)|({NAME})|([-+*/^]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", bad_at)
        if m.group(1) is not None:
            tokens.append(("num", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    return tokens


def _number(digits: str, offset: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise ParseError(f"number of {len(digits)} digits is too long", offset) from None


class _Parser:
    """Recursive descent over the tokens.  Each term is read as an exponent
    list and an integer fraction; the terms collect into one dict, and the
    polynomial is built once at the end."""

    def __init__(self, text: str, names: Sequence[str]):
        self.index = {n: i for i, n in enumerate(names)}
        self.arity = len(names)
        if len(self.index) != self.arity:
            raise ValueError(f"duplicate variable names in {list(names)!r}")
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def parse(self) -> MultiPoly:
        terms: dict[Monomial, Fraction] = {}
        sign = 1
        while True:
            mono, coeff = self.parse_term_signed(sign)
            if coeff:
                _accumulate(terms, mono, coeff)
            tok = self.peek()
            if tok is None:
                return MultiPoly._trusted(terms, self.arity)
            kind, value, offset = tok
            if kind != "op" or value not in "+-":
                raise ParseError(f"expected '+' or '-', found {value!r}", offset)
            self.take()
            sign = 1 if value == "+" else -1

    def parse_term_signed(self, sign: int) -> tuple[Monomial, Fraction]:
        while True:
            tok = self.peek()
            if tok is not None and tok[0] == "op" and tok[1] in "+-":
                self.take()
                if tok[1] == "-":
                    sign = -sign
            else:
                break
        exps, num, den = self.parse_term()
        return tuple(exps), Fraction(sign * num, den)

    def parse_term(self) -> tuple[list[int], int, int]:
        """One term as (exponents, numerator, denominator)."""
        exps = [0] * self.arity
        num = self.parse_factor(exps)
        den = 1
        while True:
            tok = self.peek()
            if tok is None:
                break
            kind, value, _ = tok
            if kind == "op" and value == "*":
                self.take()
                num *= self.parse_factor(exps)
            elif kind == "op" and value == "/":
                self.take()
                dkind, dvalue, doffset = self.take()
                if dkind != "num":
                    raise ParseError("expected integer denominator", doffset)
                d = _number(dvalue, doffset)
                if d == 0:
                    raise ParseError("zero denominator", doffset)
                den *= d
            elif kind in ("num", "name"):
                num *= self.parse_factor(exps)
            else:
                break
        return exps, num, den

    def parse_factor(self, exps: list[int]) -> int:
        """Read one factor: a variable adds to ``exps``, a number is returned
        (1 for a variable)."""
        kind, value, offset = self.take()
        if kind == "num":
            return _number(value, offset)
        if kind == "name":
            index = self.index.get(value)
            if index is None:
                raise ParseError(f"unknown variable {value!r}", offset)
            tok = self.peek()
            if tok is not None and tok[0] == "op" and tok[1] == "^":
                self.take()
                ekind, evalue, eoffset = self.take()
                if ekind != "num":
                    raise ParseError("expected integer exponent", eoffset)
                exps[index] += _number(evalue, eoffset)
            else:
                exps[index] += 1
            return 1
        raise ParseError(f"expected a number or variable, found {value!r}", offset)


def parse_polynomial(text: str, names: Sequence[str]) -> MultiPoly:
    """Parse polynomial text over the declared variable names.

    Raises ParseError with the byte offset of the offending token, and
    ValueError if ``names`` repeats a name.
    """
    parser = _Parser(text, names)
    if parser.peek() is None:
        raise ParseError("empty polynomial", 0)
    return parser.parse()
