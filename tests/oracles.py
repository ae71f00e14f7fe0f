"""Independent brute-force oracles used to cross-check the engine.

Everything here is written against the definitions directly: dense
matrices, textbook row reduction, plain dict polynomials.  None of the
engine's homology or staircase code paths are reused.  The reference
parser and the reference division build every intermediate result as a
public ``MultiPoly`` and combine them with its ring operations, so they
share none of the in-place term collection of the engine's parser and
division.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from critlocus import (
    CdgaElement,
    FormElement,
    KoszulComplex,
    MultiPoly,
    ParseError,
    PolyMatrix,
    zero_locus_one_form,
)
from critlocus.polynomials import mono_div, mono_divides


def dense_rref(matrix):
    """Textbook Gauss-Jordan elimination over the rationals: the nonzero
    rows of the reduced row echelon form, and their pivot columns."""
    m = [list(map(Fraction, row)) for row in matrix]
    pivots = []
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        rank = len(pivots)
        pivot = None
        for r in range(rank, nrows):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        m[rank] = [v / pv for v in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
    return m[: len(pivots)], pivots


def dense_rank(matrix):
    return len(dense_rref(matrix)[1])


def nullspace(rows, ncols):
    """Basis of the kernel of the matrix (rows act on column vectors)."""
    reduced, pivots = dense_rref(rows)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][free]
        basis.append(v)
    return basis


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    return [
        [sum((ra[k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for ra in a
    ]


def transpose(matrix):
    """The transpose of a PolyMatrix."""
    return PolyMatrix(tuple(zip(*matrix.entries)))


def is_symmetric(matrix):
    """A PolyMatrix equal to its transpose, entry by entry."""
    e = matrix.entries
    return all(len(row) == len(e) for row in e) and all(
        e[i][j] == e[j][i] for i in range(len(e)) for j in range(i + 1, len(e))
    )


def degree_monomials(n, d):
    """All exponent tuples of total degree d, by brute enumeration."""
    if n == 0:
        return [()] if d == 0 else []
    out = []
    for combo in product(range(d + 1), repeat=n):
        if sum(combo) == d:
            out.append(combo)
    return out


def poly_times_monomial(poly_terms, mono):
    """poly_terms: dict exponent-tuple -> Fraction; multiply by a monomial."""
    return {
        tuple(a + b for a, b in zip(m, mono)): c for m, c in poly_terms.items()
    }


def koszul_slice_basis(n, k, d, weights):
    if k < 0 or k > n:
        return []
    basis = []
    for subset in combinations(range(n), k):
        w = sum(weights[i] for i in subset)
        if w <= d:
            for mono in degree_monomials(n, d - w):
                basis.append((subset, mono))
    return basis


def koszul_slice_matrix(gs_terms, n, k, d, weights):
    """Dense matrix of the contraction differential on the (k, d) slice.

    gs_terms: list of dict polynomials (exponent tuple -> Fraction).
    Rows are indexed by the (k-1, d) slice, columns by the (k, d) slice.
    """
    source = koszul_slice_basis(n, k, d, weights)
    target = koszul_slice_basis(n, k - 1, d, weights)
    tindex = {key: i for i, key in enumerate(target)}
    matrix = [[Fraction(0)] * len(source) for _ in target]
    for col, (subset, mono) in enumerate(source):
        for t in range(len(subset)):
            gen = subset[t]
            rest = subset[:t] + subset[t + 1 :]
            sign = Fraction(1) if t % 2 == 0 else Fraction(-1)
            for m, c in poly_times_monomial(gs_terms[gen], mono).items():
                row = tindex.get((rest, m))
                if row is not None:
                    matrix[row][col] += sign * c
    return matrix, len(source)


def koszul_homology_dim(gs_terms, n, k, d, weights):
    """dim H_k of the Koszul complex at weighted degree d, dense ranks."""
    m_k, ncols = koszul_slice_matrix(gs_terms, n, k, d, weights)
    m_k1, _ = koszul_slice_matrix(gs_terms, n, k + 1, d, weights)
    return ncols - dense_rank(m_k) - dense_rank(m_k1)


def staircase_dimension(leading_monomials, n):
    """Count standard monomials by box enumeration; None if unbounded.

    leading_monomials: exponent tuples generating the leading-term ideal.
    """
    bounds = []
    for var in range(n):
        pure = [
            lm[var]
            for lm in leading_monomials
            if all(e == 0 for i, e in enumerate(lm) if i != var)
        ]
        if not pure:
            return None
        bounds.append(min(pure))
    count = 0
    for mono in product(*(range(b) for b in bounds)):
        if not any(all(l <= m for l, m in zip(lm, mono)) for lm in leading_monomials):
            count += 1
    return count


def standard_monomial_count_in_degree(leading_monomials, n, d):
    """Hilbert-function oracle: standard monomials of exact degree d."""
    return sum(
        1
        for mono in degree_monomials(n, d)
        if not any(all(l <= m for l, m in zip(lm, mono)) for lm in leading_monomials)
    )


# ---------------------------------------------------------------------------
# reference parser: every factor is a MultiPoly, terms are added one by one
#
#   poly   := [sign] term { sign term }
#   term   := factor { ["*"] factor | "/" number }
#   factor := number | name ["^" number]

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^]))")


def _reference_tokens(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(
                f"unexpected character {stripped[0]!r}", len(text) - len(stripped)
            )
        if m.group(1) is not None:
            tokens.append(("num", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    return tokens


class _ReferenceParser:
    def __init__(self, text, names):
        self.text = text
        self.tokens = _reference_tokens(text)
        self.pos = 0
        self.arity = len(names)
        self.index = {n: i for i, n in enumerate(names)}

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def parse(self):
        result = self.parse_term_signed()
        while True:
            tok = self.peek()
            if tok is None:
                return result
            kind, value, offset = tok
            if kind == "op" and value in "+-":
                self.take()
                term = self.parse_term_signed()
                result = result + term if value == "+" else result - term
            else:
                raise ParseError(f"expected '+' or '-', found {value!r}", offset)

    def parse_term_signed(self):
        sign = 1
        while True:
            tok = self.peek()
            if tok is not None and tok[0] == "op" and tok[1] in "+-":
                self.take()
                if tok[1] == "-":
                    sign = -sign
            else:
                break
        term = self.parse_term()
        return term if sign > 0 else -term

    def parse_term(self):
        result = self.parse_factor()
        while True:
            tok = self.peek()
            if tok is None:
                return result
            kind, value, _ = tok
            if kind == "op" and value == "*":
                self.take()
                result = result * self.parse_factor()
            elif kind == "op" and value == "/":
                self.take()
                dkind, dvalue, doffset = self.take()
                if dkind != "num":
                    raise ParseError("expected integer denominator", doffset)
                if int(dvalue) == 0:
                    raise ParseError("zero denominator", doffset)
                result = result.scale(Fraction(1, int(dvalue)))
            elif kind in ("num", "name"):
                result = result * self.parse_factor()
            else:
                return result

    def parse_factor(self):
        kind, value, offset = self.take()
        if kind == "num":
            return MultiPoly.constant(int(value), self.arity)
        if kind == "name":
            if value not in self.index:
                raise ParseError(f"unknown variable {value!r}", offset)
            base = MultiPoly.variable(self.index[value], self.arity)
            tok = self.peek()
            if tok is not None and tok[0] == "op" and tok[1] == "^":
                self.take()
                ekind, evalue, eoffset = self.take()
                if ekind != "num":
                    raise ParseError("expected integer exponent", eoffset)
                return base ** int(evalue)
            return base
        raise ParseError(f"expected a number or variable, found {value!r}", offset)


def reference_parse(text, names):
    """Polynomial text to a MultiPoly, one MultiPoly per factor and per
    partial sum; same grammar, errors and offsets as ``parse_polynomial``."""
    parser = _ReferenceParser(text, names)
    if parser.peek() is None:
        raise ParseError("empty polynomial", 0)
    return parser.parse()


# ---------------------------------------------------------------------------
# reference division


def reference_reduce(p, divisors, order):
    """Full remainder of p on division by (lead, generator) pairs, first
    divisor wins; each step subtracts a whole MultiPoly product."""
    remainder_terms = {}
    h = p
    while h.terms:
        lm = h.leading_monomial(order)
        lc = h.terms[lm]
        for gm, g in divisors:
            if mono_divides(gm, lm):
                h = h - MultiPoly.monomial(mono_div(lm, gm), lc / g.terms[gm]) * g
                break
        else:
            remainder_terms[lm] = lc
            h = h - MultiPoly.monomial(lm, lc)
    return MultiPoly(remainder_terms, p.arity)


# ---------------------------------------------------------------------------
# the tautological 1-form and its pullback along a section


def differential_of(f):
    """The 1-form df = sum (df/dx_i) dx_i, as its zero-locus complex."""
    return zero_locus_one_form([f.partial(i) for i in range(f.arity)])


def tautological_one_form(arity):
    """lambda = sum xi_i dx_i on the shifted cotangent model."""
    return FormElement({((i,), ()): CdgaElement.xi((i,), arity) for i in range(arity)}, arity)


@dataclass(frozen=True)
class PullbackRecord:
    pulled_back: KoszulComplex
    matches_input: bool


def pullback_tautological(alpha):
    """Substitute xi_i -> a_i in the tautological 1-form, alpha given by its
    zero-locus complex with components a_i; the result must be alpha itself."""
    n = alpha.arity
    comps = [MultiPoly.zero(n)] * n
    for ((i,), dxi), coeff in tautological_one_form(n).terms.items():
        assert not dxi
        value = MultiPoly.zero(n)
        for xi, poly in coeff.terms.items():
            for gen in xi:  # xi-degree <= 1 here, substitution is unambiguous
                poly = poly * alpha.diff_images[gen]
            value = value + poly
        comps[i] = value
    pulled = zero_locus_one_form(comps)
    return PullbackRecord(pulled_back=pulled, matches_input=pulled == alpha)
