"""Buchberger's algorithm and ideal-theoretic decision procedures.

Reduced Groebner bases are computed deterministically: normal selection
strategy (smallest lcm first), Buchberger's coprimality and chain criteria
for pair pruning, monic generators, output sorted by descending leading
monomial.  Each generator's leading monomial is computed once, when it
joins the basis, and each pair's selection key once, when the pair is
created.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .polynomials import (
    GREVLEX,
    Monomial,
    MonomialOrder,
    MultiPoly,
    _accumulate,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_of_degree,
)


class NotZeroDimensional(ValueError):
    """Raised when an operation requires a zero-dimensional ideal."""


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis with its monomial order.

    ``generators`` are monic, pairwise irredundant and fully inter-reduced;
    the tuple is sorted by descending leading monomial.  The empty tuple
    represents the zero ideal.
    """

    generators: tuple[MultiPoly, ...]
    order: MonomialOrder
    arity: int

    @cached_property
    def _leads(self) -> tuple[Monomial, ...]:
        return tuple(g.leading_monomial(self.order) for g in self.generators)

    def leading_monomials(self) -> tuple[Monomial, ...]:
        """The generators' leading monomials, computed once per basis."""
        return self._leads

    def is_unit_ideal(self) -> bool:
        return len(self.generators) == 1 and self.generators[0].is_constant()


def _reduce(
    p: MultiPoly, divisors: list[tuple[Monomial, MultiPoly]], order: MonomialOrder
) -> MultiPoly:
    """Full remainder of p on division by the (lead, generator) pairs, first
    divisor wins.

    One working dict ``h`` is updated in place.  Each step pops the leading
    term c*x^q*lead(g) of ``h``: it moves to the remainder when no divisor's
    lead divides it, and otherwise c*x^q*(g - lead(g)) is subtracted from
    ``h``, which is the whole of c*x^q*g apart from the popped term.
    """
    remainder: dict[Monomial, Fraction] = {}
    h = dict(p.terms)
    key = order.key
    while h:
        lm = max(h, key=key)
        lc = h.pop(lm)
        for gm, g in divisors:
            if mono_divides(gm, lm):
                q = mono_div(lm, gm)
                c = -lc / g.terms[gm]
                for m, gc in g.terms.items():
                    if m != gm:
                        _accumulate(h, mono_mul(m, q), c * gc)
                break
        else:
            remainder[lm] = lc
    return MultiPoly._trusted(remainder, p.arity)


def buchberger(
    gens: list[MultiPoly], order: MonomialOrder = GREVLEX, arity: int | None = None
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Deterministic for fixed input and order.  Pairs are processed by
    ascending lcm (normal strategy) and pruned by the coprimality criterion
    and the chain criterion.  ``arity`` is only needed for an empty
    generator list (the zero ideal).
    """
    arities = {g.arity for g in gens}
    if arity is not None:
        arities.add(arity)
    if len(arities) > 1:
        raise ValueError("generators do not share an arity")
    arity = arities.pop() if arities else 0
    basis: list[tuple[Monomial, MultiPoly]] = []  # (leading monomial, monic generator)
    pairs: dict[tuple[int, int], tuple] = {}  # (i, j) -> (order key of the lcm, i, j)

    def add(g: MultiPoly) -> None:
        g = g.monic(order)
        lead = g.leading_monomial(order)
        new = len(basis)
        for t, (lm, _) in enumerate(basis):
            pairs[(t, new)] = (order.key(mono_lcm(lm, lead)), t, new)
        basis.append((lead, g))

    for g in gens:
        if not g.is_zero():
            add(g)
    if not basis:
        return GroebnerBasis((), order, arity)

    while pairs:
        i, j = min(pairs, key=pairs.get)
        del pairs[(i, j)]
        (lm_i, g_i), (lm_j, g_j) = basis[i], basis[j]
        lcm = mono_lcm(lm_i, lm_j)
        if lcm == mono_mul(lm_i, lm_j):
            continue  # coprime leading terms, S-polynomial reduces to zero
        if any(
            k not in (i, j)
            and mono_divides(lm_k, lcm)
            and (min(i, k), max(i, k)) not in pairs
            and (min(j, k), max(j, k)) not in pairs
            for k, (lm_k, _) in enumerate(basis)
        ):
            continue  # chain criterion
        s_poly = (
            MultiPoly.monomial(mono_div(lcm, lm_i)) * g_i
            - MultiPoly.monomial(mono_div(lcm, lm_j)) * g_j
        )
        remainder = _reduce(s_poly, basis, order)
        if not remainder.is_zero():
            add(remainder)

    return _reduced_basis(basis, order, arity)


def _reduced_basis(
    basis: list[tuple[Monomial, MultiPoly]], order: MonomialOrder, arity: int
) -> GroebnerBasis:
    # drop generators whose leading term another generator's divides
    minimal: list[tuple[Monomial, MultiPoly]] = []
    for lm, g in sorted(basis, key=lambda pair: order.key(pair[0])):
        if not any(mono_divides(m, lm) for m, _ in minimal):
            minimal.append((lm, g))
    # tail-reduce each monic generator against the others; leading terms are
    # untouched, so the results stay monic and keep their order
    reduced = [
        _reduce(g, minimal[:idx] + minimal[idx + 1 :], order)
        for idx, (_, g) in enumerate(minimal)
    ]
    return GroebnerBasis(tuple(reversed(reduced)), order, arity)


def normal_form(p: MultiPoly, gb: GroebnerBasis) -> MultiPoly:
    """Canonical remainder of p modulo the basis; zero iff p is in the ideal."""
    if p.arity != gb.arity:
        raise ValueError(f"arity mismatch: {p.arity} vs {gb.arity}")
    return _reduce(p, list(zip(gb.leading_monomials(), gb.generators)), gb.order)


def is_zero_dimensional(gb: GroebnerBasis) -> bool:
    """True iff every variable has a pure power among the leading terms."""
    if gb.arity == 0:
        return True
    lms = gb.leading_monomials()
    for var in range(gb.arity):
        if not any(all(e == 0 for i, e in enumerate(lm) if i != var) for lm in lms):
            return False
    return True


def quotient_basis(gb: GroebnerBasis) -> list[Monomial]:
    """Standard monomials of a zero-dimensional ideal, sorted by the order.

    The length is the rational-vector-space dimension of the quotient ring.
    """
    if not is_zero_dimensional(gb):
        raise NotZeroDimensional("quotient basis requires a zero-dimensional ideal")
    lms = gb.leading_monomials()
    bounds = []
    for var in range(gb.arity):
        pure = [
            lm[var]
            for lm in lms
            if all(e == 0 for i, e in enumerate(lm) if i != var)
        ]
        bounds.append(min(pure))
    standard: list[Monomial] = []

    def scan(prefix: tuple[int, ...]) -> None:
        if len(prefix) == gb.arity:
            if not any(mono_divides(lm, prefix) for lm in lms):
                standard.append(prefix)
            return
        for e in range(bounds[len(prefix)]):
            scan(prefix + (e,))

    scan(())
    standard.sort(key=gb.order.key)
    return standard


def krull_dimension(gb: GroebnerBasis) -> int | None:
    """Dimension of the quotient ring; None for the unit ideal (empty scheme).

    Computed as the largest cardinality of a variable subset U such that no
    leading term involves only variables from U.  Brute force over subsets;
    intended for small arity.
    """
    supports = [
        frozenset(i for i, e in enumerate(lm) if e) for lm in gb.leading_monomials()
    ]
    variables = list(range(gb.arity))
    for size in range(gb.arity, -1, -1):
        for subset in combinations(variables, size):
            u = frozenset(subset)
            if all(not s <= u for s in supports):
                return size
    return None


def is_unit_mod(g: MultiPoly, gb: GroebnerBasis) -> bool:
    """True iff 1 lies in ideal(gb) + (g)."""
    if g.arity != gb.arity:
        raise ValueError(f"arity mismatch: {g.arity} vs {gb.arity}")
    combined = buchberger(list(gb.generators) + [g], gb.order)
    return combined.is_unit_ideal()


def hilbert_function(gb: GroebnerBasis, degree: int) -> int:
    """Number of standard monomials of total degree exactly ``degree``."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    lms = gb.leading_monomials()
    count = 0
    for mono in monomials_of_degree(gb.arity, degree):
        if not any(mono_divides(lm, mono) for lm in lms):
            count += 1
    return count

