"""Shifted 1-forms, their derived zero loci, and the (-1)-shifted 2-form.

A polynomial 1-form alpha = sum a_i dx_i determines a derived zero locus
Z(alpha): the Koszul complex of its components, the same record that
``build_crit`` returns for Crit(f) = Z(df).  alpha is a Lagrangian section
exactly when it is closed, and the closedness shows up independently as
vanishing of the internal differential of the pairing form
omega = sum dxi_i ^ dx_i, which ``omega_minus_one`` decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .koszul import CdgaElement, FormElement, KoszulComplex, de_rham_and_internal
from .linalg import rank
from .polynomials import ArityError, MultiPoly


@dataclass(frozen=True)
class OneForm:
    """alpha = sum components[i] * dx_i with polynomial components."""

    components: tuple[MultiPoly, ...]

    def __post_init__(self) -> None:
        arities = {p.arity for p in self.components}
        if len(arities) > 1:
            raise ArityError("one-form components do not share an arity")
        if arities and arities.pop() != len(self.components):
            raise ArityError("need one component per ambient variable")

    @property
    def arity(self) -> int:
        return len(self.components)

    @classmethod
    def zero(cls, arity: int) -> "OneForm":
        return cls(tuple(MultiPoly.zero(arity) for _ in range(arity)))


@dataclass(frozen=True)
class ZeroLocusResult:
    """Derived zero locus of a 1-form, with its Lagrangian gating flags.

    ``lagrangian_flag`` and ``symplectic_claim`` both equal ``closed``:
    a closure of the 1-form exists iff its de Rham differential vanishes,
    and every isotropic structure on a 1-form section is non-degenerate.
    """

    complex: KoszulComplex
    closed: bool
    lagrangian_flag: bool
    symplectic_claim: bool


def one_form_closed(alpha: OneForm) -> bool:
    """Exact polynomial identity d(alpha) = 0: curl components all vanish."""
    n = alpha.arity
    for i in range(n):
        for j in range(i + 1, n):
            if alpha.components[j].partial(i) != alpha.components[i].partial(j):
                return False
    return True


def zero_locus_one_form(alpha: OneForm) -> ZeroLocusResult:
    """Koszul model of the derived vanishing locus of the 1-form."""
    closed = one_form_closed(alpha)
    complex_ = KoszulComplex(alpha.arity, alpha.components, "one_form")
    return ZeroLocusResult(
        complex=complex_,
        closed=closed,
        lagrangian_flag=closed,
        symplectic_claim=closed,
    )


@cache  # a function of the arity alone
def pairing_form(arity: int) -> tuple[FormElement, tuple[tuple[Fraction, ...], ...], bool]:
    """omega = sum dxi_i ^ dx_i, its dxi/dx pairing block in coordinates, and
    whether that block is invertible (omega is non-degenerate)."""
    omega = FormElement({((i,), (i,)): CdgaElement.unit(arity) for i in range(arity)}, arity)

    def entry(i: int, j: int) -> Fraction:
        coeff = omega.terms.get(((i,), (j,)), CdgaElement.zero(arity))
        return coeff.terms.get((), MultiPoly.zero(arity)).constant_value()

    pairing = tuple(tuple(entry(i, j) for j in range(arity)) for i in range(arity))
    return omega, pairing, rank([list(row) for row in pairing]) == arity


def omega_minus_one(arity: int, K: KoszulComplex) -> bool:
    """Whether the internal differential of K kills the pairing 2-form
    omega = sum dxi_i ^ dx_i, applied once: true for a critical locus by
    symmetry of second partials, and for a 1-form zero locus exactly when
    the form is closed."""
    if K.arity != arity:
        raise ArityError("complex arity does not match")
    _, delta_omega = de_rham_and_internal(pairing_form(arity)[0], K)
    return delta_omega.is_zero()
