"""Shifted 1-forms, their derived zero loci, and the (-1)-shifted 2-form.

A polynomial 1-form alpha = sum a_i dx_i is recorded as its derived zero
locus Z(alpha): the Koszul complex of its components, the same record that
``build_crit`` returns for Crit(f) = Z(df).  alpha is a Lagrangian section
exactly when it is closed.  ``one_form_closed`` reads the curl off the
complex's structure polynomials; independently, closedness shows up as
vanishing of the internal differential of the pairing form
omega = sum dxi_i ^ dx_i, which ``omega_minus_one`` decides.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Sequence

from .koszul import CdgaElement, FormElement, KoszulComplex, de_rham_and_internal
from .linalg import rank
from .polynomials import MultiPoly


def zero_locus_one_form(components: Sequence[MultiPoly]) -> KoszulComplex:
    """Z(alpha) for alpha = sum components[i] * dx_i: the Koszul complex of
    the components, which checks that there is one per ambient variable."""
    return KoszulComplex(len(components), tuple(components), "one_form")


def one_form_closed(K: KoszulComplex) -> bool:
    """Exact polynomial identity d(alpha) = 0 for the 1-form whose components
    are the structure polynomials of K: every curl component vanishes."""
    a = K.diff_images
    return all(
        a[j].partial(i) == a[i].partial(j) for i in range(K.arity) for j in range(i + 1, K.arity)
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


def omega_minus_one(K: KoszulComplex) -> bool:
    """Whether the internal differential of K kills the pairing 2-form
    omega = sum dxi_i ^ dx_i, applied once: true for a critical locus by
    symmetry of second partials, and for a 1-form zero locus exactly when
    the form is closed."""
    _, delta_omega = de_rham_and_internal(pairing_form(K.arity)[0], K)
    return delta_omega.is_zero()
