"""Shifted 1-forms, tautological pullback, and the (-1)-shifted 2-form.

A polynomial 1-form alpha = sum a_i dx_i determines a derived zero locus
Z(alpha) built on the same Koszul machinery as a critical locus; alpha is
a Lagrangian section exactly when it is closed, and the closedness shows
up independently as vanishing of the internal differential of the pairing
form omega = sum dxi_i ^ dx_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .koszul import (
    CdgaElement,
    EngineError,
    FormElement,
    KoszulComplex,
    de_rham_and_internal,
)
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
    def differential_of(cls, f: MultiPoly) -> "OneForm":
        return cls(tuple(f.partial(i) for i in range(f.arity)))

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


@dataclass(frozen=True)
class PullbackRecord:
    pulled_back: OneForm
    matches_input: bool


@dataclass(frozen=True)
class OmegaVerification:
    """The pairing 2-form sum dxi_i ^ dx_i with its verification record.

    Checks: (i) it is the de Rham differential of the tautological 1-form
    sum xi_i dx_i; (ii) it is de Rham closed; (iii) its internal
    differential vanishes (true for a critical locus by symmetry of second
    partials, and for a 1-form zero locus exactly when the form is
    closed); (iv) the dxi/dx pairing block is the identity, hence the
    2-form is non-degenerate in coordinates.
    """

    omega: FormElement
    is_differential_of_tautological: bool
    de_rham_closed: bool
    internal_closed: bool
    internal_residue: FormElement | None
    pairing_matrix: tuple[tuple[Fraction, ...], ...]
    pairing_invertible: bool


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


def tautological_one_form(arity: int) -> FormElement:
    """sum xi_i dx_i on the shifted cotangent model."""
    return FormElement({((i,), ()): CdgaElement.xi((i,), arity) for i in range(arity)}, arity)


def pullback_tautological(alpha: OneForm) -> PullbackRecord:
    """Substitute xi_i -> a_i in the tautological 1-form and certify that
    the result is alpha itself.  A mismatch is an engine bug."""
    n = alpha.arity
    substituted = {}
    for key, coeff in tautological_one_form(n).terms.items():
        value = MultiPoly.zero(n)
        for xi, poly in coeff.terms.items():
            for gen in xi:  # xi-degree <= 1 here, substitution is unambiguous
                poly = poly * alpha.components[gen]
            value = value + poly
        substituted[key] = CdgaElement.from_poly(value)
    pulled = OneForm(FormElement(substituted, n).one_form_components())
    matches = pulled == alpha
    if not matches:
        raise EngineError(
            "tautological pullback failed to reproduce the 1-form; this is a bug"
        )
    return PullbackRecord(pulled_back=pulled, matches_input=matches)


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


def omega_minus_one(arity: int, K: KoszulComplex) -> OmegaVerification:
    """Build the pairing 2-form and run its verification record."""
    if K.arity != arity:
        raise ArityError("complex arity does not match")
    omega, pairing, invertible = pairing_form(arity)
    d_lam, _ = de_rham_and_internal(tautological_one_form(arity), K)
    d_omega, delta_omega = de_rham_and_internal(omega, K)
    return OmegaVerification(
        omega=omega,
        is_differential_of_tautological=(d_lam == omega),
        de_rham_closed=d_omega.is_zero(),
        internal_closed=delta_omega.is_zero(),
        internal_residue=None if delta_omega.is_zero() else delta_omega,
        pairing_matrix=pairing,
        pairing_invertible=invertible,
    )
