"""Derived-critical-locus analyses.

``build_crit`` builds the Koszul model of Crit(f) from the Jacobian ideal,
with its strict locus.  Each analysis is one function of that ``Crit``: it
decides the regular-sequence equivalence with the strict locus, computes
the Milnor number, Hessian data at rational points, validates coordinate
splittings of a smooth critical family, and runs the T*[-1]S comparison
whose success is equivalent to non-degeneracy of the normal Hessian block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .groebner import GroebnerBasis, is_zero_dimensional, krull_dimension
from .koszul import (
    BoundTooSmall,
    EngineError,
    HomologyReport,
    KoszulComplex,
    koszul_homology,
)
from .linalg import PolyMatrix, invert, point_evaluator
from .polynomials import ArityError, MultiPoly
from .symplectic import pairing_form

INFINITE = math.inf  # sentinel for a non-isolated singular locus


class SplittingError(ValueError):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind  # "not_tangent"


@dataclass(frozen=True)
class StrictLocus:
    """The classical vanishing scheme of the partial derivatives."""

    jacobian_basis: GroebnerBasis
    dimension: int | None  # None: empty locus (unit ideal)
    zero_dimensional: bool


@dataclass(frozen=True)
class HessianData:
    matrix: PolyMatrix


@dataclass(frozen=True)
class SplittingData:
    """Coordinate realization of a first-order splitting of the family.

    ``tangent_vars`` span the directions along the critical family,
    ``normal_vars`` the complement; validity is established by
    ``validate_splitting``.
    """

    tangent_vars: tuple[int, ...]
    normal_vars: tuple[int, ...]
    validated: bool = False

    @classmethod
    def from_tangent(cls, tangent: Sequence[int], arity: int) -> "SplittingData":
        t = tuple(sorted(set(tangent)))
        if any(i < 0 or i >= arity for i in t):
            raise ValueError("tangent variable index out of range")
        n = tuple(i for i in range(arity) if i not in set(t))
        return cls(t, n)


@dataclass(frozen=True)
class CriticalPointReport:
    point: tuple[Fraction, ...]
    on_locus: bool
    hessian_at: tuple[tuple[Fraction, ...], ...]
    nondegenerate: bool
    alpha_matrix: tuple[tuple[Fraction, ...], ...] | None
    omega_flat_invertible: bool


@dataclass(frozen=True)
class LambdaVerdict:
    """Regular-sequence decision with a named certificate.

    The primary criterion is ideal-theoretic (height n, i.e. the quotient
    is zero-dimensional or empty); Koszul homology vanishing in positive
    degrees is computed as an independent cross-check up to the bound.
    """

    regular: bool
    criterion: str
    dimension: int | None
    positive_degree_dimensions: dict[int, int]
    homology_bound: int
    cross_check: str  # "confirms" | "inconclusive within bound"


@dataclass(frozen=True)
class PhiComparisonReport:
    bound: int
    crit_table: dict[int, tuple[int, ...]]
    model_table: dict[int, tuple[int, ...]]
    verdict: str  # "equal" | "unequal" | "inconclusive"
    normal_hessian_nondegenerate: bool
    mismatches: tuple[tuple[int, int, int, int], ...]  # (k, degree, crit, model)

    @property
    def biconditional_holds(self) -> bool | None:
        if self.verdict == "inconclusive":
            return None
        return (self.verdict == "equal") == self.normal_hessian_nondegenerate


def _restrict(p: MultiPoly, s: SplittingData) -> MultiPoly:
    """p on the subspace {x_j = 0, j normal}: p modulo the normal variables."""
    kept = {m: c for m, c in p.terms.items() if not any(m[j] for j in s.normal_vars)}
    return MultiPoly._trusted(kept, p.arity)


@dataclass(eq=False)
class Crit:
    """The derived critical locus Crit(f) of one functional, as ``build_crit``
    builds it: f, its Koszul model and its strict locus.

    The analyses are the module functions that take a ``Crit``.  Its memo
    holds what they compute at most once: the Koszul homology at each bound
    and the normal Hessian of each splitting.
    """

    f: MultiPoly
    complex: KoszulComplex
    locus: StrictLocus
    _memo: dict = field(default_factory=dict, repr=False)

    def _once(self, key: tuple, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def homology(self, bound: int | None) -> HomologyReport:
        """Koszul homology at ``bound`` (None: the default bound search)."""
        return self._once(("homology", bound), lambda: koszul_homology(self.complex, bound))


def build_crit(f: MultiPoly) -> Crit:
    """Koszul model of the derived critical locus of f and its strict locus."""
    K = KoszulComplex(f.arity, tuple(f.partial(i) for i in range(f.arity)), "critical_locus")
    gb = K.basis
    return Crit(f, K, StrictLocus(gb, krull_dimension(gb), is_zero_dimensional(gb)))


def milnor_number(crit: Crit) -> int | float:
    """Dimension of the Jacobian quotient ring; INFINITE when not isolated."""
    if not crit.locus.zero_dimensional:
        return INFINITE
    return len(crit.complex.standard_monomials)


def hessian(crit: Crit) -> HessianData:
    """Second partials of f: the Jacobian of the partials, cached on the complex."""
    return HessianData(PolyMatrix(crit.complex.jacobian))


def lambda_equivalence_verdict(crit: Crit, bound: int | None = None) -> LambdaVerdict:
    """Decide whether the partials form a regular sequence.

    Height criterion: over a polynomial ring the n partials are regular
    iff the Jacobian quotient is zero-dimensional (the unit ideal counts:
    both loci are then empty).  Koszul homology in degrees k >= 1 is an
    independent cross-check.  A graded complex's homology is exact, so a
    disagreement raises EngineError; an ungraded image only bounds the
    homology from above, so there it leaves the cross-check inconclusive.
    """
    locus = crit.locus
    regular = locus.zero_dimensional
    if locus.dimension is None:
        criterion = "unit Jacobian ideal: strict and derived loci are both empty"
    elif regular:
        criterion = "Jacobian quotient has dimension 0 (height n over a Cohen-Macaulay ring)"
    else:
        criterion = f"Jacobian quotient has dimension {locus.dimension} > 0"
    report = crit.homology(bound)
    positive = {
        k: (report.dimensions[k] if report.mode == "finite" else sum(report.table[k]))
        for k in range(1, crit.f.arity + 1)
    }
    any_positive = any(v != 0 for v in positive.values())
    if regular and any_positive and report.sliceable:
        raise EngineError(
            "height criterion says regular sequence but positive-degree homology is nonzero"
        )
    cross = "confirms" if regular != any_positive else "inconclusive within bound"
    return LambdaVerdict(
        regular=regular,
        criterion=criterion,
        dimension=locus.dimension,
        positive_degree_dimensions=positive,
        homology_bound=report.bound,
        cross_check=cross,
    )


def point_report(crit: Crit, point: Sequence) -> CriticalPointReport:
    """Local analysis at a rational point: Hessian, inverse-Hessian map.

    At a non-degenerate critical point the non-degeneracy map of the
    Lagrangian fibration is the inverse Hessian; off the strict locus no
    such map is reported.
    """
    pt = tuple(Fraction(x) for x in point)
    if len(pt) != crit.f.arity:
        raise ArityError("point arity mismatch")
    value = point_evaluator(pt)  # one evaluator: the point's powers are shared
    on_locus = not any(map(value, crit.complex.diff_images))
    hess = [list(map(value, row)) for row in crit.complex.jacobian]
    alpha = invert(hess) if on_locus else None
    nondegenerate = on_locus and alpha is not None
    # the pairing block of the shifted 2-form is the identity in every
    # chart; its rank is checked rather than assumed
    _, _, flat_invertible = pairing_form(crit.f.arity)
    return CriticalPointReport(
        point=pt,
        on_locus=on_locus,
        hessian_at=tuple(tuple(row) for row in hess),
        nondegenerate=nondegenerate,
        alpha_matrix=tuple(tuple(row) for row in alpha) if nondegenerate and alpha else None,
        omega_flat_invertible=flat_invertible,
    )


def fat_point_signal(milnor: int | float, distinct_points_on_locus: int) -> bool:
    """Informational flag: a finite local algebra bigger than the visible
    point set indicates a non-reduced (fat) strict locus."""
    return milnor != INFINITE and milnor > distinct_points_on_locus


def validate_splitting(crit: Crit, s: SplittingData) -> SplittingData:
    """Check that the coordinate subspace S0 = {x_j = 0, j normal} realizes
    the strict critical locus and is Q-orthogonal to the normal directions.

    Every partial of f must lie in the ideal of S0 (so S0 is contained in
    the strict locus), and the two loci must have the same dimension.
    Q-orthogonality then needs no check of its own: f is a constant plus
    an element of (x_N)^2, so every Hessian entry in a tangent row
    vanishes on S0.
    """
    n = crit.f.arity
    if set(s.tangent_vars) | set(s.normal_vars) != set(range(n)) or set(
        s.tangent_vars
    ) & set(s.normal_vars):
        raise ValueError("tangent and normal variables must partition the coordinates")
    for i, g in enumerate(crit.complex.diff_images):
        if not _restrict(g, s).is_zero():
            raise SplittingError(
                "not_tangent",
                "splitting not tangent to critical locus: partial derivative "
                f"{i} of the functional does not vanish modulo the subspace ideal",
            )
    locus_dim = crit.locus.dimension
    expected = len(s.tangent_vars)
    if locus_dim != expected:
        raise SplittingError(
            "not_tangent",
            "splitting not tangent to critical locus: the strict locus has "
            f"dimension {locus_dim}, the coordinate subspace has dimension {expected}",
        )
    return SplittingData(s.tangent_vars, s.normal_vars, validated=True)


def normal_hessian(crit: Crit, s: SplittingData) -> tuple[PolyMatrix, bool]:
    """Normal-normal Hessian block over the family ring Q[x_T], with the
    non-degeneracy verdict (its determinant is a unit: a nonzero constant)."""
    if not s.validated:
        raise ValueError("splitting has not been validated")
    return crit._once(("normal_hessian", s.normal_vars), lambda: _normal_block(crit, s))


def _normal_block(crit: Crit, s: SplittingData) -> tuple[PolyMatrix, bool]:
    hess = hessian(crit).matrix
    block = PolyMatrix(
        tuple(
            tuple(_restrict(hess.entry(i, j), s) for j in s.normal_vars)
            for i in s.normal_vars
        )
    )
    # an empty block has arity 0, so its determinant is taken by hand
    det = block.det() if s.normal_vars else MultiPoly.one(crit.f.arity)
    return block, det.is_constant() and not det.is_zero()


def phi_comparison(
    crit: Crit, s: SplittingData, bound: int | None = None
) -> PhiComparisonReport:
    """Compare Crit(f) homology against the shifted cotangent model of the
    family: graded dimensions C(|T|, k) * hilbert(O_S, d), with the wedge
    generators placed at polynomial degree 0; O_S is Q[x_T].

    Within the bound, equality of the tables is equivalent to the normal
    Hessian block being non-degenerate; the report carries both sides so
    the biconditional can be asserted.
    """
    if not s.validated:
        raise ValueError("splitting has not been validated")
    n = crit.f.arity
    _, nondeg = normal_hessian(crit, s)
    try:
        report = crit.homology(bound)
    except BoundTooSmall:
        return PhiComparisonReport(
            bound=bound,
            crit_table={},
            model_table={},
            verdict="inconclusive",
            normal_hessian_nondegenerate=nondeg,
            mismatches=(),
        )
    bound, t = report.bound, len(s.tangent_vars)
    # monomials of degree d in the t tangent variables
    hilbert = [math.comb(d + t - 1, d) if t else int(d == 0) for d in range(bound + 1)]
    model = {k: tuple(math.comb(t, k) * h for h in hilbert) for k in range(n + 1)}
    crit_table = report.table
    mismatches = tuple(
        (k, d, crit_table[k][d], model[k][d])
        for k in range(n + 1)
        for d in range(bound + 1)
        if crit_table[k][d] != model[k][d]
    )
    if not report.sliceable:
        verdict = "inconclusive"
    else:
        verdict = "equal" if not mismatches else "unequal"
    return PhiComparisonReport(
        bound=bound,
        crit_table=crit_table,
        model_table=model,
        verdict=verdict,
        normal_hessian_nondegenerate=nondeg,
        mismatches=mismatches,
    )
