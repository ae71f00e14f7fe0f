"""The Koszul differential graded algebra Sym(T[1]) and its form calculus.

Generators and grading
----------------------
Over the polynomial ring in n variables we adjoin odd generators
``xi_0 .. xi_{n-1}`` (homological degree -1) and build the contraction
differential ``delta`` with ``delta(xi_i) = g_i``.  The coordinate de Rham
model adds form generators ``dx_i`` (degree 0, form weight 1) and
``dxi_i`` (degree -1, form weight 1).  Parity for Koszul signs is
(homological degree + form weight) mod 2, so ``xi`` and ``dx`` are odd
while ``dxi`` and polynomials are even; products of ``dxi`` generators are
symmetric and may repeat.

Sign normalization
------------------
The two differentials act on generators by

    delta: x -> 0,      xi_i -> g_i,  dx -> 0,  dxi_i -> sum_j (dg_i/dx_j) dx_j
    d:     x_i -> -dx_i, xi_i -> dxi_i, dx -> 0, dxi -> 0

Both are odd derivations.  The minus sign in d on the polynomial
generators is forced: it is the unique choice for which d^2 = delta^2 = 0
and d*delta + delta*d = 0 hold exactly while delta(dxi_i) carries the
Hessian pairing with a plus sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import accumulate, combinations
from math import lcm
from operator import add
from typing import Mapping, Sequence

from .groebner import (
    GroebnerBasis,
    buchberger,
    is_zero_dimensional,
    krull_dimension,
    quotient_basis,
)
from .linalg import (
    EchelonAccumulator,
    IntVector,
    KernelTracker,
    Vector,
)
from .polynomials import (
    ArityError,
    Monomial,
    MultiPoly,
    mono_degree,
    monomials_of_degree,
)

XiMonomial = tuple[int, ...]  # strictly increasing generator indices
FormMonomial = tuple[tuple[int, ...], tuple[int, ...]]  # (dx indices, dxi indices)


class BoundTooSmall(ValueError):
    """Homology degree bound below the minimal safe bound."""

    def __init__(self, bound: int, minimal: int):
        super().__init__(
            f"degree bound {bound} is below the minimal safe bound {minimal}"
        )
        self.bound = bound
        self.minimal = minimal


class EngineError(RuntimeError):
    """An internal cross-check failed; this must not occur."""


def _merge_odd(a: tuple[int, ...], b: tuple[int, ...]):
    """Merge two strictly increasing index tuples of odd generators.

    Returns (merged, sign) with the Koszul sign of the shuffle, or None
    when the factors overlap (odd square is zero).
    """
    if not a:
        return b, 1
    if not b:
        return a, 1
    sa, sb = set(a), set(b)
    if sa & sb:
        return None
    inversions = sum(1 for x in a for y in b if x > y)
    merged = tuple(sorted(a + b))
    return merged, (-1 if inversions % 2 else 1)


def _collect(accum: dict, key, value) -> None:
    """Add ``value`` into ``accum[key]``; zero sums are dropped on construction."""
    prev = accum.get(key)
    accum[key] = value if prev is None else prev + value


class _SparseElement:
    """Immutable finite map from canonical keys to nonzero coefficients.

    Coefficients share the element's arity and support ``+``, unary ``-``,
    ``scale`` and ``is_zero``; zero coefficients are dropped.  Subclasses
    supply the key check (``_key``) and the product.
    """

    __slots__ = ("terms", "arity")

    def __init__(self, terms: Mapping, arity: int):
        clean = {}
        for key, coeff in terms.items():
            if coeff.arity != arity:
                raise ArityError("coefficient arity does not match the algebra")
            key = self._key(key, arity)
            if not coeff.is_zero():
                clean[key] = coeff
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "arity", arity)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, arity: int):
        return cls({}, arity)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def _check(self, other) -> None:
        if self.arity != other.arity:
            raise ArityError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other):
        self._check(other)
        res = dict(self.terms)
        for key, coeff in other.terms.items():
            _collect(res, key, coeff)
        return type(self)(res, self.arity)

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()}, self.arity)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        return type(self)({k: c.scale(scalar) for k, c in self.terms.items()}, self.arity)


class CdgaElement(_SparseElement):
    """Element of the Koszul algebra: a map xi-monomial -> polynomial."""

    __slots__ = ()

    @staticmethod
    def _key(mono, arity: int) -> XiMonomial:
        if any(i < 0 or i >= arity for i in mono):
            raise ArityError(f"generator index out of range in {mono}")
        if list(mono) != sorted(set(mono)):
            raise ValueError(f"xi-monomial {mono} is not strictly increasing")
        return tuple(mono)

    # -- constructors --------------------------------------------------

    @classmethod
    def from_poly(cls, poly: MultiPoly) -> "CdgaElement":
        return cls({(): poly}, poly.arity)

    @classmethod
    def xi(cls, indices: Sequence[int], arity: int, coeff: MultiPoly | None = None) -> "CdgaElement":
        poly = coeff if coeff is not None else MultiPoly.one(arity)
        return cls({tuple(indices): poly}, arity)

    @classmethod
    def unit(cls, arity: int) -> "CdgaElement":
        return cls.from_poly(MultiPoly.one(arity))

    # -- arithmetic ------------------------------------------------------

    def __mul__(self, other):
        """Graded product; polynomials are central, xi generators anticommute."""
        if isinstance(other, MultiPoly):
            other = CdgaElement.from_poly(other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        res: dict[XiMonomial, MultiPoly] = {}
        for m1, p1 in self.terms.items():
            for m2, p2 in other.terms.items():
                merged = _merge_odd(m1, m2)
                if merged is None:
                    continue
                mono, sign = merged
                _collect(res, mono, p1 * p2 if sign == 1 else -(p1 * p2))
        return CdgaElement(res, self.arity)

    __rmul__ = __mul__

    def __repr__(self):
        if not self.terms:
            return "CdgaElement(0)"
        names = [f"x{i}" for i in range(self.arity)]
        bits = []
        for mono in sorted(self.terms):
            xi = "".join(f"xi{i}" for i in mono) or "1"
            bits.append(f"({self.terms[mono].to_string(names)})*{xi}")
        return "CdgaElement(" + " + ".join(bits) + ")"


def wedge(a: CdgaElement, b: CdgaElement) -> CdgaElement:
    """Graded-commutative product in the Koszul algebra."""
    return a * b


@dataclass(frozen=True)
class KoszulComplex:
    """(Sym T[1], contraction along g): odd generators with delta(xi_i) = g_i.

    The one record of the derived zero locus of g: a critical locus Crit(f)
    (g the partials of f) or the zero locus of a 1-form.  Its cached
    properties and ``homology`` compute each fact about the locus once.
    """

    arity: int
    diff_images: tuple[MultiPoly, ...]
    origin_tag: str = "custom"  # "critical_locus" | "one_form" | "custom"

    def __post_init__(self) -> None:
        if len(self.diff_images) != self.arity:
            raise ArityError("need one structure polynomial per generator")
        for g in self.diff_images:
            if g.arity != self.arity:
                raise ArityError("structure polynomial arity mismatch")

    def weights(self) -> tuple[int, ...]:
        """Polynomial weight of each xi generator: deg g_i, 0 for g_i = 0."""
        return tuple(max(g.total_degree(), 0) for g in self.diff_images)

    def is_weight_graded(self) -> bool:
        return all(g.is_zero() or g.is_homogeneous() for g in self.diff_images)

    @cached_property
    def basis(self) -> GroebnerBasis:
        """Grevlex Groebner basis of the ideal of the structure polynomials."""
        return buchberger(list(self.diff_images), arity=self.arity)

    @cached_property
    def dimension(self) -> int | None:
        """Krull dimension of R/J, J the ideal of the g_i; None for the empty locus."""
        return krull_dimension(self.basis)

    @cached_property
    def zero_dimensional(self) -> bool:
        """The locus is finitely many points or empty (the unit ideal)."""
        return is_zero_dimensional(self.basis)

    def homology(self, bound: int | None = None) -> HomologyReport:
        """``koszul_homology`` at ``bound`` (None: the default bound search),
        computed once per bound."""
        memo = self.__dict__.setdefault("_homology", {})
        if bound not in memo:
            memo[bound] = koszul_homology(self, bound)
        return memo[bound]

    @cached_property
    def jacobian(self) -> tuple[tuple[MultiPoly, ...], ...]:
        """dg_i/dx_j, row i for the structure polynomial g_i, column j for x_j."""
        return tuple(tuple(g.partial(j) for j in range(self.arity)) for g in self.diff_images)

    @cached_property
    def standard_monomials(self) -> list[Monomial]:
        """Staircase of the ideal: its standard monomials (zero-dimensional only)."""
        return quotient_basis(self.basis)

    @cached_property
    def staircase_degree(self) -> int:
        """Top degree of a standard monomial; 0 for the unit ideal."""
        return max(map(mono_degree, self.standard_monomials), default=0)


def koszul_differential(K: KoszulComplex, element: CdgaElement) -> CdgaElement:
    """Odd derivation with delta(xi_i) = g_i, zero on polynomials."""
    if element.arity != K.arity:
        raise ArityError("element does not live over this complex")
    res: dict[XiMonomial, MultiPoly] = {}
    for mono, poly in element.terms.items():
        for t, gen in enumerate(mono):
            g = K.diff_images[gen]
            if g.is_zero():
                continue
            _collect(res, mono[:t] + mono[t + 1 :], g * poly if t % 2 == 0 else -(g * poly))
    return CdgaElement(res, K.arity)


# ---------------------------------------------------------------------------
# coordinate de Rham model


class FormElement(_SparseElement):
    """Element of the form algebra: map (dx-monomial, dxi-monomial) -> CdgaElement.

    dx indices are strictly increasing (odd generators); dxi indices are
    non-decreasing with repetition allowed (even generators).
    """

    __slots__ = ()

    @staticmethod
    def _key(key, arity: int) -> FormMonomial:
        dx, dxi = key
        if list(dx) != sorted(set(dx)) or any(i < 0 or i >= arity for i in dx):
            raise ValueError(f"dx-monomial {dx} is not canonical")
        if list(dxi) != sorted(dxi) or any(i < 0 or i >= arity for i in dxi):
            raise ValueError(f"dxi-monomial {dxi} is not canonical")
        return (tuple(dx), tuple(dxi))

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_cdga(cls, coeff: CdgaElement) -> "FormElement":
        return cls({((), ()): coeff}, coeff.arity)

    @classmethod
    def from_poly(cls, poly: MultiPoly) -> "FormElement":
        return cls.from_cdga(CdgaElement.from_poly(poly))

    @classmethod
    def dx(cls, index: int, arity: int, coeff: MultiPoly | None = None) -> "FormElement":
        c = CdgaElement.from_poly(coeff if coeff is not None else MultiPoly.one(arity))
        return cls({(((index,)), ()): c}, arity)

    @classmethod
    def dxi(cls, index: int, arity: int) -> "FormElement":
        return cls({((), (index,)): CdgaElement.unit(arity)}, arity)

    # -- arithmetic --------------------------------------------------------

    def wedge(self, other: "FormElement") -> "FormElement":
        """Graded product.  Signs: xi and dx odd, dxi even."""
        self._check(other)
        # moving the xi factors of a right coefficient past an odd dx block
        # negates its odd-xi terms
        twisted = {
            key: CdgaElement({m: -p if len(m) % 2 else p for m, p in c.terms.items()}, self.arity)
            for key, c in other.terms.items()
        }
        accum: dict[FormMonomial, CdgaElement] = {}
        for (dx1, dxi1), c1 in self.terms.items():
            for (dx2, dxi2), c2 in other.terms.items():
                merged = _merge_odd(dx1, dx2)
                if merged is None:
                    continue
                dx, sign = merged
                product = c1 * (twisted[(dx2, dxi2)] if len(dx1) % 2 else c2)
                key = (dx, tuple(sorted(dxi1 + dxi2)))
                _collect(accum, key, product if sign == 1 else -product)
        return FormElement(accum, self.arity)

    __mul__ = wedge

    def __repr__(self):
        if not self.terms:
            return "FormElement(0)"
        bits = []
        for (dx, dxi) in sorted(self.terms):
            factors = [f"dx{i}" for i in dx] + [f"dxi{i}" for i in dxi]
            label = "^".join(factors) or "1"
            bits.append(f"[{self.terms[(dx, dxi)]!r}]*{label}")
        return "FormElement(" + " + ".join(bits) + ")"


def de_rham_and_internal(
    form: FormElement, K: KoszulComplex
) -> tuple[FormElement, FormElement]:
    """Apply both differentials to a form: returns (d form, delta form)."""
    if form.arity != K.arity:
        raise ArityError("form does not live over this complex")
    n = K.arity
    # form monomial -> xi-monomial -> polynomial coefficient
    d_out: dict[FormMonomial, dict[XiMonomial, MultiPoly]] = {}
    delta_out: dict[FormMonomial, dict[XiMonomial, MultiPoly]] = {}
    for (dx, dxi), coeff in form.terms.items():
        for xi, poly in coeff.terms.items():
            # --- de Rham d ---
            # polynomial part: d(p) = sum_j -(dp/dx_j) dx_j, created at the
            # front, moved right past the xi factors (each odd).
            front_sign = -1 if len(xi) % 2 else 1
            for j in range(n):
                dp = poly.partial(j)
                if dp.is_zero():
                    continue
                merged = _merge_odd((j,), dx)
                if merged is None:
                    continue
                new_dx, shuffle = merged
                sign = -1 * front_sign * shuffle
                _collect(d_out.setdefault((new_dx, dxi), {}), xi, dp if sign == 1 else -dp)
            # xi part: xi_i -> dxi_i (even, slides freely into the dxi block)
            for t, gen in enumerate(xi):
                new_dxi = tuple(sorted(dxi + (gen,)))
                _collect(
                    d_out.setdefault((dx, new_dxi), {}),
                    xi[:t] + xi[t + 1 :],
                    poly if t % 2 == 0 else -poly,
                )
            # --- internal delta ---
            # dxi part: dxi_i -> sum_j (dg_i/dx_j) dx_j, an odd factor created
            # past the xi and dx blocks.
            block_sign = -1 if (len(xi) + len(dx)) % 2 else 1
            for gen in sorted(set(dxi)):
                multiplicity = dxi.count(gen)
                reduced = list(dxi)
                reduced.remove(gen)
                new_dxi = tuple(reduced)
                for j, dg in enumerate(K.jacobian[gen]):
                    if dg.is_zero():
                        continue
                    merged = _merge_odd(dx, (j,))
                    if merged is None:
                        continue
                    new_dx, shuffle = merged
                    contrib = (dg * poly).scale(multiplicity)
                    _collect(
                        delta_out.setdefault((new_dx, new_dxi), {}),
                        xi,
                        contrib if block_sign * shuffle == 1 else -contrib,
                    )
        # xi part of delta: xi_i -> g_i, the Koszul differential of the coefficient
        for xi, poly in koszul_differential(K, coeff).terms.items():
            _collect(delta_out.setdefault((dx, dxi), {}), xi, poly)
    return (
        FormElement({key: CdgaElement(t, n) for key, t in d_out.items()}, n),
        FormElement({key: CdgaElement(t, n) for key, t in delta_out.items()}, n),
    )


# ---------------------------------------------------------------------------
# homology


@dataclass(frozen=True)
class HomologyReport:
    """Dimensions of the Koszul homology, per exterior degree k.

    ``table[k][d]`` is the jump at polynomial degree d (xi_i weighted by deg g_i)
    of the image of H_k(C^{<=d}) in H_k(C^{<=bound}), zero above the tabulated
    range.  ``sliceable``: the differential is weight-graded, so the entries
    are graded dimensions; otherwise they only filter the homology.  In finite
    mode ``dimensions`` holds the totals, and ``stabilized`` certifies them:
    H_0 has the staircase count of R/J and every H_k, k >= 1, is zero, as for
    a regular sequence.  ``homology_representatives`` gives one cycle per
    dimension.
    """

    mode: str  # "finite" | "hilbert"
    arity: int
    bound: int
    weights: tuple[int, ...]
    table: dict[int, tuple[int, ...]]
    sliceable: bool
    dimensions: dict[int, int] | None = None
    stabilized: bool | None = None


def default_homology_bound(K: KoszulComplex) -> int:
    """The first degree bound ``koszul_homology`` tries when none is given.

    Over a zero-dimensional ideal: s + max w, s the staircase degree.  The
    image of H(C^{<=s}) holds all of H_0, and max w further degrees give its
    boundaries room; for a graded complete intersection s = sum(w_i - 1) and
    this bound certifies.  max w guards the unit ideal.  Any other complex
    takes ``_widest_bound``.
    """
    top = minimal_safe_bound(K)
    if K.zero_dimensional:
        return max(top, K.staircase_degree + top)
    return _widest_bound(K)


def _widest_bound(K: KoszulComplex) -> int:
    """2 * n * (top weight, plus one for a critical locus): the hilbert-mode
    bound, and the last bound a finite search tries."""
    top = minimal_safe_bound(K)
    if K.origin_tag == "critical_locus":
        top += 1  # partials of f have degree deg(f) - 1
    return 2 * K.arity * max(1, top)


def minimal_safe_bound(K: KoszulComplex) -> int:
    """The top weight: the largest degree of a structure polynomial."""
    return max(K.weights(), default=0)


def _slice_basis(n: int, k: int, degree: int, weights: tuple[int, ...]):
    basis = []
    for subset in combinations(range(n), k):
        w = sum(weights[i] for i in subset)
        if w > degree:
            continue
        for mono in monomials_of_degree(n, degree - w):
            basis.append((subset, mono))
    return basis


def _integer_images(K: KoszulComplex) -> tuple[tuple[tuple[Monomial, int], ...], ...]:
    """The structure polynomials times the least common denominator of all
    their coefficients, as integer term lists.  Scaling every column by one
    constant changes no rank, kernel combination or normalised remainder."""
    den = lcm(*(c.denominator for g in K.diff_images for c in g.terms.values()))
    return tuple(
        tuple((m, c.numerator * (den // c.denominator)) for m, c in g.terms.items())
        for g in K.diff_images
    )


def _column(
    images, subset: tuple[int, ...], mono: Monomial, target_index: dict
) -> IntVector:
    """Sparse integer coordinates of delta(xi_subset * x^mono) in the target
    basis, with g_i given by ``images``.  No two terms share a target: the
    dropped generator fixes the xi part and the term of g_i the monomial."""
    col: IntVector = {}
    for t, gen in enumerate(subset):
        rest = subset[:t] + subset[t + 1 :]
        sign = 1 if t % 2 == 0 else -1
        for gm, gc in images[gen]:
            col[target_index[(rest, tuple(map(add, gm, mono)))]] = sign * gc
    return col


def _vector_to_cdga(vector: Vector, basis, n: int) -> CdgaElement:
    terms: dict[XiMonomial, dict] = {}
    for idx, coeff in vector.items():
        subset, mono = basis[idx]
        terms.setdefault(subset, {})[mono] = coeff
    return CdgaElement({s: MultiPoly(t, n) for s, t in terms.items()}, n)


def _reduce_cycles(cycles, image: EchelonAccumulator, basis, n: int, count: int):
    """Reduce cycle vectors against the boundary space; return representatives
    of the cycles that are independent modulo the boundaries.

    ``cycles`` is read lazily and only up to the ``count``-th representative:
    when the cycles span the cycle space and ``count`` is the homology
    dimension, no later cycle can be independent."""
    reps = []
    independent = EchelonAccumulator()
    # held rows never change, so both accumulators can share the boundary rows
    independent.rows.update(image.rows)
    for vec in cycles:
        reduced = image.reduce(vec)
        if reduced and independent.insert(reduced):
            lv = reduced[min(reduced)]
            reps.append(_vector_to_cdga({i: c / lv for i, c in reduced.items()}, basis, n))
            if len(reps) == count:
                break
    return reps


def _filtered_homology(
    K: KoszulComplex, weights: tuple[int, ...], bound: int, top: int, representatives: bool
):
    """Image of H_k(C^{<=d}) in H_k(C^{<=bound}) for d = 0..top, each k.

    The differential never raises the weighted degree, so the image is the
    cycles of C^{<=d} modulo B ∩ C^{<=d}, B the boundaries of C^{<=bound}
    (Lazard 1983, a Macaulay matrix).  Chains are indexed from the top degree
    down, so with smallest-index pivots the boundary rows whose lead has
    degree <= d span B ∩ C^{<=d}; the columns go in by ascending degree,
    which counts the cycles of degree <= d.  Table entries are the jumps of
    the image, zero above top.  With ``representatives`` the image at top gets
    one representative per dimension, with kernel combinations for k >= 1
    built only where it is nonzero; otherwise every list of them is empty.
    """
    n = K.arity
    images = _integer_images(K)
    degrees = range(bound + 1)
    slices = {k: [_slice_basis(n, k, d, weights) for d in degrees] for k in range(n + 2)}
    bases = {k: [key for d in reversed(degrees) for key in s[d]] for k, s in slices.items()}
    degree_of = {k: [d for d in reversed(degrees) for _ in s[d]] for k, s in slices.items()}
    indexes = {k: {key: i for i, key in enumerate(b)} for k, b in bases.items()}
    # cycles[k][d]: dimension of the cycles of degree <= d
    cycles, echelons = {}, {}
    for k in range(n + 2):
        echelons[k] = echelon = EchelonAccumulator()
        cycles[k] = list(accumulate(map(len, slices[k])))
        for d in degrees:
            for subset, mono in slices[k][d] if k else ():
                echelon.insert(_column(images, subset, mono, indexes[k - 1]))
            cycles[k][d] -= echelon.rank
    table: dict[int, list[int]] = {}
    reps: dict[int, list[CdgaElement]] = {k: [] for k in range(n + 1)}
    for k in range(n + 1):
        leads = [0] * (bound + 1)
        for p in echelons[k + 1].rows:
            leads[degree_of[k][p]] += 1
        image = [z - b for z, b in zip(cycles[k][: top + 1], accumulate(leads))]
        table[k] = [b - a for a, b in zip([0] + image, image)] + [0] * (bound - top)
        if not representatives or not image[top]:
            continue
        # the chains of degree <= top in the order their columns go in
        order = [indexes[k][key] for d in range(top + 1) for key in slices[k][d]]
        if k:
            tracker = KernelTracker()
            columns = (_column(images, *bases[k][i], indexes[k - 1]) for i in order)
            kernel = filter(None, map(tracker.insert, columns))
            found = ({order[j]: c for j, c in combo.items()} for combo in kernel)
        else:
            found = ({i: 1} for i in order)
        reps[k] = _reduce_cycles(found, echelons[k + 1], bases[k], n, image[top])
    return table, reps


def _check_hilbert_series(K: KoszulComplex, weights: tuple[int, ...], h0_row) -> None:
    """Third route for a graded finite report: the H_0 row, the Hilbert series
    prod_i (1 + t + ... + t^(w_i - 1)) of R/J and the staircase count per
    degree must agree up to the bound; a disagreement raises EngineError."""
    bound = len(h0_row) - 1
    series = [1] + [0] * bound
    for w in weights:  # times 1 + t + ... + t^(w-1); the empty sum for w = 0
        series = [sum(series[max(0, d - w + 1) : d + 1]) for d in range(bound + 1)]
    staircase = [0] * (bound + 1)
    for d in map(mono_degree, K.standard_monomials):
        if d <= bound:
            staircase[d] += 1
    if not list(h0_row) == series == staircase:
        raise EngineError(
            f"H_0 by degree {list(h0_row)}, Hilbert series {series} and staircase "
            f"{staircase} of the Jacobian ring disagree up to degree {bound}"
        )


def _check_depth(K: KoszulComplex, table) -> None:
    """Route B for a graded report: H_k(g; R) = 0 for k > n - grade J, and over
    a polynomial ring grade J = height J = n - dim R/J (Bruns-Herzog 1.6.17).
    So no H_k above the locus dimension is nonzero, and none for the empty
    locus; a nonzero one raises EngineError."""
    dim = K.dimension
    for k in range(0 if dim is None else dim + 1, K.arity + 1):
        if any(table[k]):
            where = "the locus is empty" if dim is None else f"the locus has dimension {dim}"
            raise EngineError(f"H_{k} is nonzero but {where}: depth sensitivity fails")


def koszul_homology(K: KoszulComplex, bound: int | None = None) -> HomologyReport:
    """Exact homology dimensions of (Sym T[1], contraction along g).

    Finite mode (zero-dimensional ideal): totals per exterior degree k, from
    the image of H(C^{<=top}) in H(C^{<=bound}), top = min(bound, staircase
    degree); ``homology_representatives`` gives cycles.  With no bound given,
    the bounds from ``default_homology_bound`` to ``_widest_bound`` are tried
    until one is stabilized.  The boundaries lie in J, so an H_0 image below the staircase
    count raises EngineError.  Otherwise hilbert mode, tabulated up to the bound.
    A sliceable report must also pass ``_check_depth``.
    """
    n = K.arity
    minimal = minimal_safe_bound(K)
    first = default_homology_bound(K) if bound is None else bound
    if first < minimal:
        raise BoundTooSmall(first, minimal)
    sliceable = K.is_weight_graded()
    weights = K.weights()
    finite = K.zero_dimensional
    last = max(first, _widest_bound(K)) if finite and bound is None else first
    extra = {}
    for bound in range(first, last + 1):
        top = min(bound, K.staircase_degree) if finite else bound
        table, _ = _filtered_homology(K, weights, bound, top, False)
        if not finite:
            break
        if sliceable:
            _check_hilbert_series(K, weights, table[0])
        totals = {k: sum(table[k]) for k in range(n + 1)}
        floor = sum(mono_degree(m) <= top for m in K.standard_monomials)
        if totals[0] < floor:
            raise EngineError(
                f"H_0 image {totals[0]} up to degree {top} is below the staircase count {floor}"
            )
        stabilized = list(totals.values()) == [len(K.standard_monomials)] + [0] * n
        extra = {"dimensions": totals, "stabilized": stabilized}
        if stabilized:
            break
    if sliceable:
        _check_depth(K, table)
    return HomologyReport(
        mode="finite" if finite else "hilbert",
        arity=n,
        bound=bound,
        weights=weights,
        table={k: tuple(v) for k, v in table.items()},
        sliceable=sliceable,
        **extra,
    )


def homology_representatives(
    K: KoszulComplex, report: HomologyReport
) -> dict[int, tuple[CdgaElement, ...]] | None:
    """One cycle per dimension of each H_k of ``report = koszul_homology(K, ...)``,
    independent modulo the boundaries; None for a hilbert-mode report.  The
    elimination of ``report`` is rerun at its bound, with kernel combinations."""
    if report.mode != "finite":
        return None
    top = min(report.bound, K.staircase_degree)
    _, reps = _filtered_homology(K, report.weights, report.bound, top, True)
    return {k: tuple(v) for k, v in reps.items()}
