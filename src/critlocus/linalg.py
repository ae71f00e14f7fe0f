"""Exact linear algebra over the rationals, plus polynomial matrices.

Elimination runs fraction-free (Bareiss 1968, integer-preserving Gaussian
elimination): rows are integer vectors, each step cancels a lead by
``v <- a*v - b*row`` with ``(a, b) = (row[lead], v[lead]) / gcd``, and the
common content is divided out so that coefficients stay small.  Inputs may
hold Fractions, whose denominators are cleared on the way in, and every
value returned is the same exact rational that elimination over the
rationals gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Sequence

from .polynomials import ArityError, MultiPoly

Vector = dict[int, Fraction]  # sparse, index -> nonzero coefficient
IntVector = dict[int, int]  # sparse, index -> nonzero integer
Matrix = list[list[Fraction]]


def _integral(vector: Vector) -> tuple[IntVector, int]:
    """(den * vector with integer entries, den) for the least such den."""
    den = lcm(*[c.denominator for c in vector.values()])
    if den == 1:
        return {i: c.numerator for i, c in vector.items() if c}, 1
    return {i: c.numerator * (den // c.denominator) for i, c in vector.items() if c}, den


def _combine(a: int, v: IntVector, b: int, row: IntVector) -> IntVector:
    """a*v - b*row without zero entries; v itself is updated when a is 1."""
    if a != 1:
        v = {i: a * x for i, x in v.items()}
    for i, x in row.items():
        s = v.get(i, 0) - b * x
        if s:
            v[i] = s
        else:
            del v[i]
    return v


def _eliminate(
    rows: dict[int, IntVector],
    v: IntVector,
    scale: int,
    combos: dict[int, IntVector] | None,
    combo: IntVector | None,
) -> tuple[IntVector, int, IntVector | None]:
    """Cancel the lead of v against ``rows`` until it is not a pivot.

    v stands for the rational vector v / scale.  Every step multiplies v,
    scale and combo by a and subtracts b times the pivot row from v and b
    times that row's combination (``combos``) from combo, then divides all
    three by their common content.  v / scale is therefore always the exact
    rational remainder, and the pivot rows are used with the same rational
    multipliers as in elimination over the rationals.
    """
    while v:
        lead = min(v)
        row = rows.get(lead)
        if row is None:
            break
        g = gcd(row[lead], v[lead])
        a, b = row[lead] // g, v[lead] // g
        v = _combine(a, v, b, row)
        scale *= a
        if combos is not None:
            combo = _combine(a, combo, b, combos[lead])
        if scale != 1:
            # a common factor must divide scale too, which keeps it an integer
            g = gcd(scale, *v.values(), *(combo.values() if combo else ()))
            if g != 1:
                scale //= g
                v = {i: x // g for i, x in v.items()}
                if combo:
                    combo = {i: x // g for i, x in combo.items()}
    return v, scale, combo


def _primitive(v: IntVector) -> IntVector:
    g = gcd(*v.values())
    return v if g == 1 else {i: x // g for i, x in v.items()}


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot columns (ascending); zero rows
    fill the bottom, so the shape is that of the input.  Each row is
    inserted once into one accumulator, whose echelon rows are then
    back-substituted."""
    m = [list(map(Fraction, row)) for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    acc = EchelonAccumulator()
    for row in m:
        acc.insert(dict(enumerate(row)))
    held, pivots = acc.rows, sorted(acc.rows)
    # from the last pivot up, each row is already clear of the later pivots
    # and clears its own pivot from the rows above it
    for i, p in reversed(list(enumerate(pivots))):
        row = held[p]
        for q in pivots[:i]:
            c = held[q].get(p)
            if c:
                g = gcd(row[p], c)
                held[q] = _primitive(_combine(row[p] // g, held[q], c // g, row))
    reduced = []
    for p in pivots:
        row = held[p]
        dense = [Fraction(0)] * ncols
        for j, c in row.items():
            dense[j] = Fraction(c, row[p])
        reduced.append(dense)
    reduced.extend([Fraction(0)] * ncols for _ in range(len(m) - len(pivots)))
    return reduced, pivots


def rank(rows: Matrix) -> int:
    return len(rref(rows)[1])


def invert(matrix: Matrix) -> Matrix | None:
    """Exact inverse, or None if the matrix is singular."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    aug = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    reduced, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in reduced[:n]]


class EchelonAccumulator:
    """Incrementally reduced row space of sparse rational vectors.

    Supports streaming rank computation and reduction of vectors against
    the accumulated space.  Pivot rule: smallest index.  Elimination is
    forward only: an inserted row is reduced against the rows already held
    and stored as a primitive integer vector, and a held row never changes
    afterwards.  Each row is a nonzero multiple of the row that forward
    elimination over the rationals would hold.
    """

    def __init__(self) -> None:
        self.rows: dict[int, IntVector] = {}  # pivot index -> integer row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vector: Vector) -> Vector:
        """Subtract rows until the lead is not a pivot; the exact remainder."""
        v, scale, _ = _eliminate(self.rows, *_integral(vector), None, None)
        return {i: Fraction(c, scale) for i, c in v.items()}

    def insert(self, vector: Vector) -> bool:
        """Add a vector to the space; True if it increased the rank."""
        v, _, _ = _eliminate(self.rows, *_integral(vector), None, None)
        if not v:
            return False
        self.rows[min(v)] = _primitive(v)
        return True


class KernelTracker:
    """Echelon accumulator that reports kernel combinations.

    ``insert`` returns None when the column was independent, otherwise the
    combination of previously inserted columns (by insertion index, with
    coefficient 1 on the new column) that witnesses the dependency.
    """

    def __init__(self) -> None:
        self.acc = EchelonAccumulator()
        # pivot index -> integer combination of inserted columns equal to the row
        self.combos: dict[int, IntVector] = {}
        self.count = 0

    def insert(self, vector: Vector) -> Vector | None:
        tag = self.count
        self.count += 1
        v, scale, combo = _eliminate(self.acc.rows, *_integral(vector), self.combos, {})
        if not v:
            combo = {i: Fraction(c, scale) for i, c in combo.items()}
            combo[tag] = Fraction(1)
            return combo
        combo[tag] = scale
        lead = min(v)
        self.acc.rows[lead] = v
        self.combos[lead] = combo
        return None


def point_evaluator(point: Sequence) -> Callable[[MultiPoly], Fraction]:
    """Values at the point; coordinates convert once, each x_i**e is computed once."""
    pt = [Fraction(x) for x in point]
    powers: dict[tuple[int, int], Fraction] = {}

    def value(p: MultiPoly) -> Fraction:
        total = Fraction(0)
        for mono, c in p.terms.items():
            for i, e in enumerate(mono):
                if e:
                    power = powers.get((i, e))
                    if power is None:
                        power = powers[(i, e)] = pt[i] ** e
                    c *= power
            total += c
        return total

    return value


@dataclass(frozen=True)
class PolyMatrix:
    """Rectangular grid of polynomials sharing one ambient ring."""

    entries: tuple[tuple[MultiPoly, ...], ...]

    def __post_init__(self) -> None:
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise ValueError("ragged polynomial matrix")
        arities = {p.arity for row in self.entries for p in row}
        if len(arities) > 1:
            raise ArityError("matrix entries do not share an arity")

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def arity(self) -> int:
        for row in self.entries:
            for p in row:
                return p.arity
        return 0

    def entry(self, i: int, j: int) -> MultiPoly:
        return self.entries[i][j]

    def det(self) -> MultiPoly:
        """Determinant by cofactor expansion; fine for small matrices."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        if n == 0:
            return MultiPoly.one(self.arity)

        def expand(rows: tuple[int, ...], cols: tuple[int, ...]) -> MultiPoly:
            if len(rows) == 1:
                return self.entries[rows[0]][cols[0]]
            total = MultiPoly.zero(self.arity)
            r = rows[0]
            rest = rows[1:]
            for pos, c in enumerate(cols):
                minor = expand(rest, cols[:pos] + cols[pos + 1 :])
                term = self.entries[r][c] * minor
                total = total + (term if pos % 2 == 0 else -term)
            return total

        return expand(tuple(range(n)), tuple(range(n)))
