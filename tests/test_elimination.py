"""Differential tests of the fraction-free elimination kernel.

Random sparse rational matrices, with negative and non-integer entries and
with zero, duplicated and rescaled columns, are fed to the streaming
accumulators and the dense routines; every answer is checked against the
textbook rank in ``oracles.py`` or against the defining property.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from critlocus.linalg import (
    EchelonAccumulator,
    KernelTracker,
    invert,
    rank,
    rref,
)

from oracles import dense_rank, identity, mat_mul, nullspace

NROWS = 5

scalars = st.fractions(min_value=-7, max_value=7, max_denominator=6)
nonzero = scalars.filter(bool)
fresh_columns = st.dictionaries(st.integers(0, NROWS - 1), nonzero, max_size=NROWS)


@st.composite
def column_lists(draw):
    """Columns as sparse vectors; some repeat, rescale or are zero."""
    cols = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "duplicate", "rescaled"]))
        if kind == "zero":
            cols.append({})
        elif kind in ("duplicate", "rescaled") and cols:
            source = draw(st.sampled_from(cols))
            factor = draw(nonzero) if kind == "rescaled" else 1
            cols.append({i: c * factor for i, c in source.items()})
        else:
            cols.append(draw(fresh_columns))
    return cols


def dense(vectors, width=NROWS):
    return [[v.get(i, F(0)) for i in range(width)] for v in vectors]


def combination(combo, cols):
    total = {}
    for j, c in combo.items():
        for i, x in cols[j].items():
            total[i] = total.get(i, 0) + c * x
    return {i: x for i, x in total.items() if x}


@settings(max_examples=60, deadline=None)
@given(column_lists())
def test_accumulator_rank_matches_dense_rank(cols):
    acc = EchelonAccumulator()
    increases = sum(acc.insert(v) for v in cols)
    assert acc.rank == increases == dense_rank(dense(cols))


@settings(max_examples=60, deadline=None)
@given(column_lists())
def test_kernel_tracker_combinations_annihilate(cols):
    kt = KernelTracker()
    for tag, v in enumerate(cols):
        combo = kt.insert(v)
        grew = dense_rank(dense(cols[: tag + 1])) > dense_rank(dense(cols[:tag]))
        assert (combo is None) == grew
        if combo is not None:
            assert combo[tag] == 1 and max(combo) == tag
            assert all(isinstance(c, F) and c for c in combo.values())
            assert combination(combo, cols) == {}
    assert kt.acc.rank == dense_rank(dense(cols))


@settings(max_examples=60, deadline=None)
@given(column_lists(), fresh_columns)
def test_reduce_leaves_a_non_pivot_lead_in_the_same_coset(cols, v):
    streamed, tracker = EchelonAccumulator(), KernelTracker()
    for col in cols:
        streamed.insert(col)
        tracker.insert(col)
    for acc in (streamed, tracker.acc):
        r = acc.reduce(v)
        assert all(isinstance(c, F) and c for c in r.values())
        assert not r or min(r) not in acc.rows
        difference = {i: v.get(i, 0) - r.get(i, 0) for i in set(v) | set(r)}
        assert dense_rank(dense(cols + [difference])) == acc.rank
        for col in cols:
            assert acc.reduce(col) == {}


@settings(max_examples=60, deadline=None)
@given(column_lists())
def test_dense_routines_satisfy_their_definitions(cols):
    m = dense(cols)
    reduced, pivots = rref(m)
    assert rank(m) == len(pivots) == dense_rank(m)
    assert len(reduced) == len(m) and all(len(row) == NROWS for row in reduced)
    for r, p in enumerate(pivots):
        assert reduced[r][p] == 1 and all(x == 0 for x in reduced[r][:p])
        assert all(reduced[s][p] == 0 for s in range(len(m)) if s != r)
    assert all(x == 0 for row in reduced[len(pivots):] for x in row)
    assert pivots == sorted(pivots)
    assert dense_rank(m + reduced[: len(pivots)]) == len(pivots)
    kernel = nullspace(m, NROWS)
    assert len(kernel) == NROWS - len(pivots)
    assert all(sum(a * b for a, b in zip(row, k)) == 0 for row in m for k in kernel)
    square = m[:NROWS] if len(m) >= NROWS else None
    if square is not None:
        inverse = invert(square)
        if dense_rank(square) == NROWS:
            assert mat_mul(inverse, square) == identity(NROWS)
        else:
            assert inverse is None


@settings(max_examples=30, deadline=None)
@given(column_lists())
def test_rank_matches_sympy(cols):
    sympy = pytest.importorskip("sympy")
    acc = EchelonAccumulator()
    for v in cols:
        acc.insert(v)
    expected = sympy.Matrix(dense(cols)).rank() if cols else 0
    assert acc.rank == expected
