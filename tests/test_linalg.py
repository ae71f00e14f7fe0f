from fractions import Fraction as F

import pytest

from critlocus import MultiPoly, PolyMatrix
from critlocus.linalg import (
    EchelonAccumulator,
    KernelTracker,
    invert,
    rank,
    rref,
)

from conftest import random_poly
from oracles import identity, is_symmetric, mat_mul, nullspace, transpose


def test_rref_pivots():
    reduced, pivots = rref([[F(0), F(2)], [F(1), F(1)]])
    assert pivots == [0, 1]
    assert reduced[0][0] == 1 and reduced[1][1] == 1


def test_rank_degenerate():
    assert rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert rank([]) == 0


def test_invert_round_trip():
    m = [[F(2), F(3)], [F(3), F(0)]]
    inv = invert(m)
    assert mat_mul(inv, m) == identity(2)
    assert invert([[F(1), F(1)], [F(1), F(1)]]) is None


def test_nullspace_vectors_annihilate():
    m = [[F(1), F(2), F(0)], [F(0), F(0), F(1)]]
    for v in nullspace(m, 3):
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0
    assert len(nullspace(m, 3)) == 1


def test_echelon_accumulator_streaming_rank():
    acc = EchelonAccumulator()
    assert acc.insert({0: F(1), 2: F(1)})
    assert not acc.insert({0: F(2), 2: F(2)})
    assert acc.insert({1: F(5)})
    assert acc.rank == 2
    assert acc.reduce({0: F(1), 1: F(5), 2: F(1)}) == {}


def test_insert_leaves_held_rows_unchanged():
    acc = EchelonAccumulator()
    acc.insert({0: F(1), 1: F(1), 2: F(3)})
    acc.insert({2: F(2)})
    held = dict(acc.rows)
    contents = {p: dict(row) for p, row in held.items()}
    # the new lead 1 sits in the tail of the row with pivot 0
    assert acc.insert({1: F(1), 2: F(1)})
    assert all(acc.rows[p] is row for p, row in held.items())
    assert {p: acc.rows[p] for p in held} == contents


def test_kernel_tracker_reports_dependencies():
    kt = KernelTracker()
    assert kt.insert({0: F(1)}) is None
    assert kt.insert({1: F(1)}) is None
    combo = kt.insert({0: F(3), 1: F(-2)})
    # col2 - 3*col0 + 2*col1 = 0
    assert combo == {0: F(-3), 1: F(2), 2: F(1)}


def test_poly_matrix_det_and_eval(rng):
    x = MultiPoly.variable(0, 2)
    y = MultiPoly.variable(1, 2)
    m = PolyMatrix(((2 * x, y), (y, x)))
    assert m.det() == 2 * x**2 - y**2
    assert is_symmetric(m)
    assert transpose(m).entries == m.entries


def test_poly_matrix_det_matches_numeric_det(rng):
    # determinant commutes with evaluation
    for _ in range(10):
        entries = tuple(
            tuple(random_poly(rng, 2, max_degree=2, terms=2) for _ in range(3))
            for _ in range(3)
        )
        m = PolyMatrix(entries)
        pt = [F(rng.randint(-3, 3)), F(rng.randint(-3, 3))]
        num = [[p.evaluate(pt) for p in row] for row in m.entries]
        det3 = (
            num[0][0] * (num[1][1] * num[2][2] - num[1][2] * num[2][1])
            - num[0][1] * (num[1][0] * num[2][2] - num[1][2] * num[2][0])
            + num[0][2] * (num[1][0] * num[2][1] - num[1][1] * num[2][0])
        )
        assert m.det().evaluate(pt) == det3


def test_poly_matrix_shape_checks():
    x = MultiPoly.variable(0, 1)
    with pytest.raises(ValueError):
        PolyMatrix(((x, x), (x,)))
    with pytest.raises(ValueError):
        PolyMatrix(((x, x),)).det()
