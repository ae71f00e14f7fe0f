"""Sweep quadratic-times-monomial families and tabulate the equivalence.

For f = c * x^2 * y^e (normal x, tangent y) and friends, the shifted
cotangent comparison should come out equal exactly when the normal
Hessian block is a unit.  This script sweeps weights and coefficients and
prints the verdict table.

Usage: python scripts/family_sweep.py [--bound N]
"""

import argparse

from critlocus import (
    MultiPoly,
    SplittingData,
    build_crit,
    normal_hessian,
    phi_comparison,
    validate_splitting,
)


def instance_plane(c, e):
    x = MultiPoly.variable(0, 2)
    y = MultiPoly.variable(1, 2)
    return x**2 * y**e * c, [1], 2, f"{c}*x^2*y^{e}"


def instance_two_normals(c1, c2, e):
    x = MultiPoly.variable(0, 3)
    y = MultiPoly.variable(1, 3)
    z = MultiPoly.variable(2, 3)
    f = x**2 * y**e * c1 + z**2 * y**e * c2
    return f, [1], 3, f"{c1}*x^2*y^{e} + {c2}*z^2*y^{e}"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bound", type=int, default=8)
    args = parser.parse_args()

    rows = []
    for c in (1, 2, 3):
        for e in (0, 1, 2):
            rows.append(instance_plane(c, e))
    for c1, c2 in ((1, 1), (2, 3)):
        for e in (0, 1):
            rows.append(instance_two_normals(c1, c2, e))

    print(f"{'functional':34} {'Q nondeg':>9} {'comparison':>11} {'agree':>6}")
    for f, tangent, n, label in rows:
        crit = build_crit(f)
        split = validate_splitting(crit, SplittingData.from_tangent(tangent, n))
        _, nondeg = normal_hessian(crit, split)
        rep = phi_comparison(crit, split, args.bound)
        agree = (rep.verdict == "equal") == nondeg
        print(f"{label:34} {str(nondeg):>9} {rep.verdict:>11} {str(agree):>6}")
        assert agree, "equivalence criterion violated"
    print("\nall instances consistent")


if __name__ == "__main__":
    main()
