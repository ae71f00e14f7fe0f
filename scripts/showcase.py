"""Walk the engine through its canonical desk examples and print a digest.

Usage: python scripts/showcase.py
"""

from fractions import Fraction

from critlocus import (
    INFINITE,
    MultiPoly,
    SplittingData,
    build_crit,
    lambda_equivalence_verdict,
    milnor_number,
    normal_hessian,
    omega_minus_one,
    one_form_closed,
    phi_comparison,
    point_report,
    validate_splitting,
    zero_locus_one_form,
)


def poly(text, names):
    from critlocus import parse_polynomial

    return parse_polynomial(text, names)


def show_critical(label, text, names, points=(), bound=None):
    f = poly(text, names)
    K = build_crit(f)  # Crit(f) as the Koszul complex of the partials
    mu = milnor_number(K)
    verdict = lambda_equivalence_verdict(K, bound)
    print(f"== {label}: f = {text} on ({', '.join(names)})")
    print(f"   strict locus: dimension {K.dimension}, "
          f"mu = {'infinite' if mu == INFINITE else mu}")
    print(f"   regular sequence: {verdict.regular}  [{verdict.criterion}]")
    rep = K.homology(bound)
    if rep.mode == "finite":
        dims = ", ".join(f"H{k} = {rep.dimensions[k]}" for k in sorted(rep.dimensions))
        print(f"   homology (finite): {dims}")
    else:
        for k in sorted(rep.table):
            if any(rep.table[k]):
                print(f"   graded dims H{k}: {list(rep.table[k])}")
    for pt in points:
        r = point_report(K, pt)
        if r.nondegenerate:
            alpha = [[str(c) for c in row] for row in r.alpha_matrix]
            print(f"   point {pt}: nondegenerate, inverse-Hessian map {alpha}")
        else:
            status = "on locus" if r.on_locus else "off locus"
            print(f"   point {pt}: {status}, degenerate (no fibration map)")
    print()


def show_family(label, text, names, tangent, bound=8):
    f = poly(text, names)
    index = {n: i for i, n in enumerate(names)}
    K = build_crit(f)
    split = validate_splitting(
        K, SplittingData.from_tangent([index[t] for t in tangent], len(names))
    )
    q, nondeg = normal_hessian(K, split)
    rep = phi_comparison(K, split, bound)
    print(f"== {label}: f = {text}, tangent {{{', '.join(tangent)}}}")
    q_str = [[q.entry(i, j).to_string(names) for j in range(q.ncols)] for i in range(q.nrows)]
    print(f"   normal Hessian block: {q_str}  nondegenerate: {nondeg}")
    print(f"   shifted-cotangent comparison: {rep.verdict} "
          f"(biconditional holds: {rep.biconditional_holds})")
    print()


def show_one_form(label, components, names):
    K = zero_locus_one_form([poly(c, names) for c in components])  # Z(alpha)
    closed = one_form_closed(K)
    internal_closed = omega_minus_one(K)
    print(f"== {label}: alpha = ({'; '.join(components)})")
    # a 1-form section is Lagrangian exactly when the form is closed
    print(f"   closed: {closed}, Lagrangian section: {closed}")
    print(f"   zero locus dimension: {K.dimension}")
    print(f"   pairing-form internal differential vanishes: {internal_closed}")
    print()


def main():
    show_critical("Morse point", "x^2+y^2+z^2", ["x", "y", "z"],
                  points=[(0, 0, 0)], bound=6)
    show_critical("A2 fat point", "x^3/3", ["x"], points=[(0,)])
    show_critical("cusp", "x^3 - y^2", ["x", "y"], points=[(0, 0)])
    show_critical("shifted cotangent of the plane (constant f)", "7", ["x", "y"], bound=4)
    show_family("nondegenerate family", "x^2", ["x", "y"], ["y"])
    show_family("degenerate family", "x^2*y", ["x", "y"], ["y"])
    show_one_form("closed 1-form", ["y", "x"], ["x", "y"])
    show_one_form("non-closed 1-form", ["y", "0"], ["x", "y"])


if __name__ == "__main__":
    main()
