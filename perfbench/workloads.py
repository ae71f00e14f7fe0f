"""Seeded request streams with planted answers, one per workload.

Each workload is a fixed cycle of input classes.  A class fixes the shape
of a request (subcommand, arity, degree, term structure, number of points);
the seed only picks coefficient values and planted points.  Coefficients
and point coordinates are positive, so no two terms of an expansion cancel
and the term structure, hence the cost, stays the same across seeds.

Every option value is passed in ``--opt=value`` form: the command line
rejects a space-separated value that starts with ``-`` (argparse reads it
as a flag), e.g. ``--f "-3*x^4"`` or ``--point "-1,0"``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Callable, Iterator

from polys import Poly, add, const, mul, partial, power, render, scale, var

NAMES = ("x", "y", "z", "w", "u", "v")


@dataclass(frozen=True)
class Request:
    """One command line and the answer planted in it."""

    argv: tuple[str, ...]
    label: str
    kind: str  # which oracle checks the report
    expect: dict


def _coef(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 99), rng.randint(1, 6))


def _coord(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 5), rng.randint(1, 3))


def _sheared(xs: list[Poly], shear: bool) -> list[Poly]:
    """The coordinates x_i -> x_i + x_{i+1} (the last one is unchanged)."""
    if not shear:
        return xs
    return [add(xs[i], xs[i + 1]) if i + 1 < len(xs) else xs[i] for i in range(len(xs))]


def _sum_of_powers(rng, n: int, d: int, shear: bool, shift=None) -> Poly:
    xs = [var(i, n) for i in range(n)]
    if shift is not None:
        xs = [add(x, const(-s, n)) for x, s in zip(xs, shift)]
    return add(*(scale(power(y, d, n), _coef(rng)) for y in _sheared(xs, shear)))


def _opts(command: str, names, **values) -> list[str]:
    argv = [command, "--vars=" + ",".join(names)]
    argv += [f"--{k}={v}" for k, v in values.items()]
    return argv + ["--format=json"]


def _point_arg(pt) -> str:
    return "--point=" + ",".join(str(c) for c in pt)


# -- isolated-graded --------------------------------------------------------


def isolated(n: int, d: int, shear: bool, with_point: bool):
    def build(rng: random.Random) -> Request:
        names = NAMES[:n]
        f = _sum_of_powers(rng, n, d, shear)
        argv = _opts("analyze", names, f=render(f, names))
        points = [(Fraction(0),) * n] if with_point else []
        argv += [_point_arg(p) for p in points]
        label = f"analyze n={n} d={d}{' sheared' if shear else ''}"
        expect = {"n": n, "d": d, "f": f, "mu": (d - 1) ** n, "points": points,
                  "on_locus": [True] * len(points)}
        return Request(tuple(argv), label, "isolated", expect)

    return build


# -- locus-points -----------------------------------------------------------


def locus(n: int, d: int, npoints: int):
    """A translated Morse (d = 2, sheared) or sum-of-powers functional whose
    only critical point is planted; one of the points sent lies on it."""

    def build(rng: random.Random) -> Request:
        names = NAMES[:n]
        centre = [_coord(rng) for _ in range(n)]
        f = _sum_of_powers(rng, n, d, shear=d == 2, shift=centre)
        points = [tuple(centre)]
        for k in range(npoints - 1):
            j = k % n
            step = Fraction(k // n + 1, 2)
            points.append(tuple(c + step if i == j else c for i, c in enumerate(centre)))
        rng.shuffle(points)
        on_locus = [p == tuple(centre) for p in points]
        argv = _opts("point", names, f=render(f, names)) + [_point_arg(p) for p in points]
        expect = {"n": n, "d": d, "f": f, "mu": (d - 1) ** n, "points": points,
                  "on_locus": on_locus}
        return Request(tuple(argv), f"point n={n} d={d}", "point", expect)

    return build


# -- families-oneforms -----------------------------------------------------


def family(tangent: int, normal: int, factor: tuple[int, ...] | None, bound: int):
    """Weight-graded family: a constant-coefficient normal quadratic form,
    optionally times a monomial in the tangent variables.  The normal
    Hessian is nondegenerate exactly when there is no tangent factor."""

    def build(rng: random.Random) -> Request:
        n = tangent + normal
        names = ("s", "t")[2 - tangent :] + ("y", "z")[:normal]
        ys = [var(tangent + j, n) for j in range(normal)]
        q = add(*(scale(mul(ys[i], ys[j]), _coef(rng))
                  for i in range(normal) for j in range(i, normal)))
        if normal == 2:
            # keep the form nondegenerate: b^2 != 4ac, with a, c drawn above
            a, c = q[(0,) * tangent + (2, 0)], q[(0,) * tangent + (0, 2)]
            b = q[(0,) * tangent + (1, 1)]
            if b * b == 4 * a * c:
                q = add(q, scale(mul(ys[0], ys[1]), 1))
        f = q
        if factor is not None:
            mono = const(1, n)
            for i, e in enumerate(factor):
                mono = mul(mono, power(var(i, n), e, n))
            f = mul(mono, q)
        tan = names[:tangent]
        argv = _opts("family", names, f=render(f, names), tangent=",".join(tan), bound=bound)
        label = f"family T={tangent} N={normal} {'factor' if factor else 'const'} b={bound}"
        return Request(tuple(argv), label, "family",
                       {"nondegenerate": factor is None, "tangent": list(tan)})

    return build


def oneform(n: int, closed: bool, graded: bool):
    """A closed form df or a form with a nonzero curl, graded or not."""

    def build(rng: random.Random) -> Request:
        names = NAMES[:n]
        xs = [var(i, n) for i in range(n)]
        if closed:
            # f = a x^3 + b x y^2 (+ c z^2 ...) (+ e x y when not graded)
            f = add(scale(power(xs[0], 3, n), _coef(rng)),
                    scale(mul(xs[0], power(xs[1], 2, n)), _coef(rng)),
                    *(scale(power(x, 2 if graded else 3, n), _coef(rng)) for x in xs[2:]))
            if not graded:
                f = add(f, scale(mul(xs[0], xs[1]), _coef(rng)))
            comps = [partial(f, i) for i in range(n)]
        else:
            # a_i = c_i x_{i+1}: curl c_1 - c_0 on (x, y) is made nonzero
            cs = [_coef(rng) for _ in range(n)]
            if cs[0] == cs[1]:
                cs[1] += 1
            comps = [scale(xs[(i + 1) % n], cs[i]) for i in range(n)]
            if not graded:
                comps[0] = add(comps[0], scale(power(xs[0], 2, n), _coef(rng)))
        alpha = ";".join(render(c, names) for c in comps)
        label = f"oneform n={n} {'closed' if closed else 'curl'} {'graded' if graded else 'ungraded'}"
        return Request(tuple(_opts("oneform", names, alpha=alpha)), label, "oneform",
                       {"closed": closed})

    return build


def ungraded_analyze(rng: random.Random) -> Request:
    """a x^3 + b y^3 + c x y: four simple critical points for any nonzero
    a, b, c, so mu = 4 and the partials form a regular sequence."""
    names = NAMES[:2]
    x, y = var(0, 2), var(1, 2)
    f = add(scale(power(x, 3, 2), _coef(rng)), scale(power(y, 3, 2), _coef(rng)),
            scale(mul(x, y), _coef(rng)))
    argv = _opts("analyze", names, f=render(f, names))
    return Request(tuple(argv), "analyze n=2 ungraded", "ungraded", {"n": 2, "mu": 4})


# -- the cycles ---------------------------------------------------------------
#
# Each cycle is laid out so that request_s.p50 and request_s.p90 fall inside
# one input class rather than on the border between two (see NOTES.md).

Builder = Callable[[random.Random], Request]


def _interleave(entries: list[tuple[int, Builder]]) -> list[Builder]:
    """Round-robin over the classes, each repeated its weight times."""
    pool = [[b] * w for w, b in entries]
    out: list[Builder] = []
    while any(pool):
        for bucket in pool:
            if bucket:
                out.append(bucket.pop())
    return out


CYCLES: dict[str, list[Builder]] = {
    "isolated-graded": _interleave([
        (1, isolated(2, 2, False, True)),
        (1, isolated(2, 3, False, False)),
        (1, isolated(2, 4, False, True)),
        (1, isolated(2, 5, False, False)),
        (1, isolated(2, 2, True, False)),
        (3, isolated(2, 3, True, True)),
        (4, isolated(2, 4, True, False)),
        (5, isolated(3, 2, False, True)),
        (2, isolated(2, 5, True, True)),
        (1, isolated(3, 3, False, False)),
    ]),
    "locus-points": _interleave([
        (2, locus(4, 3, 8)),
        (2, locus(5, 3, 6)),
        (2, locus(6, 3, 4)),
        (3, locus(4, 2, 8)),
        (2, locus(5, 2, 6)),
        (3, locus(6, 2, 4)),
    ]),
    "families-oneforms": _interleave([
        (1, family(1, 1, None, 4)),
        (1, family(1, 1, (1,), 4)),
        (1, family(1, 1, (2,), 6)),
        (1, family(2, 1, None, 4)),
        (1, family(2, 1, (1, 0), 4)),
        (1, oneform(2, False, True)),
        (1, oneform(2, True, True)),
        (1, oneform(2, False, False)),
        (2, oneform(3, False, True)),
        (2, family(1, 2, None, 4)),
        (1, oneform(2, True, False)),
        (1, family(1, 2, (1,), 6)),
        (5, ungraded_analyze),
        (1, oneform(3, True, True)),
    ]),
}


def stream(workload: str, seed: int) -> Iterator[Request]:
    """Endless request stream, the same for the same seed."""
    cycle = CYCLES[workload]
    rng = random.Random(f"{workload}:{seed}")
    for i in count():
        yield cycle[i % len(cycle)](rng)
