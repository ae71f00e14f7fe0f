"""A small exact polynomial algebra for building and checking benchmark inputs.

It is kept apart from the engine on purpose: the planted answers and the
strings sent to the command line must not come from the code under test.
A polynomial is a dict from exponent tuples to nonzero Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Poly = dict[tuple[int, ...], Fraction]


def const(c, n: int) -> Poly:
    c = Fraction(c)
    return {(0,) * n: c} if c else {}


def var(i: int, n: int) -> Poly:
    return {tuple(int(j == i) for j in range(n)): Fraction(1)}


def add(*polys: Poly) -> Poly:
    out: Poly = {}
    for p in polys:
        for m, c in p.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def scale(p: Poly, c) -> Poly:
    c = Fraction(c)
    return {m: v * c for m, v in p.items()} if c else {}


def mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def power(p: Poly, e: int, n: int) -> Poly:
    out = const(1, n)
    for _ in range(e):
        out = mul(out, p)
    return out


def partial(p: Poly, i: int) -> Poly:
    out: Poly = {}
    for m, c in p.items():
        if m[i]:
            out[m[:i] + (m[i] - 1,) + m[i + 1 :]] = c * m[i]
    return out


def evaluate(p: Poly, point: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for m, c in p.items():
        term = c
        for x, e in zip(point, m):
            if e:
                term *= x**e
        total += term
    return total


def hessian(p: Poly, n: int) -> list[list[Poly]]:
    firsts = [partial(p, i) for i in range(n)]
    return [[partial(firsts[i], j) for j in range(n)] for i in range(n)]


def render(p: Poly, names: Sequence[str]) -> str:
    """Polynomial text in the engine's grammar, highest degree first."""
    if not p:
        return "0"
    parts = []
    for m in sorted(p, key=lambda m: (sum(m), m), reverse=True):
        c = p[m]
        factors = [f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(m) if e]
        mag = abs(c)
        body = "*".join(([] if mag == 1 and factors else [str(mag)]) + factors)
        parts.append(("-" if c < 0 else "+") + body)
    text = "".join(parts)
    return text[1:] if text.startswith("+") else text
