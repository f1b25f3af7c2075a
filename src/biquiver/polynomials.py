"""Rational polynomial helpers for the decomposition machinery.

Polynomials are lists of Fractions, lowest degree first. Factorization
over the rationals delegates to sympy (imported lazily); everything else
is straightforward exact arithmetic.
"""
from __future__ import annotations

from fractions import Fraction


def poly_normalize(p: list[Fraction]) -> list[Fraction]:
    """Strip trailing zeros and scale to a monic polynomial."""
    q = list(p)
    while q and not q[-1]:
        q.pop()
    if not q:
        return q
    lead = q[-1]
    if lead != 1:
        q = [c / lead for c in q]
    return q


def poly_mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return out


def poly_divmod(p: list[Fraction], d: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    d = [Fraction(c) for c in d]
    while d and not d[-1]:
        d.pop()
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in p]
    quot = [Fraction(0)] * max(len(rem) - len(d) + 1, 0)
    inv_lead = 1 / d[-1]
    for k in range(len(rem) - len(d), -1, -1):
        coef = rem[k + len(d) - 1] * inv_lead
        if coef:
            quot[k] = coef
            for j, dj in enumerate(d):
                rem[k + j] -= coef * dj
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def poly_xgcd(a: list[Fraction], b: list[Fraction]
              ) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    """Extended Euclid: returns (g, u, w) with u*a + w*b = g, g monic."""
    r0, r1 = list(a), list(b)
    u0, u1 = [Fraction(1)], []
    w0, w1 = [], [Fraction(1)]
    while any(r1):
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _poly_sub(u0, poly_mul(q, u1))
        w0, w1 = w1, _poly_sub(w0, poly_mul(q, w1))
    lead = r0[-1]
    if lead != 1:
        r0 = [c / lead for c in r0]
        u0 = [c / lead for c in u0]
        w0 = [c / lead for c in w0]
    return r0, u0, w0


def _poly_sub(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    n = max(len(p), len(q))
    out = [Fraction(0)] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] -= c
    while out and not out[-1]:
        out.pop()
    return out


def poly_factor(p: list[Fraction]) -> list[tuple[list[Fraction], int]]:
    """Irreducible factorization over the rationals.

    Returns monic (factor, multiplicity) pairs sorted by (degree,
    coefficients) so the result is deterministic.
    """
    import sympy

    x = sympy.Symbol("x")
    expr = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p)],
                      x, domain="QQ")
    _, factors = expr.factor_list()
    out = []
    for fac, mult in factors:
        coeffs = [Fraction(int(c.numerator), int(c.denominator))
                  for c in reversed(fac.all_coeffs())]
        out.append((poly_normalize(coeffs), int(mult)))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return out
