"""Rational polynomial helpers for the decomposition machinery.

Polynomials are lists of Fractions, lowest degree first. A random element
of End (residue fields R, C, H) acts on a summand by a scalar a + bi in
Q(i), so nearly every minimal polynomial that `decompose` factors is a
product of x - a and x^2 - 2ax + a^2 + b^2. `poly_factor` finds those from
floating-point roots and leaves only the cofactor, such as the irreducible
quartic of an isotypic block, to sympy's Zassenhaus. sympy, imported lazily
so that `import biquiver` does not load it, also gives split idempotents.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm


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


def _to_sympy(p: list[Fraction]):
    from sympy import QQ, Poly, Symbol

    return Poly.from_list([QQ(c.numerator, c.denominator) for c in reversed(p)],
                          Symbol("x"), domain=QQ)


def _from_sympy(f) -> list[Fraction]:
    return [Fraction(int(c.numerator), int(c.denominator)) for c in reversed(f.all_coeffs())]


def _approximate_roots(a: list[float]) -> list[complex]:
    """Durand-Kerner roots of a monic a with a[0] != 0: at most 100 sweeps, until
    each step is below 1e-12 max(|root|, 1), a relative and an absolute stop."""
    n = len(a) - 1
    radius = max(abs(a[k]) ** (1 / (n - k)) for k in range(n))
    z = [radius * (0.4 + 0.9j) ** k for k in range(n)]
    for _ in range(100):
        settled = True
        for k, w in enumerate(z):
            value = den = 1
            for coef in reversed(a[:-1]):
                value = value * w + coef
            for j, y in enumerate(z):
                den *= w - y if j != k else 1
            step = value / den if den else 0
            z[k] = w - step
            settled = settled and den != 0 and abs(step) <= 1e-12 * max(abs(w), 1)
        if settled:
            break
    return z


def _exact_quotient(f: list[int], g: tuple[int, ...]) -> list[int] | None:
    """f / g, or None when g does not divide f; integral for primitive g (Gauss)."""
    m, f = len(g) - 1, list(f)
    quot = [0] * max(len(f) - m, 0)
    for k in reversed(range(len(quot))):
        quot[k], r = divmod(f[k + m], g[m])
        if r:
            return None
        for j in range(m):
            f[k + j] -= quot[k] * g[j]
    return quot if quot and not any(f[:m]) else None


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def poly_factor(p: list[Fraction]) -> list[tuple[list[Fraction], int]]:
    """Irreducible factorization over the rationals.

    Returns monic (factor, multiplicity) pairs sorted by (degree,
    coefficients) so the result is deterministic. With c the lcm of the
    denominators of the monic p, F = c p is primitive. Off F come: x^k;
    x - u/c or x^2 - 2(u/c)x + (u^2 + v^2)/c^2 for each root (u + vi)/c in
    Q(i), the algebraic integer u + vi rounded from c times a Durand-Kerner
    root; for pairs of real or conjugate roots, quadratics with coefficients
    rounded to multiples of 1/c and a non-square discriminant; a cofactor of
    degree 1, or 2 with a non-square discriminant. Each is irreducible and
    counts only as often as it divides F exactly, so rounding can only miss
    a factor, which sympy finds in the cofactor. Monic irreducible factors
    are unique: the result is sympy's for all of p.
    """
    q = poly_normalize(p)
    if len(q) < 2:
        return []
    k = next(i for i, a in enumerate(q) if a)
    c = lcm(*(a.denominator for a in q))
    rest = [int(a * c) for a in q[k:]]
    try:
        roots = [c * z for z in _approximate_roots([x / c for x in rest])] if len(rest) > 1 else []
    except OverflowError:
        roots = []
    roots = [w for w in roots if abs(w) < 2 ** 53]  # past 2^53 floats skip integers
    gaussian = [(round(w.real), abs(round(w.imag))) for w in roots]
    candidates = [(u * u + v * v, -2 * u * c, c * c) if v else (-u, c) for u, v in gaussian]
    for i, r in enumerate(roots):
        for t, n in ((r + s, r * s / c) for s in roots[i + 1:]):
            b, e = round(t.real), round(n.real)
            if abs(t.imag) < 0.5 and abs(n.imag) < 0.5 and not _is_square(b * b - 4 * c * e):
                candidates.append((e, -b, c))
    out = [([Fraction(0), Fraction(1)], k)] if k else []
    for g in dict.fromkeys(tuple(x // gcd(*g) for x in g) for g in candidates):
        mult = 0
        while (quot := _exact_quotient(rest, g)) is not None:
            rest, mult = quot, mult + 1
        if mult:
            out.append(([Fraction(x, g[-1]) for x in g], mult))
    if len(rest) == 2 or len(rest) == 3 and not _is_square(rest[1] ** 2 - 4 * rest[0] * rest[2]):
        out.append(([Fraction(x, rest[-1]) for x in rest], 1))
    elif len(rest) > 2:
        _, factors = _to_sympy([Fraction(x) for x in rest]).factor_list()
        out += [(poly_normalize(_from_sympy(fac)), int(mult)) for fac, mult in factors]
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return out


def split_idempotent(p: list[Fraction], factor: list[Fraction],
                     mult: int) -> list[Fraction]:
    """E with E = 1 mod m1 and E = 0 mod m2, where p = m1 m2 and m1 = factor**mult.

    m1 and m2 must be coprime. E = (m2^-1 mod m1) m2 has degree below
    deg p, the least such, and is unique modulo p.
    """
    m1 = _to_sympy(factor) ** mult
    m2, rem = _to_sympy(p).div(m1)
    if not rem.is_zero:
        raise AssertionError("factor power does not divide the minimal polynomial")
    return _from_sympy(m2.invert(m1) * m2)
