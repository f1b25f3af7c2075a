"""Rational polynomial helpers for the decomposition machinery.

Polynomials are lists of Fractions, lowest degree first. Factorization and
the Chinese-remainder idempotent of a coprime split are done in sympy,
imported lazily so that `import biquiver` does not load it.
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


def _to_sympy(p: list[Fraction]):
    import sympy

    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p)],
                      sympy.Symbol("x"), domain="QQ")


def _from_sympy(f) -> list[Fraction]:
    return [Fraction(int(c.numerator), int(c.denominator)) for c in reversed(f.all_coeffs())]


def poly_factor(p: list[Fraction]) -> list[tuple[list[Fraction], int]]:
    """Irreducible factorization over the rationals.

    Returns monic (factor, multiplicity) pairs sorted by (degree,
    coefficients) so the result is deterministic.
    """
    _, factors = _to_sympy(p).factor_list()
    out = [(poly_normalize(_from_sympy(fac)), int(mult)) for fac, mult in factors]
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
