import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import biquiver
from biquiver.polynomials import poly_factor, poly_normalize, split_idempotent


# -- reference implementations ------------------------------------------------
# The hand-written Euclid that sympy's `div` and `invert` replaced, kept
# verbatim as differential oracles.

def oracle_poly_mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return out


def oracle_poly_divmod(p: list[Fraction], d: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
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


def oracle_poly_xgcd(a: list[Fraction], b: list[Fraction]
                     ) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    """Extended Euclid: returns (g, u, w) with u*a + w*b = g, g monic."""
    r0, r1 = list(a), list(b)
    u0, u1 = [Fraction(1)], []
    w0, w1 = [], [Fraction(1)]
    while any(r1):
        q, r = oracle_poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, oracle_poly_sub(u0, oracle_poly_mul(q, u1))
        w0, w1 = w1, oracle_poly_sub(w0, oracle_poly_mul(q, w1))
    lead = r0[-1]
    if lead != 1:
        r0 = [c / lead for c in r0]
        u0 = [c / lead for c in u0]
        w0 = [c / lead for c in w0]
    return r0, u0, w0


def oracle_poly_sub(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    n = max(len(p), len(q))
    out = [Fraction(0)] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] -= c
    while out and not out[-1]:
        out.pop()
    return out


def oracle_coprime_split(minpoly: list[Fraction]) -> tuple[list[Fraction], list[Fraction]] | None:
    """Split the minimal polynomial into two nonconstant coprime factors."""
    factors = poly_factor(minpoly)
    if len(factors) < 2:
        return None
    base, mult = factors[0]
    m1 = [Fraction(1)]
    for _ in range(mult):
        m1 = oracle_poly_mul(m1, base)
    m2, rem = oracle_poly_divmod(minpoly, m1)
    if any(rem):
        raise AssertionError("factor power does not divide the minimal polynomial")
    return m1, m2


def oracle_idempotent(m1, m2):
    """w m2 for the Bezout identity u m1 + w m2 = 1."""
    _, _, w = oracle_poly_xgcd(m1, m2)
    return oracle_poly_mul(w, m2)


# -- tests ----------------------------------------------------------------------

def test_poly_factor_orders_by_degree_then_coefficients():
    # (x^2 + 1)^2 (x - 3)
    p = [Fraction(c) for c in (-3, 1, -6, 2, -3, 1)]
    assert poly_factor(p) == [([Fraction(-3), Fraction(1)], 1),
                              ([Fraction(1), Fraction(0), Fraction(1)], 2)]


coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=4)
nonconstant = st.lists(coefficients, min_size=2, max_size=4).filter(lambda p: p[-1] != 0)


@settings(deadline=None)
@given(nonconstant, nonconstant, st.integers(1, 3))
def test_split_idempotent_matches_euclid(a, b, k):
    # p = a^k b with gcd(a, b) = 1, rational a and b of degree 1 to 3
    a, b = poly_normalize(a), poly_normalize(b)
    assume(oracle_poly_xgcd(a, b)[0] == [1])
    m1 = [Fraction(1)]
    for _ in range(k):
        m1 = oracle_poly_mul(m1, a)
    p = oracle_poly_mul(m1, b)
    e = split_idempotent(p, a, k)
    assert e == oracle_idempotent(m1, b)
    assert not oracle_poly_divmod(oracle_poly_sub(e, [Fraction(1)]), m1)[1]
    assert not oracle_poly_divmod(e, b)[1]
    assert len(e) < len(p)
    # the split that `_splitting_idempotent` takes: the first irreducible factor
    split = oracle_coprime_split(p)
    if split is not None:
        assert split_idempotent(p, *poly_factor(p)[0]) == oracle_idempotent(*split)


def test_split_idempotent_rejects_a_non_factor():
    p = [Fraction(c) for c in (-2, -1, 1)]  # (x + 1)(x - 2)
    with pytest.raises(AssertionError, match="does not divide"):
        split_idempotent(p, [Fraction(-3), Fraction(1)], 1)


def test_import_leaves_sympy_unloaded():
    # sympy is only needed once a minimal polynomial is factored
    code = "import sys, biquiver, biquiver.cli; print('sympy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(biquiver.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout == "False\n"
