import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import biquiver
from biquiver import decompose, direct_sum_list, morphisms, random_representation
from biquiver.polynomials import (_PRIMES, _certified_irreducible, _factor_degrees, _from_sympy,
                                  _to_sympy, poly_factor, poly_normalize, primary_cofactors)
from conftest import biq, random_base_change


# -- reference implementations ------------------------------------------------
# The hand-written Euclid that sympy's `div` and `invert` replaced, kept
# verbatim as differential oracles; `oracle_coprime_split` and
# `oracle_idempotent` also give the binary split of the decompose oracle.

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


# The sympy-only factorisation that the root stages of `poly_factor` now
# front, and its conversion through sympy.Rational, kept verbatim.

def oracle_to_sympy(p: list[Fraction]):
    import sympy

    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p)],
                      sympy.Symbol("x"), domain="QQ")


def oracle_poly_factor(p: list[Fraction]) -> list[tuple[list[Fraction], int]]:
    """Irreducible factorization over the rationals.

    Returns monic (factor, multiplicity) pairs sorted by (degree,
    coefficients) so the result is deterministic.
    """
    _, factors = oracle_to_sympy(p).factor_list()
    out = [(poly_normalize(_from_sympy(fac)), int(mult)) for fac, mult in factors]
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return out


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
def test_primary_cofactors_match_euclid(a, b, k):
    # p = a^k b with gcd(a, b) = 1, rational a and b of degree 1 to 3
    a, b = poly_normalize(a), poly_normalize(b)
    assume(oracle_poly_xgcd(a, b)[0] == [1])
    m1 = [Fraction(1)]
    for _ in range(k):
        m1 = oracle_poly_mul(m1, a)
    p = oracle_poly_mul(m1, b)
    factors = poly_factor(p)
    cofactors = primary_cofactors(p, factors)
    assert len(cofactors) == len(factors)
    for (f, mult), cofactor in zip(factors, cofactors):
        power = [Fraction(1)]
        for _ in range(mult):
            power = oracle_poly_mul(power, f)
        quot, rem = oracle_poly_divmod(p, power)
        # an integer polynomial, a positive multiple of p / f^mult
        assert not rem and all(type(c) is int for c in cofactor) and cofactor[-1] > 0
        assert poly_normalize([Fraction(c) for c in cofactor]) == quot
    # the cofactor of the first factor power is the m2 of the binary split
    split = oracle_coprime_split(p)
    if split is not None:
        assert poly_normalize([Fraction(c) for c in cofactors[0]]) == split[1]


def poly(*coefficients) -> list[Fraction]:
    return [Fraction(c) for c in coefficients]


big = st.fractions(min_value=-10 ** 12, max_value=10 ** 12, max_denominator=10 ** 12)
small = st.integers(1, 50)
factor_kinds = st.one_of(
    # x^2 - 2ax + a^2 + b^2, roots a +- bi in Q(i)
    st.tuples(big, big.filter(bool)).map(lambda ab: [ab[0] ** 2 + ab[1] ** 2, -2 * ab[0], 1]),
    # x - r
    big.map(lambda r: [-r, 1]),
    # x^2 - d and x^2 + ex - d with real irrational roots when d is not a square
    small.map(lambda d: poly(-d, 0, 1)),
    st.tuples(small, small).map(lambda ed: poly(-ed[1], ed[0], 1)),
    # x^4 + k, and a Q(i)-quadratic x^2 - (s + ti)x + m times its conjugate
    small.map(lambda k: poly(k, 0, 0, 0, 1)),
    st.tuples(small, small, small).map(lambda stm: poly(
        stm[2] ** 2, -2 * stm[0] * stm[2], stm[0] ** 2 + stm[1] ** 2 + 2 * stm[2], -2 * stm[0], 1)),
)
products = st.tuples(st.lists(st.tuples(factor_kinds, st.integers(1, 3)), min_size=1, max_size=3),
                     st.integers(0, 3)).filter(
    lambda fs: sum((len(f) - 1) * m for f, m in fs[0]) <= 12)


def expand(product) -> list[Fraction]:
    """x^k times the factors of a `products` draw, each to its multiplicity."""
    factors, k = product
    p = [Fraction(0)] * k + [Fraction(1)]
    for f, m in factors:
        for _ in range(m):
            p = oracle_poly_mul(p, f)
    return p


@settings(deadline=None, max_examples=150)
@given(products)
# a double rational root that rounding misses, whose two approximations pair
# into (x - r)^2: the square discriminant must refuse it
@example(([(poly(Fraction(18577, 10600), 1), 2)], 0))
@example(([(poly(Fraction(9207, 10019), 1), 2), (poly(3, 0, 1), 1)], 1))
def test_poly_factor_matches_sympy_only_factorisation(product):
    p = expand(product)
    assert poly_factor(p) == oracle_poly_factor(p)


def integral(p: list[Fraction]) -> list[int]:
    c = math.lcm(*(a.denominator for a in p))
    return [int(a * c) for a in p]


@settings(deadline=None, max_examples=150)
@given(st.one_of(products.map(expand),
                 st.lists(st.integers(-20, 20), min_size=4, max_size=9).filter(
                     lambda f: f[-1]).map(lambda f: [Fraction(c) for c in f])))
def test_certificate_holds_only_for_irreducible_polynomials(p):
    factors = oracle_poly_factor(p)
    if len(p) > 3 and _certified_irreducible(integral(p)):
        assert len(factors) == 1 and factors[0][1] == 1, factors
    assert poly_factor(p) == factors


@settings(deadline=None, max_examples=150)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=3, max_size=11).filter(lambda f: f[-1]),
       st.sampled_from(_PRIMES), st.booleans())
def test_factor_degrees_match_sympy_mod_q(f, q, squared):
    # squares, and whatever else has a repeated factor mod q, give None
    from sympy import Poly, Symbol

    assume(f[-1] % q)
    f = [int(c) for c in oracle_poly_mul(f, f)] if squared else f
    _, factors = Poly(list(reversed(f)), Symbol("x"), modulus=q).factor_list()
    expected = sorted(g.degree() for g, _ in factors) if all(m == 1 for _, m in factors) else None
    degrees = _factor_degrees(f, q)
    assert (degrees if degrees is None else sorted(degrees)) == expected


M2C_QUARTIC = [5, -6, 6, -2, 1]   # x^2 - (1 + i)x + 2 + i times its conjugate


@pytest.mark.parametrize("f, certified", [
    ([1, 0, 0, 0, 1], False),                   # x^4 + 1 splits mod every prime
    ([4, 0, 0, 0, 4, 0, 0, 0, 1], False),       # (x^4 + 2)^2: repeated factors mod all
    ([1, 1, 0, 0, math.prod(_PRIMES)], False),  # every prime divides the lead
    (M2C_QUARTIC, True),
    ([6 * c for c in M2C_QUARTIC], True),       # content 6, and 3 divides the lead
    ([-2, 0, 0, 1], True),                      # the irreducible cubic x^3 - 2
])
def test_certificate_edge_cases(monkeypatch, f, certified):
    p = [Fraction(c) for c in f]
    expected = oracle_poly_factor(p)
    calls = counted_factor_lists(monkeypatch)
    assert _certified_irreducible(f) is certified
    assert poly_factor(p) == expected
    assert calls == ([] if certified else [len(f) - 1])


@pytest.mark.parametrize("p", [
    oracle_poly_mul(poly(-10 ** 400, 1), poly(1, 0, 1)),   # integer form overflows a float
    oracle_poly_mul([Fraction(-1, 10 ** 400), Fraction(1)], poly(1, 0, 1)),   # so does c
    oracle_poly_mul(poly(-10 ** 200, 1), [Fraction(-1, 10 ** 200), Fraction(1)]),
    # c = 1e150 times the roots 1e10 and 3 is finite, their product is not
    oracle_poly_mul(oracle_poly_mul([Fraction(-10 ** 160 - 1, 10 ** 150), Fraction(1)],
                                    poly(-3, 1)), poly(1, 0, 1)),
    poly(2, 3, 1), poly(5), poly(0, 0, 1), [],
])
def test_poly_factor_far_roots_and_degenerate_input(p):
    assert poly_factor(p) == oracle_poly_factor(p)


@pytest.mark.parametrize("p", [poly(1), poly(-3, 0, 1),
                               [Fraction(7, 3), Fraction(0), Fraction(-2, 5), Fraction(1)],
                               [Fraction(-10 ** 30 + 1, 10 ** 12), Fraction(5, 10 ** 40)]])
def test_to_sympy_builds_the_rational_poly(p):
    fast, slow = _to_sympy(p), oracle_to_sympy(p)
    assert fast == slow and fast.rep == slow.rep


def counted_factor_lists(monkeypatch) -> list[int]:
    """The degrees of the polynomials that sympy's factor_list sees from now on."""
    from sympy import Poly

    calls = []
    real_factor_list = Poly.factor_list

    def counting(f, *args, **kwargs):
        calls.append(f.degree())
        return real_factor_list(f, *args, **kwargs)

    monkeypatch.setattr(Poly, "factor_list", counting)
    return calls


def test_only_the_cofactor_reaches_sympy(monkeypatch):
    # x, the double root 1/3, the Gaussian pair of x^2 + 1, the conjugate
    # pair of x^2 + x + 1 and the real pairs of x^2 - 2 and x^2 - 3 come off
    # exactly; sympy sees only the quartic x^4 + 2
    low = [Fraction(0), Fraction(1)]
    for f in (poly(1, 0, 1), poly(1, 1, 1), poly(-2, 0, 1), poly(-3, 0, 1),
              [Fraction(1, 9), Fraction(-2, 3), Fraction(1)]):
        low = oracle_poly_mul(low, f)
    cases = [(low, []), (oracle_poly_mul(low, poly(2, 0, 0, 0, 1)), [4])]
    expected = [oracle_poly_factor(p) for p, _ in cases]
    calls = counted_factor_lists(monkeypatch)
    for (p, degrees), factors in zip(cases, expected):
        calls.clear()
        assert poly_factor(p) == factors
        assert calls == degrees


def test_isotypic_cofactors_never_reach_sympy(monkeypatch):
    # three pairwise non-isomorphic parts give End = C^3 and a product of
    # three Gaussian quadratics; X + X gives M2(C) and a rational quartic,
    # which the primes prove irreducible
    g = biq(3, "a:1>2", "b:3~2")
    x, y, z = (random_representation(g, d, 2, seed)
               for d, seed in (((1, 1, 1), 1), ((1, 1, 0), 2), ((0, 1, 1), 3)))
    rng = random.Random(0)
    cases = [(random_base_change(rng, direct_sum_list(g, parts), bound=2), len(parts))
             for parts in ([x, y, z], [x, x])]
    with monkeypatch.context() as m:
        m.setattr(morphisms, "poly_factor", oracle_poly_factor)
        expected = [decompose(rep, seed=0) for rep, _ in cases]
    calls = counted_factor_lists(monkeypatch)
    for (rep, parts), dec in zip(cases, expected):
        calls.clear()
        assert decompose(rep, seed=0) == dec
        assert len(dec.summands) == parts
        assert calls == [], calls


def test_primary_cofactors_reject_a_non_factor():
    p = [Fraction(c) for c in (-2, -1, 1)]  # (x + 1)(x - 2)
    with pytest.raises(AssertionError, match="does not divide"):
        primary_cofactors(p, [([Fraction(-3), Fraction(1)], 1)])
    with pytest.raises(AssertionError, match="does not divide"):
        primary_cofactors(p, [([Fraction(1), Fraction(1)], 2)])


def test_import_leaves_sympy_unloaded():
    # sympy is only needed once a minimal polynomial is factored
    code = "import sys, biquiver, biquiver.cli; print('sympy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(biquiver.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout == "False\n"


def test_first_poly_factor_imports_sympy():
    # the one-time import falls on the first factorisation, even one that
    # needs no Zassenhaus, and not on a later one
    code = ("import sys\nfrom fractions import Fraction\nimport biquiver\n"
            "from biquiver.polynomials import poly_factor\n"
            "loaded = 'sympy' in sys.modules\n"
            "assert poly_factor([Fraction(-1), Fraction(1)]) == [([-1, 1], 1)]\n"
            "print(loaded, 'sympy' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(biquiver.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout == "False True\n"
