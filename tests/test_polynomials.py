import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import biquiver
from biquiver import decompose, direct_sum_list, morphisms, random_representation
from biquiver.polynomials import poly_factor, primary_cofactors
from conftest import biq, oracle_monic, primitive_form, random_base_change


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


def oracle_coprime_split(minpoly: list[int]) -> tuple[list[Fraction], list[Fraction]] | None:
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


# The sympy-only factorisation that `poly_factor` once returned, and its
# conversions through sympy.Rational and back to Fractions, kept verbatim.

def oracle_to_sympy(p: list[Fraction]):
    import sympy

    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p)],
                      sympy.Symbol("x"), domain="QQ")


def oracle_from_sympy(f) -> list[Fraction]:
    return [Fraction(int(c.numerator), int(c.denominator)) for c in reversed(f.all_coeffs())]


def oracle_poly_factor(p: list[Fraction]) -> list[tuple[list[Fraction], int]]:
    """Irreducible factorization over the rationals.

    Returns monic (factor, multiplicity) pairs sorted by (degree,
    coefficients) so the result is deterministic.
    """
    _, factors = oracle_to_sympy(p).factor_list()
    out = [(oracle_monic(oracle_from_sympy(fac)), int(mult)) for fac, mult in factors]
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return out


def oracle_primitive_factors(p: list[Fraction]) -> list[tuple[list[int], int]]:
    """`oracle_poly_factor` of p, each factor in the primitive integer form of `poly_factor`."""
    return [(primitive_form(f), mult) for f, mult in oracle_poly_factor(p)]


# -- tests ----------------------------------------------------------------------

def test_poly_factor_orders_by_degree_then_coefficients():
    # (x^2 + 1)^2 (x - 3)
    assert poly_factor([-3, 1, -6, 2, -3, 1]) == [([-3, 1], 1), ([1, 0, 1], 2)]


def test_poly_factor_orders_by_monic_coefficients():
    # (x + 1)(2x + 1): x + 1/2 comes before x + 1, though [1, 1] < [1, 2]
    assert poly_factor([1, 3, 2]) == [([1, 2], 1), ([1, 1], 1)]


coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=4)
nonconstant = st.lists(coefficients, min_size=2, max_size=4).filter(lambda p: p[-1] != 0)


@settings(deadline=None)
@given(nonconstant, nonconstant, st.integers(1, 3))
def test_primary_cofactors_match_euclid(a, b, k):
    # p = a^k b with gcd(a, b) = 1, rational a and b of degree 1 to 3
    a, b = oracle_monic(a), oracle_monic(b)
    assume(oracle_poly_xgcd(a, b)[0] == [1])
    m1 = [Fraction(1)]
    for _ in range(k):
        m1 = oracle_poly_mul(m1, a)
    p = primitive_form(oracle_poly_mul(m1, b))
    factors = poly_factor(p)
    cofactors = primary_cofactors(p, factors)
    assert len(cofactors) == len(factors)
    for (f, mult), cofactor in zip(factors, cofactors):
        power = [Fraction(1)]
        for _ in range(mult):
            power = oracle_poly_mul(power, f)
        quot, rem = oracle_poly_divmod(p, power)
        # the integer polynomial p / f^mult, primitive as p and f are
        assert not rem and all(type(c) is int for c in cofactor) and cofactor[-1] > 0
        assert cofactor == quot == primitive_form(quot)
    # the cofactor of the first factor power is the m2 of the binary split
    split = oracle_coprime_split(p)
    if split is not None:
        assert cofactors[0] == primitive_form(split[1])


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


def oracle_power(g: list, m: int) -> list:
    out = [1]
    for _ in range(m):
        out = oracle_poly_mul(out, g)
    return out


def assert_coprime_parts(f: list[int]) -> list[tuple[list[int], int]]:
    """`poly_factor(f)`, checked against the irreducible factors of the oracle:
    the parts multiply back to f with their multiplicities, are pairwise
    coprime, are irreducible when linear or quadratic, and each oracle factor
    power divides exactly one part, to its power."""
    parts = poly_factor(f)
    if len(f) < 2:  # a constant, or the empty list
        assert parts == []
        return parts
    back = [1]
    for g, mult in parts:
        assert all(type(c) is int for c in g) and g[-1] > 0 and math.gcd(*g) == 1
        back = oracle_poly_mul(back, oracle_power(g, mult))
    assert back == f
    for i, (g, _) in enumerate(parts):
        for h, _ in parts[i + 1:]:
            assert oracle_poly_xgcd(poly(*g), poly(*h))[0] == [1], parts
        if len(g) <= 3:
            assert oracle_primitive_factors(g) == [(g, 1)], g
    for factor, mult in oracle_primitive_factors(poly(*f)):
        owners = [oracle_power(g, m) for g, m in parts
                  if not any(oracle_poly_divmod(oracle_power(g, m), factor)[1])]
        assert len(owners) == 1, (factor, parts)
        assert not any(oracle_poly_divmod(owners[0], oracle_power(factor, mult))[1])
    return parts


# Two clustered-root products of Gaussian quadratics that Durand-Kerner does
# not separate (roots -116.83 +- 0.001i and -117 +- 0.001i; +-331i and
# +-330.9999987i), and the quartic of `tests/ledger/loopxxyy.json` at seed 0:
# two rational quadratics with real roots near 10^5 and a leading coefficient
# of 19 digits, so that c times a root is past 2^53.
CLUSTERED = [[186844568219438248901, 6392495983067660000, 82014688902000000, 467660000000000,
              1000000000000],
             [1659581119187159600644, 0, 30295107431867605, 0, 138256805241]]
LOOPXXYY_QUARTIC = [475612460153243989025324593918974571500, 3134643772734366525493384118553350,
                    -48690441259524730391812778230, -175629555725511706426223,
                    1498370745460198918]
# Repeated roots that Durand-Kerner settles on slowly, so that c times them
# is off by more than rounding forgives until Newton steps refine them:
# (3x + 7)^3 (3x + 8)^4, once left as one degree-7 part, and (3x - 2)(6x - 7)^4,
# whose quartic was once left whole.
REPEATED_ROOTS = [primitive_form(oracle_poly_mul(oracle_power(a, m), oracle_power(b, n)))
                  for a, m, b, n in (([7, 3], 3, [8, 3], 4), ([-2, 3], 1, [-7, 6], 4))]


@settings(deadline=None, max_examples=150)
@given(st.one_of(products.map(expand),
                 st.lists(st.integers(-20, 20), min_size=4, max_size=9).filter(
                     lambda f: f[-1]).map(lambda f: [Fraction(c) for c in f])))
# a double rational root that rounding misses, whose two approximations pair
# into (x - r)^2: the square discriminant must refuse it
@example(expand(([(poly(Fraction(18577, 10600), 1), 2)], 0)))
@example(expand(([(poly(Fraction(9207, 10019), 1), 2), (poly(3, 0, 1), 1)], 1)))
@example(poly(*CLUSTERED[0]))
@example(poly(*CLUSTERED[1]))
@example(poly(*LOOPXXYY_QUARTIC))
@example(poly(*REPEATED_ROOTS[0]))
@example(poly(*REPEATED_ROOTS[1]))
def test_poly_factor_matches_sympy_only_factorisation(p):
    # the parts are unions of sympy's factor powers
    assert_coprime_parts(primitive_form(p))


@settings(deadline=None, max_examples=150)
@given(products)
def test_poly_factor_multiplies_back_exactly(product):
    f = primitive_form(expand(product))
    back = [1]
    for g, mult in poly_factor(f):
        assert all(type(c) is int for c in g) and g[-1] > 0 and math.gcd(*g) == 1
        for _ in range(mult):
            back = oracle_poly_mul(back, g)
    assert back == f


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
    assert_coprime_parts(primitive_form(p))


# prod_{k=1..9} (x - k 10^40): its monic coefficients reach 9! 10^360, past a
# float, while its roots do not
FAR_LINEARS = primitive_form(expand(([(poly(-k * 10 ** 40, 1), 1) for k in range(1, 10)], 0)))


@pytest.mark.parametrize("f", [FAR_LINEARS,
                               primitive_form(oracle_poly_mul(poly(*FAR_LINEARS), poly(1, 0, 1)))])
def test_poly_factor_scales_x_when_the_monic_coefficients_overflow(f):
    with pytest.raises(OverflowError):
        [x / f[-1] for x in f]
    # the roots are found for a scaled x and scaled back: every factor comes
    # off, the 9 linear ones and x^2 + 1
    assert_factored_without_sympy(f)
    assert [len(g) for g, _ in poly_factor(f)] == [2] * 9 + [3] * (len(f) == 12)


def test_only_the_cofactor_is_left_whole():
    # x, the double root 1/3, the Gaussian pair of x^2 + 1, the conjugate
    # pair of x^2 + x + 1 and the real pairs of x^2 - 2 and x^2 - 3 come off
    # exactly; x^4 + 2 is left as one part, and so is its square
    low = [Fraction(0), Fraction(1)]
    for f in (poly(1, 0, 1), poly(1, 1, 1), poly(-2, 0, 1), poly(-3, 0, 1),
              [Fraction(1, 9), Fraction(-2, 3), Fraction(1)]):
        low = oracle_poly_mul(low, f)
    quartic = poly(2, 0, 0, 0, 1)
    for p in (low, oracle_poly_mul(low, quartic)):
        assert poly_factor(primitive_form(p)) == oracle_primitive_factors(p)
    squared = oracle_poly_mul(oracle_poly_mul(low, quartic), quartic)
    assert poly_factor(primitive_form(squared)) == oracle_primitive_factors(low) + [
        ([4, 0, 0, 0, 4, 0, 0, 0, 1], 1)]


def test_isotypic_cofactors_never_reach_sympy(monkeypatch):
    # three pairwise non-isomorphic parts give End = C^3 and a product of
    # three Gaussian quadratics; X + X gives M2(C) and a rational quartic,
    # left as one part: decompose answers as with sympy's factorisation
    g = biq(3, "a:1>2", "b:3~2")
    x, y, z = (random_representation(g, d, 2, seed)
               for d, seed in (((1, 1, 1), 1), ((1, 1, 0), 2), ((0, 1, 1), 3)))
    rng = random.Random(0)
    cases = [(random_base_change(rng, direct_sum_list(g, parts), bound=2), len(parts))
             for parts in ([x, y, z], [x, x])]
    with monkeypatch.context() as m:
        m.setattr(morphisms, "poly_factor", oracle_primitive_factors)
        expected = [decompose(rep, seed=0) for rep, _ in cases]
    for (rep, parts), dec in zip(cases, expected):
        assert decompose(rep, seed=0) == dec
        assert len(dec.summands) == parts


# The seven cofactors that went to sympy's Zassenhaus over one cli-rep-large
# pass at seeds 1 and 2 (4 and 3 of them) when their roots were only rounded
# from double precision: products of 2 or 3 rational quadratics with
# Gaussian-rational roots, leading coefficients of 60, 17, 12, 27, 22, 7 and
# 19 digits. All but the sixth reached sympy on their own; the third and the
# sixth are quartics left of the two sextic minimal polynomials after them.
NEAR_MISSES = [
    [29379176407083781205476913709344629158878364966479639134165805156535089535754569320,
     14977569098642969808536052302730400517159818481349194939872730378357122162683024,
     4330697481853800230382671457426745708126023218325925813419625011320584613854,
     732118505511533785049798537915974466058666524415990239665883420642085966,
     79396425092054927709381326228619388923635484265258723580208215625089,
     4754109924428181674950807356347798979998923642423359995124331746,
     119970891842701867067923595194303965896640390392328821608098],
    [140070153504821933434166969974402649093091752, 15372480579913675381527934628357627467500,
     853634950328697168663763025432203125, 27933092863971848914176035156250,
     529548834476090421386718750, 5344824451904296875000, 22247314453125000],
    [16717071793037364504635143310132, 1298477636708484433887671832, 22842049231276044003729,
     -160446043583801910, 331869318561],
    [251244068136778971353765832737491942640825164549460,
     -62372212980666561692949592525014946763825267908,
     14413919961390240137715539093937569836333349, -1727143659091268975428804298564710900758,
     174334406078246603641952991160446827, -9905468507730428244479598820810,
     371784328577818778056162658],
    [75679709744226334130894653920126464789289882417800,
     -6276138795385478241566879108078108885408334320,
     303992667070425628486536074804167951314702, -5837267131182351497118705252096638970,
     45425094726800428272256404397423, -198013597258525921709565936, 1595846275912470715849],
    [81397811666569817818546645, 4987620028019788171288, 124139671386729410, 1459181585400,
     6670125],
    [1675489180144071751649243640122767301162105, 1096852748031988681563987990157246395474,
     296915740173489944620224692990610333, 42536842476437490219399641838404,
     3401369881414835611416721124, 143940574470025218005120, 2518693250936409316],
    [1755909063876650490989620991649137668160, 345284568835427581314048070500573632,
     35342105925406220071389893048324, 1567059132076123308593828616, 20871973988442228866049,
     -156299004579063654, 331869318561],
    [144598842264736948574358561045886140020, 8989350129551314835084387388578828,
     407920859253012981508221526921, 13786766777200323539298960, 287891607332081242350,
     3228075361318500, 14707625625],
]


def assert_factored_without_sympy(f: list[int]) -> None:
    # every factor comes off the roots: none is left in a coprime part
    assert poly_factor(f) == oracle_primitive_factors([Fraction(c) for c in f])


# The loopxxyy quartic follows them: only the refined real pairs split it.
# The two products with repeated roots come last.
@pytest.mark.parametrize("f", NEAR_MISSES + [LOOPXXYY_QUARTIC] + REPEATED_ROOTS)
def test_recorded_near_misses_never_reach_sympy(f):
    assert_factored_without_sympy(f)


@st.composite
def gaussian_quadratic_products(draw):
    """Products of 2 or 3 rational quadratics with roots (u + vi) / c near one Gaussian
    integer and a leading coefficient of 12 to 25 digits: the kind the rounding
    missed. The roots, conjugates included, are at least 1/1000 of the largest one
    apart, as there (2% and more); tighter clusters may stay in one part (see CLUSTERED)."""
    n = draw(st.integers(2, 3))
    a, b = draw(st.integers(-10 ** 5, 10 ** 5)), draw(st.integers(-10 ** 5, 10 ** 5))
    spread = draw(st.integers(1, 10 ** 4))
    factors, roots = [], []
    for _ in range(n):
        c = draw(st.integers(10 ** (6 // n), 10 ** (13 // n)))
        u = a * c + draw(st.integers(-spread * c, spread * c))
        v = b * c + draw(st.integers(-spread * c, spread * c))
        assume(v)
        g = [u * u + v * v, -2 * u * c, c * c]
        factors.append([x // math.gcd(*g) for x in g])
        roots.append(complex(Fraction(u, c), Fraction(v, c)))
    roots += [z.conjugate() for z in roots]
    size = max(abs(z) for z in roots)
    assume(all(abs(z - w) >= size / 1000 for i, z in enumerate(roots) for w in roots[i + 1:]))
    f = [1]
    for g in factors:
        f = [int(x) for x in oracle_poly_mul(f, g)]
    assume(12 <= len(str(f[-1])) <= 25)
    return f


@settings(deadline=None, max_examples=200)
@given(gaussian_quadratic_products())
def test_gaussian_quadratic_products_never_reach_sympy(f):
    assert_factored_without_sympy(f)


def test_primary_cofactors_reject_a_non_factor():
    p = [-2, -1, 1]  # (x + 1)(x - 2)
    with pytest.raises(AssertionError, match="does not divide"):
        primary_cofactors(p, [([-3, 1], 1)])
    with pytest.raises(AssertionError, match="does not divide"):
        primary_cofactors(p, [([1, 1], 2)])


def test_import_leaves_sympy_unloaded():
    # importing the package and its CLI loads no sympy
    code = "import sys, biquiver, biquiver.cli; print('sympy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(biquiver.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout == "False\n"


def test_factoring_leaves_sympy_unloaded():
    # neither poly_factor nor a `python -m biquiver rep decompose` that
    # factors, real pairs included, imports sympy
    code = textwrap.dedent("""
        import contextlib, io, json, runpy, sys
        from biquiver.polynomials import poly_factor
        assert poly_factor([0, 2, 0, 2, 0, 1, 0, 1]) == [([0, 1], 1), ([1, 0, 1], 1),
                                                         ([2, 0, 0, 0, 1], 1)]
        ledger = sys.argv[1]
        for name in ("e6.s1.json", "loopxxyy.json"):
            sys.argv = ["biquiver", "rep", "decompose", f"{ledger}/{name}", "--seed", "0"]
            with contextlib.redirect_stdout(io.StringIO()) as out:
                try:
                    runpy.run_module("biquiver", run_name="__main__")
                except SystemExit as e:
                    assert e.code == 0, e.code
            assert len(json.loads(out.getvalue())["summands"]) > 1
        print('sympy' in sys.modules)
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(biquiver.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent / "ledger")],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "False\n"
