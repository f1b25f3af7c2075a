"""Integer polynomial helpers for the decomposition machinery.

Polynomials are lists of ints, lowest degree first, primitive, with a
positive leading coefficient: each stands for the rational polynomials it
is a multiple of, and a minimal polynomial and its factors need nothing
more. A random element of End (residue fields R, C, H) acts on a summand
by a scalar a + bi in Q(i), so nearly every minimal polynomial that
`decompose` factors is a product of x - a and x^2 - 2ax + a^2 + b^2.
`poly_factor` finds those from floating-point roots. The cofactor left
over, such as the irreducible quartic or sextic of an isotypic block, is
proved irreducible from its factor degrees modulo a few small primes, and
goes to sympy's Zassenhaus only when the primes cannot decide it. sympy is
imported at the first `poly_factor` call, not by `import biquiver`.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt


def _to_sympy(p: list[int]):
    from sympy import ZZ, Poly, Symbol

    return Poly.from_list(list(reversed(p)), Symbol("x"), domain=ZZ)


def _from_sympy(f) -> list[int]:
    return [int(c) for c in reversed(f.all_coeffs())]


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


def _exact_quotient(f: list[int], g: list[int] | tuple[int, ...]) -> list[int] | None:
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


# Primes q = 3 (mod 4) for `_certified_irreducible`. The quartics and
# sextics of isotypic blocks have i in their splitting field, and their
# roots fall into two conjugate halves that a Frobenius fixing i keeps
# apart: a prime p = 1 (mod 4) always leaves half the degree possible.
_PRIMES = (3, 7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83)


@lru_cache(maxsize=None)  # one entry per (degree, prime) met
def _slot_layout(n: int, q: int) -> tuple[int, int, int, int, int]:
    """s, m, w, the mask of bits s..w-1 and q in each of 2n slots, for _Residues."""
    bound = n * n * q ** 3
    s = (bound * q).bit_length()
    m = -(-(1 << s) // q)
    w = (bound * m).bit_length()
    ones = ((1 << 2 * n * w) - 1) // ((1 << w) - 1)
    return s, m, w, ones * ((1 << w) - (1 << s)), q * ones


class _Residues:
    """Polynomials over F_q reduced modulo a monic g of degree n >= 2. Each
    is an int that holds coefficient j in bits [jw, (j + 1)w), below q once
    reduced; up to 2n slots.

    `reduce` takes every slot v to v - q floor(v m / 2^s) with m =
    ceil(2^s / q), exact for v q < 2^s (Barrett). `mul` divides by g the
    same way: the quotient of p is floor(floor(p / x^n) mu / x^(n-2)) with
    mu = floor(x^(2n-2) / g), exact up to degree 2n - 2. No slot reaches
    n^2 q^3 before it is reduced, and w leaves room for its product with m.
    """

    def __init__(self, g: list[int], q: int):
        self.n, self.q = len(g) - 1, q
        self.s, self.m, self.w, self.floor_bits, self.q_slots = _slot_layout(self.n, q)
        self.slot = (1 << self.w) - 1
        self.g, self.neg_g = self.pack(g), self.pack([-c % q for c in g[:-1]])
        self.mu = self.divmod(1 << (2 * self.n - 2) * self.w, self.g)[0]

    def pack(self, coeffs: list[int]) -> int:
        return sum(c << j * self.w for j, c in enumerate(coeffs))

    def coefficients(self, a: int) -> list[int]:
        return [a >> j * self.w & self.slot for j in range(self.n)]

    def degree(self, a: int) -> int:
        """The degree of a reduced a; -1 for 0."""
        return (a.bit_length() - 1) // self.w

    def reduce(self, a: int) -> int:
        return a - self.q * ((a * self.m & self.floor_bits) >> self.s)

    def mul(self, a: int, b: int) -> int:
        """a b mod g, for a and b of degree below n."""
        n, w, p = self.n, self.w, a * b
        quot = self.reduce((p >> n * w) * self.mu >> (n - 2) * w)
        return self.reduce(p + quot * self.neg_g & (1 << n * w) - 1)

    def divmod(self, a: int, b: int) -> tuple[int, int]:
        """Quotient and remainder of a by a monic b, both reduced."""
        q, w, db = self.q, self.w, self.degree(b)
        minus_b, quot = (self.q_slots & (1 << (db + 1) * w) - 1) - b, 0
        for k in reversed(range(self.degree(a) - db + 1)):
            if c := (a >> (k + db) * w & self.slot) % q:
                quot |= c << k * w
                a += c * minus_b << k * w
        return quot, self.reduce(a & (1 << db * w) - 1)

    def gcd(self, a: int, b: int) -> int:
        """The monic gcd of a and a nonzero b, both reduced."""
        while b:
            b = self.reduce(b * pow(b >> self.degree(b) * self.w, -1, self.q))
            a, b = b, self.divmod(a, b)[1]
        return a


def _factor_degrees(f: list[int], q: int) -> list[int] | None:
    """The degrees of the irreducible factors of f mod q, by distinct-degree
    factorisation, or None when f mod q has a repeated factor (gcd(f, f')
    is not 1). q must not divide f's leading coefficient."""
    inv = pow(f[-1], -1, q)
    ring = _Residues([c * inv % q for c in f], q)
    # x^q from the left: x^(q >> k) is a monomial while q >> k < n
    top = next(k for k in range(q.bit_length() + 1) if q >> k < ring.n)
    x, xq = 1 << ring.w, 1 << (q >> top) * ring.w
    for k in reversed(range(top)):
        xq = ring.mul(xq, xq)
        if q >> k & 1:
            xq = ring.mul(xq, x)
    # h -> h^q is F_q-linear: h^q = sum of h_j x^(jq) for h of degree below n
    frobenius = [1, xq]
    while len(frobenius) < ring.n:
        frobenius.append(ring.mul(frobenius[-1], xq))
    degrees, rest, h, d = [], ring.g, x, 1
    while 2 * d <= ring.degree(rest):
        # with h = x^(q^d), gcd(h - x, rest) is the product of the distinct
        # factors of degree d, those of lower degree having been divided out
        # of rest; a factor of degree d still in rest after that is repeated
        h = ring.reduce(sum(c * row for c, row in zip(ring.coefficients(h), frobenius)))
        diff = ring.divmod(ring.reduce(h + (q - 1) * x), rest)[1]
        part = ring.gcd(rest, diff) if diff else rest
        if ring.degree(part):
            rest = ring.divmod(rest, part)[0]
            if ring.degree(rest) >= d and ring.degree(ring.gcd(rest, ring.divmod(diff, rest)[1])):
                return None
            degrees += [d] * (ring.degree(part) // d)
        d += 1
    return degrees + [ring.degree(rest)] if ring.degree(rest) else degrees


def _certified_irreducible(f: list[int]) -> bool:
    """Whether the factor degrees of the integer polynomial f of degree n >= 3
    modulo the primes in _PRIMES prove it irreducible over the rationals.

    A factorisation over Z (Gauss) reduces mod q to a union of the factors
    mod q. So a factor of degree k needs k among the subset sums of the
    factor degrees mod every q that does not divide the leading coefficient
    and leaves no repeated factor. True once no k in 1..n-1 is left; False
    proves nothing.
    """
    possible = (1 << len(f) - 1) - 2  # bit k: a factor of degree k is not ruled out
    for q in _PRIMES:
        degrees = _factor_degrees(f, q) if f[-1] % q else None
        if degrees is not None:
            sums = 1
            for k in degrees:
                sums |= sums << k
            possible &= sums
            if not possible:
                return True
    return False


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def poly_factor(f: list[int]) -> list[tuple[list[int], int]]:
    """Irreducible factorization over the rationals of a polynomial f.

    f and each factor are primitive integer polynomials with a positive
    leading coefficient. Returns (factor, multiplicity) pairs sorted by
    (degree, monic coefficients) so the result is deterministic. With
    c = f[-1], off f come: x^k; cx - u or c^2 x^2 - 2ucx + u^2 + v^2, over
    their content, for each root (u + vi)/c in Q(i), the algebraic integer
    u + vi rounded from c times a Durand-Kerner root; for pairs of real or
    conjugate roots, quadratics cx^2 - bx + e with b and e rounded and a
    non-square discriminant; a cofactor of degree 1, or 2 with a non-square
    discriminant, or 3 and up proved irreducible by `_certified_irreducible`.
    Each is irreducible and counts only as often as it divides f exactly, so
    rounding can only miss a factor. The cofactor goes to sympy only when
    the primes cannot decide it, and sympy finds what was missed.
    Irreducible factors in this form are unique: the result is sympy's for
    all of f.
    """
    import sympy  # noqa: F401 -- its one-time cost at the first call, not at a later Zassenhaus
    if len(f) < 2:
        return []
    k = next(i for i, a in enumerate(f) if a)
    c, rest = f[-1], f[k:]
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
    out = [([0, 1], k)] if k else []
    for g in dict.fromkeys(tuple(x // gcd(*g) for x in g) for g in candidates):
        mult = 0
        while (quot := _exact_quotient(rest, g)) is not None:
            rest, mult = quot, mult + 1
        if mult:
            out.append((list(g), mult))
    if (len(rest) == 2 or len(rest) == 3 and not _is_square(rest[1] ** 2 - 4 * rest[0] * rest[2])
            or len(rest) > 3 and _certified_irreducible(rest)):
        out.append((rest, 1))
    elif len(rest) > 2:
        _, factors = _to_sympy(rest).factor_list()
        out += [(_from_sympy(fac), int(mult)) for fac, mult in factors]
    out.sort(key=lambda fm: (len(fm[0]), [Fraction(a, fm[0][-1]) for a in fm[0]]))
    return out


def primary_cofactors(p: list[int], factors: list[tuple[list[int], int]]) -> list[list[int]]:
    """For p = prod f_j^m_j, as `poly_factor` gives it, the integer
    polynomial p / f_j^m_j, for each j: f_j^m_j divides p exactly over the
    integers (Gauss), one `_exact_quotient` per power.
    """
    out = []
    for f, mult in factors:
        quot = p
        for _ in range(mult):
            if (quot := _exact_quotient(quot, f)) is None:
                raise AssertionError("factor power does not divide the minimal polynomial")
        out.append(quot)
    return out
