"""Integer polynomial helpers for the decomposition machinery.

Polynomials are lists of ints, lowest degree first, primitive, with a
positive leading coefficient: each stands for the rational polynomials it
is a multiple of, and a minimal polynomial and its factors need nothing
more. A random element of End (residue fields R, C, H) acts on a summand
by a scalar a + bi in Q(i), so nearly every minimal polynomial that
`decompose` factors is a product of x - a and x^2 - 2ax + a^2 + b^2.
`poly_factor` finds those from floating-point roots, read exactly into
fixed-point integers and rounded there, first as they are and then, on
the cofactor left, after Newton steps; every factor is confirmed by exact
division. `decompose` needs only coprime factor powers, as each block is
decomposed again and checked exactly. So the cofactor left over, such as
the irreducible quartic or sextic of an isotypic block, is one more
coprime part, neither proved irreducible nor factored further, and
nothing here imports sympy.
"""
from __future__ import annotations

from fractions import Fraction
from cmath import isfinite
from math import gcd, isqrt, ldexp


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


def _scaled_roots(f: list[int]) -> list[complex]:
    """`_approximate_roots` of f over its leading coefficient c, for when those
    coefficients overflow a float: the roots y of f(2^s y), scaled back to
    2^s y. s >= 1 is read off bit lengths so that |f_i / c| < 2^(s (n - i) + 1)
    for each i, so every monic coefficient of f(2^s y) is below 2 in size. A
    root past a float is left out, as it gives no factor, and so is every root
    when the search still overflows.
    """
    n, c = len(f) - 1, f[-1]
    s = max(1, *(-((c.bit_length() - x.bit_length()) // (n - i)) for i, x in enumerate(f[:-1])))
    try:
        roots = _approximate_roots([x / (c << s * (n - i)) for i, x in enumerate(f)])
        # ldexp(x, s) is finite for |x| < 2^(1024 - s)
        return [complex(ldexp(z.real, s), ldexp(z.imag, s)) for z in roots
                if abs(z) < 2.0 ** (1023 - s)]
    except OverflowError:
        return []


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


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


# The most Newton steps `_newton` takes from one start.
_NEWTON_STEPS = 12


def _fixed(x: float, k: int) -> int:
    """round(x 2^k), exactly: a finite float is a dyadic rational."""
    num, den = x.as_integer_ratio()
    return ((num << k) + den // 2) // den


def _newton(g: list[int], z: complex, k: int, tol: int, steps: int) -> tuple[int, int] | None:
    """A root (zr + i zi) / 2^k of the integer polynomial g, found by at most
    `steps` Newton steps from the finite z in fixed point with k bits after
    the point; None when g' vanishes on the way. The steps stop once one is
    below tol / 2^k: from a double-precision start near a simple root each
    step doubles the correct bits, so the last iterate is then within far
    less than tol / 2^k of the root.
    """
    c, zr, zi = g[-1], _fixed(z.real, k), _fixed(z.imag, k)
    for _ in range(steps):
        # Horner for g and g' at once, every product truncated back to k bits
        pr, pi, dr, di = c << k, 0, 0, 0
        for a in reversed(g[:-1]):
            dr, di = ((dr * zr - di * zi) >> k) + pr, ((dr * zi + di * zr) >> k) + pi
            pr, pi = ((pr * zr - pi * zi) >> k) + (a << k), (pr * zi + pi * zr) >> k
        norm = dr * dr + di * di
        if not norm:
            return None
        sr, si = ((pr * dr + pi * di) << k) // norm, ((pi * dr - pr * di) << k) // norm
        zr, zi = zr - sr, zi - si
        if abs(sr) + abs(si) < tol:
            break
    return zr, zi


def _refined_candidates(g: list[int], approx: list[complex], steps: int) -> list[tuple[int, ...]]:
    """The factors that the roots of the integer polynomial g give, read from
    the finite ones among `approx` at one common scale and refined there by
    `steps` steps of `_newton`.

    With c = g[-1] and 2^b past every |z|, the roots carry k = log2 c + 2b +
    40 bits after the point, so that reading a float loses nothing that c
    times it, or times the sum or the product of two, would round. The
    steps stop once c 2^b times one is below 2^-20, so that these are then
    within far less than 1/2 of their values. Each root gives the Gaussian
    factor of c times it rounded; each pair of roots whose sum and product
    round to reals, two real roots or a conjugate pair, gives cx^2 - bx + e
    with b and e those roundings.
    """
    c, starts = g[-1], [z for z in approx if isfinite(z)]
    b = max((int(abs(z)).bit_length() for z in starts), default=0)
    k = c.bit_length() + 2 * b + 40
    roots = [r for r in (_newton(g, z, k, 1 << b + 20, steps) for z in starts) if r]
    half, half2 = 1 << k - 1, 1 << 2 * k - 1
    candidates = [_gaussian_candidate(c, (c * zr + half) >> k, abs((c * zi + half) >> k))
                  for zr, zi in roots]
    for i, (ar, ai) in enumerate(roots):
        for br, bi in roots[i + 1:]:
            if not (c * (ai + bi) + half) >> k and not (c * (ar * bi + ai * br) + half2) >> 2 * k:
                candidates.append(((c * (ar * br - ai * bi) + half2) >> 2 * k,
                                   -((c * (ar + br) + half) >> k), c))
    return candidates


def _gaussian_candidate(c: int, u: int, v: int) -> tuple[int, ...]:
    """The factor that a root (u + vi) / c in Q(i) gives: cx - u, or
    c^2 x^2 - 2ucx + u^2 + v^2 for v != 0 (not yet over its content)."""
    return (u * u + v * v, -2 * u * c, c * c) if v else (-u, c)


def _divide_out(rest: list[int], candidates, out: list) -> list[int]:
    """rest with each candidate, over its content, divided out as often as it
    divides exactly; the factors that divide are appended to `out` with their
    multiplicities. A quadratic with a square discriminant is skipped, so
    each factor divided out is irreducible."""
    for g in dict.fromkeys(tuple(x // gcd(*g) for x in g) for g in candidates):
        if len(g) == 3 and _is_square(g[1] * g[1] - 4 * g[0] * g[2]):
            continue
        mult = 0
        while (quot := _exact_quotient(rest, g)) is not None:
            rest, mult = quot, mult + 1
        if mult:
            out.append((list(g), mult))
    return rest


def poly_factor(f: list[int]) -> list[tuple[list[int], int]]:
    """Pairwise coprime parts of a polynomial f, with the power of each in f.

    f and each part are primitive integer polynomials with a positive
    leading coefficient, and f is the product of the parts to their
    multiplicities. The (part, multiplicity) pairs are sorted by (degree,
    monic coefficients), so the result is deterministic. With c = f[-1],
    off f come, each divided out as often as it divides exactly: x^k; cx - u
    or c^2 x^2 - 2ucx + u^2 + v^2, over their content, for each root
    (u + vi)/c in Q(i), the algebraic integer u + vi rounded from c times a
    Durand-Kerner root; for pairs of real or conjugate roots, quadratics
    cx^2 - bx + e with b and e rounded from c times their sum and product.
    `_refined_candidates` rounds all of these in integers, from the roots
    read exactly into fixed point. When a cofactor of degree 3 and up is
    left, the same factors for its own leading coefficient come off the
    roots refined on it by _NEWTON_STEPS Newton steps; a root that does not
    settle, as in a cluster tighter than double precision resolves, gives
    nothing. A quadratic cofactor with rational roots splits into its two
    linear factors.

    Each factor found is irreducible (linear, or quadratic with a non-square
    discriminant) and counts only as often as it divides f exactly, so
    rounding can only miss a factor. What is left is one more part, with
    multiplicity 1, coprime to each found factor, as those were divided out
    fully: irreducible when it is linear or quadratic, possibly not when
    it has degree 3 and up, like the irreducible quartic or sextic of an
    isotypic block, or a product that the rounding missed.
    """
    if len(f) < 2:
        return []
    k = next(i for i, a in enumerate(f) if a)
    c, rest = f[-1], f[k:]
    try:
        approx = _approximate_roots([x / c for x in rest]) if len(rest) > 1 else []
    except OverflowError:
        approx = _scaled_roots(rest)
    out = [([0, 1], k)] if k else []
    rest = _divide_out(rest, _refined_candidates(rest, approx, 0), out)
    if len(rest) > 3:
        rest = _divide_out(rest, _refined_candidates(rest, approx, _NEWTON_STEPS), out)
    if len(rest) == 3 and _is_square(disc := rest[1] * rest[1] - 4 * rest[0] * rest[2]):
        # its roots (-b +- sqrt(disc)) / 2a are rational, the rounding missed them
        b, a2 = rest[1], 2 * rest[2]
        rest = _divide_out(rest, [(b - isqrt(disc), a2), (b + isqrt(disc), a2)], out)
    if len(rest) > 1:
        out.append((rest, 1))
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
