"""Shared builders and reference arithmetic for the test suite."""
from __future__ import annotations

import random
import re
from fractions import Fraction
from math import gcd, lcm

from biquiver import (Arrow, ArrowKind, Biquiver, CMatrix, FormatError, GaussianRational,
                      MatrixRepresentation, apply_base_change, gaussian)
from biquiver.errors import echo
from biquiver.elimination import _echelon, _integer_parts, _primitive
from biquiver.linalg import (_real_rows, _reduced, reduced_row_echelon, submatrix, transpose,
                             vstack)
from biquiver.scalars import _rational_parts, as_gaussian, format_rational


def primitive_row(row: list) -> list[int]:
    """The primitive integer multiple of a row of ints and Fractions, which has the
    row's solution set: the rows `fraction_nullspace` takes."""
    return _primitive(_integer_parts(row)[1])


def biq(t: int, *specs: str) -> Biquiver:
    """Compact biquiver builder: "a:1>2" is a full arrow, "a:1~2" dashed."""
    arrows = []
    for spec in specs:
        name, rest = spec.split(":")
        if ">" in rest:
            u, v = rest.split(">")
            kind = ArrowKind.FULL
        else:
            u, v = rest.split("~")
            kind = ArrowKind.DASHED
        arrows.append(Arrow(name, int(u), int(v), kind))
    return Biquiver(t, tuple(arrows))


def path_biquiver(t: int, dashed: tuple[int, ...] = ()) -> Biquiver:
    """Path 1 -> 2 -> ... -> t; edge i (1-based) is dashed when listed."""
    arrows = []
    for i in range(1, t):
        kind = ArrowKind.DASHED if i in dashed else ArrowKind.FULL
        arrows.append(Arrow(f"e{i}", i, i + 1, kind))
    return Biquiver(t, tuple(arrows))


def cycle_biquiver(r: int, dashed: tuple[int, ...] = ()) -> Biquiver:
    """Cycle on r vertices; arrow i joins i to i+1, arrow r closes r -> 1."""
    arrows = []
    for i in range(1, r):
        kind = ArrowKind.DASHED if i in dashed else ArrowKind.FULL
        arrows.append(Arrow(f"e{i}", i, i + 1, kind))
    kind = ArrowKind.DASHED if r in dashed else ArrowKind.FULL
    arrows.append(Arrow(f"e{r}", r, 1, kind))
    return Biquiver(r, tuple(arrows))


def star_biquiver(branches: list[int], dashed: tuple[str, ...] = ()) -> Biquiver:
    """Star with center 1 and branch lengths as given; arrows point outward."""
    t = 1 + sum(branches)
    arrows = []
    nxt = 2
    for b, length in enumerate(branches):
        prev = 1
        for k in range(length):
            name = f"b{b}e{k}"
            kind = ArrowKind.DASHED if name in dashed else ArrowKind.FULL
            arrows.append(Arrow(name, prev, nxt, kind))
            prev = nxt
            nxt += 1
    return Biquiver(t, tuple(arrows))


def dynkin_and_extended(max_t: int = 9):
    """(label, biquiver) for every Dynkin and extended Dynkin diagram with
    at most max_t vertices."""
    return ((label, g) for label, g in _diagrams(max_t) if g.t <= max_t)


def _diagrams(max_t: int):
    for t in range(1, max_t + 1):
        yield f"A{t}", path_biquiver(t)
    for t in range(4, max_t + 1):
        yield f"D{t}", star_biquiver([1, 1, t - 3])
    for label, branches in [("E6", [1, 2, 2]), ("E7", [1, 2, 3]), ("E8", [1, 2, 4]),
                            ("~E6", [2, 2, 2]), ("~E7", [1, 3, 3]), ("~E8", [1, 2, 5])]:
        yield label, star_biquiver(branches)
    yield "~A0", biq(1, "a:1>1")
    yield "~A1", biq(2, "a:1>2", "b:2~1")
    for r in range(3, max_t + 1):
        yield f"~A{r - 1}", cycle_biquiver(r)
    yield "~D4", star_biquiver([1, 1, 1, 1])
    # ~D(k+3): two-leaf forks at both ends of the path 1 .. k
    for k in range(2, max_t - 3):
        specs = [f"p{i}:{i}>{i + 1}" for i in range(1, k)]
        specs += [f"l1:1>{k + 1}", f"l2:1~{k + 2}", f"l3:{k}>{k + 3}", f"l4:{k + 4}>{k}"]
        yield f"~D{k + 3}", biq(k + 4, *specs)


def opposite(g: Biquiver) -> Biquiver:
    """g with every arrow reversed, its id, kind and place in the list kept."""
    return Biquiver(g.t, tuple(Arrow(a.id, a.target, a.source, a.kind) for a in g.arrows))


def dual(x: MatrixRepresentation) -> MatrixRepresentation:
    """The dual DX, a representation of `opposite(x.biquiver)`: the dual space at
    each vertex, in the dual basis, so that a full arrow's matrix A becomes its
    transpose and a dashed arrow's its conjugate transpose. D(DX) = X, and
    S -> S^T (vertexwise) carries Hom(X, Y) onto Hom(DY, DX)."""
    mats = {}
    for a in x.biquiver.arrows:
        m = transpose(x.matrices[a.id])
        mats[a.id] = m.conj() if a.is_dashed else m
    return MatrixRepresentation(opposite(x.biquiver), x.dims, mats)


def mat(*rows) -> CMatrix:
    """Matrix literal over ints/Fractions; mat([1, 2], [3, 4])."""
    return CMatrix.from_rows(list(rows))


def gmat(*rows) -> CMatrix:
    """Matrix literal of (re, im) pairs; gmat([(0, 1)]) is [i]."""
    return CMatrix.from_rows([[gaussian(re, im) for re, im in row] for row in rows])


def random_biquiver(rng: random.Random, max_t: int = 3, max_arrows: int = 3) -> Biquiver:
    t = rng.randint(1, max_t)
    n = rng.randint(1, max_arrows)
    arrows = []
    for k in range(n):
        u, v = rng.randint(1, t), rng.randint(1, t)
        kind = rng.choice((ArrowKind.FULL, ArrowKind.DASHED))
        arrows.append(Arrow(f"a{k}", u, v, kind))
    return Biquiver(t, tuple(arrows))


def random_invertible(rng: random.Random, n: int, bound: int = 3) -> CMatrix:
    """Random invertible matrix with small Gaussian-rational entries."""
    while True:
        m = CMatrix(n, n, tuple(
            gaussian(Fraction(rng.randint(-bound, bound)),
                     Fraction(rng.randint(-bound, bound)))
            for _ in range(n * n)))
        if m.is_invertible():
            return m


def random_unimodular(rng: random.Random, n: int) -> CMatrix:
    """L U with L unit lower and U unit upper triangular, and Gaussian-integer
    entries in [-2, 2] off the diagonal: invertible over Z[i]."""
    def entry():
        return gaussian(rng.randint(-2, 2), rng.randint(-2, 2))

    one, zero = gaussian(1), gaussian(0)
    lower = CMatrix(n, n, [one if i == j else entry() if i > j else zero
                           for i in range(n) for j in range(n)])
    upper = CMatrix(n, n, [one if i == j else entry() if i < j else zero
                           for i in range(n) for j in range(n)])
    return lower @ upper


def random_base_change(rng: random.Random, rep: MatrixRepresentation,
                       bound: int = 3) -> MatrixRepresentation:
    s = [random_invertible(rng, d, bound) for d in rep.dims]
    return apply_base_change(rep, s)


def similar_small_oracle(m: CMatrix, n: CMatrix) -> bool:
    """Exact similarity test for sizes <= 2: equal characteristic polynomial
    and the same scalar-or-not Jordan structure."""
    assert m.rows <= 2 and m.is_square and n.is_square
    if m.rows != n.rows:
        return False
    if m.rows <= 1:
        return m == n
    tr_m, det_m = m.at(0, 0) + m.at(1, 1), m.at(0, 0) * m.at(1, 1) - m.at(0, 1) * m.at(1, 0)
    tr_n, det_n = n.at(0, 0) + n.at(1, 1), n.at(0, 0) * n.at(1, 1) - n.at(0, 1) * n.at(1, 0)
    if (tr_m, det_m) != (tr_n, det_n):
        return False

    def is_scalar(x: CMatrix) -> bool:
        return not x.at(0, 1) and not x.at(1, 0) and x.at(0, 0) == x.at(1, 1)

    return is_scalar(m) == is_scalar(n)


def consimilar_necessary_invariant(m: CMatrix, n: CMatrix) -> bool:
    """Necessary condition: m conj(m) similar to n conj(n) (sizes <= 2)."""
    return similar_small_oracle(m @ m.conj(), n @ n.conj())


def oracle_is_identity(m: CMatrix) -> bool:
    """Whether m is a square identity matrix, as `CMatrix.is_identity` once said."""
    return m.is_square and m == CMatrix.identity(m.rows)


def oracle_scale(m: CMatrix, s) -> CMatrix:
    """s times m, for s an int, Fraction or GaussianRational, as `CMatrix.scale` gave it."""
    s = as_gaussian(s)
    den, (sr, si) = _integer_parts([s.re, s.im])
    if si:
        re = tuple(sr * x - si * y for x, y in zip(m.re, m.im))
        im = tuple(sr * y + si * x for x, y in zip(m.re, m.im))
    else:
        re = tuple(sr * x for x in m.re)
        im = tuple(sr * y for y in m.im)
    return _reduced(m.rows, m.cols, den * m.den, re, im)


def oracle_norm2(z: GaussianRational) -> Fraction:
    """Squared modulus re^2 + im^2, an exact rational."""
    return z.re * z.re + z.im * z.im


def oracle_divide(a: GaussianRational, b: GaussianRational) -> GaussianRational:
    """a / b over the Gaussian rationals, as `GaussianRational` once defined it."""
    b = as_gaussian(b)
    n = oracle_norm2(b)
    if n == 0:
        raise ZeroDivisionError("division by zero GaussianRational")
    return GaussianRational(
        (a.re * b.re + a.im * b.im) / n,
        (a.im * b.re - a.re * b.im) / n,
    )


def oracle_monic(p: list[Fraction]) -> list[Fraction]:
    """Strip trailing zeros and scale to a monic polynomial, as the
    `poly_normalize` of the rational polynomial format did."""
    q = list(p)
    while q and not q[-1]:
        q.pop()
    if not q:
        return q
    lead = q[-1]
    if lead != 1:
        q = [c / lead for c in q]
    return q


def primitive_form(p: list[Fraction]) -> list[int]:
    """The primitive integer multiple, with a positive leading coefficient, of a
    rational polynomial whose leading coefficient is nonzero: the form that
    `poly_factor` takes and gives. For a monic p it is p times the lcm of
    its denominators."""
    c = lcm(*(Fraction(a).denominator for a in p))
    ints = [int(a * c) for a in p]
    g = -gcd(*ints) if ints and ints[-1] < 0 else gcd(*ints)
    return [x // g for x in ints] if g else ints


def column_space_basis(m: CMatrix) -> CMatrix:
    """The pivot columns of m, a basis of its column space, as the deleted
    `CMatrix.column_space_basis` gave them."""
    pivots = _echelon(_real_rows(m))
    return submatrix(m, range(m.rows), [p // 2 for p in pivots if p % 2 == 0])


def nullspace_basis(m: CMatrix) -> CMatrix:
    """Columns forming a basis of the right null space of m, as the deleted
    `CMatrix.nullspace_basis` gave them: for each free column f of the
    reduced row echelon form R, the kernel vector that is 1 at f, 0 at the
    other free columns and minus R's column f at the pivots."""
    pivots, r = reduced_row_echelon(m)
    free = [f for f in range(m.cols) if f not in pivots]
    order = [pivots.index(c) if c in pivots else len(pivots) + free.index(c)
             for c in range(m.cols)]
    stacked = vstack(-submatrix(r, range(r.rows), free), CMatrix.identity(len(free)))
    return submatrix(stacked, order, range(len(free)))


def parse_rational(text: str) -> Fraction:
    """Parse a canonical rational string "p" or "p/q" (q > 1, reduced, no
    leading zeros, no "-0"): exactly the strings `format_rational` prints,
    read by the parser behind `parse_matrix_obj`."""
    return Fraction(*_rational_parts(text))


def oracle_parse_rational(text) -> Fraction:
    """A canonical rational string read through a Fraction, as `parse_rational` once did."""
    if not isinstance(text, str) or not re.match(r"^-?\d+(/[1-9]\d*)?$", text):
        raise FormatError(f"not a canonical rational string: {echo(text)}")
    try:
        x = Fraction(text)
    except ValueError:  # more digits than the interpreter converts
        raise FormatError(f"rational string of {len(text)} characters is too long") from None
    if format_rational(x) != text:
        raise FormatError(f"not a canonical rational string: {echo(text)}")
    return x


def oracle_to_pair(z: GaussianRational) -> list[str]:
    """[re, im] as canonical rational strings, as `GaussianRational.to_pair` gave them."""
    return [format_rational(z.re), format_rational(z.im)]


def oracle_matrix_to_obj(m: CMatrix) -> list:
    """`matrix_to_obj` as it was: one GaussianRational, and two Fractions, per entry."""
    return [[oracle_to_pair(m.at(i, j)) for j in range(m.cols)] for i in range(m.rows)]


def oracle_parse_gaussian_pair(pair) -> GaussianRational:
    """A [re, im] pair of canonical rational strings, as `scalars.parse_gaussian_pair` read it."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise FormatError(f"matrix entry must be a [re, im] pair, got {echo(pair)}")
    return GaussianRational(oracle_parse_rational(pair[0]), oracle_parse_rational(pair[1]))
