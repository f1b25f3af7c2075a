"""Exact checks the benchmark makes with its own arithmetic.

They share no code with biquiver beyond reading its data classes, so a
defect introduced into the package's linear algebra cannot also hide
itself from these checks. Complex rationals are (re, im) pairs of
Fractions. Every check returns a bool; none uses `assert`, so they hold
under `python -O`.
"""
from __future__ import annotations

from fractions import Fraction

Complex = tuple[Fraction, Fraction]
Matrix = list[list[Complex]]

_ZERO: Complex = (Fraction(0), Fraction(0))


def from_cmatrix(m) -> Matrix:
    """A biquiver CMatrix as a list of rows of pairs."""
    return [[(m.entries[i * m.cols + j].re, m.entries[i * m.cols + j].im)
             for j in range(m.cols)] for i in range(m.rows)]


def from_json(rows) -> Matrix:
    """A matrix in the CLI's JSON form: rows of ["p/q", "r/s"] pairs."""
    return [[(Fraction(re), Fraction(im)) for re, im in row] for row in rows]


def _mul(a: Matrix, b: Matrix, inner: int) -> Matrix:
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        new = []
        for j in range(cols):
            re = im = Fraction(0)
            for k in range(inner):
                x, y = row[k], b[k][j]
                re += x[0] * y[0] - x[1] * y[1]
                im += x[0] * y[1] + x[1] * y[0]
            new.append((re, im))
        out.append(new)
    return out


def _conj(a: Matrix) -> Matrix:
    return [[(re, -im) for re, im in row] for row in a]


def _rank(a: Matrix) -> int:
    rows = [list(r) for r in a]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != _ZERO), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr, pi = rows[rank][c]
        n = pr * pr + pi * pi
        inv = (pr / n, -pi / n)
        for i in range(rank + 1, len(rows)):
            fr, fi = rows[i][c]
            if not (fr or fi):
                continue
            f = (fr * inv[0] - fi * inv[1], fr * inv[1] + fi * inv[0])
            rows[i] = [(x[0] - f[0] * y[0] + f[1] * y[1], x[1] - f[0] * y[1] - f[1] * y[0])
                       for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def block_diag(blocks: list[Matrix], rows: list[int], cols: list[int]) -> Matrix:
    out = []
    col_start = 0
    total_cols = sum(cols)
    for blk, r, c in zip(blocks, rows, cols):
        for i in range(r):
            line = [_ZERO] * total_cols
            line[col_start:col_start + c] = blk[i]
            out.append(line)
        col_start += c
    return out


def is_base_change(arrows, dims_a, mats_a: dict, s: list[Matrix],
                   dims_b, mats_b: dict) -> bool:
    """True when S carries representation A onto B: every S_v is square and
    invertible and, for every arrow u -> v, A S_u = S_v' B with S_v' the
    conjugate of S_v on dashed arrows and S_v itself on full ones.

    `arrows` holds (id, source, target, dashed) with 1-based vertices.
    """
    if tuple(dims_a) != tuple(dims_b) or len(s) != len(dims_a):
        return False
    for d, m in zip(dims_a, s):
        if len(m) != d or any(len(row) != d for row in m) or _rank(m) != d:
            return False
    for aid, u, v, dashed in arrows:
        du, dv = dims_a[u - 1], dims_a[v - 1]
        a, b = mats_a[aid], mats_b[aid]
        if len(a) != dv or len(b) != dv or any(len(r) != du for r in a + b):
            return False
        sv = _conj(s[v - 1]) if dashed else s[v - 1]
        if _mul(a, s[u - 1], du) != _mul(sv, b, dv):
            return False
    return True


def rep_parts(rep):
    """(arrows, dims, matrices) of a biquiver MatrixRepresentation."""
    arrows = [(a.id, a.source, a.target, a.is_dashed) for a in rep.biquiver.arrows]
    return arrows, rep.dims, {aid: from_cmatrix(m) for aid, m in rep.matrices.items()}


def direct_sum(arrows, summands: list[tuple]) -> tuple:
    """(dims, matrices) of the direct sum of (dims, matrices) summands."""
    t = len(summands[0][0])
    dims = tuple(sum(d[v] for d, _ in summands) for v in range(t))
    mats = {}
    for aid, u, v, _ in arrows:
        mats[aid] = block_diag([m[aid] for _, m in summands],
                               [d[v - 1] for d, _ in summands],
                               [d[u - 1] for d, _ in summands])
    return dims, mats


def tits_form(arrows, z) -> int:
    """q(z) = sum z_i^2 - sum over arrows u -> v of z_u z_v."""
    return sum(x * x for x in z) - sum(z[u - 1] * z[v - 1] for _, u, v, _ in arrows)


def dash_obstructed(t: int, arrows) -> bool:
    """True when no set of conjugations removes every dashed arrow: a dashed
    loop, or a cycle with an odd number of dashed arrows."""
    parent = list(range(t + 1))
    parity = [0] * (t + 1)

    def find(x):
        p = 0
        while parent[x] != x:
            p ^= parity[x]
            x = parent[x]
        return x, p

    for _, u, v, dashed in arrows:
        if u == v:
            if dashed:
                return True
            continue
        (ru, pu), (rv, pv) = find(u), find(v)
        if ru == rv:
            if pu ^ pv != dashed:
                return True
        else:
            parent[ru] = rv
            parity[ru] = pu ^ pv ^ dashed
    return False


def dashed_after(arrows, vertices) -> list[str]:
    """Ids of arrows still dashed after conjugating at every given vertex."""
    chosen = set(vertices)
    left = []
    for aid, u, v, dashed in arrows:
        if u != v:
            dashed ^= (u in chosen) ^ (v in chosen)
        if dashed:
            left.append(aid)
    return left
