"""The sparse route of `elimination.fraction_nullspace`, on dict rows.

A Hom equation touches only the unknowns at its arrow's two ends, so the
Hom systems are mostly zeros. `_sparse_echelon` eliminates their dict
rows forward with `_sparse_clear`, the fraction-free step of
`elimination._clear` on the nonzeros alone, and `_sparse_nullspace` reads
the canonical kernel vectors off the result as `elimination._nullspace`
does. `fraction_nullspace` checks the rows and imports this module on its
first dict system, so the graph layer, whose systems are dense lists,
never loads it.
"""
from __future__ import annotations

from math import gcd


def _sparse_clear(row: dict[int, int], c: int, p: int,
                  support: list[tuple[int, int]]) -> dict[int, int]:
    """`elimination._clear` on sparse rows: `row` with column c cleared by a pivot row
    holding p > 0 there and the nonzeros `support` elsewhere, primitive, as a new dict
    without zeros."""
    f = row[c]
    g = gcd(p, f)
    a, b = p // g, f // g
    new = row.copy() if a == 1 else {j: a * x for j, x in row.items()}
    del new[c]
    for j, y in support:
        x = new.get(j, 0) - b * y
        if x:
            new[j] = x
        else:
            del new[j]
    if new:
        g = gcd(*new.values())
        if g > 1:
            return {j: x // g for j, x in new.items()}
    return new


def _sparse_echelon(rows: list[dict[int, int]], ncols: int) -> list[tuple[int, dict[int, int]]]:
    """Fraction-free row echelon form of sparse rows, as (pivot column, row) pairs.

    The nonzero rows, made primitive, each wait in the bucket of their
    leading column, their first nonzero. Column c, in increasing order,
    takes as pivot the first row of its bucket with the smallest |entry|
    there, as `elimination._echelon` does, and every other row of the bucket is cleared
    at c by `_sparse_clear`, with the pivot row taken positive at c, and
    moves to the bucket of its new leading column, or vanishes. A column
    with an empty bucket is free. A cleared row is nonzero only where one of
    its two rows is, so rows of independent blocks, which share no column,
    never meet in a bucket: each block is eliminated on its own, with no
    search for the blocks. The rows passed in are never written.
    """
    buckets: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        if not all(row.values()):
            row = {j: x for j, x in row.items() if x}
        if row:
            g = gcd(*row.values())
            if g > 1:
                row = {j: x // g for j, x in row.items()}
            buckets.setdefault(min(row), []).append(row)
    pivots = []
    for c in range(ncols):
        if not buckets:
            break
        bucket = buckets.pop(c, None)
        if bucket is None:
            continue
        pivot = min(bucket, key=lambda row: abs(row[c]))
        p = pivot[c]
        if p > 0:
            support = [(j, y) for j, y in pivot.items() if j != c]
        else:
            p, support = -p, [(j, -y) for j, y in pivot.items() if j != c]
        for row in bucket:
            if row is not pivot:
                new = _sparse_clear(row, c, p, support)
                if new:
                    buckets.setdefault(min(new), []).append(new)
        pivots.append((c, pivot))
    return pivots


def _sparse_nullspace(pivots: list[tuple[int, dict[int, int]]],
                      ncols: int) -> list[tuple[int, list[int]]]:
    """`elimination._nullspace` on the (pivot column, row) pairs of `_sparse_echelon`.

    The same back-substitution, with the same rescaling, run for every free
    column f at once, so each (den_f, nums_f) is the one `_nullspace` gives:
    one sweep over the rows, last pivot first, keeping only the nonzeros of
    each vector. The row with pivot p is dotted only with the vectors that
    are nonzero at one of its columns; for the others the dot is 0, and so
    is their coordinate at p.
    """
    free = sorted(set(range(ncols)).difference(p for p, _ in pivots))
    at: dict[int, dict[int, int]] = {f: {f: 1} for f in free}  # column -> {f: nums_f there}
    support = {f: [f] for f in free}  # f -> the columns where nums_f is nonzero
    dens = dict.fromkeys(free, 1)
    for p, row in reversed(pivots):
        dots: dict[int, int] = {}
        for j, y in row.items():
            if j in at:
                for f, v in at[j].items():
                    dots[f] = dots.get(f, 0) + y * v
        column = {}
        for f, s in dots.items():
            if s:
                q = row[p]
                g = gcd(s, q)
                s, q = s // g, q // g
                if q < 0:
                    s, q = -s, -q
                if q != 1:
                    for j in support[f]:
                        at[j][f] *= q
                    dens[f] *= q
                column[f] = -s
                support[f].append(p)
        if column:
            at[p] = column
    basis = []
    for f in free:
        nums = [0] * ncols
        for j in support[f]:
            nums[j] = at[j][f]
        basis.append((dens[f], nums))
    return basis
