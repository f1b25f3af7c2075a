"""The exact integer elimination kernel, on dense int rows and sparse dict rows.

All elimination is integral: each rational row is scaled to a primitive
integer row, which leaves its solution set alone. Every fraction-free
elimination combines rows by one step, `_clear`, which `_echelon` runs
inline. `_echelon` eliminates forward only, and `_nullspace` reads kernel
vectors off its rows by back-substitution; `fraction_nullspace` comes from
these two, and `fraction_solve` reads a solution off its kernel, as the
vector at an augmented column. The Hom systems, dict rows, take the same
steps on their nonzeros alone in the `sparse` module, which
`fraction_nullspace` imports on its first such system.
`_first_dependence` reduces each new vector once against the rows it
keeps, and gives the dependence as a primitive integer polynomial.
`_symmetric_ldl` counts the inertia of symmetric int forms.

The module uses neither CMatrix nor the Gaussian rationals, so the graph
layer (`tits`) loads it alone; `linalg` reduces complex matrices on it
through their real forms.
"""
from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import chain
from math import gcd, inf, lcm
from operator import mul

from .errors import FormatError, echo, is_int

# -- the elimination kernel --------------------------------------------------

def _clear(row: list[int], c: int, p: int, support: list) -> list[int]:
    """`row` with column c cleared by a pivot row holding p there and the nonzeros `support`:
    (p * row - f * pivot_row) / gcd(p, f), f the row's entry in column c, over its content,
    as in Bareiss (1968): integral and primitive. `_echelon` runs the same step inline."""
    f = row[c]
    g = gcd(p, f)
    a, b = p // g, f // g
    new = row[:] if a == 1 else [a * x for x in row]
    for j, y in support:
        new[j] -= b * y
    return _primitive(new)


def _echelon(rows: list[list[int]]) -> list[int]:
    """Fraction-free row echelon form of integer rows in place; return the pivot columns.

    Column c takes as pivot the first row among r.. (r the number of pivots
    so far) with the smallest nonzero |entry| there, which keeps the
    multipliers, hence the entries, small, and each row below with a
    nonzero entry f there is replaced by the `_clear` step, run inline:
    (p * row - f * pivot_row) / gcd(p, f) over its content, on a copy of
    the whole row, which is zero before column c. The pivots, and each row
    until it becomes a pivot row, are those of a full Gauss-Jordan pass,
    which differs only in also clearing above. On return row r has its
    pivot at pivots[r] and is zero before it, and the rows from
    len(pivots) on are zero. The row lists passed in are never written:
    each cleared row is a new list, as a caller may still hold the old one.
    """
    if not rows:
        return []
    n = len(rows)
    pivots: list[int] = []
    for c in range(len(rows[0])):
        r = len(pivots)
        if r == n:
            break
        piv, best = None, inf
        for i in range(r, n):
            x = abs(rows[i][c])
            if 0 < x < best:
                piv, best = i, x
                if x == 1:
                    break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p, support = rows[r][c], [(j, y) for j, y in enumerate(rows[r]) if y]
        for i in range(r + 1, n):
            row = rows[i]
            f = row[c]
            if f:
                g = gcd(p, f)
                a, b = p // g, f // g
                new = row[:] if a == 1 else [a * x for x in row]
                for j, y in support:
                    new[j] -= b * y
                g = gcd(*new)
                rows[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
    return pivots


def _symmetric_ldl(rows: list[list[int]]) -> tuple[int, int, int]:
    """The inertia (n+, n-, n0) of a symmetric int matrix W.

    W is reduced by Bareiss (1968) steps on the first nonzero diagonal
    entry d of the active block: w_ij becomes (d w_ij - w_ip w_pj) / prev,
    prev the pivot before (1 at first), exactly, as active entries are
    minors of W bordered by the pivots. If the active diagonal is zero but
    some w_ij is not, the congruence e_i <- e_i + e_j puts 2 w_ij on it.
    Neither changes the inertia, counted from the signs of d / prev; the
    indices never pivoted, whose block is zero, count n0.
    """
    w = [list(row) for row in rows]
    active = list(range(len(w)))
    positive = 0
    prev = 1
    while active:
        p = next((i for i in active if w[i][i]), None)
        if p is None:
            pair = next(((i, j) for i in active for j in active if w[i][j]), None)
            if pair is None:
                break
            p, j = pair
            for k in active:
                w[p][k] += w[j][k]
            for k in active:
                w[k][p] += w[k][j]
        d, row = w[p][p], w[p]
        positive += (d > 0) == (prev > 0)
        active.remove(p)
        for i in active:
            wi = w[i]
            f = wi[p]
            for j in active:
                wi[j] = (d * wi[j] - f * row[j]) // prev
        prev = d
    return positive, len(w) - len(active) - positive, len(active)

def _integer_parts(values: list) -> tuple[int, list[int]]:
    """(den, nums) with values[k] == nums[k] / den, den the lcm of the denominators.

    For reduced fractions (and ints) gcd(den, *nums) == 1: a prime power
    dividing den exactly divides some denominator, whose numerator is prime
    to it and is multiplied by a cofactor prime to it.
    """
    den = lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]

def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row

def _nullspace(reduced: list[list[int]], pivots: list[int], ncols: int,
               free: list[int]) -> list[tuple[int, list[int]]]:
    """Canonical kernel vectors of `_echelon`-reduced rows, one per column in `free`.

    For the free column f: x_f = 1, the other free coordinates 0, and the
    pivot coordinates by back-substitution, last pivot first:
    x_p = -(row . x) / row[p] for the row with pivot p. A pivot after f
    gives 0, since x vanishes beyond f, so only the pivots before f are
    visited, and the dot product runs over columns p + 1..f. The vector is
    the one kernel vector with these free coordinates, so it equals the
    reduced row echelon readout x_p = -rref[p][f] entry for entry. It comes
    as (den, nums), x = nums / den, den > 0 and nums[f] == den, canonical
    (gcd(den, *nums) == 1) as each step multiplies both by some q and sets
    nums[p] to an s prime to q.
    """
    basis = []
    for f in free:
        x = [0] * ncols
        x[f] = den = 1
        for r in range(bisect_left(pivots, f) - 1, -1, -1):
            row, p = reduced[r], pivots[r]
            s = sum(map(mul, row[p + 1:f + 1], x[p + 1:f + 1]))
            if not s:
                continue
            q = row[p]
            g = gcd(s, q)
            s, q = s // g, q // g
            if q < 0:
                s, q = -s, -q
            if q != 1:
                x = [v * q for v in x]
                den *= q
            x[p] = -s
        basis.append((den, x))
    return basis

# -- real linear systems -----------------------------------------------------

def _first_dependence(vectors, count: int) -> list[int]:
    """Coefficients c_0..c_k of the first linear dependence among the vectors.

    Vector k comes as (den_k, nums_k), v_k = nums_k / den_k; only the first
    `count` are drawn, lazily. The row nums_k, carrying den_k e_k in extra
    columns, is reduced once against the rows kept so far, in the order
    kept: each kept row pivots on its smallest nonzero |entry| among the
    first len(nums_k) columns, where the rows kept after it vanish. The
    first row that reduces to zero there carries c in the extra columns,
    with c_0 v_0 + ... + c_k v_k = 0: the first dependence, unique up to
    scale, with c_k != 0. It comes primitive with c_k > 0, the integer
    polynomial form of `polynomials`. Raises ValueError when the first
    `count` vectors are independent.
    """
    kept: list[tuple[int, int, list]] = []  # (pivot column, entry, support)
    for k, (den, vec) in zip(range(count), vectors):
        n = len(vec)
        row = vec + [den if j == k else 0 for j in range(count)]
        for c, p, support in kept:
            if row[c]:
                row = _clear(row, c, p, support)
        c = min((j for j in range(n) if row[j]), key=lambda j: abs(row[j]), default=None)
        if c is None:
            dep = _primitive(row[n:n + k + 1])
            return dep if dep[-1] > 0 else [-x for x in dep]
        kept.append((c, row[c], [(j, y) for j, y in enumerate(row) if y]))
    raise ValueError(f"the first {count} vectors are independent")


def fraction_nullspace(rows: list, ncols: int) -> list[tuple[int, list[int]]]:
    """Canonical basis of the solution space of the homogeneous int system rows . x = 0.

    The rows are all lists of `ncols` ints, or all sparse rows: dicts from
    column (0..ncols-1) to int, where a missing column and an explicit 0
    both read as 0. The rows passed in are never written. One (den, nums)
    per free column f in turn, see `_nullspace`: x = nums / den is 1 at f
    and 0 at the other free columns. That vector depends only on the kernel
    and the column order, so both routes give the same basis. The nonzero
    rows are made primitive, not changed. Dict rows take the sparse route,
    `sparse._sparse_echelon` and `sparse._sparse_nullspace`; list rows go
    through `_echelon` and `_nullspace`. Raises FormatError for a list row
    without `ncols` entries, for a dict row with a column outside
    0..ncols-1 or a value that `is_int` rejects, and for dict and list rows
    in one system. The name stays while the benchmark's tracer wraps it.
    """
    if ncols < 0:
        raise FormatError(f"every equation needs {ncols} coefficients")
    if any(isinstance(row, dict) for row in rows):
        if not all(isinstance(row, dict) for row in rows):
            raise FormatError("the equations must be all dicts or all lists")
        _check_sparse_rows(rows, ncols)
        from .sparse import _sparse_echelon, _sparse_nullspace
        return _sparse_nullspace(_sparse_echelon(rows, ncols), ncols)
    if any(len(row) != ncols for row in rows):
        raise FormatError(f"every equation needs {ncols} coefficients")
    reduced = [_primitive(row) for row in rows if any(row)]
    pivots = _echelon(reduced)
    return _nullspace(reduced, pivots, ncols, [f for f in range(ncols) if f not in pivots])


def _check_sparse_rows(rows: list[dict], ncols: int) -> None:
    """Raise FormatError unless every column of the dict rows is an int in 0..ncols-1 and
    every value one that `is_int` accepts. The rows are checked all at once: when every
    key and value is exactly an int, the rule is one pass over their types."""
    columns = list(chain.from_iterable(rows))
    values = chain.from_iterable(map(dict.values, rows))
    if not {*map(type, columns), *map(type, values)} <= {int}:  # then the exact rule
        for j, x in chain.from_iterable(map(dict.items, rows)):
            if not (is_int(j) and is_int(x)):
                raise FormatError(f"a sparse equation maps int columns to ints, "
                                  f"got {echo(j)}: {echo(x)}")
    if columns and (min(columns) < 0 or max(columns) >= ncols):
        raise FormatError(f"a sparse equation has a column outside 0..{ncols - 1}")


def fraction_solve(columns: list[list[Fraction]], target: list[Fraction]) -> list[Fraction] | None:
    """Solve sum_j x_j * columns[j] = target exactly; None when inconsistent.

    x is read off `fraction_nullspace` of the integer rows [columns | -target]:
    the system is consistent exactly when column k = len(columns) is free,
    and then the last basis vector, 1 at k and 0 at the other free columns,
    is (x, 1). When k is a pivot every basis vector is 0 at k.
    Raises FormatError unless every column has the length of `target`.
    """
    if any(len(col) != len(target) for col in columns):
        raise FormatError(f"every column needs {len(target)} entries")
    k = len(columns)
    rows = [_integer_parts([col[i] for col in columns] + [-t])[1] for i, t in enumerate(target)]
    basis = fraction_nullspace(rows, k + 1)
    if not basis or not basis[-1][1][k]:
        return None
    den, nums = basis[-1]
    return [Fraction(x, den) for x in nums[:k]]
