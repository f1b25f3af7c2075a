"""Exact matrices over the Gaussian rationals, plus rational linear systems.

CMatrix (complex-rational matrices) carries all representation data; plain
Fraction row-lists carry the real linear systems behind morphism spaces,
and int rows the Tits-form kernels. A CMatrix is stored as integers: one
positive common denominator and the integer real and imaginary parts of
its entries, so products, sums and scalings are integer arithmetic with a
single denominator per matrix. GaussianRational entries are built only at
the boundary (parsing, printing, `at`, and the lazily built `entries`).

All elimination is integral: each rational row is scaled to a primitive
integer row (which leaves its solution set alone), and a complex matrix is
reduced through its real form, in which entry z is the 2x2 block
[[re z, -im z], [im z, re z]], read straight from the integer parts.
Every fraction-free elimination combines rows by one step, `_row_step`.
`_echelon` eliminates forward only, which is all that ranks, images and
kernels need (`_nullspace` reads kernel vectors by back-substitution);
`_rref` adds the backward pass for inverses and rational solves, and
`_first_dependence` reduces each new vector once against the rows it
keeps. `_symmetric_ldl` counts the inertia of symmetric int forms.
Zero-row and zero-column matrices are first-class values; the 0x0 matrix
is invertible.
"""
from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from operator import mul, neg

from .errors import FormatError, SingularMatrixError
from .scalars import GaussianRational, as_gaussian


def _check_dims(rows: int, cols: int) -> None:
    if rows < 0 or cols < 0:
        raise FormatError("matrix dimensions must be nonnegative")


class CMatrix:
    """An immutable rows x cols matrix over the Gaussian rationals.

    Entry k (row-major) is (re[k] + i * im[k]) / den, where `re` and `im`
    are tuples of Python ints and `den` is a positive int. The form is
    canonical, gcd(den, *re, *im) == 1, so equal matrices have equal
    fields and `==` and `hash` compare them structurally.

    CMatrix(rows, cols, entries) builds a matrix from row-major
    GaussianRationals (ints and Fractions are accepted too);
    `from_integers` builds one from integer parts. `entries` gives the
    entries back as GaussianRationals; it is built on first use and kept.
    """
    __slots__ = ("rows", "cols", "den", "re", "im", "_entries")

    def __init__(self, rows: int, cols: int, entries) -> None:
        _check_dims(rows, cols)
        entries = tuple(map(as_gaussian, entries))
        if len(entries) != rows * cols:
            raise FormatError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        # canonical as it stands: see _integer_parts
        den, nums = _integer_parts([z.re for z in entries] + [z.im for z in entries])
        n = len(entries)
        _init(self, rows, cols, den, tuple(nums[:n]), tuple(nums[n:]))

    def __setattr__(self, name, value):
        raise AttributeError(f"CMatrix is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"CMatrix is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return _reduced, (self.rows, self.cols, self.den, self.re, self.im)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols and self.den == other.den
                and self.re == other.re and self.im == other.im)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.den, self.re, self.im))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(rows: int, cols: int) -> "CMatrix":
        _check_dims(rows, cols)
        z = (0,) * (rows * cols)
        return _canonical(rows, cols, 1, z, z)

    @staticmethod
    def identity(n: int) -> "CMatrix":
        _check_dims(n, n)
        return _canonical(n, n, 1, tuple(int(i == j) for i in range(n) for j in range(n)),
                          (0,) * (n * n))

    @staticmethod
    def from_integers(rows: int, cols: int, den: int, re, im) -> "CMatrix":
        """The matrix with entries (re[k] + i * im[k]) / den, in canonical form."""
        _check_dims(rows, cols)
        if den <= 0:
            raise FormatError(f"the denominator must be positive, got {den}")
        if len(re) != rows * cols or len(im) != rows * cols:
            raise FormatError(f"{rows}x{cols} matrix needs {rows * cols} real and "
                              f"imaginary parts, got {len(re)} and {len(im)}")
        return _reduced(rows, cols, den, re, im)

    @staticmethod
    def from_rows(rows) -> "CMatrix":
        """Build from a list of rows of ints / Fractions / GaussianRationals."""
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise FormatError("ragged rows in matrix literal")
        return CMatrix(r, c, [x for row in rows for x in row])

    @staticmethod
    def column(values) -> "CMatrix":
        return CMatrix(len(values), 1, values)

    # -- access -------------------------------------------------------------

    @property
    def entries(self) -> tuple[GaussianRational, ...]:
        """The entries as GaussianRationals, row-major."""
        if self._entries is None:
            object.__setattr__(self, "_entries", tuple(
                GaussianRational(Fraction(x, self.den), Fraction(y, self.den))
                for x, y in zip(self.re, self.im)))
        return self._entries

    def at(self, i: int, j: int) -> GaussianRational:
        k = i * self.cols + j
        return GaussianRational(Fraction(self.re[k], self.den), Fraction(self.im[k], self.den))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(self.re) and not any(self.im)

    def is_identity(self) -> bool:
        return self.is_square and self == CMatrix.identity(self.rows)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "CMatrix") -> "CMatrix":
        self._same_shape(other)
        return _add(self, other, 1)

    def __sub__(self, other: "CMatrix") -> "CMatrix":
        self._same_shape(other)
        return _add(self, other, -1)

    def __neg__(self) -> "CMatrix":
        return _canonical(self.rows, self.cols, self.den,
                          tuple(map(neg, self.re)), tuple(map(neg, self.im)))

    def scale(self, s) -> "CMatrix":
        s = as_gaussian(s)
        den, (sr, si) = _integer_parts([s.re, s.im])
        if si:
            re = tuple(sr * x - si * y for x, y in zip(self.re, self.im))
            im = tuple(sr * y + si * x for x, y in zip(self.re, self.im))
        else:
            re = tuple(sr * x for x in self.re)
            im = tuple(sr * y for y in self.im)
        return _reduced(self.rows, self.cols, den * self.den, re, im)

    def __matmul__(self, other: "CMatrix") -> "CMatrix":
        if self.cols != other.rows:
            raise FormatError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        k, m = self.cols, other.cols
        are, aim = self.re, self.im
        bcols = [(other.re[j::m], other.im[j::m]) for j in range(m)]
        re, im = [], []
        for i in range(self.rows):
            ar, ai = are[i * k:(i + 1) * k], aim[i * k:(i + 1) * k]
            for br, bi in bcols:
                re.append(sum(map(mul, ar, br)) - sum(map(mul, ai, bi)))
                im.append(sum(map(mul, ar, bi)) + sum(map(mul, ai, br)))
        return _reduced(self.rows, m, self.den * other.den, re, im)

    def conj(self) -> "CMatrix":
        return _canonical(self.rows, self.cols, self.den, self.re, tuple(map(neg, self.im)))

    def _same_shape(self, other: "CMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise FormatError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    # -- elimination-based operations ----------------------------------------
    # All of them reduce the integer rows of the real form (see _real_rows):
    # complex pivot j shows up as the real pivot pair (2j, 2j + 1).

    def inverse(self) -> "CMatrix":
        """Exact inverse by row-reducing [A | I] in real form; raises SingularMatrixError.

        The reduced rows 2i and 2i + 1 carry the real and imaginary parts of
        row i of the inverse, over their pivots.
        """
        if not self.is_square:
            raise SingularMatrixError(f"only square matrices invert, got {self.rows}x{self.cols}")
        n = self.rows
        aug = _real_rows(self, CMatrix.identity(n))
        if len(_rref(aug, 2 * n)) < 2 * n:
            raise SingularMatrixError(f"singular {n}x{n} matrix")
        # over the lcm of the pivots (lcm is never negative)
        den = lcm(*(row[r] for r, row in enumerate(aug)))
        parts = [[x * (den // row[r]) for x in row[2 * n:]] for r, row in enumerate(aug)]
        return _reduced(n, n, den, [x for row in parts[0::2] for x in row],
                        [x for row in parts[1::2] for x in row])

    def is_invertible(self) -> bool:
        if not self.is_square:
            return False
        try:
            self.inverse()
            return True
        except SingularMatrixError:
            return False

    def rank(self) -> int:
        return len(_echelon(_real_rows(self))) // 2

    def column_space_basis(self) -> "CMatrix":
        """Columns forming a basis of the column space (original columns)."""
        pivots = _echelon(_real_rows(self))
        return submatrix(self, range(self.rows), [p // 2 for p in pivots if p % 2 == 0])

    def nullspace_basis(self) -> "CMatrix":
        """Columns forming a basis of the right null space.

        The canonical real kernel vector of the free real column 2f is the
        realified canonical complex kernel vector of the free column f.
        """
        reduced = _real_rows(self)
        pivots = _echelon(reduced)
        free = [f for f in range(0, 2 * self.cols, 2) if f not in pivots]
        vecs = _nullspace(reduced, pivots, 2 * self.cols, free)
        # entry (k, j) is vecs[j][2k] + i vecs[j][2k + 1]
        parts = [v[k] for parity in (0, 1) for k in range(parity, 2 * self.cols, 2) for v in vecs]
        den, nums = _integer_parts(parts)
        n = len(parts) // 2
        return _canonical(self.cols, len(vecs), den, tuple(nums[:n]), tuple(nums[n:]))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(repr(self.at(i, j)) for j in range(self.cols))
                         for i in range(self.rows))
        return f"CMatrix({self.rows}x{self.cols}: {body})"


_set = object.__setattr__


def _init(m: CMatrix, rows: int, cols: int, den: int, re: tuple, im: tuple) -> None:
    _set(m, "rows", rows)
    _set(m, "cols", cols)
    _set(m, "den", den)
    _set(m, "re", re)
    _set(m, "im", im)
    _set(m, "_entries", None)


def _canonical(rows: int, cols: int, den: int, re: tuple, im: tuple) -> CMatrix:
    """A CMatrix from integer parts that are already in canonical form."""
    m = object.__new__(CMatrix)
    _init(m, rows, cols, den, re, im)
    return m


def _reduced(rows: int, cols: int, den: int, re, im) -> CMatrix:
    """A CMatrix from integer parts over a positive denominator, made canonical."""
    if den != 1:
        g = gcd(den, *re, *im)
        if g != 1:
            den //= g
            re = [x // g for x in re]
            im = [y // g for y in im]
    return _canonical(rows, cols, den, tuple(re), tuple(im))


def _integer_parts(values: list) -> tuple[int, list[int]]:
    """(den, nums) with values[k] == nums[k] / den, den the lcm of the denominators.

    For reduced fractions (and ints) gcd(den, *nums) == 1: a prime power
    dividing den exactly divides some denominator, whose numerator is prime
    to it and is multiplied by a cofactor prime to it.
    """
    den = lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


def _add(a: CMatrix, b: CMatrix, sign: int) -> CMatrix:
    """a + sign * b over the lcm of the denominators."""
    den = lcm(a.den, b.den)
    fa, fb = den // a.den, sign * (den // b.den)
    return _reduced(a.rows, a.cols, den, [fa * x + fb * y for x, y in zip(a.re, b.re)],
                    [fa * x + fb * y for x, y in zip(a.im, b.im)])


def _over_lcm(a: CMatrix, b: CMatrix) -> tuple[int, tuple, tuple, tuple, tuple]:
    """(den, a.re, a.im, b.re, b.im) with both matrices rescaled to den = lcm(a.den, b.den).

    Placing the two side by side keeps the canonical form: a prime power
    dividing den exactly divides a.den or b.den, and that matrix has a part
    prime to it, multiplied by a cofactor prime to it.
    """
    den = lcm(a.den, b.den)
    fa, fb = den // a.den, den // b.den
    if fa == 1 and fb == 1:
        return den, a.re, a.im, b.re, b.im
    return (den, tuple(fa * x for x in a.re), tuple(fa * x for x in a.im),
            tuple(fb * x for x in b.re), tuple(fb * x for x in b.im))


def hstack(a: CMatrix, b: CMatrix) -> CMatrix:
    if a.rows != b.rows:
        raise FormatError("hstack needs equal row counts")
    den, are, aim, bre, bim = _over_lcm(a, b)
    re: list[int] = []
    im: list[int] = []
    for i in range(a.rows):
        re += are[i * a.cols:(i + 1) * a.cols]
        re += bre[i * b.cols:(i + 1) * b.cols]
        im += aim[i * a.cols:(i + 1) * a.cols]
        im += bim[i * b.cols:(i + 1) * b.cols]
    return _canonical(a.rows, a.cols + b.cols, den, tuple(re), tuple(im))


def vstack(a: CMatrix, b: CMatrix) -> CMatrix:
    if a.cols != b.cols:
        raise FormatError("vstack needs equal column counts")
    den, are, aim, bre, bim = _over_lcm(a, b)
    return _canonical(a.rows + b.rows, a.cols, den, are + bre, aim + bim)


def block_diag(a: CMatrix, b: CMatrix) -> CMatrix:
    top = hstack(a, CMatrix.zero(a.rows, b.cols))
    bot = hstack(CMatrix.zero(b.rows, a.cols), b)
    return vstack(top, bot)


def from_blocks(grid: list[list[CMatrix]]) -> CMatrix:
    """Assemble a matrix from a 2D grid of blocks with consistent sizes."""
    rows = None
    for row in grid:
        acc = row[0]
        for blk in row[1:]:
            acc = hstack(acc, blk)
        rows = acc if rows is None else vstack(rows, acc)
    return rows if rows is not None else CMatrix.zero(0, 0)


def submatrix(m: CMatrix, row_range, col_range) -> CMatrix:
    """The entries in the given rows and columns (ranges or lists of indices)."""
    idx = [i * m.cols + j for i in row_range for j in col_range]
    return _reduced(len(row_range), len(col_range), m.den,
                    [m.re[k] for k in idx], [m.im[k] for k in idx])


# -- the elimination kernel --------------------------------------------------

def _row_step(row: list[int], pivot_row: list[int], c: int, start: int) -> list[int]:
    """`row` with column c cleared by `pivot_row`; both are zero before column `start`.

    The new row is (p * row - f * pivot_row) / gcd(p, f), for p and f their
    entries in column c, divided by its content (the gcd of its entries),
    so the work stays in the integers, as in Bareiss (1968), and rows stay
    primitive. Only the columns from `start` on are recombined.
    """
    p, f = pivot_row[c], row[c]
    g = gcd(p, f)
    a, b = p // g, f // g
    return row[:start] + _primitive([a * x - b * y
                                     for x, y in zip(row[start:], pivot_row[start:])])


def _echelon(rows: list[list[int]], width: int | None = None) -> list[int]:
    """Fraction-free row echelon form of integer rows in place; return the pivot columns.

    Pivots are sought only in the first `width` columns (default: all);
    later columns are carried along, as for an augmented system. Column c
    takes as pivot the row among r.. (r the number of pivots so far) with
    the smallest nonzero |entry| there, which keeps the multipliers, hence
    the entries, small, and `_row_step` clears it in the rows below, which
    are zero before column c. The pivots, and each row until it becomes a
    pivot row, are those of a full Gauss-Jordan pass, which differs only
    in also clearing above. On return row r has its pivot at pivots[r] and
    is zero before it, and the rows from len(pivots) on are zero in the
    first `width` columns.
    """
    if not rows:
        return []
    if width is None:
        width = len(rows[0])
    n = len(rows)
    pivots: list[int] = []
    for c in range(width):
        r = len(pivots)
        if r == n:
            break
        piv = min((i for i in range(r, n) if rows[i][c]),
                  key=lambda i: abs(rows[i][c]), default=None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rr = rows[r]
        for i in range(r + 1, n):
            if rows[i][c]:
                rows[i] = _row_step(rows[i], rr, c, c)
        pivots.append(c)
    return pivots


def _rref(rows: list[list[int]], width: int | None = None) -> list[int]:
    """Fraction-free reduced row echelon form of integer rows in place; return the pivot columns.

    `_echelon`, then one backward pass, last pivot first, that clears each
    pivot column in the rows above it with `_row_step`. On return row r
    has its pivot at pivots[r] and is zero in every other pivot column, so
    its reduced row echelon entry in column j is row[j] / row[pivots[r]];
    since that form is unique, it does not depend on which row is chosen
    as pivot. The rows from len(pivots) on are zero in the first `width`
    columns.
    """
    pivots = _echelon(rows, width)
    for r in range(len(pivots) - 1, 0, -1):
        c, rr = pivots[r], rows[r]
        for i in range(r):
            if rows[i][c]:
                rows[i] = _row_step(rows[i], rr, c, pivots[i])
    return pivots


def _symmetric_ldl(rows: list[list[int]]) -> tuple:
    """(inertia, steps, free) of a symmetric int matrix W.

    W is reduced by Bareiss (1968) steps on the first nonzero diagonal
    entry d of the active block: w_ij becomes (d w_ij - w_ip w_pj) / prev,
    prev the pivot before (1 at first), exactly, as active entries are
    minors of W bordered by the pivots. If the active diagonal is zero but
    some w_ij is not, the congruence e_i <- e_i + e_j puts 2 w_ij on it.
    Neither changes the inertia (n+, n-, n0) of W, counted from the signs
    of d / prev. Step (p, prev, d, lin), lin mapping each other active j to
    w_pj != 0, is the LDL^T term (d x_p + lin . x)^2 / (prev d); when
    n- == 0 (no congruence) these terms sum to x^T W x, and W vanishes on
    the unpivoted `free`.
    """
    w = [list(row) for row in rows]
    active = list(range(len(w)))
    steps = []
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
        steps.append((p, prev, d, {j: row[j] for j in active if j != p and row[j]}))
        active.remove(p)
        for i in active:
            wi = w[i]
            f = wi[p]
            for j in active:
                wi[j] = (d * wi[j] - f * row[j]) // prev
        prev = d
    return (positive, len(steps) - positive, len(active)), steps, active


def _integral(row: list) -> list[int]:
    """The primitive integer multiple of a row of ints and Fractions.

    Scaling a row by a nonzero rational leaves its solution set unchanged.
    """
    return _primitive(_integer_parts(row)[1])


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _real_rows(m: CMatrix, rhs: CMatrix | None = None) -> list[list[int]]:
    """Primitive integer rows of the real 2m x 2n form of m, optionally augmented by rhs.

    Entry z becomes the block [[re z, -im z], [im z, re z]], so real column
    2j holds the real and imaginary parts of column j, and column 2j + 1
    those of i times it. Each column of `rhs` is appended as one real
    column: its real parts in the even rows, its imaginary parts in the odd.
    Row i of [m | rhs] is taken times m.den * rhs.den, which leaves the
    solution sets alone, so the integer parts are read directly.
    """
    c = m.cols
    fm, fr = (rhs.den, m.den) if rhs is not None else (1, 1)
    out = []
    for i in range(m.rows):
        top: list[int] = []
        bottom: list[int] = []
        for x, y in zip(m.re[i * c:(i + 1) * c], m.im[i * c:(i + 1) * c]):
            top += (fm * x, -fm * y)
            bottom += (fm * y, fm * x)
        if rhs is not None:
            top += (fr * x for x in rhs.re[i * rhs.cols:(i + 1) * rhs.cols])
            bottom += (fr * y for y in rhs.im[i * rhs.cols:(i + 1) * rhs.cols])
        out.append(_primitive(top))
        out.append(_primitive(bottom))
    return out


def _nullspace(reduced: list[list[int]], pivots: list[int], ncols: int,
               free: list[int]) -> list[list[Fraction]]:
    """Canonical kernel vectors of `_echelon`-reduced rows, one per column in `free`.

    For the free column f: x_f = 1, the other free coordinates 0, and the
    pivot coordinates by back-substitution, last pivot first:
    x_p = -(row . x) / row[p] for the row with pivot p. A pivot after f
    gives 0, since x vanishes beyond f, so only the pivots before f are
    visited, and the dot product runs over columns p + 1..f. The vector is
    kept as integers over one common denominator. It is the one kernel
    vector with these free coordinates, so it equals the reduced row
    echelon readout x_p = -rref[p][f] entry for entry.
    """
    zero = Fraction(0)
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
        basis.append([Fraction(v, den) if v else zero for v in x])
    return basis


# -- real (Fraction) linear systems -----------------------------------------

def _first_dependence(vectors, count: int) -> list[Fraction]:
    """Coefficients c_0..c_k of the first linear dependence among the vectors.

    Vector k comes as (den_k, nums_k), v_k = nums_k / den_k; only the first
    `count` are drawn, lazily. The row nums_k, carrying den_k e_k in extra
    columns, is reduced once against the rows kept so far, in the order
    kept: each kept row pivots on its smallest nonzero |entry| among the
    first len(nums_k) columns, where the rows kept after it vanish. The
    first row that reduces to zero there carries c in the extra columns,
    with c_0 v_0 + ... + c_k v_k = 0: the first dependence, unique up to
    scale, with c_k != 0. Raises ValueError when the first `count` vectors
    are independent.
    """
    rows: list[list[int]] = []
    pivots: list[int] = []
    for k, (den, vec) in zip(range(count), vectors):
        n = len(vec)
        row = vec + [den if j == k else 0 for j in range(count)]
        for kept, p in zip(rows, pivots):
            if row[p]:
                row = _row_step(row, kept, p, 0)
        p = min((j for j in range(n) if row[j]), key=lambda j: abs(row[j]), default=None)
        if p is None:
            return [Fraction(c) for c in row[n:n + k + 1]]
        rows.append(row)
        pivots.append(p)
    raise ValueError(f"the first {count} vectors are independent")


def fraction_nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the solution space of the homogeneous system rows . x = 0.

    Basis vectors are produced in free-column order with the free coordinate
    set to 1, so the output is canonical for a given equation order.
    Raises FormatError unless every row has `ncols` entries.
    """
    if ncols < 0 or any(len(row) != ncols for row in rows):
        raise FormatError(f"every equation needs {ncols} coefficients")
    reduced = [_integral(row) for row in rows]
    pivots = _echelon(reduced)
    return _nullspace(reduced, pivots, ncols, [f for f in range(ncols) if f not in pivots])


def fraction_solve(columns: list[list[Fraction]], target: list[Fraction]) -> list[Fraction] | None:
    """Solve sum_j x_j * columns[j] = target exactly; None when inconsistent.

    Raises FormatError unless every column has the length of `target`.
    """
    if any(len(col) != len(target) for col in columns):
        raise FormatError(f"every column needs {len(target)} entries")
    k = len(columns)
    aug = [_integral([col[i] for col in columns] + [t]) for i, t in enumerate(target)]
    pivots = _rref(aug, k)
    if any(row[k] for row in aug[len(pivots):]):
        return None
    x = [Fraction(0)] * k
    for row, p in zip(aug, pivots):
        x[p] = Fraction(row[k], row[p])
    return x
