"""Exact matrices over the Gaussian rationals, plus rational linear systems.

CMatrix (complex-rational matrices) carries all representation data; plain
Fraction row-lists carry the real linear systems behind morphism spaces and
Tits-form kernels. All elimination is integral: each rational row is scaled
to a primitive integer row (which leaves its solution set alone), and a
complex matrix is reduced through its real form, in which entry z is the
2x2 block [[re z, -im z], [im z, re z]]. One fraction-free Gauss-Jordan
kernel, `_rref`, then serves inverses, ranks, images, kernels and rational
solves; Fractions and GaussianRationals are built only from its reduced
rows. Zero-row and zero-column matrices are first-class values; the 0x0
matrix is invertible.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import FormatError, SingularMatrixError
from .scalars import ZERO, ONE, GaussianRational, as_gaussian


@dataclass(frozen=True)
class CMatrix:
    rows: int
    cols: int
    entries: tuple[GaussianRational, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise FormatError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise FormatError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(rows: int, cols: int) -> "CMatrix":
        return CMatrix(rows, cols, (ZERO,) * (rows * cols))

    @staticmethod
    def identity(n: int) -> "CMatrix":
        return CMatrix(n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))

    @staticmethod
    def from_rows(rows) -> "CMatrix":
        """Build from a list of rows of ints / Fractions / GaussianRationals."""
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise FormatError("ragged rows in matrix literal")
        return CMatrix(r, c, tuple(as_gaussian(x) for row in rows for x in row))

    @staticmethod
    def column(values) -> "CMatrix":
        return CMatrix(len(values), 1, tuple(as_gaussian(x) for x in values))

    # -- access -------------------------------------------------------------

    def at(self, i: int, j: int) -> GaussianRational:
        return self.entries[i * self.cols + j]

    def row_list(self) -> list[list[GaussianRational]]:
        return [list(self.entries[i * self.cols:(i + 1) * self.cols]) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(self.entries)

    def is_identity(self) -> bool:
        return self.is_square and self == CMatrix.identity(self.rows)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "CMatrix") -> "CMatrix":
        self._same_shape(other)
        return CMatrix(self.rows, self.cols,
                       tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "CMatrix") -> "CMatrix":
        self._same_shape(other)
        return CMatrix(self.rows, self.cols,
                       tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "CMatrix":
        return CMatrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, s) -> "CMatrix":
        s = as_gaussian(s)
        return CMatrix(self.rows, self.cols, tuple(s * a for a in self.entries))

    def __matmul__(self, other: "CMatrix") -> "CMatrix":
        if self.cols != other.rows:
            raise FormatError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        n, m, k = self.rows, other.cols, self.cols
        out = []
        for i in range(n):
            base = i * k
            for j in range(m):
                acc = ZERO
                for l in range(k):
                    a = self.entries[base + l]
                    if a:
                        acc = acc + a * other.entries[l * m + j]
                out.append(acc)
        return CMatrix(n, m, tuple(out))

    def conj(self) -> "CMatrix":
        return CMatrix(self.rows, self.cols, tuple(a.conjugate() for a in self.entries))

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
        row i of the inverse.
        """
        if not self.is_square:
            raise SingularMatrixError(f"only square matrices invert, got {self.rows}x{self.cols}")
        n = self.rows
        aug = _real_rows(self, CMatrix.identity(n))
        if len(_rref(aug, 2 * n)) < 2 * n:
            raise SingularMatrixError(f"singular {n}x{n} matrix")
        return CMatrix(n, n, tuple(
            GaussianRational(Fraction(aug[2 * i][2 * n + j], aug[2 * i][2 * i]),
                             Fraction(aug[2 * i + 1][2 * n + j], aug[2 * i + 1][2 * i + 1]))
            for i in range(n) for j in range(n)))

    def is_invertible(self) -> bool:
        if not self.is_square:
            return False
        try:
            self.inverse()
            return True
        except SingularMatrixError:
            return False

    def rank(self) -> int:
        return len(_rref(_real_rows(self))) // 2

    def column_space_basis(self) -> "CMatrix":
        """Columns forming a basis of the column space (original columns)."""
        cols = [[self.at(i, p // 2) for i in range(self.rows)]
                for p in _rref(_real_rows(self)) if p % 2 == 0]
        return _from_columns(self.rows, cols)

    def nullspace_basis(self) -> "CMatrix":
        """Columns forming a basis of the right null space.

        The canonical real kernel vector of the free real column 2f is the
        realified canonical complex kernel vector of the free column f.
        """
        reduced = _real_rows(self)
        pivots = _rref(reduced)
        free = [f for f in range(0, 2 * self.cols, 2) if f not in pivots]
        cols = [[GaussianRational(v[2 * k], v[2 * k + 1]) for k in range(self.cols)]
                for v in _nullspace(reduced, pivots, 2 * self.cols, free)]
        return _from_columns(self.cols, cols)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(repr(self.at(i, j)) for j in range(self.cols))
                         for i in range(self.rows))
        return f"CMatrix({self.rows}x{self.cols}: {body})"


def _from_columns(height: int, cols: list[list[GaussianRational]]) -> CMatrix:
    return CMatrix(height, len(cols),
                   tuple(cols[j][i] for i in range(height) for j in range(len(cols))))


def hstack(a: CMatrix, b: CMatrix) -> CMatrix:
    if a.rows != b.rows:
        raise FormatError("hstack needs equal row counts")
    ent = []
    for i in range(a.rows):
        ent.extend(a.entries[i * a.cols:(i + 1) * a.cols])
        ent.extend(b.entries[i * b.cols:(i + 1) * b.cols])
    return CMatrix(a.rows, a.cols + b.cols, tuple(ent))


def vstack(a: CMatrix, b: CMatrix) -> CMatrix:
    if a.cols != b.cols:
        raise FormatError("vstack needs equal column counts")
    return CMatrix(a.rows + b.rows, a.cols, a.entries + b.entries)


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


def submatrix(m: CMatrix, row_range: range, col_range: range) -> CMatrix:
    ent = tuple(m.at(i, j) for i in row_range for j in col_range)
    return CMatrix(len(row_range), len(col_range), ent)


# -- the elimination kernel --------------------------------------------------

def _rref(rows: list[list[int]], width: int | None = None) -> list[int]:
    """Fraction-free Gauss-Jordan reduction of integer rows in place; return the pivot columns.

    Pivots are sought only in the first `width` columns (default: all);
    later columns are carried along, as for an augmented system. Clearing
    column c of row i replaces it by (p * row_i - f * pivot_row) / gcd(p, f),
    and each new row is divided by its content (the gcd of its entries), so
    the work stays in the integers, as in Bareiss (1968), and rows stay
    primitive. On return row r has its pivot at pivots[r] and is zero in
    every other pivot column, so its reduced row echelon entry in column j
    is row[j] / row[pivots[r]]; since that form is unique, it does not
    depend on which row is chosen as pivot. The rows from len(pivots) on
    are zero in the first `width` columns.
    """
    if not rows:
        return []
    if width is None:
        width = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(width):
        if r == len(rows):
            break
        # the smallest pivot keeps the multipliers, hence the entries, small
        piv = min((i for i in range(r, len(rows)) if rows[i][c]),
                  key=lambda i: abs(rows[i][c]), default=None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rr = rows[r]
        p = rr[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                new = [a * x - b * y for x, y in zip(row, rr)]
                g = gcd(*new)
                rows[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
    return pivots


def _integral(row: list) -> list[int]:
    """The primitive integer multiple of a row of ints and Fractions.

    Scaling a row by a nonzero rational leaves its solution set unchanged.
    """
    den = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _real_rows(m: CMatrix, rhs: CMatrix | None = None) -> list[list[int]]:
    """Integer rows of the real 2m x 2n form of m, optionally augmented by rhs.

    Entry z becomes the block [[re z, -im z], [im z, re z]], so real column
    2j holds the real and imaginary parts of column j, and column 2j + 1
    those of i times it. Each column of `rhs` is appended as one real
    column: its real parts in the even rows, its imaginary parts in the odd.
    """
    extra = rhs.row_list() if rhs is not None else [[]] * m.rows
    out = []
    for row, more in zip(m.row_list(), extra):
        top: list = []
        bottom: list = []
        for z in row:
            top += (z.re, -z.im)
            bottom += (z.im, z.re)
        top += (z.re for z in more)
        bottom += (z.im for z in more)
        out.append(_integral(top))
        out.append(_integral(bottom))
    return out


def _nullspace(reduced: list[list[int]], pivots: list[int], ncols: int,
               free: list[int]) -> list[list[Fraction]]:
    """Canonical kernel vectors of an `_rref`-reduced matrix, one per column in `free`.

    For the free column f: x_f = 1, the other free coordinates 0, and
    x_p = -row[f] / row[p] for the pivot p of each row.
    """
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            if row[f]:
                v[p] = Fraction(-row[f], row[p])
        basis.append(v)
    return basis


# -- real (Fraction) linear systems -----------------------------------------

def _first_dependence(vectors, count: int) -> list[Fraction]:
    """Coefficients c_0..c_k of the first linear dependence among the vectors.

    Only the first `count` vectors are drawn, lazily. Vector k joins the
    row-reduced earlier ones carrying the unit vector e_k in extra columns,
    so the first one that reduces to zero carries there the dependence
    c_0 v_0 + ... + c_k v_k = 0, unique up to scale, with c_k != 0.
    Raises ValueError when the first `count` vectors are independent.
    """
    rows: list[list[int]] = []
    for k, vec in zip(range(count), vectors):
        rows.append(_integral(vec + [int(j == k) for j in range(count)]))
        if len(_rref(rows, len(vec))) == k:
            return [Fraction(c) for c in rows[k][len(vec):len(vec) + k + 1]]
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
    pivots = _rref(reduced)
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
