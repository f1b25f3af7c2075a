"""Exact matrices over the Gaussian rationals, plus rational linear systems.

CMatrix (complex-rational matrices) carries all representation data; plain
Fraction row-lists carry the real linear systems behind morphism spaces and
Tits-form kernels. Both kinds are row-reduced by the one field-generic
kernel `_rref`, so inverses, ranks, images, kernels and rational solves
share a single Gauss-Jordan loop. Zero-row and zero-column matrices are
first-class values; the 0x0 matrix is invertible.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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

    def inverse(self) -> "CMatrix":
        """Exact inverse by row-reducing [A | I]; raises SingularMatrixError."""
        if not self.is_square:
            raise SingularMatrixError(f"only square matrices invert, got {self.rows}x{self.cols}")
        n = self.rows
        aug = [row + [ONE if i == j else ZERO for j in range(n)]
               for i, row in enumerate(self.row_list())]
        if len(_rref(aug, n)) < n:
            raise SingularMatrixError(f"singular {n}x{n} matrix")
        return CMatrix(n, n, tuple(x for row in aug for x in row[n:]))

    def is_invertible(self) -> bool:
        if not self.is_square:
            return False
        try:
            self.inverse()
            return True
        except SingularMatrixError:
            return False

    def rank(self) -> int:
        return len(_rref(self.row_list()))

    def column_space_basis(self) -> "CMatrix":
        """Columns forming a basis of the column space (original columns)."""
        cols = [[self.at(i, j) for i in range(self.rows)] for j in _rref(self.row_list())]
        return _from_columns(self.rows, cols)

    def nullspace_basis(self) -> "CMatrix":
        """Columns forming a basis of the right null space."""
        reduced = self.row_list()
        pivots = _rref(reduced)
        return _from_columns(self.cols, _nullspace(reduced, pivots, self.cols, ZERO, ONE))

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

def _rref(rows: list[list], width: int | None = None) -> list[int]:
    """Reduce `rows` in place to reduced row echelon form; return the pivot columns.

    Pivots are sought only in the first `width` columns (default: all);
    later columns are carried along, as for an augmented system. Entries
    may be Fractions or GaussianRationals: the loop uses only field
    arithmetic and truth testing.
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
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        # a GaussianRational never equals the int 1, so complex rows always scale
        if p != 1:
            inv = 1 / p
            rows[r] = [x * inv for x in rows[r]]
        rr = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rr)]
        pivots.append(c)
        r += 1
    return pivots


def _nullspace(reduced: list[list], pivots: list[int], ncols: int, zero, one) -> list[list]:
    """Canonical kernel basis of a matrix in reduced row echelon form.

    One vector per free column f, in column order: x_f = 1, the other free
    coordinates 0, and x_p = -reduced[r][f] for the pivot p of row r.
    """
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [zero] * ncols
        v[f] = one
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis


# -- real (Fraction) linear systems -----------------------------------------

def fraction_nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the solution space of the homogeneous system rows . x = 0.

    Basis vectors are produced in free-column order with the free coordinate
    set to 1, so the output is canonical for a given equation order.
    """
    reduced = [row[:] for row in rows]
    pivots = _rref(reduced)
    return _nullspace(reduced, pivots, ncols, Fraction(0), Fraction(1))


def fraction_solve(columns: list[list[Fraction]], target: list[Fraction]) -> list[Fraction] | None:
    """Solve sum_j x_j * columns[j] = target exactly; None when inconsistent."""
    k = len(columns)
    aug = [[col[i] for col in columns] + [t] for i, t in enumerate(target)]
    pivots = _rref(aug, k)
    if any(row[k] for row in aug[len(pivots):]):
        return None
    x = [Fraction(0)] * k
    for row, p in zip(aug, pivots):
        x[p] = row[k]
    return x
