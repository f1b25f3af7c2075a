import copy
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import example, given, strategies as st

from biquiver import (CMatrix, FormatError, GaussianRational, SingularMatrixError,
                      block_diag, from_blocks, hstack, linalg, sparse, vstack)
from biquiver.elimination import (_echelon, _first_dependence, _integral, _nullspace, _primitive,
                                  fraction_nullspace, fraction_solve)
from biquiver.linalg import _real_rows, _reduced, reduced_row_echelon, submatrix
from biquiver.scalars import I, ONE, ZERO, as_gaussian
from conftest import (column_space_basis, gmat, mat, nullspace_basis, oracle_divide,
                      oracle_is_identity, oracle_scale, primitive_form, random_invertible,
                      random_unimodular)


# -- reference implementations ------------------------------------------------
# The hand-written eliminations that the shared fraction-free kernel replaced,
# kept verbatim as differential oracles.

def oracle_fraction_rref(rows):
    """In-place reduced row echelon form of a rational matrix."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        if p != 1:
            rows[r] = [x / p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                ri, rr = rows[i], rows[r]
                rows[i] = [x - f * y for x, y in zip(ri, rr)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def oracle_fraction_rank(rows):
    return len(oracle_fraction_rref([row[:] for row in rows])[1])


def oracle_fraction_nullspace(rows, ncols):
    reduced, pivots = oracle_fraction_rref([row[:] for row in rows])
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(v)
    return basis


def oracle_fraction_solve(columns, target):
    m = len(target)
    k = len(columns)
    aug = [[columns[j][i] for j in range(k)] + [target[i]] for i in range(m)]
    reduced, pivots = oracle_fraction_rref(aug)
    for r, row in enumerate(reduced):
        if r < len(pivots):
            continue
        if row[k]:
            return None
    if any(p == k for p in pivots):
        return None
    x = [Fraction(0)] * k
    for r, p in enumerate(pivots):
        x[p] = reduced[r][k]
    return x


# The integer fraction-free Gauss-Jordan kernel that `_echelon` and
# back-substitution replaced, for kernels, inverses and rational solves alike,
# kept verbatim apart from the names.

def oracle_rref(rows: list[list[int]], width: int | None = None) -> list[int]:
    """Fraction-free Gauss-Jordan reduction of integer rows in place; return the pivot columns."""
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
                rows[i] = _primitive([a * x - b * y for x, y in zip(row, rr)])
        pivots.append(c)
        r += 1
    return pivots


def oracle_nullspace(reduced: list[list[int]], pivots: list[int], ncols: int,
                     free: list[int]) -> list[list[Fraction]]:
    """Canonical kernel vectors of an `oracle_rref`-reduced matrix, one per column in `free`."""
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            if row[f]:
                v[p] = Fraction(-row[f], row[p])
        basis.append(v)
    return basis


def oracle_first_dependence(vectors, count: int) -> list[Fraction]:
    """Coefficients c_0..c_k of the first linear dependence among the vectors."""
    rows: list[list[int]] = []
    for k, (den, vec) in zip(range(count), vectors):
        rows.append(vec + [den if j == k else 0 for j in range(count)])
        if len(oracle_rref(rows, len(vec))) == k:
            return [Fraction(c) for c in rows[k][len(vec):len(vec) + k + 1]]
    raise ValueError(f"the first {count} vectors are independent")


# The dense row step that `_clear` replaced, with the echelon kernel, the
# backward pass that inverses and rational solves once ran, and
# `_first_dependence` over it, kept verbatim apart from the names: every row
# the kernel makes must come out entry for entry.

def oracle_row_step(row: list[int], pivot_row: list[int], c: int, start: int) -> list[int]:
    """`row` with column c cleared by `pivot_row`; both are zero before column `start`."""
    p, f = pivot_row[c], row[c]
    g = gcd(p, f)
    a, b = p // g, f // g
    return row[:start] + _primitive([a * x - b * y
                                     for x, y in zip(row[start:], pivot_row[start:])])


def oracle_dense_echelon(rows: list[list[int]], width: int | None = None) -> list[int]:
    """Fraction-free row echelon form of integer rows in place; return the pivot columns."""
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
                rows[i] = oracle_row_step(rows[i], rr, c, c)
        pivots.append(c)
    return pivots


def oracle_dense_rref(rows: list[list[int]], width: int | None = None) -> list[int]:
    """Fraction-free reduced row echelon form of integer rows in place; return the pivot columns."""
    pivots = oracle_dense_echelon(rows, width)
    for r in range(len(pivots) - 1, 0, -1):
        c, rr = pivots[r], rows[r]
        for i in range(r):
            if rows[i][c]:
                rows[i] = oracle_row_step(rows[i], rr, c, pivots[i])
    return pivots


def oracle_dense_first_dependence(vectors, count: int) -> list[Fraction]:
    """Coefficients c_0..c_k of the first linear dependence among the vectors."""
    rows: list[list[int]] = []
    pivots: list[int] = []
    for k, (den, vec) in zip(range(count), vectors):
        n = len(vec)
        row = vec + [den if j == k else 0 for j in range(count)]
        for kept, p in zip(rows, pivots):
            if row[p]:
                row = oracle_row_step(row, kept, p, 0)
        p = min((j for j in range(n) if row[j]), key=lambda j: abs(row[j]), default=None)
        if p is None:
            return [Fraction(c) for c in row[n:n + k + 1]]
        rows.append(row)
        pivots.append(p)
    raise ValueError(f"the first {count} vectors are independent")


def oracle_fraction_kernel(rows, ncols):
    """`fraction_nullspace` as it was before it returned integer pairs, verbatim
    but over `oracle_dense_echelon`: rows of ints and Fractions in, Fraction
    vectors out, with no split into blocks."""
    reduced = [_integral(row) for row in rows]
    pivots = oracle_dense_echelon(reduced)
    return oracle_echelon_nullspace(reduced, pivots, ncols,
                                    [f for f in range(ncols) if f not in pivots])


def oracle_echelon_nullspace(reduced: list[list[int]], pivots: list[int], ncols: int,
                             free: list[int]) -> list[list[Fraction]]:
    """`_nullspace` as it was before it returned integer pairs, verbatim."""
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


def as_fractions(pairs):
    """Kernel vectors given as (den, nums), as lists of Fractions nums / den."""
    return [[Fraction(x, den) for x in nums] for den, nums in pairs]


def integer_rows(rows):
    """Rows of ints and Fractions as the primitive int rows `fraction_nullspace` takes."""
    return [_integral(row) for row in rows]


def kernel(rows, ncols):
    """`fraction_nullspace` on rows of ints and Fractions, its vectors as Fractions."""
    return as_fractions(fraction_nullspace(integer_rows(rows), ncols))


def oracle_int_fraction_nullspace(rows, ncols):
    """`fraction_nullspace` over the Gauss-Jordan kernel."""
    reduced = [_integral(row) for row in rows]
    pivots = oracle_rref(reduced)
    return oracle_nullspace(reduced, pivots, ncols, [f for f in range(ncols) if f not in pivots])


def oracle_int_fraction_solve(columns, target):
    """`fraction_solve` over the Gauss-Jordan kernel."""
    k = len(columns)
    aug = [_integral([col[i] for col in columns] + [t]) for i, t in enumerate(target)]
    pivots = oracle_rref(aug, k)
    if any(row[k] for row in aug[len(pivots):]):
        return None
    x = [Fraction(0)] * k
    for row, p in zip(aug, pivots):
        x[p] = Fraction(row[k], row[p])
    return x


def oracle_int_inverse(m: CMatrix) -> CMatrix:
    """`CMatrix.inverse` over the Gauss-Jordan kernel."""
    n = m.rows
    aug = _real_rows(m, CMatrix.identity(n))
    if len(oracle_rref(aug, 2 * n)) < 2 * n:
        raise SingularMatrixError(f"singular {n}x{n} matrix")
    den = lcm(*(row[r] for r, row in enumerate(aug)))
    parts = [[x * (den // row[r]) for x in row[2 * n:]] for r, row in enumerate(aug)]
    return _reduced(n, n, den, [x for row in parts[0::2] for x in row],
                    [x for row in parts[1::2] for x in row])


def oracle_int_nullspace_basis(m: CMatrix) -> CMatrix:
    """`nullspace_basis` over the Gauss-Jordan kernel."""
    reduced = _real_rows(m)
    pivots = oracle_rref(reduced)
    free = [f for f in range(0, 2 * m.cols, 2) if f not in pivots]
    vecs = oracle_nullspace(reduced, pivots, 2 * m.cols, free)
    cols = [[GaussianRational(v[2 * k], v[2 * k + 1]) for k in range(m.cols)] for v in vecs]
    return _columns_to_matrix(m.cols, cols)


def oracle_row_list(m: CMatrix) -> list[list[GaussianRational]]:
    """The rows of m as lists of GaussianRationals, as `CMatrix.row_list` gave them."""
    e = m.entries
    return [list(e[i * m.cols:(i + 1) * m.cols]) for i in range(m.rows)]


def oracle_echelon(rows):
    """Reduced row echelon form over the Gaussian rationals; returns pivot columns."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv_p = oracle_divide(ONE, rows[r][c])
        rows[r] = [inv_p * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _columns_to_matrix(height, cols):
    return CMatrix(height, len(cols),
                   tuple(cols[j][i] for i in range(height) for j in range(len(cols))))


def oracle_column_space_basis(m):
    _, pivots = oracle_echelon(oracle_row_list(m))
    return _columns_to_matrix(m.rows, [[m.at(i, j) for i in range(m.rows)] for j in pivots])


def oracle_nullspace_basis(m):
    reduced, pivots = oracle_echelon(oracle_row_list(m))
    cols = []
    for f in [j for j in range(m.cols) if j not in pivots]:
        v = [ZERO] * m.cols
        v[f] = ONE
        for r, p in reversed(list(enumerate(pivots))):
            acc = ZERO
            for j in range(p + 1, m.cols):
                if reduced[r][j]:
                    acc = acc + reduced[r][j] * v[j]
            v[p] = -acc
        cols.append(v)
    return _columns_to_matrix(m.cols, cols)


def oracle_inverse(m):
    """Gauss-Jordan inverse that stops at the first missing pivot."""
    n = m.rows
    aug = [list(m.entries[i * n:(i + 1) * n]) +
           [ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise SingularMatrixError(f"singular {n}x{n} matrix")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = oracle_divide(ONE, aug[col][col])
        aug[col] = [inv_p * x for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return CMatrix(n, n, tuple(aug[i][n + j] for i in range(n) for j in range(n)))


# The GaussianRational-backed CMatrix that the integer-backed one replaced,
# kept verbatim apart from the names as the oracle for its arithmetic and
# block operations; the elimination methods are left out, since the
# oracles above cover them.

@dataclass(frozen=True)
class OracleCMatrix:
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
    def zero(rows: int, cols: int) -> "OracleCMatrix":
        return OracleCMatrix(rows, cols, (ZERO,) * (rows * cols))

    @staticmethod
    def identity(n: int) -> "OracleCMatrix":
        return OracleCMatrix(n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))

    @staticmethod
    def from_rows(rows) -> "OracleCMatrix":
        """Build from a list of rows of ints / Fractions / GaussianRationals."""
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise FormatError("ragged rows in matrix literal")
        return OracleCMatrix(r, c, tuple(as_gaussian(x) for row in rows for x in row))

    @staticmethod
    def column(values) -> "OracleCMatrix":
        return OracleCMatrix(len(values), 1, tuple(as_gaussian(x) for x in values))

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
        return self.is_square and self == OracleCMatrix.identity(self.rows)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "OracleCMatrix") -> "OracleCMatrix":
        self._same_shape(other)
        return OracleCMatrix(self.rows, self.cols,
                       tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "OracleCMatrix") -> "OracleCMatrix":
        self._same_shape(other)
        return OracleCMatrix(self.rows, self.cols,
                       tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "OracleCMatrix":
        return OracleCMatrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, s) -> "OracleCMatrix":
        s = as_gaussian(s)
        return OracleCMatrix(self.rows, self.cols, tuple(s * a for a in self.entries))

    def __matmul__(self, other: "OracleCMatrix") -> "OracleCMatrix":
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
        return OracleCMatrix(n, m, tuple(out))

    def conj(self) -> "OracleCMatrix":
        return OracleCMatrix(self.rows, self.cols, tuple(a.conjugate() for a in self.entries))

    def _same_shape(self, other: "OracleCMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise FormatError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")


def oracle_hstack(a: OracleCMatrix, b: OracleCMatrix) -> OracleCMatrix:
    if a.rows != b.rows:
        raise FormatError("hstack needs equal row counts")
    ent = []
    for i in range(a.rows):
        ent.extend(a.entries[i * a.cols:(i + 1) * a.cols])
        ent.extend(b.entries[i * b.cols:(i + 1) * b.cols])
    return OracleCMatrix(a.rows, a.cols + b.cols, tuple(ent))


def oracle_vstack(a: OracleCMatrix, b: OracleCMatrix) -> OracleCMatrix:
    if a.cols != b.cols:
        raise FormatError("vstack needs equal column counts")
    return OracleCMatrix(a.rows + b.rows, a.cols, a.entries + b.entries)


def oracle_block_diag(a: OracleCMatrix, b: OracleCMatrix) -> OracleCMatrix:
    top = oracle_hstack(a, OracleCMatrix.zero(a.rows, b.cols))
    bot = oracle_hstack(OracleCMatrix.zero(b.rows, a.cols), b)
    return oracle_vstack(top, bot)


def oracle_submatrix(m: OracleCMatrix, row_range: range, col_range: range) -> OracleCMatrix:
    ent = tuple(m.at(i, j) for i in row_range for j in col_range)
    return OracleCMatrix(len(row_range), len(col_range), ent)


# -- random matrices with degenerate structure ---------------------------------

small_fractions = st.one_of(st.integers(-3, 3).map(Fraction),
                            st.fractions(-4, 4, max_denominator=3))
small_gaussians = st.builds(GaussianRational, small_fractions, small_fractions)
# Numerators up to 1e9 over pairwise coprime denominators up to 1e6: clearing
# a row's denominators multiplies several of them together, and the integer
# rows then carry large contents and negative pivots.
COPRIME_DENOMINATORS = (1, 2 ** 19, 3 ** 12, 5 ** 8, 7 ** 7, 11 ** 5, 13 ** 5, 999983)
wide_fractions = st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9),
                           st.sampled_from(COPRIME_DENOMINATORS))
wide_gaussians = st.builds(GaussianRational, wide_fractions, wide_fractions)


@st.composite
def row_lists(draw, entry, zero, square=False):
    """(rows, ncols) for up to 6x7 row lists, edited to hold zero rows and columns, duplicated
    rows and rows that combine two others, so rank deficiency is common."""
    m = draw(st.integers(0, 6))
    n = m if square else draw(st.integers(0, 7))
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if m and n:
        for _ in range(draw(st.integers(0, 3))):
            edit = draw(st.sampled_from(["zero_row", "zero_col", "dup_row", "combo_row"]))
            i, j, k = (draw(st.integers(0, m - 1)) for _ in range(3))
            if edit == "zero_row":
                rows[i] = [zero] * n
            elif edit == "zero_col":
                c = draw(st.integers(0, n - 1))
                for row in rows:
                    row[c] = zero
            elif edit == "dup_row":
                rows[i] = rows[j][:]
            else:
                s = draw(entry)
                rows[i] = [x + s * y for x, y in zip(rows[j], rows[k])]
    return rows, n


@st.composite
def real_or_imaginary_columns(draw, square=False):
    """Gaussian row lists whose columns are each purely real or purely imaginary.

    Rows are drawn over the wide rationals and each column is then scaled by
    1 or i; scaling a column keeps the row dependencies `row_lists` planted.
    """
    rows, n = draw(row_lists(wide_fractions.map(GaussianRational), ZERO, square))
    units = [draw(st.sampled_from((ONE, I))) for _ in range(n)]
    return [[x * u for x, u in zip(row, units)] for row in rows], n


def _cmatrix(rows, ncols):
    return CMatrix(len(rows), ncols, tuple(x for row in rows for x in row))


# Kernel vectors over 2 and over 3, read off together over their lcm, not
# their max, the second at 1 / 3i, whose real and imaginary parts differ
DENOMINATORS_2_AND_3 = ([[2, 0], [0, 3 * I]], 2)
DENOMINATORS_2_AND_3_WIDE = ([[2, 0, 1, 0], [0, 3 * I, 0, 1]], 4)


def test_matmul_identity_and_zero():
    m = gmat([(1, 2), (0, -1)], [(3, 0), (0, 5)])
    assert CMatrix.identity(2) @ m == m
    assert m @ CMatrix.identity(2) == m
    assert (CMatrix.zero(2, 2) @ m).is_zero()


def test_inverse_small():
    m = mat([1, 2], [3, 4])
    inv = m.inverse()
    assert m @ inv == CMatrix.identity(2)
    assert inv @ m == CMatrix.identity(2)


def test_inverse_random_round_trip():
    rng = random.Random(5)
    for n in (1, 2, 3, 4):
        m = random_invertible(rng, n)
        assert m @ m.inverse() == CMatrix.identity(n)


def test_singular_raises():
    with pytest.raises(SingularMatrixError):
        mat([1, 2], [2, 4]).inverse()


def test_singular_only_over_c_raises():
    # [[1, i], [i, -1]] has invertible real and imaginary parts, and
    # B diag(1, .., 1, 0) C rank n - 1
    rng = random.Random(8)
    ms = [gmat([(1, 0), (0, 1)], [(0, 1), (-1, 0)])]
    for n in (1, 2, 3, 4, 5):
        drop = CMatrix.from_rows([[int(i == j < n - 1) for j in range(n)] for i in range(n)])
        ms.append(random_invertible(rng, n) @ drop @ random_invertible(rng, n))
    for m in ms:
        assert m.rank() == m.rows - 1
        with pytest.raises(SingularMatrixError):
            m.inverse()
        assert not m.is_invertible()


def test_zero_size_matrices_are_valid_and_invertible():
    e = CMatrix.zero(0, 0)
    assert e.inverse() == e
    tall = CMatrix.zero(2, 0)
    wide = CMatrix.zero(0, 3)
    assert (tall @ wide) == CMatrix.zero(2, 3)
    assert tall.rank() == 0


def test_conj_distributes_over_product():
    a = gmat([(0, 1), (2, -3)], [(1, 1), (0, 0)])
    b = gmat([(5, 2), (0, 1)], [(1, 0), (-2, 7)])
    assert (a @ b).conj() == a.conj() @ b.conj()


def test_stack_and_blocks():
    a, b = mat([1]), mat([2])
    assert hstack(a, b) == mat([1, 2])
    assert vstack(a, b) == mat([1], [2])
    assert block_diag(a, b) == mat([1, 0], [0, 2])
    grid = from_blocks([[CMatrix.zero(1, 1), CMatrix.identity(1)],
                        [CMatrix.identity(1), CMatrix.zero(1, 1)]])
    assert grid == mat([0, 1], [1, 0])


def test_submatrix():
    m = mat([1, 2, 3], [4, 5, 6], [7, 8, 9])
    assert submatrix(m, range(0, 2), range(1, 3)) == mat([2, 3], [5, 6])


def test_column_space_and_nullspace_split_idempotent():
    # projection onto the first coordinate along (1, 1)
    e = mat([1, 1], [0, 0])
    assert e @ e == e
    im = column_space_basis(e)
    ker = nullspace_basis(e)
    t = hstack(im, ker)
    assert t.is_invertible()
    assert im.cols + ker.cols == 2


def test_nullspace_members_are_killed():
    m = gmat([(1, 0), (0, 1)], [(0, 1), (-1, 0)])  # second row = i * first
    ns = nullspace_basis(m)
    assert ns.cols == 1
    assert (m @ ns).is_zero()
    assert m.rank() == 1


def test_fraction_nullspace_and_rank():
    rows = [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(1)]]
    assert fraction_nullspace(integer_rows(rows), 2) == [(1, [1, 1])]
    basis = kernel(rows, 2)
    assert basis == [[Fraction(1), Fraction(1)]]
    assert oracle_fraction_rank(rows) == 1


def test_fraction_nullspace_respects_system():
    rng = random.Random(11)
    for _ in range(20):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        for v in kernel(rows, n):
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0
        assert oracle_fraction_rank(rows) + len(kernel(rows, n)) == n


def test_fraction_solve():
    cols = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
    assert fraction_solve(cols, [Fraction(3), Fraction(2)]) == [Fraction(1), Fraction(2)]
    assert fraction_solve([[Fraction(1), Fraction(1)]], [Fraction(1), Fraction(2)]) is None
    # rank 1: below the rank the second equation reads 0 = 1
    cols = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert fraction_solve(cols, [Fraction(1), Fraction(3)]) is None
    assert fraction_solve([], [Fraction(0)]) == []
    assert fraction_solve([], [Fraction(1)]) is None
    # no equations: every x solves, and the free coordinates come out 0
    assert fraction_solve([], []) == []
    assert fraction_solve([[], []], []) == [Fraction(0), Fraction(0)]


def test_fraction_nullspace_rejects_malformed_rows():
    with pytest.raises(FormatError):
        fraction_nullspace([[1, 2], [3]], 2)
    with pytest.raises(FormatError):
        fraction_nullspace([[1, 2]], 3)
    with pytest.raises(FormatError):
        fraction_nullspace([[1, 2]], 1)


def test_fraction_solve_rejects_malformed_columns():
    with pytest.raises(FormatError):
        fraction_solve([[Fraction(1), Fraction(0)], [Fraction(1)]], [Fraction(1), Fraction(2)])
    with pytest.raises(FormatError):
        fraction_solve([[Fraction(1), Fraction(0), Fraction(4)]], [Fraction(1), Fraction(2)])
    with pytest.raises(FormatError):
        fraction_solve([[Fraction(1)]], [Fraction(1), Fraction(2)])


# -- differential tests against the reference implementations -----------------

@given(st.one_of(row_lists(small_fractions, Fraction(0)), row_lists(wide_fractions, Fraction(0))))
def test_fraction_nullspace_matches_oracle(system):
    rows, n = system
    ints = integer_rows(rows)
    before = [row[:] for row in ints]
    assert as_fractions(fraction_nullspace(ints, n)) == oracle_fraction_nullspace(rows, n)
    assert ints == before


@given(st.sampled_from([small_fractions, wide_fractions]), st.data())
def test_fraction_solve_matches_oracle(entry, data):
    rows, k = data.draw(row_lists(entry, Fraction(0)))
    columns = [[row[j] for row in rows] for j in range(k)]
    x = [data.draw(entry) for _ in range(k)]
    consistent = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows]
    sol = fraction_solve(columns, consistent)
    assert sol is not None
    assert sol == oracle_fraction_solve(columns, consistent)
    arbitrary = [data.draw(entry) for _ in rows]
    assert fraction_solve(columns, arbitrary) == oracle_fraction_solve(columns, arbitrary)


@given(st.one_of(row_lists(small_gaussians, ZERO), row_lists(wide_gaussians, ZERO),
                 real_or_imaginary_columns()))
def test_cmatrix_reductions_match_oracle(system):
    m = _cmatrix(*system)
    assert m.rank() == len(oracle_echelon(oracle_row_list(m))[1])
    assert column_space_basis(m) == oracle_column_space_basis(m)
    assert nullspace_basis(m) == oracle_nullspace_basis(m)


@given(st.one_of(row_lists(small_gaussians, ZERO, square=True),
                 row_lists(small_fractions.map(GaussianRational), ZERO, square=True),
                 row_lists(wide_gaussians, ZERO, square=True),
                 real_or_imaginary_columns(square=True)))
@example(DENOMINATORS_2_AND_3)
def test_inverse_matches_oracle(system):
    m = _cmatrix(*system)
    try:
        expected = oracle_inverse(m)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            m.inverse()
        assert not m.is_invertible()
    else:
        assert m.inverse() == expected
        assert m.is_invertible()


# -- the echelon kernel against the Gauss-Jordan one ---------------------------

int_entries = st.sampled_from([st.integers(-3, 3), st.integers(-10 ** 12, 10 ** 12)])


@st.composite
def int_systems(draw):
    """(rows, ncols): `row_lists` of small or wide ints."""
    return draw(row_lists(draw(int_entries), 0))


@given(int_systems())
def test_echelon_matches_oracle(system):
    rows, _ = system
    expected = [row[:] for row in rows]
    pivots = oracle_rref(expected)
    echelon = [row[:] for row in rows]
    assert _echelon(echelon) == pivots
    for row, p in zip(echelon, pivots):
        assert row[p] and not any(row[:p])
    # the rows past the last pivot are zero, as under Gauss-Jordan
    assert echelon[len(pivots):] == expected[len(pivots):]
    assert not any(map(any, echelon[len(pivots):]))


@given(st.one_of(int_systems(), row_lists(wide_fractions, Fraction(0))))
def test_fraction_nullspace_matches_gauss_jordan(system):
    rows, n = system
    assert kernel(rows, n) == oracle_int_fraction_nullspace(rows, n)
    reduced = [_integral(row) for row in rows]
    pivots = _echelon(reduced)
    free = [f for f in range(n) if f not in pivots]
    assert as_fractions(_nullspace(reduced, pivots, n, free)) == \
        oracle_int_fraction_nullspace(rows, n)


@given(st.one_of(int_systems(), row_lists(wide_fractions, Fraction(0))))
def test_kernel_pairs_match_the_fraction_kernel(system):
    rows, n = system
    ints = integer_rows(rows)
    pairs = fraction_nullspace(ints, n)
    expected = oracle_fraction_kernel(rows, n)
    assert len(pairs) == len(expected)
    pivots = _echelon([row[:] for row in ints])
    for f, (den, nums), vec in zip([f for f in range(n) if f not in pivots], pairs, expected):
        assert den > 0 and gcd(den, *nums) == 1 and nums[f] == den
        assert len(nums) == n
        assert [Fraction(x, den) for x in nums] == vec


@given(int_systems(), st.data())
def test_fraction_solve_matches_gauss_jordan(system, data):
    rows, n = system
    columns = [[row[j] for row in rows] for j in range(n)]
    x = [data.draw(st.integers(-5, 5)) for _ in range(n)]
    consistent = [sum(a * b for a, b in zip(row, x)) for row in rows]
    arbitrary = [data.draw(st.integers(-5, 5)) for _ in rows]
    for target in (consistent, arbitrary):
        assert fraction_solve(columns, target) == oracle_int_fraction_solve(columns, target)


@given(st.one_of(row_lists(small_gaussians, ZERO), row_lists(wide_gaussians, ZERO),
                 real_or_imaginary_columns()))
def test_cmatrix_reductions_match_gauss_jordan(system):
    m = _cmatrix(*system)
    pivots = oracle_rref(_real_rows(m))
    assert m.rank() == len(pivots) // 2
    assert column_space_basis(m) == submatrix(m, range(m.rows),
                                               [p // 2 for p in pivots if p % 2 == 0])
    assert nullspace_basis(m) == oracle_int_nullspace_basis(m)


@given(st.one_of(row_lists(small_gaussians, ZERO), row_lists(wide_gaussians, ZERO),
                 real_or_imaginary_columns()))
@example(DENOMINATORS_2_AND_3_WIDE)
def test_reduced_row_echelon_matches_gauss_jordan(system):
    # the pivots and the nonzero rows of the Gauss-Jordan form, canonical as built
    m = _cmatrix(*system)
    rows, pivots = oracle_echelon(oracle_row_list(m))
    got, r = reduced_row_echelon(m)
    assert got == pivots
    assert r == CMatrix(len(pivots), m.cols, [x for row in rows[:len(pivots)] for x in row])
    assert submatrix(m, range(m.rows), pivots) @ r == m


@given(st.one_of(row_lists(small_gaussians, ZERO, square=True),
                 row_lists(wide_gaussians, ZERO, square=True),
                 real_or_imaginary_columns(square=True)))
@example(DENOMINATORS_2_AND_3)
def test_inverse_matches_gauss_jordan(system):
    m = _cmatrix(*system)
    try:
        expected = oracle_int_inverse(m)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            m.inverse()
        assert not m.is_invertible()
    else:
        assert m.inverse() == expected
        assert m.is_invertible()


# -- full ranks certified modulo a Gaussian prime ------------------------------

def _oracle_rank(m: CMatrix) -> int:
    return len(oracle_echelon(oracle_row_list(m))[1])


def test_the_modulus_is_a_prime_with_a_square_root_of_minus_one():
    from sympy import isprime

    p, s = linalg._P, linalg._SQRT_MINUS_ONE
    assert isprime(p) and p % 4 == 1
    assert s * s % p == p - 1


def test_a_rank_lost_modulo_the_prime_falls_back_to_the_exact_one():
    # each matrix has full rank over Q(i), and a nonzero minor that maps to 0
    p, s = linalg._P, linalg._SQRT_MINUS_ONE
    ms = [mat([p]), gmat([(s, -1)]), mat([1, 0], [0, p])]
    rng = random.Random(3)
    for n in (2, 3, 4):
        u = random_unimodular(rng, n)
        d = CMatrix.from_rows([[p if i == j == n - 1 else int(i == j) for j in range(n)]
                               for i in range(n)])
        ms.append(u @ d @ u.inverse())
    for m in ms:
        n = m.rows
        assert linalg._modular_rank(m, n) < n
        assert m.rank() == _oracle_rank(m) == n
        assert m.is_invertible()


@st.composite
def low_rank_products(draw):
    """An m x k times a k x n matrix, k <= 3: rank at most k, often below min(m, n)."""
    entry = draw(st.sampled_from([small_gaussians, wide_gaussians]))
    k = draw(st.integers(0, 3))
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    tall = CMatrix(m, k, [draw(entry) for _ in range(m * k)])
    wide = CMatrix(k, n, [draw(entry) for _ in range(k * n)])
    return tall @ wide


@given(low_rank_products())
def test_rank_of_low_rank_products_matches_oracle(m):
    assert m.rank() == _oracle_rank(m)
    assert m.is_invertible() == (m.is_square and _oracle_rank(m) == m.rows)


@st.composite
def vector_sequences(draw):
    """(vectors, count): up to six (den, nums) vectors, `row_lists` rows over coprime
    denominators, so the first dependence comes early, late or not at all."""
    rows, _ = draw(row_lists(draw(int_entries), 0))
    vectors = [(draw(st.sampled_from(COPRIME_DENOMINATORS)), row) for row in rows]
    return vectors, draw(st.integers(0, len(rows)))


@given(vector_sequences())
def test_first_dependence_matches_oracle(sequence):
    vectors, count = sequence
    try:
        expected = primitive_form(oracle_first_dependence(iter(vectors), count))
    except ValueError:
        with pytest.raises(ValueError):
            _first_dependence(iter(vectors), count)
    else:
        assert _first_dependence(iter(vectors), count) == expected


def test_first_dependence_draws_only_what_it_needs():
    drawn = []

    def vectors():
        for k, nums in enumerate(([1, 0], [0, 1], [2, 3], [5, 7])):
            drawn.append(k)
            yield 1, nums

    dependence = _first_dependence(vectors(), 4)
    assert dependence == [-2, -3, 1] and all(type(c) is int for c in dependence)
    assert drawn == [0, 1, 2]


# -- the sparse row step and the block split against the dense kernel ----------

@given(int_systems())
def test_echelon_matches_the_dense_kernel(system):
    # every row, not only the pivots: `_clear` makes the integers
    # `oracle_row_step` made
    rows, _ = system
    got = [row[:] for row in rows]
    expected = [row[:] for row in rows]
    assert _echelon(got) == oracle_dense_echelon(expected)
    assert got == expected


@given(vector_sequences())
def test_first_dependence_matches_the_dense_kernel(sequence):
    vectors, count = sequence
    try:
        expected = primitive_form(oracle_dense_first_dependence(iter(vectors), count))
    except ValueError:
        with pytest.raises(ValueError):
            _first_dependence(iter(vectors), count)
    else:
        assert _first_dependence(iter(vectors), count) == expected


# `_echelon` and `_clear` as they were before `_echelon` ran the row step
# inline, kept verbatim apart from the names as the oracle for the inline
# step: the same pivots and the same rows, entry for entry.

def oracle_clear(row: list[int], c: int, p: int, support: list, start: int) -> list[int]:
    """`row` with column c cleared by a pivot row holding p there and the nonzeros `support`;
    both rows are zero before column `start`."""
    f = row[c]
    g = gcd(p, f)
    a, b = p // g, f // g
    new = row[start:] if a == 1 else [a * x for x in row[start:]]
    for j, y in support:
        new[j - start] -= b * y
    return row[:start] + _primitive(new)


def oracle_sparse_echelon(rows: list[list[int]]) -> list[int]:
    """Fraction-free row echelon form of integer rows in place; return the pivot columns."""
    if not rows:
        return []
    n = len(rows)
    pivots: list[int] = []
    for c in range(len(rows[0])):
        r = len(pivots)
        if r == n:
            break
        piv, best = None, float("inf")
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
            if rows[i][c]:
                rows[i] = oracle_clear(rows[i], c, p, support, c)
        pivots.append(c)
    return pivots


def oracle_sparse_first_dependence(vectors, count: int) -> list[int]:
    """Coefficients c_0..c_k of the first linear dependence among the vectors."""
    kept: list[tuple[int, int, list]] = []
    for k, (den, vec) in zip(range(count), vectors):
        n = len(vec)
        row = vec + [den if j == k else 0 for j in range(count)]
        for c, p, support in kept:
            if row[c]:
                row = oracle_clear(row, c, p, support, 0)
        c = min((j for j in range(n) if row[j]), key=lambda j: abs(row[j]), default=None)
        if c is None:
            dep = _primitive(row[n:n + k + 1])
            return dep if dep[-1] > 0 else [-x for x in dep]
        kept.append((c, row[c], [(j, y) for j, y in enumerate(row) if y]))
    raise ValueError(f"the first {count} vectors are independent")


@st.composite
def scaled_systems(draw):
    """Up to 7x8 int rows, empty input included, edited to hold zero rows, rows scaled
    by a non-unit (so not primitive), and columns led by negative and non-unit entries,
    so pivots of any sign and size meet rows that share a factor."""
    entry = draw(st.sampled_from([st.integers(-3, 3), st.integers(-40, 40),
                                  st.integers(-10 ** 12, 10 ** 12)]))
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 8))
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    for row in rows:
        edit = draw(st.sampled_from(["keep", "zero", "scale", "negative_lead"]))
        if edit == "zero":
            row[:] = [0] * n
        elif edit == "scale":
            k = draw(st.sampled_from([-6, -2, 2, 3, 12]))
            row[:] = [k * x for x in row]
        elif edit == "negative_lead" and n:
            row[0] = -draw(st.integers(2, 9))
    return rows


@given(scaled_systems())
@example([])  # empty input
@example([[]])
# zero rows, non-primitive rows, and negative non-unit pivots
@example([[0, 0, 0], [-4, 2, 6], [6, 9, 3], [0, 0, 0], [-2, 5, -1]])
def test_echelon_matches_the_called_row_step(rows):
    got = [row[:] for row in rows]
    expected = [row[:] for row in rows]
    assert _echelon(got) == oracle_sparse_echelon(expected)
    assert got == expected


def test_echelon_leaves_the_input_rows_alone():
    rows = [[2, 1, 4], [3, 5, 7], [4, 2, 8]]
    before = [row[:] for row in rows]
    lists = list(rows)
    _echelon(rows)
    assert lists == before


@given(vector_sequences())
def test_first_dependence_matches_the_called_row_step(sequence):
    vectors, count = sequence
    try:
        expected = oracle_sparse_first_dependence(iter(vectors), count)
    except ValueError:
        with pytest.raises(ValueError):
            _first_dependence(iter(vectors), count)
    else:
        assert _first_dependence(iter(vectors), count) == expected


@st.composite
def block_systems(draw):
    """(rows, ncols): 1-4 independent blocks of random int rows, each up to 5x5, with up
    to 2 zero rows and 2 zero columns added, then the columns and the rows shuffled."""
    entries = draw(int_entries)
    shapes = draw(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=4))
    ncols = sum(w for _, w in shapes) + draw(st.integers(0, 2))
    rows, start = [], 0
    for h, w in shapes:
        for _ in range(h):
            row = [0] * ncols
            row[start:start + w] = [draw(entries) for _ in range(w)]
            rows.append(row)
        start += w
    rows += [[0] * ncols for _ in range(draw(st.integers(0, 2)))]
    order = draw(st.permutations(range(ncols)))
    return draw(st.permutations([[row[j] for j in order] for row in rows])), ncols


def as_dicts(rows):
    """Dense int rows as sparse rows: dicts of their nonzeros."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


@given(block_systems())
def test_block_split_matches_the_whole_system(system):
    # the same system as list rows, which take the dense route, and as dict
    # rows, which take the sparse route
    rows, n = system
    before = [row[:] for row in rows]
    pivots = oracle_dense_echelon([row[:] for row in rows])
    free = [f for f in range(n) if f not in pivots]
    for given_rows in (rows, as_dicts(rows)):
        pairs = fraction_nullspace(given_rows, n)
        assert rows == before
        assert as_fractions(pairs) == oracle_fraction_kernel(rows, n)
        assert len(pairs) == len(free)
        for f, (den, nums) in zip(free, pairs):
            assert den > 0 and gcd(den, *nums) == 1 and nums[f] == den


@st.composite
def sparse_block_systems(draw):
    """(rows, dict rows, ncols): a `block_systems` draw, and the same rows as dicts built
    the way `hom_basis` builds them, term by term: each with up to 3 pairs of terms c, -c
    at one column, which cancel as loop terms do, and up to 2 explicit zero entries, at
    any column, inside the row's block or not."""
    rows, ncols = draw(block_systems())
    columns = st.integers(0, ncols - 1)
    dicts = []
    for row in rows:
        terms = [(j, x) for j, x in enumerate(row) if x]
        for j, c in draw(st.lists(st.tuples(columns, st.integers(1, 5)), max_size=3)):
            terms += [(j, c), (j, -c)]
        sparse: dict[int, int] = {}
        for j, x in draw(st.permutations(terms)):
            sparse[j] = sparse.get(j, 0) + x
        for j in draw(st.lists(columns, max_size=2)):
            sparse.setdefault(j, 0)
        dicts.append(sparse)
    return rows, dicts, ncols


@given(sparse_block_systems())
def test_sparse_and_dense_routes_match_the_oracle(system):
    rows, dicts, n = system
    before = copy.deepcopy(dicts)
    expected = oracle_fraction_nullspace([[Fraction(x) for x in row] for row in rows], n)
    # the dict rows take the sparse route, and the list rows the dense one
    assert as_fractions(fraction_nullspace(dicts, n)) == expected
    assert dicts == before
    assert as_fractions(fraction_nullspace(rows, n)) == expected


def test_sparse_route_never_combines_rows_of_different_blocks(monkeypatch):
    steps = []
    original = sparse._sparse_clear

    def recording(row, c, p, support):
        steps.append(set(row) | {j for j, _ in support})
        return original(row, c, p, support)

    monkeypatch.setattr(sparse, "_sparse_clear", recording)
    # blocks of widths 10, 12 and 14 on shuffled columns, each one row short
    # of square, with explicit zeros, and zero rows
    rng = random.Random(3)
    order = rng.sample(range(36), 36)
    blocks = [set(order[:10]), set(order[10:22]), set(order[22:])]
    rows = [{k: rng.randint(-4, 4) for k in cols} for cols in blocks for _ in range(len(cols) - 1)]
    rows += [{}, {}, {order[0]: 0}]
    before = copy.deepcopy(rows)

    def dense(rows):
        return [[row.get(j, 0) for j in range(36)] for row in rows]

    assert as_fractions(fraction_nullspace(rows, 36)) == oracle_fraction_kernel(dense(rows), 36)
    assert rows == before
    # every step combines two rows of one block
    assert steps and all(any(cols <= block for block in blocks) for cols in steps)
    # a row across the blocks links them, and steps then cross them
    steps.clear()
    connected = rows[:-1] + [dict.fromkeys(range(36), 1)]
    assert as_fractions(fraction_nullspace(connected, 36)) == \
        oracle_fraction_kernel(dense(connected), 36)
    assert not all(any(cols <= block for block in blocks) for cols in steps)


def test_fraction_nullspace_rejects_malformed_sparse_rows():
    # a column outside 0..ncols-1 or not an int, or a value that `is_int`
    # rejects, with the row alone and after a good one
    class Count(int):
        pass

    good = {0: 1, 2: -3}
    for bad in ({3: 1}, {-1: 1}, {1.0: 1}, {"0": 1}, {True: 1}, {None: 1},
                {0: 1.0}, {0: True}, {0: Fraction(1)}, {0: "1"}, {0: None}):
        for rows in ([bad], [good, bad]):
            with pytest.raises(FormatError):
                fraction_nullspace(rows, 3)
    # a system is all dict rows or all list rows
    for rows in ([[1, 2, 3], good], [good, [1, 2, 3]], [good, (1, 2, 3)]):
        with pytest.raises(FormatError):
            fraction_nullspace(rows, 3)
    # explicit zeros and int subclasses other than bool are ints
    expected = fraction_nullspace([[1, 0, -3]], 3)
    assert fraction_nullspace([{0: Count(1), 1: 0, Count(2): -3}], 3) == expected
    assert fraction_nullspace([good] * 2, 3) == expected


def test_fraction_nullspace_never_writes_its_rows():
    rng = random.Random(5)
    rows = [{j: rng.randint(-3, 3) for j in rng.sample(range(10), 4)} for _ in range(8)]
    rows.append({})
    before = copy.deepcopy(rows)
    fraction_nullspace(rows, 10)
    assert rows == before


# -- the integer-backed CMatrix against the GaussianRational one ---------------

dims = st.integers(0, 4)
entry_kinds = st.sampled_from([small_gaussians, wide_gaussians])


@st.composite
def twin_matrices(draw, rows, cols, entry):
    """(CMatrix, OracleCMatrix) with the same entries: dense, sparse, zero or identity."""
    kind = draw(st.sampled_from(["dense", "sparse", "zero", "identity"]))
    if kind == "identity" and rows == cols:
        ent = [ONE if i == j else ZERO for i in range(rows) for j in range(cols)]
    elif kind == "zero":
        ent = [ZERO] * (rows * cols)
    else:
        ent = [draw(entry) if kind == "dense" or draw(st.booleans()) else ZERO
               for _ in range(rows * cols)]
    return CMatrix(rows, cols, ent), OracleCMatrix(rows, cols, tuple(ent))


def assert_matches(new, old):
    """new holds the oracle's entries and is in canonical form."""
    assert (new.rows, new.cols) == (old.rows, old.cols)
    assert new.entries == old.entries
    assert new.den > 0 and gcd(new.den, *new.re, *new.im) == 1


@given(dims, dims, dims, entry_kinds, st.data())
def test_cmatrix_arithmetic_matches_oracle(r, k, c, entry, data):
    a, oa = data.draw(twin_matrices(r, k, entry))
    b, ob = data.draw(twin_matrices(r, k, entry))
    d, od = data.draw(twin_matrices(k, c, entry))
    assert_matches(a + b, oa + ob)
    assert_matches(a - b, oa - ob)
    assert_matches(-a, -oa)
    assert_matches(a @ d, oa @ od)
    assert_matches(a.conj(), oa.conj())
    for s in (data.draw(st.integers(-5, 5)), data.draw(st.one_of(small_fractions, wide_fractions)),
              data.draw(entry)):
        assert_matches(oracle_scale(a, s), oa.scale(s))
    assert a.is_zero() == oa.is_zero()
    assert oracle_is_identity(a) == oa.is_identity()


@given(dims, dims, dims, entry_kinds, st.data())
def test_cmatrix_blocks_match_oracle(r, c, k, entry, data):
    a, oa = data.draw(twin_matrices(r, c, entry))
    b, ob = data.draw(twin_matrices(r, k, entry))
    d, od = data.draw(twin_matrices(k, c, entry))
    assert_matches(hstack(a, b), oracle_hstack(oa, ob))
    assert_matches(vstack(a, d), oracle_vstack(oa, od))
    assert_matches(block_diag(a, d), oracle_block_diag(oa, od))
    i, j = sorted(data.draw(st.integers(0, r)) for _ in range(2))
    p, q = sorted(data.draw(st.integers(0, c)) for _ in range(2))
    assert_matches(submatrix(a, range(i, j), range(p, q)),
                   oracle_submatrix(oa, range(i, j), range(p, q)))


@given(st.lists(dims, max_size=5), st.lists(dims, max_size=5), entry_kinds, st.data())
def test_n_ary_blocks_match_a_fold_of_the_oracle(heights, widths, entry, data):
    """Any number of blocks, of mixed denominators and with zero rows or columns, assembled
    at once equal the pairwise oracles folded, and so does a grid of strips."""
    r, c = data.draw(dims), data.draw(dims)
    shapes = list(zip(heights, widths))

    def twins(shapes):
        return tuple(zip(*(data.draw(twin_matrices(h, w, entry)) for h, w in shapes))) or ((), ())

    for build, oracle, (blocks, oracles) in (
            (hstack, oracle_hstack, twins((r, w) for w in widths)),
            (vstack, oracle_vstack, twins((h, c) for h in heights)),
            (block_diag, oracle_block_diag, twins(shapes))):
        if blocks:
            assert_matches(build(*blocks), reduce(oracle, oracles))
        else:
            assert build() == CMatrix.zero(0, 0)
    if heights and widths:
        grid = [twins((h, w) for w in widths) for h in heights]
        assert_matches(from_blocks([blocks for blocks, _ in grid]),
                       reduce(oracle_vstack, (reduce(oracle_hstack, strip) for _, strip in grid)))


def test_empty_assemblies_are_0x0():
    zero = CMatrix.zero(0, 0)
    assert hstack() == vstack() == block_diag() == from_blocks([]) == from_blocks([[]]) == zero
    # a lone block comes back unchanged
    for m in (mat([1, Fraction(1, 2)]), CMatrix.zero(0, 3), CMatrix.zero(2, 0)):
        assert hstack(m) == vstack(m) == block_diag(m) == from_blocks([[m]]) == m


def test_ragged_blocks_raise_the_pairwise_messages():
    a, row, col = mat([1]), mat([1, 2]), mat([1], [2])
    for make in (lambda: hstack(a, col), lambda: hstack(a, a, col), lambda: from_blocks([[a, col]]),
                 lambda: hstack(CMatrix.zero(0, 2), CMatrix.zero(1, 0))):
        with pytest.raises(FormatError, match="^hstack needs equal row counts$"):
            make()
    for make in (lambda: vstack(a, row), lambda: vstack(a, a, row),
                 lambda: from_blocks([[a, a], [row, a]]), lambda: from_blocks([[a], []]),
                 lambda: vstack(CMatrix.zero(2, 0), CMatrix.zero(0, 1))):
        with pytest.raises(FormatError, match="^vstack needs equal column counts$"):
            make()


@given(dims, dims, entry_kinds, st.data())
def test_cmatrix_canonical_form_is_route_independent(r, c, entry, data):
    a, _ = data.draw(twin_matrices(r, c, entry))
    b, _ = data.draw(twin_matrices(r, c, entry))
    for other in (oracle_scale(oracle_scale(a, 2), Fraction(1, 2)), (a + b) - b, a @ CMatrix.identity(c),
                  CMatrix.from_integers(r, c, 3 * a.den, [3 * x for x in a.re],
                                        [3 * y for y in a.im])):
        assert other == a and hash(other) == hash(a)
    zero = CMatrix.zero(r, c)
    assert a - a == zero and hash(a - a) == hash(zero)


def test_cmatrix_is_immutable_and_checks_its_shape():
    m = gmat([(1, 2), (0, -1)], [(3, 0), (0, 5)])
    for name, value in (("rows", 3), ("den", 2), ("re", ()), ("entries", ()), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(m, name, value)
    with pytest.raises(AttributeError):
        del m.rows
    assert m == gmat([(1, 2), (0, -1)], [(3, 0), (0, 5)])
    for bad in (lambda: CMatrix(2, 2, [ONE] * 3), lambda: CMatrix(1, 1, []),
                lambda: CMatrix(-1, 0, []), lambda: CMatrix(0, -2, []),
                lambda: CMatrix.zero(-1, 1), lambda: CMatrix.identity(-1),
                lambda: CMatrix.from_integers(1, 1, 0, [1], [0]),
                lambda: CMatrix.from_integers(1, 2, 1, [1], [0, 0])):
        with pytest.raises(FormatError):
            bad()


@pytest.mark.parametrize("build", [
    lambda: CMatrix.from_integers(True, 1, 1, [1], [0]),
    lambda: CMatrix.zero(1.5, 1),
    lambda: CMatrix.identity("3"),
    lambda: CMatrix.identity(2.0),
    lambda: CMatrix(1.0, 1, [1]),
], ids=["bool-rows", "float-rows", "str-size", "float-size", "float-rows-entries"])
def test_matrix_dimensions_follow_the_int_rule(build):
    with pytest.raises(FormatError, match="^matrix (row|column) count must be a nonnegative int"):
        build()
