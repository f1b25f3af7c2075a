"""Exact matrices over the Gaussian rationals, plus rational linear systems.

CMatrix (complex-rational matrices) carries all representation data; int
row-lists carry the real linear systems behind morphism spaces and the
Tits-form kernels, whose vectors come back as ints over one denominator.
A CMatrix is stored as integers: one positive common denominator and the
integer real and imaginary parts of its entries, so products and sums are
integer arithmetic with a single denominator per matrix. GaussianRational
entries are built only at the boundary (printing, `at`, and the lazily
built `entries`). Every block matrix, from `from_blocks`, `hstack`, `vstack`
and `block_diag` alike, is placed by one assembler, `_assemble`.

All elimination is integral: each rational row is scaled to a primitive
integer row (which leaves its solution set alone), and a complex matrix is
reduced through its real form, in which entry z is the 2x2 block
[[re z, -im z], [im z, re z]], read straight from the integer parts.
Every fraction-free elimination combines rows by one sparse step, `_clear`,
which `_echelon` runs inline. `_echelon` eliminates forward only, and
`_nullspace` reads kernel vectors off its rows by back-substitution;
images, kernels, inverses, reduced row echelon forms and rational solves
all come from these two, an inverse or a solution being the kernel vector
at an augmented column. So does every
rank, except a full one: `_modular_rank` certifies that first, modulo a
Gaussian prime, which is cheaper and exact whenever it reaches full rank.
`_first_dependence` reduces each new vector once against the rows it
keeps, and gives the dependence as a primitive integer polynomial.
`_symmetric_ldl` counts the inertia of symmetric int forms.
Zero-row and zero-column matrices are first-class values; the 0x0 matrix
is invertible.
"""
from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import compress
from math import gcd, inf, lcm
from operator import mul, neg

from .errors import FormatError, SingularMatrixError, check_int
from .scalars import GaussianRational, as_gaussian


def _check_dims(rows: int, cols: int) -> None:
    check_int(rows, "matrix row count", 0, FormatError)
    check_int(cols, "matrix column count", 0, FormatError)


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
        return _assemble(rows, cols, ())

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

    def __matmul__(self, other: "CMatrix") -> "CMatrix":
        if self.cols != other.rows:
            raise FormatError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        re, im = _product(self.rows, self.cols, other.cols, self.re, self.im, other.re, other.im)
        return _reduced(self.rows, other.cols, self.den * other.den, re, im)

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
        """Exact inverse by reducing [A | -I] in real form; raises SingularMatrixError.

        A is singular exactly when a pivot lands in the -I columns (the real
        column space of A is closed under i, so it holds the -I columns only
        when it is everything). Otherwise the kernel vector at free column
        2n + j solves A x = e_j in real form: it is column j of the inverse.
        """
        if not self.is_square:
            raise SingularMatrixError(f"only square matrices invert, got {self.rows}x{self.cols}")
        n = self.rows
        rows = _real_rows(self, -CMatrix.identity(n))
        pivots = _echelon(rows)
        if pivots and pivots[-1] >= 2 * n:
            raise SingularMatrixError(f"singular {n}x{n} matrix")
        return _realified_columns(n, _nullspace(rows, pivots, 3 * n, range(2 * n, 3 * n)))

    def is_invertible(self) -> bool:
        """Whether the matrix is square of full rank, read from `rank`."""
        return self.is_square and self.rank() == self.rows

    def rank(self) -> int:
        """The exact rank. A full rank is certified modulo a Gaussian prime first
        (see `_modular_rank`); any other comes from `_echelon` of the real form."""
        full = min(self.rows, self.cols)
        if not full or _modular_rank(self, full) == full:
            return full
        return len(_echelon(_real_rows(self))) // 2

    def __repr__(self) -> str:
        body = "; ".join(" ".join(repr(self.at(i, j)) for j in range(self.cols))
                         for i in range(self.rows))
        return f"CMatrix({self.rows}x{self.cols}: {body})"


def _realified_columns(rows: int, vecs: list[tuple[int, list[int]]]) -> CMatrix:
    """The rows x len(vecs) matrix with entry (k, j) (nums_j[2k] + i nums_j[2k + 1]) / den_j,
    for `_nullspace` vectors (den_j, nums_j) read in their first 2 * rows coordinates, put
    over the lcm of the den_j. It is canonical: gcd(den_j, *nums_j) == 1, and the one entry
    read past them is nums_j[f] == den_j, which adds nothing to that gcd."""
    den = lcm(*(d for d, _ in vecs))
    scaled = [(den // d, nums) for d, nums in vecs]
    re = tuple(s * nums[k] for k in range(0, 2 * rows, 2) for s, nums in scaled)
    im = tuple(s * nums[k] for k in range(1, 2 * rows, 2) for s, nums in scaled)
    return _canonical(rows, len(vecs), den, re, im)


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


def _product(rows: int, k: int, m: int, are, aim, bre, bim) -> tuple[list[int], list[int]]:
    """The integer parts of A B, row-major, for A of `rows` x k and B of k x m, each
    given by the integer parts of its entries, row-major."""
    bcols = [(bre[j::m], bim[j::m]) for j in range(m)]
    re, im = [], []
    for i in range(rows):
        ar, ai = are[i * k:(i + 1) * k], aim[i * k:(i + 1) * k]
        for br, bi in bcols:
            re.append(sum(map(mul, ar, br)) - sum(map(mul, ai, bi)))
            im.append(sum(map(mul, ar, bi)) + sum(map(mul, ai, br)))
    return re, im


def _add(a: CMatrix, b: CMatrix, sign: int) -> CMatrix:
    """a + sign * b over the lcm of the denominators."""
    den = lcm(a.den, b.den)
    fa, fb = den // a.den, sign * (den // b.den)
    return _reduced(a.rows, a.cols, den, [fa * x + fb * y for x, y in zip(a.re, b.re)],
                    [fa * x + fb * y for x, y in zip(a.im, b.im)])


def _assemble(rows: int, cols: int, placed) -> CMatrix:
    """The rows x cols matrix with each block b of `placed`, given as (i, j, b), at row i and
    column j and zeros elsewhere (no zero block is built), over den, the lcm of the blocks'
    denominators. It is canonical as it stands: a prime power dividing den exactly divides
    the denominator of a block with a part prime to it, times a cofactor prime to it."""
    den = lcm(*(b.den for _, _, b in placed))
    re, im = [0] * (rows * cols), [0] * (rows * cols)
    for i, j, b in placed:
        f, c = den // b.den, b.cols
        bre, bim = (b.re, b.im) if f == 1 else ([f * x for x in b.re], [f * y for y in b.im])
        for r in range(b.rows):
            k = (i + r) * cols + j
            re[k:k + c], im[k:k + c] = bre[r * c:(r + 1) * c], bim[r * c:(r + 1) * c]
    return _canonical(rows, cols, den, tuple(re), tuple(im))


def from_blocks(grid: list[list[CMatrix]]) -> CMatrix:
    """The matrix whose horizontal strips are the rows of `grid`, each its blocks side by
    side. Raises FormatError unless the blocks of a strip have equal row counts and the
    strips equal widths. An empty grid or strip is 0x0."""
    placed, top, width = [], 0, None
    for strip in grid:
        height, left = strip[0].rows if strip else 0, 0
        for b in strip:
            if b.rows != height:
                raise FormatError("hstack needs equal row counts")
            placed.append((top, left, b))
            left += b.cols
        if width is not None and left != width:
            raise FormatError("vstack needs equal column counts")
        top, width = top + height, left
    return _assemble(top, width or 0, placed)


def hstack(*blocks: CMatrix) -> CMatrix:
    """The blocks side by side; they need equal row counts. No blocks give 0x0."""
    return from_blocks([blocks])


def vstack(*blocks: CMatrix) -> CMatrix:
    """The blocks one above the other; they need equal column counts. No blocks give 0x0."""
    return from_blocks([[b] for b in blocks])


def block_diag(*blocks: CMatrix) -> CMatrix:
    """The blocks down the diagonal, zeros elsewhere. No blocks give 0x0."""
    placed, rows, cols = [], 0, 0
    for b in blocks:
        placed.append((rows, cols, b))
        rows, cols = rows + b.rows, cols + b.cols
    return _assemble(rows, cols, placed)


def submatrix(m: CMatrix, row_range, col_range) -> CMatrix:
    """The entries in the given rows and columns (ranges or lists of indices)."""
    idx = [i * m.cols + j for i in row_range for j in col_range]
    return _reduced(len(row_range), len(col_range), m.den,
                    [m.re[k] for k in idx], [m.im[k] for k in idx])


def reduced_row_echelon(m: CMatrix) -> tuple[list[int], CMatrix]:
    """(pivots, R): the pivot columns of m, its first independent ones, and the
    nonzero rows R of its reduced row echelon form, so that m equals
    submatrix(m, range(m.rows), pivots) @ R.

    One `_echelon` of the real form gives the pivots. R is the identity on
    them, and on a free column f it is minus the pivot entries of f's
    canonical kernel vector (see `_nullspace`), read as in
    `_realified_columns`. R is canonical as it stands: kernel vector j has
    gcd(den_j, its pivot entries) == 1, as nums_j[2f] == den_j is its only
    other nonzero entry, so over den = lcm(den_j) the gcd of den and R's
    numerators is gcd_j(den / den_j) == 1.
    """
    reduced, n = _real_rows(m), 2 * m.cols
    pivots = _echelon(reduced)
    cols = [p // 2 for p in pivots if p % 2 == 0]
    free = [f for f in range(0, n, 2) if f not in pivots]
    vecs = _nullspace(reduced, pivots, n, free)
    den = lcm(*(d for d, _ in vecs))
    re, im = [0] * (len(cols) * m.cols), [0] * (len(cols) * m.cols)
    for k, c in enumerate(cols):
        re[k * m.cols + c] = den
    for f, (d, nums) in zip(free, vecs):
        s = den // d
        for k, c in enumerate(cols):
            re[k * m.cols + f // 2] = -s * nums[2 * c]
            im[k * m.cols + f // 2] = -s * nums[2 * c + 1]
    return cols, _canonical(len(cols), m.cols, den, tuple(re), tuple(im))


def transpose(m: CMatrix) -> CMatrix:
    idx = [i * m.cols + j for j in range(m.cols) for i in range(m.rows)]
    return _canonical(m.cols, m.rows, m.den, tuple(m.re[k] for k in idx),
                      tuple(m.im[k] for k in idx))


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


# The prime p = 119 * 2^23 + 1, which is 1 mod 4, and a square root of -1 modulo
# it (3 is a primitive root). Residues stay below 2^30, one digit of a CPython int.
_P = 998244353
_SQRT_MINUS_ONE = pow(3, (_P - 1) // 4, _P)


def _modular_rank(m: CMatrix, stop: int) -> int:
    """The rank of m's image in F_p, eliminated until it reaches `stop`.

    re + i im goes to re + s im mod p, s the square root of -1 above: a ring
    map Z[i] -> F_p, applied to the integer parts, den times m. A minor that
    is nonzero mod p is nonzero over Z[i], so the result is at most m's rank,
    and it is that rank when it reaches min(rows, cols). A false shortfall
    costs only the exact elimination, never an answer. Each step takes the
    first row nonzero in the leading column as the pivot row, a its entry
    there, drops that column and takes each other row r to
    a r - r[0] pivot, which needs no inverse mod p.
    """
    c, s = m.cols, _SQRT_MINUS_ONE
    residues = [(x + s * y) % _P for x, y in zip(m.re, m.im)]
    rows = [residues[i * c:(i + 1) * c] for i in range(m.rows)]
    rank = 0
    while rank < stop and rows and rows[0]:
        pivot = next((row for row in rows if row[0]), None)
        if pivot is None:
            rows = [row[1:] for row in rows]
            continue
        rank += 1
        if rank == stop:
            break
        rows.remove(pivot)
        a, pivot = pivot[0], pivot[1:]
        rest = []
        for row in rows:
            f = row[0]
            rest.append([(a * x - f * y) % _P for x, y in zip(row[1:], pivot)] if f else row[1:])
        rows = rest
    return rank


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

# The size, equations times unknowns, from which a linear system is worth
# restructuring before it is solved. It gates two decisions: here, whether
# `fraction_nullspace` looks for independent blocks, which below it cost
# more to find and gather than they save; and in `morphisms.decompose`,
# whether a node is put in echelon form first. On the 110 representations
# that the cli-rep-large benchmark screens through `decompose` at seed 1,
# the echelon change took them 1.36 times as long as no change when made at
# every node, and 0.63 times with this threshold; on its 24 scrambled sums,
# 0.79 and 0.65 times (best of 3, 2-core x86 host, CPython 3.11).
_MIN_SPLIT_CELLS = 512


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


def fraction_nullspace(rows: list[list[int]], ncols: int) -> list[tuple[int, list[int]]]:
    """Canonical basis of the solution space of the homogeneous int system rows . x = 0.

    One (den, nums) per free column f in turn, see `_nullspace`: x = nums / den
    is 1 at f and 0 at the other free columns. The nonzero rows are made
    primitive, not changed. From _MIN_SPLIT_CELLS cells on, each of their
    `_blocks`, one per summand in the Hom system of a direct sum in block
    form, is reduced on its own: the kernel is their kernels' direct sum, so
    f's vector lies in f's block. Raises FormatError unless every row has
    `ncols` entries. The name stays while the benchmark's tracer wraps it.
    """
    if ncols < 0 or any(len(row) != ncols for row in rows):
        raise FormatError(f"every equation needs {ncols} coefficients")
    reduced = [_primitive(row) for row in rows if any(row)]
    blocks = _blocks(reduced, ncols) if len(reduced) * ncols >= _MIN_SPLIT_CELLS else []
    if len(blocks) < 2:
        pivots = _echelon(reduced)
        return _nullspace(reduced, pivots, ncols, [f for f in range(ncols) if f not in pivots])
    vectors = {}
    for mask, block in blocks:
        cols = [j for j in range(ncols) if mask >> j & 1]
        sub = [[row[j] for j in cols] for row in block]
        pivots = _echelon(sub)
        free = [f for f in range(len(cols)) if f not in pivots]
        for f, (den, nums) in zip(free, _nullspace(sub, pivots, len(cols), free)):
            x = dict(zip(cols, nums))
            vectors[cols[f]] = den, [x.get(j, 0) for j in range(ncols)]
    return [vectors[f] for f in sorted(vectors)]


def _blocks(rows: list[list[int]], ncols: int) -> list[tuple[int, list[list[int]]]]:
    """The independent blocks of nonzero rows as (columns, rows), the columns an int with
    bit j for column j: a chain of rows, each nonzero in the next, links any two columns
    of a block, whose rows are nonzero there only. Untouched columns form a rowless block."""
    bits = [1 << j for j in range(ncols)]
    masks = [sum(compress(bits, row)) for row in rows]
    blocks: list[int] = []
    for m in masks:
        rest = []
        for b in blocks:
            if b & m:
                m |= b
            else:
                rest.append(b)
        rest.append(m)
        blocks = rest
    blocks.append((1 << ncols) - 1 - sum(blocks))  # the untouched columns, if any
    return [(b, [row for row, m in zip(rows, masks) if m & b]) for b in blocks if b]


def fraction_solve(columns: list[list[Fraction]], target: list[Fraction]) -> list[Fraction] | None:
    """Solve sum_j x_j * columns[j] = target exactly; None when inconsistent.

    The rows [columns | -target] are reduced; the system is inconsistent
    exactly when column k = len(columns) is a pivot, and otherwise the
    kernel vector at free column k, 0 at the other free columns, is x.
    Raises FormatError unless every column has the length of `target`.
    """
    if any(len(col) != len(target) for col in columns):
        raise FormatError(f"every column needs {len(target)} entries")
    k = len(columns)
    aug = [_integral([col[i] for col in columns] + [-t]) for i, t in enumerate(target)]
    pivots = _echelon(aug)
    if k in pivots:
        return None
    (den, nums), = _nullspace(aug, pivots, k + 1, [k])
    return [Fraction(x, den) for x in nums[:k]]
