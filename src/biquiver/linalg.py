"""Exact matrices over the Gaussian rationals, reduced through their real forms.

CMatrix (complex-rational matrices) carries all representation data; int
row-lists carry the real linear systems behind morphism spaces and the
Tits-form kernels, whose vectors come back as ints over one denominator.
A CMatrix is stored as integers: one positive common denominator and the
integer real and imaginary parts of its entries, so products and sums are
integer arithmetic with a single denominator per matrix. GaussianRational
entries are built only at the boundary (printing, `at`, and the lazily
built `entries`). Every block matrix, from `from_blocks`, `hstack`, `vstack`
and `block_diag` alike, is placed by one assembler, `_assemble`.

All elimination is integral, and every fraction-free elimination runs in
the kernel module `elimination`, which knows nothing of CMatrix. A complex
matrix is reduced through its real form, in which entry z is the 2x2 block
[[re z, -im z], [im z, re z]], read straight from the integer parts:
images, kernels, inverses and reduced row echelon forms all come from the
kernel's `_echelon` and `_nullspace`, read off by `_readout` alone, an
inverse at the I columns of [A | I]. So does every rank, except a full one:
`_modular_rank` certifies that first, modulo a Gaussian prime, which is
cheaper and exact whenever it reaches full rank. The kernel's
`fraction_nullspace`, and `fraction_solve`, which reads a solution off it,
can be imported from here too.
Zero-row and zero-column matrices are first-class values; the 0x0 matrix
is invertible.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul, neg

from .elimination import (_echelon, _integer_parts, _nullspace, _primitive,  # noqa: F401
                          fraction_nullspace, fraction_solve)
from .errors import FormatError, SingularMatrixError, check_int, echo
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
        """Exact inverse; raises SingularMatrixError. [A | I] in real form, with one real
        column per column of I, has a pivot in I's columns exactly when A is
        singular (the real column space of A is closed under i, so it holds
        them only when it is everything), and otherwise the reduced row
        echelon form [I | A^-1], which `_readout` reads at I's columns alone.
        """
        if not self.is_square:
            raise SingularMatrixError(f"only square matrices invert, got {self.rows}x{self.cols}")
        n = self.rows
        rows = _real_rows(self, CMatrix.identity(n))
        pivots = _echelon(rows)
        if pivots and pivots[-1] >= 2 * n:
            raise SingularMatrixError(f"singular {n}x{n} matrix")
        return _readout(rows, pivots, 3 * n, range(2 * n, 3 * n))

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


_set = object.__setattr__


def _check_matrix(m, what: str) -> None:
    """Refuse with FormatError("<what> needs a CMatrix, ...") an m that is not a CMatrix."""
    if not isinstance(m, CMatrix):
        raise FormatError(f"{what} needs a CMatrix, got {echo(m)}")


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
    submatrix(m, range(m.rows), pivots) @ R. One `_echelon` of the real form
    gives the pivots, and `_readout` reads R off at every complex column."""
    reduced, n = _real_rows(m), 2 * m.cols
    pivots = _echelon(reduced)
    return [p // 2 for p in pivots if p % 2 == 0], _readout(reduced, pivots, n, range(0, n, 2))


def _readout(reduced: list[list[int]], pivots: list[int], ncols: int, read) -> CMatrix:
    """Columns `read` of the reduced row echelon form of `_echelon`-reduced real rows,
    `ncols` wide, as a CMatrix with a row per complex pivot column c, the real pivot
    pair (2c, 2c + 1). Pivot 2c reads as the unit vector at c's row, and free column
    f as minus the pivot entries of its canonical kernel vector (den, nums) (see
    `_nullspace`): -(nums[2c] + i nums[2c + 1]) / den at c's row. It is canonical as
    it stands: vector j has gcd(den_j, its pivot entries) == 1, as nums_j[f] == den_j
    is its only other nonzero entry, so over den = lcm(den_j) the gcd of den and the
    numerators is gcd_j(den / den_j) == 1."""
    free = [f for f in read if f not in pivots]
    vecs = dict(zip(free, _nullspace(reduced, pivots, ncols, free)))
    den = lcm(*(d for d, _ in vecs.values()))
    evens, width = pivots[::2], len(read)
    re, im = [0] * (len(evens) * width), [0] * (len(evens) * width)
    for j, f in enumerate(read):
        if f not in vecs:
            re[evens.index(f) * width + j] = den
            continue
        d, nums = vecs[f]
        s = -(den // d)
        for k, p in enumerate(evens):
            re[k * width + j] = s * nums[p]
            im[k * width + j] = s * nums[p + 1]
    return _canonical(len(evens), width, den, tuple(re), tuple(im))


def transpose(m: CMatrix) -> CMatrix:
    idx = [i * m.cols + j for j in range(m.cols) for i in range(m.rows)]
    return _canonical(m.cols, m.rows, m.den, tuple(m.re[k] for k in idx),
                      tuple(m.im[k] for k in idx))


# -- the real form -----------------------------------------------------------

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
