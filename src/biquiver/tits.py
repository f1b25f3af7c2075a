"""The Tits quadratic form of a biquiver and its exact definiteness.

q_G(x) = sum x_i^2 - sum_{arrows u->v} x_u x_v, summed over all arrows of
either kind. Twice its Gram matrix Q is the integer generalized Cartan
matrix C = 2Q of the underlying multigraph, stored with Q as its view.
Definiteness is read exactly from the inertia of C, that of Q, counted by
the integer elimination `linalg._symmetric_ldl`, whose LDL^T steps root
enumeration reuses. Each Biquiver is analysed once: `gram_matrix(g)`
returns the one TitsGram that g keeps, and that TitsGram checks and
eliminates C once, so `definiteness`, `radical_vector` and
`roots_with_value` on the same g share one elimination. That elimination
is cubic in the number of vertices, so forms past MAX_GRAM_VERTICES
vertices are refused.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .errors import FormatError, PreconditionError
from .linalg import _symmetric_ldl, fraction_nullspace
from .model import Biquiver, DimensionVector

# The most vertices of a Tits form that `gram_matrix` builds and
# `definiteness` eliminates: the dense t x t elimination takes about 0.3 s
# at t = 200 and 2 s at t = 400, and the matrix alone grows as t^2.
MAX_GRAM_VERTICES = 256


class Definiteness(Enum):
    POSITIVE_DEFINITE = "PositiveDefinite"
    POSITIVE_SEMIDEFINITE = "PositiveSemidefinite"
    INDEFINITE = "Indefinite"


@dataclass(frozen=True)
class TitsGram:
    """The symmetric int matrix C = 2Q with x^T C x = 2 q_G(x)."""
    t: int
    c: tuple[tuple[int, ...], ...]

    @property
    def q(self) -> tuple[tuple[int | Fraction, ...], ...]:
        """The Gram matrix Q: each entry an int or, for odd x in C, Fraction(x, 2)."""
        return tuple(tuple(x // 2 if x % 2 == 0 else Fraction(x, 2) for x in row)
                     for row in self.c)

    @cached_property
    def ldl(self) -> tuple:
        """`_symmetric_ldl(c)` of the checked c, computed once and shared.

        Raises FormatError unless c is a symmetric t x t matrix of ints, and
        PreconditionError, before eliminating, when t > MAX_GRAM_VERTICES.
        A refusal is not memoized, so a malformed TitsGram raises on every
        read.
        """
        t, c = self.t, self.c
        if not (isinstance(t, int) and t >= 0 and isinstance(c, (tuple, list)) and len(c) == t
                and all(isinstance(row, (tuple, list)) and len(row) == t for row in c)):
            raise FormatError(f"Gram matrix must be {t} x {t}")
        _check_vertex_cap(t)
        if not all(isinstance(x, int) for row in c for x in row):
            raise FormatError("Gram matrix entries must be ints")
        if any(c[i][j] != c[j][i] for i in range(t) for j in range(i)):
            raise FormatError("Gram matrix must be symmetric")
        return _symmetric_ldl(c)


def _check_vertex_cap(t: int) -> None:
    if t > MAX_GRAM_VERTICES:
        raise PreconditionError(f"the Tits form has {t} vertices, past the cap of "
                                f"{MAX_GRAM_VERTICES} that its elimination accepts")


def gram_matrix(g: Biquiver) -> TitsGram:
    """C = 2Q, g's one TitsGram, built on the first call and returned by every
    later one; each call raises PreconditionError when g has more than
    MAX_GRAM_VERTICES vertices."""
    _check_vertex_cap(g.t)
    return g._gram


def _tits_gram(g: Biquiver) -> TitsGram:
    """C = 2Q, built from the arrows; `Biquiver._gram` memoizes it."""
    # 2 - 2 loops on the diagonal, minus the arrows joining u and v off it
    c = [[0] * g.t for _ in range(g.t)]
    for v in range(g.t):
        c[v][v] = 2
    for a in g.arrows:
        u, v = a.source - 1, a.target - 1
        if u == v:
            c[u][u] -= 2
        else:
            c[u][v] -= 1
            c[v][u] -= 1
    return TitsGram(g.t, tuple(map(tuple, c)))


def evaluate(g: Biquiver, z: DimensionVector) -> int:
    """q_G(z), always an integer for integer z."""
    if len(z) != g.t:
        raise PreconditionError(
            f"dimension vector has length {len(z)}, biquiver has {g.t} vertices")
    total = 0
    for zi in z:
        total += zi * zi
    for a in g.arrows:
        total -= z[a.source - 1] * z[a.target - 1]
    return total


def definiteness(gram: TitsGram) -> Definiteness:
    """Exact three-way verdict on the symmetric int matrix C = 2Q.

    Read off the inertia (n+, n-, n0) of C, which is that of Q: positive
    definite when n+ = t, positive semidefinite (and singular) when n- = 0.
    Only reads `gram.ldl`, which checks and eliminates C once per TitsGram:
    it raises FormatError unless C is a symmetric t x t matrix of ints, and
    PreconditionError, before eliminating, when t > MAX_GRAM_VERTICES.
    """
    (positive, negative, _), *_ = gram.ldl
    if positive == gram.t:
        return Definiteness.POSITIVE_DEFINITE
    if negative == 0:
        return Definiteness.POSITIVE_SEMIDEFINITE
    return Definiteness.INDEFINITE


def radical_vector(gram: TitsGram) -> DimensionVector | None:
    """Primitive positive integer generator of ker C = ker Q, when it exists.

    Present exactly when Q is positive semidefinite singular with a
    one-dimensional kernel spanned by a strictly positive vector (the case
    of a connected tame biquiver).
    """
    if definiteness(gram) is not Definiteness.POSITIVE_SEMIDEFINITE:
        return None
    basis = fraction_nullspace([list(row) for row in gram.c], gram.t)
    if len(basis) != 1:
        return None
    # nums is primitive, as nums[free] == den, and positive at the free column
    _, nums = basis[0]
    if any(x <= 0 for x in nums):
        return None
    return tuple(nums)
