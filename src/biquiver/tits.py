"""The Tits quadratic form of a biquiver and its exact definiteness.

q_G(x) = sum x_i^2 - sum_{arrows u->v} x_u x_v, summed over all arrows of
either kind. Its Gram matrix Q is built from integer arrow counts, so its
entries are ints and halves of odd ints. Definiteness is decided without
floating point from the inertia of Q, counted by the integer elimination
`linalg._symmetric_ldl`, whose LDL^T steps root enumeration reuses.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import FormatError, PreconditionError
from .linalg import _integral, _symmetric_ldl, fraction_nullspace
from .model import Biquiver, DimensionVector


class Definiteness(Enum):
    POSITIVE_DEFINITE = "PositiveDefinite"
    POSITIVE_SEMIDEFINITE = "PositiveSemidefinite"
    INDEFINITE = "Indefinite"


@dataclass(frozen=True)
class TitsGram:
    """Symmetric rational Gram matrix Q with x^T Q x = q_G(x).

    Each entry is an int or, where 2Q has an odd entry c, Fraction(c, 2).
    An int and the equal Fraction compare and hash alike.
    """
    t: int
    q: tuple[tuple[int | Fraction, ...], ...]


def gram_matrix(g: Biquiver) -> TitsGram:
    # C = 2Q: 2 - 2 loops on the diagonal, minus the arrows joining u and v off it
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
    return TitsGram(g.t, tuple(tuple(x // 2 if x % 2 == 0 else Fraction(x, 2) for x in row)
                               for row in c))


def evaluate(g: Biquiver, z: DimensionVector) -> int:
    """q_G(z), always an integer for integer z."""
    if len(z) != g.t:
        raise PreconditionError(
            f"dimension vector has length {len(z)}, biquiver has {g.t} vertices")
    total = sum(zi * zi for zi in z)
    for a in g.arrows:
        total -= z[a.source - 1] * z[a.target - 1]
    return total


def definiteness(gram: TitsGram) -> Definiteness:
    """Exact three-way verdict on the symmetric rational matrix Q.

    Read off the inertia (n+, n-, n0) of Q: positive definite when n+ = t,
    positive semidefinite (and singular) when n- = 0. Raises FormatError
    unless Q is a symmetric t x t matrix of ints and Fractions.
    """
    t, q = gram.t, gram.q
    if not (isinstance(t, int) and t >= 0 and isinstance(q, (tuple, list)) and len(q) == t
            and all(isinstance(row, (tuple, list)) and len(row) == t for row in q)):
        raise FormatError(f"Gram matrix must be {t} x {t}")
    if not all(isinstance(x, (int, Fraction)) for row in q for x in row):
        raise FormatError("Gram matrix entries must be ints or Fractions")
    if any(q[i][j] != q[j][i] for i in range(t) for j in range(i)):
        raise FormatError("Gram matrix must be symmetric")
    (positive, negative, _), *_ = _symmetric_ldl(q)
    if positive == t:
        return Definiteness.POSITIVE_DEFINITE
    if negative == 0:
        return Definiteness.POSITIVE_SEMIDEFINITE
    return Definiteness.INDEFINITE


def radical_vector(gram: TitsGram) -> DimensionVector | None:
    """Primitive positive integer generator of ker Q, when it exists.

    Present exactly when Q is positive semidefinite singular with a
    one-dimensional kernel spanned by a strictly positive vector (the case
    of a connected tame biquiver).
    """
    if definiteness(gram) is not Definiteness.POSITIVE_SEMIDEFINITE:
        return None
    rows = [list(row) for row in gram.q]
    basis = fraction_nullspace(rows, gram.t)
    if len(basis) != 1:
        return None
    ints = _integral(basis[0])
    if all(x < 0 for x in ints):
        ints = [-x for x in ints]
    if any(x <= 0 for x in ints):
        return None
    return tuple(ints)
