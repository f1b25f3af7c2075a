"""The Tits quadratic form of a biquiver and its exact definiteness.

q_G(x) = sum x_i^2 - sum_{arrows u->v} x_u x_v, summed over all arrows of
either kind. Definiteness is decided without floating point, by an exact
diagonally pivoted LDL^T decomposition of the rational Gram matrix; root
enumeration reuses the same decomposition.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd

from .errors import FormatError, PreconditionError
from .linalg import fraction_nullspace
from .model import Biquiver, DimensionVector


class Definiteness(Enum):
    POSITIVE_DEFINITE = "PositiveDefinite"
    POSITIVE_SEMIDEFINITE = "PositiveSemidefinite"
    INDEFINITE = "Indefinite"


@dataclass(frozen=True)
class TitsGram:
    """Symmetric rational Gram matrix Q with x^T Q x = q_G(x)."""
    t: int
    q: tuple[tuple[Fraction, ...], ...]


def gram_matrix(g: Biquiver) -> TitsGram:
    half = Fraction(1, 2)
    q = [[Fraction(0)] * g.t for _ in range(g.t)]
    for v in range(g.t):
        q[v][v] = Fraction(1)
    for a in g.arrows:
        u, v = a.source - 1, a.target - 1
        if u == v:
            q[u][u] -= 1
        else:
            q[u][v] -= half
            q[v][u] -= half
    return TitsGram(g.t, tuple(tuple(row) for row in q))


def evaluate(g: Biquiver, z: DimensionVector) -> int:
    """q_G(z), always an integer for integer z."""
    if len(z) != g.t:
        raise PreconditionError(
            f"dimension vector has length {len(z)}, biquiver has {g.t} vertices")
    total = sum(zi * zi for zi in z)
    for a in g.arrows:
        total -= z[a.source - 1] * z[a.target - 1]
    return total


def _pivoted_ldl(gram: TitsGram):
    """Decompose x^T Q x = sum_k d_k (x_{p_k} + l_k . x)^2 with d_k > 0.

    Pivots on the first positive diagonal entry of the active block.
    Returns the elimination steps and the never-pivoted (kernel) indices,
    whose remaining block is zero. Returns None when Q is not positive
    semidefinite: a diagonal entry of the active block (a Schur complement)
    is negative, or no positive diagonal entry is left but the block is not
    zero.
    """
    n = gram.t
    w = [list(row) for row in gram.q]
    active = list(range(n))
    steps = []
    while True:
        if any(w[i][i] < 0 for i in active):
            return None
        p = next((i for i in active if w[i][i] > 0), None)
        if p is None:
            break
        d = w[p][p]
        lin = {j: w[p][j] / d for j in active if j != p and w[p][j]}
        steps.append((p, d, lin))
        active.remove(p)
        for i in active:
            if w[i][p]:
                f = w[i][p] / d
                for j in active:
                    w[i][j] -= f * w[p][j]
    if any(w[i][j] for i in active for j in active):
        return None
    return steps, active


def definiteness(gram: TitsGram) -> Definiteness:
    """Exact three-way verdict on the symmetric rational matrix Q.

    Read off the pivoted LDL^T decomposition: Q is positive definite when
    every index is pivoted, and positive semidefinite when the unpivoted
    (kernel) block is zero. PositiveSemidefinite here means semidefinite and
    singular.
    """
    for i in range(gram.t):
        for j in range(i):
            if gram.q[i][j] != gram.q[j][i]:
                raise FormatError("Gram matrix must be symmetric")
    ldl = _pivoted_ldl(gram)
    if ldl is None:
        return Definiteness.INDEFINITE
    if ldl[1]:
        return Definiteness.POSITIVE_SEMIDEFINITE
    return Definiteness.POSITIVE_DEFINITE


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
    vec = basis[0]
    denom_lcm = 1
    for x in vec:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    ints = [x // g for x in ints]
    if all(x < 0 for x in ints):
        ints = [-x for x in ints]
    if any(x <= 0 for x in ints):
        return None
    return tuple(ints)
