"""Exact enumeration of root dimension vectors of the Tits form.

For a positive definite form the nonzero z >= 0 with q_G(z) = 1 form a
finite set that is enumerated completely without any external bound: the
LDL^T steps of `linalg._symmetric_ldl` write q, scaled to integers, as a
sum of squares of linear forms, and choosing coordinates from the
innermost form outwards confines each coordinate to a finite interval.
In the semidefinite case the same pruning applies but kernel directions
are only limited by the caller's bound; indefinite forms fall back to
bounded box search. No floating point is used anywhere.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import PreconditionError
from .classify import RepKind, representation_type
from .model import Biquiver, DimensionVector, is_connected
from .linalg import _symmetric_ldl
from .tits import Definiteness, TitsGram, definiteness, evaluate, gram_matrix


def roots_with_value(g: Biquiver, value: int, bound: int | None = None) -> list[DimensionVector]:
    """All nonzero z >= 0 with q_G(z) = value, in lexicographic order.

    With a positive definite form the result is complete and `bound` is
    ignored; otherwise the set is infinite and `bound` caps every
    coordinate (and is required). A negative `bound` is rejected.
    """
    if value not in (0, 1):
        raise PreconditionError(f"value must be 0 or 1, got {value}")
    if bound is not None and bound < 0:
        raise PreconditionError(f"bound must be nonnegative, got {bound}")
    if not is_connected(g):
        raise PreconditionError("biquiver is not connected")
    gram = gram_matrix(g)
    verdict = definiteness(gram)
    if verdict is Definiteness.POSITIVE_DEFINITE:
        sols = _enumerate_sos(gram, value, None)
    elif verdict is Definiteness.POSITIVE_SEMIDEFINITE:
        if bound is None:
            raise PreconditionError(
                "the root set is infinite for a semidefinite form; pass an explicit bound")
        sols = _enumerate_sos(gram, value, bound)
    else:
        if bound is None:
            raise PreconditionError(
                "the form is indefinite; root search requires an explicit bound")
        sols = _enumerate_box(gram, value, bound)
    out = sorted(z for z in sols if any(z))
    for z in out:
        if evaluate(g, z) != value:
            raise AssertionError(f"enumerated vector {z} does not have q = {value}")
    return out


def positive_root_count(g: Biquiver) -> int:
    """Number of isomorphism classes of indecomposables of a finite-type biquiver."""
    rt = representation_type(g)
    if rt.kind is not RepKind.FINITE:
        raise PreconditionError(
            f"positive_root_count needs a representation-finite biquiver, got {rt.kind.value}")
    return len(roots_with_value(g, 1))


# -- weighted sum-of-squares enumeration -------------------------------------

def _enumerate_sos(gram: TitsGram, value: int, bound: int | None):
    _, scale, steps, free = _symmetric_ldl(gram.q)
    target = value * scale  # the steps' squares sum to scale * q
    n = gram.t
    z = [0] * n
    results: list[DimensionVector] = []

    def assign_pivots(k: int, spent: Fraction) -> None:
        if k < 0:
            if spent == target:
                results.append(tuple(z))
            return
        p, prev, d, lin = steps[k]
        c = sum(x * z[j] for j, x in lin.items())
        budget = (target - spent) * prev * d
        if budget < 0:
            return
        # the z >= 0 with (d z + c)^2 <= budget
        w_max = isqrt(budget.numerator // budget.denominator)
        lo, hi = max(-((w_max + c) // d), 0), (w_max - c) // d
        if bound is not None:
            hi = min(hi, bound)
        for val in range(lo, hi + 1):
            z[p] = val
            assign_pivots(k - 1, spent + Fraction((d * val + c) ** 2, prev * d))
        z[p] = 0

    def assign_free(i: int) -> None:
        if i == len(free):
            assign_pivots(len(steps) - 1, Fraction(0))
            return
        for val in range(bound + 1):
            z[free[i]] = val
            assign_free(i + 1)
        z[free[i]] = 0

    if free and bound is None:
        raise PreconditionError("kernel directions require an explicit bound")
    assign_free(0)
    return results


# -- bounded box search for indefinite forms ---------------------------------

def _enumerate_box(gram: TitsGram, value: int, bound: int):
    # q(z) = sum_i q_ii z_i^2 + sum_{j < i} 2 q_ij z_i z_j, all coefficients integers
    n = gram.t
    diag = [int(gram.q[i][i]) for i in range(n)]
    cross = [[int(-2 * gram.q[i][j]) for j in range(i)] for i in range(n)]
    z = [0] * n
    results: list[DimensionVector] = []

    def rec(i: int, partial: int) -> None:
        if i == n:
            if partial == value:
                results.append(tuple(z))
            return
        row = cross[i]
        mixed = sum(row[j] * z[j] for j in range(i))
        for val in range(bound + 1):
            z[i] = val
            rec(i + 1, partial + diag[i] * val * val - mixed * val)
        z[i] = 0

    rec(0, 0)
    return results
