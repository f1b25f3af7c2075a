"""Exact enumeration of root dimension vectors of the Tits form.

For a positive definite form the nonzero z >= 0 with q_G(z) = 1 form a
finite set that is enumerated completely without any external bound: the
LDL^T steps of `linalg._symmetric_ldl` on the int matrix C = 2Q write 2q
as a sum of squares of linear forms, and choosing coordinates from the
innermost form outwards confines each coordinate to a finite interval.
The search runs on integers: every term is weighted by the lcm of the
steps' denominators, so the remaining budget is an int. In the
semidefinite case the same pruning applies but kernel directions are
only limited by the caller's bound; indefinite forms fall back to a
bounded box search. Neither search loops over its last coordinate: the
last LDL step and the last box coordinate are solved exactly, leaving at
most two candidates (all of 0..bound where the box coordinate's equation
vanishes identically), and `evaluate` still checks every returned root.
Either search refuses to start when its box, of
(bound + 1)^k vectors over its k unpruned coordinates, holds more than
MAX_BOX_CANDIDATES, and stops as soon as it finds more than MAX_ROOTS
roots. No floating-point arithmetic is used anywhere; the one float, inf,
is only compared with, as the coordinate cap of a definite search.
"""
from __future__ import annotations

from math import inf, isqrt, lcm

from .errors import PreconditionError, echo
from .classify import RepKind, representation_type
from .model import Biquiver, DimensionVector, connected_forest
from .tits import Definiteness, TitsGram, definiteness, evaluate, gram_matrix

# The most vectors a root search may try: (bound + 1)^k over the t coordinates
# of an indefinite form or the k kernel directions of a semidefinite one.
MAX_BOX_CANDIDATES = 10 ** 7
# The most solutions a search may record, the zero vector included: the
# output, unlike the box, grows with the bound even when only one coordinate
# is unpruned.
MAX_ROOTS = 10 ** 5


def roots_with_value(g: Biquiver, value: int, bound: int | None = None) -> list[DimensionVector]:
    """All nonzero z >= 0 with q_G(z) = value, in lexicographic order.

    With a positive definite form the result is complete and `bound` is
    ignored; otherwise the set is infinite and `bound` caps every
    coordinate (and is required). A negative `bound` is rejected, and so is
    a search past MAX_BOX_CANDIDATES: (bound + 1)^t candidates for an
    indefinite form on t vertices, (bound + 1)^k for a semidefinite form
    with k kernel directions, and a search that finds more than MAX_ROOTS
    roots.
    """
    if value not in (0, 1):
        raise PreconditionError(f"value must be 0 or 1, got {echo(value)}")
    if bound is not None and bound < 0:
        raise PreconditionError(f"bound must be nonnegative, got {echo(bound)}")
    connected_forest(g)  # refuses a disconnected g
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
        _check_box(bound, g.t, "the form is indefinite; a box search")
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


def _check_box(bound: int, k: int, search: str) -> None:
    """Refuse a search over (bound + 1)^k vectors past MAX_BOX_CANDIDATES.

    The product is counted up to the cap only, so no huge power is formed.
    """
    candidates = 1
    for _ in range(k):
        candidates *= bound + 1
        if candidates > MAX_BOX_CANDIDATES:
            raise PreconditionError(
                f"{search} over (bound + 1)^{k} vectors "
                f"exceeds the cap of {MAX_BOX_CANDIDATES} candidates")


def _keep(results: list[DimensionVector], z: list[int]) -> None:
    """Record the solution z, refusing one past MAX_ROOTS."""
    if len(results) == MAX_ROOTS:
        raise PreconditionError(
            f"the root search found more than the cap of {MAX_ROOTS} roots; lower the bound")
    results.append(tuple(z))


# -- weighted sum-of-squares enumeration -------------------------------------

def _enumerate_sos(gram: TitsGram, value: int, bound: int | None):
    """The z >= 0 with q(z) = value, coordinates past `bound` excluded.

    Results keep the order of the full search: ascending in each kernel
    direction, outermost first, then in each pivot from steps[-1] in to
    steps[0]. The search's last step, steps[0], is solved instead of
    looped over; at most two of its values fit, and they are emitted in
    ascending order, so that order is kept.
    """
    _, steps, free = gram.ldl
    # Step k contributes (d z_p + c)^2 / (prev d), and every prev d > 0 as
    # n- == 0 here; scaled by m = lcm(prev d) the squares sum to
    # m * 2q with the integer weights m / (prev d).
    m = lcm(*(prev * d for _, prev, d, _ in steps))
    weights = [m // (prev * d) for _, prev, d, _ in steps]
    lins = [tuple(lin.items()) for _, _, _, lin in steps]
    target = 2 * value * m
    cap = inf if bound is None else bound
    n = gram.t
    z = [0] * n
    results: list[DimensionVector] = []

    def assign_pivots(k: int, spent: int) -> None:
        p, _, d, _ = steps[k]
        weight = weights[k]
        c = 0
        for j, x in lins[k]:
            c += x * z[j]
        if k == 0:
            # the search's last step: weight (d z + c)^2 == target - spent,
            # so d z + c = -s or s with d > 0, the smaller root first
            square, r = divmod(target - spent, weight)
            s = isqrt(square)
            if r or s * s != square:
                return
            for w in ((-s - c, s - c) if s else (-c,)):
                val, r = divmod(w, d)
                if not r and 0 <= val <= cap:
                    z[p] = val
                    _keep(results, z)
            z[p] = 0
            return
        # the z >= 0 with weight (d z + c)^2 <= target - spent; each choice
        # keeps spent <= target
        w_max = isqrt((target - spent) // weight)
        lo, hi = max(-((w_max + c) // d), 0), (w_max - c) // d
        if hi > cap:
            hi = cap
        for val in range(lo, hi + 1):
            z[p] = val
            assign_pivots(k - 1, spent + (d * val + c) ** 2 * weight)
        z[p] = 0

    def assign_free(i: int) -> None:
        if i == len(free):
            if steps:
                assign_pivots(len(steps) - 1, 0)
            elif target == 0:
                _keep(results, z)
            return
        for val in range(bound + 1):
            z[free[i]] = val
            assign_free(i + 1)
        z[free[i]] = 0

    if free and bound is None:
        raise PreconditionError("kernel directions require an explicit bound")
    _check_box(bound, len(free), "the form is semidefinite; a search of its kernel directions")
    assign_free(0)
    return results


# -- bounded box search for indefinite forms ---------------------------------

def _enumerate_box(gram: TitsGram, value: int, bound: int):
    """The z in 0..bound per coordinate with q(z) = value.

    Results keep the order of the full box search: ascending in z_0
    outermost, then z_1, and so on. The last coordinate is solved from its
    equation, quadratic or linear in one unknown, instead of looped over,
    and its solutions are emitted in ascending order, so that order is kept.
    """
    # q(z) = sum_i (c_ii / 2) z_i^2 + sum_{j < i} c_ij z_i z_j, c_ii = 2 q_ii even
    n = gram.t
    diag = [gram.c[i][i] // 2 for i in range(n)]
    cross = [[-gram.c[i][j] for j in range(i)] for i in range(n)]
    z = [0] * n
    results: list[DimensionVector] = []
    last = n - 1

    def rec(i: int, partial: int) -> None:
        row = cross[i]
        mixed = sum(row[j] * z[j] for j in range(i))
        if i < last:
            for val in range(bound + 1):
                z[i] = val
                rec(i + 1, partial + diag[i] * val * val - mixed * val)
            z[i] = 0
            return
        # the last coordinate v: a v^2 - mixed v + rest == 0, a = c_ii / 2
        a, rest = diag[i], partial - value
        if a:
            disc = mixed * mixed - 4 * a * rest
            s = isqrt(max(disc, 0))
            if s * s != disc:
                return
            # v = (mixed -+ s) / 2a, the smaller root first
            ends = (mixed - s, mixed + s) if a > 0 else (mixed + s, mixed - s)
            candidates = [w // (2 * a) for w in ends[:2 if s else 1] if w % (2 * a) == 0]
        elif mixed:
            v, r = divmod(rest, mixed)
            candidates = () if r else (v,)
        else:
            candidates = range(bound + 1) if rest == 0 else ()
        for v in candidates:
            if 0 <= v <= bound:
                z[i] = v
                _keep(results, z)
        z[i] = 0

    if n:
        rec(0, 0)
    elif value == 0:
        _keep(results, z)
    return results
