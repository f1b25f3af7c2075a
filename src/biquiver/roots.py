"""Exact enumeration of root dimension vectors of the Tits form.

Which method serves a call depends on the verdict on the connected form
and on the value:

- Positive definite, value 1: the form is a simply-laced ADE Cartan
  matrix, and the z >= 0 with q(z) = 1 are its positive roots, a finite
  set found without any bound by closing the simple roots upwards
  (`_close_simple_roots`): z + e_i is a root exactly when (C z)_i = -1,
  and every positive root z that is not simple has 2 = sum z_i (C z)_i,
  so (C z)_i = 1 for some i with z_i > 0, and z - e_i is a positive root.
  The closure runs once per form, which keeps its roots (`_positive_roots`)
  for every biquiver sharing it, when there are at most MAX_KEPT_ROOTS of
  them. At value 0 there is nothing to find.
- Positive semidefinite: the form is extended Dynkin, and ker C = Z delta
  with delta > 0, solved and certified once per form (`tits._delta`). At
  value 0, q(z) = 0 exactly when C z = 0, and the answer is k delta for
  k = 1..bound // max(delta) (`_null_roots`). At value 1 the answer is
  the positive real roots: alpha + k delta for k >= 0 and -alpha + k delta
  for k >= 1, where alpha runs over the positive roots of the Dynkin form
  left by deleting a vertex e with delta_e = 1, found by the closure on
  every call and kept nowhere (Kac, Infinite dimensional Lie algebras,
  Prop. 6.3; `_real_roots`).
- Indefinite: a box search over 0..bound per coordinate (`_enumerate_box`).
  Its last coordinate is solved exactly, leaving at most two candidates
  (all of 0..bound where that coordinate's equation vanishes
  identically).

The one kept result, the positive roots of a definite form, lives in the
shared form through `model._kept` under the key "positive_roots"; a
refusal is not kept. `evaluate` checks every returned root: kept roots
once, when they are closed and before they are kept, and roots built by
the call (closed above the cap, null, real or found in the box) on every
call. A call refuses when its box, of (bound + 1)^t vectors for
an indefinite form on t vertices or the bound + 1 multiples of delta for
a semidefinite one, holds more than MAX_BOX_CANDIDATES, and when it has
more than MAX_ROOTS roots: the box search as soon as it finds them, a
closure height by height, the real roots before any is built, and kept
roots on every read. No floating-point arithmetic is used anywhere.
"""
from __future__ import annotations

from math import isqrt

from .errors import PreconditionError, check_instance, check_int, echo, is_int
from .classify import RepKind, representation_type
from .model import Biquiver, DimensionVector, _kept, connected_forest
from .tits import Definiteness, TitsGram, _delta, definiteness, gram_matrix
# the check of every returned root: q without `tits.evaluate`'s input checks,
# as the roots checked are int vectors of length t built here
from .tits import _evaluate as evaluate

# The most vectors a root search may try: (bound + 1)^t over the t coordinates
# of an indefinite form, or the bound + 1 multiples k delta, k = 0..bound, of
# the one kernel direction of a connected semidefinite form.
MAX_BOX_CANDIDATES = 10 ** 7
# The most solutions a search may record, the zero vector included: the
# output, unlike the box, grows with the bound even in one kernel direction.
MAX_ROOTS = 10 ** 5
# The most positive roots a definite form keeps: 120, those of E8, the largest
# closure that a benchmark workload makes. A kept closure holds at most about
# 20 kB (A15's 120 roots); a larger one is closed on every call.
MAX_KEPT_ROOTS = 120


def roots_with_value(g: Biquiver, value: int, bound: int | None = None) -> list[DimensionVector]:
    """All nonzero z >= 0 with q_G(z) = value, in lexicographic order.

    With a positive definite form the result is complete and `bound` is
    ignored; otherwise the set is infinite and `bound` caps every
    coordinate (and is required). A `value` other than the int 0 or 1 is
    rejected, as is a `bound` that is not an int, or is a bool or
    negative, and a call past MAX_BOX_CANDIDATES: (bound + 1)^t candidates
    for an indefinite form on t vertices, bound + 1 multiples of the one
    kernel direction of a semidefinite form. So is one with more than
    MAX_ROOTS roots, and a `g` that is not a Biquiver (FormatError).
    """
    check_instance(g, Biquiver, "root search")
    if not is_int(value) or value not in (0, 1):
        raise PreconditionError(f"value must be 0 or 1, got {echo(value)}")
    if bound is not None:
        check_int(bound, "bound", 0, PreconditionError)
    connected_forest(g)  # refuses a disconnected g
    gram = gram_matrix(g)
    verdict = definiteness(gram)
    if verdict is Definiteness.POSITIVE_DEFINITE:
        out = list(_positive_roots(g, gram)) if value else []
        # the closure refuses exactly when the roots pass MAX_ROOTS, so kept
        # roots are refused alike under a cap lowered after they were kept
        _check_roots(len(out))
        return out
    if verdict is Definiteness.POSITIVE_SEMIDEFINITE:
        if bound is None:
            raise PreconditionError(
                "the root set is infinite for a semidefinite form; pass an explicit bound")
        out = _real_roots(gram, bound) if value else _null_roots(gram, bound)
    else:
        if bound is None:
            raise PreconditionError(
                "the form is indefinite; root search requires an explicit bound")
        _check_box(bound, g.t, "the form is indefinite; a box search")
        out = sorted(z for z in _enumerate_box(gram, value, bound) if any(z))
    return _checked(g, out, value)


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


def _check_roots(found: int) -> None:
    """Refuse a search that records more than MAX_ROOTS solutions."""
    if found > MAX_ROOTS:
        raise PreconditionError(
            f"the root search found more than the cap of {MAX_ROOTS} roots; lower the bound")


def _checked(g: Biquiver, found, value: int):
    """found, once `evaluate` gives q_g(z) = value for each z in it; a raise,
    which python -O keeps, refuses it otherwise."""
    for z in found:
        if evaluate(g, z) != value:
            raise AssertionError(f"enumerated vector {z} does not have q = {value}")
    return found


def _keep(results: list[DimensionVector], z: list[int]) -> None:
    """Record the solution z, refusing one past MAX_ROOTS."""
    _check_roots(len(results) + 1)
    results.append(tuple(z))


# -- the root system of a Dynkin or extended Dynkin form ---------------------

def _close_simple_roots(gram: TitsGram) -> list[DimensionVector]:
    """The positive roots of a connected positive definite form, sorted.

    Closes the simple roots upwards, as the module docstring argues. C has
    2 on its diagonal and 0 or -1 off it, as a loop or a double arrow would
    make it not definite, so (C z)_i = 1 implies z_i > 0. Each root z keeps
    w = C z beside it, and z + e_i, a root exactly when w_i = -1, is kept
    only from its one parent z - e_i, i the least index with (C z)_i = 1;
    its w adds the sparse column C[:, i] to a copy. A height whose roots
    would pass MAX_ROOTS is refused before any of them is recorded.
    """
    n, c = gram.t, gram.c
    neighbours = [tuple(j for j, x in enumerate(row) if x == -1) for row in c]
    level = []
    for i in range(n):
        z = [0] * n
        z[i] = 1
        level.append((z, list(c[i])))
    found: list[DimensionVector] = []
    while level:
        _check_roots(len(found) + len(level))
        higher = []
        for z, w in level:
            found.append(tuple(z))
            i = -1
            for _ in range(w.count(-1)):
                i = w.index(-1, i + 1)
                up = w.copy()
                up[i] += 2
                for j in neighbours[i]:
                    up[j] -= 1
                if up.index(1) == i:  # z + e_i's parent is z
                    child = z.copy()
                    child[i] += 1
                    higher.append((child, up))
        level = higher
    found.sort()
    return found


def _positive_roots(g: Biquiver, gram: TitsGram) -> tuple[DimensionVector, ...]:
    """`_close_simple_roots(gram)`, gram the definite form of g, each root
    checked by `evaluate` to have q = 1.

    A closure of at most MAX_KEPT_ROOTS roots is checked once, when it is
    closed, and kept in the form, so every later call, from any biquiver
    sharing the form, reads it unchecked: they all have the same
    q = 1/2 z^T C z. A failed check keeps nothing, so every later call
    closes the roots and raises again. A larger closure is closed and
    checked on every call and kept nowhere.
    """
    # the cap is read off the closure, so the memo is read before `_kept` runs
    kept = vars(gram).get("positive_roots")
    if kept is not None:
        return kept
    found = tuple(_checked(g, _close_simple_roots(gram), 1))
    if len(found) > MAX_KEPT_ROOTS:
        return found
    return _kept(gram, "positive_roots", lambda _: found)


def _null_roots(gram: TitsGram, bound: int) -> list[DimensionVector]:
    """The null roots k delta, k = 1..bound // max(delta), of a connected
    semidefinite form.

    Refused where the sum-of-squares search, the tests' `_enumerate_sos`,
    refuses, before any vector is built: its candidates are the k of
    0..bound in the one kernel direction, and its solutions the k of
    0..bound // max(delta), the zero vector included.
    """
    delta = _delta(gram)
    _check_box(bound, 1, "the form is semidefinite; a search of its kernel directions")
    top = bound // max(delta)
    _check_roots(top + 1)
    return [tuple(k * x for x in delta) for k in range(1, top + 1)]


def _real_roots(gram: TitsGram, bound: int) -> list[DimensionVector]:
    """The positive real roots of a connected semidefinite form, each
    coordinate at most `bound`, sorted.

    Reads them off the root system, as the module docstring says: alpha,
    a positive root of the form without e, is padded with 0 at e, and
    alpha + k delta and -alpha + k delta fit the bound for the k of one
    interval each. Refused where `_null_roots` refuses, and when the
    intervals, counted before any vector is built, hold more than MAX_ROOTS.
    The closure of the form without e runs on every call, on a fresh
    TitsGram that nothing keeps, so no root of it outlives the call. It is
    refused only under a lowered MAX_ROOTS: that form has at most
    MAX_GRAM_VERTICES - 1 = 255 vertices, and D255, with the most positive
    roots, has 64,770.
    """
    delta = _delta(gram)
    _check_box(bound, 1, "the form is semidefinite; a search of its kernel directions")
    e = delta.index(1)
    alphas = _close_simple_roots(TitsGram(
        gram.t - 1, tuple(row[:e] + row[e + 1:] for row in gram.c[:e] + gram.c[e + 1:])))
    runs = []
    for alpha in alphas:
        alpha = alpha[:e] + (0,) + alpha[e:]
        for sign, first in ((1, 0), (-1, 1)):
            last = min((bound - sign * a) // d for a, d in zip(alpha, delta))
            runs.append((sign, alpha, range(first, last + 1)))
    _check_roots(sum(len(ks) for _, _, ks in runs))
    return sorted(tuple(k * d + sign * a for a, d in zip(alpha, delta))
                  for sign, alpha, ks in runs for k in ks)


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
