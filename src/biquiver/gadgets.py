"""Wildness gadget representations.

These builders realize matrix-classification problems inside biquiver
representations: the cycle gadget turns a square matrix into a
representation of a cycle (isomorphism of two such gadgets is similarity
or consimilarity of the seed matrices, depending on the closing arrow's
kind), and the g1..g4 gadgets embed matrix *pairs* into the four small
wild biquivers built from a vertex with loops. Block layouts are frozen:
tests treat them as part of the interface.
"""
from __future__ import annotations

from collections.abc import Sequence

from .errors import FormatError, PreconditionError, check_instance
from .linalg import CMatrix, block_diag, from_blocks
from .model import Arrow, ArrowKind, Biquiver
from .representation import MatrixRepresentation, zero_representation


def gadget_cycle(g: Biquiver, cycle_arrow_ids: list[str], m: CMatrix) -> MatrixRepresentation:
    """Identity matrices along a designated cycle, m on its closing arrow.

    The arrows must trace a cycle through distinct vertices (a single loop
    when only one id is given); the last listed arrow is the closing one
    and receives m. Every vertex on the cycle gets dimension n, every
    other vertex dimension 0.
    """
    check_instance(g, Biquiver, "cycle gadget")
    check_instance(m, CMatrix, "matrix m")
    check_instance(cycle_arrow_ids, Sequence, "cycle arrow ids")
    if not m.is_square:
        raise PreconditionError("the cycle gadget needs a square matrix")
    if not cycle_arrow_ids:
        raise PreconditionError("no cycle designated")
    arrows = [g.arrow(aid) for aid in cycle_arrow_ids]
    vertices = _cycle_vertices(arrows)
    n = m.rows
    dims = tuple(n if v in vertices else 0 for v in g.vertices())
    mats = dict(zero_representation(g, dims).matrices)
    for a in arrows[:-1]:
        mats[a.id] = CMatrix.identity(n)
    mats[arrows[-1].id] = m
    return MatrixRepresentation(g, dims, mats)


def _cycle_vertices(arrows: list[Arrow]) -> set[int]:
    """Check the arrows trace a closed walk through distinct vertices."""
    r = len(arrows)
    if r == 1:
        if not arrows[0].is_loop:
            raise PreconditionError("a single designated arrow must be a loop")
        return {arrows[0].source}
    if len({a.id for a in arrows}) != r:
        raise PreconditionError("repeated arrow in designated cycle")
    ends = [frozenset((a.source, a.target)) for a in arrows]
    if any(len(e) != 2 for e in ends):
        raise PreconditionError("loops cannot appear in a cycle of length > 1")
    if r == 2:
        if ends[0] != ends[1]:
            raise PreconditionError("two designated arrows must be parallel")
        return set(ends[0])
    common = ends[-1] & ends[0]
    if len(common) != 1:
        raise PreconditionError("designated arrows do not close into a cycle")
    current = next(iter(common))
    visited = [current]
    for e in ends[:-1]:
        if current not in e:
            raise PreconditionError("designated arrows do not form a consecutive walk")
        current = next(iter(e - {current}))
        visited.append(current)
    if current not in ends[-1] or len(set(visited)) != r:
        raise PreconditionError("designated arrows do not close into a cycle")
    return set(visited)


_LOOP = "a1"
_SECOND_LOOP = "a2"
_ARROW = "a"


def gadget_biquiver(name: str) -> Biquiver:
    """The four small wild biquivers used by the pair gadgets.

    g1: dashed loop a1 at vertex 1 and full arrow a: 1 -> 2.
    g2: dashed loop a1 at vertex 1 and full arrow a: 2 -> 1.
    g3: full loop a1 and dashed loop a2 at a single vertex.
    g4: two dashed loops a1, a2 at a single vertex.
    """
    if name == "g1":
        return Biquiver(2, (Arrow(_LOOP, 1, 1, ArrowKind.DASHED),
                            Arrow(_ARROW, 1, 2, ArrowKind.FULL)))
    if name == "g2":
        return Biquiver(2, (Arrow(_LOOP, 1, 1, ArrowKind.DASHED),
                            Arrow(_ARROW, 2, 1, ArrowKind.FULL)))
    if name == "g3":
        return Biquiver(1, (Arrow(_LOOP, 1, 1, ArrowKind.FULL),
                            Arrow(_SECOND_LOOP, 1, 1, ArrowKind.DASHED)))
    if name == "g4":
        return Biquiver(1, (Arrow(_LOOP, 1, 1, ArrowKind.DASHED),
                            Arrow(_SECOND_LOOP, 1, 1, ArrowKind.DASHED)))
    raise FormatError(f"unknown gadget biquiver {name!r}")


def _check_pair(p: CMatrix, q: CMatrix) -> int:
    check_instance(p, CMatrix, "block p")
    check_instance(q, CMatrix, "block q")
    if not p.is_square or not q.is_square or p.rows != q.rows:
        raise PreconditionError("gadget blocks must be square matrices of equal size")
    return p.rows


def gadget_g1(p: CMatrix, q: CMatrix) -> MatrixRepresentation:
    """Pair gadget on g1: loop [[0, P], [I, Q]], arrow [0 I]; dims (2n, n)."""
    n = _check_pair(p, q)
    eye, zero = CMatrix.identity(n), CMatrix.zero(n, n)
    loop = from_blocks([[zero, p], [eye, q]])
    arrow = from_blocks([[zero, eye]])
    return MatrixRepresentation(gadget_biquiver("g1"), (2 * n, n),
                                {_LOOP: loop, _ARROW: arrow})


def gadget_g2(p: CMatrix, q: CMatrix) -> MatrixRepresentation:
    """Pair gadget on g2: loop [[0, P], [I, Q]], arrow [I; 0]; dims (2n, n)."""
    n = _check_pair(p, q)
    eye, zero = CMatrix.identity(n), CMatrix.zero(n, n)
    loop = from_blocks([[zero, p], [eye, q]])
    arrow = from_blocks([[eye], [zero]])
    return MatrixRepresentation(gadget_biquiver("g2"), (2 * n, n),
                                {_LOOP: loop, _ARROW: arrow})


def gadget_g3(p: CMatrix, q: CMatrix) -> MatrixRepresentation:
    """Pair gadget on g3: full loop [[0, I], [0, 0]], dashed loop diag(P, Q)."""
    n = _check_pair(p, q)
    eye, zero = CMatrix.identity(n), CMatrix.zero(n, n)
    full_loop = from_blocks([[zero, eye], [zero, zero]])
    dashed_loop = block_diag(p, q)
    return MatrixRepresentation(gadget_biquiver("g3"), (2 * n,),
                                {_LOOP: full_loop, _SECOND_LOOP: dashed_loop})


def gadget_g4(p: CMatrix, q: CMatrix) -> MatrixRepresentation:
    """Pair gadget on g4: 4n-dimensional block shift and P/Q placements."""
    n = _check_pair(p, q)
    eye, zero = CMatrix.identity(n), CMatrix.zero(n, n)
    first = from_blocks([
        [zero, eye, zero, zero],
        [zero, zero, eye, zero],
        [zero, zero, zero, eye],
        [zero, zero, zero, zero],
    ])
    second = from_blocks([
        [zero, zero, zero, zero],
        [p, zero, zero, zero],
        [zero, zero, zero, zero],
        [zero, zero, q, zero],
    ])
    return MatrixRepresentation(gadget_biquiver("g4"), (4 * n,),
                                {_LOOP: first, _SECOND_LOOP: second})
