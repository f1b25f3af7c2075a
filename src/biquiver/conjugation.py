"""Conjugation at a vertex and dash-elimination planning.

Conjugating a biquiver at a vertex u toggles full <-> dashed on every
non-loop arrow incident to u; loops at u keep their kind. On a
representation it conjugates, entrywise, the matrix of every arrow that
starts at u (loops included). Conjugation preserves isomorphism classes,
and conjugations at distinct vertices commute, so a sequence of
conjugations is just a vertex set, conjugated at in one pass.

Whether some set of conjugations removes every dashed arrow is a parity
question over GF(2): c(u) + c(v) must equal the dashed flag of each
non-loop arrow. On a spanning tree the system always propagates; the
obstructions are dashed loops (conjugation never changes a loop's kind)
and cycles carrying an odd number of dashed arrows. The answer depends
only on the biquiver, so each Biquiver keeps its plan, or the obstruction
to one, once computed, as "_plan" (`model._kept`).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import PreconditionError, check_instance, echo
from .model import (Arrow, ArrowKind, Biquiver, _check_sized, _check_vertex, _kept,
                    connected_forest)

# The graph layer loads neither `linalg` nor `representation`: CMatrix and
# MatrixRepresentation name types in annotations, which run only under a type
# checker, `apply_conjugations_representation` imports MatrixRepresentation
# to check and build one, and `transport_isomorphism` CMatrix to check each.
if TYPE_CHECKING:
    from .linalg import CMatrix
    from .representation import MatrixRepresentation


def conjugate_biquiver(g: Biquiver, u: int) -> Biquiver:
    return apply_conjugations(g, (u,))


def conjugate_representation(a: MatrixRepresentation, u: int) -> MatrixRepresentation:
    """Representation of the conjugated biquiver, per the conjugation functor."""
    return apply_conjugations_representation(a, (u,))


def transport_isomorphism(s: list[CMatrix], u: int) -> list[CMatrix]:
    """Carry an isomorphism certificate through conjugation at u.

    If S_1..S_t witnesses A = B up to base change, then the same list with
    S_u conjugated witnesses the conjugated pair. u must be a vertex of s.
    """
    from .linalg import CMatrix
    _check_sized(s, "transition matrices")
    _check_vertex(u, len(s))
    for v, m in enumerate(s, start=1):
        check_instance(m, CMatrix, f"transition matrix at vertex {v}")
    return [m.conj() if v == u else m for v, m in enumerate(s, start=1)]


@dataclass(frozen=True)
class DashEliminationPlan:
    vertices: frozenset[int]


@dataclass(frozen=True)
class DashEliminationObstruction:
    reason: str


def dash_elimination_plan(g: Biquiver) -> DashEliminationPlan | DashEliminationObstruction:
    """Vertex set whose conjugations make every arrow full, or why none exists.

    The answer is `_dash_elimination_plan(g)`, computed on the first call
    and kept in g as "_plan", so a later call returns the same frozen
    object. A dashed loop is reported whether or not g is connected;
    otherwise a disconnected g raises PreconditionError on every call, as a
    refusal is not kept.
    """
    check_instance(g, Biquiver, "dash elimination")
    return _kept(g, "_plan", _dash_elimination_plan)


def _dash_elimination_plan(g: Biquiver) -> DashEliminationPlan | DashEliminationObstruction:
    """Solve c(u) xor c(v) = dashed(e) over GF(2), read off g's spanning tree
    rooted at vertex 1, and check consistency on the remaining arrows.

    Dashed loops are looked for first, before `connected_forest` checks
    connectivity.
    """
    for a in g.arrows:
        if a.is_loop and a.is_dashed:
            return DashEliminationObstruction(f"dashed loop at vertex {a.source}")

    _, parent, color, tree_arrows, _ = connected_forest(g)

    for a in g.arrows:
        if a.is_loop or a.id in tree_arrows:
            continue
        want = 1 if a.is_dashed else 0
        if color[a.source] ^ color[a.target] != want:
            cycle = _tree_path(parent, a.source, a.target) + [a.source]
            return DashEliminationObstruction(
                "odd dashed parity on cycle <" + " ".join(str(v) for v in cycle) + ">")
    return DashEliminationPlan(frozenset(v for v in g.vertices() if color[v] == 1))


def _tree_path(parent: list[int], u: int, v: int) -> list[int]:
    """Vertices of the spanning-tree path u .. v, through their meeting point."""
    anc_u = [u]
    while anc_u[-1] != 1:
        anc_u.append(parent[anc_u[-1]])
    anc_index = {x: i for i, x in enumerate(anc_u)}
    down = []
    x = v
    while x not in anc_index:
        down.append(x)
        x = parent[x]
    return anc_u[:anc_index[x] + 1] + list(reversed(down))


def apply_conjugations(g: Biquiver, vertices) -> Biquiver:
    """Conjugate at each vertex listed (order is immaterial): a non-loop arrow
    toggles its kind when exactly one of its ends is listed an odd number of times."""
    check_instance(g, Biquiver, "conjugation")
    odd = _odd_vertices(vertices, g.t)
    return Biquiver(g.t, tuple(
        Arrow(a.id, a.source, a.target,
              ArrowKind.DASHED if a.kind is ArrowKind.FULL else ArrowKind.FULL)
        if not a.is_loop and (a.source in odd) != (a.target in odd) else a
        for a in g.arrows))


def apply_conjugations_representation(a: MatrixRepresentation, vertices) -> MatrixRepresentation:
    """Conjugate at each vertex listed: the matrix of every arrow, loops included,
    whose source is listed an odd number of times is conjugated entrywise."""
    from .representation import MatrixRepresentation
    check_instance(a, MatrixRepresentation, "conjugation")
    odd = _odd_vertices(vertices, a.biquiver.t)
    mats = {arrow.id: a.matrices[arrow.id].conj() if arrow.source in odd
            else a.matrices[arrow.id] for arrow in a.biquiver.arrows}
    return MatrixRepresentation(apply_conjugations(a.biquiver, odd), a.dims, mats)


def _odd_vertices(vertices, t: int) -> set[int]:
    """The vertices listed an odd number of times, each checked by `_check_vertex`,
    as conjugations at one vertex cancel in pairs; PreconditionError unless iterable."""
    try:
        listed = iter(vertices)
    except TypeError:
        raise PreconditionError(
            f"vertices must be an iterable of ints, got {echo(vertices)}") from None
    odd: set[int] = set()
    for u in listed:
        _check_vertex(u, t)
        odd ^= {u}
    return odd
