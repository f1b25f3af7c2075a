"""Conjugation at a vertex and dash-elimination planning.

Conjugating a biquiver at a vertex u toggles full <-> dashed on every
non-loop arrow incident to u; loops at u keep their kind. On a
representation it conjugates, entrywise, the matrix of every arrow that
starts at u (loops included). Conjugation preserves isomorphism classes,
and conjugations at distinct vertices commute, so a sequence of
conjugations is just a vertex set.

Whether some set of conjugations removes every dashed arrow is a parity
question over GF(2): c(u) + c(v) must equal the dashed flag of each
non-loop arrow. On a spanning tree the system always propagates; the
obstructions are dashed loops (conjugation never changes a loop's kind)
and cycles carrying an odd number of dashed arrows. The answer depends
only on the biquiver, so each Biquiver keeps its plan, or the obstruction
to one, once computed (`Biquiver._plan`).
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError, check_int, echo
from .linalg import CMatrix
from .model import Arrow, ArrowKind, Biquiver, connected_forest
from .representation import MatrixRepresentation


def _check_vertex(u: int, t: int) -> None:
    check_int(u, "vertex", None, PreconditionError)
    if not 1 <= u <= t:
        raise PreconditionError(f"vertex {echo(u)} outside 1..{t}")


def conjugate_biquiver(g: Biquiver, u: int) -> Biquiver:
    _check_vertex(u, g.t)
    arrows = []
    for a in g.arrows:
        if not a.is_loop and u in (a.source, a.target):
            kind = ArrowKind.DASHED if a.kind is ArrowKind.FULL else ArrowKind.FULL
            arrows.append(Arrow(a.id, a.source, a.target, kind))
        else:
            arrows.append(a)
    return Biquiver(g.t, tuple(arrows))


def conjugate_representation(a: MatrixRepresentation, u: int) -> MatrixRepresentation:
    """Representation of the conjugated biquiver, per the conjugation functor."""
    g = conjugate_biquiver(a.biquiver, u)
    mats = {}
    for arrow in a.biquiver.arrows:
        m = a.matrices[arrow.id]
        mats[arrow.id] = m.conj() if arrow.source == u else m
    return MatrixRepresentation(g, a.dims, mats)


def transport_isomorphism(s: list[CMatrix], u: int) -> list[CMatrix]:
    """Carry an isomorphism certificate through conjugation at u.

    If S_1..S_t witnesses A = B up to base change, then the same list with
    S_u conjugated witnesses the conjugated pair. u must be a vertex of s.
    """
    _check_vertex(u, len(s))
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
    and kept in g (`Biquiver._plan`), so a later call returns the same
    frozen object. A dashed loop is reported whether or not g is connected;
    otherwise a disconnected g raises PreconditionError on every call, as
    a refusal is not kept.
    """
    return g._plan


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
    """Conjugate at each vertex of a set (order is immaterial)."""
    for u in sorted(vertices):
        g = conjugate_biquiver(g, u)
    return g


def apply_conjugations_representation(a: MatrixRepresentation, vertices) -> MatrixRepresentation:
    for u in sorted(vertices):
        a = conjugate_representation(a, u)
    return a
