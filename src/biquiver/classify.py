"""Representation-type classification of connected biquivers.

A connected biquiver is representation-finite exactly when its underlying
undirected multigraph (kinds and directions forgotten) is one of the
simply-laced Dynkin trees A/D/E, and tame-infinite exactly when it is one
of the extended diagrams: a single cycle through all vertices (including
the one-loop and double-edge degenerations), the two-fork D-tilde trees,
or E6/E7/E8-tilde. Everything else is wild. Extended labels are spelled
with a leading tilde, e.g. "~A2" for the 3-vertex cycle.

The shape is read off the graph layer's one traversal,
`model.connected_forest`, which refuses disconnected input; its neighbour
lists give the degrees and the branch lengths. As the type theorems read
the type off the underlying graph alone, no Tits form is built:
`representation_type` keeps the label in the Biquiver whose forest it is
read from, with `model._kept` under the key "label". A refusal is not
kept, so disconnected input raises on every call.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import check_instance
from .model import Biquiver, _kept, connected_forest


class RepKind(Enum):
    FINITE = "Finite"
    TAME_INFINITE = "TameInfinite"
    WILD = "Wild"


@dataclass(frozen=True)
class RepType:
    kind: RepKind
    diagram: str | None


_TRIPOD_LABELS = {
    (1, 2, 2): "E6",
    (1, 2, 3): "E7",
    (1, 2, 4): "E8",
    (2, 2, 2): "~E6",
    (1, 3, 3): "~E7",
    (1, 2, 5): "~E8",
}


def diagram_shape(g: Biquiver) -> str | None:
    """Dynkin / extended Dynkin label of the underlying multigraph, or None.

    Connectivity, degrees and neighbours all come from the one
    spanning-forest traversal. Raises PreconditionError on disconnected
    input, whatever loops, parallel arrows or arrow count it has.
    """
    check_instance(g, Biquiver, "diagram shape")
    adj = connected_forest(g)[4]

    t, m = g.t, len(g.arrows)
    if any(a.is_loop for a in g.arrows):
        return "~A0" if t == 1 and m == 1 else None
    if t == 1:
        return "A1"

    # Loopless and connected from here on. With m = t arrows the graph is
    # one cycle exactly when every degree is 2 (at t = 2 the double edge,
    # ~A1); with m = t - 1 it is a tree, so no two arrows are parallel.
    deg = [len(pairs) for pairs in adj]
    if m == t:
        return f"~A{t - 1}" if all(deg[v] == 2 for v in g.vertices()) else None
    if m != t - 1:
        return None

    # tree shapes
    centers = [v for v in g.vertices() if deg[v] >= 3]
    if not centers:
        return f"A{t}"
    if len(centers) == 1:
        c = centers[0]
        if deg[c] == 4:
            return f"~D{t - 1}" if t == 5 else None
        if deg[c] > 4:
            return None
        lengths = []
        for start, _ in adj[c]:
            prev, cur, length = c, start, 1
            while deg[cur] == 2:
                prev, cur = cur, next(w for w, _ in adj[cur] if w != prev)
                length += 1
            lengths.append(length)
        lengths.sort()
        a, b, cc = lengths
        if (a, b) == (1, 1):
            return f"D{t}"
        return _TRIPOD_LABELS.get((a, b, cc))
    if len(centers) == 2 and all(deg[v] <= 3 for v in g.vertices()):
        for c in centers:
            leaf_neighbors = sum(1 for w, _ in adj[c] if deg[w] == 1)
            if leaf_neighbors != 2:
                return None
        return f"~D{t - 1}"
    return None


def representation_type(g: Biquiver) -> RepType:
    """Finite / tame-infinite / wild verdict for a connected biquiver.

    The label is `diagram_shape(g)`, computed on the first call and kept
    in g as "label". Raises PreconditionError on disconnected input, on
    every call, and FormatError when g is not a Biquiver.
    """
    check_instance(g, Biquiver, "classification")
    label = _kept(g, "label", diagram_shape)
    if label is None:
        return RepType(RepKind.WILD, None)
    if label.startswith("~"):
        return RepType(RepKind.TAME_INFINITE, label)
    return RepType(RepKind.FINITE, label)
