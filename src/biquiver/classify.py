"""Representation-type classification of connected biquivers.

A connected biquiver is representation-finite exactly when its underlying
undirected multigraph (kinds and directions forgotten) is one of the
simply-laced Dynkin trees A/D/E, and tame-infinite exactly when it is one
of the extended diagrams: a single cycle through all vertices (including
the one-loop and double-edge degenerations), the two-fork D-tilde trees,
or E6/E7/E8-tilde. Everything else is wild. Extended labels are spelled
with a leading tilde, e.g. "~A2" for the 3-vertex cycle.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .errors import PreconditionError
from .model import Biquiver, is_connected


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

    Raises PreconditionError on disconnected input.
    """
    t = g.t
    loops = 0
    pair_count: Counter = Counter()
    adj: list[list[int]] = [[] for _ in range(t + 1)]
    for a in g.arrows:
        if a.source == a.target:
            loops += 1
            continue
        u, v = a.source, a.target
        pair_count[(min(u, v), max(u, v))] += 1
        adj[u].append(v)
        adj[v].append(u)

    if not is_connected(g):
        raise PreconditionError("biquiver is not connected")

    m = len(g.arrows)
    if loops:
        return "~A0" if t == 1 and m == 1 else None
    if t == 1:
        return "A1"
    if any(c > 1 for c in pair_count.values()):
        return "~A1" if t == 2 and m == 2 else None

    # simple connected graph from here on
    deg = [len(adj[v]) for v in range(t + 1)]
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
        for start in adj[c]:
            prev, cur, length = c, start, 1
            while deg[cur] == 2:
                nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
                prev, cur = cur, nxt
                length += 1
            lengths.append(length)
        lengths.sort()
        a, b, cc = lengths
        if (a, b) == (1, 1):
            return f"D{t}"
        return _TRIPOD_LABELS.get((a, b, cc))
    if len(centers) == 2 and all(deg[v] <= 3 for v in g.vertices()):
        for c in centers:
            leaf_neighbors = sum(1 for w in adj[c] if deg[w] == 1)
            if leaf_neighbors != 2:
                return None
        return f"~D{t - 1}"
    return None


def representation_type(g: Biquiver) -> RepType:
    """Finite / tame-infinite / wild verdict for a connected biquiver."""
    label = diagram_shape(g)
    if label is None:
        return RepType(RepKind.WILD, None)
    if label.startswith("~"):
        return RepType(RepKind.TAME_INFINITE, label)
    return RepType(RepKind.FINITE, label)
