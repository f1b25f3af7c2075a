"""Biquivers: directed multigraphs with full and dashed arrows.

Vertices are numbered 1..t in all external documents and throughout the
API. Full arrows carry linear maps, dashed arrows semilinear ones; at the
graph level the kind is just a label, and the structural queries here
(connectivity, the spanning forest and its dashed parities) ignore
direction and treat the kind only where dashed-arrow parity matters.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import FormatError, echo

DimensionVector = tuple[int, ...]


class ArrowKind(Enum):
    FULL = "full"
    DASHED = "dashed"


@dataclass(frozen=True)
class Arrow:
    id: str
    source: int
    target: int
    kind: ArrowKind

    @property
    def is_loop(self) -> bool:
        return self.source == self.target

    @property
    def is_dashed(self) -> bool:
        return self.kind is ArrowKind.DASHED


@dataclass(frozen=True)
class Biquiver:
    t: int
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        if self.t < 1:
            raise FormatError(f"vertex count must be positive, got {echo(self.t)}")
        seen = set()
        for a in self.arrows:
            if a.id in seen:
                raise FormatError(f"duplicate arrow id {echo(a.id)}")
            seen.add(a.id)
            for v in (a.source, a.target):
                if not 1 <= v <= self.t:
                    raise FormatError(
                        f"arrow {echo(a.id)} endpoint {echo(v)} outside 1..{echo(self.t)}")

    def arrow(self, arrow_id: str) -> Arrow:
        for a in self.arrows:
            if a.id == arrow_id:
                return a
        raise FormatError(f"no arrow with id {echo(arrow_id)}")

    def vertices(self) -> range:
        return range(1, self.t + 1)


def _spanning_forest(g: Biquiver):
    """BFS spanning forest of the underlying graph, loops skipped.

    The graph layer's one traversal: connectivity, components, shape
    recognition and dash elimination all read it, and nothing else builds
    neighbour lists. Trees grow from roots taken in vertex order, and each
    vertex's neighbours are visited in arrow order, so the forest, and every
    tree path read off it, depends only on the arrow list. Returns lists
    indexed by vertex (index 0 unused) of the root of its tree, its parent
    (0 at a root) and the parity of dashed arrows on its tree path from the
    root, then the set of tree-arrow ids, then the adjacency: for each
    vertex, its (neighbour, arrow) pairs in arrow order, one per non-loop
    arrow, so len(adj[v]) is the degree of v.
    """
    adj: list[list[tuple[int, Arrow]]] = [[] for _ in range(g.t + 1)]
    for a in g.arrows:
        if not a.is_loop:
            adj[a.source].append((a.target, a))
            adj[a.target].append((a.source, a))
    root = [0] * (g.t + 1)
    parent = [0] * (g.t + 1)
    parity = [0] * (g.t + 1)
    tree_arrows: set[str] = set()
    for r in g.vertices():
        if root[r]:
            continue
        root[r] = r
        queue = [r]
        for v in queue:  # the queue grows while it is read: breadth first
            for w, a in adj[v]:
                if not root[w]:
                    root[w] = r
                    parent[w] = v
                    parity[w] = parity[v] ^ (1 if a.is_dashed else 0)
                    tree_arrows.add(a.id)
                    queue.append(w)
    return root, parent, parity, tree_arrows, adj


def is_connected(g: Biquiver) -> bool:
    root = _spanning_forest(g)[0]
    return all(root[v] == 1 for v in g.vertices())


def connected_components(g: Biquiver) -> list[list[int]]:
    """Vertex sets of the connected components, each sorted ascending."""
    root = _spanning_forest(g)[0]
    comps: dict[int, list[int]] = {}
    for v in g.vertices():
        comps.setdefault(root[v], []).append(v)
    return list(comps.values())


def induced_subbiquiver(g: Biquiver, vertices: list[int]) -> Biquiver:
    """Restriction to a vertex subset, renumbering vertices to 1..k."""
    index = {v: i + 1 for i, v in enumerate(vertices)}
    keep = [a for a in g.arrows if a.source in index and a.target in index]
    arrows = tuple(Arrow(a.id, index[a.source], index[a.target], a.kind) for a in keep)
    return Biquiver(len(vertices), arrows)


# -- JSON format -------------------------------------------------------------

def parse_biquiver_obj(obj) -> Biquiver:
    if not isinstance(obj, dict):
        raise FormatError("biquiver document must be a JSON object")
    try:
        t = obj["vertices"]
    except KeyError:
        raise FormatError("missing field 'vertices'") from None
    if not isinstance(t, int) or isinstance(t, bool):
        raise FormatError(f"'vertices' must be an integer, got {echo(t)}")
    raw_arrows = obj.get("arrows", [])
    if not isinstance(raw_arrows, list):
        raise FormatError("'arrows' must be a list")
    arrows = []
    for pos, ra in enumerate(raw_arrows):
        if not isinstance(ra, dict):
            raise FormatError(f"arrow #{pos} must be an object")
        for field in ("id", "from", "to", "kind"):
            if field not in ra:
                raise FormatError(f"arrow #{pos} missing field '{field}'")
        if not isinstance(ra["id"], str):
            raise FormatError(f"arrow #{pos}: 'id' must be a string")
        for field in ("from", "to"):
            if not isinstance(ra[field], int) or isinstance(ra[field], bool):
                raise FormatError(f"arrow {echo(ra['id'])}: '{field}' must be an integer")
        if ra["kind"] not in ("full", "dashed"):
            raise FormatError(
                f"arrow {echo(ra['id'])}: kind must be \"full\" or \"dashed\", "
                f"got {echo(ra['kind'])}")
        arrows.append(Arrow(ra["id"], ra["from"], ra["to"], ArrowKind(ra["kind"])))
    return Biquiver(t, tuple(arrows))


def parse_json(text: str):
    """Decode one JSON document: the package's one JSON decoder.

    Every way decoding fails becomes a FormatError: a syntax error (with its
    position), nesting deeper than the interpreter's recursion limit, and an
    integer literal longer than the interpreter converts."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise FormatError("invalid JSON: nested too deeply") from None
    except ValueError:
        raise FormatError("invalid JSON: an integer literal exceeds the limit of "
                          f"{sys.get_int_max_str_digits()} digits") from None


def parse_biquiver(text: str) -> Biquiver:
    """Parse a biquiver JSON document; raises FormatError with position info."""
    return parse_biquiver_obj(parse_json(text))


def biquiver_to_obj(g: Biquiver) -> dict:
    return {
        "vertices": g.t,
        "arrows": [
            {"id": a.id, "from": a.source, "to": a.target, "kind": a.kind.value}
            for a in g.arrows
        ],
    }


def serialize_biquiver(g: Biquiver) -> str:
    return json.dumps(biquiver_to_obj(g), sort_keys=True, separators=(",", ":"))
