"""Biquivers: directed multigraphs with full and dashed arrows.

Vertices are numbered 1..t in all external documents and throughout the
API. Full arrows carry linear maps, dashed arrows semilinear ones; at the
graph level the kind is just a label, and the structural queries here
(connectivity, the spanning forest and its dashed parities) ignore
direction and treat the kind only where dashed-arrow parity matters.
All of them read one spanning forest, kept per Biquiver by `_kept`, the
memo rule of every module. The constructor checks every biquiver,
`_check_vertex` every vertex that a caller names, and `check_dims` the
length of every dimension vector; the JSON parser only decodes.
"""
from __future__ import annotations

import json
import sys
from collections.abc import Sequence, Sized
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType

from .errors import FormatError, PreconditionError, check_instance, check_int, echo

DimensionVector = tuple[int, ...]


class ArrowKind(Enum):
    FULL = "full"
    DASHED = "dashed"


def _fields(obj) -> dict:
    """obj's dataclass fields: pickles and copies carry them, not the memos."""
    return {name: getattr(obj, name) for name in obj.__dataclass_fields__}


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
    """A biquiver on the vertices 1..t.

    Each instance is analysed once: `_kept` keeps its spanning forest (this
    module), Dynkin label (`classify`), Tits form (`tits`) and
    dash-elimination plan (`conjugation`) outside the fields, so ==, hash,
    repr and pickling see only t and the arrows. The forest, whose dashed
    parities read the kinds, and the label and plan read off it stay per
    object, frozen, so every caller shares the one kept;
    `connected_forest` reads connectivity off the forest on every call.
    The form forgets kinds and directions, so it is shared with every live
    Biquiver on the same numbered multigraph, and freed with the last of
    them. The constructor refuses (FormatError) a t that is not a
    positive int, and arrows that are not a tuple of Arrows with unique str
    ids, ArrowKind kinds and int endpoints in 1..t.
    """
    t: int
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        check_int(self.t, "vertex count", 1, FormatError)
        if not (isinstance(self.arrows, tuple)
                and all(isinstance(a, Arrow) for a in self.arrows)):
            raise FormatError(f"arrows must be a tuple of Arrow, got {echo(self.arrows)}")
        seen = set()
        for a in self.arrows:
            if not isinstance(a.id, str):
                raise FormatError(f"arrow id must be a str, got {echo(a.id)}")
            if not isinstance(a.kind, ArrowKind):
                raise FormatError(
                    f"arrow {echo(a.id)} kind must be an ArrowKind, got {echo(a.kind)}")
            if a.id in seen:
                raise FormatError(f"duplicate arrow id {echo(a.id)}")
            seen.add(a.id)
            for v in (a.source, a.target):
                check_int(v, f"arrow {echo(a.id)} endpoint", None, FormatError)
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

    __getstate__ = _fields


def _kept(obj, key: str, compute):
    """`compute(obj)`, run on the first read of `key` and kept in vars(obj)
    for every later one; a refusal is not kept. Races keep the first result
    stored, so every reader sees one value."""
    memo = obj.__dict__  # vars(obj), without the builtin's lookup and call
    try:
        return memo[key]
    except KeyError:
        return memo.setdefault(key, compute(obj))


def _forest(g: Biquiver):
    """g's `_spanning_forest`, built on the first read and kept in g."""
    return _kept(g, "_forest", _spanning_forest)


def _spanning_forest(g: Biquiver):
    """BFS spanning forest of the underlying graph, loops skipped.

    The graph layer's one traversal, run once per Biquiver: its memo
    "_forest" keeps what it returns, and connectivity, components, shape
    recognition, dash elimination and the echelon change of `decompose` all
    read that memo; nothing else builds neighbour lists. Trees grow from
    roots taken in vertex order, and each vertex's neighbours are visited in
    arrow order, so the forest, and every tree path read off it, depends
    only on the arrow list. Returns tuples indexed by vertex (index 0
    unused) of the root of its tree, its parent (0 at a root) and the parity
    of dashed arrows on its tree path from the root, then the tree arrows,
    each id mapped to the vertex it reaches, in the order the walk takes
    them, then the adjacency: for each vertex, its (neighbour, arrow) pairs
    in arrow order, one per non-loop arrow, so len(adj[v]) is the degree of
    v. All of it is read-only (tuples and a mapping proxy), as every reader
    shares the one memo.
    """
    adj: list[list[tuple[int, Arrow]]] = [[] for _ in range(g.t + 1)]
    for a in g.arrows:
        if not a.is_loop:
            adj[a.source].append((a.target, a))
            adj[a.target].append((a.source, a))
    root = [0] * (g.t + 1)
    parent = [0] * (g.t + 1)
    parity = [0] * (g.t + 1)
    tree_arrows: dict[str, int] = {}
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
                    tree_arrows[a.id] = w
                    queue.append(w)
    return (tuple(root), tuple(parent), tuple(parity), MappingProxyType(tree_arrows),
            tuple(map(tuple, adj)))


def connected_forest(g: Biquiver):
    """g's memoized `_spanning_forest` for a connected g, one tree rooted at vertex 1.

    The graph layer's one connectivity check, run on every call and O(1)
    once the forest is built. With fewer than t - 1 arrows, too few to
    connect t vertices, it raises PreconditionError before any per-vertex
    list is built; otherwise it reads the verdict off the forest, as a
    forest of k trees has t - k tree arrows.
    """
    if len(g.arrows) < g.t - 1:
        raise PreconditionError("biquiver is not connected")
    forest = _kept(g, "_forest", _spanning_forest)
    if len(forest[3]) != g.t - 1:
        raise PreconditionError("biquiver is not connected")
    return forest


def is_connected(g: Biquiver) -> bool:
    check_instance(g, Biquiver, "connectivity")
    try:
        connected_forest(g)
    except PreconditionError:
        return False
    return True


def connected_components(g: Biquiver) -> list[list[int]]:
    """Vertex sets of the connected components, each sorted ascending."""
    check_instance(g, Biquiver, "connected components")
    root = _kept(g, "_forest", _spanning_forest)[0]
    comps: dict[int, list[int]] = {}
    for v in g.vertices():
        comps.setdefault(root[v], []).append(v)
    return list(comps.values())


def induced_subbiquiver(g: Biquiver, vertices: list[int]) -> Biquiver:
    """Restriction to a vertex subset, renumbering vertices to 1..k in the order
    given; refuses a list that `_check_sized` refuses, an empty one, a vertex that
    `_check_vertex` refuses, or one given twice."""
    check_instance(g, Biquiver, "subbiquiver")
    _check_sized(vertices, "vertices")
    if not vertices:
        raise PreconditionError(f"vertices must name at least one vertex, got {echo(vertices)}")
    for v in vertices:
        _check_vertex(v, g.t)
    index = {v: i + 1 for i, v in enumerate(vertices)}
    if len(index) != len(vertices):
        raise PreconditionError(f"vertices must be distinct, got {echo(vertices)}")
    keep = [a for a in g.arrows if a.source in index and a.target in index]
    arrows = tuple(Arrow(a.id, index[a.source], index[a.target], a.kind) for a in keep)
    return Biquiver(len(vertices), arrows)


def _check_vertex(u, t: int) -> None:
    check_int(u, "vertex", None, PreconditionError)
    if not 1 <= u <= t:
        raise PreconditionError(f"vertex {echo(u)} outside 1..{t}")


def _check_sized(value, what: str) -> None:
    """Refuse with PreconditionError a list of `what` that has no len, as an int has not."""
    if not isinstance(value, Sized):
        raise PreconditionError(f"{what} must be a list, got {echo(value)}")


def check_dims(dims, t: int, error: type[ValueError]) -> None:
    """Raise `error` unless dims is a sequence of t entries; callers `check_int` each."""
    if not isinstance(dims, Sequence):
        raise error(f"dimension vector must be a sequence of ints, got {echo(dims)}")
    if len(dims) != t:
        raise error(f"dimension vector has length {len(dims)}, biquiver has {t} vertices")


# -- JSON format -------------------------------------------------------------

def parse_biquiver_obj(obj) -> Biquiver:
    """Decode a biquiver document: an object, its fields present, each kind
    "full" or "dashed"; `Biquiver` checks the rest."""
    if not isinstance(obj, dict):
        raise FormatError("biquiver document must be a JSON object")
    try:
        t = obj["vertices"]
    except KeyError:
        raise FormatError("missing field 'vertices'") from None
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
    check_instance(g, Biquiver, "biquiver document")
    return {
        "vertices": g.t,
        "arrows": [
            {"id": a.id, "from": a.source, "to": a.target, "kind": a.kind.value}
            for a in g.arrows
        ],
    }


def serialize_biquiver(g: Biquiver) -> str:
    return json.dumps(biquiver_to_obj(g), sort_keys=True, separators=(",", ":"))
