import json
import random
from collections import Counter

import pytest

from biquiver import (Arrow, ArrowKind, Biquiver, Definiteness, PreconditionError,
                      RepKind, definiteness, diagram_shape, gram_matrix,
                      representation_type, serialize_biquiver)
from biquiver import classify, conjugation, model
from biquiver.classify import _TRIPOD_LABELS
from biquiver.cli import main
from biquiver.model import is_connected
from conftest import biq, cycle_biquiver, dynkin_and_extended, path_biquiver, star_biquiver


# -- reference implementation --------------------------------------------------
# The shape recognizer that built its own adjacency and pair counts and then
# asked `is_connected` for a second traversal, kept verbatim apart from the
# name as the differential oracle for the one-traversal `diagram_shape`.

def oracle_diagram_shape(g: Biquiver) -> str | None:
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


def _outcome(shape, g):
    """The label, or the PreconditionError message, that `shape` gives g."""
    try:
        return "label", shape(g)
    except PreconditionError as e:
        return "error", str(e)


def _scramble(rng, g):
    """g under a random vertex relabeling, arrow orientation and kinds."""
    perm = list(g.vertices())
    rng.shuffle(perm)
    arrows = []
    for a in g.arrows:
        u, v = perm[a.source - 1], perm[a.target - 1]
        if rng.random() < 0.5:
            u, v = v, u
        arrows.append(Arrow(a.id, u, v, rng.choice((ArrowKind.FULL, ArrowKind.DASHED))))
    rng.shuffle(arrows)
    return Biquiver(g.t, tuple(arrows))


def _random_multigraph(rng):
    """A small multigraph, often with loops, parallel arrows or isolated parts.

    Half are random arrow lists; the other half are Dynkin or extended
    diagrams with an arrow, a loop, a parallel copy or an isolated vertex
    added, or an arrow taken away, which keeps many near the shape classes.
    """
    if rng.random() < 0.5:
        t = rng.randint(1, 7)
        arrows = []
        for k in range(rng.randint(0, 8)):
            u = rng.randint(1, t)
            roll = rng.random()
            if roll < 0.15:
                v = u
            elif roll < 0.3 and arrows:
                u, v = arrows[-1][:2]
            else:
                v = rng.randint(1, t)
            arrows.append((u, v))
    else:
        _, g = rng.choice(_DIAGRAMS)
        t = g.t
        arrows = [(a.source, a.target) for a in g.arrows]
        edit = rng.randrange(5)
        if edit == 0:
            arrows.append((rng.randint(1, t), rng.randint(1, t)))
        elif edit == 1:
            v = rng.randint(1, t)
            arrows.append((v, v))
        elif edit == 2 and arrows:
            arrows.append(rng.choice(arrows))
        elif edit == 3:
            t += 1
        elif arrows:
            arrows.pop(rng.randrange(len(arrows)))
    g = Biquiver(t, tuple(Arrow(f"a{k}", u, v, ArrowKind.FULL) for k, (u, v) in enumerate(arrows)))
    return _scramble(rng, g)


_DIAGRAMS = list(dynkin_and_extended())


def test_paths_are_a_series():
    for t in range(1, 9):
        assert diagram_shape(path_biquiver(t, dashed=(1,) if t > 1 else ())) == f"A{t}"
        assert representation_type(path_biquiver(t)).kind is RepKind.FINITE


def test_single_loop_is_extended_a0():
    g = biq(1, "a:1~1")
    assert diagram_shape(g) == "~A0"
    assert representation_type(g).kind is RepKind.TAME_INFINITE


def test_double_edge_is_extended_a1():
    g = biq(2, "a:1>2", "b:2~1")
    assert diagram_shape(g) == "~A1"
    assert representation_type(g).kind is RepKind.TAME_INFINITE


def test_cycles_are_extended_a():
    for r in range(3, 8):
        assert diagram_shape(cycle_biquiver(r, dashed=(1,))) == f"~A{r - 1}"


def test_d_series():
    for t in range(4, 9):
        g = star_biquiver([1, 1, t - 3])
        assert diagram_shape(g) == f"D{t}"


def test_e_series_and_extensions():
    assert diagram_shape(star_biquiver([1, 2, 2])) == "E6"
    assert diagram_shape(star_biquiver([1, 2, 3])) == "E7"
    assert diagram_shape(star_biquiver([1, 2, 4])) == "E8"
    assert diagram_shape(star_biquiver([2, 2, 2])) == "~E6"
    assert diagram_shape(star_biquiver([1, 3, 3])) == "~E7"
    assert diagram_shape(star_biquiver([1, 2, 5])) == "~E8"
    assert diagram_shape(star_biquiver([1, 2, 6])) is None
    assert diagram_shape(star_biquiver([2, 2, 3])) is None
    assert diagram_shape(star_biquiver([1, 3, 4])) is None


def test_extended_d_series():
    assert diagram_shape(star_biquiver([1, 1, 1, 1])) == "~D4"
    # dumbbells: forks of two leaves at both ends of a path
    for inner in range(0, 4):
        t = 6 + inner
        arrows = [("p0", 1, 2), ("p1", 1, 3)]
        chain = [1] + list(range(4, 4 + inner))
        for i in range(len(chain) - 1):
            arrows.append((f"c{i}", chain[i], chain[i + 1]))
        last = chain[-1]
        hub = t - 2
        arrows.append(("mid", last, hub))
        arrows.append(("q0", hub, t - 1))
        arrows.append(("q1", hub, t))
        g = Biquiver(t, tuple(Arrow(n, u, v, ArrowKind.FULL) for n, u, v in arrows))
        assert diagram_shape(g) == f"~D{t - 1}"


def test_wild_shapes():
    # one full and one dashed loop at a single vertex
    assert representation_type(biq(1, "a:1>1", "b:1~1")).kind is RepKind.WILD
    # dashed loop plus an arrow to a second vertex
    assert representation_type(biq(2, "l:1~1", "a:1>2")).kind is RepKind.WILD
    # triple edge
    assert representation_type(biq(2, "a:1>2", "b:1>2", "c:1>2")).kind is RepKind.WILD
    # cycle with a pendant vertex
    g = biq(4, "a:1>2", "b:2>3", "c:3>1", "d:3~4")
    assert representation_type(g).kind is RepKind.WILD
    # star with five branches
    assert representation_type(star_biquiver([1, 1, 1, 1, 1])).kind is RepKind.WILD
    # degree-4 vertex with a long branch
    assert representation_type(star_biquiver([1, 1, 1, 2])).kind is RepKind.WILD


def test_disconnected_rejected():
    g = Biquiver(3, path_biquiver(2).arrows)
    with pytest.raises(PreconditionError):
        representation_type(g)


def test_type_invariant_under_kinds_and_directions():
    rng = random.Random(2)
    shapes = [path_biquiver(4), cycle_biquiver(4), star_biquiver([1, 1, 2]),
              biq(2, "l:1~1", "a:1>2")]
    for g in shapes:
        base = representation_type(g)
        for _ in range(10):
            arrows = []
            for a in g.arrows:
                u, v = (a.source, a.target) if rng.random() < 0.5 else (a.target, a.source)
                kind = rng.choice((ArrowKind.FULL, ArrowKind.DASHED))
                arrows.append(Arrow(a.id, u, v, kind))
            # kinds and directions never change the verdict or the label
            assert representation_type(Biquiver(g.t, tuple(arrows))) == base


def test_agreement_with_definiteness_on_random_trees():
    # shape verdicts must match the Tits form verdict on larger trees too
    rng = random.Random(9)
    for _ in range(300):
        t = rng.randint(1, 10)
        arrows = tuple(Arrow(f"e{v}", rng.randint(1, v), v + 1,
                             rng.choice((ArrowKind.FULL, ArrowKind.DASHED)))
                       for v in range(1, t))
        g = Biquiver(t, arrows)
        rt = representation_type(g).kind
        d = definiteness(gram_matrix(g))
        assert (rt is RepKind.FINITE) == (d is Definiteness.POSITIVE_DEFINITE)
        assert (rt in (RepKind.FINITE, RepKind.TAME_INFINITE)) == \
            (d in (Definiteness.POSITIVE_DEFINITE, Definiteness.POSITIVE_SEMIDEFINITE))


def test_diagram_vertex_count_matches():
    cases = [(path_biquiver(5), "A5"), (cycle_biquiver(5), "~A4"),
             (star_biquiver([1, 1, 2]), "D5"), (star_biquiver([2, 2, 2]), "~E6")]
    for g, label in cases:
        assert diagram_shape(g) == label
        rt = representation_type(g)
        assert rt.diagram == label
        assert (rt.diagram is not None) == (rt.kind is not RepKind.WILD)


def _type_label(g):
    """The label `representation_type` reads from g's form, computed once per form."""
    return representation_type(g).diagram


def test_matches_oracle_on_scrambled_diagrams():
    rng = random.Random(13)
    for label, g in _DIAGRAMS:
        for _ in range(20):
            h = _scramble(rng, g)
            assert diagram_shape(h) == oracle_diagram_shape(h) == label, h
            assert _type_label(h) == label, h


def test_matches_oracle_on_random_multigraphs():
    rng = random.Random(2026)
    seen = Counter()
    for _ in range(3000):
        g = _random_multigraph(rng)
        got = _outcome(diagram_shape, g)
        assert got == _outcome(oracle_diagram_shape, g) == _outcome(_type_label, g), g
        seen[got[0] if got[1] is not None else None] += 1
    # every kind of outcome is exercised: labels, None and the error
    assert min(seen["label"], seen[None], seen["error"]) > 150, seen


# One disconnected input for each early return of `diagram_shape`, with the
# components that `classify --components` must report for it.
DISCONNECTED = {
    "loop-and-isolated-vertex": (biq(2, "a:1>1"), [([1], "~A0"), ([2], "A1")]),
    "parallel-pair-and-isolated-vertex": (biq(3, "a:1>2", "b:2~1"),
                                          [([1, 2], "~A1"), ([3], "A1")]),
    "cycle-and-disjoint-edge": (biq(5, "a:1>2", "b:2>3", "c:3~1", "d:5>4"),
                                [([1, 2, 3], "~A2"), ([4, 5], "A2")]),
    "no-arrows": (Biquiver(2, ()), [([1], "A1"), ([2], "A1")]),
}


@pytest.mark.parametrize("name", DISCONNECTED)
def test_disconnected_rejected_before_every_early_return(name, tmp_path, capsys):
    g, components = DISCONNECTED[name]
    for classify in (diagram_shape, representation_type):
        with pytest.raises(PreconditionError, match="^biquiver is not connected$"):
            classify(g)
    p = tmp_path / "g.json"
    p.write_text(serialize_biquiver(g))
    assert main(["classify", str(p)]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: biquiver is not connected\n")
    assert main(["classify", str(p), "--components"]) == 0
    comps = json.loads(capsys.readouterr().out)["components"]
    assert [(c["vertices"], c["diagram"]) for c in comps] == components


def test_too_few_arrows_refused_before_any_traversal(tmp_path, monkeypatch, capsys):
    # 10^9 vertices need 10^9 - 1 non-loop arrows to be connected: with none,
    # classify, eliminate and roots refuse before building a per-vertex list
    def traversal(g):
        raise AssertionError("a spanning forest was built")

    for module in (model, classify, conjugation):
        monkeypatch.setattr(module, "_spanning_forest", traversal, raising=False)
    t = 10 ** 9
    p = tmp_path / "g.json"
    p.write_text(json.dumps({"vertices": t, "arrows": []}))
    for argv in (["classify"], ["eliminate"], ["roots", "--value", "1"]):
        assert main(argv + [str(p)]) == 3
        assert capsys.readouterr() == ("", "error: biquiver is not connected\n")
    assert not is_connected(Biquiver(t, ()))
    # a dashed loop is still the obstruction that `eliminate` reports first
    p.write_text(json.dumps({"vertices": t, "arrows": [
        {"id": "a", "from": 1, "to": 1, "kind": "dashed"}]}))
    assert main(["eliminate", str(p)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "status": "impossible", "reason": "dashed loop at vertex 1"}
