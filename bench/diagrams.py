"""Underlying graphs of Dynkin and extended Dynkin diagrams, and seeded
biquivers and representations built on them.

A shape is a vertex count and a list of undirected edges, with loops (u, u)
and repeated pairs allowed. Turning a shape into a biquiver picks a direction
and a kind for every edge.
"""
from __future__ import annotations

import random
from fractions import Fraction

import biquiver as bq

Shape = tuple[int, list[tuple[int, int]]]


def _path(t: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(1, t)]


def star(branches: list[int]) -> Shape:
    """Center 1 with the given branch lengths, vertices numbered outward."""
    edges = []
    nxt = 2
    for length in branches:
        prev = 1
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return nxt - 1, edges


_TRIPODS = {"E6": [1, 2, 2], "E7": [1, 2, 3], "E8": [1, 2, 4],
            "~E6": [2, 2, 2], "~E7": [1, 3, 3], "~E8": [1, 2, 5]}


def diagram(label: str) -> Shape:
    """Underlying graph of a Dynkin ("A5", "D4", "E7") or extended
    Dynkin ("~A0", "~A3", "~D6", "~E8") diagram."""
    if label in _TRIPODS:
        return star(_TRIPODS[label])
    extended = label.startswith("~")
    family, n = label.lstrip("~")[0], int(label.lstrip("~")[1:])
    if not extended:
        if family == "A":
            return n, _path(n)
        if family == "D":
            return n, _path(n - 1) + [(n - 2, n)]
    elif family == "A":
        if n == 0:
            return 1, [(1, 1)]
        if n == 1:
            return 2, [(1, 2), (1, 2)]
        return n + 1, _path(n + 1) + [(n + 1, 1)]
    elif family == "D":
        if n == 4:
            return star([1, 1, 1, 1])
        # spine 1..n-3, two leaves at each end
        spine = n - 3
        edges = _path(spine)
        edges += [(1, spine + 1), (1, spine + 2), (spine, spine + 3), (spine, spine + 4)]
        return n + 1, edges
    raise ValueError(f"unknown diagram {label!r}")


def weyl_root_count(label: str) -> int:
    """Number of positive roots of a Dynkin diagram."""
    n = int(label[1:])
    if label[0] == "A":
        return n * (n + 1) // 2
    if label[0] == "D":
        return n * (n - 1)
    return {"E6": 36, "E7": 63, "E8": 120}[label]


# Every Dynkin and extended Dynkin diagram on at most 9 vertices.
FINITE_LABELS = ([f"A{n}" for n in range(1, 10)] + [f"D{n}" for n in range(4, 10)]
                 + ["E6", "E7", "E8"])
TAME_LABELS = (["~A0", "~A1"] + [f"~A{n}" for n in range(2, 9)]
               + [f"~D{n}" for n in range(4, 9)] + ["~E6", "~E7", "~E8"])


def random_connected_shape(rng: random.Random, t: int, extra: int) -> Shape:
    """A random spanning tree on t vertices plus `extra` random edges,
    which may be loops or parallel to existing edges."""
    edges = [(rng.randint(1, v - 1), v) for v in range(2, t + 1)]
    edges += [(rng.randint(1, t), rng.randint(1, t)) for _ in range(extra)]
    return t, edges


def relabel(rng: random.Random, shape: Shape) -> Shape:
    t, edges = shape
    perm = list(range(1, t + 1))
    rng.shuffle(perm)
    return t, [(perm[u - 1], perm[v - 1]) for u, v in edges]


def orient(rng: random.Random, shape: Shape, directions: bool = True) -> bq.Biquiver:
    """Biquiver on a shape with random kinds and, optionally, random
    directions (otherwise every edge (u, v) becomes an arrow u -> v)."""
    t, edges = shape
    arrows = []
    for k, (u, v) in enumerate(edges):
        if directions and rng.random() < 0.5:
            u, v = v, u
        kind = bq.ArrowKind.DASHED if rng.random() < 0.5 else bq.ArrowKind.FULL
        arrows.append(bq.Arrow(f"a{k}", u, v, kind))
    return bq.Biquiver(t, tuple(arrows))


def random_invertible(rng: random.Random, n: int, bound: int = 3) -> bq.CMatrix:
    """Random invertible matrix with Gaussian-integer entries in [-bound, bound]."""
    while True:
        m = bq.CMatrix(n, n, tuple(
            bq.gaussian(Fraction(rng.randint(-bound, bound)),
                        Fraction(rng.randint(-bound, bound)))
            for _ in range(n * n)))
        if m.is_invertible():
            return m


def random_unimodular(rng: random.Random, n: int, bound: int = 2) -> bq.CMatrix:
    """L U with L unit lower and U unit upper triangular, off-diagonal
    entries Gaussian integers in [-bound, bound]: invertible, with a
    Gaussian-integer inverse."""
    def entry():
        return bq.gaussian(Fraction(rng.randint(-bound, bound)),
                           Fraction(rng.randint(-bound, bound)))
    one, zero = bq.gaussian(1), bq.gaussian(0)
    lower = bq.CMatrix(n, n, tuple(one if i == j else entry() if i > j else zero
                                   for i in range(n) for j in range(n)))
    upper = bq.CMatrix(n, n, tuple(one if i == j else entry() if i < j else zero
                                   for i in range(n) for j in range(n)))
    return lower @ upper


def scramble(rng: random.Random, rep: bq.MatrixRepresentation,
             change=random_invertible) -> bq.MatrixRepresentation:
    """The representation after a random invertible base change."""
    return bq.apply_base_change(rep, [change(rng, d) for d in rep.dims])


def certified_indecomposable(rep: bq.MatrixRepresentation) -> bool:
    """True when decompose returns the representation as one
    CertifiedIndecomposable summand."""
    dec = bq.decompose(rep, seed=0)
    return len(dec.summands) == 1 and dec.statuses[0] is bq.IndecomposabilityStatus.CERTIFIED
