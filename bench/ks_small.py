"""Workload ks-small: Krull-Schmidt recovery of small scrambled sums.

One op decomposes a scrambled sum of three indecomposables of a randomly
dashed A3 or D4 biquiver with `decompose(trials=8)`, then matches the
summands against the planted parts with `krull_schmidt_compare`.
"""
from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass

import biquiver as bq

import diagrams
import exact
from harness import Outcome

TRIALS = 8
# Graphs and the total dimensions of their sums: one item per pair is a round.
TOTALS = {"A3": range(3, 10), "D4": range(3, 11)}
PASSES = 2
# Rounds per second of --seconds: a 25 s run has 4 rounds (60 ops) and
# makes two passes of about 10 s each on the reference host.
ROUNDS_PER_SECOND = 0.16


def _a3_parts(g):
    """The six interval representations of A3 (identity maps inside)."""
    parts = []
    for lo in range(1, 4):
        for hi in range(lo, 4):
            dims = tuple(1 if lo <= v <= hi else 0 for v in range(1, 4))
            mats = {a.id: (bq.CMatrix.identity(1) if dims[a.source - 1] and dims[a.target - 1]
                           else bq.CMatrix.zero(dims[a.target - 1], dims[a.source - 1]))
                    for a in g.arrows}
            parts.append(bq.MatrixRepresentation(g, dims, mats))
    return parts


# D4 with centre 1 and arrows to 2, 3, 4: dimension vectors and the maps
# out of the centre that make the representation indecomposable.
_D4_PARTS = [
    ((1, 0, 0, 0), {}),
    ((0, 1, 0, 0), {}),
    ((1, 1, 0, 0), {"a0": [[1]]}),
    ((1, 1, 1, 0), {"a0": [[1]], "a1": [[1]]}),
    ((1, 1, 1, 1), {"a0": [[1]], "a1": [[1]], "a2": [[1]]}),
    ((2, 1, 1, 1), {"a0": [[1, 0]], "a1": [[0, 1]], "a2": [[1, 1]]}),
]


def _d4_parts(g):
    parts = []
    for dims, spec in _D4_PARTS:
        mats = {a.id: (bq.CMatrix.from_rows(spec[a.id]) if a.id in spec
                       else bq.CMatrix.zero(dims[a.target - 1], dims[a.source - 1]))
                for a in g.arrows}
        parts.append(bq.MatrixRepresentation(g, dims, mats))
    return parts


_GRAPHS = {"A3": (diagrams.diagram("A3"), _a3_parts), "D4": (diagrams.star([1, 1, 1]), _d4_parts)}


@dataclass(frozen=True)
class Item:
    scrambled: bq.MatrixRepresentation
    parts: tuple
    seed: int


def build(seed: int, rounds: int, workdir=None):
    rng = random.Random(seed)
    screened: dict = {}
    items = []
    for _ in range(rounds):
        for name, totals in TOTALS.items():
            shape, make_parts = _GRAPHS[name]
            for total in totals:
                g = diagrams.orient(rng, shape, directions=False)
                if g not in screened:
                    screened[g] = [p for p in make_parts(g) if diagrams.certified_indecomposable(p)]
                pool = screened[g]
                triples = [(i, j, k) for i in range(len(pool)) for j in range(len(pool))
                           for k in range(len(pool))
                           if sum(pool[x].total_dim() for x in (i, j, k)) == total]
                parts = tuple(pool[x] for x in rng.choice(triples))
                scrambled = diagrams.scramble(rng, bq.direct_sum_list(g, list(parts)))
                items.append(Item(scrambled, parts, rng.randrange(10 ** 6)))
    rng.shuffle(items)
    return items, min(items, key=lambda i: i.scrambled.total_dim())


def describe(items, outcomes) -> dict:
    dims = Counter(item.scrambled.total_dim() for item in items)
    return {"total_dim_histogram": dict(sorted(dims.items()))}


def run(item: Item):
    dec = bq.decompose(item.scrambled, trials=TRIALS, seed=item.seed)
    match = bq.krull_schmidt_compare(list(dec.summands), list(item.parts), seed=item.seed)
    return dec, match


def check(item: Item, result) -> Outcome:
    dec, match = result
    problems = []
    arrows, dims, mats = exact.rep_parts(item.scrambled)
    summands = [exact.rep_parts(s) for s in dec.summands]
    sum_dims, sum_mats = exact.direct_sum(arrows, [(d, m) for _, d, m in summands])
    change = [exact.from_cmatrix(m) for m in dec.base_change]
    if not exact.is_base_change(arrows, dims, mats, change, sum_dims, sum_mats):
        problems.append("decomposition certificate does not verify")
    if match is not None:
        if sorted(j for _, j, _ in match) != list(range(len(item.parts))) or \
                sorted(i for i, _, _ in match) != list(range(len(dec.summands))):
            problems.append("matching is not a bijection")
        for i, j, cert in match:
            _, part_dims, part_mats = exact.rep_parts(item.parts[j])
            _, s_dims, s_mats = summands[i]
            if not exact.is_base_change(arrows, s_dims, s_mats,
                                        [exact.from_cmatrix(m) for m in cert],
                                        part_dims, part_mats):
                problems.append(f"matching certificate {i}->{j} does not verify")
    statuses = [s.value for s in dec.statuses]
    canonical = json.dumps({
        "statuses": statuses,
        "dims": [list(s.dims) for s in dec.summands],
        "matching": [[i, j] for i, j, _ in match] if match is not None else None,
    }, sort_keys=True, separators=(",", ":"))
    probable = statuses.count(bq.IndecomposabilityStatus.PROBABLE.value)
    return Outcome(canonical, answers=len(statuses), monte_carlo=probable,
                   missed=match is None, problem="; ".join(problems) or None)
