"""Workload tits-corpus: classification, Tits form, roots and dash
elimination of a corpus of connected biquivers.

One op computes, for one biquiver, what the `classify`, `tits`, `roots`
and `eliminate` commands compute. Only the graph modules run here.
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

# Kind and direction assignments per shape; they share one Gram matrix.
ASSIGNMENTS = 2
# Coordinate cap for the null roots of a semidefinite form.
ZERO_ROOT_BOUND = 6
# One round: every Dynkin and extended Dynkin shape on at most 9 vertices,
# plus one random shape per (vertex count, extra edges) stratum, each shape
# under ASSIGNMENTS assignments.
LABELS = diagrams.FINITE_LABELS + diagrams.TAME_LABELS
VERTICES = range(1, 10)
EXTRA_EDGES = range(3)
PASSES = 2
# Rounds per second of --seconds: a 25 s run has 3 rounds (372 ops) and
# makes two passes of about 8 s each on the reference host.
ROUNDS_PER_SECOND = 0.12


@dataclass(frozen=True)
class Item:
    biquiver: bq.Biquiver
    arrows: tuple


def build(seed: int, rounds: int, workdir=None):
    rng = random.Random(seed)
    shapes = []
    for _ in range(rounds):
        for label in LABELS:
            shapes.append(diagrams.diagram(label))
        for t in VERTICES:
            for extra in EXTRA_EDGES:
                shapes.append(diagrams.random_connected_shape(rng, t, extra))
    items = []
    for shape in shapes:
        shape = diagrams.relabel(rng, shape)
        for _ in range(ASSIGNMENTS):
            g = diagrams.orient(rng, shape)
            items.append(Item(g, tuple((a.id, a.source, a.target, a.is_dashed)
                                       for a in g.arrows)))
    rng.shuffle(items)
    return items, min(items, key=lambda i: (i.biquiver.t, len(i.arrows)))


def describe(items, outcomes) -> dict:
    """Input properties: vertex counts, type shares among the accepted
    answers, and Gram repetition."""
    kinds = Counter(json.loads(o.canonical)["kind"] for o in outcomes if not o.problem)
    grams = {bq.gram_matrix(item.biquiver).q for item in items}
    return {
        "vertex_histogram": dict(sorted(Counter(i.biquiver.t for i in items).items())),
        "type_shares": {k: round(kinds[k] / max(1, sum(kinds.values())), 4)
                        for k in ("Finite", "TameInfinite", "Wild")},
        "distinct_gram_ratio": round(len(grams) / len(items), 4),
    }


def run(item: Item):
    g = item.biquiver
    rt = bq.representation_type(g)
    gram = bq.gram_matrix(g)
    verdict = bq.definiteness(gram)
    roots = radical = None
    if verdict is bq.Definiteness.POSITIVE_DEFINITE:
        roots = bq.roots_with_value(g, 1)
    elif verdict is bq.Definiteness.POSITIVE_SEMIDEFINITE:
        radical = bq.radical_vector(gram)
        roots = bq.roots_with_value(g, 0, ZERO_ROOT_BOUND)
    plan = bq.dash_elimination_plan(g)
    return rt, verdict, radical, roots, plan


def check(item: Item, result) -> Outcome:
    rt, verdict, radical, roots, plan = result
    arrows = item.arrows
    problems = []
    finite = rt.kind is bq.RepKind.FINITE
    tame = rt.kind is bq.RepKind.TAME_INFINITE
    if finite != (verdict is bq.Definiteness.POSITIVE_DEFINITE) or \
            tame != (verdict is bq.Definiteness.POSITIVE_SEMIDEFINITE):
        problems.append(f"type {rt.kind.value} disagrees with {verdict.value}")
    if finite:
        if rt.diagram not in diagrams.FINITE_LABELS:
            problems.append(f"finite type with diagram {rt.diagram}")
        elif len(roots) != diagrams.weyl_root_count(rt.diagram):
            problems.append(f"{len(roots)} roots for {rt.diagram}")
        if any(exact.tits_form(arrows, z) != 1 or min(z) < 0 for z in roots):
            problems.append("a root does not have q = 1")
    elif verdict is bq.Definiteness.POSITIVE_SEMIDEFINITE:
        if radical is None or min(radical) <= 0 or exact.tits_form(arrows, radical) != 0:
            problems.append(f"bad radical vector {radical}")
        else:
            want = [tuple(k * x for x in radical)
                    for k in range(1, ZERO_ROOT_BOUND // max(radical) + 1)]
            if list(roots) != want:
                problems.append("null roots are not the multiples of the radical")
    if isinstance(plan, bq.DashEliminationPlan):
        if exact.dashed_after(arrows, plan.vertices):
            problems.append("plan leaves a dashed arrow")
        if exact.dash_obstructed(item.biquiver.t, arrows):
            problems.append("plan returned for an obstructed biquiver")
        plan_obj = sorted(plan.vertices)
    else:
        if not exact.dash_obstructed(item.biquiver.t, arrows):
            problems.append(f"obstruction {plan.reason!r} for a solvable biquiver")
        plan_obj = plan.reason
    canonical = json.dumps({
        "kind": rt.kind.value, "diagram": rt.diagram, "definiteness": verdict.value,
        "radical": list(radical) if radical else None,
        "roots": [list(z) for z in roots] if roots is not None else None,
        "plan": plan_obj,
    }, sort_keys=True, separators=(",", ":"))
    return Outcome(canonical, answers=1, monte_carlo=0, missed=False,
                   problem="; ".join(problems) or None)
