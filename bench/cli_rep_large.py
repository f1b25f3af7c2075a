"""Workload cli-rep-large: `biquiver rep iso` and `rep decompose` on sums of
three E6/E7 representations, run in-process through `cli.main`.

Set-up writes every input as a JSON file; one op is one `cli.main` call
with its stdout captured, so argument parsing, JSON parsing and
serialisation are measured as users run them.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from collections import Counter
from dataclasses import dataclass

import biquiver as bq
import biquiver.cli

import diagrams
import exact
from harness import Outcome

GRAPHS = ("E6", "E7")
TOTALS = (9, 12, 15)
KINDS = ("iso-yes", "iso-no", "decompose")
ENTRY_BOUND = 2
SCREEN_ATTEMPTS = 20
PASSES = 1
# A round holds every (graph, total dimension, kind) once. Rounds per
# second of --seconds: a 25 s run has 4 rounds (72 ops) and
# makes one pass of about 27 s on the reference host. This workload's cost
# varies most from seed to seed, so it gets the most inputs.
ROUNDS_PER_SECOND = 0.16


def screened_root_rep(rng: random.Random, g, z):
    """A random representation of dimension z that decompose certifies as
    a single indecomposable."""
    for _ in range(SCREEN_ATTEMPTS):
        rep = bq.random_representation(g, z, ENTRY_BOUND, rng.randrange(10 ** 9))
        if diagrams.certified_indecomposable(rep):
            return rep
    raise RuntimeError(f"no certified indecomposable of dimension {z} in "
                       f"{SCREEN_ATTEMPTS} draws")


def _decomposable_twin(rng, g, z, v):
    """A representation of dimension z that is not indecomposable: one of
    dimension z - e_v, which must be a root, plus the simple one at v."""
    rest = tuple(x - (i == v) for i, x in enumerate(z))
    simple = bq.zero_representation(g, tuple(int(i == v) for i in range(g.t)))
    return bq.direct_sum(screened_root_rep(rng, g, rest), simple)


def _heights(total: int) -> tuple[int, int, int]:
    h = total // 3
    return h - 1, h, total - 2 * h + 1


def planted_roots(label: str, total: int):
    """The stratum's three summand dimension vectors, on the diagram's own
    vertex numbering, and the vertex whose simple representation the
    twin splits off from the largest one.

    They are the same for every seed, because the cost of an op depends
    mostly on them: the seed varies the numbering, arrows, entries, base
    changes and sampling. The triple is a typical one: the sum of the
    squared dimensions of the direct sum, which sets the size of its
    End system, is the median over all triples of the stratum's heights."""
    t, edges = diagrams.diagram(label)
    g = bq.Biquiver(t, tuple(bq.Arrow(f"a{k}", u, v, bq.ArrowKind.FULL)
                             for k, (u, v) in enumerate(edges)))
    roots = bq.roots_with_value(g, 1)
    by_height = [[z for z in roots if sum(z) == h] for h in _heights(total)]
    triples = list(itertools.product(*by_height))

    def size(triple):
        return sum(sum(column) ** 2 for column in zip(*triple))

    typical = sorted(size(tr) for tr in triples)[len(triples) // 2]
    pick = random.Random(f"{label}/{total}")
    zs = list(pick.choice([tr for tr in triples if size(tr) == typical]))
    largest, root_set = zs[-1], set(roots)
    splits = [v for v in range(t) if largest[v] and
              tuple(x - (i == v) for i, x in enumerate(largest)) in root_set]
    return zs, pick.choice(splits)


@dataclass(frozen=True)
class Item:
    kind: str
    argv: tuple
    source: tuple          # exact.rep_parts of the first input
    target: tuple | None   # exact.rep_parts of the second input (iso)
    planted_dims: tuple    # sorted dimension vectors of the planted summands
    total: int


def _write(workdir, name, rep) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(bq.serialize_representation(rep))
    return path


def build(seed: int, rounds: int, workdir: str):
    rng = random.Random(seed)
    items = []
    for r in range(rounds):
        for label in GRAPHS:
            for total in TOTALS:
                canonical, split = planted_roots(label, total)
                t, edges = diagrams.diagram(label)
                perm = rng.sample(range(t), t)
                g = diagrams.orient(rng, (t, [(perm[u - 1] + 1, perm[v - 1] + 1)
                                              for u, v in edges]))
                zs = []
                for z in canonical:
                    moved = [0] * t
                    for v in range(t):
                        moved[perm[v]] = z[v]
                    zs.append(tuple(moved))
                parts = [screened_root_rep(rng, g, z) for z in zs]
                plain = bq.direct_sum_list(g, parts)
                scrambled = diagrams.scramble(rng, plain, diagrams.random_unimodular)
                twin = _decomposable_twin(rng, g, zs[-1], perm[split])
                other = diagrams.scramble(rng, bq.direct_sum_list(g, parts[:-1] + [twin]),
                                         diagrams.random_unimodular)
                stem = f"r{r}-{label}-{total}"
                paths = {name: _write(workdir, f"{stem}-{name}.json", rep)
                         for name, rep in (("plain", plain), ("scrambled", scrambled),
                                           ("other", other))}
                planted = tuple(sorted(zs))
                for kind in KINDS:
                    seed_arg = ["--seed", str(rng.randrange(10 ** 6))]
                    if kind == "decompose":
                        argv = ["rep", "decompose", paths["scrambled"]] + seed_arg
                        src, dst = scrambled, None
                    else:
                        dst = scrambled if kind == "iso-yes" else other
                        argv = ["rep", "iso", paths["plain"],
                                paths["scrambled" if kind == "iso-yes" else "other"]] + seed_arg
                        src = plain
                    items.append(Item(kind, tuple(argv), exact.rep_parts(src),
                                      exact.rep_parts(dst) if dst is not None else None,
                                      planted, total))
    rng.shuffle(items)
    warmup = min((item for item in items if item.kind == "decompose"), key=lambda i: i.total)
    return items, warmup


def describe(items, outcomes) -> dict:
    return {"total_dim_histogram": dict(sorted(Counter(i.total for i in items).items())),
            "kinds": dict(sorted(Counter(i.kind for i in items).items()))}


def run(item: Item):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = biquiver.cli.main(list(item.argv))
    return code, out.getvalue()


def check(item: Item, result) -> Outcome:
    code, stdout = result
    if code != 0:
        return Outcome(stdout, 1, 0, False, f"cli exited with {code}")
    doc = json.loads(stdout)
    arrows, dims, mats = item.source
    problems = []
    if item.kind != "decompose":
        verdict = doc["verdict"]
        missed = False
        if verdict == "Yes":
            _, b_dims, b_mats = item.target
            cert = [exact.from_json(m) for m in doc["certificate"]["S"]]
            if not exact.is_base_change(arrows, dims, mats, cert, b_dims, b_mats):
                problems.append("iso certificate does not verify")
            elif item.kind == "iso-no":
                problems.append("Yes for a pair with different summands")
        elif item.kind == "iso-yes":
            if verdict == "No":
                problems.append("certified No for an isomorphic pair")
            missed = True
        return Outcome(stdout, 1, int(verdict == "ProbablyNo"), missed,
                       "; ".join(problems) or None)
    summands = [(tuple(s["dims"]), {aid: exact.from_json(m) for aid, m in s["matrices"].items()})
                for s in doc["summands"]]
    sum_dims, sum_mats = exact.direct_sum(arrows, summands)
    cert = [exact.from_json(m) for m in doc["certificate"]["S"]]
    if not exact.is_base_change(arrows, dims, mats, cert, sum_dims, sum_mats):
        problems.append("decomposition certificate does not verify")
    statuses = doc["statuses"]
    probable = statuses.count(bq.IndecomposabilityStatus.PROBABLE.value)
    missed = tuple(sorted(d for d, _ in summands)) != item.planted_dims
    if missed and not probable:
        problems.append("certified decomposition differs from the planted summands")
    return Outcome(stdout, len(statuses), probable, missed, "; ".join(problems) or None)
