"""Build the answer ledger that `tests/test_ledger.py` checks.

The ledger pins what the CLI answers: for each invocation in INVOCATIONS,
the SHA-256 of its stdout and its exit code, stored in
`tests/ledger/answers.json`. The documents the invocations read sit next
to it and are checked in, so the ledger moves only when an answer does.

    python tests/make_ledger.py           # rewrite answers.json
    python tests/make_ledger.py --inputs  # rewrite the input documents too
    python tests/make_ledger.py --check   # list the answers that moved

Each `rep decompose` entry also records each summand's dimension vector
and status, as "dims status", in the order printed. Rewrite the answers only for a change that
moves answers on purpose, and name the entries that moved, and why, in
that change's CHANGES.md entry. `--check` writes nothing: it prints each
invocation whose stdout hash or exit code differs from answers.json, or
that answers.json lacks, and exits with 1 if there is any. For a moved
`rep decompose` entry it also says whether its multiset of (dims, status)
pairs is kept, so that only the certificate and the summands' bases
moved, or which pairs the summands moved from and to.
The input documents are built from fixed seeds by `write_inputs`.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

LEDGER = Path(__file__).resolve().parent / "ledger"
ANSWERS = LEDGER / "answers.json"

# The scrambled sums: rep iso and rep decompose at fixed seeds on a sum of
# indecomposables (".sum"), two base changes of it (".s1", ".s2") and a sum
# of other indecomposables with the same dimension vector (".other").
_SUM_COMMANDS = [
    ("rep", "hom", "{0}.sum.json", "{0}.s1.json"),
    ("rep", "iso", "{0}.sum.json", "{0}.s1.json", "--seed", "0"),
    ("rep", "iso", "{0}.s1.json", "{0}.s2.json", "--seed", "3"),
    ("rep", "iso", "{0}.s1.json", "{0}.other.json", "--seed", "1"),
    ("rep", "decompose", "{0}.s1.json", "--seed", "0"),
    ("rep", "decompose", "{0}.s2.json", "--seed", "1"),
]

INVOCATIONS: list[tuple[str, ...]] = [
    *(tuple(arg.format(shape) for arg in cmd)
      for shape in ("a3", "d4", "e6") for cmd in _SUM_COMMANDS),
    ("rep", "decompose", "a3.s1.json", "--seed", "5", "--trials", "2", "--pretty"),
    ("rep", "iso", "d4.sum.json", "d4.s2.json", "--seed", "2", "--trials", "2"),
    # the dashed loop J = [[0, -1], [1, 0]], whose End is the quaternions
    ("rep", "hom", "j.json", "j.json"),
    ("rep", "iso", "j.json", "j.s1.json", "--seed", "0"),
    ("rep", "decompose", "j.s1.json", "--seed", "0"),
    ("rep", "hom", "jj.json", "jj.json"),
    ("rep", "decompose", "jj.json", "--seed", "0"),
    ("rep", "decompose", "jj.json", "--seed", "1"),
    # the dashed loop diag(1, -1), which the sampler splits at some seeds only
    *(("rep", "decompose", "diag.json", "--seed", str(s)) for s in range(8)),
    # the Tits form and its roots
    ("tits", "a3.biquiver.json"),
    ("tits", "d4.biquiver.json"),
    ("tits", "d4t.biquiver.json", "--evaluate", "2,1,1,1,1"),
    ("tits", "wild.biquiver.json"),
    ("roots", "e6.biquiver.json", "--value", "1"),
    ("roots", "d4t.biquiver.json", "--value", "0", "--bound", "2"),
    ("roots", "wild.biquiver.json", "--value", "1", "--bound", "2"),
    ("classify", "d4t.biquiver.json"),
    ("classify", "wild.biquiver.json"),
    # isotypic sums X + X + Y: over A3 and D4 (each with a dashed arrow), whose
    # generic minimal polynomials have irreducible quartic factors, and on the
    # dashed loop, whose End holds M2(Q) blocks with real irrational roots
    *(("rep", "decompose", f"{name}.json", "--seed", str(s))
      for name in ("a3xxy", "d4xxy", "loopxxyy") for s in (0, 1)),
    # consimilarity of 3x3 matrices: a base change of A, and another matrix
    ("rep", "iso", "cons.json", "cons.s1.json", "--seed", "0"),
    ("rep", "iso", "cons.json", "cons.other.json", "--seed", "0"),
    # isotypic sums X + X and X + X + X over A3 and D4 (each with a dashed
    # arrow) and X + X on the dashed loop: End/rad is M2(C) or M3(C), so the
    # generic minimal polynomial is an irreducible rational quartic or sextic
    *(("rep", "decompose", f"{name}.json", "--seed", str(s))
      for name in ("a3xx", "a3xxx", "d4xx", "d4xxx", "loopxx") for s in range(4)),
    # Hom and iso into the block-diagonal sum, whose Hom system falls apart
    # into one independent block per summand
    *(cmd for shape in ("e6", "d4")
      for cmd in (("rep", "hom", f"{shape}.s1.json", f"{shape}.sum.json"),
                  ("rep", "iso", f"{shape}.s1.json", f"{shape}.sum.json", "--seed", "0"))),
    # a deep tree: a scrambled sum on a ten-vertex path of full and dashed
    # arrows in both directions, at most 2 dimensions at each vertex
    ("rep", "decompose", "path10.json", "--seed", "0"),
]


def answer(argv: tuple[str, ...]) -> dict:
    """Run the CLI in this process on argv, its .json names read from LEDGER."""
    from biquiver.cli import main

    args = [str(LEDGER / a) if a.endswith(".json") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    entry = {"argv": list(argv), "exit": code,
             "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}
    if argv[:2] == ("rep", "decompose") and code == 0:
        doc = json.loads(out.getvalue())
        entry["summands"] = [f"{','.join(map(str, s['dims']))} {status}"
                             for s, status in zip(doc["summands"], doc["statuses"])]
    return entry


def write_inputs() -> None:
    import biquiver as bq

    def loop(dashed: bool) -> bq.Biquiver:
        kind = bq.ArrowKind.DASHED if dashed else bq.ArrowKind.FULL
        return bq.Biquiver(1, (bq.Arrow("a", 1, 1, kind),))

    def star(branches: list[int], dashed: tuple[str, ...] = ()) -> bq.Biquiver:
        arrows, nxt = [], 2
        for b, length in enumerate(branches):
            prev = 1
            for k in range(length):
                name = f"b{b}e{k}"
                kind = bq.ArrowKind.DASHED if name in dashed else bq.ArrowKind.FULL
                arrows.append(bq.Arrow(name, prev, nxt, kind))
                prev, nxt = nxt, nxt + 1
        return bq.Biquiver(1 + sum(branches), tuple(arrows))

    def invertible(rng: random.Random, n: int) -> bq.CMatrix:
        while True:
            m = bq.CMatrix(n, n, [bq.gaussian(Fraction(rng.randint(-2, 2)),
                                              Fraction(rng.randint(-2, 2)))
                                  for _ in range(n * n)])
            if m.is_invertible():
                return m

    def scramble(rng: random.Random, rep):
        return bq.apply_base_change(rep, [invertible(rng, d) for d in rep.dims])

    def save(name: str, text: str) -> None:
        (LEDGER / name).write_text(text + "\n")

    LEDGER.mkdir(exist_ok=True)
    a3 = bq.Biquiver(3, (bq.Arrow("e1", 1, 2, bq.ArrowKind.FULL),
                         bq.Arrow("e2", 3, 2, bq.ArrowKind.DASHED)))
    shapes = {
        # (biquiver, dimension vectors of the summands, of the other summands)
        "a3": (a3, [(1, 1, 1), (1, 1, 0), (1, 1, 1)], [(1, 1, 1), (1, 1, 1), (1, 1, 0)]),
        "d4": (star([1, 1, 1], dashed=("b1e0",)), [(2, 1, 1, 1), (1, 1, 1, 0), (1, 1, 0, 1)],
               [(1, 1, 1, 1), (2, 1, 1, 1), (1, 1, 0, 0)]),
        "e6": (star([1, 2, 2], dashed=("b2e1",)),
               [(3, 2, 2, 1, 2, 1), (1, 1, 1, 0, 1, 1), (2, 1, 1, 1, 1, 0)],
               [(3, 2, 2, 1, 2, 1), (2, 1, 2, 1, 1, 0), (1, 1, 0, 0, 1, 1)]),
    }
    for seed, (name, (g, dims, other)) in enumerate(shapes.items()):
        rng = random.Random(seed)
        parts = [bq.random_representation(g, d, 2, rng.randrange(10 ** 6)) for d in dims]
        others = [bq.random_representation(g, d, 2, rng.randrange(10 ** 6)) for d in other]
        total = bq.direct_sum_list(g, parts)
        save(f"{name}.biquiver.json", bq.serialize_biquiver(g))
        save(f"{name}.sum.json", bq.serialize_representation(total))
        save(f"{name}.s1.json", bq.serialize_representation(scramble(rng, total)))
        save(f"{name}.s2.json", bq.serialize_representation(scramble(rng, total)))
        save(f"{name}.other.json",
             bq.serialize_representation(scramble(rng, bq.direct_sum_list(g, others))))
    save("d4t.biquiver.json", bq.serialize_biquiver(star([1, 1, 1, 1])))
    save("wild.biquiver.json", bq.serialize_biquiver(star([1, 1, 1, 1, 1])))

    rng = random.Random(7)
    j = bq.MatrixRepresentation(loop(True), (2,), {"a": bq.CMatrix.from_rows([[0, -1], [1, 0]])})
    save("j.json", bq.serialize_representation(j))
    save("j.s1.json", bq.serialize_representation(scramble(rng, j)))
    save("jj.json", bq.serialize_representation(scramble(rng, bq.direct_sum(j, j))))
    diag = bq.MatrixRepresentation(loop(True), (2,),
                                   {"a": bq.CMatrix.from_rows([[1, 0], [0, -1]])})
    save("diag.json", bq.serialize_representation(diag))

    rng = random.Random(11)
    for name, g, x_dims, y_dims in (("a3xxy", a3, (1, 1, 1), (1, 1, 0)),
                                    ("d4xxy", shapes["d4"][0], (2, 1, 1, 1), (1, 1, 1, 0))):
        x, y = (bq.random_representation(g, d, 2, rng.randrange(10 ** 6)) for d in (x_dims, y_dims))
        save(f"{name}.json", bq.serialize_representation(scramble(rng, bq.direct_sum_list(g, [x, x, y]))))
    # [1] and [2] on the dashed loop are not consimilar, and End of each is Q
    one, two = (bq.MatrixRepresentation(loop(True), (1,), {"a": bq.CMatrix.from_rows([[c]])})
                for c in (1, 2))
    save("loopxxyy.json", bq.serialize_representation(
        scramble(rng, bq.direct_sum_list(one.biquiver, [one, one, two, two]))))
    cons, other = (bq.random_representation(loop(True), (3,), 2, rng.randrange(10 ** 6))
                   for _ in range(2))
    save("cons.json", bq.serialize_representation(cons))
    save("cons.s1.json", bq.serialize_representation(scramble(rng, cons)))
    save("cons.other.json", bq.serialize_representation(other))

    rng = random.Random(13)
    for name, g, dims in (("a3", a3, (1, 1, 1)), ("d4", shapes["d4"][0], (2, 1, 1, 1)),
                          ("loop", loop(True), (2,))):
        x = bq.random_representation(g, dims, 2, rng.randrange(10 ** 6))
        for copies in (2, 3) if name != "loop" else (2,):
            save(f"{name}{'x' * copies}.json",
                 bq.serialize_representation(scramble(rng, bq.direct_sum_list(g, [x] * copies))))

    rng = random.Random(17)
    kinds = (bq.ArrowKind.FULL, bq.ArrowKind.DASHED)
    path = bq.Biquiver(10, tuple(bq.Arrow(f"e{i}", *((i, i + 1) if rng.randrange(2) else (i + 1, i)),
                                          rng.choice(kinds)) for i in range(1, 10)))
    parts = [bq.random_representation(path, dims, 2, rng.randrange(10 ** 6))
             for dims in ((1, 1, 1, 1, 1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1, 1, 1, 1, 1),
                          (1, 1, 1, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 1, 1, 1))]
    save("path10.json", bq.serialize_representation(scramble(rng, bq.direct_sum_list(path, parts))))


def moved(entries: list[dict]) -> list[str]:
    """One line per entry that differs from its recorded answer."""
    recorded = {tuple(e["argv"]): e for e in json.loads(ANSWERS.read_text())}
    lines = []
    for e in entries:
        old = recorded.get(tuple(e["argv"]))
        if old is None:
            lines.append(f"{' '.join(e['argv'])}: not in the ledger")
        elif old != e:
            line = (f"{' '.join(e['argv'])}: exit {old['exit']} -> {e['exit']}, "
                    f"stdout {old['stdout_sha256'][:12]} -> {e['stdout_sha256'][:12]}")
            before, after = (sorted(x.get("summands", [])) for x in (old, e))
            if "summands" in old or "summands" in e:
                line += ("; same (dims, status) multiset" if before == after else
                         f"; summands [{'; '.join(before)}] -> [{'; '.join(after)}]")
            lines.append(line)
    return lines


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(LEDGER.parents[1] / "src"))
    if "--inputs" in argv:
        write_inputs()
    entries = [answer(inv) for inv in INVOCATIONS]
    if "--check" in argv:
        lines = moved(entries)
        print("\n".join(lines) or f"all {len(entries)} answers match the ledger")
        return 1 if lines else 0
    ANSWERS.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {ANSWERS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
