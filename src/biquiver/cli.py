"""Command-line front end with deterministic JSON output.

Every subcommand's handler returns a single JSON document, which `main`
prints on stdout. Output is byte-identical for identical inputs and flags:
all randomness derives from --seed, keys are sorted, and rationals are
printed as exact "p/q" strings.
Exit codes: 0 success, 1 usage error, 2 parse/validation error (including
documents nested too deeply or holding numbers with too many digits),
3 precondition violation, 4 failed certificate check or any other
unexpected error (reported on one line, without a traceback), 141 when
stdout is closed before the document is written, as after `| head`
(128 + SIGPIPE, quietly, as a program that SIGPIPE kills would end).

What loads when is decided in one place, the package's lazy table
(`biquiver._LAZY`): the graph commands (`classify`, `tits`, `roots`,
`eliminate`, and `conjugate` without --representation) load the graph layer
and `scalars`, imported here, and a handler reads every other name as
`bq.<name>`, from its home module, so a name patched there is the one it calls.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import biquiver as bq

from .classify import RepKind, representation_type
from .conjugation import DashEliminationPlan, apply_conjugations, dash_elimination_plan
from .errors import FormatError, PreconditionError, echo, is_int
from .model import (Biquiver, biquiver_to_obj, connected_components,
                    induced_subbiquiver, parse_biquiver, parse_json)
from .roots import roots_with_value
from .scalars import format_rational
from .tits import Definiteness, definiteness, evaluate, gram_matrix, radical_vector

USAGE_ERROR, FORMAT_ERROR, PRECONDITION_ERROR, INTERNAL_ERROR = 1, 2, 3, 4
CLOSED_STDOUT = 141  # 128 + SIGPIPE

# On a connected graph the Tits form is positive definite exactly on Dynkin diagrams
# and singular semidefinite exactly on extended ones (checked by acceptance criterion 1).
_TYPE_DEFINITENESS = {RepKind.FINITE: Definiteness.POSITIVE_DEFINITE,
                      RepKind.TAME_INFINITE: Definiteness.POSITIVE_SEMIDEFINITE,
                      RepKind.WILD: Definiteness.INDEFINITE}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise FormatError(f"cannot read {path}: not UTF-8 at byte {e.start}") from None


def _load_biquiver(path: str) -> Biquiver:
    return parse_biquiver(_read(path))


def _load_representation(path: str, biquiver_path: str | None) -> bq.MatrixRepresentation:
    g = _load_biquiver(biquiver_path) if biquiver_path else None
    return bq.parse_representation(_read(path), g)


def _load_matrix(path: str):
    return bq.parse_matrix_obj(parse_json(_read(path)))


def _emit(obj, pretty: bool) -> None:
    if pretty:
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise FormatError(
            f"{what} must be a comma-separated integer list, got {echo(text)}") from None


def _classify_obj(g: Biquiver) -> dict:
    rt = representation_type(g)
    return {
        "kind": rt.kind.value,
        "diagram": rt.diagram,
        "definiteness": _TYPE_DEFINITENESS[rt.kind].value,
    }


def _iso_result_obj(res) -> dict:
    obj: dict = {"verdict": res.verdict.value}
    if res.verdict is bq.Verdict.YES:
        obj["certificate"] = {"S": [bq.matrix_to_obj(m) for m in res.certificate]}
    if res.reason is not None:
        obj["reason"] = res.reason
    if res.seed is not None:  # a sampled Yes and every ProbablyNo, --trials 0 included
        obj["trials"] = res.trials
        obj["seed"] = res.seed
    return obj


def _cmd_classify(args) -> dict:
    g = _load_biquiver(args.biquiver)
    if args.components:
        comps = []
        for vertices in connected_components(g):
            sub = induced_subbiquiver(g, vertices)
            entry = _classify_obj(sub)
            entry["vertices"] = vertices
            comps.append(entry)
        return {"components": comps}
    return _classify_obj(g)


def _cmd_tits(args) -> dict:
    g = _load_biquiver(args.biquiver)
    gram = gram_matrix(g)
    radical = radical_vector(gram)
    obj = {
        "t": gram.t,
        "gram": [[format_rational(x) for x in row] for row in gram.q],
        "definiteness": definiteness(gram).value,
        "radical": list(radical) if radical else None,
    }
    if args.evaluate is not None:
        z = _parse_int_list(args.evaluate, "--evaluate")
        obj["vector"] = z
        obj["value"] = evaluate(g, tuple(z))
    return obj


def _cmd_roots(args) -> list:
    g = _load_biquiver(args.biquiver)
    roots = roots_with_value(g, args.value, args.bound)
    return [list(z) for z in roots]


def _cmd_conjugate(args) -> dict:
    g = _load_biquiver(args.biquiver)
    vertices = _parse_int_list(args.vertex, "--vertex")
    if args.representation:
        rep = bq.parse_representation(_read(args.representation), g)
        return bq.representation_to_obj(bq.apply_conjugations_representation(rep, vertices))
    return biquiver_to_obj(apply_conjugations(g, vertices))


def _cmd_eliminate(args) -> dict:
    g = _load_biquiver(args.biquiver)
    plan = dash_elimination_plan(g)
    if isinstance(plan, DashEliminationPlan):
        vertices = sorted(plan.vertices)
        return {
            "status": "plan",
            "vertices": vertices,
            "biquiver": biquiver_to_obj(apply_conjugations(g, vertices)),
        }
    return {"status": "impossible", "reason": plan.reason}


def _cmd_rep_validate(args) -> dict:
    rep = _load_representation(args.representation, args.biquiver)
    return {"valid": True, "dims": list(rep.dims)}


def _cmd_rep_sum(args) -> dict:
    a = _load_representation(args.a, args.biquiver)
    b = _load_representation(args.b, args.biquiver)
    return bq.representation_to_obj(bq.direct_sum(a, b))


def _cmd_rep_random(args) -> dict:
    g = _load_biquiver(args.biquiver)
    dims = _parse_int_list(args.dims, "--dims")
    return bq.representation_to_obj(
        bq.random_representation(g, tuple(dims), args.entry_bound, args.seed))


def _cmd_rep_hom(args) -> dict:
    a = _load_representation(args.a, args.biquiver)
    b = _load_representation(args.b, args.biquiver)
    basis = bq.hom_basis(a, b)
    return {
        "dimension": basis.dimension,
        "basis": [[bq.matrix_to_obj(m) for m in tup] for tup in basis.tuples],
    }


def _cmd_rep_iso(args) -> dict:
    a = _load_representation(args.a, args.biquiver)
    b = _load_representation(args.b, args.biquiver)
    res = bq.are_isomorphic(a, b, **_sampling(args))
    return _iso_result_obj(res)


def _cmd_rep_decompose(args) -> dict:
    a = _load_representation(args.representation, args.biquiver)
    dec = bq.decompose(a, **_sampling(args))
    return {
        "summands": [bq.representation_to_obj(s, embed_biquiver=False) for s in dec.summands],
        "certificate": {"S": [bq.matrix_to_obj(m) for m in dec.base_change]},
        "statuses": [st.value for st in dec.statuses],
        "trials": dec.trials,
        "seed": dec.seed,
    }


def _cmd_gadget_cycle(args) -> dict:
    g = _load_biquiver(args.biquiver)
    m = _load_matrix(args.matrix)
    arrows = [part for part in args.arrows.split(",") if part]
    return bq.representation_to_obj(bq.gadget_cycle(g, arrows, m))


def _cmd_gadget_pair(args) -> dict:
    p = _load_matrix(args.p)
    q = _load_matrix(args.q)
    builder = getattr(bq, f"gadget_{args.gadget_command}")
    return bq.representation_to_obj(builder(p, q))


def _add_sampling(p) -> None:
    # no default for --trials: `_sampling` leaves the API's own
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, default=0)


def _sampling(args) -> dict:
    """The sampling keywords of --seed, and of --trials where given."""
    given = {"trials": args.trials, "seed": args.seed}
    return {key: value for key, value in given.items() if value is not None}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = _Parser(prog="biquiver",
                     description="Exact computations on biquiver representations.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="indented, human-readable JSON")

    def leaf(group, name: str, handler, summary: str):
        p = group.add_parser(name, help=summary, parents=[common])
        p.set_defaults(func=handler)
        return p

    sub = parser.add_subparsers(dest="command", required=True)

    p = leaf(sub, "classify", _cmd_classify, "representation type of a biquiver")
    p.add_argument("biquiver")
    p.add_argument("--components", action="store_true",
                   help="classify each connected component separately")

    p = leaf(sub, "tits", _cmd_tits, "Tits form: Gram matrix, definiteness, radical")
    p.add_argument("biquiver")
    p.add_argument("--evaluate", metavar="Z", help="comma-separated dimension vector")

    p = leaf(sub, "roots", _cmd_roots, "dimension vectors with q(z) = 0 or 1")
    p.add_argument("biquiver")
    p.add_argument("--value", type=int, choices=(0, 1), required=True)
    p.add_argument("--bound", type=int, default=None,
                   help="coordinate cap (required unless the form is positive definite)")

    p = leaf(sub, "conjugate", _cmd_conjugate,
             "conjugate a biquiver (and representation) at vertices")
    p.add_argument("biquiver")
    p.add_argument("--vertex", required=True, help="vertex or comma-separated vertices")
    p.add_argument("--representation", help="representation file to conjugate instead")

    p = leaf(sub, "eliminate", _cmd_eliminate, "plan conjugations removing all dashed arrows")
    p.add_argument("biquiver")

    rep = sub.add_parser("rep", help="operations on matrix representations")
    rep_sub = rep.add_subparsers(dest="rep_command", required=True)

    p = leaf(rep_sub, "validate", _cmd_rep_validate, "check a representation document")
    p.add_argument("representation")
    p.add_argument("--biquiver", help="biquiver file (else must be embedded)")

    p = leaf(rep_sub, "sum", _cmd_rep_sum, "direct sum of two representations")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--biquiver")

    p = leaf(rep_sub, "random", _cmd_rep_random, "seeded random representation")
    p.add_argument("biquiver")
    p.add_argument("--dims", required=True, help="comma-separated dimension vector")
    p.add_argument("--entry-bound", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)

    p = leaf(rep_sub, "hom", _cmd_rep_hom, "basis of the real morphism space Hom(A, B)")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--biquiver")

    p = leaf(rep_sub, "iso", _cmd_rep_iso, "isomorphism test with exact certificates")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--biquiver")
    _add_sampling(p)

    p = leaf(rep_sub, "decompose", _cmd_rep_decompose, "Krull-Schmidt decomposition")
    p.add_argument("representation")
    p.add_argument("--biquiver")
    _add_sampling(p)

    gadget = sub.add_parser("gadget", help="wildness gadget representations")
    gadget_sub = gadget.add_subparsers(dest="gadget_command", required=True)

    p = leaf(gadget_sub, "cycle", _cmd_gadget_cycle, "identity-chain cycle gadget")
    p.add_argument("biquiver")
    p.add_argument("--arrows", required=True, help="comma-separated arrow ids along the cycle")
    p.add_argument("--matrix", required=True, help="matrix JSON file for the closing arrow")

    for name in ("g1", "g2", "g3", "g4"):
        p = leaf(gadget_sub, name, _cmd_gadget_pair, f"pair gadget on the {name} biquiver")
        p.add_argument("p", help="matrix JSON file")
        p.add_argument("q", help="matrix JSON file")

    return parser


def _discard_stdout() -> None:
    """Point the file descriptor behind stdout at the null device, so that the
    interpreter's last flush of what stdout still buffers fails no more."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # stdout is no file, as when captured
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if is_int(e.code) else USAGE_ERROR
    try:
        _emit(args.func(args), args.pretty)
        sys.stdout.flush()  # a closed stdout fails here, not at the interpreter's exit
    except BrokenPipeError:
        _discard_stdout()
        return CLOSED_STDOUT
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return FORMAT_ERROR
    except PreconditionError as e:
        print(f"error: {e}", file=sys.stderr)
        return PRECONDITION_ERROR
    except Exception as e:  # a failed certificate check or a defect: one line, no traceback
        print(f"error: unexpected {e!r}", file=sys.stderr)
        return INTERNAL_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
