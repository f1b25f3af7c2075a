"""Parser fuzzing: valid biquiver and representation documents, mutated.

Every mutated document must either be rejected with FormatError or
PreconditionError, or parse to an object that re-serializes and re-parses
to an equal object; through `biquiver rep validate` it must exit 0, 2 or 3
with no traceback.
"""
import contextlib
import copy
import io
import json
import os
import tempfile
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from biquiver import (CMatrix, FormatError, MatrixRepresentation, PreconditionError,
                      parse_biquiver, parse_representation, serialize_biquiver,
                      serialize_representation, zero_representation)
from biquiver.cli import main
from biquiver.representation import representation_to_obj
from conftest import biq, gmat, path_biquiver, star_biquiver

BIQUIVERS = [path_biquiver(3, dashed=(2,)), biq(1, "a:1>1"), biq(2, "a:1>2", "b:2~1", "c:2~2"),
             star_biquiver([1, 1, 2], dashed=("b1e0",))]
REPRESENTATIONS = [
    MatrixRepresentation(biq(2, "a:1>2", "l:2~2"), (2, 1), {
        "a": gmat([(Fraction(1, 2), -3), (0, Fraction(-7, 4))]),
        "l": gmat([(0, 1)])}),
    MatrixRepresentation(path_biquiver(3, dashed=(1,)), (1, 0, 2),
                         {"e1": CMatrix.zero(0, 1), "e2": CMatrix.zero(2, 0)}),
    zero_representation(biq(1, "a:1>1"), (2,)),
    MatrixRepresentation(biq(1, "a:1~1"), (1,), {"a": gmat([(Fraction(-5, 3), 0)])}),
]
BIQUIVER_DOCS = [json.loads(serialize_biquiver(g)) for g in BIQUIVERS]
REPRESENTATION_DOCS = [representation_to_obj(a) for a in REPRESENTATIONS]

# Strings that `parse_rational` must refuse or read exactly: leading zeros,
# signs, unreduced or zero denominators, whitespace, decimals, non-ASCII
# digits and more digits than the interpreter converts.
RATIONAL_STRINGS = ["1", "-1", "0", "1/2", "-7/4", "01", "-0", "+1", "2/4", "1/1", "0/1", "1/0",
                    "1/-2", " 1", "1\n", "1.0", "1e3", "١", "", "/2", "1//2",
                    "9" * 5000, "1/" + "9" * 5000]
leaves = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                   st.integers(-10 ** 30, 10 ** 30), st.floats(), st.text(max_size=4),
                   st.sampled_from(RATIONAL_STRINGS))
json_values = st.recursive(
    leaves, lambda inner: st.one_of(st.lists(inner, max_size=3),
                                    st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)
# A placeholder that the text form replaces by a deeply nested list.
DEEP = "\x00deep\x00"


def _paths(obj, path=()):
    yield path
    if isinstance(obj, dict):
        for key in obj:
            yield from _paths(obj[key], path + (key,))
    elif isinstance(obj, list):
        for i, x in enumerate(obj):
            yield from _paths(x, path + (i,))


def _field_names(obj):
    """Every key that occurs in the valid documents, so that an added key
    can also collide with a real one."""
    return sorted({key for doc in obj for path in _paths(doc) for key in path
                   if isinstance(key, str)})


FIELD_NAMES = _field_names(BIQUIVER_DOCS + REPRESENTATION_DOCS)


@st.composite
def mutated_documents(draw, docs):
    """The JSON text of a valid document after one to three mutations: a node
    replaced by a value of any type, a non-canonical rational string or a deep
    nesting, a key deleted or added, or a list element dropped or repeated."""
    root = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(root))))
        parent = None
        node = root
        for key in path:
            parent, node = node, node[key]
        kind = draw(st.sampled_from(["replace", "rational", "nest", "deep", "delete", "extra",
                                     "drop", "repeat"]))
        if kind == "replace":
            new = draw(json_values)
        elif kind == "rational":
            new = draw(st.sampled_from(RATIONAL_STRINGS))
        elif kind == "nest":
            new = node
            for _ in range(draw(st.integers(1, 40))):
                new = [new]
        elif kind == "deep":
            new = DEEP
        elif kind in ("delete", "extra") and isinstance(node, dict):
            new = dict(node)
            if kind == "delete" and new:
                del new[draw(st.sampled_from(sorted(new)))]
            else:
                new[draw(st.one_of(st.sampled_from(FIELD_NAMES), st.text(max_size=6)))] = \
                    draw(json_values)
        elif kind in ("drop", "repeat") and isinstance(node, list) and node:
            i = draw(st.integers(0, len(node) - 1))
            new = node[:i] + node[i + 1:] if kind == "drop" else node[:i + 1] + node[i:]
        else:
            continue
        if parent is None:
            root = new
        else:
            parent[path[-1]] = new
    text = json.dumps(root, sort_keys=draw(st.booleans()))
    depth = draw(st.sampled_from([100, 10 ** 4, 10 ** 6]))
    return text.replace(json.dumps(DEEP), "[" * depth + "]" * depth)


def _round_trips(parse, serialize, text):
    try:
        value = parse(text)
    except (FormatError, PreconditionError):
        return
    again = parse(serialize(value))
    assert again == value
    assert serialize(again) == serialize(value)


@given(mutated_documents(BIQUIVER_DOCS))
def test_mutated_biquiver_is_rejected_or_round_trips(text):
    _round_trips(parse_biquiver, serialize_biquiver, text)


@given(mutated_documents(REPRESENTATION_DOCS))
def test_mutated_representation_is_rejected_or_round_trips(text):
    _round_trips(parse_representation, serialize_representation, text)


@settings(max_examples=60)
@given(st.one_of(mutated_documents(REPRESENTATION_DOCS), mutated_documents(BIQUIVER_DOCS)))
def test_rep_validate_exits_cleanly_on_mutated_documents(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rep.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["rep", "validate", path])
    assert code in (0, 2, 3)
    if code == 0:
        assert json.loads(out.getvalue())["valid"] is True and err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_valid_documents_round_trip_unmutated():
    for g, doc in zip(BIQUIVERS, BIQUIVER_DOCS):
        assert parse_biquiver(json.dumps(doc)) == g
    for a, doc in zip(REPRESENTATIONS, REPRESENTATION_DOCS):
        assert parse_representation(json.dumps(doc)) == a
