"""Parser fuzzing: valid biquiver and representation documents, mutated.

Every mutated document must either be rejected with FormatError or
PreconditionError, or parse to an object that re-serializes and re-parses
to an equal object; through `biquiver rep validate` it must exit 0, 2 or 3
with no traceback. Rational strings and matrices, valid or not, must read
as they did through Fractions: the same value or the same error message.
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
                      parse_biquiver, parse_matrix_obj, parse_representation, serialize_biquiver,
                      serialize_representation, zero_representation)
from biquiver.cli import main
from biquiver.representation import representation_to_obj
from biquiver.scalars import format_rational
from conftest import (biq, gmat, oracle_parse_gaussian_pair, oracle_parse_rational,
                      parse_rational, path_biquiver, star_biquiver)

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
# digits and more digits than the interpreter converts, which must be told
# apart in the same order as before (a long string with a leading zero, a
# trailing newline or non-ASCII digits is too long, not non-canonical).
RATIONAL_STRINGS = ["1", "-1", "0", "1/2", "-7/4", "01", "-0", "+1", "2/4", "1/1", "0/1", "1/0",
                    "1/-2", " 1", "1\n", "1.0", "1e3", "١", "", "/2", "1//2", "0/5", "-0/3",
                    "1/1١", "9" * 5000, "1/" + "9" * 5000, "0" + "9" * 5000, "9" * 5000 + "\n",
                    "١" * 5000]
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


def oracle_parse_matrix_obj(obj, rows=None, cols=None) -> CMatrix:
    """`parse_matrix_obj` as it read entries before: each a GaussianRational of Fractions."""
    if not isinstance(obj, list):
        raise FormatError("matrix must be a list of rows")
    r = len(obj)
    widths = {len(row) if isinstance(row, list) else -1 for row in obj}
    if -1 in widths:
        raise FormatError("matrix rows must be lists")
    if len(widths) > 1:
        raise FormatError("ragged matrix rows")
    c = widths.pop() if widths else (cols if cols is not None else 0)
    if rows is not None and r != rows:
        raise FormatError(f"expected {rows} rows, got {r}")
    if cols is not None and r > 0 and c != cols:
        raise FormatError(f"expected {cols} columns, got {c}")
    return CMatrix(r, c, tuple(oracle_parse_gaussian_pair(cell) for row in obj for cell in row))


def _outcome(parse, *args):
    """What `parse` gives: its value, or the message of the FormatError it raises."""
    try:
        return parse(*args)
    except FormatError as e:
        return f"FormatError: {e}"


canonical_pairs = st.builds(lambda re, im: [format_rational(re), format_rational(im)],
                            st.fractions(), st.fractions(max_denominator=10 ** 30))
matrix_cells = st.one_of(canonical_pairs, canonical_pairs, canonical_pairs,
                         st.lists(st.sampled_from(RATIONAL_STRINGS), max_size=3), leaves)


@st.composite
def matrix_objects(draw):
    """A list of rows of [re, im] pairs, mostly canonical, sometimes with a row
    replaced by any JSON value or shortened."""
    r, c = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    obj = [[draw(matrix_cells) for _ in range(c)] for _ in range(r)]
    if obj and draw(st.booleans()):
        i = draw(st.integers(0, r - 1))
        obj[i] = draw(st.one_of(json_values, st.just(obj[i][1:])))
    return draw(st.sampled_from([obj, obj, obj, draw(json_values)]))


@given(st.one_of(st.sampled_from(RATIONAL_STRINGS), st.text("-/0123456789١\n ", max_size=8),
                 leaves))
def test_parse_rational_matches_the_fraction_path(text):
    assert _outcome(parse_rational, text) == _outcome(oracle_parse_rational, text)


@given(matrix_objects(), st.one_of(st.none(), st.integers(0, 3)),
       st.one_of(st.none(), st.integers(0, 3)))
def test_parse_matrix_obj_matches_the_fraction_path(obj, rows, cols):
    assert _outcome(parse_matrix_obj, obj, rows, cols) == \
        _outcome(oracle_parse_matrix_obj, obj, rows, cols)
