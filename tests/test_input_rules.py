"""Each input rule is written once, so that no two copies can drift apart.

`errors.is_int` and `errors.check_int` hold the int rule, an int that is not
a bool; `errors.check_instance` holds the type rule for the package's own
classes; the Biquiver and MatrixRepresentation constructors hold the
biquiver and dimension-vector rules, and the JSON parsers only decode. The
int checks read the package's source; the type checks call each public
function that takes one of the package's classes with a foreign object,
and a property puts an int, a str, None or a nested list in every place of
the public API that takes a CMatrix, a sequence, a mapping, a Biquiver, a
TitsGram or a MatrixRepresentation.
"""
import ast
import inspect
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import biquiver as bq
from biquiver import FormatError, PreconditionError

SRC = Path(__file__).resolve().parents[1] / "src" / "biquiver"


def _names(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def test_only_errors_tells_a_bool_from_an_int():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "isinstance" and len(node.args) == 2
             and "bool" in _names(node.args[1])]
    assert found == []


# Where a bare isinstance(<x>, int) may stand outside errors.py, by module and
# function: scalars._coerce takes a bool as the int it subclasses, which is
# public scalar API (GaussianRational(True) == 1), not an input rule.
INT_TESTS_ALLOWED = {("scalars.py", "_coerce")}


def _int_tests(tree) -> list[tuple[str | None, int]]:
    """(enclosing function, line) of each isinstance call whose class names int."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "isinstance" and len(child.args) == 2
                    and "int" in _names(child.args[1])):
                found.append((func, child.lineno))
            visit(child, func)
    visit(tree, None)
    return found


def test_only_errors_tests_for_an_int():
    found = [f"{path.name}:{line} ({func})"
             for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
             for func, line in _int_tests(ast.parse(path.read_text(encoding="utf-8")))
             if (path.name, func) not in INT_TESTS_ALLOWED]
    assert found == []
    # the allowance still names a test that exists
    coerce = _int_tests(ast.parse((SRC / "scalars.py").read_text(encoding="utf-8")))
    assert [func for func, _ in coerce] == ["_coerce"]


def test_the_parsers_leave_every_int_to_the_constructors():
    for module, name in (("model.py", "parse_biquiver_obj"),
                         ("representation.py", "parse_representation_obj")):
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        func = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == name)
        used = set().union(*(_names(stmt) for stmt in func.body))
        assert not used & {"int", "bool", "is_int", "check_int"}, (name, used)


def _loop_rep():
    g = bq.Biquiver(1, (bq.Arrow("a", 1, 1, bq.ArrowKind.FULL),))
    return bq.MatrixRepresentation(g, (1,), {"a": bq.CMatrix.identity(1)})


@pytest.mark.parametrize("call, message", [
    (lambda a: bq.hom_basis(5, a), "representation a needs a MatrixRepresentation, got 5"),
    (lambda a: bq.are_isomorphic(a, 5), "representation b needs a MatrixRepresentation, got 5"),
    (lambda a: bq.direct_sum(5, a), "summand 0 needs a MatrixRepresentation, got 5"),
    (lambda a: bq.direct_sum(a, 5), "summand 1 needs a MatrixRepresentation, got 5"),
    (lambda a: bq.decompose(5), "representation a needs a MatrixRepresentation, got 5"),
    (lambda a: bq.krull_schmidt_compare([5], [a]),
     "summand 0 of x needs a MatrixRepresentation, got 5"),
    (lambda a: bq.krull_schmidt_compare(5, [a]), "summand list x needs a Sequence, got 5"),
    (lambda a: bq.krull_schmidt_compare([a], [a, None]),
     "summand 1 of y needs a MatrixRepresentation, got None"),
    (lambda a: bq.MatrixRepresentation(5, (1,), {}), "representation needs a Biquiver, got 5"),
    (lambda a: bq.gram_matrix(5), "Tits form needs a Biquiver, got 5"),
    (lambda a: bq.representation_type(5), "classification needs a Biquiver, got 5"),
    (lambda a: bq.definiteness(5), "definiteness needs a TitsGram, got 5"),
    (lambda a: bq.radical_vector(a.biquiver), "definiteness needs a TitsGram, got Biquiver("),
    (lambda a: bq.CMatrix(1, 1, ["x"]), "matrix entry needs a GaussianRational, got 'x'"),
    (lambda a: bq.CMatrix(1, 2, [1, 0.5]), "matrix entry needs a GaussianRational, got 0.5"),
    (lambda a: bq.CMatrix.column(["x" * 100]),
     "matrix entry needs a GaussianRational, got '" + "x" * 59 + "... (102 characters)"),
    (lambda a: bq.roots_with_value(5, 1), "root search needs a Biquiver, got 5"),
    (lambda a: bq.evaluate(5, (1,)), "Tits form needs a Biquiver, got 5"),
    (lambda a: bq.dash_elimination_plan(5), "dash elimination needs a Biquiver, got 5"),
    (lambda a: bq.connected_components(5), "connected components needs a Biquiver, got 5"),
    (lambda a: bq.is_connected(5), "connectivity needs a Biquiver, got 5"),
    (lambda a: bq.diagram_shape(5), "diagram shape needs a Biquiver, got 5"),
    (lambda a: bq.induced_subbiquiver(5, [1]), "subbiquiver needs a Biquiver, got 5"),
    (lambda a: bq.apply_conjugations(5, [1]), "conjugation needs a Biquiver, got 5"),
    (lambda a: bq.conjugate_biquiver(5, 1), "conjugation needs a Biquiver, got 5"),
    (lambda a: bq.biquiver_to_obj(5), "biquiver document needs a Biquiver, got 5"),
    (lambda a: bq.zero_representation(5), "representation needs a Biquiver, got 5"),
    (lambda a: bq.random_representation(5, (1,), 1, 0),
     "representation needs a Biquiver, got 5"),
    (lambda a: bq.direct_sum_list(5, []), "direct sum needs a Biquiver, got 5"),
    (lambda a: bq.apply_base_change(5, []),
     "base change needs a MatrixRepresentation, got 5"),
    (lambda a: bq.representation_to_obj(5),
     "representation document needs a MatrixRepresentation, got 5"),
    (lambda a: bq.gadget_cycle(5, ["a"], bq.CMatrix.identity(1)),
     "cycle gadget needs a Biquiver, got 5"),
    (lambda a: bq.CMatrix(1, 1, 5), "matrix entries needs a Sequence, got 5"),
    (lambda a: bq.MatrixRepresentation(a.biquiver, (1,), None),
     "representation matrices needs a Mapping, got None"),
    (lambda a: bq.apply_conjugations_representation(5, [1]), "conjugation needs a "
     "MatrixRepresentation, got 5"),
    (lambda a: bq.conjugate_representation(None, 1), "conjugation needs a "
     "MatrixRepresentation, got None"),
    (lambda a: bq.transport_isomorphism([[1]], 1),
     "transition matrix at vertex 1 needs a CMatrix, got [1]"),
    (lambda a: bq.block_diag(a.matrices["a"], 5), "block needs a CMatrix, got 5"),
    (lambda a: bq.hstack("x"), "block needs a CMatrix, got 'x'"),
    (lambda a: bq.vstack(None), "block needs a CMatrix, got None"),
    (lambda a: bq.from_blocks(5), "block grid needs a Sequence, got 5"),
    (lambda a: bq.from_blocks([5]), "block strip needs a Sequence, got 5"),
    (lambda a: bq.direct_sum_list(a.biquiver, None), "summand list needs a Sequence, got None"),
    (lambda a: bq.gadget_cycle(a.biquiver, 5, a.matrices["a"]),
     "cycle arrow ids needs a Sequence, got 5"),
    (lambda a: bq.matrix_to_obj([[1]]), "matrix document needs a CMatrix, got [[1]]"),
    (lambda a: bq.parse_representation(bq.serialize_representation(a), 5),
     "representation document needs a Biquiver, got 5"),
    (lambda a: bq.parse_representation_obj(bq.representation_to_obj(a), "x"),
     "representation document needs a Biquiver, got 'x'"),
], ids=["hom_basis", "are_isomorphic", "direct_sum-a", "direct_sum-b", "decompose",
        "krull_schmidt_compare-entry", "krull_schmidt_compare-list",
        "krull_schmidt_compare-y", "MatrixRepresentation", "gram_matrix",
        "representation_type", "definiteness", "radical_vector", "CMatrix",
        "CMatrix-float-entry", "CMatrix-long-entry", "roots_with_value", "evaluate", "dash_elimination_plan", "connected_components",
        "is_connected", "diagram_shape", "induced_subbiquiver", "apply_conjugations",
        "conjugate_biquiver", "biquiver_to_obj", "zero_representation",
        "random_representation", "direct_sum_list", "apply_base_change",
        "representation_to_obj", "gadget_cycle", "CMatrix-entries",
        "MatrixRepresentation-matrices", "apply_conjugations_representation",
        "conjugate_representation", "transport_isomorphism", "block_diag", "hstack",
        "vstack", "from_blocks-grid", "from_blocks-strip", "direct_sum_list-summands",
        "gadget_cycle-ids", "matrix_to_obj", "parse_representation",
        "parse_representation_obj"])
def test_a_foreign_object_is_refused_with_a_format_error(call, message):
    with pytest.raises(FormatError, match=f"^{re.escape(message)}"):
        call(_loop_rep())


# -- every public call ---------------------------------------------------------

# The parameters that take a CMatrix, a sequence, a mapping, a Biquiver, a
# TitsGram or a MatrixRepresentation, read off their annotations, and the two
# unannotated ones that take a sequence.
TAKES = re.compile(r"\b(CMatrix|Biquiver|TitsGram|MatrixRepresentation|DimensionVector|list"
                   r"|tuple|dict)\b")
UNANNOTATED_SEQUENCES = {"entries", "vertices"}
# Records that the package returns and no public function takes back: their
# fields are its outputs, so their constructors check nothing.
RECORDS = {"Decomposition", "IsoResult", "MorphismBasis"}


def _takes(param) -> bool:
    if isinstance(param.annotation, str):
        return bool(TAKES.search(param.annotation))
    return param.name in UNANNOTATED_SEQUENCES


def _valid_calls() -> dict:
    """Arguments that each public callable taking one of those accepts."""
    g = bq.Biquiver(2, (bq.Arrow("e1", 1, 2, bq.ArrowKind.FULL),
                        bq.Arrow("e2", 2, 1, bq.ArrowKind.DASHED)))
    m = bq.CMatrix.identity(1)
    rep = bq.MatrixRepresentation(g, (1, 1), {"e1": m, "e2": m})
    gram = bq.gram_matrix(g)
    linear = bq.MapKind.LINEAR
    return {
        "Biquiver": (2, g.arrows), "CMatrix": (1, 1, (1,)),
        "MatrixRepresentation": (g, (1, 1), {"e1": m, "e2": m}), "TitsGram": (2, gram.c),
        "apply_base_change": (rep, [m, m]), "apply_conjugations": (g, [1]),
        "apply_conjugations_representation": (rep, [1]), "apply_map": (linear, m, m),
        "are_consimilar": (m, m), "are_isomorphic": (rep, rep), "biquiver_to_obj": (g,),
        "block_diag": (m, m), "change_of_basis": (linear, m, m, m),
        "compose": (linear, m, linear, m), "conjugate_biquiver": (g, 1),
        "conjugate_representation": (rep, 1), "connected_components": (g,),
        "dash_elimination_plan": (g,), "decompose": (rep,), "definiteness": (gram,),
        "diagram_shape": (g,), "direct_sum": (rep, rep), "direct_sum_list": (g, [rep]),
        "evaluate": (g, (1, 1)), "from_blocks": ([[m, m]],),
        "gadget_cycle": (g, ["e1", "e2"], m), "gadget_g1": (m, m), "gadget_g2": (m, m),
        "gadget_g3": (m, m), "gadget_g4": (m, m), "gram_matrix": (g,),
        "hom_basis": (rep, rep), "hstack": (m, m), "induced_subbiquiver": (g, [1]),
        "is_connected": (g,), "krull_schmidt_compare": ([rep], [rep]),
        "matrix_to_obj": (m,),
        "parse_representation": (bq.serialize_representation(rep, False), g),
        "parse_representation_obj": (bq.representation_to_obj(rep, False), g),
        "positive_root_count": (bq.induced_subbiquiver(g, [1]),),
        "radical_vector": (gram,), "random_representation": (g, (1, 1), 1, 0),
        "representation_to_obj": (rep,), "representation_type": (g,),
        "roots_with_value": (g, 1, 1), "serialize_biquiver": (g,),
        "serialize_representation": (rep,), "transport_isomorphism": ([m, m], 1),
        "vstack": (m, m), "zero_representation": (g, (1, 1)),
    }


VALID = _valid_calls()
# (callable, argument position, parameter) for each place that takes one of
# those; the last parameter of block_diag, hstack and vstack takes the rest
PLACES = [(name, i, params[min(i, len(params) - 1)])
          for name, args in VALID.items()
          for params in [list(inspect.signature(getattr(bq, name)).parameters.values())]
          for i in range(len(args)) if _takes(params[min(i, len(params) - 1)])]
# none of these is a value of any of those types, nor a sequence that any
# place accepts: a str is never empty, and a nested list holds a str or None
FOREIGN = st.one_of(st.integers(), st.text(min_size=1), st.none(),
                    st.lists(st.lists(st.none() | st.text(), min_size=1, max_size=2),
                             min_size=1, max_size=2))


def test_the_property_covers_every_public_call_that_takes_one_of_those():
    taking = set()
    for name in bq.__all__:
        try:
            params = inspect.signature(getattr(bq, name)).parameters.values()
        except (TypeError, ValueError):  # the error classes and DimensionVector
            continue
        if any(map(_takes, params)):
            taking.add(name)
    assert taking - RECORDS == set(VALID)
    for name, args in VALID.items():
        getattr(bq, name)(*args)


@pytest.mark.parametrize("name, index, param", PLACES,
                         ids=[f"{name}-{param.name}" for name, _, param in PLACES])
@settings(deadline=None, max_examples=8)
@given(value=FOREIGN)
def test_a_foreign_argument_anywhere_in_the_api_is_refused(name, index, param, value):
    # None is a value that an optional parameter takes
    assume(value is not None or "None" not in str(param.annotation))
    args = list(VALID[name])
    args[index] = value
    with pytest.raises((FormatError, PreconditionError)):
        getattr(bq, name)(*args)
