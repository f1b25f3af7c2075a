"""Each input rule is written once, so that no two copies can drift apart.

`errors.is_int` and `errors.check_int` hold the int rule, an int that is not
a bool; `errors.check_instance` holds the type rule for the package's own
classes; the Biquiver and MatrixRepresentation constructors hold the
biquiver and dimension-vector rules, and the JSON parsers only decode. The
int checks read the package's source; the type checks call each public
function that takes one of the package's classes with a foreign object.
"""
import ast
import re
from pathlib import Path

import pytest

import biquiver as bq
from biquiver import FormatError

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
], ids=["hom_basis", "are_isomorphic", "direct_sum-a", "direct_sum-b", "decompose",
        "krull_schmidt_compare-entry", "krull_schmidt_compare-list",
        "krull_schmidt_compare-y", "MatrixRepresentation", "gram_matrix",
        "representation_type", "definiteness", "radical_vector", "CMatrix",
        "roots_with_value", "evaluate", "dash_elimination_plan", "connected_components",
        "is_connected", "diagram_shape", "induced_subbiquiver", "apply_conjugations",
        "conjugate_biquiver", "biquiver_to_obj", "zero_representation",
        "random_representation", "direct_sum_list", "apply_base_change",
        "representation_to_obj", "gadget_cycle"])
def test_a_foreign_object_is_refused_with_a_format_error(call, message):
    with pytest.raises(FormatError, match=f"^{re.escape(message)}"):
        call(_loop_rep())
