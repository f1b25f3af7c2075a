"""Each input rule is written once, so that no two copies can drift apart.

`errors.is_int` and `errors.check_int` hold the int rule, an int that is not
a bool; the Biquiver and MatrixRepresentation constructors hold the biquiver
and dimension-vector rules, and the JSON parsers only decode. Both checks
read the package's source.
"""
import ast
from pathlib import Path

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
