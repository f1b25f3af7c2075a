"""What `import biquiver` and each entry point load, and the package namespace.

The graph layer (classify, tits, roots, dash elimination) loads none of
the representation modules; their names in the package namespace resolve
on first use, always to the object in their home module.
"""
import ast
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import biquiver

SRC = str(Path(biquiver.__file__).resolve().parent.parent)
LEDGER = Path(__file__).resolve().parent / "ledger"

# Every name that `biquiver/__init__.py` bound before its representation
# names became lazy.
PUBLIC = [
    "Arrow", "ArrowKind", "Biquiver", "CMatrix", "DashEliminationObstruction",
    "DashEliminationPlan", "Decomposition", "Definiteness", "DimensionVector", "FormatError",
    "GaussianRational", "IndecomposabilityStatus", "IsoResult", "MapKind",
    "MatrixRepresentation", "MorphismBasis", "PreconditionError", "RepKind", "RepType",
    "SingularMatrixError", "TitsGram", "Verdict", "apply_base_change", "apply_conjugations",
    "apply_conjugations_representation", "apply_map", "are_consimilar", "are_isomorphic",
    "biquiver_to_obj", "block_diag", "change_of_basis", "compose", "conjugate_biquiver",
    "conjugate_representation", "connected_components", "dash_elimination_plan", "decompose",
    "definiteness", "diagram_shape", "direct_sum", "direct_sum_list", "evaluate",
    "from_blocks", "gadget_biquiver", "gadget_cycle", "gadget_g1", "gadget_g2", "gadget_g3",
    "gadget_g4", "gaussian", "gram_matrix", "hom_basis", "hstack", "induced_subbiquiver",
    "is_connected", "krull_schmidt_compare", "matrix_to_obj", "parse_biquiver",
    "parse_biquiver_obj", "parse_matrix_obj", "parse_representation",
    "parse_representation_obj", "positive_root_count", "radical_vector",
    "random_representation", "representation_to_obj", "representation_type",
    "roots_with_value", "serialize_biquiver", "serialize_representation",
    "transport_isomorphism", "vstack", "zero_representation",
]
GRAPH_MODULES = ("classify", "conjugation", "errors", "model", "roots", "tits")
REPRESENTATION_MODULES = ("linalg", "scalars", "representation", "morphisms", "polynomials",
                          "gadgets", "semilinear")


def fresh(code: str, stdin: bytes = b"") -> bytes:
    """stdout of `code` run by a fresh interpreter that imports biquiver from this tree."""
    proc = subprocess.run([sys.executable, "-c", code], input=stdin, capture_output=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    return proc.stdout


LOADED = """
import json, sys
print(json.dumps(sorted(m[len("biquiver."):] for m in sys.modules
                        if m.startswith("biquiver."))))
"""


def test_model_imports_no_package_module_but_errors():
    # every module keeps its memos with model._kept, so model, at the bottom of
    # the graph layer, needs none of the modules above it, not even inside a
    # function
    tree = ast.parse(Path(biquiver.model.__file__).read_text(encoding="utf-8"))
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            package.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            package.update(name.removeprefix("biquiver.") for name in names
                           if name.split(".")[0] == "biquiver")
    assert package == {"errors"}, package


def test_the_lazy_table_is_the_one_place_that_defers_an_import():
    # a module imported inside a function or under TYPE_CHECKING is a second
    # rule of what loads when; the one exception is the sparse Hom kernel,
    # which elimination imports with the first Hom system
    deferred = []
    for path in sorted(Path(biquiver.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = set(map(id, tree.body))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top:
                names = [node.module] if isinstance(node, ast.ImportFrom) and node.module \
                    else [a.name for a in node.names]
                deferred += [f"{path.stem} -> {name}" for name in names]
    assert deferred == ["elimination -> sparse"], deferred


def test_the_representation_side_of_conjugation_resolves_through_the_lazy_table():
    moved = ("apply_conjugations_representation", "conjugate_representation",
             "transport_isomorphism")
    code = f"""
import json, sys
import biquiver
from biquiver import conjugation
names = {moved!r}
before = [name in vars(biquiver) or hasattr(conjugation, name) for name in names]
unloaded = "biquiver.representation" not in sys.modules
objects = [getattr(biquiver, name) for name in names]
from biquiver import representation
homes = [obj is getattr(representation, name) for obj, name in zip(objects, names)]
print(json.dumps([before, unloaded, homes, [name in vars(biquiver) for name in names]]))
"""
    before, unloaded, homes, after = json.loads(fresh(code))
    assert before == [False] * 3 and unloaded
    assert homes == [True] * 3 and after == [False] * 3


def test_the_graph_api_loads_no_representation_module():
    code = """
import biquiver as bq
F, D = bq.ArrowKind.FULL, bq.ArrowKind.DASHED
tame = bq.Biquiver(2, (bq.Arrow("a", 1, 2, F), bq.Arrow("b", 2, 1, D)))
wild = bq.Biquiver(2, tuple(bq.Arrow(f"a{k}", 1, 2, D if k else F) for k in range(3)))
for g in (tame, wild):
    bq.representation_type(g)
    form = bq.gram_matrix(g)
    bq.definiteness(form)
    bq.radical_vector(form)
    bq.roots_with_value(g, 0, 3)
    bq.roots_with_value(g, 1, 3)
    bq.dash_elimination_plan(g)
""" + LOADED
    loaded = set(json.loads(fresh(code)))
    assert loaded.isdisjoint(REPRESENTATION_MODULES), loaded
    assert set(GRAPH_MODULES) <= loaded
    # radical_vector solves dense list rows, so the sparse Hom kernel stays unloaded
    assert "elimination" in loaded and "sparse" not in loaded, loaded


def test_the_graph_commands_load_no_representation_module(tmp_path):
    mixed = tmp_path / "mixed.json"
    mixed.write_text(biquiver.serialize_biquiver(biquiver.Biquiver(3, tuple(
        biquiver.Arrow(f"a{k}", k, k % 3 + 1, biquiver.ArrowKind.DASHED if k < 3
                       else biquiver.ArrowKind.FULL) for k in (1, 2, 3)))))
    code = f"""
import contextlib, io
from biquiver.cli import main
for path, z in (({str(LEDGER / "d4t.biquiver.json")!r}, "1,1,1,1,2"), ({str(mixed)!r}, "1,2,1")):
    for argv in (["classify", path], ["tits", path, "--evaluate", z],
                 ["roots", path, "--value", "1", "--bound", "2"], ["eliminate", path],
                 ["conjugate", path, "--vertex", "1,2"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
""" + LOADED
    loaded = set(json.loads(fresh(code)))
    # `tits` prints the Gram matrix with scalars.format_rational
    assert loaded.isdisjoint(set(REPRESENTATION_MODULES) - {"scalars"}), loaded
    assert "elimination" in loaded and "sparse" not in loaded, loaded


def test_a_rep_command_loads_what_it_uses():
    code = f"""
import contextlib, io
from biquiver.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["rep", "validate", {str(LEDGER / "e6.s1.json")!r}]) == 0
""" + LOADED
    loaded = set(json.loads(fresh(code)))
    assert {"linalg", "scalars", "representation"} <= loaded
    assert loaded.isdisjoint({"morphisms", "polynomials", "gadgets", "semilinear"}), loaded


def test_every_public_name_is_listed_and_bound_by_a_star_import():
    assert sorted(biquiver.__all__) == sorted(PUBLIC)
    assert set(PUBLIC) <= set(dir(biquiver))
    namespace = {}
    exec("from biquiver import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(biquiver, name)


def test_each_lazy_name_is_its_home_object_and_never_cached():
    homes = {}
    for module in REPRESENTATION_MODULES:
        home = __import__(f"biquiver.{module}", fromlist=["_"])
        homes.update({name: home for name, value in vars(home).items()
                      if getattr(value, "__module__", None) == home.__name__})
    lazy = [name for name in PUBLIC if name not in vars(biquiver)]
    assert lazy and set(lazy) <= set(homes)
    for name in lazy:
        assert getattr(biquiver, name) is getattr(homes[name], name)
        assert name not in vars(biquiver)
    assert not hasattr(biquiver, "no_such_name")


def test_a_lazy_name_reads_as_patched_in_its_home_module_after_the_first_access(monkeypatch):
    # the home module is then found in sys.modules, and the name is still
    # read from it on every access, never from a copy
    from biquiver import morphisms
    original = biquiver.hom_basis
    assert original is morphisms.hom_basis and "biquiver.morphisms" in sys.modules

    def patched(a, b):
        return original(a, b)

    monkeypatch.setattr(morphisms, "hom_basis", patched)
    assert biquiver.hom_basis is patched
    monkeypatch.undo()
    assert biquiver.hom_basis is original
    assert "hom_basis" not in vars(biquiver)


def test_linalg_keeps_the_kernel_solvers_of_elimination():
    from biquiver import elimination, linalg
    assert linalg.fraction_nullspace is elimination.fraction_nullspace
    assert linalg.fraction_solve is elimination.fraction_solve


def test_pickles_load_in_an_interpreter_that_imported_only_biquiver():
    g = biquiver.Biquiver(2, (biquiver.Arrow("a", 1, 2, biquiver.ArrowKind.DASHED),))
    m = biquiver.CMatrix.from_rows([[1], [biquiver.gaussian(2, -3)]])
    rep = biquiver.MatrixRepresentation(g, (1, 2), {"a": m})
    objects = [g, m, rep, biquiver.gram_matrix(g)]
    code = """
import pickle, sys
import biquiver
sys.stdout.buffer.write(pickle.dumps(pickle.loads(sys.stdin.buffer.read())))
"""
    assert pickle.loads(fresh(code, pickle.dumps(objects))) == objects
