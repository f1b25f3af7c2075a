"""Each Biquiver is analysed once: its spanning forest and its Tits form
are memos kept in the instance, and connectivity is read off the forest on
every call. Each form is analysed once: it is shared by every live
Biquiver on the same numbered graph, whatever the kinds and directions of
its arrows, and keeps its checked LDL and, when semidefinite, its radical
vector delta and, when definite, its positive roots (`roots`); the Dynkin
sub-form that a semidefinite form's real roots are read from is closed on
every call and kept nowhere. Each Biquiver also keeps its Dynkin label
(`classify`), which builds no form, and its dash-elimination plan, or the
obstruction to one (`conjugation`), both read off its own forest. Every
one of these memos is kept by `model._kept`, the package's one memo rule,
and no module uses `functools.cached_property`.

The counting tests wrap `model._spanning_forest`, `tits._symmetric_ldl`,
`tits._null_root`, `classify.diagram_shape` and `roots._close_simple_roots`,
the names the memos call, so they see every traversal, elimination,
back-substitution, label and closure. A test that counts the work on a
shared form builds one that no other test builds, so it counts the same
alone and after other tests have left forms alive. The refusal tests check
that each check still runs on every call, not only on the first, and the
properties check that a warm memo changes no answer and nothing of the
Biquiver's value, and that every memo a form keeps is what a fresh form
computes.
"""
import ast
import copy
import gc
import pickle
import random
import sys
import threading
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from biquiver import (Arrow, ArrowKind, Biquiver, DashEliminationObstruction,
                      DashEliminationPlan, Definiteness, FormatError,
                      PreconditionError, RepKind, RepType, TitsGram, connected_components,
                      dash_elimination_plan, definiteness, gram_matrix, is_connected,
                      radical_vector, representation_type, roots_with_value)
from biquiver import classify, conjugation, model, roots, tits
from biquiver.model import connected_forest
from biquiver.tits import MAX_GRAM_VERTICES
from conftest import biq, cycle_biquiver, path_biquiver


def tits_op(g):
    """What one tits-corpus op asks of g: the type, the Tits form's verdict,
    its roots and radical, and the dash-elimination plan."""
    rt = representation_type(g)
    gram = gram_matrix(g)
    verdict = definiteness(gram)
    radical = roots = None
    if verdict is Definiteness.POSITIVE_DEFINITE:
        roots = roots_with_value(g, 1)
    elif verdict is Definiteness.POSITIVE_SEMIDEFINITE:
        radical = radical_vector(gram)
        roots = roots_with_value(g, 0, 6)
    return rt, verdict, radical, roots, dash_elimination_plan(g)


def memo_op(g):
    """`tits_op(g)`, then, on a semidefinite form, the value-1 roots up to 2,
    which close its Dynkin sub-form: so every memo of g and its form is
    read, and every root search runs."""
    op = tits_op(g)
    if op[1] is Definiteness.POSITIVE_SEMIDEFINITE:
        return op + (roots_with_value(g, 1, 2),)
    return op


def counting(monkeypatch, *names):
    """Counts of the calls, from here on, of each (module, name) given."""
    seen = Counter()
    for module, name in names:
        def counted(*args, real=getattr(module, name), name=name):
            seen[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)
    return seen


@pytest.fixture
def calls(monkeypatch):
    """Counts of the traversals and eliminations run from here on."""
    return counting(monkeypatch, (model, "_spanning_forest"), (tits, "_symmetric_ldl"))


@pytest.fixture
def memo_calls(monkeypatch):
    """Counts of the traversals, back-substitutions and labels run from here on."""
    return counting(monkeypatch, (model, "_spanning_forest"), (tits, "_null_root"),
                    (classify, "diagram_shape"))


@pytest.fixture
def closures(monkeypatch):
    """The vertex counts of the forms whose positive roots are closed from here on."""
    seen = []
    real = roots._close_simple_roots

    def counted(gram):
        seen.append(gram.t)
        return real(gram)
    monkeypatch.setattr(roots, "_close_simple_roots", counted)
    return seen


def reassigned(g, rng):
    """g's numbered graph under random kinds and directions."""
    return Biquiver(g.t, tuple(
        Arrow(a.id, *((a.target, a.source) if rng.random() < 0.5 else (a.source, a.target)),
              rng.choice((ArrowKind.FULL, ArrowKind.DASHED)))
        for a in g.arrows))


# A6 and ~A4, numbered so that nothing else builds their forms: other tests
# build every numbering of A4 and of ~A3, some as parameters that pytest
# holds for the whole session
@pytest.mark.parametrize("g,kind,verdict", [
    (biq(6, "a:3>6", "b:6~1", "c:1>5", "d:5>2", "e:2>4"), RepKind.FINITE,
     Definiteness.POSITIVE_DEFINITE),
    (biq(5, "a:1~3", "b:3>2", "c:2>4", "d:4>5", "e:5>1"), RepKind.TAME_INFINITE,
     Definiteness.POSITIVE_SEMIDEFINITE),
    (biq(2, "a:1>2", "b:1>2", "c:2~1"), RepKind.WILD, Definiteness.INDEFINITE),
], ids=["definite", "semidefinite", "wild"])
def test_one_op_traverses_and_eliminates_once(g, kind, verdict, calls):
    first = tits_op(g)
    assert (first[0].kind, first[1]) == (kind, verdict)
    assert calls == {"_spanning_forest": 1, "_symmetric_ldl": 1}
    # a second pass over the same object finds every memo filled
    assert tits_op(g) == first
    assert connected_components(g) == [list(g.vertices())] and is_connected(g)
    assert calls == {"_spanning_forest": 1, "_symmetric_ldl": 1}
    assert gram_matrix(g) is gram_matrix(g)


def test_biquivers_on_one_graph_share_one_form(calls, closures):
    # E7, numbered so that nothing else builds its form; the second biquiver
    # reverses or redraws every arrow, so only the forests are its own
    first = biq(7, "a:7>2", "b:2~5", "c:5>3", "d:3>6", "e:6~1", "f:5>4")
    second = biq(7, "a:2~7", "b:5>2", "c:3~5", "d:6~3", "e:1>6", "f:4~5")
    assert gram_matrix(first) is gram_matrix(second)
    ops = [tits_op(first), tits_op(second), tits_op(first), tits_op(second)]
    assert [len(op[3]) for op in ops] == [63] * 4
    assert all(op[:4] == ops[0][:4] for op in ops)
    assert calls == {"_spanning_forest": 2, "_symmetric_ldl": 1}
    assert closures == [7]


def test_delta_is_solved_once_per_form(memo_calls, closures):
    # ~D5, numbered so that nothing else builds its form; the second
    # biquiver reverses or redraws every arrow
    first = biq(6, "a:4>2", "b:2~6", "c:1>4", "d:4~5", "e:3>2")
    second = biq(6, "a:2~4", "b:6>2", "c:4~1", "d:5>4", "e:2~3")
    delta = (1, 2, 1, 2, 1, 1)
    for g in (first, second, first, second):
        assert radical_vector(gram_matrix(g)) == delta
        assert roots_with_value(g, 0, 4) == [delta, tuple(2 * x for x in delta)]
        assert len(roots_with_value(g, 1, 2)) == 44
    assert memo_calls["_null_root"] == 1
    # the D5 left by deleting a vertex with delta_e = 1, closed on every call
    assert closures == [5] * 4


def test_the_dynkin_sub_form_is_closed_on_every_call(closures):
    # ~E8, numbered so that nothing else builds its form
    g = biq(9, "a:5>8", "b:3~5", "c:3>9", "d:1>5", "e:1~7", "f:2>7", "g:2>6", "h:4~6")
    other = biq(9, "a:8~5", "b:5>3", "c:9~3", "d:5~1", "e:7>1", "f:7~2", "g:6~2", "h:6>4")
    want = roots_with_value(g, 1, 2)
    assert len(want) == 100
    for _ in range(19):
        assert roots_with_value(g, 1, 2) == want
    assert roots_with_value(other, 1, 2) == want
    # the sub-form is E8, closed from the form without a vertex of delta 1
    assert closures == [8] * 21
    assert representation_type(g).diagram == "~E8"
    assert set(vars(gram_matrix(g))) == {"t", "c", "ldl", "_delta"}
    assert "label" in vars(g)


def test_a_lowered_root_cap_refuses_the_dynkin_roots_on_every_call(monkeypatch, closures):
    # ~E6, numbered so that nothing else builds its form: its Dynkin sub-form
    # is E6, with 36 positive roots, though none fits the bound 0
    g = biq(7, "a:2>5", "b:5~7", "c:2~4", "d:4>1", "e:2>6", "f:6~3")
    monkeypatch.setattr(roots, "MAX_ROOTS", 35)
    with pytest.raises(PreconditionError, match="more than the cap of 35 roots"):
        roots_with_value(g, 1, 0)
    assert closures == [6]
    monkeypatch.setattr(roots, "MAX_ROOTS", 36)
    assert roots_with_value(g, 1, 0) == []
    assert closures == [6, 6]
    monkeypatch.setattr(roots, "MAX_ROOTS", 35)
    for k in (3, 4):
        with pytest.raises(PreconditionError, match="more than the cap of 35 roots"):
            roots_with_value(g, 1, 0)
        assert closures == [6] * k


def test_no_dynkin_sub_form_or_closure_outlives_a_value_1_call():
    # ~D48 on 49 vertices, numbered so that nothing else builds its form:
    # two-leaf forks at both ends of the path 1 .. 45. Its Dynkin sub-form
    # D48 has 2,256 positive roots, about 1 MB of tuples
    specs = [f"p{i}:{i + 1}>{i}" for i in range(1, 45)]
    g = biq(49, *specs, "l1:46~1", "l2:1>47", "l3:45~48", "l4:49>45")
    assert representation_type(g).diagram == "~D48"
    assert roots_with_value(g, 0, 2) == [radical_vector(gram_matrix(g))]  # fills every memo
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        found = roots_with_value(g, 1, 1)
        # a 0/1 vector z on a tree has q(z) = the number of components of its
        # support: the roots are the subtrees, 4 leaves alone and, for each
        # path segment, 4 choices of leaves at each end that reaches a fork
        assert len(found) == 4 + 43 * 44 // 2 + 2 * 44 * 4 + 16
        del found
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 100_000, held
    assert set(vars(gram_matrix(g))) == {"t", "c", "ldl", "_delta"}
    assert "label" in vars(g)


def test_the_label_is_read_once_per_biquiver(memo_calls):
    # ~E6, numbered so that nothing else builds its form
    first = biq(7, "a:6>3", "b:3~1", "c:6~7", "d:7>4", "e:6>2", "f:2~5")
    second = biq(7, "a:3~6", "b:1>3", "c:7>6", "d:4~7", "e:2~6", "f:5>2")
    for g in (first, second, first, second):
        assert representation_type(g).diagram == "~E6"
        assert representation_type(g).kind is RepKind.TAME_INFINITE
    assert memo_calls["diagram_shape"] == 2
    assert [vars(g)["label"] for g in (first, second)] == ["~E6", "~E6"]


def test_classifying_builds_no_form():
    g = biq(7, "a:4>7", "b:7~2", "c:2>6", "d:6~1", "e:1>3", "f:2>5")
    assert representation_type(g) == RepType(RepKind.FINITE, "E7")
    assert "_gram" not in vars(g) and vars(g)["label"] == "E7"


def test_connectivity_is_read_off_the_forest_on_every_call(memo_calls):
    # A4 with a trailing loop, numbered so that nothing else builds its form
    g = biq(4, "a:3>1", "b:1~4", "c:4>2", "d:2>2")
    first = memo_op(g)
    assert memo_op(g) == first and is_connected(g)
    assert memo_calls["_spanning_forest"] == 1
    assert memo_op(Biquiver(g.t, g.arrows)) == first
    assert memo_calls["_spanning_forest"] == 2
    # the fresh biquiver computes its own label
    assert memo_calls["diagram_shape"] == 2
    # a refusal is not kept: each call reads the forest's tree arrows again,
    # here three of the four a connected graph on 5 vertices has, as the
    # loop at 5 passes the arrow count
    apart = Biquiver(5, g.arrows + (Arrow("e", 5, 5, ArrowKind.FULL),))
    assert len(apart.arrows) == apart.t and len(model._forest(apart)[3]) == 3
    for _ in range(3):
        for ask in (connected_forest, representation_type):
            with pytest.raises(PreconditionError, match="^biquiver is not connected$"):
                ask(apart)
        assert not is_connected(apart)
    assert memo_calls["_spanning_forest"] == 3
    # each refused call reads the label again, and keeps none
    assert memo_calls["diagram_shape"] == 5
    assert "label" not in vars(apart)


def test_a_path_past_the_vertex_cap_is_classified_without_a_form(memo_calls):
    g = path_biquiver(300)
    for _ in range(2):
        assert representation_type(g) == RepType(RepKind.FINITE, "A300")
        assert memo_calls["diagram_shape"] == 1
    assert "_gram" not in vars(g)
    assert memo_calls["_spanning_forest"] == 1


def test_no_form_is_built_past_the_vertex_cap(calls):
    g = path_biquiver(MAX_GRAM_VERTICES + 1)
    for _ in range(2):
        with pytest.raises(PreconditionError, match="257 vertices, past the cap of 256"):
            gram_matrix(g)
    assert "_gram" not in vars(g)
    assert not any(len(c) > MAX_GRAM_VERTICES for c in tits._FORMS.keys())
    assert calls["_symmetric_ldl"] == 0


def imported_names(module) -> set[str]:
    """The modules a module's source imports, and the names it imports from them."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rsplit(".", 1)[-1])
            imported.update(alias.name for alias in node.names)
    assert imported, "no import found"
    return imported


def test_tits_imports_neither_roots_nor_classify():
    # the modules that keep memos in a form import tits, not the other way
    assert not imported_names(tits) & {"roots", "classify"}


def test_classify_imports_nothing_from_tits():
    # the label is read off the graph, so classify needs no Tits form
    assert "tits" not in imported_names(classify)


def test_no_module_memoizes_with_cached_property():
    # `model._kept` is the one memo rule: no module of the package may keep
    # a memo any other way, so none may name functools.cached_property
    found = []
    for path in sorted(Path(model.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            else:
                continue
            if name.rsplit(".", 1)[-1] == "cached_property":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_a_pickled_form_carries_its_fields_alone():
    # A2 keeps its positive roots; ~A3, numbered so that nothing else builds
    # its form, its delta
    for g in (path_biquiver(2), biq(4, "a:3>1", "b:1~4", "c:4>2", "d:2~3")):
        want = memo_op(g)
        form = gram_matrix(g)
        assert set(vars(form)) > {"t", "c", "ldl"}
        for back in (pickle.loads(pickle.dumps(form)), copy.deepcopy(form)):
            assert vars(back) == {"t": form.t, "c": form.c}
            assert back == form and back is not form
            assert definiteness(back) is want[1]
            assert radical_vector(back) == want[2]
        # the label is kept in the biquiver, and a copy of it reads its own
        assert "label" in vars(g)
        assert representation_type(pickle.loads(pickle.dumps(g))) == want[0]
        assert_memos_are_cold_answers(form)


def test_radical_vector_is_checked_against_delta(monkeypatch):
    gram = TitsGram(3, ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)))  # ~A2, delta = (1, 1, 1)
    assert radical_vector(gram) == (1, 1, 1)
    real = tits.fraction_nullspace

    def scaled(rows, width):
        return [(den, [2 * x for x in nums]) for den, nums in real(rows, width)]
    monkeypatch.setattr(tits, "fraction_nullspace", scaled)
    for fresh in (gram, TitsGram(gram.t, gram.c)):
        with pytest.raises(AssertionError, match=r"\(2, 2, 2\) is not the radical vector"):
            radical_vector(fresh)


def assert_memos_are_cold_answers(form):
    """Every memo that `form` keeps equals what a fresh, uninterned TitsGram
    of the same C computes; a memo not named here fails, as a label would."""
    fresh = TitsGram(form.t, form.c)
    cold = {"ldl": lambda: fresh.ldl, "_delta": lambda: tits._delta(fresh),
            "positive_roots": lambda: tuple(roots._close_simple_roots(fresh))}
    for name, kept in vars(form).items():
        if name not in ("t", "c"):
            assert cold[name]() == kept, name


def test_a_returned_root_list_is_the_callers():
    g = path_biquiver(4, dashed=(2,))
    mine = roots_with_value(g, 1)
    want = list(mine)
    assert len(want) == 10
    mine.reverse()
    mine[0] = (9, 9, 9, 9)
    mine.append((1,))
    assert roots_with_value(g, 1) == want
    again = roots_with_value(reassigned(g, random.Random(1)), 1)
    assert again == want and again is not roots_with_value(g, 1)
    again.clear()
    assert roots_with_value(g, 1) == want


def test_a_lowered_root_cap_refuses_on_every_call_and_keeps_nothing(monkeypatch, closures):
    # E6, numbered so that nothing else builds its form: 36 positive roots
    g = biq(6, "a:4>6", "b:6~1", "c:1>3", "d:3~5", "e:1>2")
    other = biq(6, "a:6~4", "b:1>6", "c:3>1", "d:5>3", "e:2~1")
    gram = gram_matrix(g)
    monkeypatch.setattr(roots, "MAX_ROOTS", 35)
    for h in (g, other, g):
        with pytest.raises(PreconditionError, match="more than the cap of 35 roots"):
            roots_with_value(h, 1)
    assert closures == [6, 6, 6]
    assert "positive_roots" not in vars(gram)
    monkeypatch.setattr(roots, "MAX_ROOTS", 36)
    assert len(roots_with_value(g, 1)) == 36
    assert closures == [6, 6, 6, 6]
    # kept roots meet a cap lowered after they were kept as the closure would
    monkeypatch.setattr(roots, "MAX_ROOTS", 35)
    for h in (g, other):
        with pytest.raises(PreconditionError, match="more than the cap of 35 roots"):
            roots_with_value(h, 1)
    assert closures == [6, 6, 6, 6]


def test_a_form_is_freed_with_its_last_biquiver():
    # D6, numbered so that nothing else builds its form: 30 positive roots
    first = biq(6, "a:5>1", "b:1~6", "c:6>3", "d:3>2", "e:3~4")
    second = biq(6, "a:1~5", "b:6>1", "c:3~6", "d:2>3", "e:4>3")
    assert [len(tits_op(first)[3]), len(tits_op(second)[3])] == [30, 30]  # fills every memo
    form = weakref.ref(gram_matrix(first))
    assert form() is gram_matrix(second)
    del first
    gc.collect()
    assert form() is not None
    del second
    gc.collect()
    assert form() is None


def test_the_shared_forest_is_read_only():
    root, parent, parity, tree, adj = connected_forest(path_biquiver(3))
    assert all(type(x) is tuple for x in (root, parent, parity, adj, *adj))
    with pytest.raises(TypeError):
        tree["a1"] = 1


def test_disconnected_input_is_refused_on_every_call(calls):
    g = Biquiver(3, path_biquiver(2).arrows)
    for _ in range(2):
        for ask in (connected_forest, representation_type, dash_elimination_plan,
                    lambda g: roots_with_value(g, 1)):
            with pytest.raises(PreconditionError, match="^biquiver is not connected$"):
                ask(g)
        assert not is_connected(g)
        assert connected_components(g) == [[1, 2], [3]]
    assert calls["_spanning_forest"] == 1


def test_the_vertex_cap_is_refused_on_every_call(calls):
    g = path_biquiver(MAX_GRAM_VERTICES + 1)
    for _ in range(2):
        for ask in (gram_matrix, lambda g: roots_with_value(g, 1)):
            with pytest.raises(PreconditionError, match="past the cap of 256"):
                ask(g)
    assert calls["_symmetric_ldl"] == 0


@pytest.mark.parametrize("gram,message", [
    (TitsGram(2, ((2, -1),)), "^Gram matrix must be 2 x 2$"),
    (TitsGram(2, ((2, -0.5), (-0.5, 2))), "^Gram matrix entries must be ints$"),
    (TitsGram(2, ((2, -1), (0, 2))), "^Gram matrix must be symmetric$"),
], ids=["non-square", "non-int", "non-symmetric"])
def test_a_malformed_gram_is_refused_on_every_call(gram, message, calls):
    for _ in range(2):
        for ask in (definiteness, radical_vector):
            with pytest.raises(FormatError, match=message):
                ask(gram)
    assert calls["_symmetric_ldl"] == 0


def test_threads_filling_one_memo_agree():
    # `model._kept` takes no lock, so threads racing on fresh objects may each
    # compute a memo; the first result stored is kept, and every thread must
    # still read the answers a cold object gives
    shapes = [path_biquiver(5, dashed=(2,)), cycle_biquiver(5, dashed=(1, 3)),
              biq(3, "a:1>2", "b:2>3", "c:3>1", "d:1~3")]
    want = [memo_op(Biquiver(g.t, g.arrows)) for g in shapes]
    fresh = [[Biquiver(g.t, g.arrows) for g in shapes] for _ in range(40)]
    got = []

    def work():
        got.append([[memo_op(g) for g in gs] for gs in fresh])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert got == [[want] * len(fresh)] * len(threads)


def test_threads_sharing_one_form_agree_with_cold_answers():
    # each shape under 12 assignments of kinds and directions: every thread
    # reads its own fresh biquivers, and all of them share one form per
    # shape, which the threads race to analyse. The shapes are A5, ~A4 and
    # a wild graph, each numbered so that nothing else builds its form.
    rng = random.Random(7)
    shapes = [biq(5, "a:3>1", "b:1>5", "c:5>2", "d:2>4"),
              biq(5, "a:4>2", "b:2>5", "c:5>1", "d:1>3", "e:3>4"),
              biq(4, "a:4>2", "b:2>3", "c:3>4", "d:4>1", "e:1>3")]
    variants = [reassigned(g, rng) for g in shapes for _ in range(12)]
    # each cold answer is read with no other biquiver holding its form
    want = [memo_op(Biquiver(g.t, g.arrows)) for g in variants]
    fresh = [[Biquiver(g.t, g.arrows) for g in variants] for _ in range(4)]
    got = [None] * len(fresh)

    def work(k):
        got[k] = [memo_op(g) for g in fresh[k]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(fresh))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert got == [want] * len(fresh)
    forms = {id(gram_matrix(g)) for gs in fresh for g in gs}
    assert len(forms) == len(shapes)
    for g in fresh[0][::12]:
        assert_memos_are_cold_answers(gram_matrix(g))


@pytest.fixture
def plans(monkeypatch):
    """Counts of the dash-elimination plans computed from here on."""
    return counting(monkeypatch, (conjugation, "_dash_elimination_plan"))


def test_the_plan_is_computed_once_per_biquiver(plans):
    # a plan and an odd-cycle obstruction, on graphs that no other test builds
    plan = biq(6, "a:5~2", "b:2>6", "c:6~1", "d:1>4", "e:4>3", "f:3>5")
    odd = biq(6, "a:5~2", "b:2>6", "c:6~1", "d:1>4", "e:4~3", "f:3>5")
    first = dash_elimination_plan(plan)
    assert first == DashEliminationPlan(frozenset({2, 6}))
    assert dash_elimination_plan(odd) == DashEliminationObstruction(
        "odd dashed parity on cycle <3 4 1 6 2 5 3>")
    for _ in range(4):
        assert dash_elimination_plan(plan) is first
        assert dash_elimination_plan(odd) is vars(odd)["_plan"]
    assert plans == {"_dash_elimination_plan": 2}
    # the memo is per object: an equal biquiver computes its own
    assert dash_elimination_plan(Biquiver(plan.t, plan.arrows)) == first
    assert plans == {"_dash_elimination_plan": 3}


def test_a_disconnected_plan_is_refused_on_every_call_and_kept_nowhere(plans):
    g = Biquiver(4, biq(3, "a:1~2", "b:2>3").arrows)
    for k in (1, 2, 3):
        with pytest.raises(PreconditionError, match="^biquiver is not connected$"):
            dash_elimination_plan(g)
        assert "_plan" not in vars(g)
        assert plans == {"_dash_elimination_plan": k}


def test_a_dashed_loop_is_reported_before_connectivity(calls, plans):
    # the loop sits past an isolated vertex: no forest is built for the verdict
    g = biq(3, "a:1>2", "b:3~3")
    want = DashEliminationObstruction("dashed loop at vertex 3")
    for _ in range(3):
        assert dash_elimination_plan(g) == want
    assert vars(g)["_plan"] == want
    assert plans == {"_dash_elimination_plan": 1}
    assert calls["_spanning_forest"] == 0
    with pytest.raises(PreconditionError, match="^biquiver is not connected$"):
        representation_type(g)


def test_a_pickled_biquiver_carries_its_fields_alone_and_plans_alike():
    for g in (path_biquiver(4, dashed=(1, 3)), cycle_biquiver(3, dashed=(2,)),
              biq(2, "a:1>2", "b:2~2")):
        want = dash_elimination_plan(g)
        assert "_plan" in vars(g)
        for back in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
            assert vars(back) == {"t": g.t, "arrows": g.arrows}
            assert back == g and dash_elimination_plan(back) == want
            assert vars(back)["_plan"] == want


def test_threads_filling_one_plan_agree():
    # threads race on shared fresh biquivers: each may compute the plan, and
    # every one must read, and leave kept, the plan a cold object gives
    shapes = [path_biquiver(6, dashed=(2, 5)), cycle_biquiver(5, dashed=(1, 3)),
              cycle_biquiver(5, dashed=(1,)), biq(3, "a:1>2", "b:2>3", "c:3~3")]
    want = [dash_elimination_plan(Biquiver(g.t, g.arrows)) for g in shapes]
    fresh = [[Biquiver(g.t, g.arrows) for g in shapes] for _ in range(200)]
    got = []

    def work():
        got.append([[dash_elimination_plan(g) for g in gs] for gs in fresh])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert got == [[want] * len(fresh)] * len(threads)
    assert all([vars(g)["_plan"] for g in gs] == want for gs in fresh)


@st.composite
def biquivers(draw):
    t = draw(st.integers(1, 5))
    ends = st.tuples(st.integers(1, t), st.integers(1, t), st.booleans())
    arrows = draw(st.lists(ends, max_size=7))
    return Biquiver(t, tuple(Arrow(f"a{k}", u, v, ArrowKind.DASHED if d else ArrowKind.FULL)
                             for k, (u, v, d) in enumerate(arrows)))


def answers(g):
    """Every graph-layer answer about g, a refusal recorded by its message."""
    out = [is_connected(g), connected_components(g)]
    for ask in (representation_type, dash_elimination_plan,
                lambda g: definiteness(gram_matrix(g)),
                lambda g: radical_vector(gram_matrix(g)),
                lambda g: roots_with_value(g, 1, 2), lambda g: roots_with_value(g, 0, 2)):
        try:
            out.append(ask(g))
        except PreconditionError as e:
            out.append(str(e))
    return out


@settings(deadline=None, max_examples=150)
@given(biquivers())
def test_a_warm_memo_changes_no_answer_and_no_value(g):
    cold = Biquiver(g.t, g.arrows)
    warm = answers(g)
    assert answers(g) == warm == answers(Biquiver(g.t, g.arrows))
    assert g == cold and hash(g) == hash(cold) and repr(g) == repr(cold)
    assert pickle.dumps(g) == pickle.dumps(cold)
    for back in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert back == g and hash(back) == hash(g)
        assert answers(back) == warm
    # the shared form: each kept memo is a cold answer, and none is pickled
    form = gram_matrix(g)
    assert_memos_are_cold_answers(form)
    assert vars(pickle.loads(pickle.dumps(form))) == {"t": form.t, "c": form.c}
