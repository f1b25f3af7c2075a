"""Each Biquiver is analysed once: its spanning forest and its Tits form,
with the form's checked LDL, are memos kept in the instance.

The counting tests wrap `model._spanning_forest` and `tits._symmetric_ldl`,
the names the memos call, so they see every traversal and elimination. The
refusal tests check that each check still runs on every call, not only on
the first, and the property checks that a warm memo changes no answer and
nothing of the Biquiver's value.
"""
import copy
import pickle
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from biquiver import (Arrow, ArrowKind, Biquiver, Definiteness, FormatError,
                      PreconditionError, RepKind, TitsGram, connected_components,
                      dash_elimination_plan, definiteness, gram_matrix, is_connected,
                      radical_vector, representation_type, roots_with_value)
from biquiver import model, tits
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


@pytest.fixture
def calls(monkeypatch):
    """Counts of the traversals and eliminations run from here on."""
    seen = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args):
            seen[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)

    count(model, "_spanning_forest")
    count(tits, "_symmetric_ldl")
    return seen


@pytest.mark.parametrize("g,kind,verdict", [
    (path_biquiver(4, dashed=(2,)), RepKind.FINITE, Definiteness.POSITIVE_DEFINITE),
    (cycle_biquiver(4, dashed=(1,)), RepKind.TAME_INFINITE, Definiteness.POSITIVE_SEMIDEFINITE),
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
    # cached_property fills each memo without a lock from Python 3.12 on, so
    # threads racing on fresh objects may each compute it; every one must
    # still read the answers a cold object gives
    shapes = [path_biquiver(5, dashed=(2,)), cycle_biquiver(5, dashed=(1, 3)),
              biq(3, "a:1>2", "b:2>3", "c:3>1", "d:1~3")]
    want = [tits_op(Biquiver(g.t, g.arrows)) for g in shapes]
    fresh = [[Biquiver(g.t, g.arrows) for g in shapes] for _ in range(40)]
    got = []

    def work():
        got.append([[tits_op(g) for g in gs] for gs in fresh])

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
