import random

import pytest
from hypothesis import given, settings, strategies as st

from biquiver import (Arrow, ArrowKind, Biquiver, DashEliminationObstruction,
                      DashEliminationPlan, MatrixRepresentation,
                      PreconditionError, Verdict, apply_base_change,
                      apply_conjugations, apply_conjugations_representation,
                      are_isomorphic, conjugate_biquiver,
                      conjugate_representation, dash_elimination_plan,
                      gram_matrix, random_representation, representation_type,
                      transport_isomorphism)
from biquiver.model import _check_vertex
from conftest import (biq, cycle_biquiver, gmat, mat, path_biquiver,
                      random_biquiver, random_invertible)


# The conjugation functor as it was written before it became one pass over
# the vertices listed an odd number of times: one conjugation per vertex,
# folded over the list in ascending order. It stays here as the oracle.

def oracle_conjugate_biquiver(g: Biquiver, u: int) -> Biquiver:
    _check_vertex(u, g.t)
    arrows = []
    for a in g.arrows:
        if not a.is_loop and u in (a.source, a.target):
            kind = ArrowKind.DASHED if a.kind is ArrowKind.FULL else ArrowKind.FULL
            arrows.append(Arrow(a.id, a.source, a.target, kind))
        else:
            arrows.append(a)
    return Biquiver(g.t, tuple(arrows))


def oracle_conjugate_representation(a: MatrixRepresentation, u: int) -> MatrixRepresentation:
    """Representation of the conjugated biquiver, per the conjugation functor."""
    g = oracle_conjugate_biquiver(a.biquiver, u)
    mats = {}
    for arrow in a.biquiver.arrows:
        m = a.matrices[arrow.id]
        mats[arrow.id] = m.conj() if arrow.source == u else m
    return MatrixRepresentation(g, a.dims, mats)


def oracle_apply_conjugations(g: Biquiver, vertices) -> Biquiver:
    """Conjugate at each vertex of a set (order is immaterial)."""
    for u in oracle_sorted_vertices(vertices, g.t):
        g = oracle_conjugate_biquiver(g, u)
    return g


def oracle_apply_conjugations_representation(a: MatrixRepresentation, vertices
                                             ) -> MatrixRepresentation:
    for u in oracle_sorted_vertices(vertices, a.biquiver.t):
        a = oracle_conjugate_representation(a, u)
    return a


def oracle_sorted_vertices(vertices, t: int) -> list[int]:
    """The vertices ascending, a repeat kept, each checked by `_check_vertex` before the sort."""
    vertices = list(vertices)
    for u in vertices:
        _check_vertex(u, t)
    return sorted(vertices)


def test_conjugate_toggles_incident_nonloop_arrows():
    g = biq(2, "a:1~2")
    assert conjugate_biquiver(g, 2).arrows[0].kind is ArrowKind.FULL
    assert conjugate_biquiver(g, 1).arrows[0].kind is ArrowKind.FULL


def test_conjugate_keeps_loops():
    g = biq(1, "a:1~1", "b:1>1")
    gu = conjugate_biquiver(g, 1)
    assert gu == g


def test_conjugate_biquiver_involution():
    g = biq(3, "a:1~2", "b:2>3", "c:3~3", "d:2~2")
    for u in (1, 2, 3):
        assert conjugate_biquiver(conjugate_biquiver(g, u), u) == g


def test_conjugate_representation_rule():
    g = biq(2, "a:1~2")
    a = MatrixRepresentation(g, (1, 1), {"a": gmat([(0, 1)])})
    at1 = conjugate_representation(a, 1)
    assert at1.matrices["a"] == gmat([(0, -1)])
    assert at1.biquiver.arrows[0].kind is ArrowKind.FULL
    at2 = conjugate_representation(a, 2)
    assert at2.matrices["a"] == gmat([(0, 1)])  # arrow does not start at 2
    assert conjugate_representation(conjugate_representation(a, 1), 1) == a


def test_conjugate_representation_conjugates_loops_at_u():
    g = biq(1, "a:1~1")
    a = MatrixRepresentation(g, (1,), {"a": gmat([(2, 3)])})
    au = conjugate_representation(a, 1)
    assert au.matrices["a"] == gmat([(2, -3)])
    assert au.biquiver == g  # loop kind unchanged


def test_transport_isomorphism():
    s = [mat([2]), gmat([(0, 1)])]
    r = transport_isomorphism(s, 2)
    assert r[0] == mat([2])
    assert r[1] == gmat([(0, -1)])
    assert transport_isomorphism(transport_isomorphism(s, 2), 2) == s
    # real matrices are fixed
    assert transport_isomorphism([mat([5])], 1) == [mat([5])]


@pytest.mark.parametrize("u", [0, 3, -1])
def test_transport_isomorphism_rejects_a_vertex_outside_the_list(u):
    # as conjugating the biquiver at that vertex does
    s = [mat([2]), gmat([(0, 1)])]
    with pytest.raises(PreconditionError):
        conjugate_biquiver(biq(2, "a:1~2"), u)
    with pytest.raises(PreconditionError):
        transport_isomorphism(s, u)


@pytest.mark.parametrize("u", [True, 1.0, "1", None])
def test_a_vertex_that_is_not_an_int_is_refused(u):
    s = [mat([2]), gmat([(0, 1)])]
    for ask in (lambda: conjugate_biquiver(biq(2, "a:1~2"), u),
                lambda: transport_isomorphism(s, u)):
        with pytest.raises(PreconditionError, match="^vertex must be an int, got "):
            ask()


@pytest.mark.parametrize("vertices,message", [
    ([1, "a"], "^vertex must be an int, got 'a'$"),
    ([1, None], "^vertex must be an int, got None$"),
    ([2, 1.0], "^vertex must be an int, got 1.0$"),
    ([3, 1], "^vertex 3 outside 1..2$"),
    (1, "^vertices must be an iterable of ints, got 1$"),
    (None, "^vertices must be an iterable of ints, got None$"),
], ids=["str", "none", "float", "past-t", "int-list", "none-list"])
def test_a_conjugation_list_is_checked_before_it_is_sorted(vertices, message):
    # "a" and None once ended in a TypeError from sorting them among ints,
    # and the lists 1 and None in one from iterating them
    a = MatrixRepresentation(biq(2, "a:1~2"), (1, 1), {"a": gmat([(0, 1)])})
    for ask in (lambda: apply_conjugations(a.biquiver, vertices),
                lambda: apply_conjugations_representation(a, vertices)):
        with pytest.raises(PreconditionError, match=message):
            ask()


@pytest.mark.parametrize("s", [5, None], ids=["int", "none"])
def test_a_certificate_that_is_not_a_list_is_refused(s):
    # these once ended in a TypeError from taking their length
    with pytest.raises(PreconditionError, match=f"^transition matrices must be a list, got {s}$"):
        transport_isomorphism(s, 1)


def test_a_vertex_listed_twice_conjugates_twice():
    a = MatrixRepresentation(biq(2, "a:1~2"), (1, 1), {"a": gmat([(0, 1)])})
    once = conjugate_representation(a, 1)
    assert apply_conjugations_representation(a, [1, 1]) == a
    assert apply_conjugations_representation(a, iter([1, 2, 1])) == \
        conjugate_representation(a, 2)
    assert apply_conjugations_representation(a, {1}) == once
    assert apply_conjugations(a.biquiver, [1, 1, 1]) == once.biquiver


def test_conjugations_commute():
    rng = random.Random(3)
    for _ in range(30):
        g = random_biquiver(rng, max_t=4, max_arrows=5)
        u = rng.randint(1, g.t)
        v = rng.randint(1, g.t)
        assert conjugate_biquiver(conjugate_biquiver(g, u), v) == \
            conjugate_biquiver(conjugate_biquiver(g, v), u)
        dims = tuple(rng.randint(0, 2) for _ in range(g.t))
        a = random_representation(g, dims, 2, rng.randint(0, 10 ** 6))
        assert conjugate_representation(conjugate_representation(a, u), v) == \
            conjugate_representation(conjugate_representation(a, v), u)


def test_conjugation_preserves_gram_and_type():
    g = biq(3, "a:1~2", "b:2>3", "c:3~1")
    for u in (1, 2, 3):
        gu = conjugate_biquiver(g, u)
        assert gram_matrix(gu) == gram_matrix(g)
        assert representation_type(gu) == representation_type(g)


def test_isomorphism_invariance_under_conjugation():
    # random pairs, half planted isomorphic: verdicts agree before and after
    rng = random.Random(17)
    for case in range(40):
        g = random_biquiver(rng, max_t=3, max_arrows=3)
        dims = tuple(rng.randint(0, 2) for _ in range(g.t))
        a = random_representation(g, dims, 2, rng.randint(0, 10 ** 6))
        if case % 2:
            s = [random_invertible(rng, d) for d in dims]
            b = apply_base_change(a, s)
        else:
            b = random_representation(g, dims, 2, rng.randint(0, 10 ** 6))
        u = rng.randint(1, g.t)
        res = are_isomorphic(a, b, seed=case)
        res_u = are_isomorphic(conjugate_representation(a, u),
                               conjugate_representation(b, u), seed=case)
        assert res.verdict == res_u.verdict
        if res.verdict is Verdict.YES:
            transported = transport_isomorphism(list(res.certificate), u)
            assert apply_base_change(conjugate_representation(a, u), transported) == \
                conjugate_representation(b, u)


@st.composite
def conjugated_pairs(draw):
    """(a, b, vertices): a random representation a of a biquiver on 1-3
    vertices with full and dashed arrows, loops and parallel arrows allowed;
    b either a planted base change of a or drawn independently; and a
    random vertex set to conjugate at."""
    t = draw(st.integers(1, 3))
    ends = st.tuples(st.integers(1, t), st.integers(1, t), st.booleans())
    g = Biquiver(t, tuple(Arrow(f"a{k}", u, v, ArrowKind.DASHED if d else ArrowKind.FULL)
                          for k, (u, v, d) in enumerate(draw(st.lists(ends, max_size=3)))))
    dims = tuple(draw(st.lists(st.integers(0, 2), min_size=t, max_size=t).filter(any)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    a = random_representation(g, dims, 2, rng.randrange(10 ** 6))
    if draw(st.booleans()):
        b = apply_base_change(a, [random_invertible(rng, d) for d in dims])
    else:
        b = random_representation(g, dims, 2, rng.randrange(10 ** 6))
    return a, b, draw(st.frozensets(st.integers(1, t), min_size=1))


def transported(certificate, vertices):
    s = list(certificate)
    for u in vertices:
        s = transport_isomorphism(s, u)
    return s


@settings(deadline=None, max_examples=200)
@given(conjugated_pairs(), st.integers(0, 3))
def test_conjugation_carries_every_certificate_and_no_verdict_across(pair, seed):
    # conjugating both sides at a vertex set W is an equivalence, and an
    # involution, so a Yes on either side, its certificate conjugated at W,
    # verifies exactly on the other, and a certified No meets no Yes there
    a, b, vertices = pair
    aw, bw = (apply_conjugations_representation(x, vertices) for x in (a, b))
    res, res_w = are_isomorphic(a, b, seed=seed), are_isomorphic(aw, bw, seed=seed)
    for found, (x, y) in ((res, (aw, bw)), (res_w, (a, b))):
        if found.verdict is Verdict.YES:
            assert apply_base_change(x, transported(found.certificate, vertices)) == y
    assert {res.verdict, res_w.verdict} != {Verdict.YES, Verdict.NO}


def test_dash_elimination_path():
    plan = dash_elimination_plan(path_biquiver(3, dashed=(1, 2)))
    assert isinstance(plan, DashEliminationPlan)
    assert plan.vertices == frozenset({2})
    g = apply_conjugations(path_biquiver(3, dashed=(1, 2)), plan.vertices)
    assert all(not a.is_dashed for a in g.arrows)


def test_dash_elimination_all_trees_small():
    # every dashing of every labeled path/star on <= 4 vertices has a plan
    shapes = [path_biquiver(2), path_biquiver(3), path_biquiver(4),
              biq(4, "a:1>2", "b:1>3", "c:1>4")]
    for g in shapes:
        m = len(g.arrows)
        for mask in range(2 ** m):
            arrows = tuple(
                Arrow(a.id, a.source, a.target,
                      ArrowKind.DASHED if (mask >> k) & 1 else ArrowKind.FULL)
                for k, a in enumerate(g.arrows))
            gg = Biquiver(g.t, arrows)
            plan = dash_elimination_plan(gg)
            assert isinstance(plan, DashEliminationPlan)
            cleaned = apply_conjugations(gg, plan.vertices)
            assert all(not a.is_dashed for a in cleaned.arrows)
            assert gram_matrix(cleaned) == gram_matrix(gg)


def test_dash_elimination_cycle_parity():
    for r in (2, 3, 4):
        for mask in range(2 ** r):
            dashed = tuple(i + 1 for i in range(r) if (mask >> i) & 1)
            g = cycle_biquiver(r, dashed=dashed)
            plan = dash_elimination_plan(g)
            if len(dashed) % 2 == 0:
                assert isinstance(plan, DashEliminationPlan)
                cleaned = apply_conjugations(g, plan.vertices)
                assert all(not a.is_dashed for a in cleaned.arrows)
            else:
                assert isinstance(plan, DashEliminationObstruction)
                assert "parity" in plan.reason


def test_dash_elimination_obstruction_follows_bfs_order():
    # The reported cycle is read off the spanning tree, which grows
    # breadth first with neighbours in arrow order: the chord 1~3 reaches 3
    # before the path through 2 does.
    chorded = biq(4, "e1:1>2", "e2:2>3", "e3:3>4", "e4:4>1", "c:1~3")
    assert dash_elimination_plan(chorded).reason == "odd dashed parity on cycle <2 1 3 2>"
    g = biq(5, "a:1>2", "b:1>3", "c:2>4", "d:3>5", "e:4~5", "f:2>3")
    assert dash_elimination_plan(g).reason == "odd dashed parity on cycle <4 2 1 3 5 4>"


def test_dash_elimination_dashed_loop_impossible():
    plan = dash_elimination_plan(biq(1, "a:1~1"))
    assert isinstance(plan, DashEliminationObstruction)
    assert "loop" in plan.reason
    # a full loop is no obstruction
    assert isinstance(dash_elimination_plan(biq(1, "a:1>1")), DashEliminationPlan)


def test_dash_elimination_disconnected_rejected():
    g = Biquiver(3, path_biquiver(2).arrows)
    with pytest.raises(PreconditionError):
        dash_elimination_plan(g)


def test_plan_on_representation_removes_dashes():
    g = path_biquiver(3, dashed=(1, 2))
    a = random_representation(g, (1, 2, 1), 2, 5)
    plan = dash_elimination_plan(g)
    moved = apply_conjugations_representation(a, plan.vertices)
    assert all(not arr.is_dashed for arr in moved.biquiver.arrows)
    assert moved.dims == a.dims


@st.composite
def conjugation_inputs(draw):
    """(a, vertices): a random representation a of a biquiver on 1-4 vertices
    with full and dashed arrows, loops and parallel arrows allowed, and a
    list of vertices to conjugate at, repeats allowed and, now and then, an
    entry that no vertex check accepts; or a frozenset of vertices, as a
    dash-elimination plan holds."""
    t = draw(st.integers(1, 4))
    ends = st.tuples(st.integers(1, t), st.integers(1, t), st.booleans())
    g = Biquiver(t, tuple(Arrow(f"a{k}", u, v, ArrowKind.DASHED if d else ArrowKind.FULL)
                          for k, (u, v, d) in enumerate(draw(st.lists(ends, max_size=5)))))
    dims = tuple(draw(st.lists(st.integers(0, 2), min_size=t, max_size=t)))
    a = random_representation(g, dims, 2, draw(st.integers(0, 10 ** 6)))
    vertex = st.integers(1, t)
    if draw(st.booleans()):
        return a, draw(st.frozensets(vertex))
    wrong = st.sampled_from([0, t + 1, -1, True, 1.0, "1", None])
    return a, draw(st.lists(st.one_of(vertex, vertex, vertex, wrong), max_size=6))


def outcome(ask, *args):
    """What ask(*args) returns, or the class and message of the FormatError or
    PreconditionError it raises."""
    try:
        return ask(*args)
    except ValueError as e:
        return type(e), str(e)


@settings(deadline=None, max_examples=300)
@given(conjugation_inputs())
def test_one_pass_conjugation_matches_the_per_vertex_fold(inputs):
    a, vertices = inputs
    g = a.biquiver
    assert outcome(apply_conjugations, g, vertices) == \
        outcome(oracle_apply_conjugations, g, vertices)
    assert outcome(apply_conjugations_representation, a, vertices) == \
        outcome(oracle_apply_conjugations_representation, a, vertices)
    for u in vertices:
        assert outcome(conjugate_biquiver, g, u) == outcome(oracle_conjugate_biquiver, g, u)
        assert outcome(conjugate_representation, a, u) == \
            outcome(oracle_conjugate_representation, a, u)
