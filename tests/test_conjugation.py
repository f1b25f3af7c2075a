import random

import pytest

from biquiver import (Arrow, ArrowKind, Biquiver, DashEliminationObstruction,
                      DashEliminationPlan, MatrixRepresentation,
                      PreconditionError, Verdict, apply_base_change,
                      apply_conjugations, apply_conjugations_representation,
                      are_isomorphic, conjugate_biquiver,
                      conjugate_representation, dash_elimination_plan,
                      gram_matrix, random_representation, representation_type,
                      transport_isomorphism)
from conftest import (biq, cycle_biquiver, gmat, mat, path_biquiver,
                      random_biquiver, random_invertible)


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
