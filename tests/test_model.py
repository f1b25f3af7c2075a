import json
import re

import pytest

from biquiver import (Arrow, ArrowKind, Biquiver, DashEliminationObstruction,
                      DashEliminationPlan, FormatError, PreconditionError, connected_components,
                      dash_elimination_plan, induced_subbiquiver, is_connected,
                      parse_biquiver, serialize_biquiver)
from conftest import biq, cycle_biquiver, path_biquiver


def test_parse_simple_document():
    g = parse_biquiver('{"vertices":2,"arrows":[{"id":"a","from":1,"to":2,"kind":"dashed"}]}')
    assert g.t == 2
    assert g.arrows[0].kind is ArrowKind.DASHED
    assert g.arrows[0].source == 1 and g.arrows[0].target == 2


def test_parse_empty_biquiver():
    g = parse_biquiver('{"vertices":1,"arrows":[]}')
    assert g.t == 1 and g.arrows == ()


def test_round_trips():
    g = biq(3, "a:1>2", "b:2~3", "c:3~3", "d:1>3")
    text = serialize_biquiver(g)
    assert parse_biquiver(text) == g
    doc = json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
    assert serialize_biquiver(parse_biquiver(doc)) == doc


@pytest.mark.parametrize("doc,fragment", [
    ('{"vertices":2,"arrows":[{"id":"a","from":3,"to":2,"kind":"full"}]}', "outside"),
    ('{"vertices":2,"arrows":[{"id":"a","from":1,"to":2,"kind":"full"},'
     '{"id":"a","from":2,"to":1,"kind":"full"}]}', "duplicate"),
    ('{"vertices":0,"arrows":[]}', "positive"),
    ('{"arrows":[]}', "vertices"),
    ('{"vertices":2,"arrows":[{"id":"a","from":1,"to":2,"kind":"wavy"}]}', "kind"),
    ('{"vertices":2,"arrows":[{"id":"a","from":1,"kind":"full"}]}', "to"),
    ('not json', "JSON"),
])
def test_parse_errors(doc, fragment):
    with pytest.raises(FormatError) as exc:
        parse_biquiver(doc)
    assert fragment in str(exc.value)


def test_structure_of_path():
    g = path_biquiver(3, dashed=(1, 2))
    assert is_connected(g)
    assert connected_components(g) == [[1, 2, 3]]
    assert dash_elimination_plan(g) == DashEliminationPlan(frozenset({2}))


def test_structure_of_two_cycle():
    g = biq(2, "a:1~2", "b:2>1")
    assert is_connected(g)
    assert dash_elimination_plan(g) == \
        DashEliminationObstruction("odd dashed parity on cycle <2 1 2>")


def test_structure_of_single_loop():
    g = biq(1, "a:1>1")
    assert is_connected(g)
    assert connected_components(g) == [[1]]
    assert dash_elimination_plan(g) == DashEliminationPlan(frozenset())


def test_loop_is_a_cycle_for_tree_test():
    g = biq(2, "a:1>2", "l:2~2")
    assert is_connected(g)
    assert dash_elimination_plan(g) == DashEliminationObstruction("dashed loop at vertex 2")


def test_cycle_parities_count_dashed_arrows():
    plans = {(): frozenset(), (1, 2): frozenset({2})}
    for dashed in [(), (1,), (1, 2), (1, 2, 3)]:
        plan = dash_elimination_plan(cycle_biquiver(3, dashed=dashed))
        if len(dashed) % 2:
            assert plan == DashEliminationObstruction("odd dashed parity on cycle <2 1 3 2>")
        else:
            assert plan == DashEliminationPlan(plans[dashed])


def test_tree_iff_connected_and_edge_count():
    assert is_connected(path_biquiver(5))
    g = Biquiver(3, path_biquiver(2).arrows)
    assert not is_connected(g)
    assert connected_components(g) == [[1, 2], [3]]


def test_components_and_induced():
    g = biq(4, "a:1>2", "b:3~3")
    comps = connected_components(g)
    assert comps == [[1, 2], [3], [4]]
    sub = induced_subbiquiver(g, [3])
    assert sub.t == 1 and sub.arrows[0].is_loop


@pytest.mark.parametrize("vertices,message", [
    ([1, 1], r"^vertices must be distinct, got \[1, 1\]$"),
    ([2, 1, 2], r"^vertices must be distinct, got \[2, 1, 2\]$"),
    ([5], "^vertex 5 outside 1..2$"),
    ([0], "^vertex 0 outside 1..2$"),
    ([True], "^vertex must be an int, got True$"),
    ([1.0], "^vertex must be an int, got 1.0$"),
], ids=["repeated", "repeated-later", "past-t", "zero", "bool", "float"])
def test_induced_refuses_a_vertex_it_cannot_renumber(vertices, message):
    # each of these once gave a biquiver: [1, 1] two vertices and no arrows,
    # [5] and [True] one vertex each
    g = biq(2, "a:1>2")
    with pytest.raises(PreconditionError, match=message):
        induced_subbiquiver(g, vertices)
    assert induced_subbiquiver(g, [2, 1]) == biq(2, "a:2>1")


def test_induced_refuses_an_empty_vertex_list():
    # as every other refusal of a vertex list, not the FormatError of Biquiver(0, ())
    with pytest.raises(PreconditionError,
                       match=r"^vertices must name at least one vertex, got \[\]$"):
        induced_subbiquiver(biq(2, "a:1>2"), [])


def full_a(source, target):
    return (Arrow("a", source, target, ArrowKind.FULL),)


@pytest.mark.parametrize("t,arrows,message", [
    (2.0, (), "^vertex count must be a positive int, got 2.0$"),
    (True, (), "^vertex count must be a positive int, got True$"),
    (2, full_a(1.0, 2), "^arrow 'a' endpoint must be an int, got 1.0$"),
    (2, full_a(1, True), "^arrow 'a' endpoint must be an int, got True$"),
    (2, full_a("1", 2), "^arrow 'a' endpoint must be an int, got '1'$"),
    (2, (Arrow("a", 1, 2, "dashed"),), "^arrow 'a' kind must be an ArrowKind, got 'dashed'$"),
    (2, list(full_a(1, 2)), "^" + re.escape(
        "arrows must be a tuple of Arrow, got [Arrow(id='a', source=1, target=2, "
        "kind=<ArrowKind.FULL: 'fu... (66 characters)") + "$"),
    (2, (("a", 1, 2, "full"),),
     "^" + re.escape("arrows must be a tuple of Arrow, got (('a', 1, 2, 'full'),)") + "$"),
    (3, (Arrow(1, 1, 2, ArrowKind.FULL), Arrow("b", 2, 3, ArrowKind.FULL)),
     "^arrow id must be a str, got 1$"),
], ids=["float count", "bool count", "float endpoint", "bool endpoint", "str endpoint",
        "str kind", "list of arrows", "tuple for an arrow", "int id"])
def test_a_vertex_count_or_endpoint_that_is_not_an_int_is_refused(t, arrows, message):
    # the constructor is the one check of a biquiver, from the JSON parser and
    # the API alike, before any graph query can index a list with these, read
    # a str as a full kind, hash a list or serialize an id that no parser reads
    with pytest.raises(FormatError, match=message):
        Biquiver(t, arrows)
