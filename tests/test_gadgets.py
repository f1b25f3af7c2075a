import random
import re

import pytest

from biquiver import (ArrowKind, CMatrix, FormatError, PreconditionError, Verdict,
                      apply_base_change, are_isomorphic, block_diag,
                      gadget_biquiver, gadget_cycle, gadget_g1, gadget_g2,
                      gadget_g3, gadget_g4)
from conftest import biq, cycle_biquiver, gmat, mat, random_invertible


def test_gadget_biquiver_shapes():
    g1 = gadget_biquiver("g1")
    assert g1.t == 2
    assert g1.arrow("a1").is_loop and g1.arrow("a1").is_dashed
    assert (g1.arrow("a").source, g1.arrow("a").target) == (1, 2)
    g2 = gadget_biquiver("g2")
    assert (g2.arrow("a").source, g2.arrow("a").target) == (2, 1)
    g3 = gadget_biquiver("g3")
    assert g3.arrow("a1").kind is ArrowKind.FULL
    assert g3.arrow("a2").kind is ArrowKind.DASHED
    g4 = gadget_biquiver("g4")
    assert all(a.is_dashed and a.is_loop for a in g4.arrows)


def test_g1_block_layout():
    rep = gadget_g1(mat([0]), mat([0]))
    assert rep.dims == (2, 1)
    assert rep.matrices["a1"] == mat([0, 0], [1, 0])
    assert rep.matrices["a"] == mat([0, 1])


def test_g2_block_layout():
    rep = gadget_g2(mat([3]), mat([5]))
    assert rep.dims == (2, 1)
    assert rep.matrices["a1"] == mat([0, 3], [1, 5])
    assert rep.matrices["a"] == mat([1], [0])


def test_g3_block_layout():
    rep = gadget_g3(mat([7]), mat([9]))
    assert rep.dims == (2,)
    assert rep.matrices["a1"] == mat([0, 1], [0, 0])
    assert rep.matrices["a2"] == mat([7, 0], [0, 9])


def test_g4_block_layout():
    rep = gadget_g4(mat([2]), mat([3]))
    assert rep.dims == (4,)
    assert rep.matrices["a1"] == mat([0, 1, 0, 0], [0, 0, 1, 0],
                                     [0, 0, 0, 1], [0, 0, 0, 0])
    assert rep.matrices["a2"] == mat([0, 0, 0, 0], [2, 0, 0, 0],
                                     [0, 0, 0, 0], [0, 0, 3, 0])


def test_pair_size_mismatch():
    with pytest.raises(PreconditionError):
        gadget_g3(mat([1]), CMatrix.identity(2))


def test_cycle_gadget_loop_case():
    g = biq(1, "a:1>1")
    rep = gadget_cycle(g, ["a"], mat([2]))
    assert rep.matrices["a"] == mat([2])


def test_cycle_gadget_assignment_and_zero_padding():
    g = biq(4, "e1:1>2", "e2:2>3", "e3:3>1", "x:4~4")
    rep = gadget_cycle(g, ["e1", "e2", "e3"], mat([1, 1], [0, 1]))
    assert rep.dims == (2, 2, 2, 0)
    assert rep.matrices["e1"] == CMatrix.identity(2)
    assert rep.matrices["e2"] == CMatrix.identity(2)
    assert rep.matrices["e3"] == mat([1, 1], [0, 1])
    assert rep.matrices["x"].rows == 0


def test_cycle_gadget_validation():
    g = biq(3, "e1:1>2", "e2:2>3", "e3:3>1")
    with pytest.raises(PreconditionError):
        gadget_cycle(g, ["e1", "e2"], mat([1]))  # not closed
    with pytest.raises(PreconditionError):
        gadget_cycle(g, ["e1"], mat([1]))  # not a loop
    with pytest.raises(PreconditionError):
        gadget_cycle(g, ["e1", "e2", "e3"], mat([1, 2]))  # not square


def test_full_cycle_gadget_faithful_for_similarity():
    g = cycle_biquiver(3)
    j = mat([0, 1], [0, 0])
    z = CMatrix.zero(2, 2)
    not_iso = are_isomorphic(gadget_cycle(g, ["e1", "e2", "e3"], j),
                             gadget_cycle(g, ["e1", "e2", "e3"], z), seed=2)
    assert not_iso.verdict in (Verdict.NO, Verdict.PROBABLY_NO)
    s = mat([1, 2], [1, 3])
    sim = s.inverse() @ j @ s
    iso = are_isomorphic(gadget_cycle(g, ["e1", "e2", "e3"], j),
                         gadget_cycle(g, ["e1", "e2", "e3"], sim), seed=2)
    assert iso.verdict is Verdict.YES


def test_dashed_closing_cycle_gadget_consimilarity():
    g = biq(2, "e1:1>2", "e2:2~1")
    a = gadget_cycle(g, ["e1", "e2"], gmat([(0, 1)]))
    b = gadget_cycle(g, ["e1", "e2"], mat([1]))
    assert are_isomorphic(a, b, seed=1).verdict is Verdict.YES
    c = gadget_cycle(g, ["e1", "e2"], mat([2]))
    assert are_isomorphic(a, c, seed=1).verdict is not Verdict.YES


def test_g1_planted_positive_with_block_certificate():
    rng = random.Random(21)
    p = gmat([(1, 1)])
    q = gmat([(2, 0)])
    r = random_invertible(rng, 1)
    p2 = r.inverse() @ p @ r
    q2 = r.conj().inverse() @ q @ r
    a, b = gadget_g1(p, q), gadget_g1(p2, q2)
    s1 = block_diag(r.conj(), r)
    assert apply_base_change(a, [s1, r]) == b
    assert are_isomorphic(a, b, seed=3).verdict is Verdict.YES


def test_g1_distinct_pairs_not_isomorphic():
    a = gadget_g1(mat([0]), mat([0]))
    b = gadget_g1(mat([1]), mat([0]))
    assert are_isomorphic(a, b, seed=1).verdict is not Verdict.YES


def test_g4_planted_positive_with_block_certificate():
    rng = random.Random(5)
    p, q = mat([1, 2], [0, 1]), mat([3, 0], [1, 1])
    s = random_invertible(rng, 2)
    p2, q2 = s.inverse() @ p @ s, s.inverse() @ q @ s
    a, b = gadget_g4(p, q), gadget_g4(p2, q2)
    big = block_diag(block_diag(s, s.conj()), block_diag(s, s.conj()))
    assert apply_base_change(a, [big]) == b
    assert are_isomorphic(a, b, seed=4).verdict is Verdict.YES


def test_g4_distinct_pairs_not_isomorphic():
    a = gadget_g4(mat([0]), mat([0]))
    b = gadget_g4(mat([1]), mat([0]))
    assert are_isomorphic(a, b, seed=1).verdict is not Verdict.YES


def test_g3_planted_positive():
    rng = random.Random(11)
    p, q = gmat([(1, 2)]), gmat([(0, 1)])
    s = random_invertible(rng, 1)
    p2 = s.conj().inverse() @ p @ s
    q2 = s.conj().inverse() @ q @ s
    a, b = gadget_g3(p, q), gadget_g3(p2, q2)
    assert apply_base_change(a, [block_diag(s, s)]) == b
    assert are_isomorphic(a, b, seed=6).verdict is Verdict.YES


@pytest.mark.parametrize("gadget", [gadget_cycle, gadget_g1, gadget_g2, gadget_g3, gadget_g4],
                         ids=["cycle", "g1", "g2", "g3", "g4"])
@pytest.mark.parametrize("wrong", [[[1]], 1], ids=["list", "int"])
def test_a_block_that_is_not_a_cmatrix_is_refused(gadget, wrong):
    # each of these once ended in an AttributeError on reading .is_square
    message = f"needs a CMatrix, got {re.escape(repr(wrong))}$"
    if gadget is gadget_cycle:
        with pytest.raises(FormatError, match="^matrix m " + message):
            gadget(biq(1, "a:1>1"), ["a"], wrong)
        return
    with pytest.raises(FormatError, match="^block p " + message):
        gadget(wrong, mat([1]))
    with pytest.raises(FormatError, match="^block q " + message):
        gadget(mat([1]), wrong)
