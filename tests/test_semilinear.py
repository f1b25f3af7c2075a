import itertools
import random
import re
from fractions import Fraction

import pytest

from biquiver import (CMatrix, FormatError, MapKind, SingularMatrixError, Verdict, apply_map,
                      are_consimilar, change_of_basis, compose, gaussian)
from conftest import gmat, mat, random_invertible


def random_matrix(rng, rows, cols, bound=4):
    return CMatrix(rows, cols, tuple(
        gaussian(Fraction(rng.randint(-bound, bound), rng.randint(1, 2)),
                 Fraction(rng.randint(-bound, bound), rng.randint(1, 2)))
        for _ in range(rows * cols)))


def test_apply_semilinear_conjugates():
    assert apply_map(MapKind.SEMILINEAR, mat([1]), gmat([(0, 1)])) == gmat([(0, -1)])
    assert apply_map(MapKind.SEMILINEAR, gmat([(0, 1)]), gmat([(0, 1)])) == mat([-1])


def test_apply_linear_identity():
    x = gmat([(2, 3)], [(0, -1)])
    assert apply_map(MapKind.LINEAR, CMatrix.identity(2), x) == x


def test_compose_kind_table_and_matrices():
    i = gmat([(0, 1)])
    two = mat([2])
    one = mat([1])
    kind, m = compose(MapKind.SEMILINEAR, i, MapKind.LINEAR, two)
    assert kind is MapKind.SEMILINEAR and m == gmat([(0, 2)])
    kind, m = compose(MapKind.LINEAR, i, MapKind.SEMILINEAR, one)
    assert kind is MapKind.SEMILINEAR and m == gmat([(0, -1)])
    kind, m = compose(MapKind.SEMILINEAR, i, MapKind.SEMILINEAR, one)
    assert kind is MapKind.LINEAR and m == gmat([(0, -1)])
    kind, m = compose(MapKind.LINEAR, two, MapKind.LINEAR, i)
    assert kind is MapKind.LINEAR and m == gmat([(0, 2)])


def test_compose_matches_pointwise_application():
    rng = random.Random(1)
    for kb, ka in itertools.product(MapKind, MapKind):
        for _ in range(30):
            n, m, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
            a = random_matrix(rng, m, n)
            b = random_matrix(rng, k, m)
            kind, c = compose(kb, b, ka, a)
            x = random_matrix(rng, n, 1)
            assert apply_map(kind, c, x) == apply_map(kb, b, apply_map(ka, a, x))


def test_change_of_basis_scalar_example():
    m = gmat([(0, 1)])
    s = gmat([(1, -1)])
    assert change_of_basis(MapKind.SEMILINEAR, m, s, s) == mat([1])
    assert change_of_basis(MapKind.LINEAR, mat([2]), mat([3]), mat([3])) == mat([2])
    assert change_of_basis(MapKind.LINEAR, m, CMatrix.identity(1), CMatrix.identity(1)) == m


@pytest.mark.parametrize("kind", list(MapKind))
@pytest.mark.parametrize("error, s_target, s_source", [
    (FormatError, CMatrix.identity(2), mat([1, 0, 0], [0, 1, 0])),  # non-square source
    (SingularMatrixError, CMatrix.identity(2), mat([1, 2], [2, 4])),
    (FormatError, mat([1, 0, 0], [0, 1, 0]), CMatrix.identity(2)),  # non-square target
])
def test_change_of_basis_rejects_bad_transitions(kind, error, s_target, s_source):
    with pytest.raises(error):
        change_of_basis(kind, mat([1, 2], [3, 4]), s_target, s_source)


def test_change_of_basis_composes():
    rng = random.Random(7)
    for kind in MapKind:
        for _ in range(20):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            a = random_matrix(rng, m, n)
            s1, s2 = random_invertible(rng, n), random_invertible(rng, n)
            t1, t2 = random_invertible(rng, m), random_invertible(rng, m)
            once = change_of_basis(kind, a, t1, s1)
            twice = change_of_basis(kind, once, t2, s2)
            assert twice == change_of_basis(kind, a, t1 @ t2, s1 @ s2)


def test_consimilar_yes_certificate():
    res = are_consimilar(gmat([(0, 1)]), mat([1]), seed=5)
    assert res.verdict is Verdict.YES
    s = res.certificate[0]
    assert s.conj().inverse() @ gmat([(0, 1)]) @ s == mat([1])


def test_consimilar_reflexive():
    m = gmat([(2, 1), (0, 3)], [(1, 1), (5, 0)])
    assert are_consimilar(m, m, seed=0).verdict is Verdict.YES


def test_consimilar_scalar_modulus_obstruction():
    res = are_consimilar(mat([1]), mat([2]), seed=0)
    assert res.verdict in (Verdict.NO, Verdict.PROBABLY_NO)


def test_consimilar_symmetric_and_transitive_on_samples():
    rng = random.Random(13)
    for _ in range(10):
        a = random_matrix(rng, 2, 2)
        s = random_invertible(rng, 2)
        r = random_invertible(rng, 2)
        b = s.conj().inverse() @ a @ s
        c = r.conj().inverse() @ b @ r
        ab = are_consimilar(a, b, seed=1)
        ba = are_consimilar(b, a, seed=2)
        ac = are_consimilar(a, c, seed=3)
        assert ab.verdict is Verdict.YES
        assert ba.verdict is Verdict.YES
        assert ac.verdict is Verdict.YES


def test_shape_errors():
    with pytest.raises(FormatError):
        apply_map(MapKind.LINEAR, mat([1, 2]), mat([1]))
    with pytest.raises(FormatError):
        compose(MapKind.LINEAR, mat([1, 2]), MapKind.LINEAR, mat([1, 2]))
    with pytest.raises(FormatError):
        are_consimilar(mat([1, 2]), mat([1, 2]))


@pytest.mark.parametrize("kind", ["semilinear", "linear", None, 1])
def test_a_kind_that_is_not_a_map_kind_is_refused(kind):
    # each map once read any kind but MapKind.SEMILINEAR as linear: with
    # m = [i] and x = [1], "semilinear" gave i, -1 and 1 below
    i, one = gmat([(0, 1)]), mat([1])
    assert apply_map(MapKind.SEMILINEAR, i, one) == gmat([(0, -1)])
    assert compose(MapKind.SEMILINEAR, i, MapKind.SEMILINEAR, i) == (MapKind.LINEAR, one)
    assert change_of_basis(MapKind.SEMILINEAR, i, i, one) == mat([-1])
    message = f"^map kind must be a MapKind, got {re.escape(repr(kind))}$"
    for call in (lambda: apply_map(kind, i, one),
                 lambda: compose(kind, i, MapKind.SEMILINEAR, i),
                 lambda: compose(MapKind.SEMILINEAR, i, kind, i),
                 lambda: change_of_basis(kind, i, i, one)):
        with pytest.raises(FormatError, match=message):
            call()


I, ONE = gmat([(0, 1)]), mat([1])


@pytest.mark.parametrize("call,what", [
    (lambda w: apply_map(MapKind.LINEAR, w, ONE), "matrix m"),
    (lambda w: apply_map(MapKind.LINEAR, I, w), "vector x"),
    (lambda w: compose(MapKind.LINEAR, w, MapKind.LINEAR, I), "matrix b"),
    (lambda w: compose(MapKind.LINEAR, I, MapKind.LINEAR, w), "matrix a"),
    (lambda w: change_of_basis(MapKind.LINEAR, w, I, ONE), "matrix m"),
    (lambda w: change_of_basis(MapKind.LINEAR, I, w, ONE), "transition s_target"),
    (lambda w: change_of_basis(MapKind.LINEAR, I, I, w), "transition s_source"),
    (lambda w: are_consimilar(w, I), "matrix a"),
    (lambda w: are_consimilar(I, w), "matrix b"),
], ids=["apply_map-m", "apply_map-x", "compose-b", "compose-a", "change_of_basis-m",
        "change_of_basis-s_target", "change_of_basis-s_source", "are_consimilar-a",
        "are_consimilar-b"])
@pytest.mark.parametrize("wrong", [[[1]], 1, None], ids=["list", "int", "none"])
def test_a_matrix_that_is_not_a_cmatrix_is_refused(call, what, wrong):
    # each of these once ended in an AttributeError on reading .cols,
    # .rows or .is_square
    with pytest.raises(FormatError, match=f"^{what} needs a CMatrix, got {re.escape(repr(wrong))}$"):
        call(wrong)
