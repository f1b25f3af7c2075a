import copy
import json
import pickle
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from biquiver import (CMatrix, FormatError, GaussianRational, MatrixRepresentation,
                      PreconditionError, apply_base_change, are_isomorphic, decompose,
                      direct_sum, direct_sum_list, krull_schmidt_compare, matrix_to_obj,
                      parse_representation, random_representation,
                      serialize_representation, zero_representation)
from conftest import (biq, gmat, mat, oracle_matrix_to_obj, path_biquiver,
                      random_base_change)


def loop():
    return biq(1, "a:1>1")


@pytest.mark.parametrize("dims,message", [
    ((1,), "^dimension vector has length 1, biquiver has 2 vertices$"),
    ((1, 1, 1), "^dimension vector has length 3, biquiver has 2 vertices$"),
    ((1, -1), "^dimension vector entry must be a nonnegative int, got -1$"),
    ((1.0, 1), "^dimension vector entry must be a nonnegative int, got 1.0$"),
    ((True, 1), "^dimension vector entry must be a nonnegative int, got True$"),
    ((1, "1"), "^dimension vector entry must be a nonnegative int, got '1'$"),
    (5, "^dimension vector must be a sequence of ints, got 5$"),
], ids=["short", "long", "negative", "float", "bool", "str", "int"])
def test_a_bad_dimension_vector_is_refused_before_any_matrix(dims, message):
    # zero_representation checks dims as MatrixRepresentation does, before
    # it indexes dims to build the zero matrices
    g = path_biquiver(2)
    with pytest.raises(FormatError, match=message):
        zero_representation(g, dims)
    with pytest.raises(FormatError, match=message):
        MatrixRepresentation(g, dims, {"e1": CMatrix.zero(1, 1)})
    assert zero_representation(g, [2, 0]).dims == (2, 0)


def test_dims_given_as_a_list_are_stored_as_a_tuple():
    # a list once stayed a list: equal representations then compared unequal,
    # are_isomorphic certified No, and decompose failed its own certificate
    g = path_biquiver(2)
    m = {"e1": CMatrix.identity(1)}
    a, b = MatrixRepresentation(g, [1, 1], m), MatrixRepresentation(g, (1, 1), m)
    assert a.dims == (1, 1) and type(a.dims) is tuple and a == b
    assert are_isomorphic(a, b)
    assert decompose(a).summands == (b,)
    assert krull_schmidt_compare([a], [b]) is not None


def test_a_representation_keeps_its_own_matrices():
    # the caller's dict was once kept: an edit to it after the checks made a
    # representation that its own document and decompose refused
    g = path_biquiver(2)
    m = {"e1": CMatrix.identity(1)}
    r = MatrixRepresentation(g, (1, 1), m)
    m["e1"] = CMatrix.zero(3, 3)
    assert r.matrices == {"e1": CMatrix.identity(1)}
    assert parse_representation(serialize_representation(r)) == r
    assert decompose(r).summands == (r,)


def test_a_representation_is_a_hashable_value():
    # hash once raised TypeError on the matrices dict, so a representation
    # could be neither a set member nor a dict key
    g = path_biquiver(2)
    a = MatrixRepresentation(g, (1, 1), {"e1": mat([2])})
    b = MatrixRepresentation(g, [1, 1], {"e1": mat([2])})
    c = MatrixRepresentation(g, (1, 1), {"e1": mat([3])})
    assert a == b and hash(a) == hash(b)
    assert {a, b, c} == {a, c} and len({a, b, c}) == 2
    assert {a: "first"}[b] == "first"


def test_the_matrices_of_a_representation_are_read_only():
    # an assignment once succeeded, and a later decompose then failed with a
    # FormatError about a matrix of the wrong shape
    g = path_biquiver(2)
    r = MatrixRepresentation(g, (1, 1), {"e1": CMatrix.identity(1)})
    with pytest.raises(TypeError):
        r.matrices["e1"] = CMatrix.zero(3, 3)
    with pytest.raises(TypeError):
        del r.matrices["e1"]
    assert r.matrices == {"e1": CMatrix.identity(1)}
    assert decompose(r).summands == (r,)


def test_a_pickled_or_copied_representation_is_rebuilt_by_the_constructor(monkeypatch):
    g = biq(2, "a:1>2", "b:2~2")
    r = random_representation(g, (2, 1), 3, 4)
    built = []
    check = MatrixRepresentation.__post_init__
    monkeypatch.setattr(MatrixRepresentation, "__post_init__",
                        lambda self: built.append(check(self)))
    copies = [pickle.loads(pickle.dumps(r)), copy.deepcopy(r), copy.copy(r)]
    assert len(built) == 3
    for back in copies:
        assert back == r and hash(back) == hash(r) and back is not r
        with pytest.raises(TypeError):
            back.matrices["a"] = CMatrix.zero(1, 2)


@pytest.mark.parametrize("matrices", [5, None, [["e1", 1]]], ids=["int", "none", "list"])
def test_matrices_that_are_not_a_mapping_are_refused(matrices):
    with pytest.raises(FormatError, match="^representation matrices needs a Mapping, got "):
        MatrixRepresentation(path_biquiver(2), (1, 1), matrices)


@pytest.mark.parametrize("matrix", [[[1]], "1", 1], ids=["list", "str", "int"])
def test_a_matrix_that_is_not_a_cmatrix_is_refused(matrix):
    with pytest.raises(FormatError, match="^arrow 'e1' needs a CMatrix, got "):
        MatrixRepresentation(path_biquiver(2), (1, 1), {"e1": matrix})


def test_shape_validation():
    g = path_biquiver(2)
    MatrixRepresentation(g, (1, 2), {"e1": mat([1], [0])})
    with pytest.raises(FormatError):
        MatrixRepresentation(g, (1, 2), {"e1": mat([1, 0])})
    with pytest.raises(FormatError):
        MatrixRepresentation(g, (1, 2), {})
    with pytest.raises(FormatError):
        MatrixRepresentation(g, (1, 2), {"e1": mat([1], [0]), "zz": mat([1])})


def test_direct_sum_blocks():
    a = MatrixRepresentation(loop(), (1,), {"a": mat([1])})
    b = MatrixRepresentation(loop(), (1,), {"a": mat([2])})
    s = direct_sum(a, b)
    assert s.dims == (2,)
    assert s.matrices["a"] == mat([1, 0], [0, 2])


def test_direct_sum_with_zero_dimensional():
    a = MatrixRepresentation(loop(), (2,), {"a": mat([1, 2], [3, 4])})
    z = zero_representation(loop())
    assert direct_sum(a, z) == a
    assert direct_sum(z, a) == a


def test_direct_sum_of_simples_on_a2():
    g = path_biquiver(2)
    s1 = MatrixRepresentation(g, (1, 0), {"e1": CMatrix.zero(0, 1)})
    s2 = MatrixRepresentation(g, (0, 1), {"e1": CMatrix.zero(1, 0)})
    s = direct_sum(s1, s2)
    assert s.dims == (1, 1)
    assert s.matrices["e1"] == CMatrix.zero(1, 1)


def test_direct_sum_requires_same_biquiver():
    a = zero_representation(loop())
    b = zero_representation(path_biquiver(2))
    with pytest.raises(PreconditionError):
        direct_sum(a, b)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
def test_direct_sum_list_equals_a_fold_of_direct_sum(k):
    # full and dashed arrows and a loop, summands with zero-dimensional vertices and
    # entries over several denominators
    g = biq(3, "a:1>2", "b:3~2", "c:2~2")
    rng = random.Random(k)
    summands = [random_representation(g, tuple(rng.randint(0, 2) for _ in range(3)), 3,
                                      rng.randrange(10 ** 6)) for _ in range(k)]
    assert direct_sum_list(g, summands) == reduce(direct_sum, summands, zero_representation(g))


def test_direct_sum_list_requires_same_biquiver():
    a, other = zero_representation(loop(), (1,)), zero_representation(path_biquiver(2), (1, 1))
    for summands in ([other], [a, other], [a, a, other, a]):
        with pytest.raises(PreconditionError,
                           match="^direct sum needs representations of the same biquiver$"):
            direct_sum_list(loop(), summands)
    with pytest.raises(PreconditionError,
                       match="^direct sum needs representations of the same biquiver$"):
        direct_sum(a, other)


def test_base_change_identity():
    a = MatrixRepresentation(loop(), (2,), {"a": gmat([(1, 1), (0, 2)], [(0, 0), (3, 0)])})
    assert apply_base_change(a, [CMatrix.identity(2)]) == a


def test_base_change_dashed_loop_consimilarity():
    g = biq(1, "a:1~1")
    a = MatrixRepresentation(g, (1,), {"a": gmat([(0, 1)])})
    out = apply_base_change(a, [gmat([(1, -1)])])
    assert out.matrices["a"] == mat([1])


def test_base_change_full_arrow_scalars():
    g = path_biquiver(2)
    a = MatrixRepresentation(g, (1, 1), {"e1": mat([1])})
    out = apply_base_change(a, [mat([2]), mat([3])])
    from fractions import Fraction
    assert out.matrices["e1"] == CMatrix.from_rows([[Fraction(2, 3)]])


def test_base_change_rejects_singular_or_missized():
    a = MatrixRepresentation(loop(), (2,), {"a": CMatrix.identity(2)})
    with pytest.raises(PreconditionError):
        apply_base_change(a, [mat([1, 0], [0, 0])])
    with pytest.raises(PreconditionError):
        apply_base_change(a, [CMatrix.identity(1)])


@pytest.mark.parametrize("s,message", [
    ([1, 1], "^transition matrix at vertex 1 needs a CMatrix, got 1$"),
    ([CMatrix.identity(1), [[1]]],
     r"^transition matrix at vertex 2 needs a CMatrix, got \[\[1\]\]$"),
], ids=["ints", "list"])
def test_base_change_refuses_a_transition_that_is_not_a_cmatrix(s, message):
    # [1, 1] once ended in an AttributeError on reading m.rows
    a = MatrixRepresentation(path_biquiver(2), (1, 1), {"e1": mat([1])})
    with pytest.raises(FormatError, match=message):
        apply_base_change(a, s)


@pytest.mark.parametrize("s", [5, None], ids=["int", "none"])
def test_base_change_refuses_transitions_that_are_not_a_list(s):
    # these once ended in a TypeError from taking their length
    a = MatrixRepresentation(path_biquiver(2), (1, 1), {"e1": mat([1])})
    with pytest.raises(PreconditionError, match=f"^transition matrices must be a list, got {s}$"):
        apply_base_change(a, s)
    assert apply_base_change(a, (mat([2]), mat([1]))) == apply_base_change(a, [mat([2]), mat([1])])


def test_random_representation_deterministic():
    g = biq(3, "a:1>2", "b:2~3", "c:3>1")
    one = random_representation(g, (2, 1, 2), entry_bound=3, seed=42)
    two = random_representation(g, (2, 1, 2), entry_bound=3, seed=42)
    other = random_representation(g, (2, 1, 2), entry_bound=3, seed=43)
    assert one == two
    assert one != other


def oracle_random_representation(g, dims, entry_bound, seed):
    """`random_representation` as it was when it built each entry as a GaussianRational of
    two Fractions and each matrix through `CMatrix(...)`: the same draws in the same order."""
    rng = random.Random(seed)

    def entry():
        re = Fraction(rng.randint(-entry_bound, entry_bound), rng.randint(1, entry_bound))
        im = Fraction(rng.randint(-entry_bound, entry_bound), rng.randint(1, entry_bound))
        return GaussianRational(re, im)

    mats = {}
    for a in g.arrows:
        r, c = dims[a.target - 1], dims[a.source - 1]
        mats[a.id] = CMatrix(r, c, tuple(entry() for _ in range(r * c)))
    return MatrixRepresentation(g, tuple(dims), mats)


def test_random_representation_matches_the_gaussian_rational_construction():
    # loops, dashed and parallel arrows, zero dimensions, and every entry bound
    # from 1 to 7, where unreduced draws such as 2/4 and 6/6 are common
    shapes = [biq(1, "a:1>1"), biq(1, "a:1~1", "b:1>1"), biq(2, "a:1>2", "b:2~1", "c:2~2"),
              biq(3, "a:1>2", "b:2~3", "c:3>1", "d:1~3"), biq(3, "a:1~2", "b:1~2")]
    rng = random.Random(7)
    for draw in range(300):
        g = rng.choice(shapes)
        dims = tuple(rng.randint(0, 3) for _ in range(g.t))
        bound, seed = draw % 7 + 1, rng.randrange(10 ** 6)
        assert random_representation(g, dims, bound, seed) == \
            oracle_random_representation(g, dims, bound, seed)
    zero = biq(2, "a:1>2", "l:2~2")
    for dims in [(0, 0), (0, 2), (3, 0)]:
        assert random_representation(zero, dims, 4, 5) == \
            oracle_random_representation(zero, dims, 4, 5)


def test_random_representation_zero_dims_and_pool():
    g = path_biquiver(2)
    r = random_representation(g, (0, 2), entry_bound=1, seed=0)
    assert r.matrices["e1"].rows == 2 and r.matrices["e1"].cols == 0
    r2 = random_representation(biq(1, "a:1>1"), (3,), entry_bound=1, seed=9)
    allowed = {-1, 0, 1}
    for e in r2.matrices["a"].entries:
        assert e.re.numerator in allowed and e.re.denominator == 1
        assert e.im.numerator in allowed and e.im.denominator == 1


def test_random_representation_refuses_past_the_cap(monkeypatch):
    import biquiver.representation as representation
    monkeypatch.setattr(representation, "MAX_RANDOM_ENTRIES", 12)
    # 2 x 2 for the loop plus 2 x 4 for the arrow: 12 entries, at the cap
    g = biq(2, "l:1>1", "a:1~2")
    assert random_representation(g, (2, 4), entry_bound=2, seed=1).dims == (2, 4)
    drawn = []
    monkeypatch.setattr(representation.random.Random, "randint",
                        lambda self, a, b: drawn.append((a, b)))
    for dims in [(2, 5), (-4, 2)]:  # a negative dimension offsets nothing
        with pytest.raises(PreconditionError, match="cap"):
            random_representation(g, dims, entry_bound=2, seed=1)
    assert drawn == []


@pytest.mark.parametrize("dims,entry_bound,error,message", [
    ((1, 1), 1.5, PreconditionError, "^entry_bound must be a positive int, got 1.5$"),
    ((1, 1), "2", PreconditionError, "^entry_bound must be a positive int, got '2'$"),
    ((1, 1), True, PreconditionError, "^entry_bound must be a positive int, got True$"),
    ((1, 1), 0, PreconditionError, "^entry_bound must be a positive int, got 0$"),
    ((1,), 2, PreconditionError, "^dimension vector has length 1, biquiver has 2 vertices$"),
    ((1.5, 1), 2, FormatError, "^dimension vector entry must be an int, got 1.5$"),
    (("1", 1), 2, FormatError, "^dimension vector entry must be an int, got '1'$"),
    ((1, True), 2, FormatError, "^dimension vector entry must be an int, got True$"),
    ((-1, 1), 2, FormatError, "^dimension vector entry must be a nonnegative int, got -1$"),
    (5, 2, PreconditionError, "^dimension vector must be a sequence of ints, got 5$"),
], ids=["float bound", "str bound", "bool bound", "zero bound", "short dims", "float dim",
        "str dim", "bool dim", "negative dim", "int dims"])
def test_random_representation_checks_its_inputs_before_drawing(
        monkeypatch, dims, entry_bound, error, message):
    import biquiver.representation as representation
    drawn = []
    monkeypatch.setattr(representation.random.Random, "randint",
                        lambda self, a, b: drawn.append((a, b)))
    with pytest.raises(error, match=message):
        random_representation(path_biquiver(2), dims, entry_bound=entry_bound, seed=1)
    assert drawn == []


def test_representation_json_round_trip():
    g = biq(2, "a:1~2", "b:2>2")
    rep = random_representation(g, (1, 2), entry_bound=5, seed=7)
    text = serialize_representation(rep)
    back = parse_representation(text)
    assert back == rep
    # and with the biquiver supplied externally
    back2 = parse_representation(text, g)
    assert back2 == rep


def test_representation_json_zero_dims():
    g = path_biquiver(2)
    rep = MatrixRepresentation(g, (0, 1), {"e1": CMatrix.zero(1, 0)})
    assert parse_representation(serialize_representation(rep)) == rep


def test_parse_rejects_bad_documents():
    g = loop()
    with pytest.raises(FormatError):
        parse_representation('{"dims":[1],"matrices":{}}', g)
    with pytest.raises(FormatError):
        parse_representation(
            '{"dims":[1],"matrices":{"a":[[["1","0"]]],"x":[[["1","0"]]]}}', g)
    with pytest.raises(FormatError):
        parse_representation('{"dims":[1],"matrices":{"a":[[["0.5","0"]]]}}', g)
    with pytest.raises(FormatError):
        parse_representation('{"dims":[2],"matrices":{"a":[[["1","0"]]]}}', g)
    with pytest.raises(FormatError):
        parse_representation('{"dims":[1],"matrices":{"a":[[["1","0"]]]}}')


def test_base_change_composition_is_isomorphism_shape():
    rng = random.Random(3)
    g = biq(2, "a:1~2", "b:2>1")
    rep = random_representation(g, (2, 2), entry_bound=2, seed=1)
    scrambled = random_base_change(rng, rep)
    assert scrambled.dims == rep.dims
    assert scrambled.biquiver == rep.biquiver


# zero, negative and long parts over denominators from 1 to 60 digits
_parts = st.one_of(st.just(0), st.integers(-10 ** 60, 10 ** 60), st.integers(-9, 9))
_fractions = st.builds(Fraction, _parts, st.one_of(st.just(1), st.integers(1, 10 ** 60),
                                                   st.integers(1, 12)))


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    entries = draw(st.lists(st.builds(GaussianRational, _fractions, _fractions),
                            min_size=rows * cols, max_size=rows * cols))
    return CMatrix(rows, cols, entries)


@settings(deadline=None, max_examples=300)
@given(matrices())
@example(CMatrix.zero(0, 3))
@example(CMatrix.zero(3, 0))
@example(mat([0, -1], [Fraction(-3, 4), Fraction(10 ** 59 + 1, 10 ** 60)]))
def test_matrix_to_obj_matches_the_fraction_path(m):
    fast, slow = matrix_to_obj(m), oracle_matrix_to_obj(m)
    assert json.dumps(fast) == json.dumps(slow)
    assert fast == slow
