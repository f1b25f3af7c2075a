import json
import random
import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from biquiver import (Definiteness, FormatError, PreconditionError, RepKind, TitsGram,
                      definiteness, evaluate, gram_matrix, radical_vector,
                      representation_type, roots_with_value)
from biquiver import serialize_biquiver, tits
from biquiver.cli import main
from biquiver.tits import MAX_GRAM_VERTICES
from biquiver.linalg import _integer_parts, _integral, _symmetric_ldl
from biquiver.model import Arrow, ArrowKind, Biquiver
from conftest import biq, cycle_biquiver, dynkin_and_extended, path_biquiver
from test_linalg import kernel


def F(x):
    return Fraction(x)


def integral(q):
    """q times the lcm of its denominators: an int matrix of the same inertia."""
    den = lcm(*(x.denominator for row in q for x in row))
    return tuple(tuple(int(x * den) for x in row) for row in q)


def characteristic_coefficients(q):
    """[1, c_1, ..., c_t] with p(x) = x^t + c_1 x^{t-1} + ... + c_t, by Faddeev-LeVerrier."""
    n = len(q)
    a = [[F(x) for x in row] for row in q]
    mk = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
    cs = [F(1)]
    for k in range(1, n + 1):
        am = [[sum(a[i][l] * mk[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        ck = -sum(am[i][i] for i in range(n)) / k
        cs.append(ck)
        mk = [[am[i][j] + (ck if i == j else 0) for j in range(n)] for i in range(n)]
    return cs


def faddeev_leverrier_verdict(gram: TitsGram) -> Definiteness:
    """Reference verdict from the signs of the characteristic polynomial.

    The elementary symmetric functions of the (real) eigenvalues are
    e_k = (-1)^k c_k. Q is positive semidefinite iff every e_k >= 0, and
    positive definite iff additionally e_t = det Q > 0.
    """
    es = [(-1) ** k * c for k, c in enumerate(characteristic_coefficients(gram.q))][1:]
    if any(e < 0 for e in es):
        return Definiteness.INDEFINITE
    if not es or es[-1] > 0:
        return Definiteness.POSITIVE_DEFINITE
    return Definiteness.POSITIVE_SEMIDEFINITE


def _sign_changes(coefficients):
    signs = [c > 0 for c in coefficients if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def descartes_inertia(q):
    """(n+, n-, n0) of a symmetric rational matrix by Descartes' rule of signs.

    The characteristic polynomial of a symmetric matrix has only real
    roots, and for such a polynomial the rule is exact: the sign changes of
    p(x) count its positive roots and those of p(-x) its negative ones,
    with multiplicity. The zero roots are the trailing zero coefficients.
    """
    cs = characteristic_coefficients(q)
    n = len(cs) - 1
    zero = next((k for k, c in enumerate(reversed(cs)) if c), n)
    return (_sign_changes(cs), _sign_changes([(-1) ** (n - k) * c for k, c in enumerate(cs)]),
            zero)


def oracle_pivoted_ldl(gram: TitsGram):
    """The Fraction LDL^T that `_symmetric_ldl` replaced, verbatim.

    Decompose x^T Q x = sum_k d_k (x_{p_k} + l_k . x)^2 with d_k > 0.

    Pivots on the first positive diagonal entry of the active block.
    Returns the elimination steps and the never-pivoted (kernel) indices,
    whose remaining block is zero. Returns None when Q is not positive
    semidefinite: a diagonal entry of the active block (a Schur complement)
    is negative, or no positive diagonal entry is left but the block is not
    zero.
    """
    n = gram.t
    w = [list(row) for row in gram.q]
    active = list(range(n))
    steps = []
    while True:
        if any(w[i][i] < 0 for i in active):
            return None
        p = next((i for i in active if w[i][i] > 0), None)
        if p is None:
            break
        d = w[p][p]
        lin = {j: w[p][j] / d for j in active if j != p and w[p][j]}
        steps.append((p, d, lin))
        active.remove(p)
        for i in active:
            if w[i][p]:
                f = w[i][p] / d
                for j in active:
                    w[i][j] -= f * w[p][j]
    if any(w[i][j] for i in active for j in active):
        return None
    return steps, active


def oracle_symmetric_ldl(rows) -> tuple:
    """(inertia, scale, steps, free) of a symmetric matrix Q of ints and Fractions.

    The kernel `_symmetric_ldl` as it was before it took only int matrices,
    verbatim.

    W = scale * Q, scale the lcm of the denominators, is reduced by Bareiss
    (1968) steps on the first nonzero diagonal entry d of the active block:
    w_ij becomes (d w_ij - w_ip w_pj) / prev, prev the pivot before (1 at
    first), exactly, as active entries are minors of W bordered by the
    pivots. If the active diagonal is zero but some w_ij is not, the
    congruence e_i <- e_i + e_j puts 2 w_ij on it. Neither changes the
    inertia (n+, n-, n0) of Q, counted from the signs of d / prev. Step
    (p, prev, d, lin), lin mapping each other active j to w_pj != 0, is the
    LDL^T term (d x_p + lin . x)^2 / (prev d); when n- == 0 (no congruence)
    these terms sum to x^T W x, and W vanishes on the unpivoted `free`.
    """
    n = len(rows)
    scale, flat = _integer_parts([x for row in rows for x in row])
    w = [flat[i * n:(i + 1) * n] for i in range(n)]
    active = list(range(n))
    steps = []
    positive = 0
    prev = 1
    while active:
        p = next((i for i in active if w[i][i]), None)
        if p is None:
            pair = next(((i, j) for i in active for j in active if w[i][j]), None)
            if pair is None:
                break
            p, j = pair
            for k in active:
                w[p][k] += w[j][k]
            for k in active:
                w[k][p] += w[k][j]
        d, row = w[p][p], w[p]
        positive += (d > 0) == (prev > 0)
        steps.append((p, prev, d, {j: row[j] for j in active if j != p and row[j]}))
        active.remove(p)
        for i in active:
            wi = w[i]
            f = wi[p]
            for j in active:
                wi[j] = (d * wi[j] - f * row[j]) // prev
        prev = d
    return (positive, len(steps) - positive, len(active)), scale, steps, active


def oracle_gram_q(g: Biquiver):
    """Q as `gram_matrix` built it before it stored C = 2Q, verbatim."""
    c = [[0] * g.t for _ in range(g.t)]
    for v in range(g.t):
        c[v][v] = 2
    for a in g.arrows:
        u, v = a.source - 1, a.target - 1
        if u == v:
            c[u][u] -= 2
        else:
            c[u][v] -= 1
            c[v][u] -= 1
    return tuple(tuple(x // 2 if x % 2 == 0 else Fraction(x, 2) for x in row) for row in c)


def assert_ldl_matches_oracle(gram: TitsGram) -> None:
    """The kernel's steps on C = 2Q are the oracle's on Q, with d doubled:
    its step (p, prev, d, lin) is the oracle's (p, d / prev, lin / d).
    Inertia and free indices agree with the old kernel's on Q."""
    inertia, steps, free = _symmetric_ldl(gram.c)
    old_inertia, _, _, old_free = oracle_symmetric_ldl(gram.q)
    assert (inertia, free) == (old_inertia, old_free)
    oracle = oracle_pivoted_ldl(gram)
    assert (oracle is None) == (inertia[1] > 0)
    if oracle is not None:
        oracle_steps, oracle_free = oracle
        assert [(p, Fraction(d, prev), {j: Fraction(x, d) for j, x in lin.items()})
                for p, prev, d, lin in steps] == \
            [(p, 2 * d, lin) for p, d, lin in oracle_steps]
        assert free == oracle_free
        assert inertia == (len(steps), 0, len(free))


def test_definiteness_matches_reference_on_dynkin_and_extended():
    labels = []
    for label, g in dynkin_and_extended():
        labels.append(label)
        gram = gram_matrix(g)
        want = (Definiteness.POSITIVE_SEMIDEFINITE if label.startswith("~")
                else Definiteness.POSITIVE_DEFINITE)
        assert faddeev_leverrier_verdict(gram) is want, label
        assert definiteness(gram) is want, label
        assert_ldl_matches_oracle(gram)
    assert len(labels) == len(set(labels)) == 9 + 6 + 3 + 3 + 9 + 5


def test_definiteness_matches_reference_on_random_trees():
    # the random trees of test_classify's agreement test
    rng = random.Random(9)
    for _ in range(300):
        t = rng.randint(1, 10)
        arrows = tuple(Arrow(f"e{v}", rng.randint(1, v), v + 1,
                             rng.choice((ArrowKind.FULL, ArrowKind.DASHED)))
                       for v in range(1, t))
        gram = gram_matrix(Biquiver(t, arrows))
        assert definiteness(gram) is faddeev_leverrier_verdict(gram)
        assert_ldl_matches_oracle(gram)


def _symmetric_rows(n, entries):
    """Symmetric matrix whose upper triangle is read row by row from entries."""
    q = [[F(0)] * n for _ in range(n)]
    it = iter(entries)
    for i in range(n):
        for j in range(i, n):
            q[i][j] = q[j][i] = next(it)
    return q


def _symmetric(n, entries):
    """The TitsGram whose C is that matrix scaled to ints."""
    return TitsGram(n, integral(_symmetric_rows(n, entries)))


_small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.fractions(min_value=0, max_value=3, max_denominator=4),
                       st.lists(_small_fractions, min_size=n, max_size=n)),
             min_size=0, max_size=n + 1),
    st.booleans())))
def test_definiteness_matches_reference_on_sums_of_squares(case):
    # sum c_i v_i v_i^T with c_i >= 0 is positive semidefinite, and singular
    # with fewer than n terms; negating one term usually breaks that.
    n, terms, negate_first = case
    q = [[F(0)] * n for _ in range(n)]
    for k, (c, v) in enumerate(terms):
        if negate_first and k == 0:
            c = -c
        for i in range(n):
            for j in range(n):
                q[i][j] += c * v[i] * v[j]
    gram = TitsGram(n, integral(q))
    assert definiteness(gram) is faddeev_leverrier_verdict(gram)


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(_small_fractions, min_size=n * (n + 1) // 2,
                         max_size=n * (n + 1) // 2))))
def test_definiteness_matches_reference_on_symmetric_matrices(case):
    gram = _symmetric(*case)
    assert definiteness(gram) is faddeev_leverrier_verdict(gram)


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(_small_fractions, min_size=n * (n + 1) // 2,
                         max_size=n * (n + 1) // 2),
    st.lists(st.booleans(), min_size=n, max_size=n))))
def test_inertia_matches_descartes_oracle(case):
    # zeroed diagonal entries, all of them in some draws, send the kernel
    # through its congruence step
    n, entries, zeroed = case
    q = _symmetric_rows(n, entries)
    for i in range(n):
        if zeroed[i]:
            q[i][i] = F(0)
    assert _symmetric_ldl(integral(q))[0] == descartes_inertia(q)


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(_small_fractions, min_size=n * (n + 1) // 2,
                         max_size=n * (n + 1) // 2),
    st.lists(st.booleans(), min_size=n, max_size=n))))
def test_integer_kernel_matches_old_kernel(case):
    # the int kernel on the scaled matrix against the old one on Q itself
    n, entries, zeroed = case
    q = _symmetric_rows(n, entries)
    for i in range(n):
        if zeroed[i]:
            q[i][i] = F(0)
    inertia, _, free = _symmetric_ldl(integral(q))
    old_inertia, _, _, old_free = oracle_symmetric_ldl(q)
    assert (inertia, free) == (old_inertia, old_free)


@pytest.mark.parametrize("q, inertia", [
    ([], (0, 0, 0)),
    ([[0, 1], [1, 0]], (1, 1, 0)),
    ([[0, 0], [0, 0]], (0, 0, 2)),
    ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], (1, 2, 0)),
    ([[Fraction(1, 2), 0], [0, Fraction(-1, 3)]], (1, 1, 0)),
], ids=["empty", "hyperbolic-plane", "zero", "triangle", "rational-diagonal"])
def test_inertia_examples(q, inertia):
    assert descartes_inertia(q) == inertia
    assert _symmetric_ldl(integral(q))[0] == inertia


def test_zero_diagonal_with_coupling_is_indefinite():
    # no positive pivot exists, yet the block is not zero: q = 2xy
    gram = TitsGram(2, ((0, 1), (1, 0)))
    assert faddeev_leverrier_verdict(gram) is Definiteness.INDEFINITE
    assert definiteness(gram) is Definiteness.INDEFINITE


def test_gram_of_a2():
    gram = gram_matrix(path_biquiver(2))
    assert gram.c == ((2, -1), (-1, 2))
    assert gram.q == ((F(1), F(-1) / 2), (F(-1) / 2, F(1)))


def test_gram_of_loops():
    assert gram_matrix(biq(1, "a:1>1")).q == ((F(0),),)
    assert gram_matrix(biq(1, "a:1~1", "b:1~1")).q == ((F(-1),),)


def test_gram_entries_are_ints_and_odd_halves():
    # two arrows 1 - 2, one arrow 2 - 3, a loop at 3: 2Q has -2, -1 and 0
    gram = gram_matrix(biq(3, "a:1>2", "b:2~1", "c:2>3", "l:3>3"))
    assert gram.q == ((1, -1, 0), (-1, 1, Fraction(-1, 2)), (0, Fraction(-1, 2), 0))
    kinds = [[type(x) for x in row] for row in gram.q]
    assert kinds == [[int, int, int], [int, int, Fraction], [int, Fraction, int]]
    assert gram.c == ((2, -2, 0), (-2, 2, -1), (0, -1, 0))
    assert all(type(x) is int for row in gram.c for x in row)


def test_gram_matches_the_old_fraction_gram():
    # loops, parallel arrows and both kinds; C = 2Q, and the q view is
    # exactly what gram_matrix stored before
    rng = random.Random(11)
    for _ in range(200):
        t = rng.randint(1, 6)
        arrows = tuple(
            Arrow(f"a{k}", rng.randint(1, t), rng.randint(1, t),
                  rng.choice((ArrowKind.FULL, ArrowKind.DASHED)))
            for k in range(rng.randint(0, 8)))
        g = Biquiver(t, arrows)
        gram = gram_matrix(g)
        q = oracle_gram_q(g)
        assert gram.q == q
        assert [[type(x) for x in row] for row in gram.q] == [[type(x) for x in row] for row in q]
        assert gram.c == tuple(tuple(int(2 * x) for x in row) for row in q)
        assert_ldl_matches_oracle(gram)


def test_evaluate_examples():
    assert evaluate(path_biquiver(2), (1, 1)) == 1
    assert evaluate(biq(1, "a:1>1"), (3,)) == 0
    assert evaluate(biq(2, "a:1>2", "b:2~1"), (1, 1)) == 0


def test_evaluate_length_mismatch():
    from biquiver import PreconditionError
    with pytest.raises(PreconditionError):
        evaluate(path_biquiver(2), (1, 1, 1))


def test_evaluate_matches_gram_quadratic_form():
    rng = random.Random(7)
    for _ in range(50):
        t = rng.randint(1, 4)
        arrows = tuple(
            Arrow(f"a{k}", rng.randint(1, t), rng.randint(1, t),
                  rng.choice((ArrowKind.FULL, ArrowKind.DASHED)))
            for k in range(rng.randint(0, 5)))
        g = Biquiver(t, arrows)
        gram = gram_matrix(g)
        z = [rng.randint(-6, 6) for _ in range(t)]
        via_gram = sum(z[i] * gram.q[i][j] * z[j] for i in range(t) for j in range(t))
        assert via_gram == evaluate(g, tuple(z))


def test_definiteness_examples():
    pd = TitsGram(2, ((2, -1), (-1, 2)))
    assert definiteness(pd) is Definiteness.POSITIVE_DEFINITE
    psd = TitsGram(2, ((1, -1), (-1, 1)))
    assert definiteness(psd) is Definiteness.POSITIVE_SEMIDEFINITE
    neg = TitsGram(1, ((-1,),))
    assert definiteness(neg) is Definiteness.INDEFINITE


def test_definiteness_requires_symmetry():
    with pytest.raises(FormatError):
        definiteness(TitsGram(2, ((1, 0), (1, 1))))


@pytest.mark.parametrize("gram", [
    TitsGram(3, ((1, 0), (0, 1))),                  # too few rows
    TitsGram(2, ((1, 0), (0, 1), (0, 0))),          # too many rows
    TitsGram(2, ((1, 0), (0,))),                    # ragged
    TitsGram(2, ((1.0, 0), (0, 1))),                # a float entry
    TitsGram(2, ((Fraction(1, 2), 0), (0, 1))),     # a Fraction entry: C is integral
    TitsGram(-1, ()),
    TitsGram(True, ((2,),)),                        # a bool vertex count
    TitsGram(2, ((2, False), (False, True))),       # bool entries
], ids=["short", "long", "ragged", "float", "fraction", "negative-t", "bool-t", "bool-entries"])
def test_malformed_gram_is_rejected(gram):
    with pytest.raises(FormatError):
        definiteness(gram)
    with pytest.raises(FormatError):
        radical_vector(gram)


def test_form_past_the_vertex_cap_is_refused_before_eliminating(monkeypatch):
    assert MAX_GRAM_VERTICES == 256
    at_cap = gram_matrix(path_biquiver(MAX_GRAM_VERTICES))
    assert definiteness(at_cap) is Definiteness.POSITIVE_DEFINITE
    assert radical_vector(at_cap) is None
    big = path_biquiver(MAX_GRAM_VERTICES + 1)

    def eliminate(rows):
        raise AssertionError(f"eliminated a {len(rows)} x {len(rows)} form")

    # the path's form, bordered by one isolated vertex
    c = tuple(row + (0,) for row in at_cap.c) + ((0,) * MAX_GRAM_VERTICES + (2,),)
    monkeypatch.setattr(tits, "_symmetric_ldl", eliminate)
    for refused in (lambda: gram_matrix(big),
                    lambda: definiteness(TitsGram(MAX_GRAM_VERTICES + 1, c)),
                    lambda: radical_vector(TitsGram(MAX_GRAM_VERTICES + 1, c)),
                    lambda: roots_with_value(big, 1)):
        with pytest.raises(PreconditionError, match="257 vertices, past the cap of 256"):
            refused()
    # the type, and with it classify, needs no elimination
    assert representation_type(path_biquiver(2000)).kind is RepKind.FINITE


def test_definiteness_invariant_under_kind_and_direction():
    g = biq(3, "a:1~2", "b:2>3", "c:3~1")
    base = definiteness(gram_matrix(g))
    flipped = biq(3, "a:2>1", "b:2~3", "c:1>3")
    assert definiteness(gram_matrix(flipped)) is base


def test_evaluate_refuses_entries_that_are_not_ints():
    a2 = path_biquiver(2)
    for z, shown in (((1.5, 1), "1.5"), ((True, 1), "True"), (("a", 1), "'a'"),
                     ((1, F(1)), "Fraction(1, 1)"), ((1, None), "None")):
        with pytest.raises(PreconditionError,
                           match=f"^dimension vector entry must be an int, got {re.escape(shown)}$"):
            evaluate(a2, z)
    assert evaluate(a2, (2, -1)) == 7
    assert evaluate(a2, [1, 1]) == 1


def test_evaluate_refuses_a_vector_that_is_not_a_sequence():
    a2 = path_biquiver(2)
    for z, shown in ((5, "5"), (None, "None"), ({1, 2}, "{1, 2}"), ({0: 1, 1: 1}, "{0: 1, 1: 1}"),
                     (iter((1, 1)), "<tuple_iterator object at")):
        with pytest.raises(PreconditionError,
                           match=f"^dimension vector must be a sequence of ints, got {re.escape(shown)}"):
            evaluate(a2, z)
    assert evaluate(a2, range(1, 3)) == 3


@pytest.mark.parametrize("label, g", [(label, g) for label, g in dynkin_and_extended()
                                      if label.startswith("~")],
                         ids=[label for label, _ in dynkin_and_extended() if label.startswith("~")])
def test_radical_vector_is_the_delta_read_off_the_ldl(label, g):
    gram = gram_matrix(g)
    delta = radical_vector(gram)
    assert delta is not None and min(delta) > 0
    assert delta == gram._delta == tits._null_root(TitsGram(gram.t, gram.c))


def test_psd_values_nonnegative_when_psd():
    rng = random.Random(3)
    for g in [cycle_biquiver(4), biq(1, "a:1>1"), path_biquiver(4)]:
        gram = gram_matrix(g)
        if definiteness(gram) is Definiteness.INDEFINITE:
            continue
        for _ in range(100):
            z = tuple(rng.randint(-5, 5) for _ in range(g.t))
            assert evaluate(g, z) >= 0


def test_radical_vectors():
    assert radical_vector(gram_matrix(biq(2, "a:1>2", "b:1~2"))) == (1, 1)
    assert radical_vector(gram_matrix(path_biquiver(2))) is None
    assert radical_vector(gram_matrix(biq(1, "a:1>1"))) == (1,)
    # extended D4: center 5th vertex joined to all four leaves
    d4t = biq(5, "a:1>5", "b:2>5", "c:3~5", "d:4>5")
    assert radical_vector(gram_matrix(d4t)) == (1, 1, 1, 1, 2)


def oracle_radical_vector(gram):
    """`radical_vector` as it was when the kernel returned Fraction vectors."""
    if definiteness(gram) is not Definiteness.POSITIVE_SEMIDEFINITE:
        return None
    basis = kernel(gram.c, gram.t)
    if len(basis) != 1:
        return None
    ints = _integral(basis[0])
    if all(x < 0 for x in ints):
        ints = [-x for x in ints]
    if any(x <= 0 for x in ints):
        return None
    return tuple(ints)


def test_radical_vector_matches_oracle():
    rng = random.Random(8)
    graphs = [g for _, g in dynkin_and_extended()]
    graphs += [biq(2, "a:1>2", "b:1~2", "c:2>1"), biq(3, "a:1>1", "b:2>2"), biq(2, "a:1>1")]
    for _ in range(40):
        t = rng.randint(1, 5)
        specs = [f"a{k}:{rng.randint(1, t)}>{rng.randint(1, t)}" for k in range(rng.randint(0, 5))]
        graphs.append(biq(t, *specs))
    found = 0
    for g in graphs:
        radical = radical_vector(gram_matrix(g))
        assert radical == oracle_radical_vector(gram_matrix(g))
        found += radical is not None
    assert found > 10


def test_one_elimination_per_gram(monkeypatch, tmp_path, capsys):
    # `tits` reads definiteness twice, once inside radical_vector, and
    # roots_with_value reads it before enumerating: the first biquiver on a
    # graph eliminates its form once, and a second one, with other kinds and
    # directions, finds it eliminated while the first holds it. The form is
    # ~D5, numbered so that nothing else builds it.
    eliminations = []
    real_ldl = tits._symmetric_ldl

    def counting(rows):
        eliminations.append(len(rows))
        return real_ldl(rows)

    monkeypatch.setattr(tits, "_symmetric_ldl", counting)
    first = biq(6, "a:6>2", "b:4~2", "c:2>1", "d:1~3", "e:5>1")
    second = biq(6, "a:2~6", "b:2>4", "c:1~2", "d:3>1", "e:1>5")
    held = gram_matrix(first)  # builds the form, eliminates nothing
    path = tmp_path / "d5t.json"
    path.write_text(serialize_biquiver(first))
    assert main(["tits", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["definiteness"], out["radical"]) == ("PositiveSemidefinite", [2, 2, 1, 1, 1, 1])
    assert eliminations == [6]
    assert gram_matrix(second) is held
    assert radical_vector(held) == (2, 2, 1, 1, 1, 1)
    assert roots_with_value(second, 0, 4) == [(2, 2, 1, 1, 1, 1), (4, 4, 2, 2, 2, 2)]
    assert definiteness(gram_matrix(first)) is Definiteness.POSITIVE_SEMIDEFINITE
    assert eliminations == [6]


def test_radical_of_cycles_is_all_ones():
    for r in (3, 4, 5, 6):
        assert radical_vector(gram_matrix(cycle_biquiver(r))) == (1,) * r
