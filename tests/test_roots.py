import ast
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import inf, isqrt, lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import biquiver
from biquiver import (Arrow, ArrowKind, Biquiver, Definiteness, PreconditionError,
                      TitsGram, definiteness, evaluate, gram_matrix,
                      positive_root_count, radical_vector, roots_with_value)
from biquiver.model import DimensionVector
from biquiver.roots import (MAX_BOX_CANDIDATES, MAX_ROOTS, _check_box, _close_simple_roots,
                            _enumerate_box, _keep, _null_roots)
from biquiver.tits import _null_root
from conftest import (biq, cycle_biquiver, dynkin_and_extended, path_biquiver,
                      star_biquiver)
from test_tits import oracle_symmetric_ldl


def brute_force_roots(g, value, bound):
    """Independent vectorized box search over 0..bound per coordinate."""
    t = g.t
    if t == 1:
        loops = sum(1 for a in g.arrows if a.is_loop)
        return [(z,) for z in range(1, bound + 1) if z * z * (1 - loops) == value]
    rest = np.indices((bound + 1,) * (t - 1), dtype=np.int32).reshape(t - 1, -1)
    found = []
    for z1 in range(bound + 1):
        cols = np.vstack([np.full((1, rest.shape[1]), z1, dtype=np.int32), rest])
        q = (cols.astype(np.int64) ** 2).sum(axis=0)
        for a in g.arrows:
            q = q - cols[a.source - 1].astype(np.int64) * cols[a.target - 1]
        mask = (q == value) & (cols.sum(axis=0) > 0)
        found.extend(tuple(int(x) for x in col) for col in cols[:, mask].T)
    return sorted(found)


def test_a2_roots():
    assert roots_with_value(path_biquiver(2), 1) == [(0, 1), (1, 0), (1, 1)]


def test_tame_radical_multiples():
    g = biq(2, "a:1>2", "b:2~1")
    assert roots_with_value(g, 0, bound=3) == [(1, 1), (2, 2), (3, 3)]


def test_full_loop_has_no_value_one_roots():
    assert roots_with_value(biq(1, "a:1>1"), 1, bound=3) == []
    assert roots_with_value(biq(1, "a:1>1"), 0, bound=3) == [(1,), (2,), (3,)]


def test_matches_brute_force_on_dynkin():
    for g, bound in [(path_biquiver(4), 2), (star_biquiver([1, 1, 1]), 3),
                     (star_biquiver([1, 2, 2]), 4)]:
        assert roots_with_value(g, 1) == brute_force_roots(g, 1, bound)


def test_matches_brute_force_on_tame_and_wild():
    tame = cycle_biquiver(4, dashed=(2,))
    assert roots_with_value(tame, 1, bound=3) == brute_force_roots(tame, 1, 3)
    assert roots_with_value(tame, 0, bound=3) == brute_force_roots(tame, 0, 3)
    wild = biq(2, "l:1~1", "a:1>2")
    for value in (0, 1):
        assert roots_with_value(wild, value, bound=4) == brute_force_roots(wild, value, 4)


def test_definite_enumeration_is_bound_independent():
    g = star_biquiver([1, 1, 2])  # D5
    complete = roots_with_value(g, 1)
    assert complete == brute_force_roots(g, 1, 2)
    assert complete == brute_force_roots(g, 1, 5)


# counts pre-verified against brute_force_roots with the coordinate bounds
# 1 (A), 2 (D), 3/4/6 (E6/E7/E8) on the highest root
FROZEN_COUNTS = {
    "A": {t: t * (t + 1) // 2 for t in range(1, 9)},
    "D": {t: t * (t - 1) for t in range(4, 9)},
    "E": {6: 36, 7: 63, 8: 120},
}


def test_positive_root_counts_frozen():
    for t, want in FROZEN_COUNTS["A"].items():
        assert positive_root_count(path_biquiver(t)) == want
    for t, want in FROZEN_COUNTS["D"].items():
        assert positive_root_count(star_biquiver([1, 1, t - 3])) == want
    for n, want in FROZEN_COUNTS["E"].items():
        assert positive_root_count(star_biquiver([1, 2, n - 4])) == want


def test_live_oracle_agreement_small():
    assert positive_root_count(path_biquiver(5)) == len(brute_force_roots(path_biquiver(5), 1, 1))
    d4 = star_biquiver([1, 1, 1])
    assert positive_root_count(d4) == len(brute_force_roots(d4, 1, 2))


def test_root_count_requires_finite_type():
    with pytest.raises(PreconditionError):
        positive_root_count(cycle_biquiver(3))


def test_nondefinite_requires_bound():
    with pytest.raises(PreconditionError):
        roots_with_value(cycle_biquiver(3), 0)
    with pytest.raises(PreconditionError):
        roots_with_value(biq(1, "a:1>1", "b:1~1"), 1)


def test_negative_bound_rejected():
    with pytest.raises(PreconditionError, match="bound"):
        roots_with_value(cycle_biquiver(3), 1, bound=-1)
    # also where a definite form would ignore the bound
    with pytest.raises(PreconditionError, match="bound"):
        roots_with_value(path_biquiver(2), 1, bound=-1)


def test_bound_of_another_type_rejected():
    # ~A1, an indefinite form and A2, where a definite form would ignore the bound
    for g in (biq(2, "a:1>2", "b:2~1"), biq(2, "l:1~1", "a:1>2"), path_biquiver(2)):
        for value in (0, 1):
            for bound in (2.0, "2", True, False, [2]):
                with pytest.raises(PreconditionError, match="bound must be a nonnegative int"):
                    roots_with_value(g, value, bound)


def test_value_of_another_type_rejected():
    # A2 (definite), ~A1 (semidefinite) and an indefinite form
    for g in (path_biquiver(2), biq(2, "a:1>2", "b:2~1"), biq(2, "l:1~1", "a:1>2")):
        for value in (True, False, 1.0, 0.0, "1", None, 2):
            with pytest.raises(PreconditionError, match="^value must be 0 or 1, got "):
                roots_with_value(g, value, 2)


def test_root_check_survives_optimize_flag():
    # python -O strips assert statements; the final q check must still raise.
    code = textwrap.dedent("""
        import biquiver.roots as roots
        from biquiver import Arrow, ArrowKind, Biquiver
        roots.evaluate = lambda g, z: 7
        try:
            roots.roots_with_value(Biquiver(2, (Arrow("a", 1, 2, ArrowKind.FULL),)), 1)
        except AssertionError as e:
            print("raised:", e)
        else:
            print("returned")
    """)
    src = str(Path(biquiver.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.startswith("raised:"), proc.stdout


def test_package_has_no_assert_statements():
    # python -O strips them, so every check in the package raises explicitly
    package = Path(biquiver.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert len(list(package.glob("*.py"))) > 10
    assert found == []


def test_disconnected_rejected():
    g = Biquiver(3, path_biquiver(2).arrows)
    with pytest.raises(PreconditionError):
        roots_with_value(g, 1)


def test_roots_invariant_under_kinds_and_directions():
    rng = random.Random(4)
    g = star_biquiver([1, 1, 1])
    base = roots_with_value(g, 1)
    for _ in range(5):
        arrows = []
        for a in g.arrows:
            u, v = (a.source, a.target) if rng.random() < 0.5 else (a.target, a.source)
            arrows.append(Arrow(a.id, u, v, rng.choice((ArrowKind.FULL, ArrowKind.DASHED))))
        assert roots_with_value(Biquiver(g.t, tuple(arrows)), 1) == base


def test_extended_roots_are_radical_multiples():
    for g in [cycle_biquiver(3), star_biquiver([1, 1, 1, 1]), star_biquiver([2, 2, 2])]:
        delta = radical_vector(gram_matrix(g))
        bound = 3 * max(delta)
        expected = sorted(tuple(k * d for d in delta) for k in range(1, 4))
        got = roots_with_value(g, 0, bound=bound)
        assert [z for z in got if max(z) <= bound] == expected


def test_output_sorted_and_valid():
    g = star_biquiver([1, 2, 2])
    roots = roots_with_value(g, 1)
    assert roots == sorted(roots)
    assert all(evaluate(g, z) == 1 for z in roots)


# -- the sum-of-squares search, the root system's oracle ---------------------

def _enumerate_sos(gram: TitsGram, value: int, bound: int | None):
    """The z >= 0 with q(z) = value, coordinates past `bound` excluded.

    Results keep the order of the full search: ascending in each kernel
    direction, outermost first, then in each pivot from steps[-1] in to
    steps[0]. The search's last step, steps[0], is solved instead of
    looped over; at most two of its values fit, and they are emitted in
    ascending order, so that order is kept.
    """
    _, steps, free = gram.ldl
    # Step k contributes (d z_p + c)^2 / (prev d), and every prev d > 0 as
    # n- == 0 here; scaled by m = lcm(prev d) the squares sum to
    # m * 2q with the integer weights m / (prev d).
    m = lcm(*(prev * d for _, prev, d, _ in steps))
    weights = [m // (prev * d) for _, prev, d, _ in steps]
    lins = [tuple(lin.items()) for _, _, _, lin in steps]
    target = 2 * value * m
    cap = inf if bound is None else bound
    n = gram.t
    z = [0] * n
    results: list[DimensionVector] = []

    def assign_pivots(k: int, spent: int) -> None:
        p, _, d, _ = steps[k]
        weight = weights[k]
        c = 0
        for j, x in lins[k]:
            c += x * z[j]
        if k == 0:
            # the search's last step: weight (d z + c)^2 == target - spent,
            # so d z + c = -s or s with d > 0, the smaller root first
            square, r = divmod(target - spent, weight)
            s = isqrt(square)
            if r or s * s != square:
                return
            for w in ((-s - c, s - c) if s else (-c,)):
                val, r = divmod(w, d)
                if not r and 0 <= val <= cap:
                    z[p] = val
                    _keep(results, z)
            z[p] = 0
            return
        # the z >= 0 with weight (d z + c)^2 <= target - spent; each choice
        # keeps spent <= target
        w_max = isqrt((target - spent) // weight)
        lo, hi = max(-((w_max + c) // d), 0), (w_max - c) // d
        if hi > cap:
            hi = cap
        for val in range(lo, hi + 1):
            z[p] = val
            assign_pivots(k - 1, spent + (d * val + c) ** 2 * weight)
        z[p] = 0

    def assign_free(i: int) -> None:
        if i == len(free):
            if steps:
                assign_pivots(len(steps) - 1, 0)
            elif target == 0:
                _keep(results, z)
            return
        for val in range(bound + 1):
            z[free[i]] = val
            assign_free(i + 1)
        z[free[i]] = 0

    if free and bound is None:
        raise PreconditionError("kernel directions require an explicit bound")
    _check_box(bound, len(free), "the form is semidefinite; a search of its kernel directions")
    assign_free(0)
    return results


# -- enumeration against the Fraction and looping searches it replaced -------

def oracle_enumerate_sos(gram, value, bound):
    """The Fraction-budget `_enumerate_sos` that the integer one replaced, verbatim,
    on the old kernel's steps for Q."""
    _, scale, steps, free = oracle_symmetric_ldl(gram.q)
    target = value * scale  # the steps' squares sum to scale * q
    n = gram.t
    z = [0] * n
    results = []

    def assign_pivots(k: int, spent: Fraction) -> None:
        if k < 0:
            if spent == target:
                results.append(tuple(z))
            return
        p, prev, d, lin = steps[k]
        c = sum(x * z[j] for j, x in lin.items())
        budget = (target - spent) * prev * d
        if budget < 0:
            return
        # the z >= 0 with (d z + c)^2 <= budget
        w_max = isqrt(budget.numerator // budget.denominator)
        lo, hi = max(-((w_max + c) // d), 0), (w_max - c) // d
        if bound is not None:
            hi = min(hi, bound)
        for val in range(lo, hi + 1):
            z[p] = val
            assign_pivots(k - 1, spent + Fraction((d * val + c) ** 2, prev * d))
        z[p] = 0

    def assign_free(i: int) -> None:
        if i == len(free):
            assign_pivots(len(steps) - 1, Fraction(0))
            return
        for val in range(bound + 1):
            z[free[i]] = val
            assign_free(i + 1)
        z[free[i]] = 0

    if free and bound is None:
        raise PreconditionError("kernel directions require an explicit bound")
    assign_free(0)
    return results


def oracle_search_sos(gram, value, bound):
    """The integer `_enumerate_sos` that searched its last LDL step, verbatim."""
    _, steps, free = gram.ldl
    # Step k contributes (d z_p + c)^2 / (prev d), and every prev d > 0 as
    # n- == 0 here; scaled by m = lcm(prev d) the squares sum to
    # m * 2q with the integer weights m / (prev d).
    m = lcm(*(prev * d for _, prev, d, _ in steps))
    weights = [m // (prev * d) for _, prev, d, _ in steps]
    target = 2 * value * m
    n = gram.t
    z = [0] * n
    results = []

    def assign_pivots(k: int, spent: int) -> None:
        if k < 0:
            if spent == target:
                _keep(results, z)
            return
        p, _, d, lin = steps[k]
        weight = weights[k]
        c = sum(x * z[j] for j, x in lin.items())
        # the z >= 0 with weight (d z + c)^2 <= target - spent; each choice
        # keeps spent <= target
        w_max = isqrt((target - spent) // weight)
        lo, hi = max(-((w_max + c) // d), 0), (w_max - c) // d
        if bound is not None:
            hi = min(hi, bound)
        for val in range(lo, hi + 1):
            z[p] = val
            assign_pivots(k - 1, spent + (d * val + c) ** 2 * weight)
        z[p] = 0

    def assign_free(i: int) -> None:
        if i == len(free):
            assign_pivots(len(steps) - 1, 0)
            return
        for val in range(bound + 1):
            z[free[i]] = val
            assign_free(i + 1)
        z[free[i]] = 0

    if free and bound is None:
        raise PreconditionError("kernel directions require an explicit bound")
    _check_box(bound, len(free), "the form is semidefinite; a search of its kernel directions")
    assign_free(0)
    return results


def oracle_enumerate_box(gram, value, bound):
    """The `_enumerate_box` that searched its last coordinate, verbatim."""
    # q(z) = sum_i (c_ii / 2) z_i^2 + sum_{j < i} c_ij z_i z_j, c_ii = 2 q_ii even
    n = gram.t
    diag = [gram.c[i][i] // 2 for i in range(n)]
    cross = [[-gram.c[i][j] for j in range(i)] for i in range(n)]
    z = [0] * n
    results = []

    def rec(i: int, partial: int) -> None:
        if i == n:
            if partial == value:
                _keep(results, z)
            return
        row = cross[i]
        mixed = sum(row[j] * z[j] for j in range(i))
        for val in range(bound + 1):
            z[i] = val
            rec(i + 1, partial + diag[i] * val * val - mixed * val)
        z[i] = 0

    rec(0, 0)
    return results


@pytest.mark.parametrize("label, g", list(dynkin_and_extended()),
                         ids=[label for label, _ in dynkin_and_extended()])
def test_integer_enumeration_matches_fraction_oracle(label, g):
    gram = gram_matrix(g)
    bounds = list(range(7))
    if not label.startswith("~"):  # positive definite: the bound is optional
        bounds.append(None)
    for value in (0, 1):
        for bound in bounds:
            got = _enumerate_sos(gram, value, bound)
            assert got == oracle_enumerate_sos(gram, value, bound), (value, bound)
            assert got == oracle_search_sos(gram, value, bound), (value, bound)


@st.composite
def connected_biquivers(draw):
    """A spanning tree on 1-6 vertices plus up to 2 arrows, loops and
    parallel arrows included, each arrow of either kind and direction."""
    t = draw(st.integers(1, 6))
    ends = [(draw(st.integers(1, v - 1)), v) for v in range(2, t + 1)]
    ends += draw(st.lists(st.tuples(st.integers(1, t), st.integers(1, t)), max_size=2))
    arrows = []
    for k, (u, v) in enumerate(ends):
        if draw(st.booleans()):
            u, v = v, u
        kind = draw(st.sampled_from((ArrowKind.FULL, ArrowKind.DASHED)))
        arrows.append(Arrow(f"a{k}", u, v, kind))
    return Biquiver(t, tuple(arrows))


@settings(deadline=None, max_examples=60)
@given(connected_biquivers(), st.sampled_from((0, 1)), st.integers(0, 3))
def test_integer_enumeration_matches_oracle_on_random_biquivers(g, value, bound):
    gram = gram_matrix(g)
    # the box search serves indefinite forms but accepts any; loops make
    # c_ii / 2 zero or negative
    assert _enumerate_box(gram, value, bound) == oracle_enumerate_box(gram, value, bound)
    verdict = definiteness(gram)
    if verdict is Definiteness.INDEFINITE:
        return  # no sum of squares exists
    bounds = [bound, None] if verdict is Definiteness.POSITIVE_DEFINITE else [bound]
    for b in bounds:
        got = _enumerate_sos(gram, value, b)
        assert got == oracle_enumerate_sos(gram, value, b)
        assert got == oracle_search_sos(gram, value, b)


def test_solved_searches_match_oracles_on_degenerate_forms():
    zero = TitsGram(2, ((0, 0), (0, 0)))  # two kernel directions, no LDL step
    empty = TitsGram(0, ())
    # last box coordinate with c_ii / 2 = -1 and two roots (z = (1, 1), (1, 2)
    # at value 1), then 0 with and without cross terms
    negative = TitsGram(2, ((-2, 3), (3, -2)))
    flat = TitsGram(2, ((2, -3), (-3, 0)))
    loose = TitsGram(2, ((-2, 0), (0, 0)))
    for value in (0, 1):
        for bound in range(5):
            for gram in (zero, empty):
                assert _enumerate_sos(gram, value, bound) == oracle_search_sos(gram, value, bound)
            for gram in (zero, empty, negative, flat, loose):
                assert (_enumerate_box(gram, value, bound)
                        == oracle_enumerate_box(gram, value, bound)), (gram, value, bound)


# -- the root system against the searches it replaced ------------------------

def searched(search, gram, value, bound):
    """A search's nonzero solutions in lexicographic order."""
    return sorted(z for z in search(gram, value, bound) if any(z))


def assert_root_system_matches_searches(g, bounds):
    """The closure (definite), or the null roots and the real roots of
    `roots_with_value` (semidefinite), equal what `_enumerate_sos` and both
    oracles find at each bound; the closure also equals the unbounded
    searches, and is refused nothing at value 0."""
    searches = (_enumerate_sos, oracle_enumerate_sos, oracle_search_sos)
    gram = gram_matrix(g)
    verdict = definiteness(gram)
    if verdict is Definiteness.POSITIVE_DEFINITE:
        roots = _close_simple_roots(gram)
        for search in searches:
            assert roots == searched(search, gram, 1, None)
            assert searched(search, gram, 0, None) == []
        for bound in bounds:
            capped = [z for z in roots if max(z) <= bound]
            for search in searches:
                assert capped == searched(search, gram, 1, bound), bound
    elif verdict is Definiteness.POSITIVE_SEMIDEFINITE:
        for bound in bounds:
            for value, roots in ((0, _null_roots(gram, bound)),
                                 (1, roots_with_value(g, 1, bound))):
                for search in searches:
                    assert roots == searched(search, gram, value, bound), (value, bound)


@pytest.mark.parametrize("label, g", list(dynkin_and_extended()),
                         ids=[label for label, _ in dynkin_and_extended()])
def test_root_system_matches_the_searches(label, g):
    gram = gram_matrix(g)
    expected = Definiteness.POSITIVE_SEMIDEFINITE if label.startswith("~") \
        else Definiteness.POSITIVE_DEFINITE
    assert definiteness(gram) is expected
    assert_root_system_matches_searches(g, range(7))


@settings(deadline=None, max_examples=60)
@given(connected_biquivers())
def test_root_system_matches_the_searches_on_random_biquivers(g):
    assert_root_system_matches_searches(g, range(7))
    gram = gram_matrix(g)
    if definiteness(gram) is Definiteness.POSITIVE_SEMIDEFINITE:
        assert _null_root(gram) == radical_vector(gram)


def test_weyl_counts_of_large_a_and_d():
    n = 128
    a, d = path_biquiver(n), star_biquiver([1, 1, n - 3])
    assert positive_root_count(a) == n * (n + 1) // 2
    assert positive_root_count(d) == n * (n - 1)
    # the highest root of D_n: 1 at the two forked leaves and the far end, 2 between
    highest = max(roots_with_value(d, 1), key=sum)
    assert sorted(highest) == [1, 1, 1] + [2] * (n - 3)


@pytest.mark.parametrize("label, g", [(label, g) for label, g in dynkin_and_extended()
                                      if label.startswith("~")],
                         ids=[label for label, _ in dynkin_and_extended() if label.startswith("~")])
def test_null_roots_are_the_multiples_of_the_radical_vector(label, g):
    gram = gram_matrix(g)
    delta = radical_vector(gram)
    assert _null_root(gram) == delta
    for bound in (0, max(delta) - 1, max(delta), 7, 3 * max(delta) + 1):
        want = [tuple(k * x for x in delta) for k in range(1, bound // max(delta) + 1)]
        assert roots_with_value(g, 0, bound=bound) == want


def test_null_root_refuses_a_kernel_it_cannot_read():
    with pytest.raises(AssertionError, match="2 free directions"):
        _null_root(TitsGram(2, ((0, 0), (0, 0))))
    for c in (((2, 2), (2, 2)), ((2, 0), (0, 0))):  # kernels (-1, 1) and (0, 1)
        with pytest.raises(AssertionError, match="not strictly positive"):
            _null_root(TitsGram(2, c))


def test_null_roots_refuse_where_the_kernel_search_refuses():
    a1_tilde = gram_matrix(biq(2, "a:1>2", "b:2~1"))  # delta = (1, 1)
    for bound in (MAX_ROOTS - 1, MAX_ROOTS, MAX_BOX_CANDIDATES - 1, MAX_BOX_CANDIDATES):
        try:
            want = searched(_enumerate_sos, a1_tilde, 0, bound)
        except PreconditionError as e:
            with pytest.raises(PreconditionError) as got:
                _null_roots(a1_tilde, bound)
            assert str(got.value) == str(e), bound
        else:
            assert _null_roots(a1_tilde, bound) == want
    # delta = (2, 1, 1, 1, 1): the cap counts k = 0..bound // 2
    d4_tilde = gram_matrix(star_biquiver([1, 1, 1, 1]))
    assert len(_null_roots(d4_tilde, 2 * MAX_ROOTS - 1)) == MAX_ROOTS - 1
    with pytest.raises(PreconditionError, match=f"more than the cap of {MAX_ROOTS} roots"):
        _null_roots(d4_tilde, 2 * MAX_ROOTS)
    # the real roots pass MAX_ROOTS from the bound last + 1 on: ~A1, ~A3, ~D4, ~E6
    for g, last in ((biq(2, "a:1>2", "b:2~1"), 50_000), (cycle_biquiver(4, dashed=(2,)), 8_333),
                    (star_biquiver([1, 1, 1, 1]), 8_332), (star_biquiver([2, 2, 2]), 4_166)):
        bounds = (last, last + 1, MAX_BOX_CANDIDATES - 1, MAX_BOX_CANDIDATES)
        refused = [b for b in bounds if real_roots_refused_where_the_search_is(g, b)]
        assert refused == [last + 1, MAX_BOX_CANDIDATES - 1, MAX_BOX_CANDIDATES]


def real_roots_refused_where_the_search_is(g, bound):
    """Whether `roots_with_value(g, 1, bound)` refuses; it must refuse with
    `_enumerate_sos`'s message where that does, and return its nonzero
    solutions where it does not."""
    gram = gram_matrix(g)
    try:
        want = searched(_enumerate_sos, gram, 1, bound)
    except PreconditionError as e:
        with pytest.raises(PreconditionError) as got:
            roots_with_value(g, 1, bound)
        assert str(got.value) == str(e), (g, bound)
        return True
    assert roots_with_value(g, 1, bound) == want
    return False


@pytest.mark.parametrize("cap", [120, 123, 255])
def test_real_roots_count_exactly_at_a_lowered_root_cap(monkeypatch, cap):
    # the counted intervals and the search's running count meet each cap alike:
    # ~A4 has 120 roots at bound 6, ~D5 124 and ~D7 256. No closure of a
    # Dynkin form here is refused, as E8 has the most positive roots, 120.
    monkeypatch.setattr(biquiver.roots, "MAX_ROOTS", cap)
    outcomes = [real_roots_refused_where_the_search_is(g, bound)
                for label, g in dynkin_and_extended() if label.startswith("~")
                for bound in range(7)]
    assert any(outcomes) and not all(outcomes)


def test_enumeration_builds_no_fractions(monkeypatch):
    e8 = star_biquiver([1, 2, 4])
    e8_tilde = star_biquiver([1, 2, 5])
    wild = biq(2, "l:1~1", "a:1>2")
    built = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    gram = gram_matrix(e8)
    verdict = definiteness(gram)
    roots = _enumerate_sos(gram, 1, None)
    found = [roots_with_value(e8, 1), roots_with_value(e8_tilde, 0, bound=6),
             roots_with_value(wild, 1, bound=4), roots_with_value(e8_tilde, 1, bound=2)]
    tilde_gram = gram_matrix(e8_tilde)
    closed, nulls = _close_simple_roots(gram), _null_roots(tilde_gram, 12)
    delta = _null_root(tilde_gram)
    monkeypatch.undo()
    assert verdict is Definiteness.POSITIVE_DEFINITE
    assert len([z for z in roots if any(z)]) == 120
    assert [len(f) for f in found] == [120, 1, len(brute_force_roots(wild, 1, 4)),
                                       len(searched(_enumerate_sos, tilde_gram, 1, 2))]
    assert closed == found[0] and nulls == [delta, tuple(2 * x for x in delta)]
    assert built == []


# -- work budget of the box search -------------------------------------------

def test_kernel_search_refuses_past_the_cap():
    side = isqrt(MAX_BOX_CANDIDATES)  # side^2 <= the cap < (side + 1)^2
    a1_tilde = biq(2, "a:1>2", "b:2~1")  # one kernel direction
    with pytest.raises(PreconditionError, match="cap"):
        roots_with_value(a1_tilde, 0, bound=MAX_BOX_CANDIDATES)
    assert roots_with_value(a1_tilde, 0, bound=side) == [(k, k) for k in range(1, side + 1)]
    zero = TitsGram(2, ((0, 0), (0, 0)))  # two kernel directions
    with pytest.raises(PreconditionError, match="cap"):
        _enumerate_sos(zero, 0, side)
    assert len(_enumerate_sos(zero, 0, 3)) == 16


def test_searches_refuse_past_the_root_cap():
    # ~A1 at value 0: the bound b gives the b + 1 solutions (k, k), zero included
    gram = gram_matrix(biq(2, "a:1>2", "b:2~1"))
    assert len(_enumerate_sos(gram, 0, MAX_ROOTS - 1)) == MAX_ROOTS
    with pytest.raises(PreconditionError, match="cap"):
        _enumerate_sos(gram, 0, MAX_ROOTS)
    # the zero form: every one of the (b + 1)^2 vectors of the box is a solution
    zero = TitsGram(2, ((0, 0), (0, 0)))
    side = isqrt(MAX_ROOTS)  # side^2 <= the cap < (side + 1)^2
    assert len(_enumerate_box(zero, 0, side - 1)) == side ** 2
    with pytest.raises(PreconditionError, match="cap"):
        _enumerate_box(zero, 0, side)


def test_box_search_refuses_past_the_cap():
    wild = biq(2, "l:1~1", "a:1>2")  # indefinite
    side = isqrt(MAX_BOX_CANDIDATES)  # side^2 <= the cap < (side + 1)^2
    with pytest.raises(PreconditionError, match="cap"):
        roots_with_value(wild, 1, bound=side)
    # 12 vertices: bound 1 gives 2^12 candidates, bound 3 gives 4^12 > 10^7
    big = biq(12, "l:1>1", "m:1>1", *[f"e{i}:{i}>{i + 1}" for i in range(1, 12)])
    assert definiteness(gram_matrix(big)) is Definiteness.INDEFINITE
    for value in (0, 1):
        assert roots_with_value(big, value, bound=1) == brute_force_roots(big, value, 1)
    with pytest.raises(PreconditionError, match="cap"):
        roots_with_value(big, 0, bound=3)
