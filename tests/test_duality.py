"""Duality as a second oracle for the Hom layer.

`conftest.dual` sends a representation X of a biquiver to DX, a
representation of the opposite biquiver: transposes on full arrows,
conjugate transposes on dashed ones. D is an exact contravariant
equivalence, so it fixes every answer that does not see direction:
D(DX) = X, dim Hom(X, Y) = dim Hom(DY, DX), the summands of X and DX
have the same dimension vectors, X and Y are isomorphic exactly when DY and
DX are, and the transpose of an isomorphism X -> Y is one DY -> DX. The
direct-sum properties check Hom's additivity in each argument.
"""
import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from biquiver import (Arrow, ArrowKind, Biquiver, IndecomposabilityStatus, Verdict,
                      apply_base_change, are_isomorphic, decompose, direct_sum,
                      direct_sum_list, hom_basis, random_representation)
from biquiver.linalg import transpose
from conftest import dual, random_base_change


@st.composite
def biquivers(draw):
    """A biquiver on 1-3 vertices with 1-4 full or dashed arrows, loops and
    parallel arrows allowed."""
    t = draw(st.integers(1, 3))
    ends = st.tuples(st.integers(1, t), st.integers(1, t), st.booleans())
    return Biquiver(t, tuple(Arrow(f"a{k}", u, v, ArrowKind.DASHED if d else ArrowKind.FULL)
                             for k, (u, v, d) in enumerate(draw(st.lists(ends, min_size=1,
                                                                          max_size=4)))))


@st.composite
def scrambled_sums(draw, g, wide=False):
    """A base change of a direct sum of 1-3 random representations of g, each
    at most 1-dimensional at each vertex; when wide, of 2-3 of them, each
    1-dimensional at every vertex, so that the base change is not scalar."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    dims = st.lists(st.integers(int(wide), 1), min_size=g.t, max_size=g.t)
    summands = [random_representation(g, tuple(draw(dims)), 2, rng.randrange(10 ** 6))
                for _ in range(draw(st.integers(1 + wide, 3)))]
    return random_base_change(rng, direct_sum_list(g, summands), bound=2)


@st.composite
def pairs(draw, wide=False):
    """(X, Y): two representations of one biquiver, Y either drawn apart from
    X or a base change of it; X is wide as in `scrambled_sums`."""
    g = draw(biquivers())
    x = draw(scrambled_sums(g, wide))
    if draw(st.booleans()):
        return x, random_base_change(random.Random(draw(st.integers(0, 2 ** 32))), x, bound=2)
    return x, draw(scrambled_sums(g))


@settings(deadline=None, max_examples=100)
@given(pairs())
def test_the_dual_of_the_dual_is_the_representation(pair):
    for x in pair:
        assert dual(dual(x)) == x


@settings(deadline=None, max_examples=100)
@given(pairs())
def test_hom_has_the_dimension_of_its_dual(pair):
    x, y = pair
    assert hom_basis(x, y).dimension == hom_basis(dual(y), dual(x)).dimension


@settings(deadline=None, max_examples=60)
@given(biquivers().flatmap(scrambled_sums), st.integers(0, 3))
def test_certified_summands_of_the_dual_have_the_same_dimensions(x, seed):
    found = [decompose(r, seed=seed) for r in (x, dual(x))]
    if all(s is IndecomposabilityStatus.CERTIFIED for d in found for s in d.statuses):
        left, right = (Counter(s.dims for s in d.summands) for d in found)
        assert left == right


CERTIFIED = (Verdict.YES, Verdict.NO)


@settings(deadline=None, max_examples=100)
@given(st.booleans().flatmap(pairs))
def test_isomorphism_has_the_verdict_of_its_dual(pair):
    x, y = pair
    found, dual_found = are_isomorphic(x, y), are_isomorphic(dual(y), dual(x))
    if found.verdict in CERTIFIED and dual_found.verdict in CERTIFIED:
        assert found.verdict is dual_found.verdict
    if found:
        # S_v^-1 A S_u = B, so S_u^T A^T S_v^-T = B^T, and conjugate transposes alike
        s = [transpose(m) for m in found.certificate]
        assert apply_base_change(dual(y), s) == dual(x)


@st.composite
def triples(draw):
    """(X, Y, Z): three representations of one biquiver."""
    g = draw(biquivers())
    return tuple(draw(scrambled_sums(g)) for _ in range(3))


@settings(deadline=None, max_examples=100)
@given(triples())
def test_hom_is_additive_in_each_argument(triple):
    x, y, z = triple
    s = direct_sum(x, y)
    assert hom_basis(s, z).dimension == hom_basis(x, z).dimension + hom_basis(y, z).dimension
    assert hom_basis(z, s).dimension == hom_basis(z, x).dimension + hom_basis(z, y).dimension
