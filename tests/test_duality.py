"""Duality as a second oracle for the Hom layer.

`conftest.dual` sends a representation X of a biquiver to DX, a
representation of the opposite biquiver: transposes on full arrows,
conjugate transposes on dashed ones. D is an exact contravariant
equivalence, so it fixes every answer that does not see direction:
D(DX) = X, dim Hom(X, Y) = dim Hom(DY, DX), and the summands of X and DX
have the same dimension vectors.
"""
import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from biquiver import (Arrow, ArrowKind, Biquiver, IndecomposabilityStatus, decompose,
                      direct_sum_list, hom_basis, random_representation)
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
def scrambled_sums(draw, g):
    """A base change of a direct sum of 1-3 random representations of g, each
    at most 1-dimensional at each vertex."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    dims = st.lists(st.integers(0, 1), min_size=g.t, max_size=g.t)
    summands = [random_representation(g, tuple(draw(dims)), 2, rng.randrange(10 ** 6))
                for _ in range(draw(st.integers(1, 3)))]
    return random_base_change(rng, direct_sum_list(g, summands), bound=2)


@st.composite
def pairs(draw):
    """(X, Y): two representations of one biquiver, Y either drawn apart from
    X or a base change of it."""
    g = draw(biquivers())
    x = draw(scrambled_sums(g))
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
