import copy
import os
import pickle
import random
import re
import subprocess
import sys
import textwrap
import time
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import accumulate, islice
from math import gcd, lcm, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import biquiver
from biquiver import (CMatrix, GaussianRational, IndecomposabilityStatus, IsoResult,
                      MatrixRepresentation, PreconditionError, SingularMatrixError,
                      Verdict, apply_base_change,
                      are_isomorphic, decompose, direct_sum, direct_sum_list, evaluate,
                      gaussian, gram_matrix, hom_basis, krull_schmidt_compare, radical_vector,
                      random_representation, roots_with_value, zero_representation)
from biquiver import linalg, morphisms, sparse
from biquiver.elimination import _integer_parts, _symmetric_ldl, fraction_nullspace, fraction_solve
from biquiver.linalg import block_diag, hstack, submatrix, transpose
from biquiver.model import _spanning_forest
from biquiver.morphisms import (MAX_HOM_CELLS, MAX_PROFILE_RANKS, Decomposition, MorphismBasis,
                                _certify_local, _check_same_biquiver, _check_sampling,
                                _combine, _echelon_change, _hom_system_size, _identity_tuple,
                                _linear_combination, _matrices, _minimal_polynomial,
                                _primary_split, _profile_difference,
                                _split_candidates, _splitting_idempotent, _trace_form,
                                _vertex_killers, rank_profile)
from biquiver.representation import _transform
from biquiver.semilinear import are_consimilar
from conftest import (biq, column_space_basis, dynkin_and_extended, gmat, mat, nullspace_basis,
                      oracle_is_identity, oracle_monic, oracle_scale, path_biquiver, primitive_form,
                      primitive_row, random_base_change, random_biquiver, random_invertible,
                      star_biquiver)
from test_acceptance import _a3_indecomposables, _d4_indecomposables, _random_dashing, _reassign
from test_polynomials import oracle_coprime_split, oracle_idempotent
import test_linalg
from test_linalg import (kernel, oracle_dense_rref, oracle_fraction_nullspace,
                         oracle_int_fraction_nullspace, small_fractions, small_gaussians,
                         wide_gaussians)


def _satisfies_morphism(a, b, f):
    """Whether the tuple f meets the intertwining equation of every arrow of a -> b."""
    for arrow in a.biquiver.arrows:
        u, v = arrow.source - 1, arrow.target - 1
        left = b.matrices[arrow.id] @ f[u]
        fv = f[v].conj() if arrow.is_dashed else f[v]
        if left != fv @ a.matrices[arrow.id]:
            return False
    return True


def oracle_flatten(mats):
    """(den, nums): real, then imaginary parts of each matrix in turn, as nums / den,
    over the lcm of the matrices' denominators: the integer flattening that
    `_minimal_polynomial` once read the powers of a tuple through."""
    den = lcm(*(m.den for m in mats))
    nums = []
    for m in mats:
        s = den // m.den
        nums += (s * x for x in m.re)
        nums += (s * y for y in m.im)
    return den, nums


def oracle_combination(coeffs, tuples, shapes):
    """sum_j coeffs[j] * tuples[j], tuples of the given (rows, cols), matrix by matrix
    over the lcm of the terms' denominators, as `decompose` once combined tuples."""
    terms = [(c, tup) for c, tup in zip(coeffs, tuples) if c]
    mats = []
    for v, (r, c) in enumerate(shapes):
        den = lcm(*(tup[v].den for _, tup in terms))
        re = [0] * (r * c)
        im = [0] * (r * c)
        for coef, tup in terms:
            m = tup[v]
            f = coef * (den // m.den)
            re = [x + f * y for x, y in zip(re, m.re)]
            im = [x + f * y for x, y in zip(im, m.im)]
        mats.append(CMatrix.from_integers(r, c, den, re, im))
    return tuple(mats)


def oracle_compose(f, g_):
    """Composition f after g_ of matrix tuples, componentwise."""
    return tuple(fm @ gm for fm, gm in zip(f, g_))


def as_tuple(basis, vector):
    """The matrices of a vector (den, nums) in the Hom layout of `basis`."""
    return _matrices(basis.target_dims, basis.source_dims, *vector)


def full_loop(m):
    return MatrixRepresentation(biq(1, "a:1>1"), (m.rows,), {"a": m})


def dashed_loop(m):
    return MatrixRepresentation(biq(1, "a:1~1"), (m.rows,), {"a": m})


# -- hom spaces ---------------------------------------------------------------

def test_hom_dashed_loop_identity_is_real_line():
    basis = hom_basis(dashed_loop(mat([1])), dashed_loop(mat([1])))
    assert basis.dimension == 1
    f = basis.tuples[0][0]
    assert f.at(0, 0).im == 0 and f.at(0, 0).re != 0


def test_hom_full_loop_zero_is_complex_plane():
    basis = hom_basis(full_loop(CMatrix.zero(1, 1)), full_loop(CMatrix.zero(1, 1)))
    assert basis.dimension == 2


def test_hom_distinct_eigenvalues_is_zero():
    assert hom_basis(full_loop(mat([2])), full_loop(mat([3]))).dimension == 0


def test_hom_tuples_satisfy_intertwining_exactly():
    rng = random.Random(12)
    for _ in range(25):
        g = biq(2, "a:1~2", "b:2>2")
        da = (rng.randint(0, 2), rng.randint(0, 2))
        db = (rng.randint(0, 2), rng.randint(0, 2))
        a = random_representation(g, da, 2, rng.randint(0, 10 ** 6))
        b = random_representation(g, db, 2, rng.randint(0, 10 ** 6))
        basis = hom_basis(a, b)
        for tup in basis.tuples:
            assert _satisfies_morphism(a, b, tup)


def test_hom_counts_nullity():
    g = biq(2, "a:1>2")
    a = MatrixRepresentation(g, (1, 1), {"a": mat([1])})
    basis = hom_basis(a, a)
    # endomorphisms: (f1, f2) with f2 = f1, complex scalar
    assert basis.dimension == 2


def test_hom_basis_refuses_a_system_past_the_cell_cap(monkeypatch):
    # a full 2-dimensional loop: 8 equations in 8 unknowns, 64 cells
    a = full_loop(mat([1, 2], [3, 4]))
    assert MAX_HOM_CELLS == 2 ** 17
    monkeypatch.setattr(morphisms, "MAX_HOM_CELLS", 64)
    assert hom_basis(a, a).dimension == 4
    monkeypatch.setattr(morphisms, "MAX_HOM_CELLS", 63)
    with pytest.raises(PreconditionError, match="8 equations in 8 unknowns, past the cap of 63"):
        hom_basis(a, a)


def test_hom_mismatched_biquiver():
    with pytest.raises(PreconditionError):
        hom_basis(full_loop(mat([1])), dashed_loop(mat([1])))


def _hom_differential_pairs():
    """Pairs of random representations of D4 and E6 at small root dimensions,
    some arrows dashed, plus a pair with non-integral rational entries."""
    d4 = star_biquiver([1, 1, 1], dashed=("b1e0",))
    e6 = star_biquiver([1, 2, 2], dashed=("b0e0", "b2e1"))
    pairs = []
    for g, dims, other in [(d4, (2, 1, 1, 1), (1, 1, 1, 0)),
                           (d4, (1, 1, 1, 1), (1, 1, 0, 1)),
                           (e6, (2, 1, 1, 1, 1, 1), (1, 1, 1, 0, 1, 0)),
                           (e6, (1, 1, 1, 1, 1, 0), (1, 0, 1, 1, 1, 1))]:
        a = random_representation(g, dims, 2, 11)
        b = random_representation(g, dims, 2, 12)
        c = random_representation(g, other, 2, 13)
        pairs += [(a, a), (a, b), (a, c), (c, a), (direct_sum(a, c), direct_sum(c, b))]
    g = biq(2, "a:1>2", "b:2~2")
    q = MatrixRepresentation(g, (2, 2), {
        "a": gmat([(Fraction(1, 3), Fraction(-2, 7)), (Fraction(5, 4), 0)],
                  [(0, Fraction(3, 11)), (Fraction(-7, 6), Fraction(1, 2))]),
        "b": gmat([(Fraction(2, 9), 0), (0, 1)], [(1, 0), (Fraction(-1, 5), 0)])})
    pairs += [(q, q), (q, random_base_change(random.Random(4), q))]
    return pairs + _scrambled_sums()


def _scrambled_sums():
    """(X, S.X) for X a sum of three random E6 or E7 representations at root
    dimension vectors of heights 4, 5 and 6 (total dimension 15), some arrows
    dashed, and S a random base change: Hom systems of 74 and 94 columns."""
    pairs = []
    for branches, dashed, seed in (([1, 2, 2], ("b1e0", "b2e1"), 5),
                                   ([1, 2, 3], ("b0e0", "b2e2"), 6)):
        g = star_biquiver(branches, dashed=dashed)
        rng = random.Random(seed)
        roots = roots_with_value(g, 1)
        parts = [random_representation(g, rng.choice([z for z in roots if sum(z) == h]), 2,
                                       rng.randrange(10 ** 6)) for h in (4, 5, 6)]
        x = direct_sum_list(g, parts)
        pairs.append((x, random_base_change(rng, x)))
    return pairs


def spread(rows, ncols):
    """Sparse rows, dicts from column to int, as dense lists of `ncols` ints."""
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def test_hom_basis_matches_oracle_kernel(monkeypatch):
    # the canonical Hom basis that `rep hom` prints must not depend on the
    # elimination kernel behind fraction_nullspace; hom_basis hands it sparse
    # integer rows, {unknown: nonzero coefficient} and none empty, which the
    # oracle spreads out and divides exactly only as Fractions; its vectors
    # are handed back as the kernel's (den, nums) pairs
    def oracle(rows, ncols):
        assert all(type(row) is dict and row and all(row.values()) for row in rows)
        return [_integer_parts(v) for v in oracle_fraction_nullspace(
            [[Fraction(x) for x in row] for row in spread(rows, ncols)], ncols)]

    for a, b in _hom_differential_pairs():
        basis = hom_basis(a, b)
        with monkeypatch.context() as patch:
            patch.setattr(morphisms, "fraction_nullspace", oracle)
            assert hom_basis(a, b) == basis


def oracle_readout(basis):
    """The basis as tuples of GaussianRational matrices, read entry by entry off its
    vectors: the readout that `hom_basis` made for every basis before `tuples` was
    built on first read."""
    out = []
    for den, nums in basis.vectors:
        mats, start = [], 0
        for r, c in zip(basis.target_dims, basis.source_dims):
            n = r * c
            mats.append(CMatrix(r, c, [GaussianRational(Fraction(x, den), Fraction(y, den))
                                       for x, y in zip(nums[start:start + n],
                                                       nums[start + n:start + 2 * n])]))
            start += 2 * n
        out.append(tuple(mats))
    return tuple(out)


def assert_tuples_match_the_readout(a, b):
    basis = hom_basis(a, b)
    for den, nums in basis.vectors:
        assert den > 0 and gcd(den, *nums) == 1 and type(nums) is tuple
    assert basis.tuples == oracle_readout(basis)
    # the lcm of a canonical vector's per-vertex denominators is its den
    assert [oracle_flatten(tup) for tup in basis.tuples] == \
        [(den, list(nums)) for den, nums in basis.vectors]


def test_hom_tuples_match_the_readout():
    for a, b in _hom_differential_pairs():
        assert_tuples_match_the_readout(a, b)


def test_reading_tuples_changes_no_equality_hash_or_pickle():
    for a, b in _hom_differential_pairs()[:10]:
        cold, warm = hom_basis(a, b), hom_basis(a, b)
        before = pickle.dumps(warm)
        assert warm.tuples == warm.tuples
        assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
        assert pickle.dumps(warm) == before == pickle.dumps(cold)
        for back in (pickle.loads(before), copy.deepcopy(warm)):
            assert back == warm and "tuples" not in vars(back)
            assert back.tuples == warm.tuples


def test_nullspace_makes_fewer_row_combinations_than_gauss_jordan(monkeypatch):
    # on the sparse route every row combination is one `_sparse_clear` call,
    # and in the Gauss-Jordan oracles it ends in `_primitive`, so counting
    # them on one fixed Hom system pins the nullspace to forward elimination,
    # without a timing: a backward pass, or the Gauss-Jordan oracle, makes more
    systems = []

    def recording(rows, ncols):
        systems.append((rows, ncols))
        return fraction_nullspace(rows, ncols)

    x, sx = _scrambled_sums()[0]
    monkeypatch.setattr(morphisms, "fraction_nullspace", recording)
    hom_basis(x, sx)
    (rows, ncols), = systems
    assert all(type(row) is dict for row in rows)
    calls = []
    sparse_step, primitive = sparse._sparse_clear, test_linalg._primitive

    def counting(step):
        def counted(*args):
            calls.append(1)
            return step(*args)
        return counted

    def combinations(solve):
        calls.clear()
        solve()
        return len(calls)

    monkeypatch.setattr(sparse, "_sparse_clear", counting(sparse_step))
    monkeypatch.setattr(test_linalg, "_primitive", counting(primitive))
    dense = spread(rows, ncols)
    echelon = combinations(lambda: fraction_nullspace(rows, ncols))
    jordan = combinations(lambda: oracle_dense_rref([primitive_row(row) for row in dense]))
    oracle = combinations(lambda: oracle_int_fraction_nullspace(dense, ncols))
    assert 0 < echelon < jordan and echelon < oracle


def oracle_combine(basis, coeffs):
    """The GaussianRational `_combine` that the integer one replaced."""
    g = basis.biquiver
    mats = []
    for v in range(g.t):
        r, c = basis.target_dims[v], basis.source_dims[v]
        acc = CMatrix.zero(r, c)
        for coef, tup in zip(coeffs, basis.tuples):
            if coef:
                acc = acc + oracle_scale(tup[v], GaussianRational(coef))
        mats.append(acc)
    return tuple(mats)


def test_combine_and_flatten_match_oracle():
    # integer coefficients, zeros among them, up to the sampling bound
    rng = random.Random(31)
    for a, b in _hom_differential_pairs():
        basis = hom_basis(a, b)
        for _ in range(3):
            coeffs = [rng.choice((0, rng.randint(-10 ** 4, 10 ** 4))) for _ in basis.tuples]
            den, nums = _combine(basis, coeffs)
            f = oracle_combine(basis, coeffs)
            assert _matrices(basis.target_dims, basis.source_dims, den, nums) == f
            assert [Fraction(x, den) for x in nums] == oracle_flatten_tuple(basis, f)


# -- isomorphism --------------------------------------------------------------

def test_iso_identical_representations():
    a = full_loop(mat([1, 2], [3, 4]))
    res = are_isomorphic(a, a, seed=0)
    assert res.verdict is Verdict.YES
    assert all(oracle_is_identity(m) for m in res.certificate)


def test_iso_dashed_loop_example():
    res = are_isomorphic(dashed_loop(gmat([(0, 1)])), dashed_loop(mat([1])), seed=1)
    assert res.verdict is Verdict.YES
    s = res.certificate[0]
    assert s.conj().inverse() @ gmat([(0, 1)]) @ s == mat([1])


def test_iso_certified_no_from_zero_hom():
    res = are_isomorphic(full_loop(mat([2])), full_loop(mat([3])), seed=0)
    assert res.verdict is Verdict.NO
    assert "Hom" in res.reason


def test_iso_dim_mismatch_certified():
    g = biq(1, "a:1>1")
    a = MatrixRepresentation(g, (1,), {"a": mat([1])})
    b = MatrixRepresentation(g, (2,), {"a": CMatrix.identity(2)})
    res = are_isomorphic(a, b)
    assert res.verdict is Verdict.NO
    assert "dimension" in res.reason


def test_iso_zero_dimensional_yes():
    g = path_biquiver(2)
    res = are_isomorphic(zero_representation(g), zero_representation(g))
    assert res.verdict is Verdict.YES


def test_iso_planted_base_changes_recovered():
    rng = random.Random(30)
    for k in range(15):
        g = biq(2, "a:1~2", "b:2>1", "c:2~2")
        dims = (rng.randint(1, 2), rng.randint(1, 2))
        a = random_representation(g, dims, 2, rng.randint(0, 10 ** 6))
        b = random_base_change(rng, a)
        res = are_isomorphic(a, b, seed=k)
        assert res.verdict is Verdict.YES
        assert apply_base_change(a, list(res.certificate)) == b


def test_iso_probably_no_metadata(monkeypatch):
    # Hom is the span of E11, never invertible, and End(a) is twice as big
    a = full_loop(mat([1, 0], [0, 2]))
    res = are_isomorphic(a, full_loop(mat([1, 0], [0, 3])), trials=4, seed=9)
    assert res == IsoResult(Verdict.NO, reason="dim End(a) = 4 differs from dim Hom(a, b) = 2")
    # a is isomorphic to b, but both samples with coefficients in {-1, 0, 1} are singular
    monkeypatch.setattr(morphisms, "COEFF_BOUND", 1)
    res = are_isomorphic(a, full_loop(mat([2, 0], [0, 1])), trials=2, seed=0)
    assert res.verdict is Verdict.PROBABLY_NO
    assert res.trials == 2 and res.seed == 0


LEDGER = Path(__file__).resolve().parent / "ledger"


def test_iso_no_from_end_dimensions():
    # equal rank profiles and Hom(a, b) != 0: only the End dimensions tell them apart
    a, b = (biquiver.parse_representation((LEDGER / f"e6.{name}.json").read_text())
            for name in ("s1", "other"))
    for seed in range(4):
        res = are_isomorphic(a, b, seed=seed)
        assert res == IsoResult(Verdict.NO,
                                reason="dim End(a) = 16 differs from dim Hom(a, b) = 12")


def test_iso_yes_reports_samples_used(monkeypatch):
    # End of a generic (2, 2) representation of 1 -> 2 is the 8-dimensional
    # real algebra M_2(C); with coefficients in {-1, 0, 1} many samples are
    # singular, so the first invertible one is often not the first drawn
    g = biq(2, "a:1>2")
    a = random_representation(g, (2, 2), 2, 5)
    b = random_base_change(random.Random(3), a)
    basis = hom_basis(a, b)
    late = 0
    monkeypatch.setattr(morphisms, "COEFF_BOUND", 1)
    for seed in range(20):
        res = are_isomorphic(a, b, trials=50, seed=seed)
        sampler = random.Random(seed)
        first = None
        for index in range(1, 51):
            coeffs = [sampler.randint(-1, 1) for _ in basis.tuples]
            if all(m.is_invertible() for m in as_tuple(basis, _combine(basis, coeffs))):
                first = index
                break
        assert res.verdict is Verdict.YES and res.seed == seed
        assert res.trials == first <= 50
        late += first > 1
    assert late > 0


def oracle_are_isomorphic(a, b, trials=morphisms.DEFAULT_TRIALS, seed=0,
                          coeff_bound=morphisms.COEFF_BOUND):
    """`are_isomorphic` as it was when a Yes was verified by `apply_base_change`,
    which inverts the certificate again, verbatim, with the later No from End
    dimensions added, and its samples drawn inline with the coefficient
    bound it took then."""
    _check_same_biquiver(a, b)
    _check_sampling(trials, seed)
    if a.dims != b.dims:
        return IsoResult(Verdict.NO, reason="dimension vectors differ")
    if a == b:
        return IsoResult(Verdict.YES, certificate=_identity_tuple(a.dims))
    differs = _profile_difference(a, b)
    if differs is not None:
        return IsoResult(Verdict.NO, reason=differs)
    basis = hom_basis(a, b)
    if basis.dimension == 0:
        return IsoResult(Verdict.NO, reason="Hom(a, b) = 0 with nonzero dimensions")
    rng = random.Random(seed)
    for used in range(1, trials + 1):
        try:
            coeffs = [rng.randint(-coeff_bound, coeff_bound) for _ in basis.vectors]
            s = tuple(m.inverse() for m in as_tuple(basis, _combine(basis, coeffs)))
        except SingularMatrixError:
            continue
        if apply_base_change(a, list(s)) == b:
            return IsoResult(Verdict.YES, certificate=s, trials=used, seed=seed)
    for name, rep in (("a", a), ("b", b)):
        end = hom_basis(rep, rep).dimension
        if end != basis.dimension:
            return IsoResult(Verdict.NO, reason=f"dim End({name}) = {end} differs from "
                                                f"dim Hom(a, b) = {basis.dimension}")
    return IsoResult(Verdict.PROBABLY_NO,
                     reason=f"no invertible morphism found in {trials} samples",
                     trials=trials, seed=seed)


def test_iso_matches_the_reinverting_oracle(monkeypatch):
    # planted base changes on dashed and full arrows, with coefficients small
    # enough that singular samples come first, and pairs that are not isomorphic
    rng = random.Random(12)
    yes = 0
    for k in range(40):
        g = biq(2, "a:1~2", "b:2>1", "c:2~2")
        dims = (rng.randint(1, 2), rng.randint(1, 2))
        a = random_representation(g, dims, 2, rng.randint(0, 10 ** 6))
        b = random_base_change(rng, a) if k % 4 else random_representation(g, dims, 1, k)
        for trials, coeff_bound in ((8, 10 ** 4), (3, 1)):
            with monkeypatch.context() as patched:
                patched.setattr(morphisms, "COEFF_BOUND", coeff_bound)
                res = are_isomorphic(a, b, trials=trials, seed=k)
            assert res == oracle_are_isomorphic(a, b, trials=trials, seed=k,
                                                coeff_bound=coeff_bound)
            yes += res.verdict is Verdict.YES
    for a, b in _scrambled_sums():
        assert are_isomorphic(b, a) == oracle_are_isomorphic(b, a)
    assert yes >= 40


def test_carries_is_the_base_change_check():
    # for invertible s: _carries(s, a, b) exactly when apply_base_change(a, s) == b;
    # s is the one that moved a, a multiple of it (2 s carries a as s does, i s
    # negates the dashed arrows), or a perturbed one
    rng = random.Random(8)
    g = biq(2, "a:1~2", "b:2>1", "c:2~2")
    seen = set()
    for k in range(60):
        a = random_representation(g, (2, 2), 2, k)
        s = [random_invertible(rng, 2) for _ in range(2)]
        moved = apply_base_change(a, s)
        b = rng.choice([moved, moved, random_base_change(rng, a)])
        scale = rng.choice([1, 2, gaussian(0, 1)])
        s = [oracle_scale(m, scale) for m in s]
        if rng.random() < 0.3:
            v = rng.randrange(2)
            s[v] = s[v] + gmat([(0, 0), (rng.choice([1, -1]), 0)], [(0, 0), (0, 0)])
        if s[0].is_invertible() and s[1].is_invertible():
            expected = apply_base_change(a, s) == b
            assert morphisms._carries(tuple(s), a, b) == expected
            seen.add(expected)
    assert seen == {True, False}


@pytest.mark.parametrize("s, error, message", [
    ((CMatrix.zero(2, 2), CMatrix.identity(2)), SingularMatrixError, "singular 2x2 matrix"),
    ((mat([1, 2], [2, 4]), CMatrix.identity(2)), SingularMatrixError, "singular 2x2 matrix"),
    ((CMatrix.identity(3), CMatrix.identity(2)), PreconditionError,
     "transition matrix at vertex 1 must be 2x2"),
    ((CMatrix.identity(2), CMatrix.zero(2, 3)), PreconditionError,
     "transition matrix at vertex 2 must be 2x2"),
    ((CMatrix.identity(2),), PreconditionError, "need 2 transition matrices, got 1"),
], ids=["zero", "singular", "too-large", "not-square", "too-few"])
def test_carries_refuses_what_apply_base_change_refuses(s, error, message):
    # the zero change is a morphism from any b to a, and is still refused
    a = random_representation(biq(2, "a:1~2", "b:2>1", "c:2~2"), (2, 2), 2, 4)
    for b in (a, random_base_change(random.Random(5), a)):
        assert not morphisms._carries(s, a, b)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        apply_base_change(a, list(s))


# -- rank profile ---------------------------------------------------------------

def profile_ranks(rep):
    return [(name, m.rank()) for name, m in rank_profile(rep)]


# shapes where a wrong conjugation rule shows: a dashed loop, full and dashed
# loops together, odd dashed 2- and 3-cycles, parallel arrows of both kinds
PROFILE_SHAPES = [(1, ("a:1~1",)), (1, ("a:1>1", "b:1~1")), (2, ("a:1>2", "b:2~1")),
                  (3, ("a:1~2", "b:2>3", "c:3>1")), (2, ("a:1>2", "b:1~2", "c:1~2"))]
# mostly zeros and units, so that ranks drop and composites vanish
PROFILE_ENTRIES = [(0, 0)] * 3 + [(1, 0), (-1, 0), (0, 1), (1, 1), (0, -1), (2, -1)]


@st.composite
def profile_representations(draw, max_dim=3):
    """A small representation with sparse Gaussian-integer entries, on a
    named shape or on 1 to 4 random arrows among 1 to 3 vertices, with at
    most max_dim dimensions at each vertex."""
    named = draw(st.booleans())
    if named:
        t, specs = draw(st.sampled_from(PROFILE_SHAPES))
    else:
        t = draw(st.integers(1, 3))
        ends = draw(st.lists(st.tuples(st.integers(1, t), st.integers(1, t), st.booleans()),
                             min_size=1, max_size=4))
        specs = [f"a{k}:{u}{'~' if dashed else '>'}{v}"
                 for k, (u, v, dashed) in enumerate(ends)]
    g = biq(t, *specs)
    dims = tuple(draw(st.lists(st.integers(0, max_dim), min_size=t, max_size=t)))
    mats = {}
    for arrow in g.arrows:
        r, c = dims[arrow.target - 1], dims[arrow.source - 1]
        entries = draw(st.lists(st.sampled_from(PROFILE_ENTRIES), min_size=r * c,
                                max_size=r * c))
        mats[arrow.id] = CMatrix(r, c, tuple(gaussian(*e) for e in entries))
    return MatrixRepresentation(g, dims, mats)


@settings(deadline=None, max_examples=150)
@given(profile_representations(), st.integers(0, 10 ** 6))
def test_rank_profile_invariant_under_base_change(rep, seed):
    rng = random.Random(seed)
    s = [random_invertible(rng, d) for d in rep.dims]
    assert profile_ranks(apply_base_change(rep, s)) == profile_ranks(rep)


@settings(deadline=None, max_examples=100)
@given(profile_representations(2), st.integers(0, 10 ** 6), st.booleans())
def test_hom_tuples_match_the_readout_on_draws(a, seed, moved):
    # b a base change of a, or a sparse draw with denominators on a's biquiver
    rng = random.Random(seed)
    b = random_base_change(rng, a) if moved else _sparse_representation(rng, a.biquiver, 2)
    assert_tuples_match_the_readout(a, b)
    assert_tuples_match_the_readout(b, a)


def test_rank_profile_order_and_names():
    # arrows first, then kernel meets and image sums vertex by vertex, then
    # paths by length; a dashed arrow into vertex 2 enters its image sum
    # conjugated, so [i] and [1] span the same line and the sum has rank 1
    g = biq(3, "a:1>2", "b:1~2", "c:2>3")
    rep = MatrixRepresentation(g, (1, 1, 1), {"a": gmat([(0, 1)]), "b": mat([1]),
                                               "c": mat([1])})
    assert profile_ranks(rep) == [
        ("rank of arrow a", 1), ("rank of arrow b", 1), ("rank of arrow c", 1),
        ("kernel-meet rank of a,b at vertex 1", 1), ("image-sum rank of a,b at vertex 2", 1),
        ("rank along path a,c", 1), ("rank along path b,c", 1)]


def oracle_iso_by_sampling(a, b, trials, seed):
    """The isomorphism test without the rank profile: a Hom system, then
    `trials` samples; True on a verified isomorphism."""
    basis = hom_basis(a, b)
    rng = random.Random(seed)
    for _ in range(trials if basis.dimension else 0):
        f = as_tuple(basis, _combine(basis, [rng.randint(-10 ** 4, 10 ** 4)
                                             for _ in basis.tuples]))
        if all(m.is_invertible() for m in f):
            if apply_base_change(a, [m.inverse() for m in f]) == b:
                return True
    return False


def test_profile_no_never_contradicts_the_sampler():
    # pairs with equal dimension vectors: an unrelated sparse draw, and the
    # other's base change with one arrow matrix replaced; whenever the
    # profiles differ, and whenever End dimensions certify a No, the Hom
    # system and 32 samples never find a Yes
    rng = random.Random(5)
    differing = nonzero_hom = end_no = 0
    for k in range(120):
        g = random_biquiver(rng)
        a = _sparse_representation(rng, g, 2)
        twin = _sparse_representation(rng, g, 2)
        while twin.dims != a.dims:
            twin = _sparse_representation(rng, g, 2)
        moved = random_base_change(rng, a)
        arrow = rng.choice(g.arrows).id
        b = MatrixRepresentation(g, a.dims, {**moved.matrices, arrow: twin.matrices[arrow]})
        for other in (twin, b):
            res = are_isomorphic(a, other, seed=k)
            if profile_ranks(a) == profile_ranks(other):
                assert res.verdict is not Verdict.NO or res.reason.startswith(("Hom", "dim End"))
                if res.verdict is Verdict.NO and res.reason.startswith("dim End"):
                    end_no += 1
                    assert not oracle_iso_by_sampling(a, other, trials=32, seed=k)
                continue
            differing += 1
            nonzero_hom += hom_basis(a, other).dimension > 0
            assert res.verdict is Verdict.NO and res.trials == 0
            assert not oracle_iso_by_sampling(a, other, trials=32, seed=k)
    assert differing >= 50 and nonzero_hom >= 25 and end_no >= 10


def test_consimilarity_certified_no_from_path_rank():
    # equal rank, but A conj(A) = 0 while B conj(B) = B (Hong & Horn's
    # invariants rank (A conj A)^k A): certified for every seed
    for seed in range(10):
        res = are_consimilar(mat([0, 1], [0, 0]), mat([1, 0], [0, 0]), seed=seed)
        assert res.verdict is Verdict.NO and res.trials == 0
        assert res.reason == "rank along path a,a differs: 0 vs 1"


# a 9-cycle with a loop at every vertex: 36 arrow and vertex entries, then
# 36, 72 and 144 paths of 2, 3 and 4 arrows; a tenth vertex with 40 parallel
# arrows into the cycle adds 861 image sums at vertex 1 before any path
CYCLE_WITH_LOOPS = ([f"e{i}:{i}>{i % 9 + 1}" for i in range(1, 10)]
                    + [f"l{i}:{i}{'~' if i % 2 else '>'}{i}" for i in range(1, 10)])
PARALLEL = [f"p{k}:10{'~' if k % 3 else '>'}1" for k in range(40)]


@pytest.mark.parametrize("t, specs, last", [
    (9, CYCLE_WITH_LOOPS, "rank along path"), (10, CYCLE_WITH_LOOPS + PARALLEL, "image-sum")],
    ids=["cycle-with-loops", "parallel-arrows"])
def test_rank_profile_stays_within_its_cap(monkeypatch, t, specs, last):
    a = random_representation(biq(t, *specs), (1,) * t, 2, 3)
    calls = []
    rank = CMatrix.rank
    monkeypatch.setattr(CMatrix, "rank", lambda m: calls.append(1) or rank(m))
    ranks = profile_ranks(a)
    assert len(ranks) == len(calls) == MAX_PROFILE_RANKS
    assert ranks[-1][0].startswith(last)
    b = random_base_change(random.Random(8), a)
    calls.clear()  # is_invertible ranks the base change's matrices
    start = time.perf_counter()
    res = are_isomorphic(a, b, seed=1)
    assert time.perf_counter() - start < 1
    # the two profiles, capped, then one rank per vertex as _carries checks the Yes
    assert res.verdict is Verdict.YES and len(calls) == 2 * MAX_PROFILE_RANKS + t


# -- endomorphism algebras ------------------------------------------------------

def test_end_full_loop_zero_is_complex_field():
    a = full_loop(CMatrix.zero(1, 1))
    assert hom_basis(a, a).dimension == 2


def test_end_dashed_loop_identity_is_real_field():
    a = dashed_loop(mat([1]))
    assert hom_basis(a, a).dimension == 1


def test_end_diag_loop_is_two_complex_lines():
    a = full_loop(mat([1, 0], [0, 2]))
    assert hom_basis(a, a).dimension == 4


def test_end_closed_under_composition():
    # End(a) is a unital algebra: products of basis members and the
    # identity are endomorphisms and lie in the real span of the basis
    g = biq(2, "a:1>2", "b:1~1")
    a = random_representation(g, (2, 1), 2, 77)
    basis = hom_basis(a, a)
    columns = [oracle_flatten_tuple(basis, t) for t in basis.tuples]
    products = [oracle_compose(x, y) for x in basis.tuples for y in basis.tuples]
    for f in products + [_identity_tuple(a.dims)]:
        assert _satisfies_morphism(a, a, f)
        assert fraction_solve(columns, oracle_flatten_tuple(basis, f)) is not None


# -- local endomorphism algebras --------------------------------------------------

def oracle_flatten_tuple(basis, mats):
    """The Fraction flattening, real parts then imaginary parts of each matrix,
    that the integer `oracle_flatten` replaced."""
    vec = []
    for m in mats:
        for e in m.entries:
            vec.append(e.re)
        for e in m.entries:
            vec.append(e.im)
    return vec


def oracle_trace_form(basis):
    """The GaussianRational trace form that `_trace_form` replaced."""
    n = basis.dimension
    t = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            acc = Fraction(0)
            for fm, gm in zip(basis.tuples[i], basis.tuples[j]):
                for k in range(fm.rows):
                    for l in range(fm.cols):
                        acc += 2 * (fm.at(k, l) * gm.at(l, k)).re
            t[i][j] = t[j][i] = acc
    return t


def oracle_radical_coords(basis):
    """Coordinates (in the Hom basis) of a basis of the radical of End."""
    return kernel(oracle_trace_form(basis), basis.dimension)


def oracle_certify_local(basis):
    """The quotient-algebra construction that `_certify_local` replaced: find a
    generator of End/rad outside span(identity, radical) and read the sign of
    the discriminant of its quadratic relation."""
    rad = oracle_radical_coords(basis)
    quotient_dim = basis.dimension - len(rad)
    if quotient_dim == 1:
        return True
    if quotient_dim != 2:
        return False
    flat_id = oracle_flatten_tuple(basis, _identity_tuple(basis.source_dims))
    rad_flat = [oracle_flatten_tuple(basis, oracle_combine(basis, coords)) for coords in rad]
    span_cols = [flat_id] + rad_flat
    psi = None
    for tup in basis.tuples:
        if fraction_solve(span_cols, oracle_flatten_tuple(basis, tup)) is None:
            psi = tup
            break
    if psi is None:
        raise AssertionError("no basis element lies outside span(identity, radical)")
    # psi^2 = alpha psi + beta id (mod radical)
    flat_sq = oracle_flatten_tuple(basis, oracle_compose(psi, psi))
    sol = fraction_solve([oracle_flatten_tuple(basis, psi)] + span_cols, flat_sq)
    if sol is None:
        raise AssertionError("square of the generator leaves the quotient")
    alpha, beta = sol[0], sol[1]
    disc = alpha * alpha + 4 * beta
    if disc == 0:
        raise AssertionError("semisimple quotient cannot have a nilpotent generator")
    return disc < 0


# a third of the entries zero, so that End often has a radical or several blocks
_SPARSE_ENTRIES = [(0, 0)] * 4 + [(1, 0), (-1, 0), (0, 1), (2, 0), (1, 1), (Fraction(1, 2), -1),
                                  (0, -3), (-2, 1)]


def _sparse_representation(rng, g, top):
    dims = tuple(rng.randint(0, top) for _ in range(g.t))
    mats = {}
    for a in g.arrows:
        r, c = dims[a.target - 1], dims[a.source - 1]
        mats[a.id] = CMatrix(r, c, tuple(gaussian(*rng.choice(_SPARSE_ENTRIES))
                                         for _ in range(r * c)))
    return MatrixRepresentation(g, dims, mats)


def full_form_verdict(basis):
    """Whether the whole trace form has positive index 1, with no leading block read."""
    positive, _, _ = _symmetric_ldl(_trace_form(basis))
    return positive == 1


def test_certify_local_matches_oracle():
    # random biquivers on 1-3 vertices with full and dashed arrows; each
    # draw gives one representation with dims <= 2 and one direct sum of two
    # with dims <= 1
    rng = random.Random(2)
    outcomes = set()
    for _ in range(150):
        g = random_biquiver(rng)
        a = _sparse_representation(rng, g, 2)
        s = direct_sum(_sparse_representation(rng, g, 1), _sparse_representation(rng, g, 1))
        for rep in (a, s):
            basis = hom_basis(rep, rep)
            # _trace_form is D T D, D the diagonal of the basis tuples' denominators
            dens = [oracle_flatten(tup)[0] for tup in basis.tuples]
            assert _trace_form(basis) == [[di * x * dj for dj, x in zip(dens, row)]
                                          for di, row in zip(dens, oracle_trace_form(basis))]
            verdict = _certify_local(basis)
            assert verdict == oracle_certify_local(basis) == full_form_verdict(basis)
            outcomes.add((basis.dimension - len(oracle_radical_coords(basis)), verdict))
    # End/rad = C (certified) and R x R (not) both occurred, as did R and larger quotients
    assert {(1, True), (2, True), (2, False), (3, False)} <= outcomes


def _real_sum_with_radical():
    # End = R x R plus the radical Hom(y, x) = R: T is singular, of positive index 2
    g = biq(2, "a:1>2", "b:1~1")
    x = MatrixRepresentation(g, (1, 0), {"a": CMatrix.zero(0, 1), "b": mat([1])})
    y = MatrixRepresentation(g, (1, 1), {"a": mat([1]), "b": mat([1])})
    return direct_sum(x, y)


# J conj(J) = -I: End(J) is the quaternions H
QUATERNION_LOOP = dashed_loop(mat([0, -1], [1, 0]))


# the oracle certifies quotients of dimension 1 and 2 only, so it misses H
@pytest.mark.parametrize("rep, quotient_dim, local, oracle", [
    (dashed_loop(mat([1])), 1, True, True),                # End = R
    (full_loop(mat([0])), 2, True, True),                  # End = C
    (dashed_loop(mat([1, 0], [0, 2])), 2, False, False),   # End = R x R
    (full_loop(mat([0, 1], [0, 0])), 2, True, True),       # End = C[x]/x^2, End/rad = C
    (_real_sum_with_radical(), 2, False, False),           # End/rad = R x R
    (QUATERNION_LOOP, 4, True, False),                     # End = H
], ids=["dashed-loop-1", "full-loop-0", "dashed-loop-diag-1-2", "jordan-block",
        "real-sum-with-radical", "quaternion-loop"])
def test_certify_local_named_cases(rep, quotient_dim, local, oracle):
    basis = hom_basis(rep, rep)
    assert basis.dimension - len(oracle_radical_coords(basis)) == quotient_dim
    assert _certify_local(basis) is local is full_form_verdict(basis)
    assert oracle_certify_local(basis) is oracle


def test_certify_local_on_scrambled_sums_matches_the_full_form():
    # End of a sum of three bricks, and of its scrambled copy, has n+ = 3:
    # the leading blocks settle False early wherever they reach 2
    for pair in _scrambled_sums():
        for rep in pair:
            basis = hom_basis(rep, rep)
            assert _certify_local(basis) is full_form_verdict(basis) is False


def test_certify_local_reads_the_whole_form_when_only_it_has_two_positives(monkeypatch):
    # the full loop J2(0) + (1) has End = {[[a, b, 0], [0, a, 0], [0, 0, c]]}, a, b, c
    # complex, and T = 4 on Re a, -4 on Im a, 2 on Re c, -2 on Im c, 0 on b; with
    # Re c last, every leading block has n+ <= 1 and the whole form n+ = 2
    rep = full_loop(mat([0, 1, 0], [0, 0, 0], [0, 0, 1]))

    def unit(*cells):
        nums = [0] * 18
        for k in cells:
            nums[k] = 1
        return 1, tuple(nums)

    # real parts at 0..8, imaginary parts at 9..17, row-major
    b_re, b_im, a_im, c_im, a_re, c_re = (unit(1), unit(10), unit(9, 13), unit(17),
                                          unit(0, 4), unit(8))
    basis = MorphismBasis(rep.biquiver, (3,), (3,), (b_re, b_im, a_im, c_im, a_re, c_re))
    assert basis.dimension == hom_basis(rep, rep).dimension
    assert all(_satisfies_morphism(rep, rep, tup) for tup in basis.tuples)
    t = _trace_form(basis)
    assert [t[i][i] for i in range(6)] == [0, 0, -4, -2, 4, 2]
    assert _symmetric_ldl([row[:5] for row in t[:5]])[0] == 1
    sizes = []
    real_ldl = morphisms._symmetric_ldl

    def ldl(rows):
        sizes.append(len(rows))
        return real_ldl(rows)

    monkeypatch.setattr(morphisms, "_symmetric_ldl", ldl)
    assert _certify_local(basis) is full_form_verdict(basis) is False
    assert sizes == [2, 4, 6]


# -- decomposition --------------------------------------------------------------

def test_decompose_diag_loop():
    dec = decompose(full_loop(mat([1, 0], [0, 2])), seed=3)
    assert sorted(s.matrices["a"].at(0, 0).re for s in dec.summands) == [1, 2]
    assert all(st is IndecomposabilityStatus.CERTIFIED for st in dec.statuses)


def test_decompose_jordan_block_certified_indecomposable():
    dec = decompose(full_loop(mat([0, 1], [0, 0])), seed=3)
    assert len(dec.summands) == 1
    assert dec.statuses == (IndecomposabilityStatus.CERTIFIED,)


def test_decompose_certifies_the_quaternion_loop():
    dec = decompose(QUATERNION_LOOP, seed=3)
    assert dec.summands == (QUATERNION_LOOP,)
    assert dec.statuses == (IndecomposabilityStatus.CERTIFIED,)


def test_decompose_zero_dimensional():
    dec = decompose(zero_representation(path_biquiver(2)))
    assert dec.summands == ()


def test_decompose_certificate_verifies():
    rng = random.Random(4)
    g = biq(2, "a:1>2", "b:2~1")
    x1 = MatrixRepresentation(g, (1, 0), {"a": CMatrix.zero(0, 1), "b": CMatrix.zero(1, 0)})
    x2 = MatrixRepresentation(g, (1, 1), {"a": mat([1]), "b": mat([1])})
    x3 = MatrixRepresentation(g, (0, 1), {"a": CMatrix.zero(1, 0), "b": CMatrix.zero(0, 1)})
    total = direct_sum(direct_sum(x1, x2), x3)
    scrambled = random_base_change(rng, total)
    dec = decompose(scrambled, seed=11)
    assert apply_base_change(scrambled, list(dec.base_change)) == \
        direct_sum_list(g, list(dec.summands))
    assert sorted(s.dims for s in dec.summands) == [(0, 1), (1, 0), (1, 1)]


def test_decompose_splits_scrambled_sums_of_bricks():
    # all-full quiver: end algebras are complex, so splitting requires true
    # rational factor separation of the minimal polynomial
    rng = random.Random(99)
    g = path_biquiver(3)
    i1 = MatrixRepresentation(g, (1, 1, 0), {"e1": mat([1]), "e2": CMatrix.zero(0, 1)})
    i2 = MatrixRepresentation(g, (0, 1, 1), {"e1": CMatrix.zero(1, 0), "e2": mat([1])})
    i3 = MatrixRepresentation(g, (1, 1, 1), {"e1": mat([1]), "e2": mat([1])})
    total = direct_sum(direct_sum(i1, i2), i3)
    for seed in range(5):
        scrambled = random_base_change(rng, total)
        dec = decompose(scrambled, seed=seed)
        assert sorted(s.dims for s in dec.summands) == [(0, 1, 1), (1, 1, 0), (1, 1, 1)]
        assert all(st is IndecomposabilityStatus.CERTIFIED for st in dec.statuses)


def test_every_summand_on_a_dynkin_biquiver_has_a_root_as_dimension_vector():
    # Gabriel's theorem (1972), which conjugation at a vertex carries to
    # biquivers: on a connected Dynkin graph an indecomposable has a positive
    # root of the Tits form as its dimension vector, so q(dim X) == 1
    rng = random.Random(1972)
    shapes = [g for label, g in dynkin_and_extended(6) if label[0] != "~"]
    summands = 0
    for draw in range(120):
        g = _reassign(rng, rng.choice(shapes))
        dims = tuple(rng.randint(0, 2) for _ in range(g.t))
        dec = decompose(random_representation(g, dims, 2, draw), seed=draw)
        assert all(st is IndecomposabilityStatus.CERTIFIED for st in dec.statuses)
        assert all(evaluate(g, s.dims) == 1 for s in dec.summands)
        assert [sum(s.dims[v] for s in dec.summands) for v in range(g.t)] == list(dims)
        summands += len(dec.summands)
    assert summands > 200


def test_every_certified_summand_on_an_extended_dynkin_biquiver_is_a_root_or_a_null_root():
    # Kac's theorem (1980) on an extended Dynkin quiver: an indecomposable has
    # q(dim X) in {0, 1}, and q = 0 only at multiples of the radical vector
    # delta. Cycles with an odd number of dashed arrows reduce to no quiver,
    # and the property is checked there too
    rng = random.Random(1980)
    shapes = [(label, g) for label, g in dynkin_and_extended(7) if label[0] == "~"]
    seen = Counter()
    for draw in range(150):
        label, g = rng.choice(shapes)
        g = _reassign(rng, g)
        odd = label[1] == "A" and sum(a.is_dashed for a in g.arrows) % 2 == 1
        delta = radical_vector(gram_matrix(g))
        dims = tuple(rng.randint(0, 2) for _ in range(g.t))
        dec = decompose(random_representation(g, dims, 2, draw), seed=draw)
        assert [sum(s.dims[v] for s in dec.summands) for v in range(g.t)] == list(dims)
        for s, status in zip(dec.summands, dec.statuses):
            if status is not IndecomposabilityStatus.CERTIFIED:
                continue
            q = evaluate(g, s.dims)
            assert q in (0, 1), (g, dims, draw, s.dims)
            if q == 0:
                k = s.dims[0] // delta[0]
                assert s.dims == tuple(k * x for x in delta), (g, dims, draw, s.dims)
            seen[odd, q] += 1
    # every case is met, odd-dash cycles with a null root among them
    assert min(seen[odd, q] for odd in (False, True) for q in (0, 1)) >= 5, seen


def in_reduced_echelon(m: CMatrix) -> bool:
    """Whether the k-th of m's first independent columns is the unit vector e_k
    and the rows past its rank are zero."""
    rank = 0
    for j in range(m.cols):
        if submatrix(m, range(m.rows), range(j + 1)).rank() > rank:
            if submatrix(m, range(m.rows), [j]) != submatrix(CMatrix.identity(m.rows),
                                                            range(m.rows), [rank]):
                return False
            rank += 1
    return submatrix(m, range(rank, m.rows), range(m.cols)).is_zero()


def assert_forest_in_echelon_form(rep):
    """Each spanning-forest arrow of rep is in reduced echelon form: an arrow into the
    vertex it reaches by columns, an arrow out of it by rows."""
    for aid, o in _spanning_forest(rep.biquiver)[3].items():
        m = rep.matrices[aid]
        assert in_reduced_echelon(m if rep.biquiver.arrow(aid).target == o else transpose(m))


def oracle_echelon_change(rep):
    """`_echelon_change` as it was before it read S_o^-1 and the tree arrows off
    one reduced row echelon form: one inverse per placed vertex, and every
    arrow through `_transform`."""
    g = rep.biquiver
    s = [CMatrix.identity(d) for d in rep.dims]
    inv = list(s)
    _, parent, _, tree, _ = _spanning_forest(g)
    for aid, o in tree.items():
        arrow, w = g.arrow(aid), parent[o] - 1
        m, unit = rep.matrices[aid], CMatrix.identity(rep.dims[o - 1])
        if arrow.target == o:
            x = column_space_basis(hstack(m @ s[w], unit))
            x_inv = x.inverse()
            s[o - 1], inv[o - 1] = (x.conj(), x_inv.conj()) if arrow.is_dashed else (x, x_inv)
        else:
            left = inv[w].conj() if arrow.is_dashed else inv[w]
            y = transpose(column_space_basis(hstack(transpose(left @ m), unit)))
            s[o - 1], inv[o - 1] = y.inverse(), y
    return s, _transform(rep, s, inv)


def assert_echelon_change(rep):
    s, changed = _echelon_change(rep)
    assert all(m.rows == d and m.is_invertible() for m, d in zip(s, rep.dims))
    assert changed == apply_base_change(rep, s)
    assert_forest_in_echelon_form(changed)
    assert (s, changed) == oracle_echelon_change(rep)


@settings(deadline=None, max_examples=100)
@given(profile_representations(), st.integers(0, 10 ** 6), st.booleans())
def test_echelon_change_is_a_base_change_to_echelon_form(x, seed, summed):
    # mixed arrows, loops, parallel arrows and zero dimensions, and scrambled
    # sums x + x, which are dense
    rng = random.Random(seed)
    rep = direct_sum(x, x) if summed else x
    assert_echelon_change(rep)
    assert_echelon_change(apply_base_change(rep, [random_invertible(rng, d) for d in rep.dims]))


def test_echelon_change_on_scrambled_sums():
    # the E6 and E7 sums, and one whose arrows into and out of the placed
    # vertices alternate along a path of mixed arrows
    g = biq(5, "a:1>2", "b:3~2", "c:3>4", "d:5~4", "l:2~2")
    x = random_representation(g, (2, 1, 3, 2, 0), 2, 5)
    rng = random.Random(8)
    for rep in [sx for _, sx in _scrambled_sums()] + [random_base_change(rng, direct_sum(x, x))]:
        assert_echelon_change(rep)


def test_decompose_solves_large_nodes_in_echelon_form(monkeypatch):
    # every node reaches hom_basis: from _MIN_SPLIT_CELLS cells on as the
    # echelon change gave it, below that as decompose had it; the threshold
    # is moved to the root's own count and just past it
    rep = _scrambled_sums()[0][1]

    def cells(r):
        return prod(_hom_system_size(r.biquiver, r.dims, r.dims))

    assert cells(rep) >= morphisms._MIN_SPLIT_CELLS
    solved, changed, nodes = [], [], []
    real_hom, real_change, real_split = (morphisms.hom_basis, morphisms._echelon_change,
                                         morphisms._primary_split)

    def hom(a, b):
        solved.append(a)
        return real_hom(a, b)

    def change(r):
        s, a = real_change(r)
        changed.append(a)
        return s, a

    def split(r, parts):
        images, blocks = real_split(r, parts)
        nodes.extend(blocks)
        return images, blocks

    monkeypatch.setattr(morphisms, "hom_basis", hom)
    monkeypatch.setattr(morphisms, "_echelon_change", change)
    monkeypatch.setattr(morphisms, "_primary_split", split)
    for threshold in (cells(rep), cells(rep) + 1):
        monkeypatch.setattr(morphisms, "_MIN_SPLIT_CELLS", threshold)
        solved.clear(), changed.clear()
        nodes[:] = [rep]
        decompose(rep, seed=0)
        assert len(solved) == len(nodes) > 1
        assert len(changed) == (threshold == cells(rep))
        for a in solved:
            if cells(a) >= threshold:
                assert any(a is c for c in changed)
                assert_forest_in_echelon_form(a)
            else:
                assert any(a is n for n in nodes)


def oracle_minimal_polynomial(basis, phi):
    """The incremental Fraction elimination that `_minimal_polynomial` replaced."""
    echelon = []
    power = _identity_tuple(basis.source_dims)
    poly = [Fraction(1)]
    while True:
        vec = oracle_flatten_tuple(basis, power)
        combo = list(poly)
        for pivot, row, row_poly in echelon:
            if vec[pivot]:
                f = vec[pivot]
                vec = [x - f * y for x, y in zip(vec, row)]
                pad = len(combo) - len(row_poly)
                padded = row_poly + [Fraction(0)] * pad
                combo = [x - f * y for x, y in zip(combo, padded)]
        lead = next((i for i, x in enumerate(vec) if x), None)
        if lead is None:
            return oracle_monic(combo)
        inv = 1 / vec[lead]
        echelon.append((lead, [x * inv for x in vec], [x * inv for x in combo]))
        power = oracle_compose(phi, power)
        poly = [Fraction(0)] + poly


def test_minimal_polynomial_matches_oracle():
    rng = random.Random(21)
    reps = [a for a, b in _hom_differential_pairs() if a is b]
    reps.append(full_loop(mat([1, 0, 0], [0, 1, 0], [0, 0, 2])))
    reps.append(full_loop(CMatrix.zero(0, 0)))
    for a in reps:
        basis = hom_basis(a, a)
        samples = [[rng.randint(-5, 5) for _ in basis.tuples] for _ in range(3)]
        samples += [[int(i == j) for i in range(basis.dimension)]
                    for j in range(basis.dimension)]
        for coeffs in samples:
            phi = _combine(basis, coeffs)
            assert _minimal_polynomial(basis, phi) == \
                primitive_form(oracle_minimal_polynomial(basis, as_tuple(basis, phi)))


def oracle_eval_poly_tuple(poly, phi, dims):
    """The Horner evaluation of a polynomial at a tuple, verbatim but for
    `CMatrix.scale`, which moved here as `oracle_scale`."""
    acc = tuple(CMatrix.zero(d, d) for d in dims)
    ident = _identity_tuple(dims)
    for c in reversed(poly):
        acc = oracle_compose(acc, phi)
        if c:
            acc = tuple(am + oracle_scale(im, c) for am, im in zip(acc, ident))
    return acc


@st.composite
def polynomials_at_tuples(draw):
    """(poly, phi, dims): a nonempty rational polynomial, lowest degree first,
    and a tuple of square Gaussian-rational matrices on 1-3 vertices."""
    dims = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    entry = draw(st.sampled_from([small_gaussians, wide_gaussians]))
    phi = tuple(CMatrix(d, d, [draw(entry) for _ in range(d * d)]) for d in dims)
    poly = draw(st.lists(st.one_of(st.just(Fraction(0)), small_fractions), min_size=1, max_size=7))
    return poly, phi, dims


@settings(deadline=None)
@given(polynomials_at_tuples())
def test_powers_combine_to_horner(case):
    # the powers `_minimal_polynomial` hands back are the vectors of 1, phi, ...,
    # phi^deg, each the integer flattening of the tuple power, so a polynomial
    # of degree up to deg is one combination of them
    poly, phi, dims = case
    basis, length = MorphismBasis(None, dims, dims, ()), 2 * sum(d * d for d in dims)
    powers = []
    minpoly = _minimal_polynomial(basis, oracle_flatten(phi), powers)
    assert len(powers) == len(minpoly)
    assert powers[:2] == [oracle_flatten(_identity_tuple(dims)), oracle_flatten(phi)][:len(powers)]
    tuple_powers = [as_tuple(basis, power) for power in powers]
    for k in range(2, len(powers)):
        assert powers[k] == oracle_flatten(oracle_compose(phi, tuple_powers[k - 1]))
    assert as_tuple(basis, _linear_combination(minpoly, powers, length)) == \
        tuple(CMatrix.zero(d, d) for d in dims)
    # the drawn rational polynomial, over the lcm of its denominators
    den = lcm(*(c.denominator for c in poly[:len(powers)]))
    poly = [int(c * den) for c in poly[:len(powers)]]
    combined = as_tuple(basis, _linear_combination(poly, powers, length))
    assert combined == oracle_combination(poly, tuple_powers, [(d, d) for d in dims]) == \
        oracle_eval_poly_tuple(poly, phi, dims)


def test_cofactors_compose_only_inside_the_minimal_polynomial(monkeypatch):
    # per candidate, phi^2..phi^deg take one composition each, all while the
    # minimal polynomial is found; the primary parts compose nothing
    compositions, degrees, inside = [], [], []
    real_compose, real_minpoly = morphisms._compose, morphisms._minimal_polynomial

    def compose(f, g_, dims):
        compositions.append(bool(inside))
        return real_compose(f, g_, dims)

    def minpoly(basis, phi, powers=None):
        inside.append(1)
        try:
            result = real_minpoly(basis, phi, powers)
        finally:
            inside.pop()
        degrees.append(len(result) - 1)
        return result

    monkeypatch.setattr(morphisms, "_compose", compose)
    monkeypatch.setattr(morphisms, "_minimal_polynomial", minpoly)
    for rep, trials, seed in _decompose_corpus()[:6]:
        decompose(rep, trials, seed)
    assert all(compositions)
    assert len(compositions) == sum(d - 1 for d in degrees)
    assert len(degrees) >= 6 and max(degrees) >= 3


def oracle_vertex_killers(basis, vertex, vec):
    """The `_vertex_killers` that solved over the Fraction flattening."""
    columns = [oracle_flatten_tuple(basis, (tup[vertex] @ vec,)) for tup in basis.tuples]
    height = len(columns[0]) if columns else 0
    rows = [[col[i] for col in columns] for i in range(height)]
    return kernel(rows, len(columns))


def test_vertex_killers_match_oracle():
    # vectors with denominators, so the columns come over different ones
    rng = random.Random(23)
    reps = [a for a, b in _hom_differential_pairs() if a is b]
    reps += [direct_sum(a, a) for a in reps[:2]]
    found = 0
    for a in reps:
        basis = hom_basis(a, a)
        for w in range(a.biquiver.t):
            for _ in range(2 if a.dims[w] else 0):
                vec = CMatrix.column([gaussian(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                                               rng.randint(-9, 9)) for _ in range(a.dims[w])])
                killers = _vertex_killers(basis, w, vec)
                oracle = oracle_vertex_killers(basis, w, vec)
                assert len(killers) == len(oracle)
                for k, o in zip(killers, oracle):
                    # the free column is the last nonzero one of a canonical kernel vector
                    f = max(i for i, x in enumerate(o) if x)
                    assert o[f] == 1 and k[f] > 0 and all(type(x) is int for x in k)
                    assert k == [k[f] * x for x in o]
                found += bool(killers)
    assert found


def test_split_candidates_kill_their_vector(monkeypatch):
    # every candidate that is not the round's sample kills, at its vertex,
    # the vector last handed to `_vertex_killers`
    calls, sampled = [], []
    real_killers, real_sample = morphisms._vertex_killers, morphisms._sample

    def killers(basis, w, vec):
        calls.append((w, vec))
        return real_killers(basis, w, vec)

    def sample(*args):
        sampled.append(real_sample(*args))
        return sampled[-1]

    monkeypatch.setattr(morphisms, "_vertex_killers", killers)
    monkeypatch.setattr(morphisms, "_sample", sample)
    xx = direct_sum(full_loop(mat([1, 1], [0, 1])), full_loop(mat([1, 1], [0, 1])))
    reps = [rep for rep, _, _ in _decompose_corpus()[:2]]
    reps.append(random_base_change(random.Random(41), xx))
    checked = 0
    for seed, rep in enumerate(reps):
        basis = hom_basis(rep, rep)
        for phi in _split_candidates(basis, rep.dims, 2, random.Random(seed)):
            if not any(phi is f for f in sampled):
                w, vec = calls[-1]
                assert (as_tuple(basis, phi)[w] @ vec).is_zero()
                checked += 1
    assert checked


def test_minimal_polynomial_of_identity():
    a = full_loop(mat([5]))
    basis = hom_basis(a, a)
    p = _minimal_polynomial(basis, (1, [1, 0]))
    assert p == [Fraction(-1), Fraction(1)]  # x - 1


def test_decompose_two_seeds_agree_up_to_isomorphism():
    rng = random.Random(15)
    g = biq(2, "a:1~2")
    x = MatrixRepresentation(g, (1, 1), {"a": mat([1])})
    y = MatrixRepresentation(g, (1, 0), {"a": CMatrix.zero(0, 1)})
    total = random_base_change(rng, direct_sum(direct_sum(x, y), x))
    d1 = decompose(total, seed=1)
    d2 = decompose(total, seed=2)
    match = krull_schmidt_compare(list(d1.summands), list(d2.summands), seed=5)
    assert match is not None
    for i, j, cert in match:
        assert apply_base_change(d1.summands[i], list(cert)) == d2.summands[j]


def test_hom_dimension_invariant_under_conjugation():
    from biquiver import conjugate_representation
    rng = random.Random(44)
    g = biq(2, "a:1~2", "b:2>2", "c:1>1")
    for _ in range(10):
        a = random_representation(g, (2, 1), 2, rng.randint(0, 10 ** 6))
        b = random_representation(g, (2, 1), 2, rng.randint(0, 10 ** 6))
        base = hom_basis(a, b).dimension
        for u in (1, 2):
            au = conjugate_representation(a, u)
            bu = conjugate_representation(b, u)
            assert hom_basis(au, bu).dimension == base


def test_direct_sum_commutative_and_associative_up_to_iso():
    x = full_loop(mat([1]))
    y = full_loop(mat([0, 1], [0, 0]))
    z = full_loop(mat([5]))
    ab = direct_sum(x, y)
    ba = direct_sum(y, x)
    assert are_isomorphic(ab, ba, seed=2).verdict is Verdict.YES
    left = direct_sum(direct_sum(x, y), z)
    right = direct_sum(x, direct_sum(y, z))
    assert left == right  # strictly equal blocks, not just isomorphic


# -- decompose against the sampling loop it replaced ------------------------------

def oracle_slice_block(a, starts, sizes):
    mats = {}
    for arrow in a.biquiver.arrows:
        u, v = arrow.source - 1, arrow.target - 1
        m = a.matrices[arrow.id]
        mats[arrow.id] = submatrix(m, range(starts[v], starts[v] + sizes[v]),
                                   range(starts[u], starts[u] + sizes[u]))
    return MatrixRepresentation(a.biquiver, sizes, mats)


def oracle_assert_block_diagonal(a, split):
    for arrow in a.biquiver.arrows:
        u, v = arrow.source - 1, arrow.target - 1
        m = a.matrices[arrow.id]
        upper_right = submatrix(m, range(split[v]), range(split[u], a.dims[u]))
        lower_left = submatrix(m, range(split[v], a.dims[v]), range(split[u]))
        if not (upper_right.is_zero() and lower_left.is_zero()):
            raise AssertionError("idempotent did not block-diagonalize")


def oracle_splitting_idempotent(minpoly, phi, dims):
    """The binary split: the idempotent E(phi), E = 1 mod m1 and 0 mod m2 for
    the power m1 of the first irreducible factor of minpoly and its cofactor
    m2, or None when minpoly has one irreducible factor."""
    split = oracle_coprime_split(minpoly)
    if split is None:
        return None
    e = oracle_eval_poly_tuple(oracle_idempotent(*split), phi, dims)
    if oracle_compose(e, e) != e:
        raise AssertionError("Bezout element is not idempotent")
    return e


def oracle_image_kernel_change(e):
    """Per-vertex base change [im-basis | ker-basis] for an idempotent tuple."""
    return ([hstack(column_space_basis(ev), nullspace_basis(ev)) for ev in e],
            tuple(ev.rank() for ev in e))


def oracle_decompose(a, trials=morphisms.DEFAULT_TRIALS, seed=0,
                     coeff_bound=morphisms.COEFF_BOUND):
    """`decompose` splitting one factor power off at a time, with the
    vertex-killer search nested inside its trial loop, before
    `_split_candidates` drew the same candidates lazily."""
    _check_sampling(trials, seed)
    rng = random.Random(seed)

    def rec(rep: MatrixRepresentation):
        if rep.total_dim() == 0:
            return [], [CMatrix.identity(d) for d in rep.dims], []
        basis = hom_basis(rep, rep)
        n = basis.dimension
        if _certify_local(basis):
            return [rep], [CMatrix.identity(d) for d in rep.dims], \
                [IndecomposabilityStatus.CERTIFIED]

        def attempt(phi):
            return oracle_splitting_idempotent(_minimal_polynomial(basis, phi),
                                               as_tuple(basis, phi), rep.dims)

        for _ in range(trials):
            coeffs = [rng.randint(-coeff_bound, coeff_bound) for _ in range(n)]
            e = attempt(_combine(basis, coeffs))
            if e is None:
                # singular-element search: endomorphisms killing a random
                # vector at some vertex have x | minimal polynomial, which
                # splits isotypic sums whose generic endomorphisms have
                # irreducible rational minimal polynomials
                vertices = [w for w in range(rep.biquiver.t) if rep.dims[w] > 0]
                rng.shuffle(vertices)
                for w in vertices:
                    vec = CMatrix.column([GaussianRational(
                        Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
                        for _ in range(rep.dims[w])])
                    if vec.is_zero():
                        continue
                    for coords in _vertex_killers(basis, w, vec):
                        e = attempt(_combine(basis, coords))
                        if e is not None:
                            break
                    if e is not None:
                        break
            if e is None:
                continue
            ts, ranks = oracle_image_kernel_change(e)
            if all(r == d for r, d in zip(ranks, rep.dims)) or not any(ranks):
                continue
            changed = apply_base_change(rep, ts)
            oracle_assert_block_diagonal(changed, ranks)
            first = oracle_slice_block(changed, (0,) * rep.biquiver.t, ranks)
            second = oracle_slice_block(changed, ranks,
                                        tuple(d - r for d, r in zip(rep.dims, ranks)))
            s1, c1, st1 = rec(first)
            s2, c2, st2 = rec(second)
            total_change = [t @ block_diag(x, y) for t, x, y in zip(ts, c1, c2)]
            return s1 + s2, total_change, st1 + st2
        return [rep], [CMatrix.identity(d) for d in rep.dims], \
            [IndecomposabilityStatus.PROBABLE]

    summands, change, statuses = rec(a)
    result = Decomposition(tuple(summands), tuple(change), tuple(statuses),
                           trials, seed)
    recombined = direct_sum_list(a.biquiver, list(result.summands))
    if apply_base_change(a, list(result.base_change)) != recombined:
        raise AssertionError("decomposition certificate does not verify")
    return result


DIAG_LOOP = dashed_loop(mat([1, 0], [0, -1]))  # End = M2(R), isotypic


def _decompose_corpus():
    """(rep, trials, seed): scrambled A3/D4 sums, isotypic sums, the dashed
    loop diag(1, -1), no trials and a zero-dimensional representation."""
    rng = random.Random(14)
    cases = []
    for k in range(16):
        g = _random_dashing(rng, path_biquiver(3) if k % 2 else star_biquiver([1, 1, 1]))
        pool = (_a3_indecomposables if k % 2 else _d4_indecomposables)(g)
        total = direct_sum_list(g, [rng.choice(pool) for _ in range(3)])
        cases.append((random_base_change(rng, total), 8, k))
    # End(x) = R and y is not isomorphic to x: conj(s)^-1 2 s has modulus 2
    g = biq(2, "a:1>2", "b:2~2")
    x = MatrixRepresentation(g, (1, 1), {"a": mat([1]), "b": mat([1])})
    y = MatrixRepresentation(g, (1, 1), {"a": mat([1]), "b": mat([2])})
    for k, total in enumerate([direct_sum(full_loop(mat([1])), full_loop(mat([1]))),
                               direct_sum(x, x), direct_sum(direct_sum(x, x), y),
                               direct_sum(direct_sum(y, x), x)]):
        cases += [(random_base_change(rng, total), 8, seed) for seed in (k, k + 10)]
    cases += [(DIAG_LOOP, trials, seed) for trials in (8, 64) for seed in range(8)]
    cases += [(random_base_change(rng, direct_sum(x, y)), 0, 3),
              (zero_representation(g, (0, 0)), 8, 0)]
    return cases


def matches_oracle(rep, trials, seed) -> bool:
    """Whether decompose and oracle_decompose give the same (dims, status)
    multiset; if so, `krull_schmidt_compare` matches their summands. If not,
    decompose must have split ProbablyIndecomposable leaves of the oracle
    further, into certified leaves, keeping every certified one."""
    dec, oracle = decompose(rep, trials, seed), oracle_decompose(rep, trials, seed)
    leaves, oracle_leaves = (Counter(zip((s.dims for s in d.summands), d.statuses))
                             for d in (dec, oracle))
    if leaves != oracle_leaves:
        probable = IndecomposabilityStatus.PROBABLE
        unsplit = [dims for dims, st in oracle_leaves.elements() if st is probable]
        split = leaves - oracle_leaves
        assert oracle_leaves - leaves == Counter((dims, probable) for dims in unsplit)
        assert all(st is IndecomposabilityStatus.CERTIFIED for _, st in split)
        assert [sum(x) for x in zip(*(dims for dims, _ in split.elements()))] == \
            [sum(x) for x in zip(*unsplit)]
        return False
    match = krull_schmidt_compare(list(dec.summands), list(oracle.summands), seed=seed)
    assert match is not None
    for i, j, cert in match:
        assert apply_base_change(dec.summands[i], list(cert)) == oracle.summands[j]
    return True


def test_decompose_matches_oracle(monkeypatch):
    # a split whose phi did not come from `_sample` came from the killer tail
    sampled, widths = [], []
    killer_splits = 0
    real_sample, real_split = morphisms._sample, morphisms._splitting_idempotent

    def sample(*args):
        sampled.append(real_sample(*args))
        return sampled[-1]

    def split(minpoly, powers, dims):
        nonlocal killer_splits
        parts = real_split(minpoly, powers, dims)
        if parts is not None:
            killer_splits += not any(powers[1] is f for f in sampled)
            widths.append(len(parts))
        return parts

    monkeypatch.setattr(morphisms, "_sample", sample)
    monkeypatch.setattr(morphisms, "_splitting_idempotent", split)
    # no case's multiset moves, and which ones do is seed luck. Over the
    # corpus at seeds 0-9 the oracle leaves 138 ProbablyIndecomposable leaves
    # and decompose 136: on x + x + y over 1 -> 2 with a dashed loop at 2
    # (case 21 at seed 4, case 22 at seed 1) decompose splits the oracle's
    # (2, 2) leaf into two certified ones. At case 21's own seed 12 it did so
    # too until large nodes were put in echelon form, and no longer does.
    moved = [k for k, case in enumerate(_decompose_corpus()) if not matches_oracle(*case)]
    assert moved == []
    assert killer_splits > 0
    # some nodes split into three primary components at once
    assert max(widths) == 3


@settings(deadline=None, max_examples=60)
@given(profile_representations(max_dim=2), st.integers(0, 10 ** 6))
def test_decompose_matches_oracle_under_base_change(x, seed):
    rng = random.Random(seed)
    matches_oracle(apply_base_change(x, [random_invertible(rng, d) for d in x.dims]),
                   morphisms.DEFAULT_TRIALS, seed)


def test_diag_loop_keeps_its_unsplit_seeds():
    # End = M2(R) has no rational idempotent the sampler reliably finds: with
    # 64 trials seeds 4 and 7 still end in one ProbablyIndecomposable leaf
    unsplit = [seed for seed in range(8)
               if decompose(DIAG_LOOP, trials=64, seed=seed).summands == (DIAG_LOOP,)]
    assert unsplit == [4, 7]
    assert decompose(DIAG_LOOP, trials=64, seed=4).statuses == \
        (IndecomposabilityStatus.PROBABLE,)


# -- Krull-Schmidt comparison ----------------------------------------------------

def test_compare_permutation():
    x = [full_loop(mat([1])), full_loop(mat([2]))]
    y = [full_loop(mat([2])), full_loop(mat([1]))]
    match = krull_schmidt_compare(x, y, seed=0)
    assert match is not None
    assert sorted((i, j) for i, j, _ in match) == [(0, 1), (1, 0)]


def test_compare_absent_on_nonisomorphic():
    assert krull_schmidt_compare([full_loop(mat([1]))], [full_loop(mat([2]))], seed=0) is None
    assert krull_schmidt_compare([full_loop(mat([1]))], [], seed=0) is None


# -- sampling parameters and certificate checks ----------------------------------

@pytest.mark.parametrize("trials, seed", [(-1, 10), (-3, 10 ** 4)])
def test_sampling_parameters_rejected(trials, seed):
    a = full_loop(mat([1, 0], [0, 2]))
    b = full_loop(mat([2, 0], [0, 1]))
    with pytest.raises(PreconditionError):
        are_isomorphic(a, b, trials=trials, seed=seed)
    with pytest.raises(PreconditionError):
        decompose(dashed_loop(mat([1, 0], [0, 2])), trials=trials, seed=seed)
    with pytest.raises(PreconditionError):
        are_consimilar(mat([1]), mat([2]), trials=trials, seed=seed)
    with pytest.raises(PreconditionError):
        krull_schmidt_compare([a], [b], trials=trials, seed=seed)
    # no pair with equal dimension vectors, so no isomorphism test runs
    with pytest.raises(PreconditionError):
        krull_schmidt_compare([], [], trials=trials, seed=seed)
    with pytest.raises(PreconditionError):
        krull_schmidt_compare([a], [], trials=trials, seed=seed)


@pytest.mark.parametrize("trials, seed, message", [
    ("2", 10, "trials must be a nonnegative int"), (2.0, 10, "trials must be a nonnegative int"),
    (True, 10, "trials must be a nonnegative int"), (None, 10, "trials must be a nonnegative int"),
    # a seed was once taken unchecked: "x" came back as the reported seed, and
    # None seeded from OS entropy, which no reported seed reproduces
    (2, None, "seed must be an int, got None"), (2, "x", "seed must be an int, got 'x'"),
    (2, 1.5, "seed must be an int, got 1.5"), (2, True, "seed must be an int, got True")])
def test_sampling_parameters_of_another_type_rejected(trials, seed, message):
    a = full_loop(mat([1, 0], [0, 2]))
    b = full_loop(mat([2, 0], [0, 1]))
    for run in (lambda: are_isomorphic(a, b, trials=trials, seed=seed),
                lambda: decompose(dashed_loop(mat([1, 0], [0, 2])), trials=trials, seed=seed),
                lambda: are_consimilar(mat([1]), mat([2]), trials=trials, seed=seed),
                lambda: krull_schmidt_compare([a], [b], trials=trials, seed=seed)):
        with pytest.raises(PreconditionError, match=message):
            run()


def test_the_coefficient_bound_is_not_a_parameter():
    a = full_loop(mat([1]))
    for run in (lambda: are_isomorphic(a, a, coeff_bound=1),
                lambda: decompose(a, coeff_bound=1),
                lambda: are_consimilar(mat([1]), mat([1]), coeff_bound=1),
                lambda: krull_schmidt_compare([a], [a], coeff_bound=1)):
        with pytest.raises(TypeError, match="coeff_bound"):
            run()


def test_sampling_parameter_edges_accepted():
    res = are_isomorphic(full_loop(mat([1])), full_loop(mat([2])), trials=0)
    assert res.verdict is Verdict.NO
    dec = decompose(dashed_loop(mat([1, 0], [0, 2])), trials=0)
    assert dec.statuses == (IndecomposabilityStatus.PROBABLE,)


def test_decompose_certificate_check_survives_optimize_flag():
    # python -O strips assert statements; a wrong recombination must still raise.
    code = textwrap.dedent("""
        import biquiver.morphisms as morphisms
        from biquiver import (Arrow, ArrowKind, Biquiver, CMatrix,
                              MatrixRepresentation)
        real_sum = morphisms.direct_sum_list

        def wrong_sum(g, summands):
            s = real_sum(g, summands)
            m = s.matrices["a"]
            return MatrixRepresentation(g, s.dims, {"a": m + CMatrix.identity(m.rows)})

        morphisms.direct_sum_list = wrong_sum
        g = Biquiver(1, (Arrow("a", 1, 1, ArrowKind.DASHED),))
        rep = MatrixRepresentation(g, (2,), {"a": CMatrix.from_rows([[1, 0], [0, 2]])})
        try:
            morphisms.decompose(rep)
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


def test_decompose_refuses_a_singular_base_change_under_optimize_flag():
    # S = 0 passes the morphism half of the certificate check trivially
    # (A 0 == 0 R), so the invertibility half must refuse it under -O too
    code = textwrap.dedent("""
        import biquiver.morphisms as morphisms
        from biquiver import (Arrow, ArrowKind, Biquiver, CMatrix,
                              MatrixRepresentation)

        morphisms._identity_tuple = lambda dims: tuple(CMatrix.zero(d, d) for d in dims)
        g = Biquiver(1, (Arrow("a", 1, 1, ArrowKind.DASHED),))
        rep = MatrixRepresentation(g, (1,), {"a": CMatrix.from_rows([[1]])})
        try:
            morphisms.decompose(rep)
        except AssertionError as e:
            print("raised:", e)
        else:
            print("returned")
    """)
    src = str(Path(biquiver.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout == "raised: decomposition certificate does not verify\n", proc.stdout


def oracle_primary_change(parts, dims):
    """`_primary_change` as it was before the split read its blocks off reduced
    row echelon forms: the base change [im M_1(phi)_v | ... | im M_r(phi)_v]
    and the dimension vector of each image."""
    images = [[column_space_basis(m) for m in part] for part in parts]
    sizes = [tuple(m.cols for m in image) for image in images]
    if not all(map(any, sizes)) or any(sum(col) != d for col, d in zip(zip(*sizes), dims)):
        raise AssertionError("primary parts do not split the representation")
    return [reduce(hstack, column) for column in zip(*images)], sizes


def oracle_split_blocks(rep, sizes):
    """`_split_blocks` as it was: the diagonal blocks of rep, once the blocks off
    the diagonal are checked to be zero."""
    starts = [list(accumulate(column, initial=0)) for column in zip(*sizes)]
    blocks = [{} for _ in sizes]
    for arrow in rep.biquiver.arrows:
        u, v = arrow.source - 1, arrow.target - 1
        m = rep.matrices[arrow.id]
        for j, block in enumerate(blocks):
            rows = range(starts[v][j], starts[v][j + 1])
            cols = range(starts[u][j], starts[u][j + 1])
            if not submatrix(m, [i for i in range(m.rows) if i not in rows], cols).is_zero():
                raise AssertionError("base change did not block-diagonalize")
            block[arrow.id] = submatrix(m, rows, cols)
    return [MatrixRepresentation(rep.biquiver, d, block) for d, block in zip(sizes, blocks)]


def base_change(images):
    """T_v = [X_1v | ... | X_rv] at each vertex v, from the images X_j of `_primary_split`."""
    return [reduce(hstack, column) for column in zip(*images)]


def oracle_primary_split(rep, parts):
    """The split as `decompose` made it before: T, then the blocks of T^-1 A T,
    with T inverted by `apply_base_change`."""
    ts, sizes = oracle_primary_change(parts, rep.dims)
    return ts, oracle_split_blocks(apply_base_change(rep, ts), sizes)


@settings(deadline=None, max_examples=100)
@given(profile_representations(), st.integers(0, 10 ** 6), st.booleans())
def test_primary_split_matches_the_inverting_oracle(x, seed, scrambled):
    # mixed arrows, loops, parallel arrows and zero dimensions; the parts of the
    # first few split candidates that have some
    rng = random.Random(seed)
    rep = apply_base_change(x, [random_invertible(rng, d) for d in x.dims]) if scrambled else x
    basis = hom_basis(rep, rep)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(morphisms, "COEFF_BOUND", 10)
        candidates = list(islice(_split_candidates(basis, rep.dims, 2, rng), 6))
    for phi in candidates:
        powers = []
        parts = _splitting_idempotent(_minimal_polynomial(basis, phi, powers), powers, rep.dims)
        if parts is not None:
            images, blocks = _primary_split(rep, parts)
            assert (base_change(images), blocks) == oracle_primary_split(rep, parts)


def test_primary_split_refuses_parts_that_are_not_endomorphisms():
    # the projections onto e1 and e2 split the dimensions of a nilpotent loop,
    # but e2's line is not invariant, so its block fails the morphism check
    rep = MatrixRepresentation(biq(1, "a:1>1"), (2,), {"a": mat([0, 1], [0, 0])})
    parts = [(mat([1, 0], [0, 0]),), (mat([0, 0], [0, 1]),)]
    with pytest.raises(AssertionError, match="^base change did not block-diagonalize$"):
        _primary_split(rep, parts)


def test_primary_change_eliminates_once_per_part_and_vertex(monkeypatch):
    # the parts of phi = (diag(1, 2), [1], the 0 x 0 matrix), whose minimal
    # polynomial is (x - 1)(x - 2): M_1 = x - 2 and M_2 = x - 1; phi is an
    # endomorphism of a: 2 -> 1 and b: 1 -> 3 below
    parts = [(mat([-1, 0], [0, 0]), mat([-1]), CMatrix.zero(0, 0)),
             (mat([0, 0], [0, 1]), mat([0]), CMatrix.zero(0, 0))]
    g = biq(3, "a:2>1", "b:1~3")
    rep = MatrixRepresentation(g, (2, 1, 0), {"a": mat([1], [0]), "b": CMatrix.zero(0, 2)})
    images = [(mat([-1], [0]), mat([-1]), CMatrix.zero(0, 0)),
              (mat([0], [1]), CMatrix.zero(1, 0), CMatrix.zero(0, 0))]
    blocks = [MatrixRepresentation(g, (1, 1, 0), {"a": mat([1]), "b": CMatrix.zero(0, 1)}),
              MatrixRepresentation(g, (1, 0, 0), {"a": CMatrix.zero(1, 0),
                                                  "b": CMatrix.zero(0, 1)})]
    calls = []
    original = linalg._echelon

    def counting(rows):
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(linalg, "_echelon", counting)
    assert _primary_split(rep, parts) == (images, blocks)
    assert calls == [4, 2, 0, 4, 2, 0]
    assert oracle_primary_split(rep, parts) == (base_change(images), blocks)


@pytest.mark.parametrize("extra", ["repeated", "zero"])
def test_rank_check_refuses_parts_that_do_not_split(monkeypatch, extra):
    # a part repeated makes the ranks sum past d_v; a zero part is refused outright
    real_split = morphisms._splitting_idempotent

    def split(minpoly, powers, dims):
        parts = real_split(minpoly, powers, dims)
        if parts is None:
            return None
        return parts + [parts[0] if extra == "repeated" else
                        tuple(CMatrix.zero(d, d) for d in dims)]

    monkeypatch.setattr(morphisms, "_splitting_idempotent", split)
    with pytest.raises(AssertionError, match="^primary parts do not split the representation$"):
        decompose(full_loop(mat([1, 1], [0, 2])))


# _splitting_idempotent with coordinate projections in place of the parts
# M_j(phi), so that the base change is the identity in place of
# [im M_1(phi) | im M_2(phi)]: the upper triangular loop stays unsplit, and
# the block check must refuse it
WRONG_BASE_CHANGE = textwrap.dedent("""
    import biquiver.morphisms as morphisms
    from biquiver import (Arrow, ArrowKind, Biquiver, CMatrix,
                          MatrixRepresentation)
    real_split = morphisms._splitting_idempotent

    def wrong_split(minpoly, powers, dims):
        parts = real_split(minpoly, powers, dims)
        if parts is None:
            return None
        starts, wrong = [0] * len(dims), []
        for part in parts:
            mats = []
            for v, m in enumerate(part):
                lo, hi = starts[v], starts[v] + m.rank()
                mats.append(CMatrix.from_rows([[int(i == j and lo <= i < hi)
                                                for j in range(dims[v])]
                                               for i in range(dims[v])]))
                starts[v] = hi
            wrong.append(tuple(mats))
        return wrong

    morphisms._splitting_idempotent = wrong_split
    g = Biquiver(1, (Arrow("a", 1, 1, ArrowKind.FULL),))
    rep = MatrixRepresentation(g, (2,), {"a": CMatrix.from_rows([[1, 1], [0, 2]])})
    try:
        morphisms.decompose(rep)
    except AssertionError as e:
        print("raised:", e)
    else:
        print("returned")
""")


def test_block_check_refuses_a_wrong_base_change(monkeypatch, capsys):
    # registered so that teardown undoes the script's own patch
    monkeypatch.setattr(morphisms, "_splitting_idempotent", morphisms._splitting_idempotent)
    exec(WRONG_BASE_CHANGE, {})
    assert capsys.readouterr().out == "raised: base change did not block-diagonalize\n"


def test_block_check_survives_optimize_flag():
    src = str(Path(biquiver.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", WRONG_BASE_CHANGE],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "raised: base change did not block-diagonalize\n", proc.stdout


# CMatrix.inverse patched to hand back its inverse plus E11: every sample of
# Hom(a, b) between isomorphic a and b is then certified by a wrong inverse,
# so the exact check must refuse them all and answer ProbablyNo
WRONG_INVERSE = textwrap.dedent("""
    from fractions import Fraction
    from biquiver import (Arrow, ArrowKind, Biquiver, CMatrix, are_isomorphic,
                          apply_base_change, random_representation)
    g = Biquiver(2, (Arrow("a", 1, 2, ArrowKind.DASHED), Arrow("b", 2, 1, ArrowKind.FULL)))
    a = random_representation(g, (2, 2), 2, 5)
    b = apply_base_change(a, [CMatrix.from_rows([[1, 2], [0, 1]]),
                              CMatrix.from_rows([[1, 0], [Fraction(1, 3), 2]])])
    print(are_isomorphic(a, b).verdict.value)
    real_inverse = CMatrix.inverse

    def perturbed(m):
        inv = real_inverse(m)
        e11 = [int(k == 0) for k in range(inv.rows * inv.cols)]
        return inv + CMatrix.from_integers(inv.rows, inv.cols, 1, e11, [0] * len(e11))

    CMatrix.inverse = perturbed
    res = are_isomorphic(a, b)
    print(res.verdict.value, res.certificate, res.trials)
""")


def test_wrong_inverse_is_refused(monkeypatch, capsys):
    # registered so that teardown undoes the script's own patch
    monkeypatch.setattr(CMatrix, "inverse", CMatrix.inverse)
    exec(WRONG_INVERSE, {})
    assert capsys.readouterr().out == "Yes\nProbablyNo None 8\n"


def test_wrong_inverse_is_refused_under_optimize_flag():
    src = str(Path(biquiver.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", WRONG_INVERSE],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "Yes\nProbablyNo None 8\n", proc.stdout


# CMatrix.inverse patched to cycle through four maps, one per call: the inverse,
# twice it (a wrong inverse, but a base change that carries a to b all the
# same), i times it (which negates the dashed loop) and the inverse plus E11.
# The certificates are checked with the true inverse once the patch is undone
WRONG_INVERSE_MAP = textwrap.dedent("""
    from biquiver import (Arrow, ArrowKind, Biquiver, CMatrix, GaussianRational, Verdict,
                          apply_base_change, are_isomorphic, random_representation)
    g = Biquiver(1, (Arrow("a", 1, 1, ArrowKind.FULL), Arrow("c", 1, 1, ArrowKind.DASHED)))
    pairs = []
    for k in range(8):
        a = random_representation(g, (2,), 2, k)
        s = CMatrix.from_rows([[1, k], [0, 1]]) @ CMatrix.from_rows([[2, 0], [1, 1]])
        pairs.append((a, apply_base_change(a, [s])))
    real_inverse, calls = CMatrix.inverse, [0]

    def wrong(m):
        inv, mode = real_inverse(m), calls[0] % 4
        calls[0] += 1
        n = inv.rows
        if mode == 3:
            return inv + CMatrix.from_integers(n, n, 1, [int(k == 0) for k in range(n * n)],
                                               [0] * (n * n))
        scale = [1, 2, GaussianRational(0, 1)][mode]
        return inv @ CMatrix(n, n, [scale if i == j else 0 for i in range(n) for j in range(n)])

    CMatrix.inverse = wrong
    results = [are_isomorphic(a, b, seed=k) for k, (a, b) in enumerate(pairs)]
    CMatrix.inverse = real_inverse
    print([r.verdict.value for r in results], [r.trials for r in results])
    print("wrong certificates:", sum(
        r.verdict is Verdict.YES and apply_base_change(a, list(r.certificate)) != b
        for r, (a, b) in zip(results, pairs)))
""")


def test_every_yes_under_a_wrong_inverse_carries_a_to_b_under_optimize_flag():
    # the samples at trials 1 take the inverse or twice it, and each trials 3
    # follows a refused i-times and a refused plus-E11 inverse
    src = str(Path(biquiver.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", WRONG_INVERSE_MAP],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == ("['Yes', 'Yes', 'Yes', 'Yes', 'Yes', 'Yes', 'Yes', 'Yes'] "
                           "[1, 1, 3, 1, 3, 1, 3, 1]\nwrong certificates: 0\n"), proc.stdout


@settings(deadline=None, max_examples=60)
@given(profile_representations(max_dim=2), st.integers(0, 10 ** 6))
def test_base_change_round_trip(x, seed):
    rng = random.Random(seed)
    y = apply_base_change(x, [random_invertible(rng, d) for d in x.dims])
    res = are_isomorphic(x, y, seed=seed)
    assert res.verdict is Verdict.YES
    assert apply_base_change(x, list(res.certificate)) == y
    dx, dy = decompose(x, seed=seed), decompose(y, seed=seed)
    recombined = direct_sum_list(y.biquiver, list(dy.summands))
    assert apply_base_change(y, list(dy.base_change)) == recombined
    # a ProbablyIndecomposable leaf may be an unsplit isotypic block, as the
    # dashed loop diag(1, -1) can be, so only certified leaves must match
    if all(s is IndecomposabilityStatus.CERTIFIED for s in dx.statuses + dy.statuses):
        match = krull_schmidt_compare(list(dx.summands), list(dy.summands), seed=seed)
        assert match is not None
        for i, j, cert in match:
            assert apply_base_change(dx.summands[i], list(cert)) == dy.summands[j]
