import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import biquiver
from biquiver import (CMatrix, IndecomposabilityStatus, MatrixRepresentation,
                      PreconditionError, Verdict, apply_base_change,
                      are_isomorphic, decompose, direct_sum, direct_sum_list,
                      gaussian, hom_basis, krull_schmidt_compare,
                      random_representation, zero_representation)
from biquiver import morphisms
from biquiver.linalg import fraction_nullspace, fraction_solve
from biquiver.morphisms import (_certify_local, _combine, _flatten_tuple, _identity_tuple,
                                _minimal_polynomial, _satisfies_morphism, _trace_form,
                                _tuple_compose)
from biquiver.polynomials import poly_normalize
from biquiver.semilinear import are_consimilar
from conftest import (biq, gmat, mat, path_biquiver, random_base_change, random_biquiver,
                      star_biquiver)
from test_linalg import oracle_fraction_nullspace


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
    return pairs


def test_hom_basis_matches_oracle_kernel(monkeypatch):
    # the canonical Hom basis that `rep hom` prints must not depend on the
    # elimination kernel behind fraction_nullspace
    for a, b in _hom_differential_pairs():
        basis = hom_basis(a, b)
        with monkeypatch.context() as patch:
            patch.setattr(morphisms, "fraction_nullspace", oracle_fraction_nullspace)
            assert hom_basis(a, b) == basis


# -- isomorphism --------------------------------------------------------------

def test_iso_identical_representations():
    a = full_loop(mat([1, 2], [3, 4]))
    res = are_isomorphic(a, a, seed=0)
    assert res.verdict is Verdict.YES
    assert all(m.is_identity() for m in res.certificate)


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


def test_iso_probably_no_metadata():
    # Hom is the span of E11 (never invertible), so only Monte Carlo evidence
    a = full_loop(mat([1, 0], [0, 2]))
    b = full_loop(mat([1, 0], [0, 3]))
    res = are_isomorphic(a, b, trials=4, seed=9)
    assert res.verdict is Verdict.PROBABLY_NO
    assert res.trials == 4 and res.seed == 9


def test_iso_yes_reports_samples_used():
    # End of a generic (2, 2) representation of 1 -> 2 is the 8-dimensional
    # real algebra M_2(C); with coefficients in {-1, 0, 1} many samples are
    # singular, so the first invertible one is often not the first drawn
    g = biq(2, "a:1>2")
    a = random_representation(g, (2, 2), 2, 5)
    b = random_base_change(random.Random(3), a)
    basis = hom_basis(a, b)
    late = 0
    for seed in range(20):
        res = are_isomorphic(a, b, trials=50, seed=seed, coeff_bound=1)
        sampler = random.Random(seed)
        first = None
        for index in range(1, 51):
            coeffs = [Fraction(sampler.randint(-1, 1)) for _ in basis.tuples]
            if all(m.is_invertible() for m in _combine(basis, coeffs)):
                first = index
                break
        assert res.verdict is Verdict.YES and res.seed == seed
        assert res.trials == first <= 50
        late += first > 1
    assert late > 0


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
    columns = [_flatten_tuple(t) for t in basis.tuples]
    products = [_tuple_compose(x, y) for x in basis.tuples for y in basis.tuples]
    for f in products + [_identity_tuple(a.dims)]:
        assert _satisfies_morphism(a, a, f)
        assert fraction_solve(columns, _flatten_tuple(f)) is not None


# -- local endomorphism algebras --------------------------------------------------

def oracle_flatten_tuple(basis, mats):
    """The two-argument `_flatten_tuple` that the oracle below was written against."""
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
    return fraction_nullspace(oracle_trace_form(basis), basis.dimension)


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
    rad_flat = [oracle_flatten_tuple(basis, _combine(basis, coords)) for coords in rad]
    span_cols = [flat_id] + rad_flat
    psi = None
    for tup in basis.tuples:
        if fraction_solve(span_cols, oracle_flatten_tuple(basis, tup)) is None:
            psi = tup
            break
    if psi is None:
        raise AssertionError("no basis element lies outside span(identity, radical)")
    # psi^2 = alpha psi + beta id (mod radical)
    flat_sq = oracle_flatten_tuple(basis, _tuple_compose(psi, psi))
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
            assert _trace_form(basis) == oracle_trace_form(basis)
            verdict = _certify_local(basis)
            assert verdict == oracle_certify_local(basis)
            outcomes.add((basis.dimension - len(oracle_radical_coords(basis)), verdict))
    # End/rad = C (certified) and R x R (not) both occurred, as did R and larger quotients
    assert {(1, True), (2, True), (2, False), (3, False)} <= outcomes


def _real_sum_with_radical():
    # End = R x R plus the radical Hom(y, x) = R, so some 2x2 minors of T are 0
    g = biq(2, "a:1>2", "b:1~1")
    x = MatrixRepresentation(g, (1, 0), {"a": CMatrix.zero(0, 1), "b": mat([1])})
    y = MatrixRepresentation(g, (1, 1), {"a": mat([1]), "b": mat([1])})
    return direct_sum(x, y)


@pytest.mark.parametrize("rep, quotient_dim, local", [
    (dashed_loop(mat([1])), 1, True),                      # End = R
    (full_loop(mat([0])), 2, True),                        # End = C
    (dashed_loop(mat([1, 0], [0, 2])), 2, False),          # End = R x R
    (full_loop(mat([0, 1], [0, 0])), 2, True),             # End = C[x]/x^2, End/rad = C
    (_real_sum_with_radical(), 2, False),                  # End/rad = R x R
], ids=["dashed-loop-1", "full-loop-0", "dashed-loop-diag-1-2", "jordan-block",
        "real-sum-with-radical"])
def test_certify_local_named_cases(rep, quotient_dim, local):
    basis = hom_basis(rep, rep)
    assert basis.dimension - len(oracle_radical_coords(basis)) == quotient_dim
    assert _certify_local(basis) is local
    assert oracle_certify_local(basis) is local


# -- decomposition --------------------------------------------------------------

def test_decompose_diag_loop():
    dec = decompose(full_loop(mat([1, 0], [0, 2])), seed=3)
    assert sorted(s.matrices["a"].at(0, 0).re for s in dec.summands) == [1, 2]
    assert all(st is IndecomposabilityStatus.CERTIFIED for st in dec.statuses)


def test_decompose_jordan_block_certified_indecomposable():
    dec = decompose(full_loop(mat([0, 1], [0, 0])), seed=3)
    assert len(dec.summands) == 1
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


def oracle_minimal_polynomial(basis, phi):
    """The incremental Fraction elimination that `_minimal_polynomial` replaced."""
    echelon = []
    power = _identity_tuple(basis.source_dims)
    poly = [Fraction(1)]
    while True:
        vec = _flatten_tuple(power)
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
            return poly_normalize(combo)
        inv = 1 / vec[lead]
        echelon.append((lead, [x * inv for x in vec], [x * inv for x in combo]))
        power = _tuple_compose(phi, power)
        poly = [Fraction(0)] + poly


def test_minimal_polynomial_matches_oracle():
    rng = random.Random(21)
    reps = [a for a, b in _hom_differential_pairs() if a is b]
    reps.append(full_loop(mat([1, 0, 0], [0, 1, 0], [0, 0, 2])))
    reps.append(full_loop(CMatrix.zero(0, 0)))
    for a in reps:
        basis = hom_basis(a, a)
        samples = [[Fraction(rng.randint(-5, 5)) for _ in basis.tuples] for _ in range(3)]
        samples += [[Fraction(int(i == j)) for i in range(basis.dimension)]
                    for j in range(basis.dimension)]
        for coeffs in samples:
            phi = _combine(basis, coeffs)
            assert _minimal_polynomial(basis, phi) == oracle_minimal_polynomial(basis, phi)


def test_minimal_polynomial_of_identity():
    a = full_loop(mat([5]))
    basis = hom_basis(a, a)
    ident = tuple(CMatrix.identity(1) for _ in range(1))
    p = _minimal_polynomial(basis, ident)
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

@pytest.mark.parametrize("trials, coeff_bound", [(-1, 10), (-3, 10 ** 4), (8, 0), (8, -1)])
def test_sampling_parameters_rejected(trials, coeff_bound):
    a = full_loop(mat([1, 0], [0, 2]))
    b = full_loop(mat([2, 0], [0, 1]))
    with pytest.raises(PreconditionError):
        are_isomorphic(a, b, trials=trials, coeff_bound=coeff_bound)
    with pytest.raises(PreconditionError):
        decompose(dashed_loop(mat([1, 0], [0, 2])), trials=trials, coeff_bound=coeff_bound)
    with pytest.raises(PreconditionError):
        are_consimilar(mat([1]), mat([2]), trials=trials, coeff_bound=coeff_bound)
    with pytest.raises(PreconditionError):
        krull_schmidt_compare([a], [b], trials=trials, coeff_bound=coeff_bound)
    # no pair with equal dimension vectors, so no isomorphism test runs
    with pytest.raises(PreconditionError):
        krull_schmidt_compare([], [], trials=trials, coeff_bound=coeff_bound)
    with pytest.raises(PreconditionError):
        krull_schmidt_compare([a], [], trials=trials, coeff_bound=coeff_bound)


def test_sampling_parameter_edges_accepted():
    res = are_isomorphic(full_loop(mat([1])), full_loop(mat([2])), trials=0, coeff_bound=1)
    assert res.verdict is Verdict.NO
    dec = decompose(dashed_loop(mat([1, 0], [0, 2])), trials=0, coeff_bound=1)
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
