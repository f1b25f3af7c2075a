"""Morphism spaces, isomorphism testing, and Krull-Schmidt decomposition.

A morphism F: A -> B is a tuple of complex matrices F_v with
B_alpha F_u = F_v A_alpha on full arrows and B_alpha F_u = conj(F_v) A_alpha
on dashed ones. Because of the conjugation, Hom(A, B) is only a *real*
vector space; writing F_v = X_v + i Y_v turns the constraints into a
homogeneous rational linear system whose exact nullspace we compute. All
certified answers (isomorphism certificates, decompositions) are verified
by exact rational arithmetic before being returned. A negative isomorphism
answer is certified when the dimension vectors differ, when the rank
profiles differ (ranks of maps the graph defines, which no base change
moves) or when Hom itself is zero; otherwise it is Monte Carlo with seeded
sampling.
"""
from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import reduce
from itertools import combinations, islice
from math import lcm
from operator import mul

from .errors import PreconditionError, SingularMatrixError, echo
from .linalg import (CMatrix, _first_dependence, _image_and_kernel, _symmetric_ldl,
                     block_diag, fraction_nullspace, hstack, submatrix, vstack)
from .model import Biquiver, DimensionVector
from .polynomials import poly_factor, poly_normalize, split_idempotent
from .representation import (MatrixRepresentation, apply_base_change,
                             direct_sum_list)
from .scalars import GaussianRational

DEFAULT_TRIALS = 8
DEFAULT_COEFF_BOUND = 10 ** 4
# The rank profile composes along paths of 2 to PROFILE_PATH_LENGTH arrows
# and stops after MAX_PROFILE_RANKS entries, so loops, cycles and parallel
# arrows cannot blow it up. The cap is ample: oriented E6 and E7 trees give
# 10 to 19 entries.
PROFILE_PATH_LENGTH = 4
MAX_PROFILE_RANKS = 256

MorphismTuple = tuple[CMatrix, ...]


@dataclass(frozen=True)
class MorphismBasis:
    """Real-rational basis of Hom(A, B) as tuples of per-vertex matrices."""
    biquiver: Biquiver
    source_dims: DimensionVector
    target_dims: DimensionVector
    tuples: tuple[MorphismTuple, ...]

    @property
    def dimension(self) -> int:
        return len(self.tuples)


class Verdict(Enum):
    YES = "Yes"
    NO = "No"
    PROBABLY_NO = "ProbablyNo"


@dataclass(frozen=True)
class IsoResult:
    verdict: Verdict
    certificate: tuple[CMatrix, ...] | None = None
    reason: str | None = None
    trials: int = 0
    seed: int | None = None

    def __bool__(self) -> bool:
        return self.verdict is Verdict.YES


class IndecomposabilityStatus(Enum):
    CERTIFIED = "CertifiedIndecomposable"
    PROBABLE = "ProbablyIndecomposable"


@dataclass(frozen=True)
class Decomposition:
    summands: tuple[MatrixRepresentation, ...]
    base_change: tuple[CMatrix, ...]
    statuses: tuple[IndecomposabilityStatus, ...]
    trials: int
    seed: int


# -- Hom spaces ---------------------------------------------------------------

def _check_same_biquiver(a: MatrixRepresentation, b: MatrixRepresentation) -> None:
    if a.biquiver != b.biquiver:
        raise PreconditionError("representations live over different biquivers")


def _check_sampling(trials: int, coeff_bound: int) -> None:
    if trials < 0:
        raise PreconditionError(f"trials must be nonnegative, got {echo(trials)}")
    if coeff_bound < 1:
        raise PreconditionError(f"coefficient bound must be at least 1, got {echo(coeff_bound)}")


def hom_basis(a: MatrixRepresentation, b: MatrixRepresentation) -> MorphismBasis:
    """Exact basis of the real vector space Hom(a, b).

    Unknowns are the real and imaginary parts of each F_v, laid out
    vertex by vertex; the basis is the canonical nullspace basis of the
    assembled system, hence deterministic.
    """
    _check_same_biquiver(a, b)
    g = a.biquiver
    da, db = a.dims, b.dims

    offsets = []
    total = 0
    for v in range(g.t):
        offsets.append(total)
        total += 2 * db[v] * da[v]

    def x_index(v: int, i: int, j: int) -> int:
        return offsets[v] + i * da[v] + j

    def y_index(v: int, i: int, j: int) -> int:
        return offsets[v] + db[v] * da[v] + i * da[v] + j

    # B F_u - F_v A = 0 (conj(F_v) on dashed arrows), times den(A) den(B):
    # the B terms are scaled by den(A) and the A terms by den(B)
    rows: list[list[int]] = []
    for arrow in g.arrows:
        u, v = arrow.source - 1, arrow.target - 1
        am, bm = a.matrices[arrow.id], b.matrices[arrow.id]
        sb, sa = am.den, bm.den
        sign = -1 if arrow.is_dashed else 1
        for i in range(db[v]):
            for j in range(da[u]):
                real = [0] * total
                imag = [0] * total
                for k in range(db[u]):
                    cr, ci = bm.re[i * db[u] + k], bm.im[i * db[u] + k]
                    if cr or ci:
                        cr, ci = sb * cr, sb * ci
                        real[x_index(u, k, j)] += cr
                        real[y_index(u, k, j)] -= ci
                        imag[y_index(u, k, j)] += cr
                        imag[x_index(u, k, j)] += ci
                for l in range(da[v]):
                    cr, ci = am.re[l * da[u] + j], am.im[l * da[u] + j]
                    if not (cr or ci):
                        continue
                    cr, ci = sa * cr, sa * ci
                    # F_v A: real -= Xv.Are - Yv.Aim, imag -= Xv.Aim + Yv.Are;
                    # conj(F_v) = Xv - i Yv flips the sign of the Yv terms
                    real[x_index(v, i, l)] -= cr
                    real[y_index(v, i, l)] += sign * ci
                    imag[x_index(v, i, l)] -= ci
                    imag[y_index(v, i, l)] -= sign * cr
                if any(real):
                    rows.append(real)
                if any(imag):
                    rows.append(imag)

    basis_vectors = fraction_nullspace(rows, total)

    def unflatten(den: int, nums: list[int]) -> MorphismTuple:
        mats = []
        for v in range(g.t):
            n, start = db[v] * da[v], offsets[v]
            mats.append(CMatrix.from_integers(db[v], da[v], den, nums[start:start + n],
                                              nums[start + n:start + 2 * n]))
        return tuple(mats)

    return MorphismBasis(g, da, db, tuple(unflatten(*v) for v in basis_vectors))


def _flatten_tuple(mats: MorphismTuple) -> tuple[int, list[int]]:
    """(den, nums): real, then imaginary parts of each matrix in turn, as nums / den."""
    den = lcm(*(m.den for m in mats))
    nums: list[int] = []
    for m in mats:
        s = den // m.den
        nums += (s * x for x in m.re)
        nums += (s * y for y in m.im)
    return den, nums


def _combination(coeffs: list[Fraction], tuples, shapes) -> MorphismTuple:
    """sum_j coeffs[j] * tuples[j], tuples of the given (rows, cols); extra tuples are ignored."""
    terms = [(c, tup) for c, tup in zip(coeffs, tuples) if c]
    mats = []
    for v, (r, c) in enumerate(shapes):
        # term j is (p_j / q_j) (R_j / d_j); sum over the lcm of the q_j d_j
        den = lcm(*(coef.denominator * tup[v].den for coef, tup in terms))
        re = [0] * (r * c)
        im = [0] * (r * c)
        for coef, tup in terms:
            m = tup[v]
            f = coef.numerator * (den // (coef.denominator * m.den))
            re = [x + f * y for x, y in zip(re, m.re)]
            im = [x + f * y for x, y in zip(im, m.im)]
        mats.append(CMatrix.from_integers(r, c, den, re, im))
    return tuple(mats)


def _combine(basis: MorphismBasis, coeffs: list[Fraction]) -> MorphismTuple:
    """The rational combination sum_j coeffs[j] * basis.tuples[j]."""
    return _combination(coeffs, basis.tuples, zip(basis.target_dims, basis.source_dims))


def _sample(basis: MorphismBasis, rng: random.Random, coeff_bound: int) -> MorphismTuple:
    """A random integer combination of the basis, coefficients in [-coeff_bound, coeff_bound]."""
    return _combine(basis, [Fraction(rng.randint(-coeff_bound, coeff_bound))
                            for _ in basis.tuples])


def _tuple_compose(f: MorphismTuple, g_: MorphismTuple) -> MorphismTuple:
    """Composition f after g, componentwise matrix product."""
    return tuple(fm @ gm for fm, gm in zip(f, g_))


def _identity_tuple(dims: DimensionVector) -> MorphismTuple:
    return tuple(CMatrix.identity(d) for d in dims)


# -- isomorphism testing ------------------------------------------------------

def rank_profile(a: MatrixRepresentation) -> Iterator[tuple[str, CMatrix]]:
    """Named matrices whose ranks are isomorphism invariants, cheapest first.

    A base change S sends the matrix of a full arrow u -> v to
    S_v^-1 A S_u and that of a dashed one, the map x -> conj(A x), to
    conj(S_v)^-1 A S_u. Each matrix below is therefore multiplied on both
    sides by invertible matrices, some conjugated, and keeps its rank:

    1. each arrow matrix;
    2. at each vertex, for each pair of its out-arrows and for all of them:
       their matrices stacked, whose rank is the codimension of the meet of
       their kernels (ker A for either kind); the same for its in-arrows
       side by side, with conj(A) for a dashed arrow, whose rank is the
       dimension of the sum of their images;
    3. the composite along each directed path of 2 to PROFILE_PATH_LENGTH
       arrows. Extending a composite M by arrow b gives
       (conj(B) if M is semilinear else B) M, and M is semilinear when an
       odd number of its arrows are dashed.

    The names and their order depend only on the biquiver, so two
    representations of it compare entry by entry. The list is lazy and
    stops after MAX_PROFILE_RANKS entries.
    """
    return islice(_profile_entries(a), MAX_PROFILE_RANKS)


def _arrow_sets(arrows: list) -> Iterator[tuple]:
    """Every pair of the arrows, then all of them when there are more than two."""
    yield from combinations(arrows, 2)
    if len(arrows) > 2:
        yield tuple(arrows)


def _ids(arrows) -> str:
    return ",".join(arrow.id for arrow in arrows)


def _profile_entries(a: MatrixRepresentation) -> Iterator[tuple[str, CMatrix]]:
    g, mats = a.biquiver, a.matrices

    def image(arrow) -> CMatrix:
        return mats[arrow.id].conj() if arrow.is_dashed else mats[arrow.id]

    for arrow in g.arrows:
        yield f"rank of arrow {arrow.id}", mats[arrow.id]
    for v in g.vertices():
        outs = [arrow for arrow in g.arrows if arrow.source == v]
        for group in _arrow_sets(outs):
            yield (f"kernel-meet rank of {_ids(group)} at vertex {v}",
                   reduce(vstack, (mats[arrow.id] for arrow in group)))
        ins = [arrow for arrow in g.arrows if arrow.target == v]
        for group in _arrow_sets(ins):
            yield (f"image-sum rank of {_ids(group)} at vertex {v}",
                   reduce(hstack, map(image, group)))
    # (path, composite, semilinear) one length at a time, shortest first
    level = [((arrow,), mats[arrow.id], arrow.is_dashed) for arrow in g.arrows]
    for _ in range(PROFILE_PATH_LENGTH - 1):
        longer = []
        for path, m, semilinear in level:
            for arrow in g.arrows:
                if arrow.source == path[-1].target:
                    nxt = mats[arrow.id]
                    extended = path + (arrow,)
                    composite = (nxt.conj() if semilinear else nxt) @ m
                    longer.append((extended, composite, semilinear != arrow.is_dashed))
                    yield f"rank along path {_ids(extended)}", composite
        level = longer


def _profile_difference(a: MatrixRepresentation, b: MatrixRepresentation) -> str | None:
    """The first rank-profile entry where a and b differ, as a reason; None if none does."""
    for (name, ma), (_, mb) in zip(rank_profile(a), rank_profile(b)):
        ra, rb = ma.rank(), mb.rank()
        if ra != rb:
            return f"{name} differs: {ra} vs {rb}"
    return None


def are_isomorphic(a: MatrixRepresentation, b: MatrixRepresentation,
                   trials: int = DEFAULT_TRIALS, seed: int = 0,
                   coeff_bound: int = DEFAULT_COEFF_BOUND) -> IsoResult:
    """Randomized isomorphism test with exact certificates.

    Yes certificates S_1..S_t are verified exactly before being returned.
    No is certified, with trials = 0, by the first of three checks that
    fails, in this order: the dimension vectors agree; the rank profiles
    agree (the reason names the first invariant that differs and both
    ranks); Hom(a, b) is not zero. Only the last builds a linear system.
    When all three pass, random rational combinations of the Hom basis
    are tried; invertible tuples form the complement of a determinant
    hypersurface, so when an isomorphism exists a random point misses the
    hypersurface with high probability and ProbablyNo after `trials`
    failures is Monte Carlo evidence only.
    A sampled Yes reports in `trials` the samples drawn, up to and
    including the one that succeeded.
    """
    _check_same_biquiver(a, b)
    _check_sampling(trials, coeff_bound)
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
        sample = _sample(basis, rng, coeff_bound)
        try:
            s = tuple(m.inverse() for m in sample)
        except SingularMatrixError:
            continue
        if _inverts_to(a, b, s, sample):
            return IsoResult(Verdict.YES, certificate=s, trials=used, seed=seed)
    return IsoResult(Verdict.PROBABLY_NO,
                     reason=f"no invertible morphism found in {trials} samples",
                     trials=trials, seed=seed)


def _inverts_to(a: MatrixRepresentation, b: MatrixRepresentation, s: MorphismTuple,
                f: MorphismTuple) -> bool:
    """Whether apply_base_change(a, s) == b, with no inverse taken: exactly when
    s_v f_v = 1 at every vertex, so f_v = s_v^-1, and B F_u = F_v A on full
    arrows and B F_u = conj(F_v) A on dashed ones."""
    return all(sv @ fv == CMatrix.identity(sv.rows) for sv, fv in zip(s, f)) and all(
        b.matrices[x.id] @ f[x.source - 1]
        == (f[x.target - 1].conj() if x.is_dashed else f[x.target - 1]) @ a.matrices[x.id]
        for x in a.biquiver.arrows)


# -- Krull-Schmidt decomposition ----------------------------------------------

def _minimal_polynomial(basis: MorphismBasis, phi: MorphismTuple) -> list[Fraction]:
    """Monic minimal polynomial of phi as a real-linear operator tuple.

    Found as the first linear dependence among the flattened powers of phi.
    phi acts on a real space of dimension 2 * sum(dims), so by
    Cayley-Hamilton one of the first 2 * sum(dims) + 1 powers is dependent.
    """
    def powers():
        power = _identity_tuple(basis.source_dims)
        while True:
            yield _flatten_tuple(power)
            power = _tuple_compose(phi, power)

    return poly_normalize(_first_dependence(powers(), 2 * sum(basis.source_dims) + 1))


def _eval_poly_tuple(poly: list[Fraction], phi: MorphismTuple,
                     dims: DimensionVector) -> MorphismTuple:
    """sum_k poly[k] phi^k for a nonempty rational polynomial, lowest degree first.

    phi^2, ..., phi^deg take one composition each, and the sum is one combination.
    """
    powers = [_identity_tuple(dims), phi]
    while len(powers) < len(poly):
        powers.append(_tuple_compose(phi, powers[-1]))
    return _combination(poly, powers, [(d, d) for d in dims])


def _splitting_idempotent(minpoly, phi, dims) -> MorphismTuple | None:
    """A nontrivial idempotent E(phi), or None when minpoly has one irreducible factor.

    With m1 the power of the first irreducible factor in minpoly and m2 the
    cofactor, E = 1 mod m1 and E = 0 mod m2, so E(phi) is the projection
    onto ker m1(phi) along ker m2(phi).
    """
    factors = poly_factor(minpoly)
    if len(factors) < 2:
        return None
    e = _eval_poly_tuple(split_idempotent(minpoly, *factors[0]), phi, dims)
    if _tuple_compose(e, e) != e:
        raise AssertionError("Bezout element is not idempotent")
    return e


def _vertex_killers(basis: MorphismBasis, vertex: int,
                    vec: CMatrix) -> list[list[Fraction]]:
    """Coordinates of a basis of the endomorphisms annihilating a vector at one vertex.

    Such endomorphisms are singular, so their minimal polynomials pick up a
    factor of x; together with the coprime Fitting split this decomposes
    isotypic sums X + X whose generic endomorphisms have irreducible
    rational minimal polynomials. `_split_candidates` tries two random
    mixes of these coordinates first (see there), then each of them.
    """
    columns = [_flatten_tuple((tup[vertex] @ vec,)) for tup in basis.tuples]
    # all columns over one denominator: a uniform scale keeps the nullspace
    den = lcm(*(d for d, _ in columns))
    rows = [list(row) for row in zip(*([x * (den // d) for x in col] for d, col in columns))]
    return [[Fraction(x, d) for x in nums] for d, nums in fraction_nullspace(rows, len(columns))]


def _split_candidates(basis: MorphismBasis, dims: DimensionVector, trials: int,
                      rng: random.Random, coeff_bound: int) -> Iterator[MorphismTuple]:
    """Endomorphisms to try for a Fitting split, drawn from rng only as they are asked for.

    Each of `trials` rounds yields a random element of End, then, at each
    nonzero vertex in random order, the nonzero ones among two random mixes
    of the `_vertex_killers` of a random vector there, then those killers.
    Coordinate i of a mix is sum_k w_ik k[i] with a fresh weight per (i, k),
    so a mix is not a combination of the killers and need not kill the vector.
    """
    n = basis.dimension
    for _ in range(trials):
        yield _sample(basis, rng, coeff_bound)
        vertices = [w for w, d in enumerate(dims) if d > 0]
        rng.shuffle(vertices)
        for w in vertices:
            vec = CMatrix.column([GaussianRational(
                Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
                for _ in range(dims[w])])
            if vec.is_zero():
                continue
            killers = _vertex_killers(basis, w, vec)
            # with no killers the two combinations are zero and draw nothing
            mixes = [[sum((Fraction(rng.randint(-9, 9)) * k[i] for k in killers), Fraction(0))
                      for i in range(n)] for _ in range(2)]
            for coords in mixes + killers:
                if any(coords):
                    yield _combine(basis, coords)


def _trace_form(basis: MorphismBasis) -> list[list[int]]:
    """Integer Gram matrix D T D of the trace form T, D = diag(den_i).

    T(f, g) is the real trace of fg acting on the realified spaces: on a
    complex space realified that is 2 Re tr(fg), and Re(f_kl g_lk) =
    Re f_kl Re g_lk - Im f_kl Im g_lk. Basis tuple i is brought to its
    denominator den_i, its integer parts laid out flat, and those of g also
    transposed, so an entry is one integer sum. D T D is congruent to T,
    so it has the same inertia.
    """
    n = basis.dimension
    flat = []
    for tup in basis.tuples:
        den = lcm(*(m.den for m in tup))
        re: list[int] = []
        im: list[int] = []
        re_t: list[int] = []
        im_t: list[int] = []
        for m in tup:
            s = den // m.den
            re += (s * x for x in m.re)
            im += (s * y for y in m.im)
            for l in range(m.cols):
                re_t += (s * x for x in m.re[l::m.cols])
                im_t += (s * y for y in m.im[l::m.cols])
        flat.append((re, im, re_t, im_t))
    t = [[0] * n for _ in range(n)]
    for i, (re_f, im_f, _, _) in enumerate(flat):
        for j, (_, _, re_gt, im_gt) in enumerate(flat[:i + 1]):
            acc = sum(map(mul, re_f, re_gt)) - sum(map(mul, im_f, im_gt))
            t[i][j] = t[j][i] = 2 * acc
    return t


def _certify_local(basis: MorphismBasis) -> bool:
    """True when End is local, i.e. the representation is indecomposable.

    The radical of End is the kernel of the trace form T (Dickson: nilpotent
    ideals are trace-free, and an element orthogonal to all has trace-free
    powers, so is nilpotent). So T is nondegenerate on End/rad, a product of
    matrix algebras M_n(D), D = R, C or the quaternions H, and on each a
    positive multiple of the real trace form of D^n, whose positive index
    n(n + 1)/2, n^2 or n(2n - 1) is 1 exactly when n = 1. So End is local,
    End/rad a division algebra, exactly when T has positive index 1.
    """
    (positive, _, _), *_ = _symmetric_ldl(_trace_form(basis))
    return positive == 1


def _image_kernel_change(e: MorphismTuple) -> tuple[list[CMatrix], DimensionVector]:
    """Per-vertex base change [im-basis | ker-basis] for an idempotent tuple."""
    bases = [_image_and_kernel(ev) for ev in e]
    return [hstack(im, ker) for im, ker in bases], tuple(im.cols for im, _ in bases)


def _split_blocks(rep: MatrixRepresentation, ranks: DimensionVector
                  ) -> tuple[MatrixRepresentation, MatrixRepresentation]:
    """The two diagonal blocks of rep, split at `ranks` at every vertex.

    Raises AssertionError when one block is zero (a trivial idempotent) or
    when an off-diagonal block of some arrow is not.
    """
    rest = tuple(d - r for d, r in zip(rep.dims, ranks))
    if not (any(ranks) and any(rest)):
        raise AssertionError("splitting idempotent is 0 or 1")
    first, second = {}, {}
    for arrow in rep.biquiver.arrows:
        u, v = arrow.source - 1, arrow.target - 1
        m = rep.matrices[arrow.id]
        top, bottom = range(ranks[v]), range(ranks[v], rep.dims[v])
        left, right = range(ranks[u]), range(ranks[u], rep.dims[u])
        if not (submatrix(m, top, right).is_zero() and submatrix(m, bottom, left).is_zero()):
            raise AssertionError("idempotent did not block-diagonalize")
        first[arrow.id] = submatrix(m, top, left)
        second[arrow.id] = submatrix(m, bottom, right)
    return (MatrixRepresentation(rep.biquiver, ranks, first),
            MatrixRepresentation(rep.biquiver, rest, second))


def decompose(a: MatrixRepresentation, trials: int = DEFAULT_TRIALS, seed: int = 0,
              coeff_bound: int = DEFAULT_COEFF_BOUND) -> Decomposition:
    """Decompose into indecomposables by recursive Fitting-style splitting.

    A representation whose End is not local tries the endomorphisms phi
    that `_split_candidates` yields: per round a random one, then vertex
    killers. The first whose minimal polynomial factors into coprime
    rational pieces m1 m2 gives the Bezout idempotent E = 1 mod m1, 0 mod
    m2, which splits it exactly, and the summands are decomposed in turn.
    E(phi) is never 0 or 1, as m1 m2 divides neither E nor E - 1.
    Splittings that would need irrational idempotents are not found. A leaf
    is CertifiedIndecomposable when End is local (End/rad is R, C or the
    quaternions H), read exactly from the trace form, and otherwise
    ProbablyIndecomposable. The certificate satisfies: base change
    applied to `a` equals the direct sum of the summands, exactly.
    """
    _check_sampling(trials, coeff_bound)
    rng = random.Random(seed)

    def rec(rep: MatrixRepresentation):
        # rep is nonzero: a nontrivial split leaves both summands nonzero
        basis = hom_basis(rep, rep)
        status = IndecomposabilityStatus.CERTIFIED
        if not _certify_local(basis):
            for phi in _split_candidates(basis, rep.dims, trials, rng, coeff_bound):
                e = _splitting_idempotent(_minimal_polynomial(basis, phi), phi, rep.dims)
                if e is None:
                    continue
                ts, ranks = _image_kernel_change(e)
                first, second = _split_blocks(apply_base_change(rep, ts), ranks)
                s1, c1, st1 = rec(first)
                s2, c2, st2 = rec(second)
                return s1 + s2, [t @ block_diag(x, y) for t, x, y in zip(ts, c1, c2)], st1 + st2
            status = IndecomposabilityStatus.PROBABLE
        return [rep], _identity_tuple(rep.dims), [status]

    summands, change, statuses = rec(a) if a.total_dim() else ([], _identity_tuple(a.dims), [])
    result = Decomposition(tuple(summands), tuple(change), tuple(statuses),
                           trials, seed)
    recombined = direct_sum_list(a.biquiver, list(result.summands))
    if apply_base_change(a, list(result.base_change)) != recombined:
        raise AssertionError("decomposition certificate does not verify")
    return result


def krull_schmidt_compare(x: list[MatrixRepresentation], y: list[MatrixRepresentation],
                          trials: int = DEFAULT_TRIALS, seed: int = 0,
                          coeff_bound: int = DEFAULT_COEFF_BOUND
                          ) -> list[tuple[int, int, tuple[CMatrix, ...]]] | None:
    """Match two summand lists up to isomorphism; None when no bijection exists.

    Greedy matching by dimension vector followed by pairwise isomorphism
    tests, returning (index_in_x, index_in_y, certificate) triples.
    """
    _check_sampling(trials, coeff_bound)
    if len(x) != len(y):
        return None
    unmatched = list(range(len(y)))
    matching = []
    for i, xi in enumerate(x):
        found = None
        for pos, j in enumerate(unmatched):
            if y[j].dims != xi.dims:
                continue
            res = are_isomorphic(xi, y[j], trials=trials, seed=seed + 7919 * (i + 1) + j,
                                 coeff_bound=coeff_bound)
            if res.verdict is Verdict.YES:
                found = (pos, j, res.certificate)
                break
        if found is None:
            return None
        pos, j, cert = found
        unmatched.pop(pos)
        matching.append((i, j, cert))
    return matching
