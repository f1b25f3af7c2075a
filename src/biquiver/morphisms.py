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
moves), when Hom itself is zero, or, once sampling has failed, when dim
End(a) or dim End(b) differs from dim Hom(a, b); otherwise it is Monte
Carlo with seeded sampling. `decompose` splits a representation into the
primary components of one endomorphism, a random one or an integer one
killing a random vector, all at once.
"""
from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import accumulate, combinations, islice
from math import lcm
from operator import mul

from .errors import PreconditionError, SingularMatrixError, echo
from .linalg import (CMatrix, _first_dependence, _symmetric_ldl, block_diag,
                     fraction_nullspace, hstack, submatrix, vstack)
from .model import Biquiver, DimensionVector
from .polynomials import poly_factor, primary_cofactors
from .representation import (MatrixRepresentation, apply_base_change,
                             direct_sum_list)

DEFAULT_TRIALS = 8
DEFAULT_COEFF_BOUND = 10 ** 4
# The rank profile composes along paths of 2 to PROFILE_PATH_LENGTH arrows
# and stops after MAX_PROFILE_RANKS entries, so loops, cycles and parallel
# arrows cannot blow it up. The cap is ample: oriented E6 and E7 trees give
# 10 to 19 entries.
PROFILE_PATH_LENGTH = 4
MAX_PROFILE_RANKS = 256
# The most cells, equations times unknowns, of a Hom system that `hom_basis`
# builds. A full loop of dimension d gives a 2d^2 x 2d^2 system; with random
# Gaussian-integer entries in [-3, 3], CPython 3.11 on a 2-core x86 host
# solves d = 12 (82,944 cells) in 4.5 s, d = 13 (114,244) in 7.7 s and
# d = 14 (153,664) in 15.8 s.
MAX_HOM_CELLS = 2 ** 17

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
    assembled system, hence deterministic. Raises PreconditionError, before
    building it, when the system has more than MAX_HOM_CELLS cells.
    """
    _check_same_biquiver(a, b)
    g = a.biquiver
    da, db = a.dims, b.dims

    offsets = []
    total = 0
    for v in range(g.t):
        offsets.append(total)
        total += 2 * db[v] * da[v]
    equations = sum(2 * db[arrow.target - 1] * da[arrow.source - 1] for arrow in g.arrows)
    if equations * total > MAX_HOM_CELLS:
        raise PreconditionError(f"the Hom system has {equations} equations in {total} unknowns, "
                                f"past the cap of {MAX_HOM_CELLS} cells")

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


def _combination(coeffs: list[int], tuples, shapes) -> MorphismTuple:
    """sum_j coeffs[j] * tuples[j], tuples of the given (rows, cols); extra tuples are ignored."""
    terms = [(c, tup) for c, tup in zip(coeffs, tuples) if c]
    mats = []
    for v, (r, c) in enumerate(shapes):
        # term j is p_j (R_j / d_j); sum over the lcm of the d_j
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


def _combine(basis: MorphismBasis, coeffs: list[int]) -> MorphismTuple:
    """The integer combination sum_j coeffs[j] * basis.tuples[j]."""
    return _combination(coeffs, basis.tuples, zip(basis.target_dims, basis.source_dims))


def _sample(basis: MorphismBasis, rng: random.Random, coeff_bound: int) -> MorphismTuple:
    """A random integer combination of the basis, coefficients in [-coeff_bound, coeff_bound]."""
    return _combine(basis, [rng.randint(-coeff_bound, coeff_bound) for _ in basis.tuples])


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
    No is certified, with trials = 0, by the first of four checks that
    fails: the dimension vectors agree; the rank profiles agree (the
    reason names the first invariant that differs and both ranks);
    Hom(a, b) is not zero; dim End(a) = dim End(b) = dim Hom(a, b), as for
    isomorphic a and b (the reason names both dimensions), which solves two
    more systems and so runs only after sampling fails. The samples are
    random integer combinations of the Hom basis; invertible tuples form
    the complement of a determinant hypersurface, so when an isomorphism
    exists a random point misses it with high probability, and ProbablyNo
    is Monte Carlo evidence only. A sampled Yes reports in `trials` the
    samples drawn, up to and including the one that succeeded.
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
    for name, rep in (("a", a), ("b", b)):
        end = hom_basis(rep, rep).dimension
        if end != basis.dimension:
            return IsoResult(Verdict.NO, reason=f"dim End({name}) = {end} differs from "
                                                f"dim Hom(a, b) = {basis.dimension}")
    return IsoResult(Verdict.PROBABLY_NO,
                     reason=f"no invertible morphism found in {trials} samples",
                     trials=trials, seed=seed)


def _inverts_to(a: MatrixRepresentation, b: MatrixRepresentation, s: MorphismTuple,
                f: MorphismTuple) -> bool:
    """Whether apply_base_change(a, s) == b, with no inverse taken: exactly when
    s_v f_v = 1 at every vertex, so f_v = s_v^-1, and f: a -> b is a morphism."""
    return (all(sv @ fv == CMatrix.identity(sv.rows) for sv, fv in zip(s, f))
            and _is_morphism(a, b, f))


def _is_morphism(a: MatrixRepresentation, b: MatrixRepresentation, f: MorphismTuple) -> bool:
    """Whether B F_u == F_v A on every full arrow u -> v and B F_u == conj(F_v) A
    on every dashed one."""
    return all(b.matrices[x.id] @ f[x.source - 1]
               == (f[x.target - 1].conj() if x.is_dashed else f[x.target - 1]) @ a.matrices[x.id]
               for x in a.biquiver.arrows)


# -- Krull-Schmidt decomposition ----------------------------------------------

def _minimal_polynomial(basis: MorphismBasis, phi: MorphismTuple,
                        powers: list[MorphismTuple] | None = None) -> list[int]:
    """Minimal polynomial of phi as a real-linear operator tuple, primitive
    integer coefficients with a positive leading one.

    Found as the first linear dependence among the flattened powers of phi.
    phi acts on a real space of dimension 2 * sum(dims), so by
    Cayley-Hamilton one of the first 2 * sum(dims) + 1 powers is dependent.
    The powers 1, phi, ..., phi^deg it flattens are appended to `powers`
    when a list is passed; phi^2 on take one composition each.
    """
    powers = [] if powers is None else powers

    def flattened():
        power = _identity_tuple(basis.source_dims)
        while True:
            powers.append(power)
            yield _flatten_tuple(power)
            power = _tuple_compose(phi, power) if len(powers) > 1 else phi

    return _first_dependence(flattened(), 2 * sum(basis.source_dims) + 1)


def _splitting_idempotent(minpoly: list[int], powers: list[MorphismTuple],
                          dims: DimensionVector) -> list[MorphismTuple] | None:
    """The primary parts M_j(phi) of phi, or None when minpoly has one irreducible factor.

    For minpoly p = prod f_j^m_j, M_j is the integer polynomial p / f_j^m_j
    and each M_j(phi) one `_combination` of `powers`, the 1, phi, ...,
    phi^deg p that `_minimal_polynomial` composed. (The benchmark's tracer
    looks this function up by its name, which predates the primary split.)
    """
    factors = poly_factor(minpoly)
    if len(factors) < 2:
        return None
    shapes = [(d, d) for d in dims]
    return [_combination(m, powers, shapes) for m in primary_cofactors(minpoly, factors)]


def _vertex_killers(basis: MorphismBasis, vertex: int, vec: CMatrix) -> list[list[int]]:
    """Integer coordinates of a basis of the endomorphisms annihilating a vector at one vertex.

    Each is the numerator list of a canonical kernel vector, which is that
    vector times its denominator and so kills `vec` too. Such endomorphisms
    are singular, so their minimal polynomials pick up a factor of x;
    together with the primary split this decomposes isotypic sums
    X + X whose generic endomorphisms have irreducible rational minimal
    polynomials.
    """
    columns = [_flatten_tuple((tup[vertex] @ vec,)) for tup in basis.tuples]
    # all columns over one denominator: a uniform scale keeps the nullspace
    den = lcm(*(d for d, _ in columns))
    rows = [list(row) for row in zip(*([x * (den // d) for x in col] for d, col in columns))]
    return [nums for _, nums in fraction_nullspace(rows, len(columns))]


def _split_candidates(basis: MorphismBasis, dims: DimensionVector, trials: int,
                      rng: random.Random, coeff_bound: int) -> Iterator[MorphismTuple]:
    """Endomorphisms to try for a Fitting split, drawn from rng only as they are asked for.

    Each of `trials` rounds yields a random element of End, then, at each
    nonzero vertex in random order, the `_vertex_killers` of a random
    nonzero Gaussian-integer vector there.
    """
    for _ in range(trials):
        yield _sample(basis, rng, coeff_bound)
        vertices = [w for w, d in enumerate(dims) if d > 0]
        rng.shuffle(vertices)
        for w in vertices:
            # real and imaginary part of each entry in turn
            parts = [rng.randint(-9, 9) for _ in range(2 * dims[w])]
            vec = CMatrix.from_integers(dims[w], 1, 1, parts[::2], parts[1::2])
            if not vec.is_zero():
                for coords in _vertex_killers(basis, w, vec):
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


def _primary_change(parts: list[MorphismTuple], dims: DimensionVector
                    ) -> tuple[list[CMatrix], list[DimensionVector]]:
    """Per vertex v the base change [im M_1(phi)_v | ... | im M_r(phi)_v], and the dimension
    vector of each image; AssertionError when an image is zero or when the ranks at some
    vertex do not sum to d_v."""
    images = [[m.column_space_basis() for m in part] for part in parts]
    sizes = [tuple(m.cols for m in image) for image in images]
    if not all(map(any, sizes)) or any(sum(col) != d for col, d in zip(zip(*sizes), dims)):
        raise AssertionError("primary parts do not split the representation")
    return [reduce(hstack, column) for column in zip(*images)], sizes


def _split_blocks(rep: MatrixRepresentation, sizes: list[DimensionVector]
                  ) -> list[MatrixRepresentation]:
    """The diagonal blocks of rep, block j of dimension vector sizes[j]; AssertionError
    when a block off the diagonal of some arrow's matrix is not zero."""
    starts = [list(accumulate(column, initial=0)) for column in zip(*sizes)]
    blocks: list[dict] = [{} for _ in sizes]
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


def decompose(a: MatrixRepresentation, trials: int = DEFAULT_TRIALS, seed: int = 0,
              coeff_bound: int = DEFAULT_COEFF_BOUND) -> Decomposition:
    """Decompose into indecomposables by recursive primary splitting.

    A representation whose End is not local tries the endomorphisms phi
    that `_split_candidates` yields: per round a random one, then integer
    vertex killers. The first whose minimal polynomial p has r >= 2 coprime
    rational factor powers f_j^m_j splits it in one step into its r primary
    components ker f_j(phi)^m_j = im (p / f_j^m_j)(phi): nonzero, invariant
    under the arrows as (p / f_j^m_j)(phi) is in End, and summing directly to
    the whole space. Each is decomposed in turn. Splittings that would need
    irrational idempotents are not found. A leaf is CertifiedIndecomposable
    when End is local (End/rad is R, C or the quaternions H), read exactly
    from the trace form, and otherwise ProbablyIndecomposable. The base change
    applied to `a` is the direct sum of the summands, exactly.
    """
    _check_sampling(trials, coeff_bound)
    rng = random.Random(seed)

    def rec(rep: MatrixRepresentation):
        # rep is nonzero: every primary component is
        basis = hom_basis(rep, rep)
        status = IndecomposabilityStatus.CERTIFIED
        if not _certify_local(basis):
            for phi in _split_candidates(basis, rep.dims, trials, rng, coeff_bound):
                powers: list[MorphismTuple] = []
                parts = _splitting_idempotent(_minimal_polynomial(basis, phi, powers), powers,
                                              rep.dims)
                if parts is None:
                    continue
                ts, sizes = _primary_change(parts, rep.dims)
                summands, changes, statuses = zip(*map(rec, _split_blocks(
                    apply_base_change(rep, ts), sizes)))
                return (sum(summands, []), [t @ reduce(block_diag, c) for t, c in
                                            zip(ts, zip(*changes))], sum(statuses, []))
            status = IndecomposabilityStatus.PROBABLE
        return [rep], _identity_tuple(rep.dims), [status]

    summands, change, statuses = rec(a) if a.total_dim() else ([], _identity_tuple(a.dims), [])
    result = Decomposition(tuple(summands), tuple(change), tuple(statuses), trials, seed)
    # apply_base_change(a, S) == recombined, with no inverse taken: every S_v
    # is invertible and S: recombined -> a is a morphism
    recombined = direct_sum_list(a.biquiver, list(result.summands))
    if not (recombined.dims == a.dims
            and all(m.rows == d and m.is_invertible() for m, d in zip(result.base_change, a.dims))
            and _is_morphism(recombined, a, result.base_change)):
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
