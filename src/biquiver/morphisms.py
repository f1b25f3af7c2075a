"""Morphism spaces, isomorphism testing, and Krull-Schmidt decomposition.

A morphism F: A -> B is a tuple of complex matrices F_v with
B_alpha F_u = F_v A_alpha on full arrows and B_alpha F_u = conj(F_v) A_alpha
on dashed ones. Because of the conjugation, Hom(A, B) is only a *real*
vector space; writing F_v = X_v + i Y_v turns the constraints into a
homogeneous rational linear system whose exact nullspace we compute.
`MorphismBasis` keeps its canonical kernel vectors, integers over one
denominator each, and samples, killers, powers and the trace form are
integer arithmetic on them: CMatrix matrices are built only for a sample
to invert, for the primary parts of a split, and on each `tuples` read. All
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
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, combinations, islice
from math import lcm
from operator import matmul, mul

from .errors import PreconditionError, SingularMatrixError, check_instance, check_int
from .elimination import _first_dependence, _primitive, _symmetric_ldl, fraction_nullspace
from .linalg import CMatrix, _product, hstack, reduced_row_echelon, submatrix, transpose, vstack
from .model import Biquiver, DimensionVector, _forest
from .polynomials import poly_factor, primary_cofactors
from .representation import MatrixRepresentation, _transform, direct_sum_list

DEFAULT_TRIALS = 8
COEFF_BOUND = 10 ** 4
# The rank profile composes along paths of 2 to PROFILE_PATH_LENGTH arrows
# and stops after MAX_PROFILE_RANKS entries, so loops, cycles and parallel
# arrows cannot blow it up. The cap is ample: oriented E6 and E7 trees give
# 10 to 19 entries.
PROFILE_PATH_LENGTH = 4
MAX_PROFILE_RANKS = 256
# The most cells, equations times unknowns, of a Hom system that `hom_basis`
# builds. A full loop of dimension d gives a 2d^2 x 2d^2 system; with random
# Gaussian-integer entries in [-3, 3], CPython 3.11 on a 2-core x86 host
# solves d = 12 (82,944 cells) in 7.5 s and d = 13 (114,244) in 11.1 s on
# the sparse route, and d = 14 (153,664), past the cap, in 23.6 s of the
# kernel alone.
MAX_HOM_CELLS = 2 ** 17
# The End system size, in cells as `hom_basis` counts them, from which
# `decompose` puts a node in echelon form first. On the 110 representations
# that the cli-rep-large benchmark screens through `decompose` at seed 1, the
# echelon change took them 1.9-2.3 times as long as no change when made at
# every node, and 0.9-1.2 times with this threshold; on its 24 scrambled
# sums, 0.70-0.72 and 0.60-0.70 times (best of 3 in each of three runs, on
# a 2-core x86 host, CPython 3.11). Answers depend on the value.
_MIN_SPLIT_CELLS = 512

MorphismTuple = tuple[CMatrix, ...]
_Vector = tuple[int, list[int]]  # (den, nums): the morphism nums / den in the Hom layout


@dataclass(frozen=True)
class MorphismBasis:
    """Real-rational basis of Hom(A, B): the canonical kernel vectors of its system.

    Each vector is (den, nums), the morphism nums / den in the layout of
    `hom_basis`'s unknowns, with gcd(den, *nums) == 1, so den is also the
    lcm of the per-vertex denominators. `tuples`, the basis as tuples of
    per-vertex CMatrix, is built anew on each read, as nothing in the
    package reads it twice: the CLI's `hom` command reads it once.
    """
    biquiver: Biquiver
    source_dims: DimensionVector
    target_dims: DimensionVector
    vectors: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    @property
    def tuples(self) -> tuple[MorphismTuple, ...]:
        return tuple(_matrices(self.target_dims, self.source_dims, *v) for v in self.vectors)


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
    check_instance(a, MatrixRepresentation, "representation a")
    check_instance(b, MatrixRepresentation, "representation b")
    if a.biquiver != b.biquiver:
        raise PreconditionError("representations live over different biquivers")


def _check_sampling(trials: int) -> None:
    check_int(trials, "trials", 0, PreconditionError)


def _hom_system_size(g: Biquiver, da: DimensionVector, db: DimensionVector) -> tuple[int, int]:
    """(equations, unknowns) of the Hom system `hom_basis` builds for dimension vectors da, db."""
    unknowns = sum(2 * y * x for x, y in zip(da, db))
    return sum(2 * db[x.target - 1] * da[x.source - 1] for x in g.arrows), unknowns


def hom_basis(a: MatrixRepresentation, b: MatrixRepresentation) -> MorphismBasis:
    """Exact basis of the real vector space Hom(a, b).

    Unknowns are the real and imaginary parts of each F_v, laid out
    vertex by vertex; the basis is the canonical nullspace basis of the
    assembled system, hence deterministic. Each equation touches only the
    unknowns at its arrow's two ends, so it is built as a sparse row
    {unknown: nonzero coefficient}, and `fraction_nullspace` keeps the
    system sparse down to the kernel readout. Raises PreconditionError,
    before building it, when the system has more than MAX_HOM_CELLS cells.
    """
    _check_same_biquiver(a, b)
    g = a.biquiver
    da, db = a.dims, b.dims

    equations, total = _hom_system_size(g, da, db)
    if equations * total > MAX_HOM_CELLS:
        raise PreconditionError(f"the Hom system has {equations} equations in {total} unknowns, "
                                f"past the cap of {MAX_HOM_CELLS} cells")
    offsets = list(accumulate((2 * y * x for x, y in zip(da, db)), initial=0))
    # B F_u - F_v A = 0 (conj(F_v) on dashed arrows), times den(A) den(B): the B
    # terms are scaled by den(A) and the A terms by den(B). X_v[i, j] is unknown
    # offsets[v] + i * da[v] + j, and Y_v[i, j] comes db[v] * da[v] after it. A
    # term is (unknown, its coefficient in the real row, in the imaginary row).
    # Each row is sparse, {unknown: nonzero coefficient}: on a loop the B and
    # A terms can meet at one unknown and cancel, and a row left empty is dropped.
    rows: list[dict[int, int]] = []
    for arrow in g.arrows:
        u, v = arrow.source - 1, arrow.target - 1
        am, bm = a.matrices[arrow.id], b.matrices[arrow.id]
        sb, sa, sign = am.den, bm.den, -1 if arrow.is_dashed else 1
        xu, yu, yv = offsets[u], offsets[u] + db[u] * da[u], db[v] * da[v]
        # B F_u: B[i, k] times X_u[k, j] + i Y_u[k, j], at j = 0 (row (i, j) adds j)
        b_terms = [[t for k, x, y in zip(range(db[u]), bm.re[i * db[u]:], bm.im[i * db[u]:])
                    if x or y for t in ((xu + k * da[u], sb * x, sb * y),
                                        (yu + k * da[u], -sb * y, sb * x))]
                   for i in range(db[v])]
        # -F_v A: X_v[i, l] + i Y_v[i, l] times A[l, j], less offsets[v] + i * da[v];
        # conj(F_v) = X_v - i Y_v flips the sign of the Y_v terms
        a_terms = [[t for l, x, y in zip(range(da[v]), am.re[j::da[u]], am.im[j::da[u]])
                    if x or y for t in ((l, -sa * x, -sa * y),
                                        (yv + l, sign * sa * y, -sign * sa * x))]
                   for j in range(da[u])]
        for i, b_row in enumerate(b_terms):
            base = offsets[v] + i * da[v]
            for j, a_col in enumerate(a_terms):
                real = {j + p: cr for p, cr, _ in b_row if cr}
                imag = {j + p: ci for p, _, ci in b_row if ci}
                for p, cr, ci in a_col:
                    p += base
                    for row, c in ((real, cr), (imag, ci)):
                        if c:
                            c += row.get(p, 0)
                            if c:
                                row[p] = c
                            else:
                                del row[p]
                rows += (row for row in (real, imag) if row)

    vectors = tuple((den, tuple(nums)) for den, nums in fraction_nullspace(rows, total))
    return MorphismBasis(g, da, db, vectors)


def _matrices(rows: DimensionVector, cols: DimensionVector, den: int, nums) -> MorphismTuple:
    """The per-vertex matrices, rows[v] x cols[v], of the vector nums / den in the Hom layout."""
    starts = accumulate((2 * r * c for r, c in zip(rows, cols)), initial=0)
    return tuple(CMatrix.from_integers(r, c, den, nums[s:s + r * c], nums[s + r * c:s + 2 * r * c])
                 for r, c, s in zip(rows, cols, starts))


def _linear_combination(coeffs: list[int], vectors, length: int) -> _Vector:
    """sum_j coeffs[j] * vectors[j], each of `length`, over the lcm of the terms' dens."""
    terms = [(c, v) for c, v in zip(coeffs, vectors) if c]
    den = lcm(*(d for _, (d, _) in terms))
    scales = [c * (den // d) for c, (d, _) in terms]
    columns = zip(*(v for _, (_, v) in terms)) if terms else [()] * length
    return den, [sum(map(mul, scales, column)) for column in columns]


def _combine(basis: MorphismBasis, coeffs: list[int]) -> _Vector:
    """The integer combination sum_j coeffs[j] * basis.vectors[j]."""
    return _linear_combination(coeffs, basis.vectors, 2 * sum(map(mul, basis.target_dims,
                                                                   basis.source_dims)))


def _sample(basis: MorphismBasis, rng: random.Random) -> _Vector:
    """A random integer combination of the basis, coefficients in [-COEFF_BOUND, COEFF_BOUND]."""
    return _combine(basis, [rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in basis.vectors])


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
                   vstack(*(mats[arrow.id] for arrow in group)))
        ins = [arrow for arrow in g.arrows if arrow.target == v]
        for group in _arrow_sets(ins):
            yield (f"image-sum rank of {_ids(group)} at vertex {v}",
                   hstack(*map(image, group)))
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
                   trials: int = DEFAULT_TRIALS, seed: int = 0) -> IsoResult:
    """Randomized isomorphism test with exact certificates.

    Yes certificates S_1..S_t are verified exactly before being returned.
    No is certified, with trials = 0, by the first of four checks that
    fails: the dimension vectors agree; the rank profiles agree (the
    reason names the first invariant that differs and both ranks);
    Hom(a, b) is not zero; dim End(a) = dim End(b) = dim Hom(a, b), as for
    isomorphic a and b (the reason names both dimensions), which solves two
    more systems and so runs only after sampling fails. The samples are
    random integer combinations of the Hom basis (`_sample`); invertible
    tuples form the complement of a determinant hypersurface, so when an
    isomorphism exists a random point misses it with high probability, and
    ProbablyNo is Monte Carlo evidence only, which its `trials` and `seed`
    reproduce. A sampled Yes reports in `trials` the samples drawn, up to
    and including the one that succeeded. Refuses trials that are not a
    nonnegative int, and an a or b that is not a MatrixRepresentation.
    """
    _check_same_biquiver(a, b)
    _check_sampling(trials)
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
        sample = _matrices(basis.target_dims, basis.source_dims, *_sample(basis, rng))
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

def _compose(f: _Vector, g_: _Vector, dims: DimensionVector) -> _Vector:
    """f after g_, canonical, for vectors in the End layout of dims: the integer parts
    are multiplied vertex by vertex, over den(f) den(g_)."""
    (df, a), (dg, b) = f, g_
    out = [df * dg]  # the denominator, then the parts at each vertex
    for d, s in zip(dims, accumulate((2 * d * d for d in dims), initial=0)):
        n = d * d
        re, im = _product(d, d, d, a[s:s + n], a[s + n:s + 2 * n], b[s:s + n], b[s + n:s + 2 * n])
        out += re + im
    den, *out = _primitive(out)  # canonical: gcd(den, *out) == 1
    return den, out


def _minimal_polynomial(basis: MorphismBasis, phi: _Vector,
                        powers: list[_Vector] | None = None) -> list[int]:
    """Minimal polynomial of phi, a vector in the End layout of `basis`, as a real-linear
    operator tuple: primitive integer coefficients, the leading one positive.

    Found as the first linear dependence among the canonical vectors of the
    powers of phi. phi acts on a real space of dimension 2 * sum(dims), so by
    Cayley-Hamilton one of the first 2 * sum(dims) + 1 powers is dependent.
    The powers 1, phi, ..., phi^deg it reads are appended to `powers` when a
    list is passed; phi^2 on take one `_compose` each.
    """
    powers, dims = [] if powers is None else powers, basis.source_dims
    den, *nums = _primitive([phi[0], *phi[1]])
    phi = den, nums

    def vectors():
        power = 1, [x for d in dims
                    for x in [int(i == j) for i in range(d) for j in range(d)] + [0] * (d * d)]
        while True:
            powers.append(power)
            yield power
            power = _compose(phi, power, dims) if len(powers) > 1 else phi

    return _first_dependence(vectors(), 2 * sum(dims) + 1)


def _splitting_idempotent(minpoly: list[int], powers: list[_Vector],
                          dims: DimensionVector) -> list[MorphismTuple] | None:
    """The primary parts M_j(phi) of phi, or None when minpoly is one coprime part.

    For minpoly p = prod f_j^m_j, in the coprime parts of `poly_factor`, M_j
    is the integer polynomial p / f_j^m_j and M_j(phi) one integer
    combination of `powers`, the vectors of 1, phi, ..., phi^deg p that
    `_minimal_polynomial` read; these parts are the first matrices a split
    node builds. `_primary_split` reads the base change and the blocks off
    their reduced row echelon forms. (The benchmark's tracer looks this
    function up by its name, which predates the primary split.)
    """
    factors = poly_factor(minpoly)
    if len(factors) < 2:
        return None
    return [_matrices(dims, dims, *_linear_combination(m, powers, len(powers[0][1])))
            for m in primary_cofactors(minpoly, factors)]


def _vertex_killers(basis: MorphismBasis, vertex: int, vec: CMatrix) -> list[list[int]]:
    """Integer coordinates of a basis of the endomorphisms annihilating a vector at one vertex.

    Each is the numerator list of a canonical kernel vector, which is that
    vector times its denominator and so kills `vec` too. Such endomorphisms
    are singular, so their minimal polynomials pick up a factor of x;
    together with the primary split this decomposes isotypic sums
    X + X whose generic endomorphisms have irreducible rational minimal
    polynomials. Column j is basis vector j's slice at the vertex times
    `vec`, all over one denominator: a uniform scale keeps the nullspace.
    """
    s = sum(2 * r * c for r, c in zip(basis.target_dims[:vertex], basis.source_dims))
    r, c = basis.target_dims[vertex], basis.source_dims[vertex]
    den, n = lcm(*(d for d, _ in basis.vectors)), r * c
    columns = []
    for d, nums in basis.vectors:
        re, im = _product(r, c, 1, nums[s:s + n], nums[s + n:s + 2 * n], vec.re, vec.im)
        columns.append([den // d * x for x in re + im])
    rows = [list(row) for row in zip(*columns)]
    return [nums for _, nums in fraction_nullspace(rows, len(columns))]


def _split_candidates(basis: MorphismBasis, dims: DimensionVector, trials: int,
                      rng: random.Random) -> Iterator[_Vector]:
    """Endomorphisms to try for a Fitting split, drawn from rng only as they are asked for.

    Each of `trials` rounds yields a random element of End, then, at each
    nonzero vertex in random order, the `_vertex_killers` of a random
    nonzero Gaussian-integer vector there.
    """
    for _ in range(trials):
        yield _sample(basis, rng)
        vertices = [w for w, d in enumerate(dims) if d > 0]
        rng.shuffle(vertices)
        for w in vertices:
            # real and imaginary part of each entry in turn
            parts = [rng.randint(-9, 9) for _ in range(2 * dims[w])]
            vec = CMatrix.from_integers(dims[w], 1, 1, parts[::2], parts[1::2])
            if not vec.is_zero():
                for coords in _vertex_killers(basis, w, vec):
                    yield _combine(basis, coords)


def _trace_rows(basis: MorphismBasis) -> Iterator[list[int]]:
    """Row i of `_trace_form`, up to its diagonal, for each i in turn."""
    dims = basis.source_dims
    starts = accumulate((2 * d * d for d in dims), initial=0)
    transpose_map = [s + part + j * d + i for d, s in zip(dims, starts)
                     for part in (0, d * d) for i in range(d) for j in range(d)]
    signs, transposed = [x for d in dims for x in [1] * (d * d) + [-1] * (d * d)], []
    for _, nums in basis.vectors:
        transposed.append(list(map(nums.__getitem__, transpose_map)))
        f = list(map(mul, signs, nums))
        yield [2 * sum(map(mul, f, g)) for g in transposed]


def _trace_form(basis: MorphismBasis) -> list[list[int]]:
    """Integer Gram matrix D T D of the trace form T, D = diag(den_i).

    T(f, g) is the real trace of fg on the realified spaces, 2 Re tr(fg) on a
    complex one, and entry (i, j) of D T D is twice one integer sum: nums_i,
    its imaginary parts negated, times nums_j read through one transpose map,
    as Re(f_kl g_lk) = Re f_kl Re g_lk - Im f_kl Im g_lk. D T D is congruent
    to T, so it has the same inertia.
    """
    return _symmetrized(list(_trace_rows(basis)))


def _symmetrized(lower: list[list[int]]) -> list[list[int]]:
    return [row + [lower[j][i] for j in range(i + 1, len(lower))] for i, row in enumerate(lower)]


def _certify_local(basis: MorphismBasis) -> bool:
    """True when End is local, i.e. the representation is indecomposable.

    The radical of End is the kernel of the trace form T (Dickson: nilpotent
    ideals are trace-free, and an element orthogonal to all has trace-free
    powers, so is nilpotent). So T is nondegenerate on End/rad, a product of
    matrix algebras M_n(D), D = R, C or the quaternions H, and on each a
    positive multiple of the real trace form of D^n, whose positive index
    n(n + 1)/2, n^2 or n(2n - 1) is 1 exactly when n = 1. So End is local,
    End/rad a division algebra, exactly when T has positive index 1.

    T is built a row at a time, and a leading block of size 2, 4, 8, ...
    with positive index 2 or more settles False: by Cauchy interlacing (Horn
    & Johnson, Matrix Analysis, Thm 4.3.28) no principal block has more.
    """
    n, lower = basis.dimension, []
    for k, row in enumerate(_trace_rows(basis), 1):
        lower.append(row)
        if k == n or (k >= 2 and not k & (k - 1)):
            positive, _, _ = _symmetric_ldl(_symmetrized(lower))
            if positive >= 2 or k == n:
                return positive == 1
    return False  # End = 0


def _primary_split(rep: MatrixRepresentation, parts: list[MorphismTuple]
                   ) -> tuple[list[MorphismTuple], list[MatrixRepresentation]]:
    """The bases X_j of the images of the primary parts, whose [X_1 | ... | X_r] is the
    base change T that splits rep, and the blocks of rep in it.

    At vertex v, M_j(phi)_v = X_{j,v} R_{j,v}, with X_{j,v} its pivot columns
    and R_{j,v} its reduced row echelon rows (`reduced_row_echelon`, one
    elimination per part and vertex), and T_v = [X_{1,v} | ... | X_{r,v}].
    M_j(phi) is an endomorphism, so A M_{j,u} = M_{j,v} A on a full arrow
    u -> v; restricted to the pivot columns P_{j,u}, where R_{j,u} is the
    identity, that is A X_{j,u} = X_{j,v} B_j with B_j = (R_{j,v} A)
    restricted to the columns P_{j,u}, the block j of T_v^-1 A T_u. A dashed
    arrow, with A M_{j,u} = conj(M_{j,v}) A, takes conj(R_{j,v}) and
    conj(X_{j,v}). No inverse is taken: each block is checked by those
    equations, exactly, which say that X_j is a morphism from it to rep
    (`_is_morphism`). AssertionError when a part's image is zero, when the
    ranks at some vertex do not sum to d_v, or when a check fails.
    """
    reduced = [[reduced_row_echelon(m) for m in part] for part in parts]
    sizes = [tuple(len(pivots) for pivots, _ in part) for part in reduced]
    if not all(map(any, sizes)) or any(sum(col) != d for col, d in zip(zip(*sizes), rep.dims)):
        raise AssertionError("primary parts do not split the representation")
    images = [tuple(submatrix(m, range(m.rows), pivots) for m, (pivots, _) in zip(part, readout))
              for part, readout in zip(parts, reduced)]
    blocks = []
    for readout, image, dims in zip(reduced, images, sizes):
        mats = {}
        for arrow in rep.biquiver.arrows:
            a, r = rep.matrices[arrow.id], readout[arrow.target - 1][1]
            mats[arrow.id] = ((r.conj() if arrow.is_dashed else r)
                              @ submatrix(a, range(a.rows), readout[arrow.source - 1][0]))
        block = MatrixRepresentation(rep.biquiver, dims, mats)
        if not _is_morphism(block, rep, image):
            raise AssertionError("base change did not block-diagonalize")
        blocks.append(block)
    return images, blocks


def _echelon_change(rep: MatrixRepresentation
                    ) -> tuple[list[CMatrix], MatrixRepresentation]:
    """A base change S that puts every arrow of the spanning forest in reduced echelon
    form, and the representation it carries rep to.

    The forest of `model._spanning_forest`, read from g's memo, is walked
    as it was grown, so at each tree arrow one end w is placed and the
    other, o, is new; S is the identity at the roots. On w -> o, with
    M = A S_w, X holds the first independent columns of M and then the unit
    vectors that complete a basis, and S_o = X, or conj(X) on a dashed
    arrow: the arrow becomes X^-1 M, with
    e_k at the k-th independent column and zero rows below the rank. X is
    the pivot columns of [M | I], and its reduced row echelon form is
    X^-1 [M | I], so both X^-1 M and X^-1 come off it. On o -> w, with
    M = S_w^-1 A (conj(S_w)^-1 A on a dashed arrow), S_o^-1 holds the first
    independent rows of M and then the unit rows that complete a basis: the
    arrow becomes M S_o, whose k-th independent row is e_k and whose columns
    past the rank are zero. That is the transpose of the case before, read
    off [M^T | I]. No inverse is taken, and only the loops and the other
    arrows off the forest go through `_transform`.
    """
    g = rep.biquiver
    s = [CMatrix.identity(d) for d in rep.dims]
    inv = list(s)
    placed = {}
    _, parent, _, tree, _ = _forest(g)
    for aid, o in tree.items():
        arrow, w = g.arrow(aid), parent[o] - 1
        m = rep.matrices[aid]
        if arrow.target == o:
            m = m @ s[w]
        else:
            m = transpose((inv[w].conj() if arrow.is_dashed else inv[w]) @ m)
        aug, rows = hstack(m, CMatrix.identity(m.rows)), range(m.rows)
        pivots, r = reduced_row_echelon(aug)
        x, x_inv = submatrix(aug, rows, pivots), submatrix(r, rows, range(m.cols, aug.cols))
        changed = submatrix(r, rows, range(m.cols))
        if arrow.target == o:
            s[o - 1], inv[o - 1] = (x.conj(), x_inv.conj()) if arrow.is_dashed else (x, x_inv)
            placed[aid] = changed
        else:
            s[o - 1], inv[o - 1], placed[aid] = transpose(x_inv), transpose(x), transpose(changed)
    return s, _transform(rep, s, inv, placed)


def decompose(a: MatrixRepresentation, trials: int = DEFAULT_TRIALS, seed: int = 0
              ) -> Decomposition:
    """Decompose into indecomposables by recursive primary splitting.

    A representation whose End is not local tries the endomorphisms phi
    that `_split_candidates` yields: per round a random one, then integer
    vertex killers. The first whose minimal polynomial p has r >= 2 coprime
    rational factor powers f_j^m_j splits it in one step into its r primary
    components ker f_j(phi)^m_j = im (p / f_j^m_j)(phi): nonzero, invariant
    under the arrows as (p / f_j^m_j)(phi) is in End, and summing directly to
    the whole space. `_primary_split` takes their pivot columns as the base
    change and reads each block off a reduced row echelon form, checking it
    exactly. Each component is decomposed in turn. Splittings that would
    need irrational idempotents are not found. A node whose End system has
    _MIN_SPLIT_CELLS cells or more, counted as `hom_basis` counts them, is
    first put in echelon form by `_echelon_change`, which leaves the arrows
    of a spanning forest in reduced echelon form and so makes the End system
    sparse; End is solved, sampled and split in those coordinates, and the
    change is composed into the node's base change. No base change is
    inverted on the way. A leaf is
    CertifiedIndecomposable when End is local (End/rad is R, C or the
    quaternions H), read exactly from the trace form, and otherwise
    ProbablyIndecomposable. The base change applied to `a` is the direct sum
    of the summands, exactly, and its `trials` and `seed` reproduce the
    samples. Refuses as `are_isomorphic` refuses.
    """
    check_instance(a, MatrixRepresentation, "representation a")
    _check_sampling(trials)
    rng = random.Random(seed)

    def rec(rep: MatrixRepresentation):
        if mul(*_hom_system_size(rep.biquiver, rep.dims, rep.dims)) < _MIN_SPLIT_CELLS:
            return node(rep)
        echelon, rep = _echelon_change(rep)
        summands, change, statuses = node(rep)
        return summands, [e @ c for e, c in zip(echelon, change)], statuses

    def node(rep: MatrixRepresentation):
        # rep is nonzero: every primary component is
        basis = hom_basis(rep, rep)
        status = IndecomposabilityStatus.CERTIFIED
        if not _certify_local(basis):
            for phi in _split_candidates(basis, rep.dims, trials, rng):
                powers: list[_Vector] = []
                parts = _splitting_idempotent(_minimal_polynomial(basis, phi, powers), powers,
                                              rep.dims)
                if parts is None:
                    continue
                images, blocks = _primary_split(rep, parts)
                summands, changes, statuses = zip(*map(rec, blocks))
                # T_v diag(C_1v, ..., C_rv) = [X_1v C_1v | ... | X_rv C_rv]
                return (sum(summands, []), [hstack(*map(matmul, xs, cs)) for xs, cs in
                                            zip(zip(*images), zip(*changes))], sum(statuses, []))
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
                          trials: int = DEFAULT_TRIALS, seed: int = 0
                          ) -> list[tuple[int, int, tuple[CMatrix, ...]]] | None:
    """Match two summand lists up to isomorphism; None when no bijection exists.

    Greedy matching by dimension vector followed by pairwise isomorphism
    tests, returning (index_in_x, index_in_y, certificate) triples. Refuses
    as `are_isomorphic` refuses, and x or y that is not a sequence.
    """
    for name, summands in (("x", x), ("y", y)):
        check_instance(summands, Sequence, f"summand list {name}")
        for k, s in enumerate(summands):
            check_instance(s, MatrixRepresentation, f"summand {k} of {name}")
    _check_sampling(trials)
    if len(x) != len(y):
        return None
    unmatched = list(range(len(y)))
    matching = []
    for i, xi in enumerate(x):
        for j in unmatched:
            if y[j].dims == xi.dims and (res := are_isomorphic(
                    xi, y[j], trials, seed + 7919 * (i + 1) + j)):
                unmatched.remove(j)
                matching.append((i, j, res.certificate))
                break
        else:
            return None
    return matching
