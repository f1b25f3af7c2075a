"""Matrix representations of biquivers.

A representation assigns a dimension d_v to each vertex and a d_v x d_u
complex-rational matrix to each arrow u -> v (of either kind). Base change
by invertible matrices S_1..S_t acts as S_v^{-1} A S_u on full arrows and
as conj(S_v)^{-1} A S_u on dashed ones; two representations are isomorphic
exactly when a base change carries one onto the other. Zero-dimensional
vertices are fully supported (empty matrices count as invertible).
The package's lazy table, `biquiver._LAZY`, loads this module on the first
use of one of its names, among them the conjugation of a representation
(entrywise, on every arrow that starts at a listed vertex, loops included)
and of a certificate, which take a MatrixRepresentation or a CMatrix.
The constructor checks every representation: dims by `_check_dims`, which
the builders that size matrices from dims run first, and one d_v x d_u
CMatrix per arrow u -> v. It keeps dims as a tuple, so that equal vectors
compare equal, and the matrices as a dict of its own behind a read-only
`MappingProxyType`, so that no later edit, to the caller's mapping or to
`matrices`, changes the checked representation. A representation is a
value: it hashes by its biquiver, dims and matrix items, and a pickle or
copy is rebuilt, and so checked, by the constructor. The JSON parser
otherwise only decodes.
"""
from __future__ import annotations

import json
import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from math import gcd, lcm
from types import MappingProxyType

from .conjugation import _odd_vertices, apply_conjugations
from .errors import FormatError, PreconditionError, check_instance, check_int, echo
from .linalg import CMatrix, block_diag
from .model import (Biquiver, DimensionVector, _check_sized, _check_vertex, biquiver_to_obj,
                    check_dims, parse_biquiver_obj, parse_json)
from .scalars import _rational_parts


@dataclass(frozen=True)
class MatrixRepresentation:
    biquiver: Biquiver
    dims: DimensionVector
    matrices: Mapping[str, CMatrix]

    def __post_init__(self):
        g = self.biquiver
        check_instance(g, Biquiver, "representation")
        _check_dims(g, self.dims)
        check_instance(self.matrices, Mapping, "representation matrices")
        matrices = dict(self.matrices)
        ids = {a.id for a in g.arrows}
        extra = set(matrices) - ids
        if extra:
            raise FormatError(f"matrices given for unknown arrows: {echo(sorted(extra))}")
        for a in g.arrows:
            m = matrices.get(a.id)
            if m is None:
                raise FormatError(f"missing matrix for arrow {echo(a.id)}")
            check_instance(m, CMatrix, f"arrow {echo(a.id)}")
            want = (self.dims[a.target - 1], self.dims[a.source - 1])
            if (m.rows, m.cols) != want:
                raise FormatError(
                    f"arrow {echo(a.id)} needs a {want[0]}x{want[1]} matrix, "
                    f"got {m.rows}x{m.cols}")
        object.__setattr__(self, "dims", tuple(self.dims))
        object.__setattr__(self, "matrices", MappingProxyType(matrices))

    def __hash__(self) -> int:
        return hash((self.biquiver, self.dims, frozenset(self.matrices.items())))

    def __reduce__(self):
        return MatrixRepresentation, (self.biquiver, self.dims, dict(self.matrices))

    def dim(self, v: int) -> int:
        return self.dims[v - 1]

    def total_dim(self) -> int:
        return sum(self.dims)


def _check_dims(g: Biquiver, dims: DimensionVector) -> None:
    """Refuse dims with FormatError unless it is a sequence of g.t nonnegative ints."""
    check_dims(dims, g.t, FormatError)
    for d in dims:
        check_int(d, "dimension vector entry", 0, FormatError)


def zero_representation(g: Biquiver, dims: DimensionVector | None = None) -> MatrixRepresentation:
    """All-zero matrices; by default the zero-dimensional representation.
    A dims that MatrixRepresentation refuses is refused before any matrix."""
    check_instance(g, Biquiver, "representation")
    if dims is None:
        dims = (0,) * g.t
    _check_dims(g, dims)
    mats = {a.id: CMatrix.zero(dims[a.target - 1], dims[a.source - 1]) for a in g.arrows}
    return MatrixRepresentation(g, dims, mats)


def direct_sum(a: MatrixRepresentation, b: MatrixRepresentation) -> MatrixRepresentation:
    check_instance(a, MatrixRepresentation, "summand 0")
    return direct_sum_list(a.biquiver, [a, b])


def direct_sum_list(g: Biquiver, summands: list[MatrixRepresentation]) -> MatrixRepresentation:
    """The direct sum of representations of g: at each arrow, one `block_diag` of the
    summands' matrices, in order. No summands give the zero-dimensional representation."""
    check_instance(g, Biquiver, "direct sum")
    check_instance(summands, Sequence, "summand list")
    for k, s in enumerate(summands):
        check_instance(s, MatrixRepresentation, f"summand {k}")
    if any(s.biquiver != g for s in summands):
        raise PreconditionError("direct sum needs representations of the same biquiver")
    dims = tuple(sum(s.dims[v] for s in summands) for v in range(g.t))
    mats = {a.id: block_diag(*(s.matrices[a.id] for s in summands)) for a in g.arrows}
    return MatrixRepresentation(g, dims, mats)


def apply_base_change(a: MatrixRepresentation, s: list[CMatrix]) -> MatrixRepresentation:
    """Transform by invertible S_1..S_t; the result is isomorphic to the input."""
    check_instance(a, MatrixRepresentation, "base change")
    _check_sized(s, "transition matrices")
    g = a.biquiver
    if len(s) != g.t:
        raise PreconditionError(f"need {g.t} transition matrices, got {len(s)}")
    inv = []
    for v, m in enumerate(s, start=1):
        check_instance(m, CMatrix, f"transition matrix at vertex {v}")
        if (m.rows, m.cols) != (a.dim(v), a.dim(v)):
            raise PreconditionError(
                f"transition matrix at vertex {v} must be {a.dim(v)}x{a.dim(v)}")
        inv.append(m.inverse())
    return _transform(a, s, inv)


def _transform(a: MatrixRepresentation, s: list[CMatrix], inv: list[CMatrix],
               known: dict[str, CMatrix] | None = None) -> MatrixRepresentation:
    """The base change of `a` by S, given S and its inverse S^-1 at every vertex; the
    arrows in `known` take the matrices given there, which the caller has read off
    the change already."""
    mats = {}
    for arr in a.biquiver.arrows:
        if known and arr.id in known:
            mats[arr.id] = known[arr.id]
            continue
        # conj(S)^{-1} = conj(S^{-1}), so one inverse per vertex suffices
        left = inv[arr.target - 1].conj() if arr.is_dashed else inv[arr.target - 1]
        mats[arr.id] = left @ a.matrices[arr.id] @ s[arr.source - 1]
    return MatrixRepresentation(a.biquiver, a.dims, mats)


def conjugate_representation(a: MatrixRepresentation, u: int) -> MatrixRepresentation:
    """Representation of the conjugated biquiver, per the conjugation functor."""
    return apply_conjugations_representation(a, (u,))


def apply_conjugations_representation(a: MatrixRepresentation, vertices) -> MatrixRepresentation:
    """Conjugate at each vertex listed: the matrix of every arrow, loops included,
    whose source is listed an odd number of times is conjugated entrywise."""
    check_instance(a, MatrixRepresentation, "conjugation")
    odd = _odd_vertices(vertices, a.biquiver.t)
    mats = {arrow.id: a.matrices[arrow.id].conj() if arrow.source in odd
            else a.matrices[arrow.id] for arrow in a.biquiver.arrows}
    return MatrixRepresentation(apply_conjugations(a.biquiver, odd), a.dims, mats)


def transport_isomorphism(s: list[CMatrix], u: int) -> list[CMatrix]:
    """Carry an isomorphism certificate through conjugation at u.

    If S_1..S_t witnesses A = B up to base change, then the same list with
    S_u conjugated witnesses the conjugated pair. u must be a vertex of s.
    """
    _check_sized(s, "transition matrices")
    _check_vertex(u, len(s))
    for v, m in enumerate(s, start=1):
        check_instance(m, CMatrix, f"transition matrix at vertex {v}")
    return [m.conj() if v == u else m for v, m in enumerate(s, start=1)]


# The most matrix entries random_representation may draw: the sum over arrows
# u -> v of d_v * d_u.
MAX_RANDOM_ENTRIES = 10 ** 6


def random_representation(g: Biquiver, dims: DimensionVector, entry_bound: int,
                          seed: int) -> MatrixRepresentation:
    """Deterministic seeded representation with bounded rational entries.

    Each entry is re + im*i with numerators drawn from [-entry_bound,
    entry_bound] and denominators from [1, entry_bound]. Matrices are
    filled row-major in the biquiver's arrow order, so equal seeds give
    equal output. Refuses, before drawing, to fill more than
    MAX_RANDOM_ENTRIES entries, and dims as `_check_dims` does, types before
    the cap and signs after, but with PreconditionError where `check_dims` refuses.
    """
    check_instance(g, Biquiver, "representation")
    check_int(entry_bound, "entry_bound", 1, PreconditionError)
    check_dims(dims, g.t, PreconditionError)
    for d in dims:
        check_int(d, "dimension vector entry", None, FormatError)
    # abs: a negative dimension, refused below, must not offset the others
    entries = sum(abs(dims[a.target - 1] * dims[a.source - 1]) for a in g.arrows)
    if entries > MAX_RANDOM_ENTRIES:
        raise PreconditionError(
            f"dimension vector {echo(list(dims))} needs more matrix entries "
            f"than the cap of {MAX_RANDOM_ENTRIES}")
    _check_dims(g, dims)
    rng = random.Random(seed)
    mats = {}
    for a in g.arrows:
        r, c = dims[a.target - 1], dims[a.source - 1]
        mats[a.id] = _from_parts(r, c, [(rng.randint(-entry_bound, entry_bound),
                                          rng.randint(1, entry_bound)) for _ in range(2 * r * c)])
    return MatrixRepresentation(g, dims, mats)


def _from_parts(rows: int, cols: int, parts: list[tuple[int, int]]) -> CMatrix:
    """The matrix whose entries are parts[2k] + i * parts[2k + 1] row-major, each part
    (p, q) the rational p / q, q > 0; the parts need not be in lowest terms."""
    den = lcm(*(q for _, q in parts))
    nums = [p * (den // q) for p, q in parts]
    return CMatrix.from_integers(rows, cols, den, nums[::2], nums[1::2])


# -- JSON format --------------------------------------------------------------

def matrix_to_obj(m: CMatrix) -> list:
    """Rows of [re, im] pairs of canonical rational strings, "p" or "p/q" as
    `scalars.format_rational` prints them, each part x / m.den reduced by one gcd."""
    check_instance(m, CMatrix, "matrix document")
    den, c = m.den, m.cols

    def part(x: int) -> str:
        g = gcd(x, den)
        return str(x // g) if g == den else f"{x // g}/{den // g}"

    return [[[part(x), part(y)] for x, y in zip(m.re[i * c:(i + 1) * c], m.im[i * c:(i + 1) * c])]
            for i in range(m.rows)]


def parse_matrix_obj(obj, rows: int | None = None, cols: int | None = None) -> CMatrix:
    if not isinstance(obj, list):
        raise FormatError("matrix must be a list of rows")
    r = len(obj)
    widths = {len(row) if isinstance(row, list) else -1 for row in obj}
    if -1 in widths:
        raise FormatError("matrix rows must be lists")
    if len(widths) > 1:
        raise FormatError("ragged matrix rows")
    c = widths.pop() if widths else (cols if cols is not None else 0)
    if rows is not None and r != rows:
        raise FormatError(f"expected {rows} rows, got {r}")
    if cols is not None and r > 0 and c != cols:
        raise FormatError(f"expected {cols} columns, got {c}")
    parts = []  # (p, q) for the real, then the imaginary part of each entry
    for row in obj:
        for pair in row:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise FormatError(f"matrix entry must be a [re, im] pair, got {echo(pair)}")
            parts += (_rational_parts(pair[0]), _rational_parts(pair[1]))
    return _from_parts(r, c, parts)


def representation_to_obj(a: MatrixRepresentation, embed_biquiver: bool = True) -> dict:
    check_instance(a, MatrixRepresentation, "representation document")
    obj = {
        "dims": list(a.dims),
        "matrices": {aid: matrix_to_obj(m) for aid, m in sorted(a.matrices.items())},
    }
    if embed_biquiver:
        obj["biquiver"] = biquiver_to_obj(a.biquiver)
    return obj


def parse_representation_obj(obj, biquiver: Biquiver | None = None) -> MatrixRepresentation:
    """Parse {"dims", "matrices"[, "biquiver"]}; the biquiver may be embedded.
    Matrices keyed by unknown arrow ids pass unread, for the constructor to refuse."""
    if not isinstance(obj, dict):
        raise FormatError("representation document must be a JSON object")
    if biquiver is None:
        if "biquiver" not in obj:
            raise FormatError(
                "no biquiver supplied and none embedded in the representation document")
        biquiver = parse_biquiver_obj(obj["biquiver"])
    check_instance(biquiver, Biquiver, "representation document")
    dims = obj.get("dims")
    _check_dims(biquiver, dims)
    raw = obj.get("matrices")
    if not isinstance(raw, dict):
        raise FormatError("'matrices' must be an object keyed by arrow id")
    mats = dict(raw)
    for arrow in biquiver.arrows:
        if arrow.id in raw:
            mats[arrow.id] = parse_matrix_obj(
                raw[arrow.id], rows=dims[arrow.target - 1], cols=dims[arrow.source - 1])
    return MatrixRepresentation(biquiver, dims, mats)


def parse_representation(text: str, biquiver: Biquiver | None = None) -> MatrixRepresentation:
    return parse_representation_obj(parse_json(text), biquiver)


def serialize_representation(a: MatrixRepresentation, embed_biquiver: bool = True) -> str:
    return json.dumps(representation_to_obj(a, embed_biquiver),
                      sort_keys=True, separators=(",", ":"))
