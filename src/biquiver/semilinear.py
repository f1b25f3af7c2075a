"""Matrix calculus for linear and semilinear maps.

The matrix M of a semilinear map sends coordinates x to conj(M x), so
composition picks up conjugations: composing with a linear map on the
outside conjugates the outer matrix, and two semilinear maps compose to a
linear one. Change of basis for a semilinear operator is consimilarity,
conj(S)^{-1} M S; consimilarity of two square matrices is decided by the
representation isomorphism test on the one-dashed-loop biquiver, whose
representations are the `gadgets` cycle gadgets of the two matrices.
"""
from __future__ import annotations

from enum import Enum

from .errors import FormatError, SingularMatrixError, check_instance, echo
from .gadgets import gadget_cycle
from .linalg import CMatrix
from .model import Arrow, ArrowKind, Biquiver
from .morphisms import DEFAULT_TRIALS, IsoResult, are_isomorphic


class MapKind(Enum):
    LINEAR = "linear"
    SEMILINEAR = "semilinear"


def _check_kind(kind) -> None:
    """Refuse a kind that is not a MapKind, which each map below would read as linear."""
    if not isinstance(kind, MapKind):
        raise FormatError(f"map kind must be a MapKind, got {echo(kind)}")


def apply_map(kind: MapKind, m: CMatrix, x: CMatrix) -> CMatrix:
    """Apply the map with matrix m to a column vector x."""
    _check_kind(kind)
    check_instance(m, CMatrix, "matrix m")
    check_instance(x, CMatrix, "vector x")
    if x.cols != 1 or m.cols != x.rows:
        raise FormatError(
            f"cannot apply {m.rows}x{m.cols} matrix to {x.rows}x{x.cols} vector")
    y = m @ x
    return y.conj() if kind is MapKind.SEMILINEAR else y


def compose(kind_b: MapKind, b: CMatrix, kind_a: MapKind, a: CMatrix
            ) -> tuple[MapKind, CMatrix]:
    """Matrix and kind of the composition (b after a).

    The result is semilinear iff exactly one input is; the outer matrix is
    conjugated exactly when the inner map is semilinear.
    """
    _check_kind(kind_b)
    _check_kind(kind_a)
    check_instance(b, CMatrix, "matrix b")
    check_instance(a, CMatrix, "matrix a")
    if b.cols != a.rows:
        raise FormatError(
            f"inner dimensions differ: {b.rows}x{b.cols} after {a.rows}x{a.cols}")
    semi = (kind_b is MapKind.SEMILINEAR) != (kind_a is MapKind.SEMILINEAR)
    kind = MapKind.SEMILINEAR if semi else MapKind.LINEAR
    left = b.conj() if kind_a is MapKind.SEMILINEAR else b
    return kind, left @ a


def change_of_basis(kind: MapKind, m: CMatrix, s_target: CMatrix,
                    s_source: CMatrix) -> CMatrix:
    """Matrix of the same map after changing source and target bases.

    The transitions are square, s_target of size m.rows and s_source of size
    m.cols (FormatError otherwise), and invertible (SingularMatrixError).
    """
    _check_kind(kind)
    check_instance(m, CMatrix, "matrix m")
    check_instance(s_target, CMatrix, "transition s_target")
    check_instance(s_source, CMatrix, "transition s_source")
    if not (s_source.is_square and s_target.is_square
            and s_source.rows == m.cols and s_target.rows == m.rows):
        raise FormatError("transition matrices do not match the map's shape")
    if not s_source.is_invertible():
        raise SingularMatrixError("singular source transition matrix")
    left = s_target.conj() if kind is MapKind.SEMILINEAR else s_target
    return left.inverse() @ m @ s_source


def are_consimilar(a: CMatrix, b: CMatrix, trials: int = DEFAULT_TRIALS,
                   seed: int = 0) -> IsoResult:
    """Decide whether conj(S)^{-1} a S = b has an invertible solution S.

    Yes results carry an exactly verified S (the certificate's single
    matrix). No is certified by the rank profile of the loop, whose paths
    give the consimilarity invariants rank a, rank a conj(a),
    rank a conj(a) a and rank (a conj(a))^2 (Hong & Horn 1988), or by the
    morphism space; ProbablyNo is Monte Carlo, which its `trials` and
    `seed` reproduce. Delegates to the cycle gadgets of a and b on the
    one-dashed-loop biquiver, where isomorphism of representations is
    precisely consimilarity.
    """
    check_instance(a, CMatrix, "matrix a")
    check_instance(b, CMatrix, "matrix b")
    if not a.is_square or not b.is_square or a.rows != b.rows:
        raise FormatError("consimilarity needs square matrices of equal size")
    loop = Biquiver(1, (Arrow("a", 1, 1, ArrowKind.DASHED),))
    return are_isomorphic(gadget_cycle(loop, ["a"], a), gadget_cycle(loop, ["a"], b),
                          trials=trials, seed=seed)
