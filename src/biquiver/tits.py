"""The Tits quadratic form of a biquiver and its exact definiteness.

q_G(x) = sum x_i^2 - sum_{arrows u->v} x_u x_v, summed over all arrows of
either kind. Twice its Gram matrix Q is the integer generalized Cartan
matrix C = 2Q of the underlying multigraph, stored with Q as its view.
Definiteness is read exactly from the inertia of C, that of Q, counted by
the integer elimination `elimination._symmetric_ldl`.

Each form is analysed once. C forgets the kinds and directions of the
arrows, so every biquiver on the same numbered multigraph has the same
form, and `_tits_gram` returns one TitsGram per C: a weak intern table
keeps it while some Biquiver holds it as "_gram", and frees it with the
last one. `model._kept` keeps in the form what this module derives from C
once: the checked LDL^T of C (`ldl`) and, for a semidefinite C, its
radical vector delta, solved back from that LDL^T by `_null_root`
(`_delta`); and, under a key of its own, what `roots` derives from the
form alone: the positive roots of a definite form. `classify` reads no
form. On every biquiver sharing the form, `definiteness` reads the
inertia of that one LDL^T.
`radical_vector` shares the verdict but still solves ker C with
`fraction_nullspace`, the call the benchmark's tests count for it, and
raises AssertionError unless what it finds is delta. The elimination is
cubic in the number of vertices, so forms past MAX_GRAM_VERTICES vertices
are neither built nor eliminated.
"""
from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd

from .errors import FormatError, PreconditionError, check_int, is_int
from .elimination import _symmetric_ldl, fraction_nullspace
from .model import Biquiver, DimensionVector, _fields, _kept, check_dims

# The most vertices of a Tits form that `gram_matrix` builds and
# `definiteness` eliminates: the dense t x t elimination takes about 0.3 s
# at t = 200 and 2 s at t = 400, and the matrix alone grows as t^2.
MAX_GRAM_VERTICES = 256

# The one live TitsGram of each C, held weakly: the biquivers' "_gram"
# memos keep a form alive, and it leaves the table with the last of them.
_FORMS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_FORMS_LOCK = threading.Lock()


class Definiteness(Enum):
    POSITIVE_DEFINITE = "PositiveDefinite"
    POSITIVE_SEMIDEFINITE = "PositiveSemidefinite"
    INDEFINITE = "Indefinite"


@dataclass(frozen=True)
class TitsGram:
    """The symmetric int matrix C = 2Q with x^T C x = 2 q_G(x).

    `gram_matrix` hands out one TitsGram per C, shared by every biquiver on
    that numbered multigraph, so each memo kept in it is computed once per
    form. A TitsGram built directly is a fresh form, with memos of its own.
    `model._kept` keeps them outside the fields, so ==, hash, repr and
    pickling see only t and c.
    """
    t: int
    c: tuple[tuple[int, ...], ...]

    @property
    def q(self) -> tuple[tuple[int | Fraction, ...], ...]:
        """The Gram matrix Q: each entry an int or, for odd x in C, Fraction(x, 2)."""
        return tuple(tuple(x // 2 if x % 2 == 0 else Fraction(x, 2) for x in row)
                     for row in self.c)

    @property
    def ldl(self) -> tuple:
        """`_checked_ldl(self)`, computed once and shared."""
        return _kept(self, "ldl", _checked_ldl)

    __getstate__ = _fields


def _checked_ldl(gram: TitsGram) -> tuple:
    """`_symmetric_ldl(c)` of gram's checked c.

    Raises FormatError unless c is a symmetric t x t matrix of ints, t and
    each entry an int and not a bool (`errors.is_int`), and
    PreconditionError, before eliminating, when t > MAX_GRAM_VERTICES. A
    refusal is not memoized, so a malformed TitsGram raises on every read.
    """
    t, c = gram.t, gram.c
    if not (is_int(t) and t >= 0 and isinstance(c, (tuple, list)) and len(c) == t
            and all(isinstance(row, (tuple, list)) and len(row) == t for row in c)):
        raise FormatError(f"Gram matrix must be {t} x {t}")
    _check_vertex_cap(t)
    # an exact int is what `is_int` accepts; testing its type first spares
    # the call on every entry `_tits_gram` builds, in each form's first query
    if not all(type(x) is int or is_int(x) for row in c for x in row):
        raise FormatError("Gram matrix entries must be ints")
    if any(c[i][j] != c[j][i] for i in range(t) for j in range(i)):
        raise FormatError("Gram matrix must be symmetric")
    return _symmetric_ldl(c)


def _delta(gram: TitsGram) -> DimensionVector:
    """`_null_root(gram)`, solved once per semidefinite form."""
    return _kept(gram, "_delta", _null_root)


def _check_vertex_cap(t: int) -> None:
    if t > MAX_GRAM_VERTICES:
        raise PreconditionError(f"the Tits form has {t} vertices, past the cap of "
                                f"{MAX_GRAM_VERTICES} that its elimination accepts")


def gram_matrix(g: Biquiver) -> TitsGram:
    """C = 2Q, g's one TitsGram, built on the first call and returned by every
    later one; each call raises PreconditionError when g has more than
    MAX_GRAM_VERTICES vertices."""
    return _kept(g, "_gram", _tits_gram)


def _tits_gram(g: Biquiver) -> TitsGram:
    """C = 2Q, built from the arrows, as the one live TitsGram of that C;
    each Biquiver keeps it as "_gram". Refused past MAX_GRAM_VERTICES
    vertices, before C is built."""
    _check_vertex_cap(g.t)
    # 2 - 2 loops on the diagonal, minus the arrows joining u and v off it
    c = [[0] * g.t for _ in range(g.t)]
    for v in range(g.t):
        c[v][v] = 2
    for a in g.arrows:
        u, v = a.source - 1, a.target - 1
        if u == v:
            c[u][u] -= 2
        else:
            c[u][v] -= 1
            c[v][u] -= 1
    c = tuple(map(tuple, c))
    with _FORMS_LOCK:
        gram = _FORMS.get(c)
        if gram is None:
            gram = _FORMS[c] = TitsGram(g.t, c)
    return gram


def evaluate(g: Biquiver, z: DimensionVector) -> int:
    """q_G(z) of a sequence z of g.t ints, refused otherwise."""
    check_dims(z, g.t, PreconditionError)
    for zi in z:
        check_int(zi, "dimension vector entry", None, PreconditionError)
    return _evaluate(g, z)


def _evaluate(g: Biquiver, z: DimensionVector) -> int:
    """q_G(z), unchecked: for the int vectors of length g.t that the root
    searches build themselves."""
    total = 0
    for zi in z:
        total += zi * zi
    for a in g.arrows:
        total -= z[a.source - 1] * z[a.target - 1]
    return total


def definiteness(gram: TitsGram) -> Definiteness:
    """Exact three-way verdict on the symmetric int matrix C = 2Q.

    Read off the inertia (n+, n-, n0) of C, which is that of Q: positive
    definite when n+ = t, positive semidefinite (and singular) when n- = 0.
    Only reads `gram.ldl`, which checks and eliminates C once per TitsGram:
    it raises FormatError unless C is a symmetric t x t matrix of ints, and
    PreconditionError, before eliminating, when t > MAX_GRAM_VERTICES.
    """
    (positive, negative, _), *_ = gram.ldl
    if positive == gram.t:
        return Definiteness.POSITIVE_DEFINITE
    if negative == 0:
        return Definiteness.POSITIVE_SEMIDEFINITE
    return Definiteness.INDEFINITE


def radical_vector(gram: TitsGram) -> DimensionVector | None:
    """Primitive positive integer generator of ker C = ker Q, when it exists.

    Present exactly when Q is positive semidefinite singular with a
    one-dimensional kernel spanned by a strictly positive vector (the case
    of a connected tame biquiver). Solved with `fraction_nullspace` on
    every call, and checked against the form's kept `_delta`, solved back
    from its LDL^T: raises AssertionError when the two differ.
    """
    if definiteness(gram) is not Definiteness.POSITIVE_SEMIDEFINITE:
        return None
    basis = fraction_nullspace([list(row) for row in gram.c], gram.t)
    if len(basis) != 1:
        return None
    # nums is primitive, as nums[free] == den, and positive at the free column
    _, nums = basis[0]
    if any(x <= 0 for x in nums):
        return None
    delta = tuple(nums)
    if delta != _delta(gram):
        raise AssertionError(f"the kernel vector {delta} is not the radical vector "
                             f"{_delta(gram)} read off the LDL^T")
    return delta


def _null_root(gram: TitsGram) -> DimensionVector:
    """The primitive generator delta > 0 of ker C, read off `gram.ldl`.

    For the singular positive semidefinite form of a connected biquiver,
    an extended Dynkin form, ker C = Z delta with delta > 0, and `ldl` has
    one `free` index. Every LDL^T term vanishes on ker C, so each step's
    d z_p + lin . z = 0 gives z_p from the indices pivoted after p; from
    z_free = 1 the steps, solved last to first in integers, scale z up by
    what d does not divide. Read for a semidefinite form only, through its
    memo `_delta`; raises AssertionError unless `free` has length 1 and
    delta > 0.
    """
    _, steps, free = gram.ldl
    if len(free) != 1:
        raise AssertionError(f"the kernel has {len(free)} free directions, not 1")
    z = [0] * gram.t
    z[free[0]] = 1
    for p, _, d, lin in reversed(steps):
        s = 0
        for j, x in lin.items():
            s += x * z[j]
        scale = d // gcd(s, d)  # d > 0, as n- == 0
        if scale > 1:
            z = [scale * v for v in z]
            s *= scale
        z[p] = -s // d
    common = gcd(*z)
    delta = tuple(v // common for v in z)
    if min(delta) <= 0:
        raise AssertionError(f"the kernel vector {delta} is not strictly positive")
    return delta
