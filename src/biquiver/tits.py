"""The Tits quadratic form of a biquiver and its exact definiteness.

q_G(x) = sum x_i^2 - sum_{arrows u->v} x_u x_v, summed over all arrows of
either kind. Twice its Gram matrix Q is the integer generalized Cartan
matrix C = 2Q of the underlying multigraph, stored with Q as its view.
Definiteness is read exactly from the inertia of C, that of Q, counted by
the integer elimination `elimination._symmetric_ldl`, and the radical
vector delta is read off ker C, solved by `fraction_nullspace`.

Each form is checked once, when it is built, and analysed once. C
forgets the kinds and directions of the arrows, so every biquiver on the
same numbered multigraph has the same form, and `_tits_gram` returns one
TitsGram per C: a weak intern table keeps it while some Biquiver holds it
as "_gram", and frees it with the last one. `model._kept` keeps in the
form what this module derives from C once: the inertia of C, counted by
one elimination (`inertia`), and, for a semidefinite C, its radical
vector delta, certified before it is kept (`_delta`); and, under a key of
its own, what `roots` derives from the form alone: the positive roots of
a definite form. `classify` reads no form. On every biquiver sharing the
form, `definiteness` reads that one inertia. `radical_vector` shares the
verdict but solves ker C on every call, the call the benchmark's tests
count for it: the first delta it finds is the one kept, and a later call
raises AssertionError unless it finds that delta again. The elimination
is cubic in the number of vertices, so forms past MAX_GRAM_VERTICES
vertices are neither built nor eliminated.
"""
from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from operator import mul

from .errors import FormatError, PreconditionError, check_instance, check_int, is_int
from .elimination import _symmetric_ldl, fraction_nullspace
from .model import Biquiver, DimensionVector, _kept, check_dims

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

    The constructor checks every form: it raises FormatError unless t is
    an int >= 0 and C a symmetric t x t matrix of ints, t and each entry
    not a bool (`errors.is_int`), and PreconditionError when t >
    MAX_GRAM_VERTICES. It keeps c as a tuple of tuples, so a form built
    from lists equals, and hashes like, the same form built from tuples.
    `gram_matrix` hands out one TitsGram per C, shared by every biquiver on
    that numbered multigraph, so each memo kept in it is computed once per
    form. A TitsGram built directly is a fresh form, with memos of its own.
    `model._kept` keeps them outside the fields, so ==, hash and repr see
    only t and c, and a pickle or copy carries them alone and is rebuilt
    through the constructor.
    """
    t: int
    c: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        t, c = self.t, self.c
        if not (is_int(t) and t >= 0 and isinstance(c, (tuple, list)) and len(c) == t
                and all(isinstance(row, (tuple, list)) and len(row) == t for row in c)):
            raise FormatError(f"Gram matrix must be {t} x {t}")
        _check_vertex_cap(t)
        # an exact int is what `is_int` accepts; testing its type first spares
        # the call on every entry `_tits_gram` builds
        if not all(type(x) is int or is_int(x) for row in c for x in row):
            raise FormatError("Gram matrix entries must be ints")
        if any(c[i][j] != c[j][i] for i in range(t) for j in range(i)):
            raise FormatError("Gram matrix must be symmetric")
        object.__setattr__(self, "c", tuple(map(tuple, c)))

    def __reduce__(self):
        return TitsGram, (self.t, self.c)

    @property
    def q(self) -> tuple[tuple[int | Fraction, ...], ...]:
        """The Gram matrix Q: each entry an int or, for odd x in C, Fraction(x, 2)."""
        return tuple(tuple(x // 2 if x % 2 == 0 else Fraction(x, 2) for x in row)
                     for row in self.c)

    @property
    def inertia(self) -> tuple[int, int, int]:
        """The inertia (n+, n-, n0) of C, by `_symmetric_ldl`, computed once and shared."""
        return _kept(self, "inertia", lambda gram: _symmetric_ldl(gram.c))


def _delta(gram: TitsGram) -> DimensionVector:
    """The radical vector delta of a connected semidefinite form, kept by
    `radical_vector` or else solved and certified here, once per form."""
    return _kept(gram, "_delta", lambda gram: _certified(gram, _kernel(gram)))


def _kernel(gram: TitsGram) -> list[tuple[int, list[int]]]:
    """The canonical basis of ker C, by `fraction_nullspace` on C's rows."""
    return fraction_nullspace([list(row) for row in gram.c], gram.t)


def _certified(gram: TitsGram, basis: list[tuple[int, list[int]]]) -> DimensionVector:
    """delta, the one vector of `basis`, the solved ker C, once it is certified.

    For the singular positive semidefinite form of a connected biquiver, an
    extended Dynkin form, ker C = Z delta with delta > 0 primitive. The
    certificate does not trust the solve: C has one kernel direction by its
    inertia, and delta is strictly positive, primitive and C delta = 0, so
    delta is that generator. A failed check raises AssertionError, by a
    raise that python -O keeps.
    """
    nullity = gram.inertia[2]
    if len(basis) != 1 or nullity != 1:
        raise AssertionError(f"the kernel has {len(basis)} free directions by its solve "
                             f"and {nullity} by the inertia, not 1")
    delta = tuple(basis[0][1])
    if min(delta) <= 0:
        raise AssertionError(f"the kernel vector {delta} is not strictly positive")
    if gcd(*delta) != 1 or any(sum(map(mul, row, delta)) for row in gram.c):
        raise AssertionError(f"{delta} is not a primitive vector of ker C")
    return delta


def _check_vertex_cap(t: int) -> None:
    if t > MAX_GRAM_VERTICES:
        raise PreconditionError(f"the Tits form has {t} vertices, past the cap of "
                                f"{MAX_GRAM_VERTICES} that its elimination accepts")


def gram_matrix(g: Biquiver) -> TitsGram:
    """C = 2Q, g's one TitsGram, built on the first call and returned by every
    later one; each call raises PreconditionError when g has more than
    MAX_GRAM_VERTICES vertices, and FormatError when g is not a Biquiver."""
    check_instance(g, Biquiver, "Tits form")
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
    check_instance(g, Biquiver, "Tits form")
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
    Only reads `gram.inertia`, which eliminates C once per TitsGram.
    Raises FormatError when gram is not a TitsGram.
    """
    check_instance(gram, TitsGram, "definiteness")
    positive, negative, _ = gram.inertia
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
    every call. The first delta found is certified (`_certified`) and kept
    as the form's `_delta`, which `roots` reads; a later call raises
    AssertionError unless it finds the kept delta.
    """
    if definiteness(gram) is not Definiteness.POSITIVE_SEMIDEFINITE:
        return None
    basis = _kernel(gram)
    # nums is primitive, as nums[free] == den, and positive at the free column
    if len(basis) != 1 or any(x <= 0 for x in basis[0][1]):
        return None
    delta = tuple(basis[0][1])
    kept = _kept(gram, "_delta", lambda gram: _certified(gram, basis))
    if delta != kept:
        raise AssertionError(f"the kernel vector {delta} is not the radical vector "
                             f"{kept} kept in the form")
    return delta
