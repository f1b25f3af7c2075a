"""Exact complex-rational scalars.

A GaussianRational is a complex number whose real and imaginary parts are
arbitrary-precision rationals. Fraction keeps every part canonical
(denominator positive, reduced), so equality is exact and hashing is well
defined. Matrices keep their entries as integers over one denominator
(see `linalg.CMatrix`), and a parsed matrix goes straight to them from
its rational strings; GaussianRationals are the scalars of the public
interface: matrix entries as printed and read back, and scalars passed
in. They add, multiply and conjugate but do not divide: every division
happens inside the integer matrix kernels.
"""
from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import FormatError, echo

# The shape of a rational string, its numerator and denominator as groups;
# `_rational_parts` tells the canonical ones apart.
_RATIONAL_RE = _re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$")


def _coerce(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot use {type(x).__name__} as an exact rational")


@dataclass(frozen=True)
class GaussianRational:
    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", _coerce(self.re))
        object.__setattr__(self, "im", _coerce(self.im))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        other = as_gaussian(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        other = as_gaussian(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "GaussianRational":
        return as_gaussian(other) - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other) -> "GaussianRational":
        other = as_gaussian(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    # -- presentation -------------------------------------------------------

    def __repr__(self) -> str:
        if not self.im:
            return f"{self.re}"
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


ZERO = GaussianRational()
ONE = GaussianRational(Fraction(1))
I = GaussianRational(Fraction(0), Fraction(1))


def as_gaussian(x) -> GaussianRational:
    """Coerce an int, Fraction, or GaussianRational to a GaussianRational."""
    if isinstance(x, GaussianRational):
        return x
    try:
        return GaussianRational(_coerce(x))
    except TypeError:
        raise TypeError(f"cannot interpret {x!r} as a GaussianRational") from None


def gaussian(re=0, im=0) -> GaussianRational:
    """Shorthand constructor accepting ints and Fractions."""
    return GaussianRational(_coerce(re), _coerce(im))


def _rational_parts(text) -> tuple[int, int]:
    """(p, q) of a canonical rational string, the value p / q in lowest terms, q > 0.

    The string is canonical when it is the one `format_rational` prints for
    p / q, which rules out leading zeros, "-0", "p/1", unreduced fractions
    and digits other than ASCII ones; FormatError otherwise, and also when
    a part has more digits than the interpreter converts.
    """
    match = _RATIONAL_RE.match(text) if isinstance(text, str) else None
    if match is None:
        raise FormatError(f"not a canonical rational string: {echo(text)}")
    try:
        p, q = int(match[1]), int(match[2] or 1)
    except ValueError:  # more digits than the interpreter converts
        raise FormatError(f"rational string of {len(text)} characters is too long") from None
    if gcd(p, q) != 1 or text != (f"{p}/{q}" if q != 1 else f"{p}"):
        raise FormatError(f"not a canonical rational string: {echo(text)}")
    return p, q


def format_rational(x: Fraction) -> str:
    """Canonical rational string: "p" when the denominator is 1, else "p/q"."""
    return str(x)
