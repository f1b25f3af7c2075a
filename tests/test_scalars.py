from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from biquiver import FormatError, GaussianRational, gaussian, parse_matrix_obj
from biquiver.scalars import format_rational
from conftest import (oracle_divide, oracle_norm2, oracle_parse_gaussian_pair, oracle_to_pair,
                      parse_rational)

rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4)
scalars = st.builds(GaussianRational, rationals, rationals)


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + gaussian(0) == a
    assert a * gaussian(1) == a


@given(scalars)
def test_conjugation_involution(a):
    assert a.conjugate().conjugate() == a


@given(scalars, scalars)
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


# Division and the norm are not part of GaussianRational; these check the
# reference versions that the elimination oracles in test_linalg rely on.
@given(scalars, scalars)
def test_division_inverts_multiplication(a, b):
    if b:
        assert oracle_divide(a * b, b) == a


@given(scalars)
def test_norm_is_conjugate_product(a):
    assert (a * a.conjugate()).re == oracle_norm2(a)
    assert (a * a.conjugate()).im == 0


def test_exactness_no_rounding():
    third = gaussian(Fraction(1, 3))
    assert third + third + third == gaussian(1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        oracle_divide(gaussian(1), gaussian(0))


def test_rational_string_round_trip():
    for text in ["0", "7", "-7", "3/4", "-22/7"]:
        assert format_rational(parse_rational(text)) == text


@pytest.mark.parametrize("bad", ["1.5", "4/-2", "2/4x", "", "1/0", "+3",
                                 "2/4", "007", "-0", "0/5"])
def test_rational_string_rejects_noncanonical(bad):
    with pytest.raises(FormatError):
        parse_rational(bad)


def test_pair_round_trip():
    z = gaussian(Fraction(-3, 7), Fraction(5, 2))
    assert oracle_parse_gaussian_pair(oracle_to_pair(z)) == z
    assert parse_matrix_obj([[oracle_to_pair(z)]]).at(0, 0) == z


@pytest.mark.parametrize("text", ["1" * 5000, "-1/" + "3" * 5000],
                         ids=["long-integer", "long-denominator"])
def test_rational_string_too_long_is_a_format_error(text):
    # canonical in shape, but more digits than int() converts
    with pytest.raises(FormatError) as info:
        parse_rational(text)
    assert str(len(text)) in str(info.value)
    assert len(str(info.value)) < 100


@pytest.mark.parametrize("z, text", [
    (GaussianRational(0, 2), "2i"), (GaussianRational(0, Fraction(-1, 3)), "-1/3i"),
    (GaussianRational(1, -2), "1-2i"),
    (GaussianRational(Fraction(1, 2), Fraction(3, 4)), "1/2+3/4i"),
    (GaussianRational(Fraction(-5, 2)), "-5/2"),
], ids=["imaginary", "imaginary-negative", "both-minus", "both-plus", "real"])
def test_repr(z, text):
    assert repr(z) == text
