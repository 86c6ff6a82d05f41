"""Exact Laurent-scalar arithmetic, string canon, and specializations."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from satkit.laurent import LaurentScalar, QuadExt, parse_scalar

scalars = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(LaurentScalar)


def test_normalization_drops_zeros_and_int_fractions():
    x = LaurentScalar({0: Fraction(4, 2), 3: 0, -1: Fraction(1, 3)})
    assert x.coeffs == {0: 2, -1: Fraction(1, 3)}
    assert LaurentScalar({5: 0}).is_zero()


def test_constant_extraction():
    assert LaurentScalar.from_int(7).as_int() == 7
    assert LaurentScalar.zero().as_int() == 0
    with pytest.raises(ValueError):
        LaurentScalar.v_power(1).as_int()


@given(scalars, scalars, scalars)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentScalar.zero() == a
    assert a * LaurentScalar.one() == a
    assert a - a == LaurentScalar.zero()


@given(scalars)
def test_string_round_trip(a):
    assert parse_scalar(a.to_string()) == a


def test_canonical_string_examples():
    assert parse_scalar("1+v^2").to_string() == "1+v^2"
    assert LaurentScalar({-2: 1}).to_string() == "v^-2"
    assert LaurentScalar({0: 1, 2: -1, 4: 3}).to_string() == "1-v^2+3v^4"
    assert LaurentScalar.zero().to_string() == "0"
    assert LaurentScalar({1: -1}).to_string() == "-v"
    # ascending exponent order even across zero
    assert LaurentScalar({-1: 1, 1: 1}).to_string() == "v^-1+v"


def test_parse_rejects_junk():
    for bad in ["", "v^", "1++v", "w^2", "v^1.5", "1/0", "v-3/0v^2"]:
        with pytest.raises(ValueError):
            parse_scalar(bad)
    # whitespace between terms is tolerated on input, never emitted
    assert parse_scalar("2 + v") == parse_scalar("2+v")


@given(scalars, scalars)
def test_exact_division_inverts_multiplication(a, b):
    if b.is_zero():
        return
    assert (a * b).exact_div(b) == a


def test_inexact_division_raises():
    with pytest.raises(ValueError):
        parse_scalar("1+v").exact_div(parse_scalar("1-v"))


def test_power():
    assert parse_scalar("1+v") ** 2 == parse_scalar("1+2v+v^2")
    assert LaurentScalar.v_power(-1) ** 3 == LaurentScalar({-3: 1})
    assert parse_scalar("v") ** 0 == LaurentScalar.one()


def test_specialize_even_powers_is_rational():
    assert parse_scalar("1+v^2").specialize(3) == Fraction(4)
    assert parse_scalar("v^-2").specialize(4) == Fraction(1, 4)


def test_specialize_square_q_is_rational():
    assert parse_scalar("v").specialize(4) == Fraction(2)
    assert parse_scalar("1+v+v^2").specialize(9) == Fraction(13)


def test_specialize_nonsquare_q_lands_in_quadratic_extension():
    got = parse_scalar("1+v").specialize(2)
    assert got == QuadExt(Fraction(1), Fraction(1), Fraction(2))


def test_negate_variable():
    a = parse_scalar("1+v+v^2")
    assert a.negate_variable() == parse_scalar("1-v+v^2")
    assert a.negate_variable().negate_variable() == a


def test_substitute_t_reads_even_nonpositive_exponents():
    # 1 - t with t = v^-2
    a = parse_scalar("-v^-2+1")
    assert a.substitute_t(Fraction(0)) == 1
    assert a.substitute_t(Fraction(1)) == 0
    assert a.substitute_t(Fraction(1, 3)) == Fraction(2, 3)
    with pytest.raises(ValueError):
        parse_scalar("v").substitute_t(Fraction(1))


def test_shift_scales_by_v_power():
    assert parse_scalar("1+v^2").shift(-2) == parse_scalar("v^-2+1")


@given(scalars)
def test_hash_consistent_with_eq(a):
    assert hash(a) == hash(LaurentScalar(dict(a.coeffs)))


small_ints = st.integers(min_value=-3, max_value=3)
scalars_or_ints = st.one_of(scalars, small_ints, small_ints.map(LaurentScalar.from_int))


@given(scalars_or_ints, scalars_or_ints)
@example(LaurentScalar({0: 2}), 2)
@example(LaurentScalar.zero(), 0)
def test_equal_values_hash_equal(a, b):
    # constant scalars compare equal to ints, so they must hash as them
    if a == b:
        assert hash(a) == hash(b)
