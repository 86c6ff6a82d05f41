"""Exact Laurent-scalar arithmetic, string canon, and specializations."""

import subprocess
import sys
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


# -- exact division: an oracle for other tests; the package has no caller ---


def exact_div(num, den):
    """Exact quotient num/den in Z[v, v^-1]; ValueError if inexact.

    Ordinary ascending long division after shifting both operands to
    honest polynomials.  Exactness of each coefficient step is checked;
    a nonzero remainder raises.
    """
    if den.is_zero():
        raise ValueError("division by zero scalar")
    if num.is_zero():
        return LaurentScalar.zero()
    s_min, o_min = num.min_exp(), den.min_exp()
    rest = {e - s_min: Fraction(c) for e, c in num.coeffs.items()}
    by = {e - o_min: Fraction(c) for e, c in den.coeffs.items()}
    lead = by[0]  # nonzero by construction: o_min shifted to 0
    # exact quotient exponents are bounded by deg(num) - deg(den)
    bound = max(rest) - max(by)
    quo = {}
    while rest:
        low = min(rest)
        if low > bound:
            raise ValueError(f"inexact division: {num} / {den}")
        q = rest[low] / lead
        quo[low] = q
        for e, c in by.items():
            t = low + e
            rest[t] = rest.get(t, Fraction(0)) - q * c
            if rest[t] == 0:
                del rest[t]
    out = LaurentScalar({e + s_min - o_min: c for e, c in quo.items()})
    if num.is_integer_coeffs() and den.is_integer_coeffs() and not out.is_integer_coeffs():
        raise ValueError(f"inexact division over Z: {num} / {den}")
    return out


@given(scalars, scalars)
def test_exact_division_inverts_multiplication(a, b):
    if b.is_zero():
        return
    assert exact_div(a * b, b) == a


def test_inexact_division_raises():
    with pytest.raises(ValueError):
        exact_div(parse_scalar("1+v"), parse_scalar("1-v"))


def test_specialize_even_powers_is_rational():
    assert parse_scalar("1+v^2").specialize(3) == Fraction(4)
    assert parse_scalar("v^-2").specialize(4) == Fraction(1, 4)


def test_specialize_square_q_is_rational():
    assert parse_scalar("v").specialize(4) == Fraction(2)
    assert parse_scalar("1+v+v^2").specialize(9) == Fraction(13)


def test_specialize_nonsquare_q_lands_in_quadratic_extension():
    got = parse_scalar("1+v").specialize(2)
    assert got == QuadExt(Fraction(1), Fraction(1), Fraction(2))


def test_substitutions_take_only_ints_and_fractions():
    # a float is inexact (0.1 is not 1/10), a bool is not a number here and text is parse_scalar's
    # to read: each is refused, also by the zero scalar, which reads no coefficient
    for x in [parse_scalar("-v^-2+1"), LaurentScalar.zero()]:
        for bad in [0.1, 2.0, True, False, "3", None]:
            with pytest.raises(ValueError, match=r"^q must be an int or a Fraction, got "):
                x.specialize(bad)
            with pytest.raises(ValueError, match=r"^t must be an int or a Fraction, got "):
                x.substitute_t(bad)
    # an int and the equal Fraction give one value; a whole value is an int
    assert parse_scalar("1+v^2").specialize(3) == parse_scalar("1+v^2").specialize(Fraction(3)) == Fraction(4)
    got = parse_scalar("-v^-2+1").substitute_t(3)
    assert got == -2 and type(got) is int
    assert parse_scalar("v^-4").substitute_t(Fraction(1, 2)) == Fraction(1, 4)


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
small_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=4)
scalars_or_ints = st.one_of(
    scalars,
    small_ints,
    small_ints.map(LaurentScalar.from_int),
    small_fractions,
    small_fractions.map(lambda x: LaurentScalar({0: x})),
    st.booleans(),
)


@given(scalars_or_ints, scalars_or_ints)
@example(LaurentScalar({0: 2}), 2)
@example(LaurentScalar.zero(), 0)
@example(LaurentScalar({0: Fraction(1, 2)}), Fraction(1, 2))
@example(LaurentScalar.one(), True)
@example(LaurentScalar.zero(), False)
def test_equal_values_hash_equal(a, b):
    # constant scalars compare equal to ints and Fractions, so they must hash
    # as them; bools are not scalars, and comparing with one must not raise
    if a == b:
        assert hash(a) == hash(b)
    assert (a == b) == (b == a)
    if isinstance(a, LaurentScalar) and isinstance(b, (int, Fraction)):
        assert (a == b) == (not isinstance(b, bool) and a.coeffs.keys() <= {0} and a.coeffs.get(0, 0) == b)


def test_comparison_with_bools_and_fractions():
    one = LaurentScalar.from_int(1)
    assert one != True  # noqa: E712
    assert one not in [True]
    assert {True: 0}.get(one) is None
    assert LaurentScalar({0: Fraction(1, 2)}) == Fraction(1, 2)
    assert Fraction(1, 2) == LaurentScalar({0: Fraction(1, 2)})
    assert LaurentScalar({1: Fraction(1, 2)}) != Fraction(1, 2)


# In a fresh interpreter: comparing a scalar with a value that is not one, and multiplying an
# element by a scalar from the left (the scalar's __mul__ declines first), on integers only.
_NO_FRACTIONS_RUN = """
import sys
from satkit import hecke
from satkit.laurent import LaurentScalar, parse_scalar
print(LaurentScalar.from_int(1) == None)
print(parse_scalar("2+v") * hecke.basis((1, 0)))
print(sorted({"fractions", "decimal", "numbers"} & set(sys.modules)))
"""


def test_a_value_that_is_not_an_int_loads_no_fractions():
    # no Fraction exists before fractions is loaded, so telling one apart imports nothing
    run = subprocess.run([sys.executable, "-c", _NO_FRACTIONS_RUN], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\nHeckeElement(n=2, (2+v)*T[1,0])\n[]\n"
