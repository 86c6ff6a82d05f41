"""S-operators on the K-ring: ring homomorphism laws and the pairing."""

import itertools
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_symfunc import _det as leibniz_det

from satkit import trace_k
from satkit.laurent import LaurentScalar
from satkit.repring import dimension, irreducible, tensor
from satkit.rootdata import _mat_identity, _mat_mul, is_dominant
from satkit.symfunc import schur, weight_multiset
from satkit.trace_k import SigmaAction, s_operator, s_pairing, trace_of_endomorphism


def _dominants(lo, hi, n):
    for w in itertools.product(range(hi, lo - 1, -1), repeat=n):
        if is_dominant(w):
            yield w


def k_ring_injectivity_check(max_total, n):
    """Verify {s_mu} stays linearly independent inside symmetric functions.

    Checks unitriangularity along (refined) dominance for every dominant mu
    of rank n with all |entries| <= max_total: the coefficient of m_mu in
    s_mu is 1 and every other monomial key is lexicographically smaller.
    That forces linear independence of the whole family over Z[v, v^-1].
    Returns True, or raises AssertionError naming the violation.
    """
    values = range(max_total, -max_total - 1, -1)
    for mu in itertools.combinations_with_replacement(values, n):
        sp = schur(mu)
        lead = sp.coefficient(mu)
        if not lead.is_one():
            raise AssertionError(f"s_{mu} has leading coefficient {lead}, expected 1")
        for key in sp.terms:
            if key > mu:
                raise AssertionError(f"s_{mu} contains the larger key {key}")
    return True


def pairing_matches_dimension(mu):
    """Cross-check: the categorical pairing equals the Weyl-formula dimension
    and also the total GT-pattern count (three independent computations)."""
    total = sum(m for _, m in weight_multiset(mu))
    return s_pairing(mu).as_int() == dimension(mu) == total


def test_sigma_action_validation():
    SigmaAction(((0, -1), (-1, 0)), 2)
    with pytest.raises(ValueError):
        SigmaAction(((1, 1), (0, 1)), 2)  # not an involution
    with pytest.raises(ValueError):
        SigmaAction(((2, 0), (0, 1)), 1)  # determinant not a unit
    with pytest.raises(ValueError):
        SigmaAction(((1, 0),), 1)  # not square


_small_square = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n)
)


def _powers(rows, count):
    """sigma^0, ..., sigma^count by repeated products: the route the order check replaced."""
    out = [_mat_identity(len(rows))]
    for _ in range(count):
        out.append(_mat_mul(rows, out[-1]))
    return out


def _refusal(matrix, order):
    try:
        SigmaAction(matrix, order)
    except ValueError as exc:
        return str(exc)
    return None


@given(_small_square, st.integers(1, 12))
def test_sigma_action_checks_against_leibniz_and_repeated_products(matrix, order):
    rows = tuple(map(tuple, matrix))
    if leibniz_det(rows) not in (1, -1):
        want = "sigma must be invertible over Z (det +-1)"
    elif _powers(rows, order)[-1] != _mat_identity(len(rows)):
        want = f"sigma^{order} is not the identity"
    else:
        want = None
    assert _refusal(rows, order) == want


# sigma of minimal order 1, 2, 3, 4, 6 and 6 (a signed 3-cycle), each given every order
# 1..12: accepted exactly on the multiples of its minimal order
FINITE_ORDER = [
    ((1, 0), (0, 1)),
    ((0, 1), (1, 0)),
    ((0, -1), (1, -1)),
    ((0, -1), (1, 0)),
    ((1, -1), (1, 0)),
    ((0, 0, -1), (1, 0, 0), (0, 1, 0)),
]


@pytest.mark.parametrize("matrix", FINITE_ORDER)
def test_orbit_sum_is_the_sum_of_order_powers(matrix):
    identity = _mat_identity(len(matrix))
    for order in range(1, 13):
        powers = _powers(matrix, order)
        if powers[-1] != identity:
            assert _refusal(matrix, order) == f"sigma^{order} is not the identity"
            continue
        want = tuple(tuple(map(sum, zip(*rows))) for rows in zip(*powers[:-1]))
        assert SigmaAction(matrix, order).orbit_sum == want, order


def _companion(coeffs):
    """The companion matrix of x^n + c_(n-1) x^(n-1) + ... + c_0, coeffs = (c_0, ..., c_(n-1))."""
    n = len(coeffs)
    return tuple(tuple(-coeffs[i] if j == n - 1 else int(j == i - 1) for j in range(n)) for i in range(n))


def test_infinite_order_sigma_with_large_entries_is_refused_fast():
    # x^6 + 2x^5 + ... + 2x - 1 is primitive mod 3, so sigma has order 728 = 3^6 - 1 mod 3; the
    # 300-digit coefficients, each 2 mod 3, give sigma infinite order and det -1.  Squaring over Z
    # would multiply numbers of up to about 200,000 digits; mod the prime sigma^728 is refused at once
    big = 3 * 10**299 + 2
    sigma = _companion((-1,) + (big,) * 5)
    start = time.perf_counter()
    assert _refusal(sigma, 728) == "sigma^728 is not the identity"
    assert time.perf_counter() - start < 1
    # a finite-order sigma with large entries passes the check mod the prime and then over Z:
    # the swap conjugated by a unipotent u with a 300-digit entry
    u, u_inv = ((1, big), (0, 1)), ((1, -big), (0, 1))
    swap = _mat_mul(_mat_mul(u, ((0, 1), (1, 0))), u_inv)
    want = tuple(tuple(2 * (x + y) for x, y in zip(a, b)) for a, b in zip(_mat_identity(2), swap))
    assert SigmaAction(swap, 4).orbit_sum == want
    # and a sigma whose power is the identity mod the prime alone is refused over Z: order 3 mod 3
    shear = ((1, trace_k._CHECK_PRIME), (0, 1))
    assert _refusal(shear, 3) == "sigma^3 is not the identity"


def test_sigma_action_apply_and_json():
    s = SigmaAction(((0, -1), (-1, 0)), 2)
    assert s.apply((1, 0)) == (0, -1)
    assert SigmaAction.from_json(s.to_json()) == s
    assert SigmaAction.identity(3).is_identity()


def test_s_operator_is_unital():
    one = irreducible((0, 0, 0))
    assert s_operator(one) == schur((0, 0, 0))


def test_s_operator_additive_and_multiplicative():
    picks = [(1, 0, 0), (1, 1, 0), (2, 1, 0), (1, 1, 1)]
    for a in picks:
        for b in picks:
            ra, rb = irreducible(a), irreducible(b)
            assert s_operator(ra + rb) == s_operator(ra) + s_operator(rb)
            assert s_operator(tensor(ra, rb)) == s_operator(ra) * s_operator(rb)


def test_twisted_s_operator_out_of_scope():
    sigma = SigmaAction(((0, -1), (-1, 0)), 2)
    with pytest.raises(ValueError):
        s_operator(irreducible((1, 0)), sigma)


def test_pairing_is_dimension():
    assert s_pairing((1, 0)) == LaurentScalar.from_int(2)
    for n in (2, 3):
        for mu in _dominants(0, 3, n):
            assert s_pairing(mu) == LaurentScalar.from_int(dimension(mu))
            assert pairing_matches_dimension(mu)


def test_trace_of_identity_endomorphism_is_character():
    r = irreducible((2, 0)) + irreducible((1, 1))
    scalars = {(2, 0): LaurentScalar.one(), (1, 1): LaurentScalar.one()}
    assert trace_of_endomorphism(r, scalars) == schur((2, 0)) + schur((1, 1))


def test_trace_weights_constituents():
    r = irreducible((2, 0)) + irreducible((1, 1))
    scalars = {(2, 0): LaurentScalar.from_int(5), (1, 1): LaurentScalar.zero()}
    assert trace_of_endomorphism(r, scalars) == 5 * schur((2, 0))


def test_trace_by_zero_drops_the_constituent():
    # V_(1,0)'s character shares no monomial with V_(2,0)'s, so a zero scalar on it must leave no term
    r = irreducible((1, 0)) + irreducible((2, 0))
    got = trace_of_endomorphism(r, {(1, 0): 0, (2, 0): 1})
    assert got == schur((2, 0))
    assert repr(got) == "SymPoly(n=2, m[2,0] + m[1,1])"
    assert trace_of_endomorphism(irreducible((1, 0)), {(1, 0): 0}).is_zero()


def test_trace_requires_every_constituent():
    r = irreducible((2, 0)) + irreducible((1, 1))
    with pytest.raises(ValueError):
        trace_of_endomorphism(r, {(2, 0): LaurentScalar.one()})


def test_k_ring_injectivity_window():
    assert k_ring_injectivity_check(3, 2)
    assert k_ring_injectivity_check(2, 3)
