"""Symmetric polynomials: Schur, Hall-Littlewood, and their algebra.

The heavy check here is an independent point-evaluation oracle: both P_mu
and s_mu have classical closed forms (symmetrized fraction / bialternant)
that evaluate exactly at distinct rational points with plain Fraction
arithmetic.  The library builds its polynomials a completely different way
(Gelfand-Tsetlin enumeration, synthetic division), so agreement at enough
points is strong evidence, and the oracle code below deliberately shares
nothing with the construction path.
"""

import itertools
from fractions import Fraction

import pytest

from satkit.laurent import LaurentScalar, parse_scalar
from satkit.symfunc import (
    SymPoly,
    expand_in_schur,
    hall_littlewood,
    monomial,
    schur,
    weight_multiset,
)

# -- the oracle ----------------------------------------------------------


def _monomial_at(lam, xs):
    total = Fraction(0)
    for beta in set(itertools.permutations(lam)):
        term = Fraction(1)
        for x, e in zip(xs, beta):
            term *= Fraction(x) ** e
        total += term
    return total


def _scalar_at_t(c, t):
    # coefficients of P_mu live in Z[t] with t = v^-2
    total = Fraction(0)
    for e, coef in c.coeffs.items():
        assert e <= 0 and e % 2 == 0
        total += Fraction(coef) * Fraction(t) ** (-e // 2)
    return total


def _poly_at(f, xs, t):
    return sum(_scalar_at_t(c, t) * _monomial_at(lam, xs) for lam, c in f.terms.items())


def _det(m):
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    return total


def _hl_oracle(mu, xs, t):
    """Symmetrized-fraction definition of P_mu at distinct rational points."""
    n = len(xs)
    t = Fraction(t)
    total = Fraction(0)
    for w in itertools.permutations(range(n)):
        ys = [Fraction(xs[w[i]]) for i in range(n)]
        term = Fraction(1)
        for i in range(n):
            term *= ys[i] ** mu[i]
        for i in range(n):
            for j in range(i + 1, n):
                term *= (ys[i] - t * ys[j]) / (ys[i] - ys[j])
        total += term
    # stabilizer factor: one t-factorial per repeated entry value
    stab = Fraction(1)
    for m in (mu.count(x) for x in set(mu)):
        for i in range(1, m + 1):
            stab *= sum(t**k for k in range(i))
    return total / stab


def _schur_oracle(mu, xs):
    """Bialternant ratio of determinants at distinct rational points."""
    n = len(xs)
    num = [[Fraction(x) ** (mu[j] + n - 1 - j) for j in range(n)] for x in xs]
    den = [[Fraction(x) ** (n - 1 - j) for j in range(n)] for x in xs]
    return _det(num) / _det(den)


def _partitions(total_max, n):
    for w in itertools.product(range(total_max, -1, -1), repeat=n):
        if sum(w) <= total_max and all(w[i] >= w[i + 1] for i in range(n - 1)):
            yield w


POINTS = {
    2: [(2, 3), (Fraction(1, 2), 3)],
    3: [(2, 3, 5), (Fraction(1, 2), Fraction(1, 3), 7), (7, Fraction(25, 4), Fraction(2, 3))],
}
T_VALUES = [Fraction(0), Fraction(1), Fraction(1, 7), Fraction(-2, 3), Fraction(8, 9)]


def test_hall_littlewood_matches_point_oracle():
    for n in (2, 3):
        for mu in _partitions(4, n):
            f = hall_littlewood(mu)
            for xs in POINTS[n]:
                for t in T_VALUES:
                    assert _poly_at(f, xs, t) == _hl_oracle(mu, xs, t), (mu, xs, t)


def test_hall_littlewood_point_oracle_negative_entries():
    for mu in [(1, -1), (0, -2), (2, 1, -1), (0, 0, -1)]:
        f = hall_littlewood(mu)
        xs = POINTS[len(mu)][1]
        for t in [Fraction(1, 7), Fraction(-2, 3)]:
            assert _poly_at(f, xs, t) == _hl_oracle(mu, xs, t), (mu, t)


def test_schur_matches_bialternant_oracle():
    for n in (2, 3):
        for mu in _partitions(4, n):
            f = schur(mu)
            for xs in POINTS[n]:
                assert _poly_at(f, xs, Fraction(0)) == _schur_oracle(mu, xs), (mu, xs)


def test_product_matches_point_oracle():
    # restriction of orbit products to dominant keys loses nothing
    xs = (2, 3, 5)
    for a, b in [((1, 0, 0), (1, 1, 0)), ((2, 0, 0), (1, 0, 0)), ((1, 1, 0), (1, 1, 0))]:
        f, g = schur(a), schur(b)
        left = _poly_at(f * g, xs, Fraction(0))
        assert left == _poly_at(f, xs, Fraction(0)) * _poly_at(g, xs, Fraction(0))


# -- frozen small values -------------------------------------------------


def test_schur_expansions():
    assert schur((1, 0)) == monomial((1, 0))
    assert schur((1, 1)) == monomial((1, 1))
    assert schur((2, 0)) == monomial((2, 0)) + monomial((1, 1))
    assert schur((2, 1, 0)) == monomial((2, 1, 0)) + 2 * monomial((1, 1, 1))


def test_weight_multiset_std():
    assert dict(weight_multiset((1, 0, 0))) == {
        (1, 0, 0): 1,
        (0, 1, 0): 1,
        (0, 0, 1): 1,
    }
    # adjoint-ish example: (2,1,0) has the zero-ish weight (1,1,1) twice
    assert dict(weight_multiset((2, 1, 0)))[(1, 1, 1)] == 2


def test_hall_littlewood_small():
    t = LaurentScalar({-2: 1})
    one = LaurentScalar.one()
    assert hall_littlewood((1, 0)) == monomial((1, 0))
    assert hall_littlewood((1, 1)) == monomial((1, 1))
    assert hall_littlewood((2, 0)) == monomial((2, 0)) + (one - t) * monomial((1, 1))
    got = hall_littlewood((2, 1, 0))
    want = (
        monomial((2, 1, 0))
        + (2 * one - t - t * t) * monomial((1, 1, 1))
    )
    assert got == want


def test_hall_littlewood_central_shift():
    shifted = hall_littlewood((2, 0)).central_shift(-1)
    assert shifted == hall_littlewood((1, -1))


def test_hall_littlewood_rejects_non_dominant():
    with pytest.raises(ValueError):
        hall_littlewood((0, 1))


# -- basis conversion ----------------------------------------------------


def test_expand_in_schur_round_trip():
    for mu in [(2, 1, 0), (3, 1, 0), (2, 2, 0)]:
        f = hall_littlewood(mu)
        coeffs = expand_in_schur(f)
        rebuilt = SymPoly.zero(3)
        for lam, c in coeffs.items():
            rebuilt = rebuilt + c * schur(lam)
        assert rebuilt == f


def test_expand_in_schur_reads_off_schur_combinations():
    f = schur((2, 0)) + parse_scalar("1+v^2") * schur((1, 1))
    got = expand_in_schur(f)
    assert got == {(2, 0): LaurentScalar.one(), (1, 1): parse_scalar("1+v^2")}


# -- plumbing ------------------------------------------------------------


def test_json_round_trip():
    f = hall_littlewood((2, 1, 0))
    assert SymPoly.from_json(f.to_json()) == f


def test_substitute_t_on_sympoly():
    f = hall_littlewood((2, 0))
    assert f.substitute_t(Fraction(0)) == schur((2, 0))
    assert f.substitute_t(Fraction(1)) == monomial((2, 0))


def test_central_shift_on_monomials():
    assert monomial((2, 0)).central_shift(-1) == monomial((1, -1))
    assert monomial((1, -1)).central_shift(1) == monomial((2, 0))
