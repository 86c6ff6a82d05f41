"""Symmetric polynomials: Schur, Hall-Littlewood, and their algebra.

The heavy check here is an independent point-evaluation oracle: both P_mu
and s_mu have classical closed forms (symmetrized fraction / bialternant)
that evaluate exactly at distinct rational points with plain Fraction
arithmetic.  The library builds its polynomials a completely different way
(Gelfand-Tsetlin enumeration, Weyl straightening), so agreement at enough
points is strong evidence, and the oracle code below deliberately shares
nothing with the construction path.

The second oracle is the library's former construction of P_mu by
symmetrization over S_n, held exactly equal to straightening on every core
of rank <= 4 with entries 0..6 and of rank 5 with entries 0..2.  The rank-5
gate with |entries| <= 3 takes minutes on the old route; it runs with
SATKIT_SLOW_ORACLE=1 set.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from test_laurent import exact_div

from satkit import hecke, symfunc
from satkit.laurent import LaurentScalar, parse_scalar
from satkit.repring import irreducible, tensor
from satkit.rootdata import is_dominant
from satkit.symfunc import (
    SymPoly,
    _orbit_product,
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


# -- the symmetrization route, kept as a test oracle ----------------------
# The library used to build P_mu this way: antisymmetrize
# x^mu prod_{i<j} (x_i - t x_j) over all of S_n, divide by the Vandermonde
# by synthetic division, then by the stabilizer factor.  It is exponential
# (n! times 2^{n(n-1)/2} terms) but shares nothing with straightening.


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _xp_mul_binomial(poly, i, j, minus_t):
    """poly * (x_i + minus_t * x_j) on exponent-vector dicts."""
    out = {}
    for e, c in poly.items():
        ei = e[:i] + (e[i] + 1,) + e[i + 1:]
        out[ei] = out.get(ei, LaurentScalar.zero()) + c
        ej = e[:j] + (e[j] + 1,) + e[j + 1:]
        out[ej] = out.get(ej, LaurentScalar.zero()) + c * minus_t
    return {e: c for e, c in out.items() if not c.is_zero()}


def _xp_antisymmetrize(poly, n):
    out = {}
    for perm in itertools.permutations(range(n)):
        sgn = _perm_sign(perm)
        for e, c in poly.items():
            pe = [0] * n
            for pos in range(n):
                pe[perm[pos]] = e[pos]
            pe = tuple(pe)
            acc = out.get(pe, LaurentScalar.zero()) + (c if sgn > 0 else -c)
            if acc.is_zero():
                out.pop(pe, None)
            else:
                out[pe] = acc
    return out


def _xp_div_binomial(poly, i, j):
    """Exact quotient poly / (x_i - x_j); synthetic, no coefficient division.

    Writing poly = sum_k P_k x_i^k, the quotient layers satisfy
    q_{k-1} = P_k + x_j q_k downward from the top degree, and the remainder
    P_0 + x_j q_0 must vanish.
    """
    if not poly:
        return {}
    layers = {}
    for e, c in poly.items():
        k = e[i]
        e0 = e[:i] + (0,) + e[i + 1:]
        layers.setdefault(k, {})[e0] = c
    top = max(layers)
    if top == 0:
        raise ValueError("polynomial not divisible: no x_i present")

    def _plus_xj(acc, layer):
        for e0, c in layer.items():
            e1 = e0[:j] + (e0[j] + 1,) + e0[j + 1:]
            s = acc.get(e1, LaurentScalar.zero()) + c
            if s.is_zero():
                acc.pop(e1, None)
            else:
                acc[e1] = s
        return acc

    qlayers = {}
    prev = {}
    for k in range(top, 0, -1):
        cur = dict(layers.get(k, {}))
        cur = _plus_xj(cur, prev)
        cur = {e: c for e, c in cur.items() if not c.is_zero()}
        qlayers[k - 1] = cur
        prev = cur
    rem = dict(layers.get(0, {}))
    rem = _plus_xj(rem, prev)
    if any(not c.is_zero() for c in rem.values()):
        raise ValueError("polynomial not divisible by (x_i - x_j)")
    out = {}
    for k, layer in qlayers.items():
        for e0, c in layer.items():
            out[e0[:i] + (k,) + e0[i + 1:]] = c
    return out


def _stabilizer_scalar(lam):
    """v_lam(t) = prod over value multiplicities m of prod_{i<=m} [i]_t."""
    t_poly = lambda i: LaurentScalar({-2 * k: 1 for k in range(i)})  # noqa: E731
    out = LaurentScalar.one()
    for m in Counter(lam).values():
        for i in range(1, m + 1):
            out = out * t_poly(i)
    return out


def _hl_symmetrized(lam):
    """P_lam for lam >= 0 by the symmetrization route, as a SymPoly."""
    n = len(lam)
    minus_t = LaurentScalar({-2: -1})  # -t with t = v^-2
    poly = {lam: LaurentScalar.one()}
    for i in range(n):
        for j in range(i + 1, n):
            poly = _xp_mul_binomial(poly, i, j, minus_t)
    poly = _xp_antisymmetrize(poly, n)
    for i in range(n):
        for j in range(i + 1, n):
            poly = _xp_div_binomial(poly, i, j)
    vfac = _stabilizer_scalar(lam)
    return SymPoly(n, {e: exact_div(c, vfac) for e, c in poly.items() if is_dominant(e)})


def _dominants(lo, hi, n):
    return [w for w in itertools.product(range(hi, lo - 1, -1), repeat=n) if is_dominant(w)]


def test_hall_littlewood_matches_symmetrization_route():
    cores = [lam for n in (2, 3, 4) for lam in _dominants(0, 6, n)] + _dominants(0, 2, 5)
    for lam in cores:
        assert hall_littlewood(lam) == _hl_symmetrized(lam), lam


@pytest.mark.skipif(
    not os.environ.get("SATKIT_SLOW_ORACLE"), reason="minutes on the symmetrization route"
)
def test_hall_littlewood_rank5_matches_symmetrization_route():
    for mu in _dominants(-3, 3, 5):
        shift = max(0, -min(mu))
        core = tuple(x + shift for x in mu)
        assert hall_littlewood(mu) == _hl_symmetrized(core).central_shift(-shift), mu


def test_hall_littlewood_rank6_matches_point_oracle():
    mu = (2, 2, 1, 1, 0, 0)
    f = hall_littlewood(mu)
    xs = (2, 3, 5, Fraction(1, 2), Fraction(1, 3), 7)
    for t in (Fraction(1, 7), Fraction(-2, 3)):
        assert _poly_at(f, xs, t) == _hl_oracle(mu, xs, t), t


# -- the all-pairs orbit walk, kept as a test oracle ----------------------
# The library used to multiply monomial symmetric functions this way: sum
# every pair of orbit points and keep the dominant sums.  _orbit_product now
# walks one orbit and divides by orbit sizes.


def _orbit_points(w):
    return sorted(set(itertools.permutations(w)))


def _orbit_product_all_pairs(a, b):
    counts = {}
    orbit_b = _orbit_points(b)
    for alpha in _orbit_points(a):
        for beta in orbit_b:
            s = tuple(x + y for x, y in zip(alpha, beta))
            if is_dominant(s):
                counts[s] = counts.get(s, 0) + 1
    return counts


def _sympoly_mul_all_pairs(f, g):
    """f * g on LaurentScalars, one orbit pair at a time."""
    out = SymPoly.zero(f.n)
    for a, ca in f.terms.items():
        for b, cb in g.terms.items():
            for gamma, m in _orbit_product_all_pairs(a, b).items():
                out = out + (m * ca * cb) * monomial(gamma)
    return out


def test_orbit_product_matches_all_pairs_walk():
    # boxes with repeated and negative entries
    for n, lo, hi in ((2, -3, 3), (3, -2, 2), (4, -1, 2)):
        weights = _dominants(lo, hi, n)
        for a in weights:
            for b in weights:
                assert dict(_orbit_product(a, b)) == _orbit_product_all_pairs(a, b), (a, b)


def test_orbit_matches_permutation_route():
    # every weight of the box, dominant or not, with repeated and negative entries
    for n, lo, hi in ((1, -1, 1), (2, -2, 2), (3, -1, 2), (4, -1, 2), (5, 0, 2)):
        for w in itertools.product(range(lo, hi + 1), repeat=n):
            assert symfunc._orbit(w) == tuple(_orbit_points(w)), w
            assert symfunc._orbit_size(w) == len(_orbit_points(w)), w


_RANK12_PRODUCT_RUN = """
from satkit.symfunc import monomial

product = monomial(tuple(range(11, -1, -1))) * monomial((1,) + (0,) * 11)
print(len(product.terms))
"""


def test_orbit_product_never_makes_the_larger_orbit():
    # m_(11,...,0) has 12! orbit points; the product walks the 12 of (1, 0^11) and sizes the rest
    run = subprocess.run([sys.executable, "-c", _RANK12_PRODUCT_RUN], capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) == 12


_RANK10_PRODUCT_RUN = """
from satkit.symfunc import monomial

w = tuple(range(9, -1, -1))
try:
    monomial(w) * monomial(w)
except ValueError as exc:
    print(exc)
"""


def test_orbit_product_refuses_past_its_cap():
    # 10! points of 10 entries; without the cap the rank-9 walk took 3 s and 77 MB, and it grows as n!
    run = subprocess.run([sys.executable, "-c", _RANK10_PRODUCT_RUN], capture_output=True, text=True, timeout=10)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (
        "m_(9, 8, 7, 6, 5, 4, 3, 2, 1, 0) has 3628800 orbit points of 10 entries, over the cap of 1000000 entries\n"
    )


def test_sympoly_product_matches_all_pairs_walk():
    third = LaurentScalar({0: Fraction(1, 3)})
    f = hall_littlewood((2, 1, -1)) + third * monomial((1, 1, 0))
    g = parse_scalar("v^-1+2v") * schur((1, 0, 0)) - monomial((0, 0, 0))
    assert f * g == _sympoly_mul_all_pairs(f, g)
    assert g * f == f * g


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


def _dual_core(mu):
    return tuple(mu[0] - x for x in reversed(mu))


def _moved_to_dual(entry, cores):
    # every key kappa to (s - kappa_n, ..., s - kappa_1), s the sum of the cores' first entries
    s = sum(mu[0] for mu in cores)
    return {tuple(s - x for x in reversed(kappa)): c for kappa, c in entry}


def test_kernels_agree_with_their_duals_before_the_cache():
    # the tables read one entry of each dual orbit off the other; here both members are
    # computed, by straightening, by Brauer-Klimyk and by Gelfand-Tsetlin enumeration
    cores = [mu for mu in _dominants(0, 3, 3) if mu[-1] == 0]
    for mu in cores:
        assert _moved_to_dual(symfunc._hl_expand(_dual_core(mu)).items(), [mu]) == symfunc._hl_expand(mu), mu
        assert _moved_to_dual(symfunc._gelfand_tsetlin(_dual_core(mu)).items(), [mu]) == symfunc._gelfand_tsetlin(mu), mu
    for i, a in enumerate(cores):
        for b in cores[i:]:
            duals = sorted((_dual_core(a), _dual_core(b)))
            assert _moved_to_dual(symfunc._brauer_klimyk(*duals).items(), [a, b]) == symfunc._brauer_klimyk(a, b), (a, b)


def test_hall_littlewood_returns_a_copy_of_the_cache():
    for mu in [(2, 1, 0), (1, -1), (3,)]:
        want = hall_littlewood(mu)
        f = hall_littlewood(mu)
        f.terms[mu].coeffs[7] = 1
        f.terms.clear()
        assert hall_littlewood(mu) == want
        assert hall_littlewood(mu).terms[mu].is_one()


def test_hall_littlewood_rejects_non_dominant():
    with pytest.raises(ValueError):
        hall_littlewood((0, 1))


# -- basis conversion ----------------------------------------------------


def test_change_of_basis_tables_are_unitriangular():
    # symfunc._solve inverts symfunc._apply only for a table whose entry at mu, moved by its
    # shift, holds mu with coefficient exactly 1 and otherwise only lex-smaller keys
    for n, lo, hi in [(1, -3, 3), (2, -2, 3), (3, -2, 2), (4, -1, 1)]:
        for mu in _dominants(lo, hi, n):
            for table, one in [(symfunc._hl_terms, {0: 1}), (symfunc._dominant_weights, 1)]:
                entry, shift = table(mu)
                moved = {tuple(x + shift for x in w): c for w, c in entry.items()}
                assert moved.pop(mu) == one, (table, mu)
                assert all(w < mu for w in moved), (table, mu)


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
    # through JSON text: a Fraction coefficient is written as "p/q" and read back exactly
    halves = SymPoly(2, {(1, 0): Fraction(1, 2), (1, 1): LaurentScalar({-2: Fraction(-3, 4), 1: 5})})
    for f in [hall_littlewood((2, 1, 0)), halves]:
        assert SymPoly.from_json(json.loads(json.dumps(f.to_json()))) == f
    assert SymPoly(2, {(1, 0): Fraction(1, 2)}).to_json()["terms"] == [{"weight": [1, 0], "coeff": {"0": "1/2"}}]


def test_substitute_t_on_sympoly():
    f = hall_littlewood((2, 0))
    assert f.substitute_t(Fraction(0)) == schur((2, 0))
    assert f.substitute_t(Fraction(1)) == monomial((2, 0))
    assert f.substitute_t(0) == schur((2, 0))
    # a float, a bool or text is refused, also by the zero SymPoly, which has no coefficient to read
    for g in [f, SymPoly(2, {})]:
        for bad in [0.0, True, "0"]:
            with pytest.raises(ValueError, match=r"^t must be an int or a Fraction, got "):
                g.substitute_t(bad)


def test_from_json_reads_only_what_to_json_writes():
    # a coefficient is an int, or text int() reads on each side of at most one "/"; an exponent or
    # a decimal point is refused at once, where reading it by Fraction would take seconds
    for text in ["1e-99999", "1e-9999999", "0.5", "1/2/3", "1/2.0", "1/0"]:
        start = time.perf_counter()
        with pytest.raises(ValueError):
            SymPoly.from_json({"n": 1, "terms": [{"weight": [0], "coeff": {"0": text}}]})
        assert time.perf_counter() - start < 1, text
    data = {"n": 2, "terms": [{"weight": [1, 0], "coeff": {"-2": "-3/4", "0": "5", "1": 7}}]}
    assert SymPoly.from_json(data) == SymPoly(2, {(1, 0): LaurentScalar({-2: Fraction(-3, 4), 0: 5, 1: 7})})
    assert SymPoly.from_json(data).to_json() == {"n": 2, "terms": [{"weight": [1, 0], "coeff": {"-2": "-3/4", "0": 5, "1": 7}}]}


def test_central_shift_on_monomials():
    assert monomial((2, 0)).central_shift(-1) == monomial((1, -1))
    assert monomial((1, -1)).central_shift(1) == monomial((2, 0))


def test_gelfand_tsetlin_enumeration_is_capped_in_the_kernel():
    # every route to the patterns passes a table whose lookup refuses past the cap by
    # Weyl's formula before enumerating; the message names the weight asked for
    for call, mu, patterns in [
        (schur, (9999999999, 0), 10000000000),
        (hall_littlewood, (1000, 0, 0), 501501),  # refused at the Schur function of its top term
        (weight_multiset, (-5, -1000, -1005), 2993976),
    ]:
        with pytest.raises(ValueError, match=rf"^V_\({', '.join(map(str, mu))}\) has {patterns} Gelfand-Tsetlin"):
            call(mu)
    assert symfunc._weyl_dimension((998, 0, 0)) == 499500 <= symfunc._MAX_PATTERNS
    assert symfunc._weyl_dimension((2, 1, 0)) == sum(m for _, m in weight_multiset((2, 1, 0)))


def test_pattern_bound_covers_every_schur_key_of_a_core():
    # the Schur keys nu of P_kappa are dominance-below the core kappa, so 0 <= nu_n <= nu_1 <= kappa_1
    # and Weyl's formula gives dim V_nu <= _pattern_bound(kappa_1, n); it is attained by kappa itself
    # on every GL_2 core and on the zero core of each rank.  dim V_kappa is no such bound: 47 keys
    # pass it, 43 of them in GL_2-GL_6, (7, 1, 0) of (8, 0, 0) among them, 63 against 45
    above, attained = Counter(), []
    for n, hi in ((2, 12), (3, 8), (4, 5), (5, 4), (6, 3), (7, 2)):
        cores = [w for w in itertools.product(range(hi, -1, -1), repeat=n) if is_dominant(w) and not w[-1]]
        for kappa in cores:
            bound = symfunc._pattern_bound(kappa[0], n)
            for nu in symfunc._hl_terms(kappa)[0]:
                dimension = symfunc._weyl_dimension(nu)
                assert dimension <= bound, (kappa, nu)
                if dimension == bound:
                    attained.append((kappa, nu))
                above[n] += dimension > symfunc._weyl_dimension(kappa)
    assert attained == [((a, 0), (a, 0)) for a in range(12, -1, -1)] + [((0,) * n, (0,) * n) for n in range(3, 8)]
    assert +above == {3: 10, 4: 11, 5: 16, 6: 6, 7: 4}
    assert (7, 1, 0) in symfunc._hl_terms((8, 0, 0))[0]
    assert (symfunc._weyl_dimension((7, 1, 0)), symfunc._weyl_dimension((8, 0, 0))) == (63, 45)
    assert symfunc._pattern_bound(8, 3) == 9 * 45


def test_the_caps_are_proved_from_the_live_caps(monkeypatch):
    # the bounds read the caps when they are asked, so a cap monkeypatched in symfunc reaches them
    assert symfunc._patterns_proved(4, 4) and not symfunc._patterns_proved(5, 7)
    assert [n for n in range(1, 9) if symfunc._expansions_proved(n)] == [1, 2, 3, 4, 5, 6]
    monkeypatch.setattr(symfunc, "_MAX_PATTERNS", symfunc._pattern_bound(4, 4) - 1)
    monkeypatch.setattr(symfunc, "_MAX_HL_ENTRIES", 5 << 10)
    assert not symfunc._patterns_proved(4, 4) and symfunc._patterns_proved(3, 4)
    assert [n for n in range(1, 9) if symfunc._expansions_proved(n)] == [1, 2, 3, 4, 5]


# In a fresh interpreter: the tensor and pattern tables rebuilt by symfunc._on_cores on a
# counted pattern cap, each lookup wrapped to count the lookups that missed (its table's misses
# moved), and bound in every loaded satkit module that holds the name.  Every unordered pair of
# the tensor-sweep boxes is tensored twice; prints the lookups, the lookups that missed and the
# cap's calls on the first sweep, then the lookups and the cap's calls on the second.
_CAP_CALLS_RUN = """
import itertools
import sys
from collections import Counter
from satkit import repring, symfunc

capped = [0]
def cap(mu):
    capped[0] += 1
    return symfunc._check_patterns(mu)
looked, missed = Counter(), Counter()
def counted(name, route):
    table = symfunc._on_cores(route, cap)
    def lookup(*weights):
        before = table.cache_info().misses
        out = table(*weights)
        looked[name] += 1
        missed[name] += table.cache_info().misses > before
        return out
    for loaded_name, loaded in list(sys.modules.items()):
        if loaded_name.partition(".")[0] == "satkit" and hasattr(loaded, name):
            setattr(loaded, name, lookup)
counted("_tensor_irreducibles", symfunc._tensor_entry)
counted("_pattern_weights", symfunc._gelfand_tsetlin)

pairs = []
for n, lo, hi in ((2, -4, 4), (3, -2, 2), (4, -1, 1)):
    box = [w for w in itertools.product(range(hi, lo - 1, -1), repeat=n) if list(w) == sorted(w, reverse=True)]
    pairs += [(a, b) for i, a in enumerate(box) for b in box[i:]]
for sweep in range(2):
    for a, b in pairs:
        repring.tensor(repring.irreducible(a), repring.irreducible(b))
    print(sum(looked.values()), missed["_tensor_irreducibles"], missed["_pattern_weights"], capped[0])
    looked.clear(), missed.clear()
    capped[0] = 0
"""


def test_a_table_hit_calls_no_cap():
    # the cap runs on each weight of a lookup that misses (two per tensor lookup, one per pattern
    # lookup) and never on a hit: a cached entry proves its weights pass
    run = subprocess.run([sys.executable, "-c", _CAP_CALLS_RUN], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    first, second = [tuple(map(int, line.split())) for line in run.stdout.splitlines()]
    lookups, tensor_missed, pattern_missed, capped = first
    assert capped == 2 * tensor_missed + pattern_missed
    # 20 pattern lookups, one per Brauer-Klimyk product: the other 125 of the 145 tensor entries
    # computed have a closed core and read no pattern
    assert first == (1785 + 20, 146, 10, 302)
    assert second == (1785, 0, 0, 0)


def test_a_refusal_caches_nothing():
    # refused at the cap of the lookup, and inside hecke's structure-constant route: the same
    # weight is refused again with the same text
    calls = [
        (lambda: tensor(irreducible((1000, 0, 0)), irreducible((1, 0, 0))), "V_(1000, 0, 0) has 501501"),
        (lambda: hecke.convolve(hecke.basis((998, 0, 0)), hecke.basis((0, 0, 0))), "V_(997, 1, 0) has 996003"),
        (lambda: weight_multiset((1001, 1, 0)), "V_(1001, 1, 0) has 1004003"),
    ]
    for call, refused_text in calls:
        for _ in range(2):
            with pytest.raises(ValueError) as refused:
                call()
            assert str(refused.value) == f"{refused_text} Gelfand-Tsetlin patterns, over the cap of 500000"


# -- Brauer-Klimyk against the former straightening route -----------------


def _brauer_klimyk_by_straighten(a, b):
    """The library's former Brauer-Klimyk kernel: each beta = a + rho + w made a tuple and straightened by _straighten."""
    if symfunc._weyl_dimension(a) < symfunc._weyl_dimension(b):
        a, b = b, a
    weights, shift = symfunc._pattern_weights(b)
    rho = range(len(a) - 1, -1, -1)
    top = [x + r + shift for x, r in zip(a, rho)]
    out = {}
    for w, m in weights.items():
        sign, beta = symfunc._straighten(tuple([x + y for x, y in zip(top, w)]))
        if sign:
            lam = tuple([x - r for x, r in zip(beta, rho)])
            out[lam] = out.get(lam, 0) + sign * m
    return {lam: c for lam, c in out.items() if c}


def test_brauer_klimyk_matches_straighten_route():
    # every ordered pair of each box, then a seeded sample with entries up to 12; the new kernel
    # straightens in its loop, so the one reference is the former tuple-and-_straighten kernel
    pairs = [
        (a, b)
        for n, hi in ((2, 8), (3, 4), (4, 2), (5, 2), (6, 1))
        for a in _dominants(0, hi, n)
        for b in _dominants(0, hi, n)
    ]
    assert len(pairs) == 45**2 + 35**2 + 15**2 + 21**2 + 7**2
    rng = random.Random(12)
    for n in (2, 3, 4):
        box = list(_dominants(0, 12, n))
        pairs += [(rng.choice(box), rng.choice(box)) for _ in range(40)]
    assert max(max(a + b) for a, b in pairs) == 12
    for a, b in pairs:
        entry, expected = symfunc._brauer_klimyk(a, b), _brauer_klimyk_by_straighten(a, b)
        assert list(entry.items()) == list(expected.items()), (a, b)


def test_pieri_route_matches_brauer_klimyk_on_every_closed_pair():
    # every unordered pair of cores with a zero, one-column, one-row or (r, ..., r, 0) core, in both
    # orders: the tensor route reads these off the strips by the Schur Pieri rules, and Brauer-Klimyk,
    # which reads no strip, is its oracle
    pairs = []
    for n, hi in ((2, 16), (3, 10), (4, 6), (5, 4), (6, 3), (7, 2)):
        cores = [mu for mu in _dominants(0, hi, n) if mu[-1] == 0]
        pairs += [
            (a, b) for i, a in enumerate(cores) for b in cores[i:] if symfunc._is_closed(a) or symfunc._is_closed(b)
        ]
    assert len(pairs) == 3860
    for a, b in pairs:
        expected = symfunc._brauer_klimyk(a, b)
        assert symfunc._tensor_entry(a, b) == expected == symfunc._tensor_entry(b, a), (a, b)


# -- the lookup of _on_cores: one weight or two ----------------------------


def _core(mu):
    return tuple(x - mu[-1] for x in mu)


def test_lookup_matches_sorted_cores_route():
    # (entry, shift) for one weight and for two in both orders, with central shifts, equals the
    # kernel on the sorted tuple of cores and the summed shift; the route is called on sorted
    # tuples of cores only, the smaller of each and its dual tuple, once each
    def kernel(*cores):
        return symfunc._brauer_klimyk(*cores) if len(cores) == 2 else symfunc._gelfand_tsetlin(*cores)

    called = []

    def route(*cores):
        called.append(cores)
        return kernel(*cores)

    table = symfunc._on_cores(route, symfunc._check_patterns)
    weights = _dominants(-2, 2, 3)
    met = set()
    for mu in weights:
        cores = (_core(mu),)
        met.add(cores)
        assert table(mu) == (kernel(*cores), mu[-1]), mu
        for nu in weights:
            cores = tuple(sorted((_core(mu), _core(nu))))
            met.add(cores)
            assert table(mu, nu) == (kernel(*cores), mu[-1] + nu[-1]), (mu, nu)
    duals = {cores: tuple(sorted(map(_dual_core, cores))) for cores in met}
    keys = met | {d for cores, d in duals.items() if d < cores}  # a tuple reads its smaller dual's entry
    assert sorted(called) == sorted({min(cores, d) for cores, d in duals.items()})
    assert table.cache_info() == (len(keys), len(keys))


def test_lookup_caps_the_first_weight_first_and_a_hit_not_at_all():
    capped = []

    def cap(mu):
        capped.append(mu)
        symfunc._check_patterns(mu)

    table = symfunc._on_cores(symfunc._brauer_klimyk, cap)
    big, bigger = (1000, 0, 0), (1006, 5, 5)  # 501,501 and 502,503 patterns, both over the cap
    for first, second in ((big, bigger), (bigger, big)):
        with pytest.raises(ValueError) as refused:
            table(first, second)
        assert str(refused.value).startswith(f"V_{first} has "), (first, second)
    assert capped == [big, bigger]
    assert table.cache_info() == (0, 0)
    del capped[:]
    small, other = (2, 1, -1), (3, 3, 0)
    entry = table(small, other)
    assert capped == [small, other]
    for first, second in ((small, other), (other, small), ((5, 4, 2), (1, 1, -2))):
        assert table(first, second)[0] is entry[0]
    assert capped == [small, other]
