"""Tate weight lattices, Gaussian binomials, and the distinguished operator.

The h-operator test re-expands the defining double sum with throwaway
dict-based polynomial arithmetic (recursive Pascal-recurrence Gaussian
binomials, plain {exponent: int} maps).  It shares no code with satkit.tate,
which runs the q-Pascal rule row by row on int dicts, so the frozen
values below are pinned from two sides.  The former library route, a
product of [i]_v factors and one LaurentScalar exact division, is kept
below as a third.
"""

import itertools
from collections.abc import Hashable
from math import comb

import pytest
from test_laurent import exact_div
from test_rootdata import fraction_in_integer_span

from satkit import tate
from satkit.laurent import LaurentScalar, parse_scalar
from satkit.repring import dimension
from satkit.symfunc import weight_multiset
from satkit.rootdata import GroupSpec, is_dominant
from satkit.tate import (
    HOperator,
    TateConfig,
    h_operator,
    hecke_coweight,
    in_tate_lattice,
    similitude_unitary_config,
    std_with_twist,
    tate_dimension,
    unitary_config,
    v_binomial,
)
from satkit.trace_k import SigmaAction

# -- throwaway polynomial arithmetic for the oracle ----------------------


def _padd(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
        if out[e] == 0:
            del out[e]
    return out


def _pshift(a, k, scale=1):
    return {e + k: c * scale for e, c in a.items() if c * scale != 0}


def _gauss(n, m):
    # Pascal recurrence in v; returns {exponent: int}
    if m < 0 or m > n:
        return {}
    if m == 0 or m == n:
        return {0: 1}
    return _padd(_gauss(n - 1, m - 1), _pshift(_gauss(n - 1, m), m))


def _at_minus_p(poly):
    # v -> -p, reading the result as a polynomial in p
    return {e: c * (-1) ** e for e, c in poly.items()}


def _h_oracle(r):
    out = {j: {} for j in range(r + 1)}
    for i in range(r + 1):
        sign = (-1) ** i * (2 * i + 1)
        shift = r * (r + 1) + (i - r) * (r + i + 1)
        for j in range(r - i + 1):
            term = _at_minus_p(_gauss(2 * r + 1 - 2 * j, r - i - j))
            out[j] = _padd(out[j], _pshift(term, shift, sign))
    return {j: c for j, c in out.items() if c}


def _v_binomial_by_division(n, m):
    """[n choose m]_v as prod_{i<=m} [n-m+i]_v / prod_{i<=m} [i]_v, one exact division."""
    num = den = LaurentScalar.one()
    for i in range(1, m + 1):
        num = num * LaurentScalar({k: 1 for k in range(n - m + i)})
        den = den * LaurentScalar({k: 1 for k in range(i)})
    return exact_div(num, den)


# -- Gaussian binomials --------------------------------------------------


def test_v_binomial_values():
    assert v_binomial(2, 1) == parse_scalar("1+v")
    assert v_binomial(3, 1) == parse_scalar("1+v+v^2")
    assert v_binomial(4, 2) == parse_scalar("1+v+2v^2+v^3+v^4")
    assert v_binomial(5, 0) == LaurentScalar.one()


def test_v_binomial_against_pascal_recurrence():
    for n in range(9):
        for m in range(n + 1):
            assert v_binomial(n, m).coeffs == _gauss(n, m), (n, m)


def test_v_binomial_matches_division_route():
    for n in range(15):
        for m in range(n + 1):
            assert v_binomial(n, m) == _v_binomial_by_division(n, m), (n, m)


def test_v_binomial_symmetry_and_counting_specialization():
    for n in range(9):
        for m in range(n + 1):
            g = v_binomial(n, m)
            assert g == v_binomial(n, n - m)
            # v = 1 degenerates to the ordinary binomial: sum of coefficients
            assert sum(g.coeffs.values()) == comb(n, m)


def test_v_binomial_rejects_out_of_range():
    with pytest.raises(ValueError):
        v_binomial(2, 3)
    with pytest.raises(ValueError):
        v_binomial(2, -1)


# -- the distinguished operator ------------------------------------------


def test_binomial_rows_refuse_past_the_cost_cap(monkeypatch):
    # estimate (n+1)(m+1)(m(n-m)+1) with m = min(m, n-m); the cap itself is admitted
    monkeypatch.setattr(tate, "_MAX_ROW_OPS", 5 * 3 * 5)
    assert v_binomial(4, 2) == parse_scalar("1+v+2v^2+v^3+v^4")
    assert v_binomial(4, 3) == parse_scalar("1+v+v^2+v^3")
    message = r"^v_binomial\(5, 3\) needs about 126 coefficient operations, over the cap of 75$"
    with pytest.raises(ValueError, match=message):
        v_binomial(5, 3)
    monkeypatch.setattr(tate, "_MAX_ROW_OPS", 4 * 2 * 3)  # h_operator(r) runs the rows of [2r+1, r]
    assert h_operator(1).coefficient(1) == LaurentScalar.one()
    with pytest.raises(ValueError, match=r"^h_operator\(2\) needs about 126 "):
        h_operator(2)
    with pytest.raises(ValueError, match="need 0 <= m <= n"):  # range errors come first
        v_binomial(2, 3)
    monkeypatch.setattr(tate, "_MAX_ROW_OPS", 0)  # [n, 0] = [n, n] = 1 runs no rows
    assert v_binomial(10**20, 0) == v_binomial(10**20, 10**20) == LaurentScalar.one()


def test_h_operator_rank_one_frozen():
    h = h_operator(1)
    assert set(h.coeffs) == {0, 1}
    assert h.coefficient(0) == parse_scalar("1-p-2p^2", var="p")
    assert h.coefficient(1) == LaurentScalar.one()


def test_h_operator_matches_independent_expansion():
    for r in range(1, 7):
        want = _h_oracle(r)
        got = h_operator(r).coeffs
        assert set(got) == set(want), r
        for j in want:
            assert got[j].coeffs == want[j], (r, j)


def test_h_operator_coefficients_are_integer_polynomials():
    for r in (1, 2, 3):
        for j, c in h_operator(r).coeffs.items():
            assert c.is_integer_coeffs(), (r, j)
            assert c.is_zero() or c.min_exp() >= 0, (r, j)


def test_h_operator_top_coefficient_is_one():
    for r in (1, 2, 3, 4):
        assert h_operator(r).coefficient(r) == LaurentScalar.one()


def test_h_operator_is_unhashable_and_compares_by_value():
    # coeffs is a dict, so the contract is "unhashable", not a hash that raises
    h = h_operator(1)
    assert not isinstance(h, Hashable)
    with pytest.raises(TypeError):
        hash(h)
    assert h == h_operator(1)
    assert h != h_operator(2)
    assert h != HOperator(1, {})


def test_h_operator_json():
    data = h_operator(1).to_json()
    assert data == {"r": 1, "coeffs": {"0": "1-p-2p^2", "1": "1"}}


def test_hecke_coweight_shapes():
    assert hecke_coweight(1, 0) == (0, 0, 0, 0)
    assert hecke_coweight(1, 1) == (1, 0, -1, 0)
    assert hecke_coweight(2, 1) == (1, 0, 0, 0, -1, 0)
    assert all(len(hecke_coweight(3, j)) == 8 for j in range(4))
    with pytest.raises(ValueError):
        hecke_coweight(1, 2)


# -- Tate lattices -------------------------------------------------------


def test_membership_examples():
    u3 = unitary_config(3)
    assert not in_tate_lattice((1, 0, -1), u3)
    assert in_tate_lattice((0, 1, 0), u3)
    assert in_tate_lattice((0, 0, 0), u3)


def test_membership_matches_palindromic_characterization():
    # for reverse-negate sigma and center Z(1,..,1), the orbit-sum condition
    # collapses to lambda being palindromic (checked here by hand)
    for n in (3, 4):
        cfg = unitary_config(n)
        for lam in itertools.product(range(-2, 3), repeat=n):
            expected = all(lam[i] == lam[n - 1 - i] for i in range(n))
            assert in_tate_lattice(lam, cfg) == expected, lam


def test_tate_lattice_is_a_sigma_stable_sublattice():
    cfg = unitary_config(4)
    members = [
        lam
        for lam in itertools.product(range(-2, 3), repeat=4)
        if in_tate_lattice(lam, cfg)
    ]
    for a in members:
        assert in_tate_lattice(tuple(-x for x in a), cfg)
        assert in_tate_lattice(cfg.sigma.apply(a), cfg)
        for b in members:
            assert in_tate_lattice(tuple(x + y for x, y in zip(a, b)), cfg)


def test_dimension_bounds_and_trivial_config():
    # full center + identity sigma: every weight qualifies
    full = TateConfig(GroupSpec(2, ((1, 0), (0, 1))), SigmaAction.identity(2))
    for mu in [(1, 0), (2, 0), (3, 1)]:
        assert tate_dimension(mu, full) == dimension(mu)
    u3 = unitary_config(3)
    for mu in [(1, 0, 0), (1, 1, 0), (2, 1, 0)]:
        assert tate_dimension(mu, u3) <= dimension(mu)


def test_block_weights_refused_past_the_pattern_cap():
    # each block is under the cap, their product of 160,000,800,001 patterns is not;
    # it used to enumerate both blocks and then run out of memory building the product
    cfg = TateConfig(GroupSpec(4, ((1, 1, 1, 1),)), SigmaAction.identity(4), (2, 2))
    with pytest.raises(ValueError, match=r"^V_\(400000, 0, 400000, 0\) has 160000800001 Gelfand-Tsetlin patterns"):
        tate_dimension((400000, 0, 400000, 0), cfg)
    assert tate_dimension((2, 0, 1, 0), cfg) == 0
    full = TateConfig(GroupSpec(4, tuple(tuple(int(i == j) for j in range(4)) for i in range(4))), SigmaAction.identity(4), (2, 2))
    assert tate_dimension((2, 0, 1, 0), full) == dimension((2, 0)) * dimension((1, 0))


def test_narrow_center_kills_std():
    # identity sigma, center only the torus direction: Std has no central weights
    cfg = TateConfig(GroupSpec(2, ((1, 1),)), SigmaAction.identity(2))
    assert tate_dimension((1, 0), cfg) == 0


def test_similitude_std_twist_dimensions():
    for r in (1, 2, 3):
        cfg = similitude_unitary_config(r)
        assert tate_dimension(std_with_twist(r), cfg) == 1


def test_exterior_power_profiles_record_the_mismatch():
    # Computed Tate dimensions of wedge^i Std under the plain unitary
    # configuration, frozen.  A natural-looking closed form comb((n+1)/2, i)
    # does NOT reproduce these numbers; the disagreement is recorded here on
    # purpose (see README, "Known findings") rather than papered over.
    computed = {}
    for n, frozen in [(3, [1, 1, 1, 1]), (5, [1, 1, 2, 2, 1, 1])]:
        cfg = unitary_config(n)
        got = [
            tate_dimension((1,) * i + (0,) * (n - i), cfg) for i in range(n + 1)
        ]
        assert got == frozen, n
        computed[n] = got
    claimed = {n: [comb((n + 1) // 2, i) for i in range(n + 1)] for n in (3, 5)}
    assert computed[3] != claimed[3]
    assert computed[5] != claimed[5]


# -- Tate dimensions, against the route the orbit-sum matrix replaced --------


def _tate_dimension_by_orbit_walk(mu, cfg):
    """Per weight w: sum_{i<order} sigma^i(w) by `order` applies, then the Fraction solve."""
    weights, pos = [((), 1)], 0
    for b in cfg.blocks:
        weights = [(w + bw, m * bm) for w, m in weights for bw, bm in weight_multiset(mu[pos:pos + b])]
        pos += b
    total = 0
    for w, m in weights:
        orbit, cur = (0,) * len(w), w
        for _ in range(cfg.sigma.order):
            orbit = tuple(a + b for a, b in zip(orbit, cur))
            cur = cfg.sigma.apply(cur)
        total += m * fraction_in_integer_span(orbit, cfg.group.center_generators)
    return total


def _dominant_blocks(blocks, lo, hi):
    """Highest weights dominant on each block, entries lo..hi."""
    per_block = [[w for w in itertools.product(range(hi, lo - 1, -1), repeat=b) if is_dominant(w)] for b in blocks]
    return [sum(parts, ()) for parts in itertools.product(*per_block)]


@pytest.mark.parametrize("n", range(1, 7))
def test_unitary_tate_dimensions_match_orbit_walk(n):
    cfg = unitary_config(n)
    for mu in _dominant_blocks((n,), 0, 2):
        assert tate_dimension(mu, cfg) == _tate_dimension_by_orbit_walk(mu, cfg), mu


@pytest.mark.parametrize("r", (1, 2, 3))
def test_similitude_tate_dimensions_match_orbit_walk(r):
    cfg = similitude_unitary_config(r)
    for mu in _dominant_blocks(cfg.blocks, -1, 1):
        assert tate_dimension(mu, cfg) == _tate_dimension_by_orbit_walk(mu, cfg), mu


ROT4 = ((0, -1), (1, 0))  # minimal order 4
ROT6 = ((1, -1), (1, 0))  # minimal order 6


def _with_fixed_line(rot):
    """rot on the first two coordinates, the identity on a third."""
    return tuple(row + (0,) for row in rot) + ((0, 0, 1),)


@pytest.mark.parametrize(
    "group,matrix,blocks",
    [
        (GroupSpec(2), ROT4, (2,)),
        (GroupSpec(2), ROT6, (2,)),
        # GL_2 x GL_1 with the center on the fixed line: sum_{i<12} sigma^i = (12 / m0) sum_{i<m0} sigma^i
        # is 12 on that line, and 12 lambda_3 lies in 24Z for even lambda_3 where 4 lambda_3 needs 6 | lambda_3
        (GroupSpec(3, ((0, 0, 24),)), _with_fixed_line(ROT4), (2, 1)),
        (GroupSpec(3, ((0, 0, 24),)), _with_fixed_line(ROT6), (2, 1)),
        (GroupSpec(3, ((0, 0, 8), (1, 1, 0))), _with_fixed_line(((0, 1), (1, 0))), (2, 1)),
    ],
)
def test_tate_dimensions_past_the_minimal_order_match_orbit_walk(group, matrix, blocks):
    cfg = TateConfig(group, SigmaAction(matrix, 12), blocks)
    for mu in _dominant_blocks(blocks, -3, 3):
        assert tate_dimension(mu, cfg) == _tate_dimension_by_orbit_walk(mu, cfg), mu


def test_orbit_sum_scales_past_the_minimal_order():
    # the same sigma and center at its minimal order 4 and at order 12 give different lattices
    group, sigma = GroupSpec(3, ((0, 0, 24),)), _with_fixed_line(ROT4)
    at4, at12 = (TateConfig(group, SigmaAction(sigma, order), (2, 1)) for order in (4, 12))
    assert tate_dimension((0, 0, 2), at4) == 0
    assert tate_dimension((0, 0, 2), at12) == 1


def test_config_validation_and_json():
    with pytest.raises(ValueError):
        # swap does not preserve the center span Z(1,0)
        TateConfig(GroupSpec(2, ((1, 0),)), SigmaAction(((0, 1), (1, 0)), 2))
    for cfg in [unitary_config(3), similitude_unitary_config(2)]:
        assert TateConfig.from_json(cfg.to_json()) == cfg


def test_tate_dimension_rejects_bad_input():
    u3 = unitary_config(3)
    with pytest.raises(ValueError):
        tate_dimension((0, 1, 0), u3)  # not dominant
    with pytest.raises(ValueError):
        tate_dimension((1, 0), u3)  # rank mismatch
