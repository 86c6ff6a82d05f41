"""Spherical Hecke algebra: transform, convolution, specialization."""

import itertools
import json
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_repring import _character_route
from test_symfunc import _sympoly_mul_all_pairs

from satkit import hecke, symfunc
from satkit.hecke import (
    HeckeElement,
    _checked_product,
    _closed,
    _closed_entry,
    _column_rule,
    _peel,
    _peel_against,
    _peel_cores,
    _row_rule,
    _schur_product,
    basis,
    convolve,
    inverse_satake,
    normalized_satake,
    satake,
    specialize_v,
)
from satkit.laurent import LaurentScalar, _add_scaled, _gauss_rows, _times, parse_scalar
from satkit.repring import irreducible, tensor
from satkit.rootdata import dominance_leq, dual_weight, is_dominant, two_rho_pairing
from satkit.symfunc import SymPoly, _hl_terms, _is_closed, hall_littlewood, monomial


def _doms(n, hi=2, lo=0):
    return [w for w in itertools.product(range(hi, lo - 1, -1), repeat=n) if is_dominant(w)]


_coeffs = st.one_of(
    st.integers(min_value=-3, max_value=3).map(LaurentScalar.from_int),
    st.sampled_from([parse_scalar("1+v^2"), parse_scalar("v^-1"), parse_scalar("2-v")]),
)


def _elements(n):
    return st.dictionaries(st.sampled_from(_doms(n)), _coeffs, max_size=3).map(
        lambda d: HeckeElement(n, d)
    )


# -- the LaurentScalar route, kept as a test oracle -----------------------
# The library used to run the transforms on LaurentScalar-valued dicts in
# the monomial basis, through the public hall_littlewood and a SymPoly
# product that walks every pair of orbit points.  It now runs them on integer
# coefficient dicts in the Schur basis, multiplying by Brauer-Klimyk; the two
# must agree exactly.


def _add_into(terms, other, c):
    """terms += c * other on {weight: LaurentScalar} dicts, in place; a coefficient that cancels is removed."""
    for w, x in other.items():
        total = terms.get(w, LaurentScalar.zero()) + c * x
        if total.is_zero():
            terms.pop(w, None)
        else:
            terms[w] = total


def _satake_scalars(h):
    out = {}
    for mu, c in h.terms.items():
        _add_into(out, hall_littlewood(mu).terms, c.shift(two_rho_pairing(mu)))
    return SymPoly(h.n, out)


def _normalized_satake_scalars(h):
    out = {}
    for mu, c in h.terms.items():
        _add_into(out, hall_littlewood(mu).terms, c)
    return SymPoly(h.n, out)


def _inverse_satake_scalars(f):
    rest = dict(f.terms)
    out = {}
    while rest:
        mu = max(rest)
        c = rest[mu]
        out[mu] = c.shift(-two_rho_pairing(mu))
        _add_into(rest, hall_littlewood(mu).terms, -c)
    return HeckeElement(f.n, out)


def _convolve_scalars(a, b):
    return _inverse_satake_scalars(_sympoly_mul_all_pairs(_satake_scalars(a), _satake_scalars(b)))


def _pairs(weights):
    return [(a, b) for i, a in enumerate(weights) for b in weights[i:]]


def _check_box(weights):
    """Every transform of every weight, and every product, equal to the scalar route."""
    for mu in weights:
        h, f = basis(mu), monomial(mu)
        assert satake(h) == _satake_scalars(h), mu
        assert normalized_satake(h) == _normalized_satake_scalars(h), mu
        assert inverse_satake(f) == _inverse_satake_scalars(f), mu
    for lam, mu in _pairs(weights):
        a, b = basis(lam), basis(mu)
        assert convolve(a, b) == _convolve_scalars(a, b), (lam, mu)


def test_convolve_matches_scalar_route_on_benchmark_boxes():
    # the hecke-convolve boxes, and GL_5 with entries 0..2
    for n, hi in ((2, 6), (3, 4), (4, 2), (5, 2)):
        _check_box(_doms(n, hi=hi))


def test_convolve_matches_scalar_route_gl3_negative_entries():
    _check_box(_doms(3, hi=2, lo=-2))


_rich_coeffs = st.dictionaries(
    st.integers(min_value=-3, max_value=3),
    st.one_of(
        st.integers(min_value=-4, max_value=4),
        st.fractions(min_value=-2, max_value=2, max_denominator=6),
    ),
    max_size=3,
).map(LaurentScalar)


def _rich_elements(cls, n):
    return st.dictionaries(st.sampled_from(_doms(n, hi=2, lo=-1)), _rich_coeffs, max_size=4).map(
        lambda d: cls(n, d)
    )


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_transforms_match_scalar_route(data):
    n = data.draw(st.sampled_from([2, 3]))
    a = data.draw(_rich_elements(HeckeElement, n))
    b = data.draw(_rich_elements(HeckeElement, n))
    f = data.draw(_rich_elements(SymPoly, n))
    assert satake(a) == _satake_scalars(a)
    assert normalized_satake(a) == _normalized_satake_scalars(a)
    assert inverse_satake(f) == _inverse_satake_scalars(f)
    assert convolve(a, b) == _convolve_scalars(a, b)
    assert inverse_satake(satake(a)) == a


def test_satake_basis_values():
    v = LaurentScalar.v_power(1)
    assert satake(basis((1, 0))) == v * monomial((1, 0))
    assert satake(basis((1, 1))) == monomial((1, 1))


def test_satake_unitriangular():
    for n in (2, 3):
        for mu in _doms(n, hi=4):
            if sum(mu) > 4:
                continue
            f = satake(basis(mu))
            lead = f.terms[mu]
            assert lead == LaurentScalar.v_power(two_rho_pairing(mu))
            for lam in f.terms:
                assert dominance_leq(lam, mu), (lam, mu)


@given(_elements(2))
@settings(max_examples=60, deadline=None)
def test_transform_round_trip(h):
    assert inverse_satake(satake(h)) == h


def test_transform_round_trip_gl3_with_negative_entries():
    h = basis((2, 1, -1)) + parse_scalar("v^-2") * basis((1, 0, 0))
    assert inverse_satake(satake(h)) == h


def test_convolution_identity_element():
    for n in (2, 3):
        unit = HeckeElement.unit(n)
        h = basis(_doms(n)[1]) + 2 * basis(_doms(n)[2])
        assert convolve(unit, h) == h
        assert convolve(h, unit) == h


@given(_elements(2), _elements(2))
@settings(max_examples=40, deadline=None)
def test_convolution_commutes(a, b):
    assert convolve(a, b) == convolve(b, a)


# -- the two routes of the structure constants, held to each other --------
# _structure_constants reads a closed form (the column rule or the row rule) when a factor
# or its dual is zero, one column or one row, and otherwise peels a factor column by column
# or, when the peel would reach too many cores, takes the Schur-basis route: the product of
# the two Satake transforms by the tensor table, pulled back by elimination.  Each route is
# held here to the Schur route, which shares no Hall-Littlewood Pieri rule with them.  The
# tensor table reads a pair with a closed core off the Schur Pieri rules, on the strip
# enumerators the Hall-Littlewood rules read too; test_symfunc holds it to Brauer-Klimyk, which
# reads no strip, and the t = 1 limit below reads none either.


def _core(mu):
    return tuple(x - mu[-1] for x in mu)


def _dual_pair(pair):
    # the sorted cores of -w0 lam and -w0 mu: (mu_1 - mu_n, ..., mu_1 - mu_1) for a core mu
    return tuple(sorted(tuple(mu[0] - x for x in reversed(mu)) for mu in pair))


def _core_pairs(n, lo, hi):
    cores = sorted({_core(mu) for mu in _doms(n, hi=hi, lo=lo)})
    return _pairs(cores)


def _moved(entry, s):
    return {tuple(s - x for x in reversed(nu)): c for nu, c in entry.items()}


def _every_peel(lam, mu):
    """T_lam * T_mu for cores by the peel of each factor, then of each factor's dual, moved back."""
    s = lam[0] + mu[0]
    lam_, mu_ = _dual_pair((lam,))[0], _dual_pair((mu,))[0]
    return [
        _peel_against(_peel_cores(lam, None), mu),
        _peel_against(_peel_cores(mu, None), lam),
        _moved(_peel_against(_peel_cores(lam_, None), mu_), s),
        _moved(_peel_against(_peel_cores(mu_, None), lam_), s),
    ]


def _by_the_pieri_rules(lam, mu):
    """T_lam * T_mu for cores, by the closed form if there is one, else by every peel."""
    if _is_closed(lam) or _is_closed(mu):
        return [_closed_entry(lam, mu), _closed_entry(mu, lam)]
    return _every_peel(lam, mu)


def test_pieri_rules_match_schur_route_on_every_pair_of_cores():
    # the hecke-convolve boxes, GL_5 0..2, GL_6 0..1 and GL_3 -2..2: every closed form in both
    # orders, every peel of each factor and of each dual, and the checked entry
    for n, lo, hi in ((2, 0, 6), (3, 0, 4), (4, 0, 2), (5, 0, 2), (6, 0, 1), (3, -2, 2)):
        for lam, mu in _core_pairs(n, lo, hi):
            reference = _schur_product(lam, mu)
            assert _checked_product(lam, mu) == reference, (lam, mu)
            for entry in _by_the_pieri_rules(lam, mu):
                assert entry == reference, (lam, mu)


@pytest.mark.parametrize(
    "lam,mu",
    [
        ((4, 3, 2, 1, 0), (5, 3, 2, 1, 0)),  # rank 5: peeled
        ((5, 3, 2, 2, 0), (6, 4, 3, 1, 0)),  # rank 5: peeled
        ((12, 4, 0), (30, 15, 0)),  # peeled, the short factor
        ((20, 10, 0), (20, 10, 0)),  # a two-row product the Schur route takes, peeled here
        ((60, 0, 0), (50, 20, 0)),  # a one-row factor
        ((20, 18, 0), (20, 18, 0)),  # (r, r, 0)^2 ... peeled as its dual (20, 2, 0)^2
        ((400, 0), (400, 0)),  # GL_2: both one-row
    ],
)
def test_pieri_rules_match_schur_route_on_large_shapes(lam, mu):
    reference = _schur_product(lam, mu)
    if _is_closed(lam) or _is_closed(mu):
        assert _closed_entry(lam, mu) == reference
    else:
        assert _peel(lam, mu, None) == reference


def test_long_two_row_products_take_the_schur_route():
    # the peel of (a, b, 0) reaches a number of cores quadratic in a, while the Schur route takes
    # at most 8 x 8 Brauer-Klimyk products at rank 3; the peel is taken while it reaches at most
    # a quarter as many cores
    assert [len(_peel_cores(lam, None)) for lam in ((20, 10, 0), (40, 20, 0), (100, 50, 0))] == [75, 300, 1875]
    assert (len(_hl_terms((40, 20, 0))[0]), len(_hl_terms((12, 4, 0))[0])) == (7, 7)
    assert _peel((40, 20, 0), (40, 20, 0), 49 // 4) is None
    assert _peel((20, 18, 0), (20, 18, 0), 36 // 4) is not None  # its dual's peel reaches 3 cores
    assert _peel((12, 4, 0), (30, 15, 0), 49 // 4) is not None  # (12, 4, 0)'s reaches 12


# The Pieri kernels as they were before they read theta'_j and m_j(lam) off one pass over the strip,
# and the row rule's exponent and strip starts off one pass over (lam, kappa): kept as the oracles of
# the kernels that replaced them, held to them on keys, coefficient dicts and the order of both.


def _column_rule_before(k, kappa):
    n = len(kappa)
    rows = None
    out = {}
    for lam, strip in symfunc._vertical_strips(kappa, k):
        c = {k * (n - k) - sum(n - 1 - 2 * i for i in strip): 1}
        for j, theta in Counter([lam[i] for i in strip]).items():
            m = lam.count(j)
            if theta < m:
                if rows is None:
                    rows = list(_gauss_rows(n, n))
                c = _times({-2 * e: x for e, x in rows[m][theta].items()}, c)
        out[lam] = c
    return out


def _row_rule_before(r, kappa):
    n = len(kappa)
    out = {}
    for lam in symfunc._horizontal_strips(kappa, r):
        added = [x - y for x, y in zip(lam, kappa)]
        e = (n - 1) * r - sum((n - 1 - 2 * i) * a for i, a in enumerate(added))
        starts = {y for y, a in zip(kappa, added) if a}
        c = None
        for j, a in zip(lam, added):
            if a and j not in starts:
                m = lam.count(j)
                c = {e - 2 * b: 1 for b in range(m)} if c is None else _add_scaled(dict(c), c, -1, -2 * m)
        out[lam] = c
    return out


def _in_order(entry):
    return [(nu, list(c.items())) for nu, c in entry.items()]


def _cores(n, hi):
    return [w for w in itertools.product(range(hi, -1, -1), repeat=n) if is_dominant(w) and not w[-1]]


def test_pieri_kernels_match_the_kernels_they_replaced():
    for n, hi in ((2, 10), (3, 6), (4, 4), (5, 3), (6, 2)):
        for kappa in _cores(n, hi):
            for k in range(n + 1):
                assert _in_order(_column_rule(k, kappa)) == _in_order(_column_rule_before(k, kappa)), (k, kappa)
            for r in range(1, 7):
                assert _in_order(_row_rule(r, kappa)) == _in_order(_row_rule_before(r, kappa)), (r, kappa)


def _quarter_rule_before(lam, mu):
    """T_lam * T_mu for cores, neither _is_closed, by the route chosen as before the one-core peel was
    tried first: the peel if it reaches at most a quarter as many cores as the Schur route takes
    Brauer-Klimyk products, else the Schur route."""
    entry = hecke._peel(lam, mu, len(_hl_terms(lam)[0]) * len(_hl_terms(mu)[0]) // 4)
    return hecke._schur_product(lam, mu) if entry is None else entry


def test_quarter_rule_takes_the_route_it_took_with_both_expansions(monkeypatch):
    # a pair whose peel reaches one core is peeled before either expansion is read; any other takes
    # the quarter rule as before.  The route is the same: a core that is not _is_closed has at least
    # two Schur keys (see the next test), so the quarter rule's limit is at least 1, and of the
    # factors and their duals the first whose peel reaches the fewest cores is peeled
    route = []
    peel_against, schur_product = hecke._peel_against, hecke._schur_product

    def peeled(cores, b):
        route.append(("peel", cores[-1][0], b))
        return peel_against(cores, b)

    def by_schur(lam, mu):
        route.append(("schur",))
        return schur_product(lam, mu)

    monkeypatch.setattr(hecke, "_peel_against", peeled)
    monkeypatch.setattr(hecke, "_schur_product", by_schur)
    routes = {}
    for n, hi in ((3, 12), (4, 4), (5, 2), (6, 1)):
        for lam, mu in _pairs([kappa for kappa in _cores(n, hi) if not _is_closed(kappa)]):
            entry = _checked_product(lam, mu)
            got = route[:]
            route.clear()
            assert entry == _quarter_rule_before(lam, mu), (lam, mu)
            assert got == route, (lam, mu)
            route.clear()
            routes[lam, mu] = got[0][0]
    assert routes[(8, 4, 0), (8, 4, 0)] == "peel" and routes[(12, 6, 0), (12, 6, 0)] == "schur"
    assert len(routes) == 2211 + 325 + 36  # GL_6 0..1 holds no core that is not _is_closed
    assert Counter(routes.values()) == {"peel": 2549, "schur": 23}


def test_every_core_the_peel_may_take_has_two_schur_keys():
    # at t = 1, P_kappa = m_kappa, which is s_kappa only for a minuscule kappa: so a core that is not
    # _is_closed has at least two Schur keys, over the ranges of the pattern bound's test
    for n, hi in ((2, 12), (3, 8), (4, 5), (5, 4), (6, 3), (7, 2)):
        for kappa in _cores(n, hi):
            assert _is_closed(kappa) or len(_hl_terms(kappa)[0]) >= 2, kappa


def _closed_form_cores(n):
    return sorted({_core(mu) for mu in _doms(n, hi=2 if n < 5 else 1)})


def test_closed_forms_match_schur_route_at_ranks_1_to_6():
    # the zero core, T_(1^m) by the column rule, T_(r) by the row rule and T_(r, ..., r, 0) by
    # the row rule on the dual pair, each held to the reference
    for n in range(1, 7):
        zero = (0,) * n
        for kappa in _closed_form_cores(n):
            assert _closed_entry(zero, kappa) == {kappa: {0: 1}} == _schur_product(zero, kappa), kappa
            for m in range(1, n):
                ones = (1,) * m + (0,) * (n - m)
                assert _column_rule(m, kappa) == _schur_product(ones, kappa), (ones, kappa)
            for r in range(1, 4) if n > 1 else ():
                row = (r,) + (0,) * (n - 1)
                assert _row_rule(r, kappa) == _schur_product(row, kappa), (row, kappa)
                dual_row = (r,) * (n - 1) + (0,)
                assert _closed_entry(dual_row, kappa) == _schur_product(dual_row, kappa), (dual_row, kappa)


def test_structure_constants_commute_before_the_cache():
    # convolve reads the table on the sorted pair of cores, so test_convolution_commutes compares
    # one entry with itself; here each closed form is taken in both orders and each factor peeled
    for n, hi in ((3, 3), (4, 2)):
        for lam, mu in _core_pairs(n, 0, hi):
            entries = _by_the_pieri_rules(lam, mu)
            assert entries[0] == entries[1], (lam, mu)


def test_structure_constants_agree_with_their_duals_before_the_cache():
    # the table reads one entry of each dual orbit off the other; here the peel of each factor is
    # held to the peel of its dual, moved: nu -> (s - nu_n, ..., s - nu_1)
    for n, hi in ((3, 3), (4, 2)):
        for lam, mu in _core_pairs(n, 0, hi):
            if not (_is_closed(lam) or _is_closed(mu)):
                entries = _every_peel(lam, mu)
                assert entries[0] == entries[2] and entries[1] == entries[3], (lam, mu)


_DEEP_PEEL_RUN = """
import sys
from satkit import hecke

sys.setrecursionlimit(40)
print(sorted((nu, sorted(c.items())) for nu, c in hecke._peel((24, 12, 0), (24, 12, 0), None).items()))
"""


def test_peeling_spends_no_python_frame_per_column():
    # the peel of (24, 12, 0) reaches 108 cores, made in a loop: no Python frame per core
    run = subprocess.run([sys.executable, "-c", _DEEP_PEEL_RUN], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    reference = _schur_product((24, 12, 0), (24, 12, 0))
    assert run.stdout == f"{sorted((nu, sorted(c.items())) for nu, c in reference.items())}\n"


def test_structure_constant_entries_are_not_copied():
    # _structure_constants hands out the closed-form table's entry itself
    for pair in _core_pairs(3, 0, 2):
        if pair <= _dual_pair(pair) and any(map(_is_closed, pair)):  # a dual orbit's other member is a moved copy
            assert hecke._structure_constants(*pair)[0] is _closed(*pair)[0], pair


_RANK7_REFUSAL_RUN = """
from satkit import hecke

before = hecke._closed.cache_info().currsize, hecke._structure_constants.cache_info().currsize
try:
    hecke.convolve(hecke.basis(LAM), hecke.basis(MU))
except ValueError as refusal:
    print(refusal)
print(before == (hecke._closed.cache_info().currsize, hecke._structure_constants.cache_info().currsize))
"""


@pytest.mark.parametrize("mu", [(1, 0, 0, 0, 0, 0, 0), (2, 1, 0, 0, 0, 0, 0)])
def test_refusal_of_the_largest_key_comes_before_any_product(mu):
    # each factor passes the Hall-Littlewood cap and lam + mu, the product's largest key, does
    # not: the refusal names it before a closed form is read or a peel begins, and caches nothing
    lam = (4, 4, 3, 2, 1, 0, 0)
    top = tuple(x + y for x, y in zip(lam, mu))
    code = _RANK7_REFUSAL_RUN.replace("LAM", repr(lam)).replace("MU", repr(mu))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == f"P_{top} expands to 2^20 terms of 7 entries, over the cap of 4194304 entries\nTrue\n"


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_central_shifts_match_independent_routes(data):
    # all central shifts of a pair share one table entry and one Brauer-Klimyk entry, so the
    # shifted products are held to routes that work on the shifted weights themselves
    n = data.draw(st.sampled_from([2, 3]))
    a, b = (data.draw(st.sampled_from(_doms(n, hi=3))) for _ in range(2))
    k, l = (data.draw(st.integers(min_value=-3, max_value=3)) for _ in range(2))
    a, b = tuple(x + k for x in a), tuple(x + l for x in b)
    assert convolve(basis(a), basis(b)) == _convolve_scalars(basis(a), basis(b))
    ra, rb = irreducible(a), irreducible(b)
    assert tensor(ra, rb).terms == _character_route(ra, rb)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_dual_weights_match_independent_routes(data):
    # a pair of weights and the pair of their duals -w0 lam, -w0 mu, centrally shifted, share one
    # table entry and one Brauer-Klimyk entry up to duality, so these products are held to routes
    # that work on the dual weights themselves
    n, hi = data.draw(st.sampled_from([(2, 3), (3, 3), (4, 1)]))
    a, b = (dual_weight(data.draw(st.sampled_from(_doms(n, hi=hi)))) for _ in range(2))
    k, l = (data.draw(st.integers(min_value=-3, max_value=3)) for _ in range(2))
    a, b = tuple(x + k for x in a), tuple(x + l for x in b)
    assert convolve(basis(a), basis(b)) == _convolve_scalars(basis(a), basis(b))
    ra, rb = irreducible(a), irreducible(b)
    assert tensor(ra, rb).terms == _character_route(ra, rb)


# In a fresh interpreter: every unordered pair of the benchmark boxes given, multiplied by
# PRODUCT; prints the misses of the structure-constant and tensor tables, then how many entries
# the transform route, straightening and the tensor route computed (an entry read off its dual's
# is not computed), then the Brauer-Klimyk products the tensor route took (its entries with no
# closed core), then the pattern table's misses and entries computed.  Each table is bound to its
# route when built, so the tables are rebuilt by symfunc._on_cores on counted routes, each with
# its cap; a module that imported a table by name holds the old lookup, so the new one is bound
# in every loaded satkit module that holds the name.  The tensor route reads _brauer_klimyk off
# symfunc when it runs, so that one is counted where it is defined.
_COUNTED_RUN = """
import itertools
import sys
from collections import Counter
from satkit import hecke, repring, symfunc

computed = Counter()
def counted(module, table, name, cap):
    route = getattr(module, name)
    def call(*cores):
        computed[name] += 1
        return route(*cores)
    lookup = symfunc._on_cores(call, cap)
    for loaded_name, loaded in list(sys.modules.items()):
        if loaded_name.partition(".")[0] == "satkit" and hasattr(loaded, table):
            setattr(loaded, table, lookup)
tables = (
    (hecke, "_structure_constants", "_checked_product", symfunc._check_patterns),
    (symfunc, "_hl_terms", "_hl_expand", symfunc._check_expansion),
    (symfunc, "_tensor_irreducibles", "_tensor_entry", symfunc._check_patterns),
    (symfunc, "_pattern_weights", "_gelfand_tsetlin", symfunc._check_patterns),
)
for module, table, name, cap in tables:
    counted(module, table, name, cap)
brauer_klimyk = symfunc._brauer_klimyk
def counted_brauer_klimyk(*cores):
    computed["_brauer_klimyk"] += 1
    return brauer_klimyk(*cores)
symfunc._brauer_klimyk = counted_brauer_klimyk
for n, lo, hi in BOXES:
    box = [w for w in itertools.product(range(hi, lo - 1, -1), repeat=n) if list(w) == sorted(w, reverse=True)]
    for i, a in enumerate(box):
        for b in box[i:]:
            PRODUCT
print(hecke._structure_constants.cache_info().misses, symfunc._tensor_irreducibles.cache_info().misses,
      *(computed[name] for _, _, name, _ in tables[:3]), computed["_brauer_klimyk"],
      symfunc._pattern_weights.cache_info().misses, computed["_gelfand_tsetlin"])
"""


def _counted_run(boxes, product):
    code = _COUNTED_RUN.replace("BOXES", repr(boxes)).replace("PRODUCT", product)
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return tuple(map(int, run.stdout.split()))


def _orbits(boxes):
    """The unordered pairs of the boxes, their sorted pairs of cores, and those pairs up to duality."""
    pairs = [p for n, lo, hi in boxes for p in _pairs(_doms(n, hi=hi, lo=lo))]
    cores = {tuple(sorted(map(_core, pair))) for pair in pairs}
    return pairs, cores, {min(pair, _dual_pair(pair)) for pair in cores}


def test_table_computes_each_pair_of_cores_once():
    # op counts, machine-independent: the 1,156 products look up 203 pairs of cores, and 128
    # entries are computed, one per orbit under duality, the rest read off their duals'; every
    # core of the boxes has the pattern cap proved by its first entry, so no Schur key is checked;
    # only an entry whose peel reaches more than one core reads the Hall-Littlewood expansions of
    # its cores, for the quarter rule: (4, 2, 0)^2 and (2, 2, 0, 0)^2, 2 expansions; each entry is
    # multiplied out by the Pieri rules, with no tensor entry, no Brauer-Klimyk product and no
    # Gelfand-Tsetlin pattern
    boxes = ((2, 0, 6), (3, 0, 4), (4, 0, 2))
    pairs, cores, orbits = _orbits(boxes)
    assert (len(pairs), len(cores), len(orbits)) == (1156, 203, 128)
    got = _counted_run(boxes, "hecke.convolve(hecke.basis(a), hecke.basis(b))")
    assert got[:6] == (len(cores), 0, len(orbits), 2, 0, 0)
    assert got[6:] == (0, 0)


def test_tensor_computes_each_dual_orbit_once():
    # the tensor-sweep boxes: 1,785 products look up 220 pairs of cores, and the tensor route
    # computes 145 of them, one per orbit under duality; 125 have a closed core and are read off
    # the Schur Pieri rules, so Brauer-Klimyk takes 20, and the pattern table is looked up for its
    # smaller factors alone: 10 misses and 7 entries enumerated
    boxes = ((2, -4, 4), (3, -2, 2), (4, -1, 1))
    pairs, cores, orbits = _orbits(boxes)
    assert (len(pairs), len(cores), len(orbits)) == (1785, 220, 145)
    assert sum(not (symfunc._is_closed(a) or symfunc._is_closed(b)) for a, b in orbits) == 20
    got = _counted_run(boxes, "repring.tensor(repring.irreducible(a), repring.irreducible(b))")
    assert got[:6] == (0, len(cores), 0, 0, len(orbits), 20)
    assert got[6:] == (10, 7)


_ROUND_TRIP_RUN = """
import itertools
from satkit import hecke, symfunc

weights = [
    w
    for n, lo, hi in ((2, -2, 4), (3, -1, 3), (4, 0, 2))
    for w in itertools.product(range(hi, lo - 1, -1), repeat=n)
    if list(w) == sorted(w, reverse=True)
]
for mu in weights:
    assert hecke.inverse_satake(hecke.satake(hecke.basis(mu))) == hecke.basis(mu)
print(len(weights), len({tuple(x - w[-1] for x in w) for w in weights}),
      symfunc._dominant_weights.cache_info().currsize, symfunc._pattern_weights.cache_info().currsize)
"""


def test_schur_table_holds_one_entry_per_core():
    # in a fresh interpreter: the Schur -> monomial table is keyed on cores, so the 78 weights, with
    # 32 cores, leave 32 entries (78 when it was keyed on weights); its route reads the pattern
    # entry of a core only when the core is not read off its dual's entry, so the pattern table
    # holds fewer still
    run = subprocess.run([sys.executable, "-c", _ROUND_TRIP_RUN], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    weights, cores, schur_entries, pattern_entries = map(int, run.stdout.split())
    assert (weights, cores, schur_entries, pattern_entries) == (78, 32, 32, 23)


def test_refusals_inside_the_table_name_a_weight_of_the_product():
    # both weights are under the pattern cap, and a Schur key of the first one's Hall-Littlewood
    # expansion is over it; (998, 998, 0) * (0, 0, 0) is the dual of (998, 0, 0) * (0, 0, 0), whose
    # refusal names (997, 1, 0), so that entry is not read off its dual's
    for mu, refused in (((998, 998, 0), "(998, 997, 1)"), ((998, 0, 0), "(997, 1, 0)")):
        with pytest.raises(ValueError, match=rf"^V_{re.escape(refused)} has 996003 Gelfand-Tsetlin patterns"):
            convolve(basis(mu), basis((0, 0, 0)))


def _replayed_product(lam, mu):
    """T_lam * T_mu for cores with every check of the Schur route replayed, whatever the cores: the
    table's route before the pattern cap was proved from the cores, kept as the oracle of its refusals."""
    schur = hecke._hl_terms(lam)[0], hecke._hl_terms(mu)[0]
    for nu in sorted({*schur[0], *schur[1]}, reverse=True):
        symfunc._check_patterns(nu)
    symfunc._check_expansion(tuple([x + y for x, y in zip(lam, mu)]))
    if _is_closed(lam) or _is_closed(mu):
        entry = hecke._closed(lam, mu)[0]
    else:
        entry = _peel(lam, mu, len(schur[0]) * len(schur[1]) // 4)
        if entry is None:
            return _schur_product(lam, mu)
    for nu in sorted(entry, reverse=True):
        symfunc._check_expansion(nu)
    return entry


def _replayed_convolve(a, b):
    """convolve with the Hall-Littlewood cap replayed on every term first, whatever the rank."""
    for mu in itertools.chain(a._terms, b._terms):
        symfunc._check_expansion(mu)
    return convolve(a, b)


def _outcomes(monkeypatch, route, product, pairs):
    """product on each pair of basis elements, with every table rebuilt empty and the structure
    constants computed by route: the product, or the text of its refusal.  A table holds only entries
    that passed the caps in force when they were made, so each cap gets tables of its own."""
    tables = (
        ("_hl_terms", symfunc._hl_expand, symfunc._check_expansion),
        ("_pattern_weights", symfunc._gelfand_tsetlin, symfunc._check_patterns),
        ("_dominant_weights", symfunc._dominant_entry, symfunc._check_patterns),
        ("_tensor_irreducibles", symfunc._tensor_entry, symfunc._check_patterns),
    )
    for name, entry_route, cap in tables:
        table = symfunc._on_cores(entry_route, cap)
        for module in (symfunc, hecke):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, table)
    monkeypatch.setattr(hecke, "_closed", symfunc._on_cores(_closed_entry))
    monkeypatch.setattr(hecke, "_structure_constants", symfunc._on_cores(route, symfunc._check_patterns))
    out = []
    for lam, mu in pairs:
        try:
            out.append(product(basis(lam), basis(mu)))
        except ValueError as refusal:
            out.append(str(refusal))
    return out


_REPLAYED_PAIRS = [p for n, lo, hi in ((2, 0, 6), (3, 0, 4), (4, 0, 2)) for p in _pairs(_doms(n, hi=hi, lo=lo))] + [
    ((2, 1, 1, 0, 0), (2, 2, 1, 0, 0)),
    ((3, 1, 0, 0, 0), (2, 1, 1, 1, 0)),
    ((3, 2, 1, 0, 0), (3, 2, 1, 0, 0)),
    ((1, 1, 0, 0, 0, 0, 0), (2, 1, 0, 0, 0, 0, 0)),
    ((2, 1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0)),
    ((4, 4, 3, 2, 1, 0, 0), (1, 0, 0, 0, 0, 0, 0)),
    ((4, 4, 3, 2, 1, 0, 0), (2, 1, 0, 0, 0, 0, 0)),
    ((5, 4, 3, 2, 1, 0), (1, 0, 0, 0, 0, 0)),
    ((6, 5, 4, 3, 2, 1, 0), (0, 0, 0, 0, 0, 0, 0)),
    ((998, 0, 0), (0, 0, 0)),
    ((998, 998, 0), (0, 0, 0)),
    ((29, 18, 16, 0), (0, 0, 0, 0)),
]


_REPLAYED_CAPS = [(cap, None) for cap in (1, 3, 8, 20, 45, 100, 180, 3000, 30000)] + [
    (None, None),
    (45, 1 << 8),
    (45, 6 << 14),
    (None, 6 << 15),
]


@pytest.mark.parametrize("patterns,entries", _REPLAYED_CAPS)
def test_refusals_match_the_replayed_checks(monkeypatch, patterns, entries):
    # the checks are skipped only where the cores prove that they pass: at each pair of caps, the
    # pattern cap and the Hall-Littlewood cap (None: as set), most of them under the bound of some
    # pairs, each product is the replayed route's or is refused with its text; at the caps as set,
    # the pinned refusals of (998, 0, 0), (998, 998, 0), (29, 18, 16, 0) and the rank-7 rows are
    # among them
    if patterns is not None:
        monkeypatch.setattr(symfunc, "_MAX_PATTERNS", patterns)
    if entries is not None:
        monkeypatch.setattr(symfunc, "_MAX_HL_ENTRIES", entries)
    got = _outcomes(monkeypatch, _checked_product, convolve, _REPLAYED_PAIRS)
    replayed = _outcomes(monkeypatch, _replayed_product, _replayed_convolve, _REPLAYED_PAIRS)
    assert [pair for pair, x, y in zip(_REPLAYED_PAIRS, got, replayed) if x != y] == []
    assert any(isinstance(x, HeckeElement) for x in got) and any(isinstance(x, str) for x in got)


@given(_elements(2), _elements(2), _elements(2))
@settings(max_examples=25, deadline=None)
def test_convolution_associates(a, b, c):
    assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))


def test_convolution_associates_gl3():
    a, b, c = basis((1, 0, 0)), basis((1, 1, 0)), basis((2, 1, 0))
    assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))


def test_structure_constants_are_q_polynomials():
    # integer coefficients, only even nonnegative powers of v, and
    # nonnegative integer values at v^2 = q for actual prime powers
    for n in (2, 3):
        for lam in _doms(n):
            for mu in _doms(n):
                prod = convolve(basis(lam), basis(mu))
                for nu, c in prod.terms.items():
                    assert c.is_integer_coeffs(), (lam, mu, nu)
                    assert all(e >= 0 and e % 2 == 0 for e in c.coeffs), (lam, mu, nu)
                    for q in (2, 3):
                        value = c.specialize(q)
                        assert value == int(value) and value >= 0


# -- geometric Satake's two classical limits --------------------------------
# With t = v^-2, P_lam(x; 0) = s_lam and P_lam(x; 1) = m_lam (Macdonald, SFHP, III.2).  Since
# satake(T_lam) = v^<2rho,lam> P_lam, the coefficient of T_nu in T_lam * T_mu is v^<2rho,lam+mu-nu>
# times the coefficient of P_nu in P_lam P_mu, a polynomial in t: so its v-degree is at most
# <2rho, lam + mu - nu>, its coefficient there (t -> 0) is the multiplicity of V_nu in V_lam (x) V_mu,
# and its value at v = 1 (t = 1) is the coefficient of m_nu in m_lam m_mu.  Neither limit reads
# convolve's Hall-Littlewood Pieri rules, peels or expansions; tensor shares only the strip
# enumerators with them.


def _check_classical_limits(lam, mu):
    product = convolve(basis(lam), basis(mu)).terms
    multiplicities = tensor(irreducible(lam), irreducible(mu)).terms
    top = two_rho_pairing(lam) + two_rho_pairing(mu)
    for nu in product.keys() | multiplicities.keys():
        coeffs = product[nu].coeffs if nu in product else {}
        degree = top - two_rho_pairing(nu)
        assert all(e <= degree for e in coeffs), (lam, mu, nu)
        # zero where V_nu is not in the tensor product
        assert coeffs.get(degree, 0) == (multiplicities[nu].as_int() if nu in multiplicities else 0), (lam, mu, nu)
    at_one = {nu: sum(c.coeffs.values()) for nu, c in product.items()}  # q - 1 vanishes at v = 1
    assert {nu: x for nu, x in at_one.items() if x} == {nu: c.as_int() for nu, c in (monomial(lam) * monomial(mu)).terms.items()}, (lam, mu)


def test_classical_limits_of_the_structure_constants():
    pairs = [p for n, hi in ((2, 6), (3, 4), (4, 3), (5, 2), (6, 1)) for p in _pairs(_cores(n, hi))]
    assert len(pairs) == 499
    for lam, mu in pairs:
        _check_classical_limits(lam, mu)


def test_classical_limits_of_the_structure_constants_on_wider_boxes():
    pairs = [p for n, hi in ((3, 10), (4, 5)) for p in _pairs(_cores(n, hi))]
    assert len(pairs) == 3807
    for lam, mu in pairs:
        _check_classical_limits(lam, mu)


def test_paper_convolution():
    got = convolve(basis((1, 0)), basis((1, 0)))
    assert got == basis((2, 0)) + parse_scalar("1+v^2") * basis((1, 1))


def test_normalized_satake_has_even_powers_only():
    for mu in _doms(2, hi=3) + _doms(3):
        f = normalized_satake(basis(mu))
        for c in f.terms.values():
            assert all(e % 2 == 0 for e in c.coeffs), mu


def test_specialize_v():
    assert specialize_v(parse_scalar("v"), 4) == Fraction(2)
    assert specialize_v(parse_scalar("1+v^2"), 2) == Fraction(3)
    h = basis((2, 0)) + parse_scalar("1+v^2") * basis((1, 1))
    assert specialize_v(h, 2) == {(2, 0): Fraction(1), (1, 1): Fraction(3)}
    assert specialize_v(h, Fraction(2)) == specialize_v(h, 2)


def test_specialize_v_takes_only_ints_and_fractions():
    # a float is inexact, a bool is not a number here and text is not parsed: each is refused, also
    # with an element that has no coefficient to specialize
    for x in [parse_scalar("1+v^2"), basis((1, 0)), HeckeElement(2, {}), SymPoly(2, {})]:
        for bad in [0.1, 4.0, True, "4"]:
            with pytest.raises(ValueError, match=r"^q must be an int or a Fraction, got "):
                specialize_v(x, bad)


def test_element_validation():
    with pytest.raises(ValueError):
        HeckeElement(2, {(0, 1): LaurentScalar.one()})
    with pytest.raises(ValueError):
        convolve(basis((1, 0)), basis((1, 0, 0)))  # rank mismatch


def test_json_round_trip():
    h = basis((2, 0)) + parse_scalar("1+v^2") * basis((1, 1))
    for x in [h, h * LaurentScalar({0: Fraction(1, 2), 2: Fraction(-5, 3)})]:
        assert HeckeElement.from_json(json.loads(json.dumps(x.to_json()))) == x
