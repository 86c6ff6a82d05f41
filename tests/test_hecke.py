"""Spherical Hecke algebra: transform, convolution, specialization."""

import itertools
import json
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_repring import _character_route
from test_symfunc import _sympoly_mul_all_pairs

from satkit.hecke import (
    HeckeElement,
    _transform_product,
    basis,
    convolve,
    inverse_satake,
    normalized_satake,
    satake,
    specialize_v,
)
from satkit.laurent import LaurentScalar, parse_scalar
from satkit.repring import irreducible, tensor
from satkit.rootdata import dominance_leq, dual_weight, is_dominant, two_rho_pairing
from satkit.symfunc import SymPoly, _add_into, hall_littlewood, monomial


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


def test_structure_constants_commute_before_the_cache():
    # convolve reads the table on the sorted pair of cores, so the test above compares one
    # entry with itself; here the product is computed by the transforms in both orders
    for n, hi in ((3, 2), (4, 1)):
        for lam, mu in _pairs(_doms(n, hi=hi)):
            assert _transform_product(lam, mu) == _transform_product(mu, lam), (lam, mu)


def _core(mu):
    return tuple(x - mu[-1] for x in mu)


def _dual_pair(pair):
    # the sorted cores of -w0 lam and -w0 mu: (mu_1 - mu_n, ..., mu_1 - mu_1) for a core mu
    return tuple(sorted(tuple(mu[0] - x for x in reversed(mu)) for mu in pair))


def test_structure_constants_agree_with_their_duals_before_the_cache():
    # the table reads one entry of each dual orbit off the other; here both members are
    # computed by the transforms, and the dual's is moved: nu -> (s - nu_n, ..., s - nu_1)
    for n, hi in ((3, 2), (4, 1)):
        for pair in _pairs(sorted({_core(mu) for mu in _doms(n, hi=hi)})):
            s = pair[0][0] + pair[1][0]
            dual = _transform_product(*_dual_pair(pair))
            assert {tuple(s - x for x in reversed(nu)): c for nu, c in dual.items()} == _transform_product(*pair), pair


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
# PRODUCT; prints the misses of the structure-constant and Brauer-Klimyk tables, then how many
# entries the transform route, straightening and Brauer-Klimyk computed (an entry read off its
# dual's is not computed), then the pattern table's misses and entries computed.  Each table is
# bound to its route when built, so the tables are rebuilt by symfunc._on_cores on counted routes,
# each with its cap; a module that imported a table by name holds the old lookup, so the new one
# is bound in every loaded satkit module that holds the name.
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
    (hecke, "_structure_constants", "_transform_product", symfunc._check_patterns),
    (symfunc, "_hl_terms", "_hl_expand", symfunc._check_expansion),
    (symfunc, "_tensor_irreducibles", "_brauer_klimyk", symfunc._check_patterns),
    (symfunc, "_pattern_weights", "_gelfand_tsetlin", symfunc._check_patterns),
)
for module, table, name, cap in tables:
    counted(module, table, name, cap)
for n, lo, hi in BOXES:
    box = [w for w in itertools.product(range(hi, lo - 1, -1), repeat=n) if list(w) == sorted(w, reverse=True)]
    for i, a in enumerate(box):
        for b in box[i:]:
            PRODUCT
print(hecke._structure_constants.cache_info().misses, symfunc._tensor_irreducibles.cache_info().misses,
      *(computed[name] for _, _, name, _ in tables[:3]),
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
    # entries are computed, one per orbit under duality, the rest read off their duals' (60
    # Hall-Littlewood expansions and 128 Brauer-Klimyk products); the Satake route run on every
    # pair took 326 and 1,386, and the table keyed on pairs of cores alone 93 and 203
    boxes = ((2, 0, 6), (3, 0, 4), (4, 0, 2))
    pairs, cores, orbits = _orbits(boxes)
    assert (len(pairs), len(cores), len(orbits)) == (1156, 203, 128)
    got = _counted_run(boxes, "hecke.convolve(hecke.basis(a), hecke.basis(b))")
    assert got[:5] == (len(cores), 183, len(orbits), 60, 128)
    # the pattern table: 32 cores looked up, 23 enumerated (without duality, all 32)
    assert got[5:] == (32, 23)


def test_tensor_computes_each_dual_orbit_once():
    # the tensor-sweep boxes: 1,785 products look up 220 pairs of cores, and Brauer-Klimyk
    # computes 145 of them, one per orbit under duality
    boxes = ((2, -4, 4), (3, -2, 2), (4, -1, 1))
    pairs, cores, orbits = _orbits(boxes)
    assert (len(pairs), len(cores), len(orbits)) == (1785, 220, 145)
    got = _counted_run(boxes, "repring.tensor(repring.irreducible(a), repring.irreducible(b))")
    assert got[:5] == (0, len(cores), 0, 0, len(orbits))
    assert got[5:] == (34, 25)


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


def test_element_validation():
    with pytest.raises(ValueError):
        HeckeElement(2, {(0, 1): LaurentScalar.one()})
    with pytest.raises(ValueError):
        convolve(basis((1, 0)), basis((1, 0, 0)))  # rank mismatch


def test_json_round_trip():
    h = basis((2, 0)) + parse_scalar("1+v^2") * basis((1, 1))
    for x in [h, h * LaurentScalar({0: Fraction(1, 2), 2: Fraction(-5, 3)})]:
        assert HeckeElement.from_json(json.loads(json.dumps(x.to_json()))) == x
