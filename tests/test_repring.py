"""Representation ring of GL_n: dimensions, tensor products, duality."""

import itertools
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satkit import repring, symfunc
from satkit.laurent import LaurentScalar
from satkit.repring import (
    RepElement,
    character,
    dimension,
    dual,
    irreducible,
    tensor,
    weight_multiplicity,
)
from satkit.rootdata import is_dominant
from satkit.symfunc import expand_in_schur, schur, weight_multiset


def _dominants(lo, hi, n):
    for w in itertools.product(range(hi, lo - 1, -1), repeat=n):
        if is_dominant(w):
            yield w


def test_dimension_values():
    assert dimension((1, 0)) == 2
    assert dimension((1, 1)) == 1
    assert dimension((2, 0)) == 3
    assert dimension((1, 0, 0)) == 3
    assert dimension((1, 1, 0)) == 3
    assert dimension((2, 1, 0)) == 8
    assert dimension((0, 0, 0)) == 1
    assert dimension((0, 0, -1)) == 3


def test_dimension_agrees_with_weight_count():
    # Weyl product formula vs. Gelfand-Tsetlin enumeration
    for n in (2, 3):
        for mu in _dominants(-2, 3, n):
            assert dimension(mu) == sum(m for _, m in weight_multiset(mu))


def test_weight_multiplicity_kostka_values():
    assert weight_multiplicity((2, 1, 0), (1, 1, 1)) == 2
    assert weight_multiplicity((2, 1, 0), (2, 1, 0)) == 1
    assert weight_multiplicity((2, 1, 0), (0, 1, 2)) == 1  # Weyl-orbit symmetry
    assert weight_multiplicity((1, 0), (2, 0)) == 0
    assert weight_multiplicity((3, 1, 0), (2, 1, 1)) == 2


def test_weight_multiplicity_refuses_past_the_pattern_cap(monkeypatch):
    # the estimate is dim V_mu, the number of Gelfand-Tsetlin patterns; the cap itself is admitted.
    # A table checks the cap only on a miss, so the lowered cap is met by a table with no entries
    monkeypatch.setattr(symfunc, "_MAX_PATTERNS", dimension((2, 1, 0)))
    monkeypatch.setattr(repring, "_pattern_weights", symfunc._on_cores(symfunc._gelfand_tsetlin, symfunc._check_patterns))
    assert weight_multiplicity((2, 1, 0), (1, 1, 1)) == 2
    with pytest.raises(ValueError, match=r"^V_\(3, 1, 0\) has 15 Gelfand-Tsetlin patterns, over the cap of 8$"):
        weight_multiplicity((3, 1, 0), (2, 1, 1))
    with pytest.raises(ValueError, match="highest weight must be dominant"):
        weight_multiplicity((0, 1), (1, 0))


def test_tensor_square_of_std_gl2():
    got = tensor(irreducible((1, 0)), irreducible((1, 0)))
    assert got == irreducible((2, 0)) + irreducible((1, 1))


def test_tensor_std_with_wedge_gl3():
    got = tensor(irreducible((1, 0, 0)), irreducible((1, 1, 0)))
    assert got == irreducible((2, 1, 0)) + irreducible((1, 1, 1))


def test_tensor_dimension_homomorphism():
    for a in _dominants(0, 2, 3):
        for b in _dominants(0, 2, 3):
            prod = tensor(irreducible(a), irreducible(b))
            total = sum(c.as_int() * dimension(w) for w, c in prod.terms.items())
            assert total == dimension(a) * dimension(b), (a, b)


# In a fresh interpreter, with the pattern table rebuilt on a route that records its cores and
# bound in every loaded satkit module that imported it by name.
_BIG_BY_SMALL_RUN = """
import sys
from satkit import repring, symfunc

enumerated = []
def route(*cores):
    enumerated.append(cores)
    return symfunc._gelfand_tsetlin(*cores)
lookup = symfunc._on_cores(route, symfunc._check_patterns)
for name, module in list(sys.modules.items()):
    if name.partition(".")[0] == "satkit" and hasattr(module, "_pattern_weights"):
        module._pattern_weights = lookup
print(repring.tensor(repring.irreducible((998, 0, 0)), repring.irreducible((1, 0, 0))))
print(enumerated)
"""


def test_tensor_enumerates_only_the_smaller_factor():
    # Brauer-Klimyk walks the weights of the factor of smaller dimension and of the other needs
    # only its highest weight, so the 499,500 patterns of (998, 0, 0) are never enumerated
    run = subprocess.run([sys.executable, "-c", _BIG_BY_SMALL_RUN], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "RepElement(n=3, V[999,0,0] + V[998,1,0])\n[((1, 0, 0),)]\n"


def test_littlewood_richardson_positivity():
    # every structure constant is a nonnegative integer
    for n in (2, 3):
        doms = list(_dominants(-3, 3, n))
        for a in doms:
            for b in doms:
                prod = tensor(irreducible(a), irreducible(b))
                for w, c in prod.terms.items():
                    assert c.as_int() >= 1, (a, b, w)


def test_dual_involution_and_dimension():
    assert dual(irreducible((1, 0, 0))) == irreducible((0, 0, -1))
    for mu in _dominants(-2, 2, 3):
        d = dual(irreducible(mu))
        assert dual(d) == irreducible(mu)
        (w,) = d.terms
        assert dimension(w) == dimension(mu)


def test_character_expands_back():
    r = irreducible((2, 0)) + 2 * irreducible((1, 1))
    f = character(r)
    assert expand_in_schur(f) == {
        (2, 0): LaurentScalar.one(),
        (1, 1): LaurentScalar.from_int(2),
    }


def test_character_of_sum_is_sum():
    a, b = irreducible((2, 1, 0)), irreducible((1, 1, 1))
    assert character(a + b) == character(a) + character(b)


def test_rep_element_rejects_non_dominant_keys():
    with pytest.raises(ValueError):
        RepElement(2, {(0, 1): LaurentScalar.one()})


def test_json_round_trip():
    r = irreducible((2, 0)) + 2 * irreducible((1, 1))
    for x in [r, r + Fraction(-7, 2) * irreducible((1, 0))]:
        assert RepElement.from_json(json.loads(json.dumps(x.to_json()))) == x


def test_schur_is_the_character_of_the_irreducible():
    for mu in [(1, 0), (2, 1), (2, 1, 0)]:
        assert character(irreducible(mu)) == schur(mu)


# -- Brauer-Klimyk against the character route ----------------------------


def _character_route(r1, r2):
    return expand_in_schur(character(r1) * character(r2))


# the tensor-sweep benchmark boxes: GL_2 with central shifts up to 4, GL_3 and GL_4
@pytest.mark.parametrize("n, lo, hi", [(2, -4, 4), (3, -2, 2), (4, -1, 1)])
def test_tensor_matches_character_route(n, lo, hi):
    doms = list(_dominants(lo, hi, n))
    for a in doms:
        for b in doms:
            ra, rb = irreducible(a), irreducible(b)
            got = tensor(ra, rb)
            assert got.terms == _character_route(ra, rb), (a, b)
            assert got == tensor(rb, ra), (a, b)


# rational coefficients too, whose products and sums can come out whole or cancel
_graded = st.dictionaries(
    st.integers(min_value=-3, max_value=3),
    st.one_of(
        st.integers(min_value=-2, max_value=2),
        st.fractions(min_value=-2, max_value=2, max_denominator=6),
    ),
    max_size=3,
).map(LaurentScalar)


def _rep_elements(n):
    keys = st.sampled_from(list(_dominants(-1, 2, n)))
    return st.dictionaries(keys, _graded, max_size=3).map(lambda d: RepElement(n, d))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tensor_of_graded_sums_matches_character_route(data):
    n = data.draw(st.sampled_from([2, 3]))
    r1, r2 = data.draw(_rep_elements(n)), data.draw(_rep_elements(n))
    # (r1 + r2)(r1 - r2): the products r2 r1 and -r1 r2 of its pairs of terms cancel
    for a, b in ((r1, r2), (r1 + r2, r1 - r2)):
        got = tensor(a, b)
        assert got.terms == _character_route(a, b)
        assert got == tensor(b, a)
        # no cancelled term or coefficient is stored, and no whole Fraction (Fraction(2) == 2 above)
        for c in got.terms.values():
            assert c.coeffs
            assert all(x != 0 and (type(x) is int or x.denominator != 1) for x in c.coeffs.values()), c
