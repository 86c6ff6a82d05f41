"""The shared combination base: results are canonical, kinds never mix.

SymPoly, HeckeElement and RepElement inherit their arithmetic from one base,
and results computed inside the package skip validation.  The property
below holds every such result to what validation would have produced: it
equals its own re-validation and stores no zero coefficient, and no
coefficient of a scalar is zero or a Fraction with denominator 1.
Each product is also taken as (x + y)(x - y), whose pairs of terms y x and
-x y cancel, since all three products commute.
"""

import itertools
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satkit.hecke import HeckeElement, basis, convolve, inverse_satake, normalized_satake, satake
from satkit.laurent import LaurentScalar, parse_scalar
from satkit.repring import RepElement, character, irreducible, tensor
from satkit.rootdata import is_dominant
from satkit.symfunc import Combination, SymPoly, expand_in_schur, hall_littlewood, monomial, schur
from satkit.trace_k import trace_of_endomorphism


def _doms(n, lo, hi):
    return [w for w in itertools.product(range(hi, lo - 1, -1), repeat=n) if is_dominant(w)]


# rational coefficients whose sums and products can come out whole
_entries = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-2, 3)]),
)
_scalars = st.dictionaries(st.integers(min_value=-2, max_value=2), _entries, max_size=3).map(
    LaurentScalar
)


def _elements(cls, n=2, lo=-1, hi=2):
    return st.dictionaries(st.sampled_from(_doms(n, lo, hi)), _scalars, max_size=3).map(
        lambda d: cls(n, d)
    )


def _assert_canonical_scalars(scalars):
    for c in scalars:
        assert c.coeffs, "zero coefficient stored"
        for x in c.coeffs.values():
            assert x != 0 and (type(x) is int or x.denominator != 1), c


def _assert_canonical(r):
    assert type(r)(r.n, r.terms) == r
    _assert_canonical_scalars(r.terms.values())


def _assert_linear_results_canonical(a, b, c):
    for r in (a + b, a - b, b - b, -a, a * c, c * a, 0 * a):
        _assert_canonical(r)


@settings(max_examples=40, deadline=None)
@given(_elements(SymPoly), _elements(SymPoly), _scalars)
def test_sympoly_results_are_canonical(f, g, c):
    _assert_linear_results_canonical(f, g, c)
    _assert_canonical(f * g)
    _assert_canonical((f + g) * (f - g))
    _assert_canonical(inverse_satake(f))
    expansion = expand_in_schur(f)
    assert RepElement(f.n, expansion).terms == expansion
    _assert_canonical_scalars(expansion.values())


@settings(max_examples=40, deadline=None)
@given(_elements(HeckeElement, lo=0), _elements(HeckeElement, lo=0), _scalars)
def test_hecke_results_are_canonical(a, b, c):
    _assert_linear_results_canonical(a, b, c)
    _assert_canonical(satake(a))
    _assert_canonical(convolve(a, b))
    _assert_canonical(convolve(a + b, a - b))


@settings(max_examples=40, deadline=None)
@given(_elements(RepElement), _elements(RepElement), _scalars)
def test_rep_results_are_canonical(r, s, c):
    _assert_linear_results_canonical(r, s, c)
    _assert_canonical(tensor(r, s))
    _assert_canonical(tensor(r + s, r - s))


# the boxes of the tensor-sweep and hecke-convolve benchmark workloads, (rank, lowest entry, highest entry)
TENSOR_BOXES = ((2, -4, 4), (3, -2, 2), (4, -1, 1))
HECKE_BOXES = ((2, 0, 6), (3, 0, 4), (4, 0, 2))


@pytest.mark.parametrize(
    "product,make,boxes",
    [
        (tensor, irreducible, TENSOR_BOXES),
        (convolve, basis, HECKE_BOXES),
        (SymPoly.__mul__, monomial, TENSOR_BOXES + HECKE_BOXES),
    ],
    ids=["tensor", "convolve", "sympoly"],
)
def test_one_pair_products_match_the_general_loop(product, make, boxes):
    # a product of two one-term elements takes _bilinear's one-pair path; adding a term c to the first
    # factor and taking c's product away again runs the general loop over the same entry.  Over every
    # pair of the boxes (central shifts included), with a unit and with a polynomial coefficient, and
    # (x - y)(x + y), whose pairs y x and -x y cancel in the general loop
    s = LaurentScalar({1: 2, -2: Fraction(-1, 2), 0: 3})
    for n, lo, hi in boxes:
        weights = _doms(n, lo, hi)
        for i, a in enumerate(weights):
            c = make(weights[i - 1])
            for b in weights[i:]:
                x, y = make(a), make(b)
                for coeff in (1, s):
                    one = product(x * coeff, y)
                    assert one == product(x * coeff + c, y) - product(c, y), (a, b, coeff)
                assert product(x - y, x + y) == product(x, x) - product(y, y), (a, b)


def _snapshot(r):
    """A copy of the coefficient dicts of a combination or a {weight: scalar} dict; any other argument as it is."""
    if isinstance(r, Combination):
        r = r.terms
    if not isinstance(r, dict):
        return r
    return {w: dict(c.coeffs) if isinstance(c, LaurentScalar) else c for w, c in r.items()}


def test_products_share_no_dict_with_the_tables():
    # a result's scalars are its own: writing into them must change no cached table entry (nor
    # the arguments), so the same call made again comes out unchanged.  The transforms hand
    # their elimination's dicts on to the result, so they are called here as well as the products
    hl = basis((2, 0, 0)) + basis((1, 1, 0)) * LaurentScalar({1: 2, -1: Fraction(1, 2)})
    f = hall_littlewood((2, 1)) + monomial((1, 1)) * LaurentScalar({2: -3}) + monomial((0, -1))
    r = irreducible((2, 1, 0)) + irreducible((1, 0, -1)) * LaurentScalar({1: 2})
    calls = [
        (tensor, irreducible((2, 1)), irreducible((1, 0))),
        (tensor, irreducible((3, 2)), irreducible((1, -1))),  # central shift 1
        (tensor, irreducible((2, 0, 0)) + 2 * irreducible((1, 1, 0)), irreducible((1, 0, -1))),
        (convolve, basis((1, 0)), basis((1, 0))),
        (convolve, basis((3, 2)), basis((2, 1))),  # central shift 3
        (convolve, basis((2, 0, 0)) + basis((1, 1, 0)) * LaurentScalar({1: 2}), basis((1, 0, 0))),
        (SymPoly.__mul__, monomial((2, 0)), monomial((1, 0)) + monomial((1, 1))),
        (satake, hl),
        (satake, basis((3, 2))),  # central shift 2
        (normalized_satake, hl),
        (inverse_satake, f),
        (inverse_satake, satake(hl)),
        (expand_in_schur, f),
        (expand_in_schur, schur((2, 1, -1))),
        (hall_littlewood, (2, 1, 0)),
        (hall_littlewood, (1, -1)),
        (schur, (2, 1, 0)),
        (schur, (3, -1)),
        (character, r),
        (trace_of_endomorphism, r, {(2, 1, 0): Fraction(1, 3), (1, 0, -1): 2}),
        (tensor, irreducible((2, 0)), irreducible((1, 0))),  # one pair, central shift 0
        (convolve, basis((2, 1, 0)), basis((1, 1, 0))),  # one pair, central shift 0
    ]
    for call, *args in calls:
        before = [_snapshot(x) for x in args]
        first = call(*args)
        expected = _snapshot(first)
        for c in (first if isinstance(first, dict) else first.terms).values():
            for k in c.coeffs:
                c.coeffs[k] += 7
            c.coeffs[99] = 1
        assert _snapshot(call(*args)) == expected, (call, args)
        assert [_snapshot(x) for x in args] == before, (call, args)


def test_kinds_are_pairwise_unequal():
    kinds = [monomial((1, 0)), basis((1, 0)), irreducible((1, 0))]
    for x, y in itertools.combinations(kinds, 2):
        assert x != y and y != x
        assert not x == y


def test_validation_at_the_boundary():
    # zero coefficients are dropped
    assert SymPoly(2, {(1, 0): 1, (0, 0): 0}) == monomial((1, 0))
    assert HeckeElement(2, {(1, 0): LaurentScalar({0: 2, 1: 0})}).terms[(1, 0)].coeffs == {0: 2}
    # whole Fractions become ints
    assert type(RepElement(2, {(1, 0): Fraction(4, 2)}).terms[(1, 0)].coeffs[0]) is int


@pytest.mark.parametrize(
    "make, text",
    [
        (monomial, "weight (1, 0, 0) has rank 3, expected 2"),
        (basis, "coweight (1, 0, 0) has rank 3, expected 2"),
        (irreducible, "highest weight (1, 0, 0) has rank 3, expected 2"),
    ],
    ids=["sympoly", "hecke", "rep"],
)
def test_coefficient_refuses_a_weight_of_another_rank(make, text):
    x = make((1, 0))
    assert x.coefficient((1, 0)) == 1 and x.coefficient((0, 0)).is_zero()
    with pytest.raises(ValueError) as refused:
        x.coefficient((1, 0, 0))
    assert str(refused.value) == text
    with pytest.raises(ValueError, match=r"\(1,\) has rank 1, expected 2$"):
        x.coefficient((1,))


def test_terms_is_a_new_dict_on_each_access():
    # terms keeps its public meaning, {weight: LaurentScalar}, built from the stored coefficient
    # dicts: a dict of its own each time, so clearing or filling it changes nothing
    x = basis((2, 0)) + parse_scalar("1+v^2") * basis((1, 1))
    assert x.terms == {(2, 0): LaurentScalar.one(), (1, 1): parse_scalar("1+v^2")}
    assert x.terms is not x.terms
    x.terms.clear()
    x.terms[(0, 0)] = LaurentScalar.one()
    assert x == convolve(basis((1, 0)), basis((1, 0)))
    assert x.coefficient((1, 1)) == parse_scalar("1+v^2")


def test_equal_elements_hash_equal():
    # built separately, by different routes, with Fractions that are whole or not
    pairs = [
        (convolve(basis((1, 0)), basis((1, 0))), basis((2, 0)) + parse_scalar("1+v^2") * basis((1, 1))),
        (RepElement(2, {(1, 0): Fraction(4, 2)}), irreducible((1, 0)) * 2),
        (monomial((1, 0)) * Fraction(1, 3), SymPoly(2, {(1, 0): LaurentScalar({0: Fraction(2, 6)})})),
        (tensor(irreducible((1, 0)), irreducible((0, -1))), irreducible((1, -1)) + irreducible((0, 0))),
        (HeckeElement.zero(3), basis((1, 0, 0)) - basis((1, 0, 0))),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b), (a, b)
        assert len({a, b}) == 1
    assert basis((1, 0)) != basis((1, 0)) * 2 and basis((1, 0)) != HeckeElement.zero(2)


# In a fresh interpreter: every unordered pair of the tensor-sweep and hecke-convolve boxes
# multiplied, counting the LaurentScalars made (by the constructor, _from_canonical or one);
# prints the count after the products, then after reading one coefficient.
_SCALARS_MADE_RUN = """
import itertools
from satkit import hecke, repring
from satkit.laurent import LaurentScalar

made = [0]
def counted(method):
    def call(*args, **kwargs):
        made[0] += 1
        return method(*args, **kwargs)
    return call
LaurentScalar.__init__ = counted(LaurentScalar.__init__)
for name in ("_from_canonical", "one"):
    setattr(LaurentScalar, name, classmethod(counted(getattr(LaurentScalar, name).__func__)))

def pairs(n, lo, hi):
    box = [w for w in itertools.product(range(hi, lo - 1, -1), repeat=n) if list(w) == sorted(w, reverse=True)]
    return [(a, b) for i, a in enumerate(box) for b in box[i:]]

for box in ((2, -4, 4), (3, -2, 2), (4, -1, 1)):
    for a, b in pairs(*box):
        last = repring.tensor(repring.irreducible(a), repring.irreducible(b))
for box in ((2, 0, 6), (3, 0, 4), (4, 0, 2)):
    for a, b in pairs(*box):
        last = hecke.convolve(hecke.basis(a), hecke.basis(b))
print(made[0])
last.coefficient(last.support()[0])
print(made[0])
"""


def test_basis_products_build_no_scalar():
    # elements store coefficient dicts, so a product of basis elements makes no LaurentScalar;
    # one is made where a coefficient is read at the public boundary
    run = subprocess.run([sys.executable, "-c", _SCALARS_MADE_RUN], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["0", "1"]
