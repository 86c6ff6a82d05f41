"""Weights, dominance order, and integer-span membership."""

import enum
import itertools
import re
import time
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_plattice import _det, _gauss_jordan, _mat_inv, _rank
from test_symfunc import _det as leibniz_det

from satkit.rootdata import (
    GroupSpec,
    _bareiss,
    _is_dominant,
    _det_int,
    _mat_identity,
    _mat_mul,
    check_weight,
    dominance_leq,
    dual_weight,
    _span_data,
    in_integer_span,
    is_dominant,
    two_rho_pairing,
)


def test_check_weight_rejects_non_ints():
    with pytest.raises(ValueError):
        check_weight((1.0, 0))
    with pytest.raises(ValueError):
        check_weight(())


def test_dominance_examples():
    assert dominance_leq((1, 1, 0), (2, 0, 0))
    assert not dominance_leq((2, 0, 0), (1, 1, 0))
    assert dominance_leq((2, 1, 0), (2, 1, 0))
    # different totals never compare
    assert not dominance_leq((1, 0), (2, 0))
    assert not dominance_leq((2, 0), (1, 0))


def test_dominance_is_prefix_sum_order():
    doms = [w for w in itertools.product(range(4), repeat=3) if is_dominant(w)]
    for a in doms:
        for b in doms:
            if sum(a) != sum(b):
                continue
            expected = all(
                sum(a[: i + 1]) <= sum(b[: i + 1]) for i in range(3)
            )
            assert dominance_leq(a, b) == expected


def test_dominance_requires_dominant_arguments():
    with pytest.raises(ValueError):
        dominance_leq((0, 1), (1, 0))


def test_two_rho_pairing_values():
    assert two_rho_pairing((1, 0)) == 1
    assert two_rho_pairing((1, 1)) == 0
    assert two_rho_pairing((1, 0, 0)) == 2
    assert two_rho_pairing((2, 1, 0)) == 4


def test_dual_weight_reverses_and_negates():
    assert dual_weight((2, 1, 0)) == (0, -1, -2)
    for w in itertools.product(range(-2, 3), repeat=3):
        if is_dominant(w):
            assert is_dominant(dual_weight(w))
            assert dual_weight(dual_weight(w)) == w


def dominant_representative(w):
    """The dominant point of the S_n-orbit of w: its entries sorted descending."""
    return tuple(sorted(check_weight(w), reverse=True))


def test_dominant_representative():
    assert dominant_representative((0, 2, -1)) == (2, 0, -1)
    assert dominant_representative((1, 1)) == (1, 1)


def test_in_integer_span():
    gens = ((1, 1, 1),)
    assert in_integer_span((2, 2, 2), gens)
    assert not in_integer_span((1, 1, 0), gens)
    # rational but non-integer combinations are rejected
    assert not in_integer_span((1, 1, 1), ((2, 2, 2),))
    assert in_integer_span((0, 0, 0), gens)


def test_in_integer_span_two_generators():
    gens = ((1, 1, 1, 0), (0, 0, 0, 1))
    assert in_integer_span((3, 3, 3, -2), gens)
    assert not in_integer_span((3, 3, 2, 0), gens)


def test_in_integer_span_rejects_dependent_generators():
    with pytest.raises(ValueError):
        in_integer_span((1, 1), ((1, 0), (2, 0)))


def test_group_spec_validates():
    GroupSpec(3, ((1, 1, 1),))
    with pytest.raises(ValueError):
        GroupSpec(3, ((1, 1),))  # rank mismatch
    with pytest.raises(ValueError):
        GroupSpec(2, ((1, 0), (2, 0)))  # dependent center generators


# -- the exact kernel, against the Leibniz formula -------------------------


def _matrices(rows, cols, entries=st.integers(min_value=-3, max_value=3)):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


_square = st.integers(min_value=1, max_value=4).flatmap(lambda n: _matrices(n, n))
_square_pairs = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(_matrices(n, n), _matrices(n, n))
)
_rectangular = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: _matrices(*shape, entries=st.integers(min_value=-1, max_value=1))
)


@given(_square_pairs)
def test_kernel_det_is_leibniz_and_multiplicative(pair):
    a, b = pair
    assert _det(a) == leibniz_det(a)
    assert _det(_mat_mul(a, b)) == _det(a) * _det(b)


@given(_square)
def test_kernel_inverse(a):
    n = len(a)
    if leibniz_det(a) == 0:
        with pytest.raises(ValueError, match="singular"):
            _mat_inv(a)
        return
    inv = _mat_inv(a)
    assert _mat_mul(a, inv) == _mat_identity(n)
    assert _mat_mul(inv, a) == _mat_identity(n)


@given(_rectangular)
def test_kernel_rank_is_largest_nonzero_minor(a):
    def minor(rows, cols):
        return leibniz_det([[a[r][c] for c in cols] for r in rows])

    rows, cols = range(len(a)), range(len(a[0]))
    want = max(
        (
            k
            for k in range(1, min(len(rows), len(cols)) + 1)
            for rs in itertools.combinations(rows, k)
            for cs in itertools.combinations(cols, k)
            if minor(rs, cs) != 0
        ),
        default=0,
    )
    assert _rank(a) == want


@given(_square_pairs)
def test_integer_det_matches_fraction_det(pair):
    a, b = pair
    assert _det_int(a) == _det(a) == leibniz_det(a)
    assert _det_int(_mat_mul(a, b)) == _det_int(a) * _det_int(b)
    assert _det_int(()) == 1  # the empty minor of a 1 x 1 adjugate


def cofactor_adjugate(a):
    """adj(a) from cofactors, k^2 determinants of size k - 1; the empty minor's determinant is 1."""
    k = range(len(a))
    return tuple(
        tuple((-1) ** (i + j) * _det_int([r[:i] + r[i + 1 :] for m, r in enumerate(a) if m != j]) for j in k)
        for i in k
    )


def cofactor_span_data(gens):
    """(G, Delta, A) with A = adj(G G^T) G by cofactors: the route _span_data's one elimination replaced."""
    gram = _mat_mul(gens, tuple(zip(*gens)))
    delta = _det_int(gram)
    return gens, delta, _mat_mul(cofactor_adjugate(gram), gens) if delta else None


@given(_square_pairs)
def test_bareiss_gives_det_and_adjugate_times_the_riding_columns(pair):
    a, b = pair
    det, adj_b = _bareiss([row + extra for row, extra in zip(a, b)])
    assert det == leibniz_det(a)
    assert _bareiss(a) == (det, () if det else None)
    if det:
        assert adj_b == _mat_mul(cofactor_adjugate(a), b)
    else:
        assert adj_b is None


@given(st.lists(st.lists(st.integers(-3, 3), min_size=6, max_size=6), min_size=1, max_size=6))
def test_span_data_matches_cofactor_route(rows):
    gens = tuple(map(tuple, rows))
    assert _span_data(gens) == cofactor_span_data(gens)


def test_span_data_of_many_generators_is_quick():
    # by cofactors, about 1 s at 30 generators and 4 s at 40; one elimination takes k^2 (k + n) steps
    for n in (30, 40):
        lower = tuple(tuple(int(j <= i) for j in range(n)) for i in range(n))
        start = time.perf_counter()
        _, delta, a = GroupSpec(n, lower)._span
        assert time.perf_counter() - start < 0.5
        # G is unimodular: det(G G^T) = 1 and A = (G G^T)^-1 G = (G^T)^-1
        assert delta == 1 and _mat_mul(a, tuple(zip(*lower))) == _mat_identity(n)


# -- integer-span membership, against the Fraction solve ---------------------


def fraction_in_integer_span(target, gens):
    """The former library route: Gauss-Jordan over Fractions on the augmented system [G^T | t]."""
    if not gens:
        return all(x == 0 for x in target)
    k = len(gens)
    rref, pivots, _ = _gauss_jordan([[g[i] for g in gens] + [x] for i, x in enumerate(target)], k)
    if len(pivots) != k:
        raise ValueError("generators must be linearly independent")
    if any(row[k] != 0 for row in rref[k:]):
        return False
    return all(row[k].denominator == 1 for row in rref[:k])


@st.composite
def _span_cases(draw):
    """(target, generators) of rank 1-6, entries -3..3: in the span, off it by a small step, or anywhere."""
    n = draw(st.integers(1, 6))
    gens = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=n))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens)))
    target = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(n)]
    kind = draw(st.sampled_from(["in", "near", "any"]))
    if kind == "near":
        target[draw(st.integers(0, n - 1))] += draw(st.sampled_from([-2, -1, 1, 2]))
    elif kind == "any":
        target = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return tuple(target), tuple(gens)


def _verdict(test, *args):
    try:
        return test(*args)
    except ValueError as exc:
        return str(exc)


@given(_span_cases())
def test_in_integer_span_matches_fraction_solve(case):
    target, gens = case
    assert _verdict(in_integer_span, target, gens) == _verdict(fraction_in_integer_span, target, gens)


@given(_span_cases())
def test_group_spec_independence_matches_fraction_rank(case):
    _, gens = case
    refused = _verdict(GroupSpec, len(gens[0]), gens) == "center generators must be linearly independent"
    assert refused == (_rank(gens) < len(gens))


def test_in_integer_span_sees_rational_but_not_integer_combinations():
    # (1, 1) = (1/2)(2, 0) + (1/2)(0, 2): in the rational span only
    assert not in_integer_span((1, 1), ((2, 0), (0, 2)))
    assert fraction_in_integer_span((1, 1), ((2, 0), (0, 2))) is False
    assert in_integer_span((2, -4), ((2, 0), (0, 2)))


# -- the dominance check at the public boundary ---------------------------


class _Entry(enum.IntEnum):
    TWO = 2


class _OnceIterable:
    """An iterable that counts its passes."""

    def __init__(self, entries):
        self.entries, self.passes = entries, 0

    def __iter__(self):
        self.passes += 1
        return iter(self.entries)


def _outcome(call):
    try:
        return "admitted", call()
    except ValueError as refusal:
        return "refused", re.sub(r" at 0x[0-9a-f]+", "", str(refusal))


def test_boundary_refuses_and_admits_as_check_weight_then_is_dominant():
    # each public entry point with its own dominance refusal, against check_weight and then
    # _is_dominant on the same argument: the same refusal text, or the same result on the checked
    # tuple; a generator stands for an argument that can be iterated only once
    from satkit import hecke, repring, symfunc

    entry_points = [
        (repring.irreducible, "highest weight must be dominant: {}"),
        (hecke.basis, "basis coweight must be dominant: {}"),
        (symfunc.monomial, "monomial wants a dominant weight: {}"),
        (symfunc.schur, "highest weight must be dominant: {}"),
        (symfunc.hall_littlewood, "highest weight must be dominant: {}"),
        (repring.dimension, "highest weight must be dominant: {}"),
        (symfunc.weight_multiset, "highest weight must be dominant: {}"),
    ]
    big = 10**19 + 7  # 20 digits
    arguments = [
        lambda: [2, 1, 0],
        lambda: (2, 1, 0),
        lambda: (3, 3, -1),
        lambda: [0, 1],
        lambda: (x for x in (2, 0, -1)),
        lambda: (x for x in (0, 2)),
        lambda: (True, False),
        lambda: (1, False),
        lambda: (_Entry.TWO, 1, 0),
        lambda: (1, _Entry.TWO),
        lambda: (2.0, 1),
        lambda: (2, 1.5),
        lambda: "21",
        lambda: ("2", "1"),
        lambda: (),
        lambda: [],
        lambda: (big, 0),
        lambda: (0, big),
        lambda: (big, big - 1, -big),
    ]
    seen = Counter()
    for call, refusal in entry_points:
        for make in arguments:

            def reference():
                w = make()
                t = check_weight(w)
                if not _is_dominant(t):
                    raise ValueError(refusal.format(t))
                return call(tuple(map(int, t)))

            got, expected = _outcome(lambda: call(make())), _outcome(reference)
            assert got == expected, (call.__name__, make())
            seen[got[0]] += 1
            once = _OnceIterable(tuple(make()))
            assert _outcome(lambda: call(once))[0] == got[0] and once.passes == 1, (call.__name__, make())
    assert seen == {"admitted": 43, "refused": 90}  # 7 dominant arguments at 7 entry points, 6 calls past the pattern cap
    admitted = repring.irreducible(_Entry.TWO for _ in range(1))
    assert admitted == repring.irreducible((2,)) and type(admitted.support()[0][0]) is _Entry
