"""The small value classes: QuadExt, GroupSpec, SigmaAction, TateConfig, HOperator.

They are plain __slots__ classes.  The repr strings and constructor error
texts below are pinned to what the earlier frozen-dataclass versions printed.
That HOperator is unhashable is tested in test_tate.py.
"""

from fractions import Fraction
from itertools import product

import pytest

from satkit.laurent import QuadExt
from satkit.plattice import PLattice, enumerate_between, smith_invariants
from satkit.rootdata import GroupSpec
from satkit.symfunc import SymPoly
from satkit.tate import (
    HOperator,
    TateConfig,
    h_operator,
    hecke_coweight,
    similitude_unitary_config,
    std_with_twist,
    unitary_config,
    v_binomial,
)
from satkit.trace_k import SigmaAction

REPRS = [
    (QuadExt(Fraction(1), Fraction(1, 2), Fraction(2)), "(1 + 1/2*sqrt(2))"),
    (GroupSpec(3, ((1, 1, 1),)), "GroupSpec(n=3, center_generators=((1, 1, 1),))"),
    (GroupSpec(2), "GroupSpec(n=2, center_generators=())"),
    (SigmaAction.identity(2), "SigmaAction(matrix=((1, 0), (0, 1)), order=1)"),
    (
        unitary_config(3),
        "TateConfig(group=GroupSpec(n=3, center_generators=((1, 1, 1),)), "
        "sigma=SigmaAction(matrix=((0, 0, -1), (0, -1, 0), (-1, 0, 0)), order=2), blocks=(3,))",
    ),
    (
        similitude_unitary_config(1),
        "TateConfig(group=GroupSpec(n=4, center_generators=((1, 1, 1, 0), (0, 0, 0, 1))), "
        "sigma=SigmaAction(matrix=((0, 0, -1, 0), (0, -1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1)), order=2), "
        "blocks=(3, 1))",
    ),
    (h_operator(1), "HOperator(r=1, (1-p-2p^2)*T[p,0] + T[p,1])"),
    (HOperator(r=3, coeffs={}), "HOperator(r=3, 0)"),
]


@pytest.mark.parametrize("value,text", REPRS, ids=lambda x: type(x).__name__ if not isinstance(x, str) else None)
def test_repr_is_pinned(value, text):
    assert repr(value) == text


def _values():
    """Equal pairs built separately, and unequal values of every class."""
    return [
        QuadExt(Fraction(1), Fraction(2), Fraction(3)),
        QuadExt(1, 2, 3),
        QuadExt(Fraction(1), Fraction(1, 3), Fraction(3)),
        GroupSpec(3, ((1, 1, 1),)),
        GroupSpec(3, [[1, 1, 1]]),
        GroupSpec(3),
        SigmaAction(((0, -1), (-1, 0)), 2),
        SigmaAction([[0, -1], [-1, 0]], 2),
        SigmaAction(((0, -1), (-1, 0)), 4),
        SigmaAction.identity(2),
        unitary_config(3),
        TateConfig(GroupSpec(3, ((1, 1, 1),)), unitary_config(3).sigma, (3,)),
        TateConfig(GroupSpec(3, ((1, 1, 1),)), unitary_config(3).sigma),
        similitude_unitary_config(2),
        similitude_unitary_config(1),
    ]


def test_equal_values_hash_equal():
    values = _values()
    equal_pairs = 0
    for a, b in product(values, repeat=2):
        assert (a == b) == (b == a) and (a != b) == (not a == b), (a, b)
        if a == b:
            assert hash(a) == hash(b), (a, b)
            equal_pairs += a is not b
    assert equal_pairs == 2 + 2 + 2 + 6  # ordered pairs: QuadExt, GroupSpec, SigmaAction, three TateConfigs


def test_comparison_with_other_types_is_false():
    ops = [h_operator(1), HOperator(1, {})]
    for a in _values() + ops:
        for other in [None, 1, "x", (), object(), *(v for v in _values() + ops if type(v) is not type(a))]:
            assert (a == other) is False and (a != other) is True, (a, other)


@pytest.mark.parametrize("cfg", [unitary_config(3), similitude_unitary_config(2)], ids=["U3", "GU5"])
def test_tate_config_json_round_trip(cfg):
    back = TateConfig.from_json(cfg.to_json())
    assert back == cfg and hash(back) == hash(cfg)


@pytest.mark.parametrize(
    "cls,args,message",
    [
        (GroupSpec, (0,), "rank must be a positive int: 0"),
        (GroupSpec, ("2",), "rank must be a positive int: '2'"),
        (GroupSpec, (3, ((1, 1),)), "center generator (1, 1) has rank 2, expected 3"),
        (GroupSpec, (2, ((1, 0), (2, 0))), "center generators must be linearly independent"),
        (SigmaAction, ((), 1), "sigma matrix must be square and nonempty"),
        (SigmaAction, (((1, True), (0, 1)), 1), "sigma matrix entries must be ints: True"),
        (SigmaAction, (((1, 0.5), (0, 1)), 0), "sigma matrix entries must be ints: 0.5"),
        (SigmaAction, (((1, 0), (0, 1)), 0), "order must be a positive int: 0"),
        (SigmaAction, (((2, 0), (0, 1)), 1), "sigma must be invertible over Z (det +-1)"),
        (SigmaAction, (((1, 1), (0, 1)), 2), "sigma^2 is not the identity"),
        (TateConfig, (GroupSpec(2), None), "TateConfig wants a GroupSpec and a SigmaAction"),
        (TateConfig, (GroupSpec(2), SigmaAction.identity(3)), "sigma acts on rank 3, group has rank 2"),
        (
            TateConfig,
            (GroupSpec(2), SigmaAction.identity(2), (1, 2)),
            "blocks (1, 2) must be positive ints summing to 2",
        ),
        (
            TateConfig,
            (GroupSpec(2, ((1, 0),)), SigmaAction(((0, 1), (1, 0)), 2)),
            "sigma does not preserve the center lattice at (1, 0)",
        ),
        # a bool is not an int here, as for weight and sigma-matrix entries
        (GroupSpec, (True, ((1,),)), "rank must be a positive int: True"),
        (SigmaAction, (((1,),), True), "order must be a positive int: True"),
        (
            TateConfig,
            (GroupSpec(1), SigmaAction.identity(1), (True,)),
            "blocks (True,) must be positive ints summing to 1",
        ),
        # the order check is refused past its cap before it starts, whatever sigma is
        (
            SigmaAction,
            (((0, 0, -1), (0, -1, 0), (-1, 0, 0)), 10**8),
            "checking sigma^100000000 on rank 3 takes up to 2700000000 entry products, over the cap of 10000000",
        ),
        (SigmaAction, (((2, 1), (1, 1)), 10**6), "sigma^1000000 is not the identity"),
        # nor for the int parameters of the public functions: each refuses a bool as it refuses a non-int
        (h_operator, (True,), "r must be a positive int: True"),
        (v_binomial, (True, False), "v_binomial wants integers"),
        (hecke_coweight, (True, 0), "r must be a positive int: True"),
        (hecke_coweight, (1, False), "need 0 <= j <= r, got j=False"),
        (unitary_config, (True,), "rank must be a positive int: True"),
        (similitude_unitary_config, (True,), "r must be a positive int: True"),
        (std_with_twist, (True,), "r must be a positive int: True"),
        (enumerate_between, (2, True, 0), "rank must be 1..3, got True"),
        (enumerate_between, (2, 1, False), "window must be 0..2, got False"),
        (SymPoly.central_shift, (SymPoly(1, {(1,): 1}), True), "central shift must be an int"),
        # matrix entries are ints or Fractions, as LaurentScalar coefficients: a float is not turned
        # into its binary fraction, nor a bool or a string into a number
        (PLattice, (2, [[0.1]]), "matrix entries must be ints or Fractions: 0.1"),
        (PLattice, (2, [[True]]), "matrix entries must be ints or Fractions: True"),
        (PLattice, (2, [[1, 0], [0, "1/2"]]), "matrix entries must be ints or Fractions: '1/2'"),
        (smith_invariants, ([[0.1]], 2), "matrix entries must be ints or Fractions: 0.1"),
        (PLattice.from_json, ({"p": 2, "basis": [[0.1]]},), "matrix entries must be ints or Fractions: 0.1"),
        (smith_invariants, ([[1, 0], [0, False]], 2), "matrix entries must be ints or Fractions: False"),
    ],
)
def test_constructor_errors_are_pinned(cls, args, message):
    with pytest.raises(ValueError) as info:
        cls(*args)
    assert str(info.value) == message
