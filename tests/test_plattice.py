"""Brute-force lattice oracle: Smith invariants, enumeration, counts.

The enumeration counts frozen below double as a completeness check: summing
the per-invariant bucket sizes reproduces classical cell sizes (flag variety
over F_2 has 42 Borel cosets, projective plane 7 points, ...), so a missing
or duplicated lattice would show up immediately.
"""

import ast
import inspect
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from satkit import plattice
from satkit.plattice import (
    PLattice,
    _det,
    _mat_inv,
    _mat_mul,
    _window,
    convolution_oracle,
    enumerate_between,
    inv_pair,
    schubert_count,
    smith_invariants,
    val_p,
)


def test_val_p():
    assert val_p(12, 2) == 2
    assert val_p(12, 3) == 1
    assert val_p(Fraction(3, 4), 2) == -2
    assert val_p(-8, 2) == 3
    assert val_p(0, 2) is None


def test_lattice_validation():
    PLattice(2, ((Fraction(1, 2), 0), (0, 4)))
    with pytest.raises(ValueError):
        PLattice(2, ((Fraction(1, 3), 0), (0, 1)))  # denominator not a 2-power
    with pytest.raises(ValueError):
        PLattice(2, ((1, 1), (1, 1)))  # singular
    with pytest.raises(ValueError):
        PLattice(5, ((1, 0), (0, 1)))  # unsupported prime


def test_same_lattice_under_column_operations():
    std = PLattice.standard(2, 2)
    assert std.same_lattice(PLattice(2, ((1, 1), (0, 1))))
    assert std.same_lattice(PLattice(2, ((1, 0), (3, 1))))  # 3 is a 2-unit
    assert not std.same_lattice(PLattice(2, ((2, 0), (0, 1))))
    assert std.scaled(1).same_lattice(PLattice.from_coweight((1, 1), 2))


def test_smith_invariants_examples():
    assert smith_invariants([[2, 1], [0, 2]], 2) == (2, 0)
    assert smith_invariants([[4, 0], [0, 1]], 2) == (2, 0)
    assert smith_invariants([[1, 0], [0, 1]], 2) == (0, 0)
    assert smith_invariants([[Fraction(1, 2), 0], [0, 4]], 2) == (2, -1)
    assert smith_invariants([[3, 0, 0], [0, 9, 0], [0, 0, 1]], 3) == (2, 1, 0)


def test_inv_pair_orientation_pin():
    # inv(standard, mu(p) standard) must be mu itself, signs included
    for p in (2, 3):
        std = PLattice.standard(2, p)
        for mu in [(0, 0), (1, 0), (1, 1), (2, 0), (1, -1), (0, -2)]:
            assert inv_pair(std, PLattice.from_coweight(mu, p)) == mu
    std3 = PLattice.standard(3, 2)
    for mu in [(1, 0, 0), (2, 1, 0), (1, 0, -1)]:
        assert inv_pair(std3, PLattice.from_coweight(mu, 2)) == mu


def test_inv_pair_requires_matching_ambient():
    a = PLattice.standard(2, 2)
    with pytest.raises(ValueError):
        inv_pair(a, PLattice.standard(2, 3))
    with pytest.raises(ValueError):
        inv_pair(a, PLattice.standard(3, 2))


def test_inv_pair_reversal():
    lattices = enumerate_between(2, 2, 1)
    for a in lattices:
        for b in lattices:
            forward = inv_pair(a, b)
            backward = inv_pair(b, a)
            assert backward == tuple(sorted((-x for x in forward), reverse=True))


def fraction_inv_pair(l1, l2):
    """The independent route: Smith invariants of B1^-1 B2 over Fractions."""
    return smith_invariants(_mat_mul(_mat_inv(l1.basis), l2.basis), l1.p)


def test_integer_inv_pair_matches_fraction_route():
    lattices = enumerate_between(2, 2, 1)
    for a in lattices:
        for b in lattices:
            assert inv_pair(a, b) == fraction_inv_pair(a, b)


@st.composite
def lattice_pairs(draw):
    """Two random lattices of rank 1..4 with p-power denominators."""
    p = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(min_value=1, max_value=4))
    entries = st.builds(
        Fraction, st.integers(min_value=-9, max_value=9), st.sampled_from((1, p, p * p))
    )
    pair = []
    for _ in range(2):
        rows = tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n))
        assume(_det(rows) != 0)
        pair.append(PLattice(p, rows))
    return pair


@given(lattice_pairs())
def test_integer_inv_pair_matches_fraction_route_on_random_lattices(pair):
    a, b = pair
    assert inv_pair(a, b) == fraction_inv_pair(a, b)


@pytest.mark.parametrize(
    "p, n, lo, hi",
    [(p, n, -nn, nn) for p in (2, 3) for n in (1, 2, 3) for nn in (0, 1)]
    + [(2, 3, 0, 2), (3, 2, 0, 3)],
)
def test_cells_match_fraction_route(p, n, lo, hi):
    lattices, cells = _window(p, n, lo, hi)
    std = PLattice.standard(n, p)
    grouped = {}
    for lat in lattices:
        grouped.setdefault(fraction_inv_pair(std, lat), []).append(lat)
    assert cells == {key: tuple(group) for key, group in grouped.items()}


def test_lattice_route_shares_no_code_with_transform_route():
    tree = ast.parse(inspect.getsource(plattice))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    assert not imported & {"hecke", "symfunc", "laurent"}


def test_enumeration_window_counts():
    assert len(enumerate_between(2, 2, 0)) == 1
    assert len(enumerate_between(2, 2, 1)) == 15
    assert len(enumerate_between(2, 3, 1)) == 129


def test_enumeration_has_no_duplicates():
    lattices = enumerate_between(2, 2, 1)
    for i, a in enumerate(lattices):
        for b in lattices[i + 1 :]:
            assert not a.same_lattice(b)


def test_enumeration_invariant_distribution():
    std = PLattice.standard(2, 2)
    dist = Counter(inv_pair(std, lat) for lat in enumerate_between(2, 2, 1))
    assert dict(dist) == {
        (0, 0): 1,
        (1, 0): 3,
        (1, 1): 1,
        (0, -1): 3,
        (-1, -1): 1,
        (1, -1): 6,
    }
    std3 = PLattice.standard(3, 2)
    dist3 = Counter(inv_pair(std3, lat) for lat in enumerate_between(2, 3, 1))
    assert dist3[(1, 0, -1)] == 42  # full flag variety of GL_3 over F_2
    assert dist3[(1, 0, 0)] == 7
    assert dist3[(0, 0, 0)] == 1


def test_enumeration_respects_window():
    std = PLattice.standard(2, 2)
    for lat in enumerate_between(2, 2, 1):
        assert all(-1 <= e <= 1 for e in inv_pair(std, lat))


def test_every_window_coweight_is_hit():
    lattices = enumerate_between(3, 2, 1)
    for mu in [(1, 1), (1, 0), (0, 0), (1, -1), (0, -1), (-1, -1)]:
        target = PLattice.from_coweight(mu, 3)
        assert sum(target.same_lattice(lat) for lat in lattices) == 1


def test_schubert_counts():
    assert schubert_count((1, 0), 2) == 3
    assert schubert_count((1, 0), 3) == 4
    assert schubert_count((1, 1), 2) == 1
    assert schubert_count((0, 0), 3) == 1
    assert schubert_count((1, 0, 0), 2) == 7
    assert schubert_count((1, 1, 0), 2) == 7
    assert schubert_count((1, 0, 0), 3) == 13
    assert schubert_count((2, 0), 2) == 6
    assert schubert_count((2, 0), 3) == 12
    assert schubert_count((1, -1), 2) == 6


def test_convolution_oracle_gl2():
    assert convolution_oracle((1, 0), (1, 0), (2, 0), 2) == 1
    assert convolution_oracle((1, 0), (1, 0), (1, 1), 2) == 3
    assert convolution_oracle((1, 0), (1, 0), (1, 1), 3) == 4
    assert convolution_oracle((1, 0), (1, 0), (0, 0), 2) == 0


def test_domain_caps_are_enforced():
    with pytest.raises(ValueError):
        enumerate_between(5, 2, 1)
    with pytest.raises(ValueError):
        enumerate_between(2, 4, 1)
    with pytest.raises(ValueError):
        enumerate_between(2, 2, 3)
    with pytest.raises(ValueError):
        schubert_count((5, 0), 2)  # window width exceeds the cap
    # width 4 still fits in the asymmetric window [0, 4]
    assert schubert_count((4, 0), 2) == 24  # = p^3 (p+1)


def test_json_round_trip():
    lat = PLattice(2, ((Fraction(1, 2), 1), (0, 4)))
    data = lat.to_json()
    assert data["basis"] == [["1/2", "1"], ["0", "4"]]
    assert PLattice.from_json(data) == lat
