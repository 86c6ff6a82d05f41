"""Brute-force lattice oracle: Smith invariants, enumeration, counts.

The enumeration counts frozen below double as a completeness check: summing
the per-invariant bucket sizes reproduces classical cell sizes (flag variety
over F_2 has 42 Borel cosets, projective plane 7 points, ...), so a missing
or duplicated lattice would show up immediately.
"""

import ast
import inspect
import itertools
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from satkit import hecke, plattice
from satkit.plattice import (
    PLattice,
    _cells,
    _window,
    convolution_oracle,
    enumerate_between,
    inv_pair,
    schubert_count,
)
from satkit.rootdata import _mat_identity, _mat_mul

# -- the Fraction route: the reference the integer kernels are held to ------


def val_p(x, p):
    """The p-adic valuation of a rational, None for 0."""
    x = Fraction(x)
    if x == 0:
        return None
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _gauss_jordan(rows, ncols=None):
    """Gauss-Jordan elimination over Fractions, the library's kernel before the integer one.

    Pivots are sought in the first ncols columns (all of them by default);
    row operations act on whole rows, so further columns ride along as an
    augmented block.  Returns (rref, pivots, det): the reduced rows, the
    pivot columns in order, and the product of the pivots signed by the row
    swaps, which is the determinant when the matrix is square and every
    column has a pivot.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    pivots = []
    det = Fraction(1)
    for col in range(ncols):
        top = len(pivots)
        pivot = next((r for r in range(top, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        if pivot != top:
            mat[top], mat[pivot] = mat[pivot], mat[top]
            det = -det
        lead = mat[top][col]
        det *= lead
        mat[top] = [x / lead for x in mat[top]]
        for r in range(len(mat)):
            if r != top and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[top])]
        pivots.append(col)
    return mat, pivots, det


def _rank(rows):
    """Rank over Q of a rational matrix."""
    return len(_gauss_jordan(rows)[1])


def _det(rows):
    """Determinant of a square rational matrix, as a Fraction."""
    _, pivots, det = _gauss_jordan(rows)
    return det if len(pivots) == len(rows) else Fraction(0)


def _mat_inv(rows):
    """Inverse of a square rational matrix; ValueError when it is singular."""
    n = len(rows)
    aug = [list(row) + list(unit) for row, unit in zip(rows, _mat_identity(n))]
    rref, pivots, _ = _gauss_jordan(aug, n)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in rref)


def smith_invariants(mat, p):
    """Valuations of the elementary divisors of a nonsingular matrix at p.

    Sorted weakly decreasing.  Valuation-pivot elimination: pick any entry of
    minimal valuation, record it, clear its row and column (the multipliers
    entry/pivot all have valuation >= 0), recurse on the rest.
    """
    m = [[Fraction(x) for x in row] for row in mat]
    n = len(m)
    if _det(m) == 0:
        raise ValueError("smith_invariants wants a nonsingular matrix")
    rows = list(range(n))
    cols = list(range(n))
    out = []
    while rows:
        best = None
        for i in rows:
            for j in cols:
                v = val_p(m[i][j], p)
                if v is not None and (best is None or v < best[0]):
                    best = (v, i, j)
        v, pi, pj = best  # nonsingular, so some entry is nonzero
        pivot = m[pi][pj]
        # clear the pivot column by row operations (multipliers in Z_(p))
        for i in rows:
            if i != pi and m[i][pj] != 0:
                f = m[i][pj] / pivot
                for j in cols:
                    m[i][j] -= f * m[pi][j]
        # clear the pivot row by column operations; the pivot column is
        # already zero off the pivot, so only row pi changes
        for j in cols:
            if j != pj and m[pi][j] != 0:
                f = m[pi][j] / pivot
                for i in rows:
                    m[i][j] -= f * m[i][pj]
        out.append(v)
        rows.remove(pi)
        cols.remove(pj)
    return tuple(sorted(out, reverse=True))


def fraction_inv_pair(l1, l2):
    """The independent route: Smith invariants of B1^-1 B2 over Fractions."""
    return smith_invariants(_mat_mul(_mat_inv(l1.basis), l2.basis), l1.p)


def same_lattice(a, b):
    """Equality as Z_(p)-lattices: every elementary divisor of B1^-1 B2 a unit."""
    return a.p == b.p and a.n == b.n and inv_pair(a, b) == (0,) * a.n


def window(p, n, lo, hi):
    """Lattices L with p^hi L0 <= L <= p^lo L0, each once, and their cells.

    Rebuilt from the cached integer shapes H as the unvalidated lattices
    p^lo H; cells are keyed by inv(L0, L) and hold the same PLattice objects,
    in the window's order, the groups of each cell of _cells put together.
    """
    made = {h: PLattice._trusted(p, h, -lo) for h in _window(p, n, hi - lo)}
    cell_of = {h: key for key, split in _cells(p, n, hi - lo).items() for _, _, group in split for h in group}
    assert cell_of.keys() == made.keys()
    cells = {}
    for h, lat in made.items():
        cells.setdefault(tuple(e + lo for e in cell_of[h]), []).append(lat)
    return tuple(made.values()), {key: tuple(group) for key, group in cells.items()}


@lru_cache(maxsize=None)
def smith_cells(p, n, depth):
    """The depth window's cells by one Smith elimination of each shape H: the route the key read replaced."""
    cells = {}
    for h in _window(p, n, depth):
        cells.setdefault(plattice._int_smith(h, p, depth + 1), []).append(h)
    return cells


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
        PLattice(11, ((1, 0), (0, 1)))  # unsupported prime


def test_prime_must_be_an_int():
    for p in (2.0, True, Fraction(2)):
        with pytest.raises(ValueError, match="p must be one of"):
            PLattice(p, ((1, 0), (0, 1)))
        with pytest.raises(ValueError, match="p must be one of"):
            schubert_count((1, 0), p)


def test_same_lattice_under_column_operations():
    std = PLattice.standard(2, 2)
    assert same_lattice(std, PLattice(2, ((1, 1), (0, 1))))
    assert same_lattice(std, PLattice(2, ((1, 0), (3, 1))))  # 3 is a 2-unit
    assert not same_lattice(std, PLattice(2, ((2, 0), (0, 1))))
    assert same_lattice(std.scaled(1), PLattice.from_coweight((1, 1), 2))


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


@st.composite
def deep_lattice_pairs(draw):
    """Two random lattices of rank 1..8, entries carrying factors p^0..p^6, exponents e in 0..3."""
    p = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(min_value=1, max_value=8))
    entries = st.builds(
        lambda x, j: x * p**j, st.integers(min_value=-9, max_value=9), st.integers(min_value=0, max_value=6)
    )
    pair = []
    for _ in range(2):
        rows = tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n))
        assume(plattice._det_int(rows) != 0)
        den = p ** draw(st.integers(min_value=0, max_value=3))
        pair.append(PLattice(p, tuple(tuple(Fraction(x, den) for x in row) for row in rows)))
    return pair


@given(deep_lattice_pairs())
def test_inv_pair_matches_fraction_route_at_rank_up_to_8(pair):
    # the valuations reach past p^6, so a modulus p^k too small for them would show
    a, b = pair
    assert inv_pair(a, b) == fraction_inv_pair(a, b)


@given(deep_lattice_pairs(), st.integers(min_value=-2, max_value=2))
def test_scaled_lattices_find_their_determinant_when_asked(pair, k):
    # a lattice from the trusted constructor keeps no v_p(det A); inv_pair computes it
    a, b = pair
    assert inv_pair(a.scaled(k), b.scaled(k)) == inv_pair(a, b)


def test_inv_pair_reuses_the_constructors_determinant(monkeypatch):
    a = PLattice(3, ((9, 1, 0, 2), (0, 3, 1, 1), (5, 0, 27, 0), (1, 1, 1, 1)))
    b = PLattice(3, ((1, 0, 0, 0), (0, Fraction(1, 3), 0, 0), (0, 0, 9, 3), (2, 0, 0, 1)))
    std = PLattice.standard(2, 3)
    calls = []
    det = plattice._det_int
    monkeypatch.setattr(plattice, "_det_int", lambda m: calls.append(len(m)) or det(m))
    want = inv_pair(a, b)
    assert calls == []
    # window enumeration takes no determinant; a trusted lattice computes its own once, when inv_pair asks
    lattice = enumerate_between(3, 2, 1)[-1]
    scaled = a.scaled(0)
    assert calls == []
    assert [inv_pair(scaled, b), inv_pair(scaled, b)] == [want, want]
    assert inv_pair(std, lattice) == fraction_inv_pair(std, lattice)
    assert calls == [4, 2]


@st.composite
def rational_matrices(draw):
    """A nonsingular rational matrix of rank 1..4, denominators not only powers of p."""
    p = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(min_value=1, max_value=4))
    entries = st.builds(
        Fraction, st.integers(min_value=-9, max_value=9), st.sampled_from((1, 5, p, 5 * p * p))
    )
    rows = tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n))
    assume(_det(rows) != 0)
    return p, rows


@given(rational_matrices())
def test_integer_smith_invariants_match_fraction_route(case):
    p, rows = case
    assert plattice.smith_invariants(rows, p) == smith_invariants(rows, p)


def test_integer_smith_invariants_reject_bad_input():
    with pytest.raises(ValueError):
        plattice.smith_invariants([[1, 2], [2, 4]], 2)
    with pytest.raises(ValueError):
        plattice.smith_invariants([[1, 0]], 2)
    with pytest.raises(ValueError):
        plattice.smith_invariants([[1]], 11)


@pytest.mark.parametrize(
    "p, n, lo, hi",
    [(p, n, -nn, nn) for p in (2, 3) for n in (1, 2, 3) for nn in (0, 1)]
    + [(2, 3, 0, 2), (3, 2, 0, 3)],
)
def test_cells_match_fraction_route(p, n, lo, hi):
    lattices, cells = window(p, n, lo, hi)
    std = PLattice.standard(n, p)
    grouped = {}
    for lat in lattices:
        grouped.setdefault(fraction_inv_pair(std, lat), []).append(lat)
    assert cells == {key: tuple(group) for key, group in grouped.items()}


@pytest.mark.parametrize(
    "p, n, lo, hi", [(2, 2, -1, 1), (2, 3, -1, 1), (3, 3, -1, 1), (2, 3, 0, 2)]
)
def test_window_lattices_equal_validated_ones(p, n, lo, hi):
    # window lattices skip validation; the public constructor must agree
    for lat in window(p, n, lo, hi)[0]:
        checked = PLattice(p, lat.basis)
        assert lat == checked and hash(lat) == hash(checked)
        assert all(type(x) is Fraction for row in lat.basis for x in row)


def test_lattice_route_shares_no_code_with_transform_route():
    tree = ast.parse(inspect.getsource(plattice))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    assert not imported & {"hecke", "symfunc", "laurent"}
    # and of rootdata only the weight checks and the integer determinant
    from_rootdata = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "rootdata"
        for alias in node.names
    }
    assert from_rootdata == {"check_weight", "is_dominant", "_det_int"}


_SCHUR_ROUTE_RUN = """
import itertools
from satkit import hecke, symfunc

box = [w for w in itertools.product(range(2, -3, -1), repeat=3) if w[0] >= w[1] >= w[2]]
for i, a in enumerate(box):
    assert hecke.inverse_satake(hecke.satake(hecke.basis(a))) == hecke.basis(a)
    for b in box[i:]:
        hecke.convolve(hecke.basis(a), hecke.basis(b))
print(symfunc._orbit_product.cache_info().currsize, symfunc._tensor_irreducibles.cache_info().currsize)
"""


def test_transform_route_never_takes_the_monomial_product():
    # the transforms run in the Schur basis, and on this box convolve takes the Pieri rules: the
    # orbit product is SymPoly's alone, and the Brauer-Klimyk table, which convolve's Schur route
    # reads only for long two-row products, stays empty
    run = subprocess.run([sys.executable, "-c", _SCHUR_ROUTE_RUN], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "0 0\n"
    tree = ast.parse(inspect.getsource(hecke))
    from_symfunc = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "symfunc"
        for alias in node.names
    }
    assert not from_symfunc & {"_mul_terms", "_orbit_product"}


def test_hecke_leaves_the_keying_of_its_table_to_symfunc():
    # the structure-constant table is built by symfunc._on_cores, which alone caches the
    # Satake-side tables on cores up to duality; hecke has no cache and no keying of its own
    tree = ast.parse(inspect.getsource(hecke))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    from_symfunc = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "symfunc"
        for alias in node.names
    }
    assert "_on_cores" in from_symfunc
    assert not imported & {"functools", "lru_cache", "cache"}
    assert not {name for name in from_symfunc if any(word in name for word in ("central", "dual", "moved"))}


_NO_ADJUGATE_RUN = """
import itertools
from satkit import hecke, plattice

calls = {"det": 0, "inv": 0}
inside = []


def counted(name, f):
    def wrapped(*args):
        calls[name] += bool(inside)
        return f(*args)
    return wrapped


def within(f, *args):
    inside.append(1)
    try:
        return f(*args)
    finally:
        inside.pop()


plattice._det_int = counted("det", plattice._det_int)
plattice._inv = counted("inv", plattice._inv)
box = [w for w in itertools.product(range(2, -1, -1), repeat=3) if w[0] >= w[1] >= w[2]]
total = 0
for p in (2, 3):
    for a in box:
        for b in box:
            for nu in hecke.convolve(hecke.basis(a), hecke.basis(b)).support():
                total += within(plattice.convolution_oracle, a, b, nu, p)
oracle = (total, calls["det"], calls["inv"])
# the counters do see inv_pair's determinants: a trusted lattice has none kept
std = plattice.PLattice.standard(3, 2).scaled(0)
within(plattice.inv_pair, std, std)
print(*oracle, calls["det"], calls["inv"])
"""


def test_oracle_takes_no_adjugate():
    # a fresh interpreter, so the windows are enumerated inside the counted oracle calls too
    run = subprocess.run([sys.executable, "-c", _NO_ADJUGATE_RUN], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    total, det, inv, det_control, inv_control = map(int, run.stdout.split())
    assert total > 0 and (det, inv) == (0, 0)
    assert det_control > 0 and inv_control == 1


def _hnf_rows_by_filtering(p, depth, diag):
    """The shapes (H, X) of the depth window with diagonal p^diag, by trying every offset of every row.

    The reference for plattice._hnf_rows: each row of H runs over all of
    range(p^diag[i])^i, lexicographically, and is kept when its row of X =
    p^depth H^-1, by forward substitution, is integral.
    """
    n = len(diag)
    found = []

    def extend(hs, xs):
        i = len(hs)
        if i == n:
            found.append((tuple(hs), tuple(xs)))
            return
        d = p ** diag[i]
        for off in itertools.product(range(d), repeat=i):
            x = []
            for k in range(i):
                s = sum(off[j] * xs[j][k] for j in range(k, i))
                if s % d:
                    break
                x.append(-s // d)
            else:
                x.append(p ** (depth - diag[i]))
                zeros = (0,) * (n - i - 1)
                extend(hs + [off + (d,) + zeros], xs + [tuple(x) + zeros])

    extend([], [])
    return found


@pytest.mark.parametrize(
    "p, n, depth",
    [(p, n, d) for p in (2, 3) for n in (1, 2, 3) for d in (0, 1, 2)]
    + [(2, 4, 2)]
    + [(p, n, d) for p in (5, 7) for n in (1, 2, 3) for d in (0, 1)]
    + [(3, 4, 1)],
)
def test_solved_window_rows_match_filtered_ones(p, n, depth):
    # the same shapes and inverses, in the same order, row by row and for the whole window
    every = []
    for diag in itertools.product(range(depth + 1), repeat=n):
        rows = plattice._hnf_rows(p, depth, diag)
        assert rows == _hnf_rows_by_filtering(p, depth, diag), diag
        every += rows
    assert list(_window(p, n, depth).items()) == every


def per_lattice_count(lam, mu, nu, p, dual, lo, depth):
    """convolution_oracle's count by one scaling and one Smith elimination per shape of a cell.

    The routes the grouped count replaced: the cell is classified by
    elimination, and each matrix X D (lam's cell, dual False) or D H (mu*'s,
    dual True) is eliminated until its first valuation that differs from the
    one wanted.  plattice keeps only the D H route and counts lam's cell as
    mu*'s cell of the starred triple (mu*, lam*, nu*); X D is kept here as
    the independent reference for that side.
    """
    n, m = len(nu), min(nu)
    scale = [p ** (x - m) for x in nu]
    if dual:
        cell = smith_cells(p, n, depth).get(tuple(-x - lo for x in reversed(mu)), ())
        mats = ([[x * s for x in row] for row, s in zip(h, scale)] for h in cell)
        want = [x - m - lo for x in reversed(lam)]
    else:
        window = _window(p, n, depth)
        cell = smith_cells(p, n, depth).get(tuple(x - lo for x in lam), ())
        mats = ([[x * s for x, s in zip(row, scale)] for row in window[h]] for h in cell)
        want = [x + lo + depth - m for x in reversed(mu)]
    # a valuation past max(want) is a mismatch already; k >= 1 keeps p^k an int
    k = max(1, max(want) + 1)
    return sum(all(v == w for (v, _), w in zip(plattice._smith_steps(mat, p, k), want)) for mat in mats)


@pytest.mark.parametrize(
    "n, top, p", [(n, 2, p) for n in (1, 2, 3) for p in (2, 3)] + [(4, 1, 2)]
)
def test_grouped_count_matches_per_lattice_count(n, top, p):
    # both sides forced, for every dominant lam, mu in the box and nu whose total is within one of
    # theirs: only the equal totals can count anything, the others take the determinant's refusal.
    # Rank 4 eliminates the members of the groups that pass, rank <= 3 counts groups whole
    box = _dominant_box(n, 0, top)
    nonzero = 0
    for lam in box:
        lo, hi = plattice._window_for(lam, p)
        for mu in box:
            slo, shi = plattice._window_for(tuple(-x for x in reversed(mu)), p)
            for nu in _dominant_box(n, 0, 2 * top):
                if abs(sum(nu) - sum(lam) - sum(mu)) > 1:
                    continue
                star = [tuple(-x for x in reversed(w)) for w in (mu, lam, nu)]
                for dual, side_lo, side_depth in ((False, lo, hi - lo), (True, slo, shi - slo)):
                    want = per_lattice_count(lam, mu, nu, p, dual, side_lo, side_depth)
                    # lam's cell is mu*'s cell of the starred triple
                    got = plattice._oracle_count(*((lam, mu, nu) if dual else star), p, side_lo, side_depth)
                    assert got == want, (lam, mu, nu, dual)
                    nonzero += want > 0
    assert nonzero > 0


@pytest.mark.parametrize("p, n, depth", [(2, 3, 2), (3, 3, 2), (3, 2, 3), (2, 4, 1)])
def test_group_keys_match_fraction_route(p, n, depth):
    # r: least valuation of each row of H; c: of each column of p^depth H^-1; the groups split each
    # cell, inv(L0, H), and each keeps the window's order
    window = list(_window(p, n, depth))
    flat = []
    for cell, split in _cells(p, n, depth).items():
        assert len({(r, c) for r, c, _ in split}) == len(split)
        for r, c, shapes in split:
            assert list(shapes) == [h for h in window if h in shapes]
            for h in shapes:
                x = [[p**depth * y for y in row] for row in _mat_inv(h)]
                assert r == tuple(min(val_p(y, p) for y in row if y) for row in h)
                assert c == tuple(min(val_p(y, p) for y in col if y) for col in zip(*x))
                assert smith_invariants(h, p) == cell
            flat += shapes
    assert sorted(flat) == sorted(window) and len(set(flat)) == len(flat)


def _window_lattices(p, n, depth):
    """The number of lattices in the depth window of rank n, as the budget counts it: the sum of its cell sizes."""
    return sum(plattice._poincare_sizes(p, n, depth).values())


def _cells_against_elimination(depths):
    """Hold each shape's cell in _cells to its elimination, over the windows of rank <= 3 under the budget.

    At rank <= 3 the cell is read off the shape's key; the number of shapes
    is returned.
    """
    shapes = 0
    for p, n, depth in itertools.product((2, 3, 5, 7), (1, 2, 3), depths):
        if _window_lattices(p, n, depth) > plattice._MAX_LATTICES:
            continue
        classified = 0
        for cell, split in _cells(p, n, depth).items():
            for _, _, group in split:
                assert all(plattice._int_smith(h, p, depth + 1) == cell for h in group), (p, n, depth, cell)
                classified += len(group)
        assert classified == len(_window(p, n, depth)), (p, n, depth)
        shapes += classified
    return shapes


def test_cells_read_off_keys_match_elimination():
    assert _cells_against_elimination(range(3)) == 12633


@pytest.mark.skipif(not os.environ.get("SATKIT_SLOW_ORACLE"), reason="about 100,000 eliminations")
def test_cells_read_off_keys_match_elimination_largest_windows():
    # every window of rank <= 3 the budget admits: depth 4 is refused at p = 5 and 7
    assert _cells_against_elimination(range(5)) == 97702


@pytest.mark.parametrize("n, top, p", [(2, 3, 2), (2, 3, 3), (3, 2, 2)])
def test_smaller_cell_route_matches_lam_cell_route(n, top, p):
    # inv(L, nu(p) L0) = mu iff inv(nu(p) L0, L) = mu*: a bijection of lattices, not commutativity
    box = _dominant_box(n, 0, top)
    sides = Counter()
    for lam in box:
        lo, hi = plattice._window_for(lam, p)
        for mu in box:
            slo, shi = plattice._window_for(tuple(-x for x in reversed(mu)), p)
            for nu in _dominant_box(n, 0, 2 * top):
                if sum(nu) != sum(lam) + sum(mu):
                    continue
                # lam's cell is walked as mu*'s cell of the starred triple (mu*, lam*, nu*)
                star = tuple(tuple(-x for x in reversed(w)) for w in (mu, lam, nu))
                args = plattice._oracle_cell(lam, mu, nu, p)
                dual = args[:3] == (lam, mu, nu)
                sides[dual] += 1
                assert args == ((lam, mu, nu, p, slo, shi - slo) if dual else (*star, p, lo, hi - lo))
                by_lam = plattice._oracle_count(*star, p, lo, hi - lo)
                by_dual = plattice._oracle_count(lam, mu, nu, p, slo, shi - slo)
                assert by_dual == by_lam, (lam, mu, nu)
                assert convolution_oracle(lam, mu, nu, p) == by_lam, (lam, mu, nu)
    assert sides[True] > 0 and sides[False] > 0


@pytest.mark.parametrize("n, top, p", [(2, 3, p) for p in (2, 3, 5, 7)] + [(3, 2, p) for p in (2, 3)])
def test_oracle_walks_mu_stars_cell_exactly_when_smaller_and_no_deeper(n, top, p):
    # the side is read off the Poincare formula and the two windows, not off what _oracle_cell returns:
    # mu*'s cell when its window is no deeper than lam's and |mu's cell| < |lam's cell|, else lam's
    box = _dominant_box(n, 0, top)
    seen = Counter()
    for lam in box:
        lo, hi = plattice._window_for(lam, p)
        for mu in box:
            slo, shi = plattice._window_for(tuple(-x for x in reversed(mu)), p)
            nu = tuple(a + b for a, b in zip(lam, mu))
            deeper = shi - slo > hi - lo
            size_mu, size_lam = _cell_size_formula(mu, p), _cell_size_formula(lam, p)
            dual = not deeper and size_mu < size_lam
            seen["deeper" if deeper else "smaller" if dual else "tie" if size_mu == size_lam else "larger"] += 1
            star = tuple(tuple(-x for x in reversed(w)) for w in (mu, lam, nu))
            want = (lam, mu, nu, p, slo, shi - slo) if dual else (*star, p, lo, hi - lo)
            assert plattice._oracle_cell(lam, mu, nu, p) == want, (lam, mu)
    assert all(seen[case] > 0 for case in ("deeper", "smaller", "tie", "larger")), seen


_ORACLE_WORK_RUN = """
import itertools
from satkit import hecke, plattice


def box(n, top):
    return [w for w in itertools.product(range(top, -1, -1), repeat=n) if list(w) == sorted(w, reverse=True)]


tested = 0
steps = plattice._smith_steps


def counted(*args):
    global tested
    tested += 1
    return steps(*args)


plattice._smith_steps = counted
# the lattice-oracle benchmark: GL_3 at p = 2 with one factor in 0..1 and GL_2 0..3 at p = 3, the
# cells of GL_3 0..2 at p = 2 and of GL_2 0..3 at p = 3, and three windows
small, gl2 = box(3, 1), box(2, 3)
pairs = [(a, b, 2) for a in small for b in box(3, 2) if b not in small or small.index(b) >= small.index(a)]
pairs += [(a, b, 3) for i, a in enumerate(gl2) for b in gl2[i:]]
cases = [(a, b, nu, p) for a, b, p in pairs for nu in hecke.convolve(hecke.basis(a), hecke.basis(b)).support()]
plattice.enumerate_between(3, 3, 1)
classified = plattice._cells.cache_info().currsize
total = sum(plattice.convolution_oracle(*case) for case in cases)  # cold: every window and cell made here
for mu, p in [(mu, 2) for mu in box(3, 2)] + [(mu, 3) for mu in gl2]:
    plattice.schubert_count(mu, p)
for p, n in ((2, 2), (2, 3), (3, 3)):
    plattice.enumerate_between(p, n, 1)
print(classified, len(cases), total, tested)
"""


def test_oracle_work_on_the_benchmark_pairs():
    # a fresh interpreter: enumeration alone classifies no cell, and the oracle walks the smaller cells
    run = subprocess.run([sys.executable, "-c", _ORACLE_WORK_RUN], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    classified, cases, total, tested = map(int, run.stdout.split())
    assert (classified, cases, total) == (0, 132, 311)
    # no elimination at rank <= 3, cold: each cell is read off its shapes' keys (252 eliminations
    # when each shape was classified by one) and every count is a sum of group sizes (707 lattices
    # when each was eliminated, 1,145 over lam's cells alone)
    assert tested == 0


_RANK4_WORK_RUN = """
import itertools
from satkit import hecke, plattice

box = [w for w in itertools.product(range(2, -1, -1), repeat=4) if list(w) == sorted(w, reverse=True)]
pairs = [(a, b) for i, a in enumerate(box) for b in box[i:]]
cases = [(a, b, nu) for a, b in pairs for nu in hecke.convolve(hecke.basis(a), hecke.basis(b)).support()]
tested = 0
steps = plattice._smith_steps


def counted(*args):
    global tested
    tested += 1
    return steps(*args)


plattice._smith_steps = counted
total = sum(plattice.convolution_oracle(a, b, nu, 2) for a, b, nu in cases)  # cold: every window and cell made here
print(len(cases), total, tested)
"""


def test_oracle_work_at_rank_4():
    # a fresh interpreter: past rank 3 the cells are classified, and the members of passing groups
    # eliminated, one shape at a time; a change to the side choice or the key filter that adds
    # eliminations shows here
    run = subprocess.run([sys.executable, "-c", _RANK4_WORK_RUN], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    cases, total, tested = map(int, run.stdout.split())
    assert (cases, total) == (286, 3504)
    assert tested == 6014


def test_enumeration_window_counts():
    assert len(enumerate_between(2, 2, 0)) == 1
    assert len(enumerate_between(2, 2, 1)) == 15
    assert len(enumerate_between(2, 3, 1)) == 129


def test_enumeration_has_no_duplicates():
    lattices = enumerate_between(2, 2, 1)
    for i, a in enumerate(lattices):
        for b in lattices[i + 1 :]:
            assert not same_lattice(a, b)


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
        assert sum(same_lattice(target, lat) for lat in lattices) == 1


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


def _q_factorial(m, t):
    """[m]_t! = prod_{i=1..m} (1 + t + ... + t^{i-1}), the Poincare polynomial of S_m."""
    out = Fraction(1)
    for i in range(1, m + 1):
        out *= sum(t**k for k in range(i))
    return out


def _cell_size_formula(mu, p):
    """p^<2rho,mu> W(1/p) / W_mu(1/p) (Macdonald, SFHP, Ch. V)."""
    t = Fraction(1, p)
    size = _q_factorial(len(mu), t)
    for _, block in itertools.groupby(mu):
        size /= _q_factorial(len(list(block)), t)
    two_rho = sum(a - b for i, a in enumerate(mu) for b in mu[i + 1 :])
    return p**two_rho * size


def test_schubert_counts_match_poincare_polynomial_formula():
    # every dominant mu of rank 1..3 whose window is at most 3 wide
    cases = [
        (mu, p)
        for n in (1, 2, 3)
        for mu in itertools.product(range(-3, 4), repeat=n)
        if list(mu) == sorted(mu, reverse=True) and max(0, *mu) - min(0, *mu) <= 3
        for p in (2, 3)
    ]
    assert len(cases) == 158
    for mu, p in cases:
        assert schubert_count(mu, p) == _cell_size_formula(mu, p), (mu, p)


def test_convolution_oracle_gl2():
    assert convolution_oracle((1, 0), (1, 0), (2, 0), 2) == 1
    assert convolution_oracle((1, 0), (1, 0), (1, 1), 2) == 3
    assert convolution_oracle((1, 0), (1, 0), (1, 1), 3) == 4
    assert convolution_oracle((1, 0), (1, 0), (0, 0), 2) == 0


def _dominant_box(n, lo, hi):
    return [w for w in itertools.product(range(hi, lo - 1, -1), repeat=n) if list(w) == sorted(w, reverse=True)]


@pytest.mark.parametrize(
    "p, n, depth", [(p, n, d) for p in (2, 3) for n in (1, 2, 3) for d in (0, 1, 2)] + [(2, 4, 1), (3, 4, 1)]
)
def test_oracle_counts_match_adjugate_route(p, n, depth):
    # the oracle reads inv(L0, L) off D_nu H over one cell; _inv eliminates [H | p^c nu(p)] in two passes
    cells = {lam: [h for _, _, group in split for h in group] for lam, split in _cells(p, n, depth).items()}
    for nu in _dominant_box(n, 0, depth):
        target = PLattice.from_coweight(nu, p)
        for lam, group in cells.items():
            counts = Counter(plattice._inv(PLattice._trusted(p, h, 0), target) for h in group)
            # and again with lam's cell in a window below L0 (lo < 0), nu shifted alike
            c = lam[0]
            low, low_nu = tuple(x - c for x in lam), tuple(x - c for x in nu)
            for mu, count in counts.items():
                assert convolution_oracle(lam, mu, nu, p) == count, (lam, mu, nu)
                assert convolution_oracle(low, mu, low_nu, p) == count, (low, mu, low_nu)


def _oracle_against_convolve(n, top, p):
    """Every structure constant of T_a * T_b, a and b dominant in the box 0..top, at q = p."""
    box = _dominant_box(n, 0, top)
    checked = 0
    for i, a in enumerate(box):
        for b in box[i:]:
            product = hecke.convolve(hecke.basis(a), hecke.basis(b))
            # the algebra is commutative: count over the cell with the narrower window
            lam, mu = (a, b) if a[0] - a[-1] <= b[0] - b[-1] else (b, a)
            for nu, coeff in product.terms.items():
                assert hecke.specialize_v(coeff, p) == convolution_oracle(lam, mu, nu, p), (lam, mu, nu)
                checked += 1
    return checked


@pytest.mark.parametrize("top, p, coefficients", [(1, 2, 22), (1, 3, 22), (2, 2, 286)])
def test_gl4_structure_constants_match_convolve(top, p, coefficients):
    assert _oracle_against_convolve(4, top, p) == coefficients


def test_gl4_structure_constants_match_convolve_at_p3_depth2():
    assert _oracle_against_convolve(4, 2, 3) == 286


def test_gl2_structure_constants_match_convolve_as_polynomials():
    """Every coefficient of T_a * T_b, a and b in GL_2's box 0..3, at p = 2, 3, 5 and 7.

    For partitions the lattice count is the Hall polynomial g^nu_{a b}(p),
    of degree at most n(nu) - n(a) - n(b) in p, with n(x) = sum_i (i - 1)
    x_i (Macdonald, SFHP, II.4.3): at rank 2 that is nu_2 - a_2 - b_2, at
    most 3 on this box.  The transform's coefficient is checked to be a
    polynomial in q = v^2 of the same bound.  Two polynomials of degree at
    most 3 that agree at four points are equal, so the two routes agree as
    polynomials in q, not only at the primes tested.
    """
    box = _dominant_box(2, 0, 3)
    bounds = []
    for i, a in enumerate(box):
        for b in box[i:]:
            for nu, coeff in hecke.convolve(hecke.basis(a), hecke.basis(b)).terms.items():
                bound = nu[1] - a[1] - b[1]
                assert all(e % 2 == 0 and 0 <= e <= 2 * bound for e in coeff.coeffs), (a, b, nu)
                for p in (2, 3, 5, 7):
                    assert hecke.specialize_v(coeff, p) == convolution_oracle(a, b, nu, p), (a, b, nu, p)
                bounds.append(bound)
    assert len(bounds) == 83 and max(bounds) == 3


def test_gl3_structure_constants_match_convolve_as_polynomials():
    """Every coefficient of T_a * T_b, a and b in GL_3's box 0..2, as a polynomial where four primes cover it.

    The Hall polynomial g^nu_{a b}(p) has degree at most n(nu) - n(a) - n(b)
    in p, n(x) = sum_i (i - 1) x_i (Macdonald, SFHP, II.4.3); every
    transform coefficient is checked to be a polynomial in q = v^2 of that
    bound.  Where the bound is at most 3, agreement at p = 2, 3, 5 and 7
    makes the two routes agree as polynomials in q; the other coefficients
    are left to the single-prime tests.
    """
    box = _dominant_box(3, 0, 2)
    bounds = []
    for i, a in enumerate(box):
        for b in box[i:]:
            for nu, coeff in hecke.convolve(hecke.basis(a), hecke.basis(b)).terms.items():
                bound = sum(k * (x - y - z) for k, (x, y, z) in enumerate(zip(nu, a, b)))
                assert all(e % 2 == 0 and 0 <= e <= 2 * bound for e in coeff.coeffs), (a, b, nu)
                bounds.append(bound)
                if bound > 3:
                    continue
                for p in (2, 3, 5, 7):
                    assert hecke.specialize_v(coeff, p) == convolution_oracle(a, b, nu, p), (a, b, nu, p)
    assert (len(bounds), sum(bound <= 3 for bound in bounds)) == (97, 95)


def test_window_sizes_match_enumeration():
    # the cap's estimate, the Poincare-formula sum over the window's cells, is exact
    for p, n, depth in [(2, 2, 2), (2, 3, 2), (3, 3, 2), (2, 3, 4), (3, 2, 4), (2, 4, 2), (3, 4, 1), (2, 5, 1)]:
        assert _window_lattices(p, n, depth) == len(_window(p, n, depth)), (p, n, depth)
    assert _window_lattices(3, 3, 4) == 67969  # the largest window of rank <= 3
    assert _window_lattices(3, 4, 2) == 24033
    assert _window_lattices(2, 5, 2) == 55989


def _width_cells(n, width, p):
    return [
        (mu, p)
        for mu in itertools.product(range(-width, width + 1), repeat=n)
        if list(mu) == sorted(mu, reverse=True) and max(0, *mu) - min(0, *mu) == width
    ]


def test_schubert_counts_match_poincare_polynomial_formula_wider():
    # width-4 cells of rank 1..3 at p = 2, and the rank-4 cells of width <= 2
    cases = [case for n in (1, 2, 3) for case in _width_cells(n, 4, 2)]
    cases += [case for p in (2, 3) for w in (0, 1, 2) for case in _width_cells(4, w, p)]
    assert len(cases) == 130
    for mu, p in cases:
        assert schubert_count(mu, p) == _cell_size_formula(mu, p), (mu, p)


@pytest.mark.skipif(not os.environ.get("SATKIT_SLOW_ORACLE"), reason="about 4 s of window enumeration")
def test_schubert_counts_match_poincare_polynomial_formula_largest_windows():
    # windows of 40,000 to 70,000 lattices, each a few seconds cold
    cases = [case for n in (1, 2, 3) for case in _width_cells(n, 4, 3)]
    cases += _width_cells(4, 3, 2) + _width_cells(5, 2, 2)
    for mu, p in cases:
        assert schubert_count(mu, p) == _cell_size_formula(mu, p), (mu, p)


def _cache_sizes():
    return _window.cache_info().currsize, _cells.cache_info().currsize, plattice._cell_sizes.cache_info().currsize


def test_lattice_budget_refuses_before_enumeration():
    # a refused window is neither enumerated nor classified, and keeps no table of cell sizes
    before = _cache_sizes()
    with pytest.raises(ValueError, match=r"^the depth-2 window of rank 5 at p = 3 has 3622259 lattices, over the cap of 70000$"):
        convolution_oracle((2, 2, 0, 0, 0), (1, 0, 0, 0, 0), (3, 2, 0, 0, 0), 3)
    with pytest.raises(ValueError, match=r"^the depth-4 window of rank 4 at p = 2 has 821335 lattices"):
        schubert_count((4, 0, 0, 0), 2)
    assert _cache_sizes() == before
    with pytest.raises(ValueError, match=r"^the depth-1 window of rank 12 at p = 3 has 452436459318538048 lattices"):
        schubert_count((1,) + (0,) * 11, 3)
    with pytest.raises(ValueError, match=r"^rank must be <= 17, got 18$"):
        schubert_count((0,) * 18, 2)  # its window is L0 alone, but a rank-18 one is never smaller
    with pytest.raises(ValueError, match=r"^rank must be <= 17, got 10000$"):
        convolution_oracle((0,) * 10000, (0,) * 10000, (0,) * 10000, 2)
    with pytest.raises(ValueError, match=r"^the depth-4 window of rank 3 at p = 5 has 2890693 lattices"):
        enumerate_between(5, 3, 2)
    with pytest.raises(ValueError, match=r"^the depth-4 window of rank 3 at p = 7 has 37603817 lattices"):
        enumerate_between(7, 3, 2)
    assert _cache_sizes() == before
    assert schubert_count((0,) * 17, 2) == 1
    assert convolution_oracle((0,) * 17, (2,) * 17, (2,) * 17, 3) == 1
    assert schubert_count((1,) + (0,) * 5, 2) == 2**6 - 1  # the lines of F_2^6, in a window of 2825


def test_domain_caps_are_enforced():
    with pytest.raises(ValueError):
        enumerate_between(11, 2, 1)
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
    for lat in [PLattice.from_coweight((2, -1, 0), 3), PLattice.standard(2, 7), PLattice(2, ((Fraction(-3, 8), 5), (1, 0)))]:
        assert PLattice.from_json(json.loads(json.dumps(lat.to_json()))) == lat


def test_from_json_reads_only_what_to_json_writes():
    # an entry is an int, or text int() reads on each side of at most one "/"; an exponent or a
    # decimal point is refused at once, where reading it by Fraction would take seconds
    for text in ["1e-99999", "1e-999999", "0.5", "1/2/3", "1/2.0", "1/0"]:
        start = time.perf_counter()
        refusal = "zero denominator in '1/0'" if text == "1/0" else f'basis entry {text!r} is not of the form "p" or "p/q"'
        with pytest.raises(ValueError, match="^" + re.escape(refusal)):
            PLattice.from_json({"p": 2, "basis": [[text]]})
        assert time.perf_counter() - start < 1, text
    assert PLattice.from_json({"p": 2, "basis": [["-1/4", 3], [0, "2"]]}) == PLattice(2, ((Fraction(-1, 4), 3), (0, 2)))
