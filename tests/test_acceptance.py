"""Acceptance gate: one test per criterion, every comparison exact.

Run with ``pytest -v tests/test_acceptance.py`` to get one visible
pass/fail line per criterion.  Nothing here is approximate — integer and
Laurent-polynomial equality throughout, tolerance zero.  Criterion 4 is the
dual-route check of the whole package: structure constants computed through
the symmetric-function transform must equal brute-force lattice counts,
and the two sides share no code beyond weight plumbing.
"""

import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from math import comb

from satkit.hecke import basis, convolve, satake, specialize_v
from satkit.laurent import LaurentScalar, parse_scalar
from satkit.plattice import convolution_oracle, schubert_count
from satkit.repring import dimension, irreducible, tensor
from satkit.rootdata import dominance_leq, is_dominant
from satkit.symfunc import expand_in_schur, hall_littlewood, monomial, schur
from satkit.tate import (
    h_operator,
    in_tate_lattice,
    similitude_unitary_config,
    std_with_twist,
    tate_dimension,
    unitary_config,
    v_binomial,
)
from satkit.trace_k import s_operator, s_pairing


def _dominants(lo, hi, n):
    return [
        w for w in itertools.product(range(hi, lo - 1, -1), repeat=n) if is_dominant(w)
    ]


def test_criterion_01_gl2_satake_basis_values():
    v = LaurentScalar.v_power(1)
    assert satake(basis((1, 0))) == v * monomial((1, 0))
    assert satake(basis((1, 1))) == monomial((1, 1))


def test_criterion_02_gl2_symmetric_square_identity():
    got = satake(basis((2, 0)) + basis((1, 1)))
    v2 = LaurentScalar.v_power(2)
    assert got == v2 * (monomial((2, 0)) + monomial((1, 1)))


def test_criterion_03_gl2_convolution_identity():
    got = convolve(basis((1, 0)), basis((1, 0)))
    assert got == basis((2, 0)) + parse_scalar("1+v^2") * basis((1, 1))


def test_criterion_04_transform_vs_lattice_oracle():
    def sweep(n, p, weights):
        for lam in weights:
            for mu in weights:
                product = convolve(basis(lam), basis(mu))
                for nu, coeff in product.terms.items():
                    assert specialize_v(coeff, p) == Fraction(
                        convolution_oracle(lam, mu, nu, p)
                    ), (n, p, lam, mu, nu)

    for p in (2, 3):
        sweep(2, p, _dominants(0, 2, 2))
    sweep(3, 2, [(1, 0, 0), (1, 1, 0), (2, 1, 0)])
    sweep(3, 3, _dominants(0, 1, 3))


def test_criterion_05_schubert_counts_are_gaussian_binomials():
    for p in (2, 3):
        for n in (2, 3):
            for i in range(n + 1):
                omega = (1,) * i + (0,) * (n - i)
                want = v_binomial(n, i).specialize(p * p)  # evaluate at v = p
                assert Fraction(schubert_count(omega, p)) == want, (n, i, p)
        # the closed length-2 cell is a union of two orbits
        total = schubert_count((2, 0), p) + schubert_count((1, 1), p)
        assert total == p * p + p + 1, p


def test_criterion_06_tensor_identity_and_lr_positivity():
    assert tensor(irreducible((1, 0)), irreducible((1, 0))) == irreducible(
        (2, 0)
    ) + irreducible((1, 1))
    for n in (2, 3):
        doms = _dominants(-3, 3, n)
        for a in doms:
            for b in doms:
                product = tensor(irreducible(a), irreducible(b))
                total = 0
                for w, c in product.terms.items():
                    assert c.as_int() >= 1, (a, b, w)
                    total += c.as_int() * dimension(w)
                assert total == dimension(a) * dimension(b), (a, b)


def test_criterion_07_s_operator_laws_and_pairing():
    rng = random.Random(20260818)
    for n in (2, 3):
        doms = _dominants(0, 2, n)
        one = irreducible((0,) * n)
        assert s_operator(one) == schur((0,) * n)
        for _ in range(8):
            a = irreducible(rng.choice(doms))
            b = irreducible(rng.choice(doms))
            assert s_operator(a + b) == s_operator(a) + s_operator(b)
            assert s_operator(tensor(a, b)) == s_operator(a) * s_operator(b)
    assert s_pairing((1, 0)) == LaurentScalar.from_int(2)
    for n in (2, 3):
        for mu in _dominants(0, 3, n):
            assert s_pairing(mu) == LaurentScalar.from_int(dimension(mu)), mu


def test_criterion_08_hall_littlewood_specializations():
    for n in (2, 3):
        for mu in _dominants(0, 4, n):
            if sum(mu) > 4:
                continue
            f = hall_littlewood(mu)
            assert f.substitute_t(Fraction(0)) == schur(mu), mu
            assert f.substitute_t(Fraction(1)) == monomial(mu), mu
            for lam, c in expand_in_schur(f).items():
                if lam == mu:
                    assert c.is_one(), mu
                else:
                    assert dominance_leq(lam, mu) and lam != mu, (lam, mu)


def test_criterion_09_tate_dimensions_and_documented_mismatch():
    for r in (1, 2, 3):
        cfg = similitude_unitary_config(r)
        assert tate_dimension(std_with_twist(r), cfg) == 1, r
    # Exterior powers of Std under the plain (non-similitude) unitary
    # configuration: frozen computed values.  The closed form
    # comb((n+1)/2, i) does NOT match them; that disagreement is a recorded
    # finding (README "Known findings"), asserted here so it cannot be
    # papered over silently in either direction.
    profiles = {}
    for n, frozen in [(3, [1, 1, 1, 1]), (5, [1, 1, 2, 2, 1, 1])]:
        cfg = unitary_config(n)
        got = [tate_dimension((1,) * i + (0,) * (n - i), cfg) for i in range(n + 1)]
        assert got == frozen, (n, got)
        profiles[n] = got
    for n in (3, 5):
        claimed = [comb((n + 1) // 2, i) for i in range(n + 1)]
        assert profiles[n] != claimed, n
    # sanity anchors for the membership predicate behind those dimensions
    u3 = unitary_config(3)
    assert not in_tate_lattice((1, 0, -1), u3)
    assert in_tate_lattice((0, 1, 0), u3)


def test_criterion_10_h_operator_and_v_binomial():
    h = h_operator(1)
    assert h.coefficient(0) == parse_scalar("1-p-2p^2", var="p")
    assert h.coefficient(1) == LaurentScalar.one()
    for r in (1, 2, 3):
        for j, c in h_operator(r).coeffs.items():
            assert c.is_integer_coeffs(), (r, j)
            assert c.is_zero() or c.min_exp() >= 0, (r, j)
    for n in range(9):
        for m in range(n + 1):
            g = v_binomial(n, m)
            assert g == v_binomial(n, n - m), (n, m)
            if 0 < m <= n - 1:
                pascal = v_binomial(n - 1, m - 1) + LaurentScalar.v_power(m) * v_binomial(
                    n - 1, m
                )
                assert g == pascal, (n, m)
            assert sum(g.coeffs.values()) == comb(n, m), (n, m)


def test_criterion_11_cli_determinism(tmp_path):
    config = tmp_path / "u3.json"
    config.write_text(json.dumps(unitary_config(3).to_json()))
    invocations = [
        ["satake", "--n", "2", "--h", '{"(1,0)":1}'],
        ["inv-satake", "--n", "2", "--f", '{"(1,0)":"v"}'],
        ["conv", "--n", "2", "--a", '{"(1,0)":1}', "--b", '{"(1,0)":1}'],
        ["normalize", "--n", "2", "--h", '{"(2,0)":1}'],
        ["tensor", "--n", "2", "--a", '{"(1,0)":1}', "--b", '{"(1,0)":1}'],
        ["weight-mult", "--n", "3", "--mu", "2,1,0", "--lam", "1,1,1"],
        ["dim", "--n", "2", "--mu", "1,0"],
        ["s-op", "--n", "2", "--r", '{"(2,0)":1}'],
        ["s-pairing", "--n", "2", "--mu", "1,0"],
        ["tate-dim", "--config", str(config), "--mu", "1,1,0"],
        ["h-op", "--r", "2"],
        ["qbinom", "--n", "4", "--m", "2"],
        [
            "inv",
            "--a",
            '{"p":2,"basis":[["1","0"],["0","1"]]}',
            "--b",
            '{"p":2,"basis":[["1/2","1"],["0","4"]]}',
        ],
        ["count", "--mu", "1,1,0", "--p", "3"],
        ["oracle", "--lam", "1,0", "--mu", "1,0", "--nu", "1,1", "--p", "3"],
        ["check", "oracle"],
    ]
    for args in invocations:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "satkit.cli", *args],
                capture_output=True,
            )
            for _ in range(3)
        ]
        assert runs[0].returncode == 0, (args, runs[0].stdout, runs[0].stderr)
        assert len({r.stdout for r in runs}) == 1, args
        assert len({r.returncode for r in runs}) == 1, args
