"""Pins the benchmark's reference module to classical values.

Run with:  python3 -m pytest -q bench/test_reference.py
"""

from fractions import Fraction

import reference as ref


def test_double_coset_sizes():
    assert ref.n_mu((1, 0)) == {1: 1, 0: 1}  # q + 1
    assert ref.n_mu((1, -1)) == {2: 1, 1: 1}  # q^2 + q
    assert ref.n_mu((1, 0, 0)) == {2: 1, 1: 1, 0: 1}  # points of P^2
    assert ref.n_mu((2, 2)) == {0: 1}  # central coweights have one coset


def test_window_sizes():
    assert ref.window_size(2, 2, 1) == 15
    assert ref.window_size(2, 3, 2) == 4387


def test_gaussian_binomial():
    assert ref.gaussian_binomial(4, 2) == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}
    assert ref.gaussian_binomial(3, 1) == {0: 1, 1: 1, 2: 1}


def test_weyl_dimension_and_gelfand_tsetlin():
    assert ref.weyl_dimension((2, 1, 0)) == 8
    for mu in [(2, 1, 0), (3, 0, -3), (1, 1, 0, 0), (2, -1)]:
        assert sum(ref.gt_weights(mu).values()) == ref.weyl_dimension(mu)
    assert ref.gt_weights((2, 1, 0))[(1, 1, 1)] == 2


def test_brauer_klimyk():
    assert ref.brauer_klimyk((1, 0), (1, 0)) == {(2, 0): 1, (1, 1): 1}
    # adjoint (x) standard of GL_3
    assert ref.brauer_klimyk((1, 0, -1), (1, 0, 0)) == {
        (2, 0, -1): 1,
        (1, 1, -1): 1,
        (1, 0, 0): 1,
    }


def test_degree_point():
    # satake(T_(1,0)) = v m_(1,0) evaluates to N_(1,0)(v^2) = v^2 + 1
    assert ref.degree_of_symmetric({(1, 0): {1: 1}}) == {2: 1, 0: 1}
    assert ref.v_to_q({2: 1, 0: 1}) == {1: 1, 0: 1}


def test_parse_laurent():
    assert ref.parse_laurent("1+v^2") == {0: 1, 2: 1}
    assert ref.parse_laurent("-v^-2+1") == {-2: -1, 0: 1}
    assert ref.parse_laurent("-1+2v^4+2v^6") == {0: -1, 4: 2, 6: 2}
    assert ref.parse_laurent("5/2v") == {1: Fraction(5, 2)}
    assert ref.parse_laurent("0") == {}


def test_elementary_divisors():
    assert ref.elementary_divisors_2x2([["1/2", "1"], ["0", "4"]], 2) == (2, -1)
    assert ref.elementary_divisors_2x2([[2, 1], [0, 2]], 2) == (2, 0)
