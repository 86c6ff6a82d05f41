"""Classical values the benchmark checks satkit against.

Standard library only, and nothing here imports satkit: every quantity is
computed from its textbook formula so that agreement with the program is a
real check, not a comparison of the program with itself.

Polynomials are plain dicts {exponent: coefficient} with nonzero integer
(or Fraction) coefficients.  "v" is the Hecke-algebra variable; q = v^2 and
t = q^-1 = v^-2 as in satkit.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import lru_cache


# -- Laurent polynomials as dicts ------------------------------------------


def lp_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def lp_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def lp_shift(a, k):
    return {e + k: c for e, c in a.items()}


def poly_div_exact(num, den):
    """num / den for polynomials with exponents >= 0; ValueError if inexact."""
    num = {e: c for e, c in num.items() if c}
    top = max(den)
    lead = den[top]
    quo = {}
    while num:
        e = max(num)
        if e < top:
            raise ValueError("inexact polynomial division")
        q = Fraction(num[e], lead)
        if q.denominator != 1:
            raise ValueError("inexact polynomial division")
        quo[e - top] = int(q)
        for d, c in den.items():
            k = e - top + d
            s = num.get(k, 0) - int(q) * c
            if s:
                num[k] = s
            else:
                num.pop(k, None)
    return quo


def v_to_q(poly_v):
    """Rewrite a polynomial in v with only even powers as one in q = v^2."""
    if any(e % 2 for e in poly_v):
        raise ValueError(f"odd power of v in {poly_v}")
    return {e // 2: c for e, c in poly_v.items()}


def evaluate(poly, x):
    x = Fraction(x)
    return sum(c * x**e for e, c in poly.items())


_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?(?:([a-z])(?:\^(-?\d+))?)?")


def parse_laurent(text, var="v"):
    """Parse a scalar string such as "1+v^2", "-v^-2+1" or "5/2v^3"."""
    out = {}
    pos = 0
    text = text.strip()
    if text == "0":
        return out
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos or (m.group(2) is None and m.group(3) is None):
            raise ValueError(f"cannot parse scalar {text!r}")
        if pos > 0 and not m.group(1):
            raise ValueError(f"missing sign in {text!r}")
        if m.group(3) is not None and m.group(3) != var:
            raise ValueError(f"unknown variable in {text!r}")
        mag = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        coeff = -mag if m.group(1) == "-" else mag
        exp = 0 if m.group(3) is None else int(m.group(4) or 1)
        out = lp_add(out, {exp: int(coeff) if coeff.denominator == 1 else coeff})
        pos = m.end()
    return out


# -- weights ---------------------------------------------------------------


def is_dominant(w):
    return all(w[i] >= w[i + 1] for i in range(len(w) - 1))


def dominance_leq(a, b):
    """a <= b in the dominance order on dominant weights of equal rank."""
    if sum(a) != sum(b):
        return False
    return all(sum(a[: i + 1]) <= sum(b[: i + 1]) for i in range(len(a)))


def dominant_box(n, lo, hi):
    """Dominant weights of rank n with every entry in lo..hi, descending."""
    return [
        w
        for w in itertools.product(range(hi, lo - 1, -1), repeat=n)
        if is_dominant(w)
    ]


def two_rho(mu):
    """<2rho, mu> = sum_i (n + 1 - 2i) mu_i, i from 1."""
    n = len(mu)
    return sum((n - 1 - 2 * i) * m for i, m in enumerate(mu))


def _runs(mu):
    return [len(list(g)) for _, g in itertools.groupby(mu)]


def _t_factorial(m):
    """prod_{i <= m} [i]_t as a polynomial in t."""
    out = {0: 1}
    for i in range(1, m + 1):
        out = lp_mul(out, {k: 1 for k in range(i)})
    return out


@lru_cache(maxsize=None)
def n_mu(mu):
    """|K mu(pi) K / K| = q^<2rho,mu> W(q^-1) / W_mu(q^-1), as a dict in q.

    Cached: callers must not change the dict they get.

    W(t) = prod_{i <= n} [i]_t and W_mu is the same product over the runs of
    equal entries of mu (Macdonald, Symmetric Functions and Hall
    Polynomials, ch. V).
    """
    w_mu = {0: 1}
    for m in _runs(mu):
        w_mu = lp_mul(w_mu, _t_factorial(m))
    ratio_t = poly_div_exact(_t_factorial(len(mu)), w_mu)
    top = two_rho(mu)
    return {top - k: c for k, c in ratio_t.items()}


def window_size(p, n, depth):
    """Number of lattices between p^depth L0 and p^-depth L0."""
    return sum(
        evaluate(n_mu(mu), p) for mu in dominant_box(n, -depth, depth)
    )


def weyl_dimension(mu):
    n = len(mu)
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= mu[i] - mu[j] + j - i
            den *= j - i
    return num // den


def gaussian_binomial(n, m):
    """[n choose m] as a polynomial in v, by Pascal's q-recurrence."""
    if m < 0 or m > n:
        return {}
    if m == 0 or m == n:
        return {0: 1}
    return lp_add(
        gaussian_binomial(n - 1, m - 1), lp_shift(gaussian_binomial(n - 1, m), m)
    )


# -- representations of GL_n -------------------------------------------------


@lru_cache(maxsize=None)
def gt_weights(top):
    """Weights of V_top with multiplicities, by Gelfand-Tsetlin patterns.

    A pattern is a chain of rows, each interlacing the one above it; the
    weight's k-th entry is |row_k| - |row_{k-1}|.  Returns {weight: mult}.
    """
    if len(top) == 1:
        return {top: 1}
    out = {}
    below = [range(top[i + 1], top[i] + 1) for i in range(len(top) - 1)]
    for row in itertools.product(*below):
        last = sum(top) - sum(row)
        for w, m in gt_weights(row).items():
            key = w + (last,)
            out[key] = out.get(key, 0) + m
    return out


def brauer_klimyk(a, b):
    """V_a (x) V_b = sum over weights w of V_b of sign * V_{sort(a+w+rho)-rho}.

    Humphreys, Introduction to Lie Algebras and Representation Theory, §24.
    Returns {highest weight: multiplicity} with zero terms dropped.
    """
    n = len(a)
    rho = tuple(range(n - 1, -1, -1))
    out = {}
    for w, m in gt_weights(b).items():
        x = [a[i] + w[i] + rho[i] for i in range(n)]
        if len(set(x)) < n:
            continue
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if x[i] < x[j])
        sign = -1 if inversions % 2 else 1
        nu = tuple(xi - ri for xi, ri in zip(sorted(x, reverse=True), rho))
        out[nu] = out.get(nu, 0) + sign * m
    return {nu: c for nu, c in out.items() if c}


# -- symmetric functions at the degree point ---------------------------------


def monomial_at_rho(nu):
    """m_nu(x) at x_i = v^(n+1-2i): the orbit sum as a polynomial in v."""
    n = len(nu)
    out = {}
    for w in set(itertools.permutations(nu)):
        e = sum((n - 1 - 2 * i) * wi for i, wi in enumerate(w))
        out[e] = out.get(e, 0) + 1
    return out


def degree_of_symmetric(terms):
    """sum_nu c_nu(v) m_nu at the degree point, as a polynomial in v.

    At x_i = v^(n+1-2i) the Satake transform of T_mu evaluates to N_mu(v^2),
    so this turns transform outputs into numbers n_mu predicts.
    """
    out = {}
    for nu, c in terms.items():
        out = lp_add(out, lp_mul(c, monomial_at_rho(nu)))
    return out


# -- p-adic valuations -------------------------------------------------------


def val_p(x, p):
    x = Fraction(x)
    if x == 0:
        return None
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def elementary_divisors_2x2(mat, p):
    """Valuations of the elementary divisors of a nonsingular 2x2 matrix.

    The smaller one is the least valuation of an entry, and the two add up
    to the valuation of the determinant.  Sorted weakly decreasing.
    """
    (a, b), (c, d) = [[Fraction(x) for x in row] for row in mat]
    low = min(v for v in (val_p(x, p) for x in (a, b, c, d)) if v is not None)
    return (val_p(a * d - b * c, p) - low, low)


def character(mu):
    """The character of V_mu in the monomial basis: {dominant weight: mult}."""
    return {w: m for w, m in gt_weights(mu).items() if is_dominant(w)}


def tate_dimension_reverse_negate(mu):
    """Weights w of V_mu, with multiplicity, for which w + sigma(w) is central.

    sigma is reverse-and-negate of order 2 and the center is Z(1,...,1); the
    sum w + sigma(w) has entries w_i - w_(n+1-i).
    """
    n = len(mu)
    total = 0
    for w, m in gt_weights(mu).items():
        s = {w[i] - w[n - 1 - i] for i in range(n)}
        if len(s) == 1:
            total += m
    return total
