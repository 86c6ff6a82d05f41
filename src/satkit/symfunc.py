"""Symmetric Laurent polynomials in n variables, exactly.

A SymPoly is stored in the monomial-symmetric basis: a map from dominant
weights mu to LaurentScalar coefficients, where m_mu is the orbit sum
sum_{alpha in S_n.mu} x^alpha.  Negative exponents are allowed everywhere
(these are characters of GL_n, not of SL_n), via the central twist
f -> (x_1...x_n)^k f which shifts every weight by k(1,...,1).

Bases provided:

- monomial(mu): m_mu itself;
- schur(mu): the irreducible character s_mu, computed by enumerating
  Gelfand-Tsetlin patterns (so the monomial coefficients are literally
  weight multiplicities, counted one pattern at a time);
- hall_littlewood(mu): P_mu(x; t) with t = v^-2 hard-wired.  Computed from
  the S_n symmetrization formula: antisymmetrize x^mu prod_{i<j}(x_i - t x_j),
  divide by the Vandermonde determinant (synthetic division by each x_i - x_j,
  subtraction-free, so no rational functions ever appear), then divide by the
  stabilizer factor v_mu(t) = prod over entry multiplicities m of
  prod_{i=1}^{m} (1 + t + ... + t^{i-1}).  Both divisions are exact and
  checked.

Products are orbit convolutions: the coefficient of m_gamma in m_a m_b is
#{(alpha, beta) in orbit(a) x orbit(b) : alpha + beta = gamma}, so we just
walk the orbit pairs and keep dominant sums.

SymPoly shares its representation and linear arithmetic with
hecke.HeckeElement and repring.RepElement through the base class
Combination: the constructor validates its input, and results computed here
are built by the trusted Combination._from_canonical and accumulated in
place by _add_into (terms += c * other), which drops cancelled terms.

expand_in_schur eliminates along the dominance order, always stripping
the lexicographically maximal key; lex order refines dominance for equal
totals, and distinct totals never interact, so unitriangularity of the Schur
basis makes the loop terminate with the exact expansion.

>>> hall_littlewood((2, 0))
SymPoly(n=2, m[2,0] + (-v^-2+1)*m[1,1])
>>> schur((2, 0)) == hall_littlewood((2, 0)).substitute_t(0)
True
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .laurent import LaurentScalar, _coerce
from .rootdata import _is_dominant, check_weight


class Combination:
    """A finite Z[v, v^-1]-combination of dominant weights of one rank n.

    The common shape of SymPoly (monomial basis m_mu), hecke.HeckeElement
    (double-coset basis T_mu) and repring.RepElement (irreducibles V_mu):
    terms maps dominant weights to nonzero LaurentScalars.  A subclass names
    its JSON key and print symbol and words its own error messages.

    The public constructor validates every key and coefficient.  Results
    computed inside the package are built by _from_canonical, which trusts
    its dict: dominant int-tuple keys of rank n, nonzero LaurentScalar
    values, owned by the new element alone.
    """

    __slots__ = ("n", "terms")
    _key = _symbol = _bad_rank = _bad_key = None  # set by each subclass
    _bad_n = "rank must be a positive int: {!r}"
    _mismatch = "rank mismatch: {} vs {}"

    def __init__(self, n, terms=None):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(self._bad_n.format(n))
        self.n = n
        self.terms = {}
        for w, c in (terms or {}).items():
            w = check_weight(w)
            if len(w) != n:
                raise ValueError(self._bad_rank.format(w, len(w), n))
            if not _is_dominant(w):
                raise ValueError(self._bad_key.format(w))
            _add_into(self.terms, {w: _coerce(c)})

    @classmethod
    def _from_canonical(cls, n, terms):
        out = object.__new__(cls)
        out.n = n
        out.terms = terms
        return out

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    def is_zero(self):
        return not self.terms

    def coefficient(self, mu):
        return self.terms.get(check_weight(mu), LaurentScalar.zero())

    def support(self):
        """Dominant keys, descending (leading term first)."""
        return sorted(self.terms, reverse=True)

    def _check_rank(self, other):
        if self.n != other.n:
            raise ValueError(self._mismatch.format(self.n, other.n))

    def _combine(self, other, c):
        """self + c * other, or NotImplemented when other is another kind."""
        if type(other) is not type(self):
            return NotImplemented
        self._check_rank(other)
        return self._from_canonical(self.n, _add_into(dict(self.terms), other.terms, c))

    def __add__(self, other):
        return self._combine(other, None)

    def __sub__(self, other):
        return self._combine(other, _MINUS_ONE)

    def __neg__(self):
        return self._from_canonical(self.n, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        """Multiplication by a scalar."""
        return self._from_canonical(self.n, _add_into({}, self.terms, _coerce(other)))

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def to_json(self):
        return {
            "n": self.n,
            "terms": [
                {self._key: list(w), "coeff": {str(e): c for e, c in sorted(self.terms[w].coeffs.items())}}
                for w in self.support()
            ],
        }

    @classmethod
    def from_json(cls, data):
        terms = {}
        for entry in data["terms"]:
            w = tuple(entry[cls._key])
            coeff = LaurentScalar({int(e): c for e, c in entry["coeff"].items()})
            terms[w] = terms.get(w, LaurentScalar.zero()) + coeff
        return cls(data["n"], terms)

    def __repr__(self):
        name = type(self).__name__
        if not self.terms:
            return f"{name}(n={self.n}, 0)"
        bits = []
        for w in self.support():
            c = self.terms[w]
            mono = f"{self._symbol}[{','.join(map(str, w))}]"
            bits.append(mono if c.is_one() else f"({c.to_string()})*{mono}")
        return f"{name}(n={self.n}, {' + '.join(bits)})"


_MINUS_ONE = LaurentScalar.from_int(-1)


def _add_into(terms, other, c=None):
    """terms += c * other on {weight: scalar} dicts, in place; returns terms.

    c is a LaurentScalar, or None for 1; other's values are LaurentScalars,
    or nonzero ints when c is given.  A coefficient that cancels is removed.
    """
    if c is not None and c.is_zero():
        return terms
    for w, x in other.items():
        if c is not None:
            x = c * x
        if x.is_zero():
            continue
        old = terms.get(w)
        if old is None:
            terms[w] = x
        else:
            x = old + x
            if x.is_zero():
                del terms[w]
            else:
                terms[w] = x
    return terms


class SymPoly(Combination):
    __slots__ = ()
    _key = "weight"
    _symbol = "m"
    _bad_n = "number of variables must be a positive int: {!r}"
    _bad_rank = "weight {} has rank {}, expected {}"
    _bad_key = "monomial-basis keys must be dominant: {}"
    _mismatch = "rank mismatch: {} vs {} variables"

    def __mul__(self, other):
        if not isinstance(other, SymPoly):
            return super().__mul__(other)
        self._check_rank(other)
        out = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                _add_into(out, _orbit_product(a, b), ca * cb)
        return SymPoly._from_canonical(self.n, out)

    def substitute_t(self, t_value):
        """Evaluate every coefficient as a polynomial in t = v^-2.

        Only legal when all coefficients live in Z[v^-2] (Hall-Littlewood
        expansions do); returns a SymPoly with constant coefficients.
        """
        t = Fraction(t_value)
        out = {}
        for w, c in self.terms.items():
            val = c.substitute_t(t)
            if val != 0:
                out[w] = _coerce(val)
        return SymPoly._from_canonical(self.n, out)

    def central_shift(self, k):
        """Multiply by (x_1 ... x_n)^k: every weight moves by k(1,...,1)."""
        if not isinstance(k, int):
            raise ValueError("central shift must be an int")
        return SymPoly._from_canonical(
            self.n, {tuple(x + k for x in w): c for w, c in self.terms.items()}
        )


@lru_cache(maxsize=None)
def _orbit(w):
    """The S_n-orbit of a weight, each point once, sorted for determinism."""
    return tuple(sorted(set(itertools.permutations(w))))


def _orbit_product(a, b):
    """The coefficients of m_a m_b: {gamma dominant: #orbit pairs summing to gamma}."""
    counts = {}
    orbit_b = _orbit(b)
    for alpha in _orbit(a):
        for beta in orbit_b:
            s = tuple([x + y for x, y in zip(alpha, beta)])
            if _is_dominant(s):
                counts[s] = counts.get(s, 0) + 1
    return counts


def monomial(mu):
    mu = check_weight(mu)
    if not _is_dominant(mu):
        raise ValueError(f"monomial wants a dominant weight: {mu}")
    return SymPoly._from_canonical(len(mu), {mu: LaurentScalar.one()})


# -- Schur via Gelfand-Tsetlin patterns --------------------------------


def _interlacing_rows(row):
    """All weakly decreasing rows interlacing below `row`."""
    ranges = [range(row[i + 1], row[i] + 1) for i in range(len(row) - 1)]
    return itertools.product(*ranges)


def _gt_row_sum_chains(row):
    """Yield (|r_1|, ..., |r_k|) over all GT patterns with top row `row`."""
    s = sum(row)
    if len(row) == 1:
        yield (s,)
        return
    for nxt in _interlacing_rows(row):
        for chain in _gt_row_sum_chains(nxt):
            yield chain + (s,)


@lru_cache(maxsize=None)
def _schur_weights_nonneg(lam):
    """Weight multiplicities of the irreducible with highest weight lam >= 0.

    Returns ((weight, multiplicity), ...) over ALL weights (not only the
    dominant ones); the total multiplicity is dim V_lam.
    """
    counter = Counter()
    for chain in _gt_row_sum_chains(lam):
        prev = 0
        w = []
        for s in chain:
            w.append(s - prev)
            prev = s
        counter[tuple(w)] += 1
    return tuple(sorted(counter.items()))


def weight_multiset(mu):
    """All weights of the GL_n irreducible V_mu with multiplicities.

    Handles negative entries by the central shift.  Returns a tuple of
    (weight, multiplicity) pairs, deterministic order.
    """
    mu = check_weight(mu)
    if not _is_dominant(mu):
        raise ValueError(f"highest weight must be dominant: {mu}")
    shift = max(0, -min(mu))
    lam = tuple(x + shift for x in mu)
    pairs = _schur_weights_nonneg(lam)
    if shift == 0:
        return pairs
    return tuple((tuple(x - shift for x in w), m) for w, m in pairs)


def schur(mu):
    """The Schur polynomial s_mu as a SymPoly (irreducible GL_n character)."""
    pairs = weight_multiset(mu)
    terms = {w: LaurentScalar._from_canonical({0: m}) for w, m in pairs if _is_dominant(w)}
    return SymPoly._from_canonical(len(mu), terms)


# -- Hall-Littlewood via exact symmetrization ---------------------------


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _xp_mul_binomial(poly, i, j, minus_t):
    """poly * (x_i + minus_t * x_j) on exponent-vector dicts."""
    out = {}
    for e, c in poly.items():
        ei = e[:i] + (e[i] + 1,) + e[i + 1:]
        out[ei] = out.get(ei, LaurentScalar.zero()) + c
        ej = e[:j] + (e[j] + 1,) + e[j + 1:]
        out[ej] = out.get(ej, LaurentScalar.zero()) + c * minus_t
    return {e: c for e, c in out.items() if not c.is_zero()}


def _xp_antisymmetrize(poly, n):
    out = {}
    for perm in itertools.permutations(range(n)):
        sgn = _perm_sign(perm)
        for e, c in poly.items():
            pe = [0] * n
            for pos in range(n):
                pe[perm[pos]] = e[pos]
            pe = tuple(pe)
            acc = out.get(pe, LaurentScalar.zero()) + (c if sgn > 0 else -c)
            if acc.is_zero():
                out.pop(pe, None)
            else:
                out[pe] = acc
    return out


def _xp_div_binomial(poly, i, j):
    """Exact quotient poly / (x_i - x_j); synthetic, no coefficient division.

    Writing poly = sum_k P_k x_i^k, the quotient layers satisfy
    q_{k-1} = P_k + x_j q_k downward from the top degree, and the remainder
    P_0 + x_j q_0 must vanish.
    """
    if not poly:
        return {}
    layers = {}
    for e, c in poly.items():
        k = e[i]
        e0 = e[:i] + (0,) + e[i + 1:]
        layers.setdefault(k, {})[e0] = c
    top = max(layers)
    if top == 0:
        raise ValueError("polynomial not divisible: no x_i present")

    def _plus_xj(acc, layer):
        for e0, c in layer.items():
            e1 = e0[:j] + (e0[j] + 1,) + e0[j + 1:]
            s = acc.get(e1, LaurentScalar.zero()) + c
            if s.is_zero():
                acc.pop(e1, None)
            else:
                acc[e1] = s
        return acc

    qlayers = {}
    prev = {}
    for k in range(top, 0, -1):
        cur = dict(layers.get(k, {}))
        cur = _plus_xj(cur, prev)
        cur = {e: c for e, c in cur.items() if not c.is_zero()}
        qlayers[k - 1] = cur
        prev = cur
    rem = dict(layers.get(0, {}))
    rem = _plus_xj(rem, prev)
    if any(not c.is_zero() for c in rem.values()):
        raise ValueError("polynomial not divisible by (x_i - x_j)")
    out = {}
    for k, layer in qlayers.items():
        for e0, c in layer.items():
            out[e0[:i] + (k,) + e0[i + 1:]] = c
    return out


def _stabilizer_factor(lam):
    """v_lam(t) = prod over value multiplicities m of prod_{i<=m} [i]_t."""
    t_poly = lambda i: LaurentScalar({-2 * k: 1 for k in range(i)})  # noqa: E731
    out = LaurentScalar.one()
    for m in Counter(lam).values():
        for i in range(1, m + 1):
            out = out * t_poly(i)
    return out


@lru_cache(maxsize=None)
def _hl_nonneg(lam):
    n = len(lam)
    minus_t = LaurentScalar({-2: -1})  # -t with t = v^-2
    poly = {lam: LaurentScalar.one()}
    for i in range(n):
        for j in range(i + 1, n):
            poly = _xp_mul_binomial(poly, i, j, minus_t)
    poly = _xp_antisymmetrize(poly, n)
    for i in range(n):
        for j in range(i + 1, n):
            poly = _xp_div_binomial(poly, i, j)
    vfac = _stabilizer_factor(lam)
    out = {}
    for e, c in poly.items():
        if _is_dominant(e):
            out[e] = c.exact_div(vfac)
    return out


def hall_littlewood(mu):
    """P_mu(x; t) in the monomial basis, t = v^-2.

    Unitriangular: the leading coefficient (of m_mu) is 1 and every other key
    is strictly dominance-smaller, with coefficients in Z[v^-2].
    """
    mu = check_weight(mu)
    if not _is_dominant(mu):
        raise ValueError(f"highest weight must be dominant: {mu}")
    n = len(mu)
    if n == 1:
        return SymPoly._from_canonical(1, {mu: LaurentScalar.one()})
    shift = max(0, -min(mu))
    lam = tuple(x + shift for x in mu)
    core = _hl_nonneg(lam)
    return SymPoly._from_canonical(n, {tuple(x - shift for x in w): c for w, c in core.items()})


def expand_in_schur(f):
    """Exact expansion of a SymPoly in the Schur basis.

    Returns {mu: LaurentScalar}; always succeeds since the Schur basis is
    unitriangular against the monomial basis along dominance.
    """
    if not isinstance(f, SymPoly):
        raise ValueError("expand_in_schur wants a SymPoly")
    rest = dict(f.terms)
    out = {}
    while rest:
        mu = max(rest)  # lex max is dominance-maximal in its class
        c = out[mu] = rest[mu]
        _add_into(rest, schur(mu).terms, -c)
    return out


if __name__ == "__main__":
    import doctest

    doctest.testmod()
