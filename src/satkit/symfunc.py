"""Symmetric Laurent polynomials in n variables, exactly.

A SymPoly is stored in the monomial-symmetric basis: a map from dominant
weights mu to coefficient dicts {v-exponent: coeff}, where m_mu is the
orbit sum sum_{alpha in S_n.mu} x^alpha.  Negative exponents are allowed
everywhere (these are characters of GL_n, not of SL_n), via the central
twist f -> (x_1...x_n)^k f which shifts every weight by k(1,...,1).

Inside the package the transform side works in the Schur basis, on term
dicts {weight: {v-exponent: coeff}} (laurent's coefficient-dict kernels),
the form every element stores; the monomial basis is met only at the public
boundary.  The pieces:

- _apply and _solve: the two kernels of every change of basis, for a table
  that gives (entry, shift) as an _on_cores lookup does, each entry read
  only and its keys moved by the shift.  _apply(terms, table) is sum_mu c_mu
  table(mu); _solve(rest, table) is its inverse for a unitriangular table,
  one whose entry at mu holds mu with coefficient 1 and otherwise only
  lex-smaller keys: it strips the lexicographically maximal key of rest,
  keeps its coefficient and subtracts that multiple of the rest of the
  entry.  Lex order refines dominance for equal totals and distinct totals
  never interact, so the loop ends with the exact expansion.  The tables are
  _dominant_weights(mu), s_mu = sum_w K_mu,w m_w over V_mu's dominant
  weights read off Gelfand-Tsetlin patterns (weight_multiset), and
  _hl_terms(mu), P_mu in the Schur basis; hecke's transforms are these two
  kernels and a twist by v^<2rho,mu>;
- _on_cores: the one keying of the six tables on the dual-group side
  (weight multiplicities, the Schur -> monomial table, tensor products
  of irreducibles and Hall-Littlewood expansions here; hecke's structure
  constants and the closed-form products its peel reads), each a route
  computing the table on cores.  A core is
  mu - mu_n(1, ..., 1), last entry 0; since V_{mu + k(1,...,1)} =
  V_mu (x) det^k and P_{mu + k(1,...,1)} = (x_1...x_n)^k P_mu, the keys of
  an entry move with the central shift and its coefficients do not.
  V_mu* = V_{-w0 mu} has the core (mu_1 - mu_n, ..., mu_1 - mu_1) for a
  core mu, and V_{a*} (x) V_{b*} = (V_a (x) V_b)*, P_{mu*}(x; t) =
  P_mu(x^-1; t); so the entry of a sorted tuple of cores is its dual
  tuple's with every key kappa moved to (s - kappa_n, ..., s - kappa_1),
  s the sum of the cores' first entries, and no coefficient changed.  The
  helper caches the entry of each sorted tuple of cores, computes the
  smaller of a tuple and its dual tuple by the route and reads the other
  off it.  Every table is looked up on one weight or two, and a lookup
  orders two cores with one comparison.  A lookup hands its consumer the
  cached entry itself, read only, with the summed central shift k; the
  consumer moves each key by k(1, ..., 1) as it reads it, so no moved copy
  of an entry is made.  Each table is built with its cap, _check_expansion
  for _hl_terms, none for hecke's closed forms and _check_patterns for the
  other four.  A lookup whose tuple of cores has no entry yet checks the cap
  on its first weight and then its second, so a weight is refused under the
  caller's own name before its entry is computed; a lookup that finds its
  entry checks nothing.  Both caps depend only on the core and answer alike
  on a weight and its dual (equal Weyl dimensions, equal pair counts), and a
  refusal caches nothing, so a cached entry proves that its weights pass.  Two
  proofs, each read off the live cap, let a caller skip a check that cannot
  refuse: _patterns_proved(top, n), that the pattern cap passes every nu of
  rank n with 0 <= nu_n <= nu_1 <= top, by the bound _pattern_bound on
  Weyl's formula; and _expansions_proved(n), that the Hall-Littlewood cap
  passes every weight of rank n;
- _bilinear: the one product loop, sum over pairs of terms of c_a c_b
  table(a, b), for a table that gives (entry, shift) as an _on_cores lookup
  does.  Each entry is read once per pair and each of its keys, moved by
  the shift, is written straight into the product: a weight met first gets
  a new coefficient dict, and only a weight met again is added into (and
  dropped if it cancels).  The new dict is the entry's coefficient c times
  the pair's coefficient c_a c_b; when c is a coefficient dict it is the
  operand copied, so a one-term c_a c_b costs one pass over c and no
  further term.  A product of two one-term factors, which every basis
  product is, has one pair and one entry, whose keys stay distinct under
  the shift: each key is written once, with no lookup in the product, no
  adding into and no cancellation, and a unit c_a c_b gives each term a
  plain copy of c.  SymPoly * SymPoly, repring.tensor and hecke.convolve
  all run it, on their elements' own {weight: coefficient dict} terms, and
  build no LaurentScalar; every dict it hands out is new, never an entry's.
  It looks up the first factor's first term with each term of the second,
  then the rest of the first factor's, so a table's cap meets the first
  factor's first term, the second's terms and then the rest of the
  first's, in that order;
- the pieces of the Pieri rules, each defined here once and read by
  hecke too: _vertical_strips and _horizontal_strips, the strips lam/kappa;
  _is_closed, whether a core is zero, one column, one row or (r, ..., r,
  0), the dual of a row; and _closed_product(lam, mu, column, row), the one
  dispatch of a pair with a closed core: the column rule for a zero or
  one-column core, the row rule for a one-row core, and for (r, ..., r, 0)
  the row rule on the _dual of the other core, moved back.  hecke passes it
  the Hall-Littlewood column and row rules; here it is passed their t -> 0
  limit, the Schur Pieri rules s_kappa e_k and s_kappa h_r, each the sum of
  s_lam over the strips with coefficient 1 (Macdonald, SFHP, I (5.16) and
  (5.17));
- _tensor_irreducibles: s_a s_b, the table of _tensor_entry, which reads a
  pair with an _is_closed core off the Schur Pieri rules and any other
  pair off _brauer_klimyk, V_a (x) V_b = sum_{w in wt(V_b)} sign *
  V_{sort(a + w + rho) - rho}, the Weyl straightening a_beta / a_rho =
  +-s_{sort(beta) - rho} done inside its loop on plain ints: the sign and
  the distinctness of beta are read off its pairs and only a beta with
  distinct entries is sorted; repring.tensor and hecke's Schur route for
  long two-row products both multiply by it in _bilinear;
- _hl_terms(mu): P_mu(x; t) = sum_lam K_lam,mu(t) s_lam with t = v^-2
  hard-wired, the table of _hl_expand.  Macdonald's

      P_mu = sum_{w in S_n / S_mu} w(x^mu prod_{mu_i > mu_j} (x_i - t x_j) / (x_i - x_j))

  (Symmetric Functions and Hall Polynomials, III.2) is computed without
  summing over permutations.  Over a_rho = prod_{i<j} (x_i - x_j), the
  Vandermonde of each block of equal entries of mu is an alternating sum
  over the stabilizer S_mu, whose order cancels the coset count: P_mu =
  a_f / a_rho for f = x^{mu + rho_B} prod_{mu_i > mu_j} (x_i - t x_j), with
  rho_B = (m-1, ..., 1, 0) on each block of m equal entries and a_f the
  alternant of f.  Each monomial x^beta of f straightens to +-s or 0, all on
  ints.

The public schur and hall_littlewood are these kernels with validation,
their results handed straight to a SymPoly; expand_in_schur wraps its
result's dicts in LaurentScalars.  SymPoly * SymPoly is the one
product taken in the monomial basis: the coefficient of m_gamma in m_a m_b
is #{(alpha, beta) in orbit(a) x orbit(b) : alpha + beta = gamma}, which
_orbit_product reads off one orbit, refused past _MAX_ORBIT_ENTRIES, and
caches per pair (a, b); _bilinear reads it as a table with shift 0.

SymPoly shares its representation and linear arithmetic with
hecke.HeckeElement and repring.RepElement through the base class
Combination: the constructor validates its input, and results computed here
are built by the trusted Combination._from_canonical; sums are accumulated
by _add_into (terms += c * other), which writes new dicts and drops
cancelled terms.

>>> hall_littlewood((2, 0))
SymPoly(n=2, m[2,0] + (-v^-2+1)*m[1,1])
>>> schur((2, 0)) == hall_littlewood((2, 0)).substitute_t(0)
True
"""

import itertools
import math
import sys
from collections import Counter, namedtuple
from functools import lru_cache
from operator import add, sub

from .laurent import LaurentScalar, _add_times, _coerce, _new, _rational, _substitute_t, _times, _to_string
from .rootdata import _dominant_weight, _is_dominant, _positive_int, check_weight


class Combination:
    """A finite Z[v, v^-1]-combination of dominant weights of one rank n.

    The common shape of SymPoly (monomial basis m_mu), hecke.HeckeElement
    (double-coset basis T_mu) and repring.RepElement (irreducibles V_mu).  A
    subclass names its JSON key and print symbol and words its own error
    messages.

    The private _terms maps dominant weights to nonzero coefficient dicts
    {v-exponent: coeff}, the form every kernel here reads and writes, each
    dict the element's own and never written into once the element is built.
    LaurentScalars are met only at the public boundary: the constructor
    coerces its coefficients through them, and coefficient(mu) and terms, a
    new {weight: LaurentScalar} dict on each access, build them.
    The public constructor validates every key and coefficient.  Results
    computed inside the package are built by _from_canonical, which trusts
    its dict: dominant int-tuple keys of rank n, nonzero canonical
    coefficient dicts, owned by the new element alone.
    """

    __slots__ = ("n", "_terms")
    _key = _symbol = _bad_rank = _bad_key = None  # set by each subclass
    _bad_n = "rank"  # the noun of n in its refusal
    _mismatch = "rank mismatch: {} vs {}"

    def __init__(self, n, terms=None):
        _positive_int(n, self._bad_n)
        self.n = n
        self._terms = {}
        for w, c in (terms or {}).items():
            w = self._checked_key(w)
            if not _is_dominant(w):
                raise ValueError(self._bad_key.format(w))
            c = _coerce(c).coeffs
            if c:
                _add_into(self._terms, {w: c})

    @classmethod
    def _from_canonical(cls, n, terms):
        out = _new(cls)
        out.n = n
        out._terms = terms
        return out

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @property
    def terms(self):
        """{weight: LaurentScalar}, a new dict built on each access, so adding to it or clearing it changes nothing here."""
        new = LaurentScalar._from_canonical
        return {w: new(c) for w, c in self._terms.items()}

    def is_zero(self):
        return not self._terms

    def _checked_key(self, mu):
        """mu as a checked weight tuple, refused unless it has rank n."""
        w = check_weight(mu)
        if len(w) != self.n:
            raise ValueError(self._bad_rank.format(w, len(w), self.n))
        return w

    def coefficient(self, mu):
        return LaurentScalar._from_canonical(self._terms.get(self._checked_key(mu), {}))

    def support(self):
        """Dominant keys, descending (leading term first)."""
        return sorted(self._terms, reverse=True)

    def _check_rank(self, other):
        if self.n != other.n:
            raise ValueError(self._mismatch.format(self.n, other.n))

    def _combine(self, other, c):
        """self + c * other, or NotImplemented when other is another kind."""
        if type(other) is not type(self):
            return NotImplemented
        self._check_rank(other)
        return self._from_canonical(self.n, _add_into(dict(self._terms), other._terms, c))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._from_canonical(self.n, {w: {k: -x for k, x in c.items()} for w, c in self._terms.items()})

    def __mul__(self, other):
        """Multiplication by a scalar."""
        c = _coerce(other).coeffs
        return self._from_canonical(self.n, {w: _times(x, c) for w, x in self._terms.items()} if c else {})

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self):
        return hash((self.n, frozenset((w, frozenset(c.items())) for w, c in self._terms.items())))

    def to_json(self):
        """{"n": n, "terms": [...]} for json.dumps: an int coefficient as itself, a Fraction as its text "p/q"."""
        return {
            "n": self.n,
            "terms": [
                {
                    self._key: list(w),
                    "coeff": {str(e): c if type(c) is int else str(c) for e, c in sorted(self._terms[w].items())},
                }
                for w in self.support()
            ],
        }

    @classmethod
    def from_json(cls, data):
        terms = {}
        for entry in data["terms"]:
            w = tuple(entry[cls._key])
            coeff = LaurentScalar({int(e): _coeff_from_json(c) for e, c in entry["coeff"].items()})
            terms[w] = terms.get(w, LaurentScalar.zero()) + coeff
        return cls(data["n"], terms)

    def __repr__(self):
        name = type(self).__name__
        if not self._terms:
            return f"{name}(n={self.n}, 0)"
        bits = []
        for w in self.support():
            c = self._terms[w]
            mono = f"{self._symbol}[{','.join(map(str, w))}]"
            bits.append(mono if c == _ONE else f"({_to_string(c)})*{mono}")
        return f"{name}(n={self.n}, {' + '.join(bits)})"


def _coeff_from_json(c):
    """A coefficient as to_json writes it, text "p" or "p/q" read by int() on each side; what is not text is the constructor's to check.

    Only that is read, so no exponent ("1e-99999") is expanded, and int()
    bounds the digits.
    """
    if not isinstance(c, str):
        return c
    num, slash, den = c.partition("/")
    if not slash:
        return int(num)
    num, den = int(num), int(den)
    if not den:
        raise ValueError(f"zero denominator in {c!r}")
    from fractions import Fraction
    return Fraction(num, den)


_ONE = {0: 1}  # the unit's coefficient dict: only read, never stored in an element


def _add_into(terms, other, c=1):
    """terms += c * other on {weight: coefficient dict} term dicts, in place; returns terms.

    c is a nonzero int or coefficient dict.  Only terms is written, never a
    coefficient dict of either: each weight of other gets a new dict, and a
    coefficient that cancels is removed.
    """
    for w, x in other.items():
        acc = terms.get(w)
        if acc is None:
            terms[w] = _times(x, c)
        else:
            acc = _add_times(dict(acc), x, c)
            if acc:
                terms[w] = acc
            else:
                del terms[w]
    return terms


class SymPoly(Combination):
    """A symmetric Laurent polynomial: a combination of monomial symmetric functions m_mu."""

    __slots__ = ()
    _key = "weight"
    _symbol = "m"
    _bad_n = "number of variables"
    _bad_rank = "weight {} has rank {}, expected {}"
    _bad_key = "monomial-basis keys must be dominant: {}"
    _mismatch = "rank mismatch: {} vs {} variables"

    def __mul__(self, other):
        """SymPoly * SymPoly by _bilinear on the orbit products; otherwise times a scalar."""
        if not isinstance(other, SymPoly):
            return super().__mul__(other)
        self._check_rank(other)
        return SymPoly._from_canonical(self.n, _bilinear(self._terms, other._terms, _orbit_entry))

    def substitute_t(self, t_value):
        """Evaluate every coefficient as a polynomial in t = v^-2.

        Only legal when all coefficients live in Z[v^-2] (Hall-Littlewood
        expansions do); t_value is an int or a Fraction.  Returns a SymPoly
        with constant coefficients.
        """
        if not _rational(t_value):
            raise ValueError(f"t must be an int or a Fraction, got {t_value!r}")
        out = {}
        for w, c in self._terms.items():
            val = _substitute_t(c, t_value)
            if val != 0:
                out[w] = {0: val}
        return SymPoly._from_canonical(self.n, out)

    def central_shift(self, k):
        """Multiply by (x_1 ... x_n)^k: every weight moves by k(1,...,1)."""
        if not isinstance(k, int) or isinstance(k, bool):
            raise ValueError("central shift must be an int")
        return SymPoly._from_canonical(
            self.n, {tuple(x + k for x in w): dict(c) for w, c in self._terms.items()}
        )


@lru_cache(maxsize=None)
def _orbit(w):
    """The S_n-orbit of a weight, each point once, sorted for determinism.

    Each distinct entry takes the first place in turn, ascending, ahead of
    the orbit of the entries left, so each point is made once and in order,
    never one of the n! permutations per point.
    """

    def points(rest):
        if not rest:
            yield ()
        for x in sorted(set(rest)):
            i = rest.index(x)
            for tail in points(rest[:i] + rest[i + 1 :]):
                yield (x,) + tail

    return tuple(points(w))


def _orbit_size(w):
    """|O(w)| = n! / prod m_i!, m_i the multiplicities of w's entries."""
    return math.factorial(len(w)) // math.prod(math.factorial(m) for m in Counter(w).values())


# Orbit entries _orbit_product may walk, |O(b)| points of n entries: about 1 us an entry on a 2-core
# host at every rank from 8 to 50, so about 1 s.  m_(7,...,0)^2 (322,560 entries) is admitted and
# m_(8,...,0)^2 (3,265,920) refused.
_MAX_ORBIT_ENTRIES = 1_000_000


@lru_cache(maxsize=None)
def _orbit_product(a, b):
    """The coefficients of m_a m_b as {gamma: c_gamma}, gamma dominant; read only.

    c_gamma = #{(alpha, beta) in O(a) x O(b) : alpha + beta = gamma}.  S_n
    permutes these pairs, so the pairs summing into O(gamma) number
    |O(gamma)| c_gamma; fixing alpha = a instead (every point of O(a) has
    the same fibre size) counts them as |O(a)| N_gamma with N_gamma =
    #{beta in O(b) : sort(a + beta) = gamma}.  Hence c_gamma =
    |O(a)| N_gamma / |O(gamma)|, exactly, and only one orbit is walked: the
    smaller of the two, since m_a m_b = m_b m_a.  The sizes come from the
    multiplicities, so the larger orbit is never made, and the walk is
    refused before it starts when it passes _MAX_ORBIT_ENTRIES entries.
    """
    size_a, size_b = _orbit_size(a), _orbit_size(b)
    if size_a < size_b:
        a, b, size_a, size_b = b, a, size_b, size_a
    if len(b) * size_b > _MAX_ORBIT_ENTRIES:
        raise ValueError(
            f"m_{b} has {_count_text(size_b)} orbit points of {len(b)} entries, "
            f"over the cap of {_MAX_ORBIT_ENTRIES} entries"
        )
    hits = Counter(tuple(sorted([x + y for x, y in zip(a, beta)], reverse=True)) for beta in _orbit(b))
    return {g: size_a * m // _orbit_size(g) for g, m in hits.items()}


def _orbit_entry(a, b):
    """_orbit_product as a table for _bilinear: the entry of (a, b), with no central shift."""
    return _orbit_product(a, b), 0


def _accumulate(out, w, c, m):
    """out[w] += c * m on a {weight: coefficient dict} term dict, in place.

    c is a coefficient dict and m a nonzero int or coefficient dict, both
    only read; a weight met first gets a new dict, and a weight whose
    coefficient cancels is removed.
    """
    acc = out.get(w)
    if acc is None:
        out[w] = _times(c, m)
    elif not _add_times(acc, c, m):
        del out[w]


def _apply(terms, table):
    """sum over mu of c_mu table(mu), as a new {weight: coefficient dict} term dict; terms is only read.

    table(mu) gives (entry, shift) as an _on_cores lookup does: entry is
    {w: c} with c a nonzero int or coefficient dict, read only, and each of
    its keys moves by shift(1, ..., 1).
    """
    out = {}
    for mu, c in terms.items():
        entry, shift = table(mu)
        for w, x in entry.items():
            if shift:
                w = tuple([y + shift for y in w])
            _accumulate(out, w, c, x)
    return out


def _solve(rest, table):
    """The terms c with _apply(c, table) == rest, for a unitriangular table; empties rest.

    Unitriangular: table(mu), moved by its shift, holds mu with coefficient 1
    and otherwise only lex-smaller keys.  rest must own its coefficient dicts:
    they are updated in place and handed to the result.
    """
    out = {}
    while rest:
        mu = max(rest)
        c = out[mu] = rest.pop(mu)
        minus_c = {k: -x for k, x in c.items()}
        entry, shift = table(mu)
        for w, x in entry.items():
            if shift:
                w = tuple([y + shift for y in w])
            if w != mu:
                _accumulate(rest, w, minus_c, x)
    return out


def _bilinear(p, q, table):
    """sum over pairs of terms of c_a c_b table(a, b), as a new {weight: coefficient dict} term dict.

    The package's one product loop: SymPoly * SymPoly, repring.tensor and
    hecke.convolve all run it.  p and q are {weight: coefficient dict} term
    dicts, only read.  table(a, b) gives (entry, shift) as an _on_cores
    lookup does: entry is the product of the basis elements of the cores,
    {gamma: c} with c a nonzero int or coefficient dict, read only, and each
    of its keys moves by shift(1, ..., 1).  Each key of the entry is moved
    and written straight into the product: a weight met first gets a new
    dict, c times the pair's coefficient cab; only a weight met again is
    added into, and dropped if it cancels.  A dict c is the operand copied
    (_times(c, cab)), so a one-term cab costs one pass over c.  With one
    pair, the keys of its one entry stay distinct under the shift, so each
    key is written once and nothing is added into; a unit cab gives each
    term a plain copy of c, in one dict comprehension.  The pairs are looked
    up p's first term with each of q's, then the rest of p's.
    """
    out = {}
    if len(p) == 1 == len(q):
        ((a, ca),) = p.items()
        ((b, cb),) = q.items()
        entry, shift = table(a, b)
        if ca == cb == _ONE:
            return {
                tuple([x + shift for x in g]) if shift else g: dict(c) if type(c) is dict else {0: c}
                for g, c in entry.items()
            }
        cab = _times(ca, cb)
        for g, c in entry.items():
            if shift:
                g = tuple([x + shift for x in g])
            out[g] = _times(c, cab) if type(c) is dict else _times(cab, c)
        return out
    for a, ca in p.items():
        for b, cb in q.items():
            cab = _times(ca, cb)
            entry, shift = table(a, b)
            for g, c in entry.items():
                if shift:
                    g = tuple([x + shift for x in g])
                copied, by = (c, cab) if type(c) is dict else (cab, c)
                acc = out.get(g)
                if acc is None:
                    out[g] = _times(copied, by)
                elif not _add_times(acc, copied, by):
                    del out[g]
    return out


def monomial(mu):
    mu = _dominant_weight(mu, "monomial wants a dominant weight: {}")
    return SymPoly._from_canonical(len(mu), {mu: {0: 1}})


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


def _gelfand_tsetlin(lam):
    """Weight multiplicities of the irreducible with highest weight lam >= 0, as {weight: multiplicity}.

    Over ALL weights (not only the dominant ones), by enumerating the
    Gelfand-Tsetlin patterns; the total multiplicity is dim V_lam.
    """
    counter = Counter()
    for chain in _gt_row_sum_chains(lam):
        prev = 0
        w = []
        for s in chain:
            w.append(s - prev)
            prev = s
        counter[tuple(w)] += 1
    return dict(counter)


_MAX_PATTERNS = 500_000  # refused before its entry is read or computed: about 1 s of enumeration on a 2-core host


@lru_cache(maxsize=None)
def _weyl_dimension(mu):
    """dim V_mu for a dominant mu by the Weyl product formula: its number of Gelfand-Tsetlin patterns.

    dim V_mu = prod_{i<j} (mu_i - mu_j + j - i) / (j - i), an exact integer;
    cached, since the pattern cap is checked on every weight of every product.
    """
    n = len(mu)
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= mu[i] - mu[j] + j - i
            den *= j - i
    q, r = divmod(num, den)
    if r != 0:
        raise AssertionError(f"Weyl formula not integral at {mu}")
    return q


def _check_patterns(mu, patterns=None):
    """Refuse V_mu when its Gelfand-Tsetlin patterns, dim V_mu unless given, number more than _MAX_PATTERNS."""
    if patterns is None:
        patterns = _weyl_dimension(mu)
    if patterns > _MAX_PATTERNS:
        count = _count_text(patterns)
        raise ValueError(f"V_{mu} has {count} Gelfand-Tsetlin patterns, over the cap of {_MAX_PATTERNS}")


def _pattern_bound(top, n):
    """prod_{k=1}^{n-1} C(top + k, k): a bound on dim V_nu over every nu of rank n with 0 <= nu_n <= nu_1 <= top.

    Each factor (nu_i - nu_j + j - i) / (j - i) of Weyl's formula is at most
    (top + j - i) / (j - i), and the product of these over i < j is the
    product of the binomials.  The Schur keys of P_kappa for a core kappa
    are dominance-below kappa, so 0 <= nu_n <= nu_1 <= kappa_1 bounds them
    all; dim V_kappa does not, since a key can pass it: (7, 1, 0) of
    (8, 0, 0), 63 against 45.
    """
    return math.prod(math.comb(top + k, k) for k in range(1, n))


def _patterns_proved(top, n):
    """Whether _pattern_bound proves that _check_patterns passes every nu of rank n with 0 <= nu_n <= nu_1 <= top."""
    return _pattern_bound(top, n) <= _MAX_PATTERNS


def _count_text(count):
    """A refused count as text: past the digits str() converts, by its order of magnitude."""
    limit = sys.get_int_max_str_digits()
    return f"at least 10^{limit}" if limit and count >= 10**limit else str(count)


_TableInfo = namedtuple("_TableInfo", "misses currsize")


def _on_cores(route, cap=None):
    """The table of route(*cores) as a lookup on weights: lookup(mu) or lookup(mu, nu) -> (entry, shift).

    route takes sorted cores mu - mu_n(1, ..., 1) and returns a dict keyed on
    weights.  The table is a plain dict holding one entry per sorted tuple of
    cores; a lookup makes the core of each weight, orders two cores with one
    comparison and probes it.  Only on a miss does it call cap, unless None,
    on mu and then on nu, so a weight past the table's cap is refused under
    the caller's own name before its entry is computed.  A hit needs no cap:
    both caps depend only on the core and answer alike on duals, and a
    refusal caches nothing, so a cached entry proves that its weights pass.
    Of a tuple and its dual tuple, the smaller is computed by route and the
    other read off it, every key kappa moved to (s - kappa_n, ..., s -
    kappa_1) with s the sum of the cores' first entries.  If the dual's
    entry is refused (ValueError), this entry is computed by route, so that
    the refusal names a weight of this product.  The lookup hands over the
    cached entry itself, read only, with the summed central shift k: the
    table's value at the weights is the entry with every key moved by k(1,
    ..., 1), and each consumer moves the keys as it reads them.
    lookup.cache_info() gives the table's misses, the tuples of cores it
    computed or tried to (refusals and duals included), and its currsize,
    the entries it holds.
    """
    entries = {}
    misses = 0

    def table(cores):
        nonlocal misses
        entry = entries.get(cores)
        if entry is not None:
            return entry
        misses += 1
        duals = tuple(sorted(tuple([mu[0] - x for x in reversed(mu)]) for mu in cores))
        if duals < cores:
            try:
                entry = table(duals)
            except ValueError:
                pass
            else:
                s = sum(mu[0] for mu in cores)
                entry = entries[cores] = {tuple([s - x for x in reversed(kappa)]): c for kappa, c in entry.items()}
                return entry
        entry = entries[cores] = route(*cores)
        return entry

    def lookup(mu, nu=None):
        shift = mu[-1]
        core = tuple([x - shift for x in mu]) if shift else mu
        if nu is None:
            cores = (core,)
        else:
            k = nu[-1]
            other = tuple([x - k for x in nu]) if k else nu
            cores = (core, other) if core <= other else (other, core)
            shift += k
        entry = entries.get(cores)
        if entry is None:
            if cap is not None:
                cap(mu)
                if nu is not None:
                    cap(nu)
            entry = table(cores)
        return entry, shift

    lookup.cache_info = lambda: _TableInfo(misses, len(entries))
    return lookup


# All weights of V_mu with multiplicities; every Gelfand-Tsetlin enumeration passes here.
_pattern_weights = _on_cores(_gelfand_tsetlin, _check_patterns)


def _highest_weight(mu):
    """mu as a checked weight tuple, or ValueError unless it is dominant."""
    return _dominant_weight(mu, "highest weight must be dominant: {}")


def weight_multiset(mu):
    """All weights of the GL_n irreducible V_mu with multiplicities.

    Handles negative entries by the central shift.  Returns a tuple of
    (weight, multiplicity) pairs, sorted.
    """
    entry, shift = _pattern_weights(_highest_weight(mu))
    return tuple(sorted((tuple([x + shift for x in w]), m) for w, m in entry.items()))


def _dominant_entry(mu):
    """{w: K_mu,w} over the dominant weights of V_mu, for a core mu: the dominant keys of its pattern entry."""
    return {w: m for w, m in _pattern_weights(mu)[0].items() if _is_dominant(w)}


# The Schur -> monomial table, s_mu = sum_w K_mu,w m_w over V_mu's dominant weights.
_dominant_weights = _on_cores(_dominant_entry, _check_patterns)


def schur(mu):
    """The Schur polynomial s_mu as a SymPoly (irreducible GL_n character)."""
    mu = _highest_weight(mu)
    return SymPoly._from_canonical(len(mu), _apply({mu: _ONE}, _dominant_weights))


def expand_in_schur(f):
    """Exact expansion of a SymPoly in the Schur basis.

    Returns {mu: LaurentScalar}; always succeeds since the Schur basis is
    unitriangular against the monomial basis along dominance.
    """
    if not isinstance(f, SymPoly):
        raise ValueError("expand_in_schur wants a SymPoly")
    new = LaurentScalar._from_canonical
    return {w: new(c) for w, c in _solve({w: dict(c) for w, c in f._terms.items()}, _dominant_weights).items()}


# -- Weyl straightening: Brauer-Klimyk and Hall-Littlewood --------------


def _straighten(beta):
    """(sign, beta sorted descending) when beta's entries are distinct, else (0, None).

    The Weyl straightening rule a_beta / a_rho = sign * s_{sort(beta) - rho},
    with a_beta = sum_w sgn(w) x^{w beta} the alternant and sign the sign of
    the permutation that sorts beta; a_beta = 0 when two entries agree.
    """
    sign = 1
    n = len(beta)
    for i in range(n - 1):
        b = beta[i]
        for j in range(i + 1, n):
            if b < beta[j]:
                sign = -sign
            elif b == beta[j]:
                return 0, None
    return sign, tuple(sorted(beta, reverse=True))


def _brauer_klimyk(a, b):
    """V_a (x) V_b as {highest weight: nonzero int}, by Brauer-Klimyk on the weights of the smaller factor.

    Only the factor of smaller dimension has its Gelfand-Tsetlin patterns
    enumerated; of the other, only the highest weight is used.  Each weight
    w of multiplicity m is straightened in the loop, as _straighten would:
    beta = a + rho + w is made once, as a list; one pass over its pairs
    flips m's sign at each inversion and drops beta at the first two equal
    entries; only a beta with distinct entries is sorted, in place, and
    contributes m to V_{sort(beta) - rho}.
    """
    if _weyl_dimension(a) < _weyl_dimension(b):
        a, b = b, a
    weights, shift = _pattern_weights(b)
    rho = range(len(a) - 1, -1, -1)
    top = [x + r + shift for x, r in zip(a, rho)]
    out = {}
    for w, m in weights.items():
        beta = list(map(add, top, w))
        for i, x in enumerate(beta, 1):
            for y in beta[i:]:
                if x <= y:
                    if x == y:
                        break
                    m = -m
            else:
                continue
            break  # two equal entries: a_beta = 0
        else:
            beta.sort(reverse=True)
            lam = tuple(map(sub, beta, rho))
            out[lam] = out.get(lam, 0) + m
    return {lam: c for lam, c in out.items() if c}


# -- the Pieri rules: strips, closed cores and the one dispatch ----------


def _is_closed(kappa):
    """Whether a core multiplies by a Pieri rule: kappa is zero, one column, one row or (r, ..., r, 0), a row's dual."""
    return kappa[0] <= 1 or not kappa[1] or kappa[-2] == kappa[0]


def _dual(kappa):
    """The core of kappa*, for a core kappa: (kappa_1 - kappa_n, ..., kappa_1 - kappa_1)."""
    return tuple([kappa[0] - x for x in reversed(kappa)])


def _vertical_strips(kappa, k):
    """Each lam with lam/kappa a vertical k-strip, with the rows holding its boxes."""
    for strip in itertools.combinations(range(len(kappa)), k):
        lam = list(kappa)
        for i in strip:
            lam[i] += 1
        if not any(i and lam[i - 1] < lam[i] for i in strip):
            yield tuple(lam), strip


def _horizontal_strips(kappa, r):
    """Each lam, at most n rows, with lam/kappa a horizontal r-strip: lam_1 >= kappa_1 >= lam_2 >= ... >= kappa_n."""
    heads = [((), r)]
    for i in range(len(kappa) - 1, 0, -1):
        top = kappa[i - 1] - kappa[i]
        heads = [((kappa[i] + a,) + tail, left - a) for tail, left in heads for a in range(min(top, left) + 1)]
    return [(kappa[0] + left,) + tail for tail, left in heads]


def _closed_product(lam, mu, column, row):
    """The product of the basis elements of two cores, one of them _is_closed, by a column rule or a row rule.

    column(k, kappa) multiplies kappa by the column (1^k), row(r, kappa) by
    the row (r, 0, ..., 0).  A zero or one-column core takes the column rule
    and a one-row core the row rule; a core (r, ..., r, 0) is the dual of the
    row (r), so the product is the row rule on the dual of the other core,
    with every key nu moved back to (s - nu_n, ..., s - nu_1), s = r + the
    other's first entry.
    """
    for a, b in ((lam, mu), (mu, lam)):
        if a[0] <= 1:
            return column(a.count(1), b)
        if not a[1]:
            return row(a[0], b)
    a, b = (lam, mu) if lam[-2] == lam[0] else (mu, lam)
    s = a[0] + b[0]
    return {tuple([s - x for x in reversed(nu)]): c for nu, c in row(a[0], _dual(b)).items()}


def _schur_column(k, kappa):
    """s_kappa e_k = sum of s_lam over the vertical k-strips lam/kappa (Macdonald, SFHP, I (5.17))."""
    return {lam: 1 for lam, _ in _vertical_strips(kappa, k)}


def _schur_row(r, kappa):
    """s_kappa h_r = sum of s_lam over the horizontal r-strips lam/kappa (Macdonald, SFHP, I (5.16))."""
    return dict.fromkeys(_horizontal_strips(kappa, r), 1)


def _tensor_entry(a, b):
    """V_a (x) V_b for cores: by the Schur Pieri rules when one of them _is_closed, else by Brauer-Klimyk.

    The table's pattern cap runs on both weights before this route, so a
    pair past the cap is refused even where the Pieri rules could finish it.
    """
    if _is_closed(a) or _is_closed(b):
        return _closed_product(a, b, _schur_column, _schur_row)
    return _brauer_klimyk(a, b)


# s_a s_b in the Schur basis: the table of repring.tensor and of hecke's transform product.
_tensor_irreducibles = _on_cores(_tensor_entry, _check_patterns)


# Weight entries _hl_expand's expansion may hold, 2^pairs terms of n entries: the largest admitted,
# (1,0^17) with 2^17 distinct terms, takes 0.6 s and 80 MB on a 2-core host.  Every weight of
# rank <= 6 is admitted; (7,6,...,0) is refused.
_MAX_HL_ENTRIES = 1 << 22


def _expansions_proved(n):
    """Whether _check_expansion passes every weight of rank n: every rank <= 6 under the cap as set.

    Even with all entries distinct, P_mu expands to 2^(n(n-1)/2) terms of n
    entries, and the check refuses none of rank n when those are within
    _MAX_HL_ENTRIES.
    """
    return n << min(n * (n - 1) // 2, 64) <= _MAX_HL_ENTRIES


def _check_expansion(mu):
    """Refuse P_mu when its expansion, 2^pairs terms of n entries, passes _MAX_HL_ENTRIES entries."""
    n = len(mu)
    if _expansions_proved(n):
        return
    pairs = n * (n - 1) // 2 - sum(m * (m - 1) // 2 for m in Counter(mu).values())
    if n << min(pairs, 64) > _MAX_HL_ENTRIES:
        raise ValueError(f"P_{mu} expands to 2^{pairs} terms of {n} entries, over the cap of {_MAX_HL_ENTRIES} entries")


def _hl_expand(mu):
    """P_mu in the Schur basis for a checked dominant mu, as {lam: coefficient dict}, by straightening.

    Expands x^{mu + rho_B} prod_{mu_i > mu_j} (x_i - t x_j) as
    {(beta, deg_t): int} and straightens each a_beta / a_rho into a Schur
    coefficient in Z[t], t^k = v^-2k.  The product has a factor per pair
    mu_i > mu_j, so up to 2^pairs terms of n entries: _check_expansion
    bounds it.
    """
    n = len(mu)
    start = tuple(x + mu[i + 1:].count(x) for i, x in enumerate(mu))  # mu + rho_B
    poly = {(start, 0): 1}
    for i in range(n):
        for j in range(i + 1, n):
            if mu[i] == mu[j]:
                continue
            nxt = {}
            for (beta, k), c in poly.items():
                up = (beta[:i] + (beta[i] + 1,) + beta[i + 1:], k)
                nxt[up] = nxt.get(up, 0) + c
                up = (beta[:j] + (beta[j] + 1,) + beta[j + 1:], k + 1)
                nxt[up] = nxt.get(up, 0) - c
            poly = {key: c for key, c in nxt.items() if c}
    rho = range(n - 1, -1, -1)
    out = {}
    for (beta, k), c in poly.items():
        sign, beta = _straighten(beta)
        if sign:
            _accumulate(out, tuple([x - r for x, r in zip(beta, rho)]), {-2 * k: c}, sign)
    return out


# P_mu in the Schur basis, {lam: coefficient dict}.
_hl_terms = _on_cores(_hl_expand, _check_expansion)


def hall_littlewood(mu):
    """P_mu(x; t) in the monomial basis, t = v^-2, by Weyl straightening.

    Unitriangular: the leading coefficient (of m_mu) is 1 and every other key
    is strictly dominance-smaller, with coefficients in Z[v^-2].
    """
    mu = _highest_weight(mu)
    return SymPoly._from_canonical(len(mu), _apply(_apply({mu: _ONE}, _hl_terms), _dominant_weights))
