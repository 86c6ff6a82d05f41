"""The spherical Hecke algebra of GL_n over a p-adic field, transformed.

Basis elements T_mu are indexed by dominant coweights mu (characteristic
functions of the double cosets K mu(p) K), with coefficients in Z[v, v^-1]
where v^2 = q is the residue cardinality kept symbolic.

The algebra structure is never computed by coset combinatorics here; the
Satake isomorphism does all the work:

    satake(T_mu) = v^<2rho, mu> P_mu(x; v^-2)

with P_mu the Hall-Littlewood polynomial.  This lands T_mu in symmetric
Laurent polynomials, the representation ring of the dual group; convolution
is the product there, pulled back through the inverse transform.  The
inverse is dominance-triangular elimination against the basis
{v^<2rho,mu> P_mu}, which is unitriangular against the Schur basis
(P_mu = s_mu + lower terms), so the transform is a bijection and convolve()
is exact.

The transforms run in the Schur basis, on term dicts {weight: {v-exponent:
coeff}} of plain ints (or Fractions), as compositions of symfunc's two
change-of-basis kernels and _twist, which multiplies each term c_mu by
v^(+-<2rho,mu>): satake is _apply by the Hall-Littlewood table
symfunc._hl_terms after _twist(+1), then _apply by the Schur -> monomial
table symfunc._dominant_weights; inverse_satake is _solve by the same two
tables in the other order, then _twist(-1).  The product of two transforms
is symfunc._bilinear by the Brauer-Klimyk table
symfunc._tensor_irreducibles, as in repring.tensor.  The monomial basis is
met only at the boundary, and each public function hands its dicts straight
to the element it returns, building no LaurentScalar.

convolve multiplies by a table in symfunc._bilinear, the product loop of
SymPoly's orbit products and RepElement's Brauer-Klimyk products too:
_structure_constants, keyed on cores up to duality by symfunc._on_cores
(the keying is stated once, in symfunc's module docstring).  Each lookup
hands over the cached entry of the pair of cores, {nu: coefficient dict},
with the summed central shift; the loop moves each nu by it as it writes the
term into the product, so the entry is read once and never copied, and each
output term gets its own coefficient dict.  The Hall-Littlewood entries of
_hl_terms are read the same way, moved as _apply and _solve read them.  The
keying applies to T_lam * T_mu: T_(1,...,1) is central and invertible,
P_{mu + k(1,...,1)} = (x_1...x_n)^k P_mu and <2rho, (1,...,1)> = 0, so a
central shift moves every nu and no coefficient; and g -> (g^T)^-1
preserves K and sends T_lam to T_lam*, lam* = -w0 lam, with <2rho, lam*> =
<2rho, lam>, so T_lam* * T_mu* is T_lam * T_mu with every nu replaced by
nu* (Macdonald, Symmetric Functions and Hall Polynomials, III.2 and V.2).

The entries rest on the Hall-Littlewood Pieri rules pulled back through the
transform, with t = v^-2 (Macdonald, III (3.2) and III (5.7')):

- the column rule, P_kappa e_k = sum_lam prod_j [m_j(lam); theta'_j]_t
  P_lam over the vertical k-strips lam/kappa (theta'_j the strip's boxes in
  column j, m_j(lam) the rows of lam of length j), with e_k = P_(1^k):
  T_(1^k) * T_kappa = sum_lam v^(k(n-k) + <2rho,kappa> - <2rho,lam>)
  prod_j [m_j(lam); theta'_j]_t T_lam, the Gaussian binomials read off
  laurent's q-Pascal rows;
- the row rule, P_kappa q_r = sum_lam phi_lam/kappa(t) P_lam over the
  horizontal r-strips, with q_r = (1 - t) P_(r) and phi the product of
  1 - t^m_j(lam) over the columns j holding a strip box while column j + 1
  holds none: T_(r) * T_kappa = sum_lam v^((n-1)r + <2rho,kappa> -
  <2rho,lam>) phi_lam/kappa(t) / (1 - t) T_lam.

_structure_constants computes the entry of a pair of cores by these rules,
or, for long two-row products, by the product of two transforms.  When a
factor, or the dual of one, is zero, one column or one row (its core is
(0^n), (1^k, 0^(n-k)), (r, 0, ..., 0) or (r, ..., r, 0)), the entry is a
closed form, read off the table _closed.  Any other pair is
peeled: for a core kappa with k rows, the column rule gives T_(1^k) *
T_{kappa - (1^k)} = T_kappa + sum_{nu != kappa} d_nu T_nu, so

    T_kappa * T_mu = T_(1^k) * (T_{kappa - (1^k)} * T_mu) - sum_{nu != kappa} d_nu T_nu * T_mu,

and _peel_against runs this bottom up over every core the peel of kappa
reaches, in a loop: the products of closed cores and the column products
are read off _closed, the others are made in turn and dropped with the
entry.  Of the two factors and their duals, the one whose peel reaches the
fewest cores is peeled.  The peel is fast at rank >= 4 and with short
factors, and slow on long two-row factors, whose peels reach a number of
cores quadratic in their length, each a whole product: the peel of
(40, 20, 0) in GL_3 reaches 300 cores, of (100, 50, 0) 1,875.  There the
Schur-basis route is faster: the product of the two transforms, with a
Brauer-Klimyk product of every pair of Schur terms, pulled back by
elimination (_schur_product).  So a pair is peeled only when its peel
reaches at most a quarter as many cores as the Schur route takes
Brauer-Klimyk products, and else takes the Schur route; then the peel
holds fewer products than the Schur route would make.  The two routes are
held to each other in tests/test_hecke.py.

The checks are the Schur route's, in its order, whichever route runs: the
pattern cap on every Schur key of P_lam and P_mu in descending order, then
the Hall-Littlewood cap on the product's keys in descending order, lam + mu
first and before any product is taken.  So every product is refused as the
Schur route refuses it, by the same weight: a refusal met inside a product
names a weight of the product of the cores asked for.  A check is skipped
only where the cores prove that it passes, each proof read off the live cap
when it is made: every Schur key nu of P_kappa is dominance-below the core
kappa, so 0 <= nu_n <= nu_1 <= kappa_1 and dim V_nu is at most
symfunc._pattern_bound(kappa_1, n), which skips the Schur keys when it is
within the pattern cap (kappa_1 <= 98 at rank 3, <= 11 at rank 4);
and every weight of rank n passes the Hall-Littlewood cap when
n 2^(n(n-1)/2) entries do (every rank <= 6), which skips the product's
keys.  Past either proof the checks run as stated.  Nothing caps the total
work of an admitted product on either route.

An independent check of all of this against brute-force lattice counting
lives in plattice.convolution_oracle; the two routes share no code.

>>> convolve(basis((1, 0)), basis((1, 0)))
HeckeElement(n=2, T[2,0] + (1+v^2)*T[1,1])
>>> convolve(basis((2, 1)), basis((2, 1)))  # the same table entry, moved by 2(1, 1)
HeckeElement(n=2, T[4,2] + (1+v^2)*T[3,3])
>>> convolve(basis((2, 0, 0)), basis((1, 1, 0)))
HeckeElement(n=3, T[3,1,0] + (v^4)*T[2,1,1])
>>> convolve(basis((2, 2, 0)), basis((1, 0, 0)))  # the dual pair: nu -> (3 - nu_3, 3 - nu_2, 3 - nu_1)
HeckeElement(n=3, T[3,2,0] + (v^4)*T[2,2,1])
>>> convolve(basis((1, 1, 0)), basis((2, 1, 0)))  # minuscule: the column rule; [2; 1]_t = 1 + t twice
HeckeElement(n=3, T[3,2,0] + (1+v^2)*T[3,1,1] + (v^2+v^4)*T[2,2,1])
>>> convolve(basis((2, 0)), basis((2, 0)))  # one row: the row rule; phi / (1 - t) = 1 - t at (3, 1), 1 + t at (2, 2)
HeckeElement(n=2, T[4,0] + (-1+v^2)*T[3,1] + (v^2+v^4)*T[2,2])
"""

import itertools
from collections import Counter

from .laurent import LaurentScalar, _add_scaled, _gauss_rows, _rational, _times
from .rootdata import _is_dominant, _two_rho_pairing, check_weight
from .symfunc import (
    Combination,
    SymPoly,
    _accumulate,
    _apply,
    _bilinear,
    _check_expansion,
    _check_patterns,
    _dominant_weights,
    _expansions_proved,
    _hl_terms,
    _on_cores,
    _patterns_proved,
    _solve,
    _tensor_irreducibles,
)


class HeckeElement(Combination):
    __slots__ = ()
    _key = "coweight"
    _symbol = "T"
    _bad_rank = "coweight {} has rank {}, expected {}"
    _bad_key = "basis coweights must be dominant: {}"

    @classmethod
    def unit(cls, n):
        return cls(n, {(0,) * n: 1})


def basis(mu):
    mu = check_weight(mu)
    if not _is_dominant(mu):
        raise ValueError(f"basis coweight must be dominant: {mu}")
    return HeckeElement._from_canonical(len(mu), {mu: {0: 1}})


def satake(h):
    """The Satake transform into symmetric Laurent polynomials."""
    if not isinstance(h, HeckeElement):
        raise ValueError("satake wants a HeckeElement")
    in_schur = _apply(_twist(h._terms, 1), _hl_terms)
    return SymPoly._from_canonical(h.n, _apply(in_schur, _dominant_weights))


def normalized_satake(h):
    """The transform without the v^<2rho,mu> twist: T_mu -> P_mu(x; v^-2)."""
    if not isinstance(h, HeckeElement):
        raise ValueError("normalized_satake wants a HeckeElement")
    in_schur = _apply(h._terms, _hl_terms)
    return SymPoly._from_canonical(h.n, _apply(in_schur, _dominant_weights))


def inverse_satake(f):
    """The inverse transform; total on symmetric Laurent polynomials.

    Expands f in the Schur basis, then in the basis P_mu, both by
    symfunc._solve, since s_mu and P_mu are unitriangular; the coefficient
    of P_mu divided by v^<2rho,mu> is that of T_mu.
    """
    if not isinstance(f, SymPoly):
        raise ValueError("inverse_satake wants a SymPoly")
    in_schur = _solve({w: dict(c) for w, c in f._terms.items()}, _dominant_weights)
    return HeckeElement._from_canonical(f.n, _twist(_solve(in_schur, _hl_terms), -1))


def convolve(a, b):
    """Convolution product: sum over pairs of terms of c_lam c_mu T_lam * T_mu, from the table.

    T_lam * T_mu is the table's product of the cores with every coweight
    moved by (lam_n + mu_n)(1, ..., 1).  Before any entry is read, every
    coweight is checked under its own name in the order the transform route
    meets it: the Hall-Littlewood cap on a's terms, then b's, unless the
    rank alone proves that every weight passes it; the Gelfand-Tsetlin cap
    in the order _bilinear looks the pairs up, a's first term, b's terms,
    then the rest of a's.  The table's lookup checks the pattern cap only on
    the pair it is handed, and an earlier pair's entry can be refused inside
    the route, at a Schur key or product key of its own, so the pattern caps
    of all terms come first, in a loop of their own, unless a and b hold one
    term each: then the one lookup checks the same two coweights in the same
    order, and the loop is skipped.
    """
    if not isinstance(a, HeckeElement) or not isinstance(b, HeckeElement):
        raise ValueError("convolve wants two HeckeElements")
    a._check_rank(b)
    if not _expansions_proved(a.n):
        for mu in itertools.chain(a._terms, b._terms):
            _check_expansion(mu)
    if len(a._terms) != 1 or len(b._terms) != 1:
        terms = list(a._terms)
        for mu in itertools.chain(terms[:1], b._terms, terms[1:]):
            _check_patterns(mu)
    return HeckeElement._from_canonical(a.n, _bilinear(a._terms, b._terms, _structure_constants))


def _checked_product(lam, mu):
    """T_lam * T_mu for cores, as {nu: coefficient dict}: checked as the Schur route checks it, then by the cheaper route.

    Every Schur key of P_lam and P_mu is checked against the pattern cap
    first, in descending order, so a refusal names the largest one over it,
    unless _patterns_proved(max(lam_1, mu_1), n) shows that none is over
    it: then neither expansion is read for the check.  Then the
    Hall-Littlewood cap runs on lam + mu, the largest key of the product,
    before any product is taken.  A pair with a closed form reads it off
    _closed; any other is peeled if its peel reaches at most a quarter as
    many cores as the Schur route takes Brauer-Klimyk products, the sizes of
    the two expansions, else taken by the Schur route.  The Hall-Littlewood
    cap then runs on the product's keys in descending order, as the Schur
    route's elimination runs it.  Both Hall-Littlewood checks are skipped
    at a rank that _expansions_proved.  An entry of _closed is handed out
    as it is, not copied.
    """
    n = len(lam)
    if not _patterns_proved(max(lam[0], mu[0]), n):
        schur = _hl_terms(lam)[0], _hl_terms(mu)[0]
        for nu in sorted({*schur[0], *schur[1]}, reverse=True):
            _check_patterns(nu)
    expansions = _expansions_proved(n)
    if not expansions:
        _check_expansion(tuple([x + y for x, y in zip(lam, mu)]))
    if _is_closed(lam) or _is_closed(mu):
        entry = _closed(lam, mu)[0]
    else:
        entry = _peel(lam, mu, len(_hl_terms(lam)[0]) * len(_hl_terms(mu)[0]) // 4)
        if entry is None:
            return _schur_product(lam, mu)
    if not expansions:
        for nu in sorted(entry, reverse=True):
            _check_expansion(nu)
    return entry


_structure_constants = _on_cores(_checked_product, _check_patterns)


def _schur_product(lam, mu):
    """T_lam * T_mu for cores: the Schur-basis product of the two Satake transforms, pulled back by elimination."""
    fa = _apply(_twist({lam: {0: 1}}, 1), _hl_terms)
    fb = _apply(_twist({mu: {0: 1}}, 1), _hl_terms)
    # the product's dicts are new and dropped here, so the elimination may own them
    return _twist(_solve(_bilinear(fa, fb, _tensor_irreducibles), _hl_terms), -1)


def _is_closed(kappa):
    """Whether T_kappa multiplies by a closed form: the core kappa is zero, one column, one row or (r, ..., r, 0), a row's dual."""
    return kappa[0] <= 1 or not kappa[1] or kappa[-2] == kappa[0]


def _closed_entry(lam, mu):
    """T_lam * T_mu for cores, one of them _is_closed, by the column rule or the row rule."""
    for a, b in ((lam, mu), (mu, lam)):
        if a[0] <= 1:
            return _column_rule(a.count(1), b)
        if not a[1]:
            return _row_rule(a[0], b)
    a, b = (lam, mu) if lam[-2] == lam[0] else (mu, lam)
    s = a[0] + b[0]
    return {tuple([s - x for x in reversed(nu)]): c for nu, c in _row_rule(a[0], _dual(b)).items()}


# T_lam * T_mu on cores, one of them _is_closed, unchecked: the entries _peel reads.
_closed = _on_cores(_closed_entry)


def _dual(kappa):
    """The core of kappa*, for a core kappa: (kappa_1 - kappa_n, ..., kappa_1 - kappa_1)."""
    return tuple([kappa[0] - x for x in reversed(kappa)])


def _peel(lam, mu, limit):
    """T_lam * T_mu for cores, neither _is_closed, by peeling one factor or its dual; None if every peel reaches more than limit cores.

    Of lam, mu and their duals, the factor whose peel reaches the fewest
    cores is peeled against the other, and the entry of the dual pair is
    moved back: nu -> (s - nu_n, ..., s - nu_1), s = lam_1 + mu_1.
    """
    lam_, mu_ = _dual(lam), _dual(mu)
    best = None
    for a, b, dual in ((lam, mu, False), (mu, lam, False), (lam_, mu_, True), (mu_, lam_, True)):
        cores = _peel_cores(a, limit)
        if cores is not None:
            best = cores, b, dual
            limit = len(cores) - 1
    if best is None:
        return None
    cores, b, dual = best
    entry = _peel_against(cores, b)
    if dual:
        s = lam[0] + mu[0]
        entry = {tuple([s - x for x in reversed(nu)]): c for nu, c in entry.items()}
    return entry


def _peel_cores(lam, limit):
    """The cores lam's peel reaches, _is_closed ones left out, each with its k and rest, every core after those it reads.

    None if they are more than limit (None: no limit).  Sorted by size, then
    lexicographically: rest is smaller, and a vertical k-strip on rest other
    than kappa's is lex-smaller than kappa, or moved down a size by its
    central shift.
    """
    n = len(lam)
    reached = {}
    stack = [lam]
    while stack:
        kappa = stack.pop()
        if kappa in reached or _is_closed(kappa):
            continue
        if len(reached) == limit:
            return None
        k = n - kappa.count(0)
        rest = tuple([x - 1 if x else 0 for x in kappa])
        reached[kappa] = k, rest
        stack.append(rest)
        for nu, _ in _vertical_strips(rest, k):
            if nu != kappa:
                s = nu[-1]
                stack.append(tuple([x - s for x in nu]) if s else nu)
    return sorted(reached.items(), key=lambda item: (sum(item[0]), item[0]))


def _peel_against(cores, mu):
    """T_kappa * T_mu for the last of cores, as _peel_cores gives them, bottom up.

    With k the rows of kappa and rest = kappa - (1^k), the column rule gives
    T_(1^k) * T_rest = T_kappa + sum_{nu != kappa} d_nu T_nu, so T_kappa * T_mu =
    T_(1^k) * (T_rest * T_mu) - sum_{nu != kappa} d_nu T_nu * T_mu.  Each
    product on the right is of a core met earlier, read off the products made
    here, or of a core that _is_closed, read off _closed; the products made
    here are dropped with the entry.
    """
    done = {}

    def product(kappa):
        entry = done.get(kappa)
        return entry if entry is not None else _closed(kappa, mu)[0]

    for kappa, (k, rest) in cores:
        ones = (1,) * k + (0,) * (len(kappa) - k)
        out = {}
        for kappa2, c in product(rest).items():
            entry, s = _closed(ones, kappa2)
            for nu, x in entry.items():
                _accumulate(out, tuple([y + s for y in nu]) if s else nu, c, x)  # x, the column rule's coefficient, is the shorter
        for nu, d in _closed(ones, rest)[0].items():
            if nu != kappa:
                s = nu[-1]
                minus_d = {e: -x for e, x in d.items()}
                for nu2, x in product(tuple([y - s for y in nu]) if s else nu).items():
                    _accumulate(out, tuple([y + s for y in nu2]) if s else nu2, x, minus_d)
        done[kappa] = out
    return out


def _row_rule(r, kappa):
    """T_(r, 0, ..., 0) * T_kappa as {lam: coefficient dict}, by Macdonald's P_kappa q_r, III (5.7').

    P_kappa q_r = sum_lam phi_lam/kappa(t) P_lam over the horizontal r-strips
    lam/kappa, with q_r = (1 - t) P_(r) and phi the product of 1 - t^m_j(lam)
    over the columns j holding a strip box while column j + 1 holds none; the
    first such factor over 1 - t is [m_j(lam)]_t.  T_lam's coefficient is
    that times v^((n - 1) r + <2rho, kappa> - <2rho, lam>).
    """
    n = len(kappa)
    out = {}
    for lam in _horizontal_strips(kappa, r):
        added = [x - y for x, y in zip(lam, kappa)]
        e = (n - 1) * r - sum((n - 1 - 2 * i) * a for i, a in enumerate(added))
        starts = {y for y, a in zip(kappa, added) if a}  # column j + 1 holds a box when a row's boxes start there
        c = None
        for j, a in zip(lam, added):
            if a and j not in starts:
                m = lam.count(j)
                c = {e - 2 * b: 1 for b in range(m)} if c is None else _add_scaled(dict(c), c, -1, -2 * m)
        out[lam] = c
    return out


def _horizontal_strips(kappa, r):
    """Each lam, at most n rows, with lam/kappa a horizontal r-strip: lam_1 >= kappa_1 >= lam_2 >= ... >= kappa_n."""
    heads = [((), r)]
    for i in range(len(kappa) - 1, 0, -1):
        top = kappa[i - 1] - kappa[i]
        heads = [((kappa[i] + a,) + tail, left - a) for tail, left in heads for a in range(min(top, left) + 1)]
    return [(kappa[0] + left,) + tail for tail, left in heads]


def _column_rule(k, kappa):
    """T_(1^k) * T_kappa as {lam: coefficient dict}, by Macdonald's P_kappa e_k, III (3.2).

    P_kappa e_k = sum_lam prod_j [m_j(lam); theta'_j]_t P_lam over the
    vertical k-strips lam/kappa, theta'_j the strip's boxes in column j; the
    Gaussian binomials in t = v^-2 are read off the q-Pascal rows.  T_lam's
    coefficient is that times v^(k(n - k) + <2rho, kappa> - <2rho, lam>).
    """
    n = len(kappa)
    rows = None
    out = {}
    for lam, strip in _vertical_strips(kappa, k):
        c = {k * (n - k) - sum(n - 1 - 2 * i for i in strip): 1}
        for j, theta in Counter([lam[i] for i in strip]).items():
            m = lam.count(j)
            if theta < m:
                if rows is None:
                    rows = list(_gauss_rows(n, n))
                c = _times({-2 * e: x for e, x in rows[m][theta].items()}, c)
        out[lam] = c
    return out


def _vertical_strips(kappa, k):
    """Each lam with lam/kappa a vertical k-strip, with the rows holding its boxes."""
    for strip in itertools.combinations(range(len(kappa)), k):
        lam = list(kappa)
        for i in strip:
            lam[i] += 1
        if not any(i and lam[i - 1] < lam[i] for i in strip):
            yield tuple(lam), strip


def _twist(terms, sign):
    """Each term c_mu times v^(sign <2rho,mu>), as a new {weight: coefficient dict} term dict."""
    out = {}
    for mu, c in terms.items():
        s = sign * _two_rho_pairing(mu)
        out[mu] = {k + s: x for k, x in c.items()}
    return out


def specialize_v(x, q_value):
    """Substitute v = sqrt(q_value), exactly, for an int or Fraction q_value.

    LaurentScalar -> Fraction or QuadExt; HeckeElement / SymPoly -> dict
    mapping each support weight to the specialized coefficient.
    """
    if not _rational(q_value):
        raise ValueError(f"q must be an int or a Fraction, got {q_value!r}")
    if isinstance(x, LaurentScalar):
        return x.specialize(q_value)
    if isinstance(x, (HeckeElement, SymPoly)):
        return {w: c.specialize(q_value) for w, c in sorted(x.terms.items())}
    raise ValueError(f"cannot specialize {x!r}")
