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
met only at the boundary, and each public function builds one LaurentScalar
per output term.

convolve multiplies by a table in symfunc._bilinear, the product loop of
SymPoly's orbit products and RepElement's Brauer-Klimyk products too:
_structure_constants, the table of _transform_product keyed on cores up to
duality by symfunc._on_cores (the keying is stated once, in symfunc's
module docstring).  Each lookup hands over the cached entry of the pair of
cores, {nu: coefficient dict}, with the summed central shift; the loop
moves each nu by it as it writes the term into the product, so the entry
is read once and never copied, and each output term gets its own scalar.
The Hall-Littlewood entries of _hl_terms are read the same way, moved as
_apply and _solve read them.  The keying applies to T_lam * T_mu:
T_(1,...,1) is central and invertible, P_{mu + k(1,...,1)} = (x_1...x_n)^k
P_mu and <2rho, (1,...,1)> = 0, so a central shift moves every nu and no
coefficient; and g -> (g^T)^-1 preserves K and sends T_lam to T_lam*, lam* =
-w0 lam, with <2rho, lam*> = <2rho, lam>, so T_lam* * T_mu* is T_lam * T_mu
with every nu replaced by nu* (Macdonald, Symmetric Functions and Hall
Polynomials, III.2 and V.2).  A refusal met inside a
product names a weight of the product of the cores asked for.

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
"""

import itertools
from fractions import Fraction

from .laurent import LaurentScalar
from .rootdata import _is_dominant, _two_rho_pairing, check_weight
from .symfunc import (
    Combination,
    SymPoly,
    _apply,
    _bilinear,
    _check_expansion,
    _check_patterns,
    _coeffs,
    _dominant_weights,
    _hl_terms,
    _on_cores,
    _scalars,
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
    return HeckeElement._from_canonical(len(mu), {mu: LaurentScalar.one()})


def satake(h):
    """The Satake transform into symmetric Laurent polynomials."""
    if not isinstance(h, HeckeElement):
        raise ValueError("satake wants a HeckeElement")
    in_schur = _apply(_twist(_coeffs(h.terms), 1), _hl_terms)
    return SymPoly._from_canonical(h.n, _scalars(_apply(in_schur, _dominant_weights)))


def normalized_satake(h):
    """The transform without the v^<2rho,mu> twist: T_mu -> P_mu(x; v^-2)."""
    if not isinstance(h, HeckeElement):
        raise ValueError("normalized_satake wants a HeckeElement")
    in_schur = _apply(_coeffs(h.terms), _hl_terms)
    return SymPoly._from_canonical(h.n, _scalars(_apply(in_schur, _dominant_weights)))


def inverse_satake(f):
    """The inverse transform; total on symmetric Laurent polynomials.

    Expands f in the Schur basis, then in the basis P_mu, both by
    symfunc._solve, since s_mu and P_mu are unitriangular; the coefficient
    of P_mu divided by v^<2rho,mu> is that of T_mu.
    """
    if not isinstance(f, SymPoly):
        raise ValueError("inverse_satake wants a SymPoly")
    in_schur = _solve({w: dict(c.coeffs) for w, c in f.terms.items()}, _dominant_weights)
    return HeckeElement._from_canonical(f.n, _scalars(_twist(_solve(in_schur, _hl_terms), -1)))


def convolve(a, b):
    """Convolution product: sum over pairs of terms of c_lam c_mu T_lam * T_mu, from the table.

    T_lam * T_mu is the table's product of the cores with every coweight
    moved by (lam_n + mu_n)(1, ..., 1).  Before any entry is read, every
    coweight is checked under its own name in the order the transform route
    meets it: the Hall-Littlewood cap on a's terms, then b's; the
    Gelfand-Tsetlin cap in the order _bilinear looks the pairs up, a's
    first term, b's terms, then the rest of a's.  The table's lookup checks
    the pattern cap only on the pair it is handed, and an earlier pair's
    entry can be refused inside the route, at a Schur key or product key of
    its own, so the pattern caps of all terms come first, in a loop of their
    own, unless a and b hold one term each: then the one lookup checks the
    same two coweights in the same order, and the loop is skipped.
    """
    if not isinstance(a, HeckeElement) or not isinstance(b, HeckeElement):
        raise ValueError("convolve wants two HeckeElements")
    a._check_rank(b)
    for mu in itertools.chain(a.terms, b.terms):
        _check_expansion(mu)
    if len(a.terms) != 1 or len(b.terms) != 1:
        terms = list(a.terms)
        for mu in itertools.chain(terms[:1], b.terms, terms[1:]):
            _check_patterns(mu)
    return HeckeElement._from_canonical(a.n, _bilinear(a.terms, b.terms, _structure_constants))


def _transform_product(lam, mu):
    """T_lam * T_mu as {nu: coefficient dict}: the Schur-basis product of the two Satake transforms, pulled back.

    Every Schur key of the two transforms is checked against the pattern cap
    first, in descending order, so a refusal names the largest one over it.
    """
    fa = _apply(_twist({lam: {0: 1}}, 1), _hl_terms)
    fb = _apply(_twist({mu: {0: 1}}, 1), _hl_terms)
    for nu in sorted({*fa, *fb}, reverse=True):
        _check_patterns(nu)
    # the product's scalars are new and dropped here, so the elimination may own their dicts
    return _twist(_solve(_coeffs(_bilinear(_scalars(fa), _scalars(fb), _tensor_irreducibles)), _hl_terms), -1)


_structure_constants = _on_cores(_transform_product, _check_patterns)


def _twist(terms, sign):
    """Each term c_mu times v^(sign <2rho,mu>), as a new {weight: coefficient dict} term dict."""
    out = {}
    for mu, c in terms.items():
        s = sign * _two_rho_pairing(mu)
        out[mu] = {k + s: x for k, x in c.items()}
    return out


def specialize_v(x, q_value):
    """Substitute v = sqrt(q_value), exactly.

    LaurentScalar -> Fraction or QuadExt; HeckeElement / SymPoly -> dict
    mapping each support weight to the specialized coefficient.
    """
    q = Fraction(q_value)
    if isinstance(x, LaurentScalar):
        return x.specialize(q)
    if isinstance(x, (HeckeElement, SymPoly)):
        return {w: c.specialize(q) for w, c in sorted(x.terms.items())}
    raise ValueError(f"cannot specialize {x!r}")
