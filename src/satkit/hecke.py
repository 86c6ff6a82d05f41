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
coeff}} of plain ints (or Fractions): _satake_terms reads the cached
symfunc._hl_schur, _inverse_satake_terms eliminates in place, and convolve
multiplies by symfunc._schur_product, the Brauer-Klimyk product that
repring.tensor uses.  The monomial basis is met only at the boundary:
satake and normalized_satake convert their result by symfunc._to_monomial
and inverse_satake its argument by symfunc._to_schur, and each public
function builds one LaurentScalar per output term.

An independent check of all of this against brute-force lattice counting
lives in plattice.convolution_oracle; the two routes share no code.

>>> convolve(basis((1, 0)), basis((1, 0)))
HeckeElement(n=2, T[2,0] + (1+v^2)*T[1,1])
"""

from fractions import Fraction

from .laurent import LaurentScalar
from .rootdata import _is_dominant, _two_rho_pairing, check_weight
from .symfunc import (
    Combination,
    SymPoly,
    _add_terms,
    _coeffs,
    _hl_schur,
    _scalars,
    _schur_product,
    _to_monomial,
    _to_schur,
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
    return SymPoly._from_canonical(h.n, _scalars(_to_monomial(_satake_terms(_coeffs(h.terms), True))))


def normalized_satake(h):
    """The transform without the v^<2rho,mu> twist: T_mu -> P_mu(x; v^-2)."""
    if not isinstance(h, HeckeElement):
        raise ValueError("normalized_satake wants a HeckeElement")
    return SymPoly._from_canonical(h.n, _scalars(_to_monomial(_satake_terms(_coeffs(h.terms), False))))


def inverse_satake(f):
    """The inverse transform; total on symmetric Laurent polynomials.

    Expands f in the Schur basis, then eliminates: strip the lex-maximal key
    mu (which is dominance-maximal within its total-sum class), divide its
    coefficient by the monomial v^<2rho,mu>, subtract that multiple of
    satake(T_mu).  Since P_mu is unitriangular this terminates with the
    exact preimage.
    """
    if not isinstance(f, SymPoly):
        raise ValueError("inverse_satake wants a SymPoly")
    rest = {w: dict(c.coeffs) for w, c in f.terms.items()}
    return HeckeElement._from_canonical(f.n, _scalars(_inverse_satake_terms(_to_schur(rest))))


def convolve(a, b):
    """Convolution product: the Schur-basis product of the transforms, pulled back."""
    if not isinstance(a, HeckeElement) or not isinstance(b, HeckeElement):
        raise ValueError("convolve wants two HeckeElements")
    a._check_rank(b)
    fa = _satake_terms(_coeffs(a.terms), True)
    fb = _satake_terms(_coeffs(b.terms), True)
    return HeckeElement._from_canonical(a.n, _scalars(_inverse_satake_terms(_schur_product(fa, fb))))


# -- the transforms on {weight: coefficient dict} ------------------------


def _satake_terms(terms, twisted):
    """sum over mu of c_mu v^<2rho,mu> P_mu (twisted) or c_mu P_mu (not), in the Schur basis."""
    out = {}
    for mu, c in terms.items():
        if twisted:
            s = _two_rho_pairing(mu)
            c = {k + s: x for k, x in c.items()}
        _add_terms(out, _hl_schur(mu), c)
    return out


def _inverse_satake_terms(rest):
    """The preimage {mu: coefficient dict} of the Schur-basis term dict rest, which it empties.

    rest must own its coefficient dicts: the elimination updates them in place.
    """
    out = {}
    while rest:
        mu = max(rest)
        c = rest[mu]
        s = _two_rho_pairing(mu)
        out[mu] = {k - s: x for k, x in c.items()}
        _add_terms(rest, _hl_schur(mu), {k: -x for k, x in c.items()})
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


if __name__ == "__main__":
    import doctest

    doctest.testmod()
