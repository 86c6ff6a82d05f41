"""The representation ring of GL_n with Laurent coefficients.

A RepElement is a finite Z[v, v^-1]-combination of irreducibles [V_mu],
stored as {dominant highest weight: coefficient dict}.  The v-grading tracks
twist bookkeeping and is inert under all operations here except that tensor
products multiply coefficients.

A RepElement is already in the Schur basis, the one basis of symfunc's
kernels: character() lands in SymPoly by symfunc._apply on the Schur ->
monomial table symfunc._dominant_weights, and tensor() is symfunc._bilinear
by symfunc._tensor_irreducibles, the Brauer-Klimyk table that hecke's
transform product uses too, V_a (x) V_b = sum_{w in wt(V_b)} sign *
V_{sort(a + w + rho) - rho} by straightening on plain ints, never
multiplying characters (for honest irreducibles the structure constants
are the Littlewood-Richardson numbers, so they are nonnegative integers;
tests lean on that).  dimension() is the exact Weyl product formula

    dim V_mu = prod_{i<j} (mu_i - mu_j + j - i) / (j - i),

symfunc._weyl_dimension, which also counts the Gelfand-Tsetlin patterns
that symfunc refuses to enumerate past its cap of 500,000.
"""

from .rootdata import check_weight, dual_weight
from .symfunc import (
    Combination,
    SymPoly,
    _apply,
    _bilinear,
    _dominant_weights,
    _highest_weight,
    _pattern_weights,
    _tensor_irreducibles,
    _weyl_dimension,
)


class RepElement(Combination):
    __slots__ = ()
    _key = "highest_weight"
    _symbol = "V"
    _bad_rank = "highest weight {} has rank {}, expected {}"
    _bad_key = "highest weights must be dominant: {}"


def irreducible(mu):
    mu = _highest_weight(mu)
    return RepElement._from_canonical(len(mu), {mu: {0: 1}})


def character(r):
    """The character as a SymPoly: sum of coeff * s_mu."""
    if not isinstance(r, RepElement):
        raise ValueError("character wants a RepElement")
    return SymPoly._from_canonical(r.n, _apply(r._terms, _dominant_weights))


def dimension(mu):
    """dim V_mu by the Weyl product formula; exact integer.

    >>> dimension((1, 0))
    2
    >>> dimension((2, 0, 0))
    6
    """
    return _weyl_dimension(_highest_weight(mu))


def weight_multiplicity(mu, lam):
    """Multiplicity of the weight lam in V_mu (lam need not be dominant)."""
    mu, lam = check_weight(mu), check_weight(lam)
    if len(mu) != len(lam):
        raise ValueError(f"rank mismatch: {mu} vs {lam}")
    entry, shift = _pattern_weights(_highest_weight(mu))
    return entry.get(tuple([x - shift for x in lam]), 0)


def tensor(r1, r2):
    """Tensor product: sum over pairs of terms of c_a c_b (V_a (x) V_b), by Brauer-Klimyk."""
    if not isinstance(r1, RepElement) or not isinstance(r2, RepElement):
        raise ValueError("tensor wants two RepElements")
    r1._check_rank(r2)
    return RepElement._from_canonical(r1.n, _bilinear(r1._terms, r2._terms, _tensor_irreducibles))


def dual(r):
    """The dual: highest weights reverse-negate, coefficients untouched."""
    if not isinstance(r, RepElement):
        raise ValueError("dual wants a RepElement")
    return RepElement._from_canonical(r.n, {dual_weight(w): dict(c) for w, c in r._terms.items()})
