"""Tate weight spaces of twisted lattice data, and the operator they govern.

Given a weight lattice Z^n, a finite-order automorphism sigma, and the
cocharacter lattice of the center (by generators), the Tate sublattice is

    { lambda :  sum_{i=0}^{m-1} sigma^i(lambda)  lies in the integer span
                of the center generators },     m = order of sigma,

and the Tate dimension of an irreducible V_mu is the number of its weights
(with multiplicity) landing in that sublattice.  The orbit sum is the
integer matrix SigmaAction.orbit_sum, computed once, and the span test the
integer solve GroupSpec keeps (rootdata._span_data): per weight, two
matrix-vector products.  The group may be a product of GL-blocks
(TateConfig.blocks); irreducibles of a product have the product weight
multiset, block by block.

Two ready-made configurations:

- unitary_config(n): sigma = reverse-and-negate on Z^n, center Z(1,...,1)
  (an odd unitary group at an inert prime, no similitude factor);
- similitude_unitary_config(r): rank 2r+2 = Z^{2r+1} (+) Z, sigma =
  reverse-and-negate on the first block and identity on the similitude
  coordinate, center generated by (1,...,1|0) and (0,...,0|1).  The standard
  representation with the homothety twist is std_with_twist(r); its Tate
  dimension is 1 for every r (the single palindromic weight e_{r+1}).

Separately, this module computes the distinguished Hecke operator attached
to rank r, expanded in the formal basis T_{p,j} = 1_{K lambda_j(p) K} with
lambda_j = (1^j, 0^{2r-2j+1}, (-1)^j | 0):

    h = p^{r(r+1)} sum_{i=0}^{r} (-1)^i (2i+1) p^{(i-r)(r+i+1)}
        sum_{j=0}^{r-i} binom_v(2r+1-2j, r-i-j)|_{v=-p} T_{p,j}

with binom_v the Gaussian binomial.  The expansion is purely formal (no
convolution is performed) and the coefficients come out as honest integer
polynomials in p.

>>> h_operator(1)
HOperator(r=1, (1-p-2p^2)*T[p,0] + T[p,1])
"""

import math

from .laurent import LaurentScalar, _gauss_rows
from .rootdata import GroupSpec, _in_span, _positive_int, check_weight, is_dominant
from .symfunc import _check_patterns, _weyl_dimension, weight_multiset
from .trace_k import SigmaAction


class TateConfig:
    """A group, the twist sigma acting on its weights, and GL-block sizes summing to its rank."""

    __slots__ = ("group", "sigma", "blocks")

    def __init__(self, group, sigma, blocks=()):
        if not isinstance(group, GroupSpec) or not isinstance(sigma, SigmaAction):
            raise ValueError("TateConfig wants a GroupSpec and a SigmaAction")
        if sigma.n != group.n:
            raise ValueError(f"sigma acts on rank {sigma.n}, group has rank {group.n}")
        blocks = tuple(blocks) or (group.n,)
        if any(not isinstance(b, int) or isinstance(b, bool) or b < 1 for b in blocks) or sum(blocks) != group.n:
            raise ValueError(f"blocks {blocks} must be positive ints summing to {group.n}")
        # sigma must keep the center lattice inside itself
        for g in group.center_generators:
            if not _in_span(sigma.apply(g), group._span):
                raise ValueError(f"sigma does not preserve the center lattice at {g}")
        self.group, self.sigma, self.blocks = group, sigma, blocks

    def __eq__(self, other):
        if not isinstance(other, TateConfig):
            return NotImplemented
        return (self.group, self.sigma, self.blocks) == (other.group, other.sigma, other.blocks)

    def __hash__(self):
        return hash((self.group, self.sigma, self.blocks))

    def __repr__(self):
        return f"TateConfig(group={self.group!r}, sigma={self.sigma!r}, blocks={self.blocks!r})"

    def to_json(self):
        data = {
            "n": self.group.n,
            "center": [list(g) for g in self.group.center_generators],
            "sigma": self.sigma.to_json(),
        }
        if self.blocks != (self.group.n,):
            data["blocks"] = list(self.blocks)
        return data

    @classmethod
    def from_json(cls, data):
        group = GroupSpec(data["n"], tuple(tuple(g) for g in data["center"]))
        sigma = SigmaAction.from_json(data["sigma"])
        blocks = tuple(data.get("blocks", ()))
        return cls(group, sigma, blocks)


def in_tate_lattice(lam, cfg):
    """Does sum_{i<m} sigma^i(lam) land in the integer span of the center?

    >>> cfg = unitary_config(3)
    >>> in_tate_lattice((1, 0, -1), cfg)
    False
    >>> in_tate_lattice((0, 1, 0), cfg)
    True
    """
    lam = check_weight(lam)
    if not isinstance(cfg, TateConfig):
        raise ValueError("in_tate_lattice wants a TateConfig")
    if len(lam) != cfg.group.n:
        raise ValueError(f"weight {lam} has rank {len(lam)}, config has rank {cfg.group.n}")
    return _in_tate_lattice(lam, cfg)


def _in_tate_lattice(lam, cfg):
    """in_tate_lattice for a weight already checked against cfg."""
    return _in_span(tuple(sum(x * y for x, y in zip(row, lam)) for row in cfg.sigma.orbit_sum), cfg.group._span)


def _block_weight_multiset(mu, blocks):
    """Weight multiset of the irreducible of a product of GL-blocks.

    One pattern per block for each weight: refused past symfunc's pattern
    cap, on the product of the blocks' dimensions, before any enumeration.
    """
    chunks = []
    pos = 0
    for b in blocks:
        chunk = mu[pos:pos + b]
        if not is_dominant(chunk):
            raise ValueError(f"highest weight must be dominant per block: {chunk} in {mu}")
        chunks.append(chunk)
        pos += b
    _check_patterns(mu, math.prod(_weyl_dimension(chunk) for chunk in chunks))
    out = [((), 1)]
    for chunk in chunks:
        out = [(w + bw, m * bm) for w, m in out for bw, bm in weight_multiset(chunk)]
    return out


def tate_dimension(mu, cfg):
    """dim V_mu^Tate: weights of V_mu (with multiplicity) in the Tate lattice."""
    mu = check_weight(mu)
    if not isinstance(cfg, TateConfig):
        raise ValueError("tate_dimension wants a TateConfig")
    if len(mu) != cfg.group.n:
        raise ValueError(f"weight {mu} has rank {len(mu)}, config has rank {cfg.group.n}")
    return sum(m for w, m in _block_weight_multiset(mu, cfg.blocks) if _in_tate_lattice(w, cfg))


def _reverse_negate_matrix(n):
    return tuple(tuple(-1 if j == n - 1 - i else 0 for j in range(n)) for i in range(n))


def unitary_config(n):
    """Rank n, sigma = reverse-and-negate, center Z(1,...,1)."""
    _positive_int(n, "rank")
    sigma = SigmaAction(_reverse_negate_matrix(n), 2)
    group = GroupSpec(n, ((1,) * n,))
    return TateConfig(group, sigma, (n,))


def similitude_unitary_config(r):
    """Rank 2r+2 = Z^{2r+1} (+) Z with the similitude coordinate last."""
    _positive_int(r, "r")
    g = 2 * r + 1
    sigma = SigmaAction(tuple(row + (0,) for row in _reverse_negate_matrix(g)) + ((0,) * g + (1,),), 2)
    group = GroupSpec(g + 1, ((1,) * g + (0,), (0,) * g + (1,)))
    return TateConfig(group, sigma, (g, 1))


def std_with_twist(r):
    """Highest weight of Std of the rank-(2r+1) block with homothety twist 1."""
    _positive_int(r, "r")
    return (1,) + (0,) * (2 * r) + (1,)


# -- Gaussian binomials and the distinguished Hecke operator ------------


_MAX_ROW_OPS = 10**7  # q-Pascal coefficient operations one call may take (1-2 s on a 2-core host)


def _check_row_cost(n, m, what):
    """Refuse before any work unless _gauss_rows(n, m <= n/2) is cheap: rows x columns x largest entry."""
    ops = (n + 1) * (m + 1) * (m * (n - m) + 1)
    if ops > _MAX_ROW_OPS:
        raise ValueError(f"{what} needs about {ops} coefficient operations, over the cap of {_MAX_ROW_OPS}")


def v_binomial(n, m):
    """The Gaussian binomial [n choose m]_v, an honest polynomial in v.

    >>> v_binomial(4, 2)
    LaurentScalar('1+v+2v^2+v^3+v^4')
    """
    if any(not isinstance(x, int) or isinstance(x, bool) for x in (n, m)):
        raise ValueError("v_binomial wants integers")
    if m < 0 or n < 0 or m > n:
        raise ValueError(f"need 0 <= m <= n, got n={n}, m={m}")
    if m in (0, n):  # [n, 0] = [n, n] = 1: no rows to run
        return LaurentScalar.one()
    _check_row_cost(n, min(m, n - m), f"v_binomial({n}, {m})")
    m = min(m, n - m)  # [n, m] = [n, n - m]
    for row in _gauss_rows(n, m):
        pass
    return LaurentScalar._from_canonical(row[m])


def hecke_coweight(r, j):
    """lambda_j = (1^j, 0^{2r-2j+1}, (-1)^j | 0), rank 2r+2."""
    _positive_int(r, "r")
    if not isinstance(j, int) or isinstance(j, bool) or not 0 <= j <= r:
        raise ValueError(f"need 0 <= j <= r, got j={j!r}")
    return (1,) * j + (0,) * (2 * r - 2 * j + 1) + (-1,) * j + (0,)


class HOperator:
    """A formal combination sum_j c_j(p) T_{p,j}; no convolution implied."""

    __slots__ = ("r", "coeffs")

    def __init__(self, r, coeffs):
        self.r, self.coeffs = r, coeffs

    def __eq__(self, other):
        if not isinstance(other, HOperator):
            return NotImplemented
        return (self.r, self.coeffs) == (other.r, other.coeffs)

    __hash__ = None  # coeffs is a dict

    def coefficient(self, j):
        return self.coeffs.get(j, LaurentScalar.zero())

    def to_json(self):
        return {
            "r": self.r,
            "coeffs": {str(j): self.coeffs[j].to_string(var="p") for j in sorted(self.coeffs)},
        }

    def __repr__(self):
        if not self.coeffs:
            return f"HOperator(r={self.r}, 0)"
        bits = []
        for j in sorted(self.coeffs):
            c = self.coeffs[j]
            name = f"T[p,{j}]"
            bits.append(name if c.is_one() else f"({c.to_string(var='p')})*{name}")
        return f"HOperator(r={self.r}, {' + '.join(bits)})"


def h_operator(r):
    """Expand the double sum defining h into the T_{p,j} basis, exactly.

    The variable of the coefficient scalars is read as p; the Gaussian
    binomials are evaluated at v = -p via the substitution v -> -v.
    """
    _positive_int(r, "r")
    _check_row_cost(2 * r + 1, r, f"h_operator({r})")
    coeffs = {}
    for n, row in enumerate(_gauss_rows(2 * r + 1, r)):
        if n % 2 == 0:
            continue
        j = (2 * r + 1 - n) // 2  # binomials [2r+1-2j, r-i-j] are read off row n as it passes
        for i in range(r - j + 1):
            outer = LaurentScalar.from_int((-1) ** i * (2 * i + 1))
            outer = outer.shift(r * (r + 1) + (i - r) * (r + i + 1))
            b = LaurentScalar._from_canonical(row[r - i - j]).negate_variable()
            acc = coeffs.get(j, LaurentScalar.zero()) + outer * b
            if acc.is_zero():
                coeffs.pop(j, None)
            else:
                coeffs[j] = acc
    return HOperator(r, coeffs)
