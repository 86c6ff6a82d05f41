"""S-operators on the unit of the K-theoretic trace, at the identity twist.

For an untwisted group the endomorphism ring of the trace unit is the ring of
symmetric Laurent polynomials, and the operator S_V attached to a
representation V acts by its character.  The calculus that matters here:

    S_1 = 1,   S_{V (+) W} = S_V + S_W,   S_{V'} . S_V = S_{V (x) V'}

all of which are exact statements about characters once sigma = id, plus the
numerical pairing s_pairing(mu): the composite 1 -> V (x) V* -> 1 built from
coevaluation and evaluation, which is multiplication by dim V_mu.

Twisted versions (sigma != 1) are genuinely different objects (twining
characters) and are refused rather than approximated.

SigmaAction is the lattice automorphism datum used both here (to insist on
the identity) and by the Tate weight-space machinery: an integer matrix of
finite order m with sigma^m = 1 enforced at construction.
"""

from .laurent import LaurentScalar, _coerce
from .repring import RepElement, character, dimension
from .rootdata import _det, _mat_identity, _mat_mul, check_weight
from .symfunc import SymPoly, _scalars, _to_monomial


class SigmaAction:
    """An automorphism of the weight lattice Z^n of finite order.

    matrix is row-major: (sigma w)_i = sum_j matrix[i][j] w_j.  Requires
    sigma^order = identity (order need not be minimal) and det = +-1 so the
    lattice maps onto itself.
    """

    __slots__ = ("matrix", "order")

    def __init__(self, matrix, order):
        rows = tuple(tuple(x for x in row) for row in matrix)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("sigma matrix must be square and nonempty")
        for r in rows:
            for x in r:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise ValueError(f"sigma matrix entries must be ints: {x!r}")
        if not isinstance(order, int) or order < 1:
            raise ValueError(f"order must be a positive int: {order!r}")
        if _det(rows) not in (1, -1):
            raise ValueError("sigma must be invertible over Z (det +-1)")
        power = _mat_identity(n)
        for _ in range(order):
            power = _mat_mul(rows, power)
        if power != _mat_identity(n):
            raise ValueError(f"sigma^{order} is not the identity")
        self.matrix, self.order = rows, order

    def __eq__(self, other):
        if not isinstance(other, SigmaAction):
            return NotImplemented
        return (self.matrix, self.order) == (other.matrix, other.order)

    def __hash__(self):
        return hash((self.matrix, self.order))

    def __repr__(self):
        return f"SigmaAction(matrix={self.matrix!r}, order={self.order!r})"

    @property
    def n(self):
        return len(self.matrix)

    def apply(self, w):
        w = check_weight(w)
        if len(w) != self.n:
            raise ValueError(f"weight {w} has rank {len(w)}, sigma acts on rank {self.n}")
        return tuple(sum(row[j] * w[j] for j in range(self.n)) for row in self.matrix)

    def is_identity(self):
        return self.matrix == _mat_identity(self.n)

    @classmethod
    def identity(cls, n):
        return cls(_mat_identity(n), 1)

    def to_json(self):
        return {"matrix": [list(r) for r in self.matrix], "order": self.order}

    @classmethod
    def from_json(cls, data):
        return cls(tuple(tuple(r) for r in data["matrix"]), data["order"])


def s_operator(r, sigma=None):
    """The operator S_V for V the class r, as an element of End(unit).

    Only the identity twist is supported; a nontrivial sigma changes the
    answer to a twining character and raises here.
    """
    if not isinstance(r, RepElement):
        raise ValueError("s_operator wants a RepElement")
    if sigma is not None:
        if not isinstance(sigma, SigmaAction):
            raise ValueError("sigma must be a SigmaAction")
        if sigma.n != r.n:
            raise ValueError(f"sigma acts on rank {sigma.n}, class has rank {r.n}")
        if not sigma.is_identity():
            raise ValueError("twisted S-operators (sigma != identity) are out of scope")
    return character(r)


def s_pairing(mu):
    """The scalar by which 1 -> V_mu (x) V_mu* -> 1 acts: dim V_mu.

    >>> s_pairing((1, 0))
    LaurentScalar('2')
    """
    return LaurentScalar.from_int(dimension(mu))


def trace_of_endomorphism(r, scalars):
    """Trace of the endomorphism acting by scalars[mu] on each constituent.

    scalars maps dominant weights to exact rationals (or LaurentScalars);
    every constituent of r must be covered.  Returns the character-weighted
    sum, a SymPoly.
    """
    if not isinstance(r, RepElement):
        raise ValueError("trace_of_endomorphism wants a RepElement")
    table = {check_weight(w): _coerce(c) for w, c in scalars.items()}
    in_schur = {}
    for w, mult in r.terms.items():
        if w not in table:
            raise ValueError(f"no scalar given for constituent {w}")
        in_schur[w] = (mult * table[w]).coeffs
    return SymPoly._from_canonical(r.n, _scalars(_to_monomial(in_schur)))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
