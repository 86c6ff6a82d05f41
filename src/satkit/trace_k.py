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

from .laurent import LaurentScalar, _coerce, _times
from .repring import RepElement, character, dimension
from .rootdata import _det_int, _mat_identity, _mat_mul, _positive_int, check_weight
from .symfunc import SymPoly, _apply, _dominant_weights

# order * n^3 entry products: the most the order check takes, and more than the determinant's
# n^3 / 3; refused before either runs (up to it, 1-2 s on a 2-core host)
_MAX_ORDER_OPS = 10**7
# the Mersenne prime 2^61 - 1: sigma^m0 is checked mod it before over Z
_CHECK_PRIME = 2**61 - 1


class SigmaAction:
    """An automorphism of the weight lattice Z^n of finite order.

    matrix is row-major: (sigma w)_i = sum_j matrix[i][j] w_j.  Requires
    sigma^order = identity (order need not be minimal) and det = +-1 so the
    lattice maps onto itself.  orbit_sum is the matrix sum_{i<order} sigma^i.
    """

    __slots__ = ("matrix", "order", "orbit_sum")

    def __init__(self, matrix, order):
        rows = tuple(tuple(x for x in row) for row in matrix)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("sigma matrix must be square and nonempty")
        for r in rows:
            for x in r:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise ValueError(f"sigma matrix entries must be ints: {x!r}")
        _positive_int(order, "order")
        if order * n**3 > _MAX_ORDER_OPS:
            raise ValueError(
                f"checking sigma^{order} on rank {n} takes up to {order * n**3} entry products, over the cap of {_MAX_ORDER_OPS}"
            )
        if _det_int(rows) not in (1, -1):
            raise ValueError("sigma must be invertible over Z (det +-1)")
        orbit_sum = _orbit_sum(rows, order)
        if orbit_sum is None:
            raise ValueError(f"sigma^{order} is not the identity")
        self.matrix, self.order, self.orbit_sum = rows, order, orbit_sum

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


def _orbit_sum(rows, order):
    """sum_{i<order} sigma^i, or None unless sigma^order = 1.

    The order m0 of sigma mod 3 comes first, in at most `order` products: if
    sigma^order = 1 then m0 divides order.  The kernel of GL_n(Z) -> GL_n(Z/3)
    is torsion-free (Minkowski), so sigma has finite order exactly when
    sigma^m0 = 1 over Z; then the sum is (order / m0) sum_{i<m0} sigma^i.
    sigma^m0 is taken mod a large prime first, in products of bounded
    entries, and over Z only when that is the identity: an infinite-order
    sigma with large entries is refused before its powers grow.
    """
    one = _mat_identity(len(rows))
    mod3 = power = _mat_mod(rows, 3)
    m0 = 1
    while power != one and m0 < order:
        power = _mat_mod(_mat_mul(mod3, power), 3)
        m0 += 1
    if power != one or order % m0:
        return None
    if _mat_pow(_mat_mod(rows, _CHECK_PRIME), m0, _CHECK_PRIME) != one or _mat_pow(rows, m0) != one:
        return None
    powers = [one]
    for _ in range(m0 - 1):
        powers.append(_mat_mul(rows, powers[-1]))
    return tuple(tuple(order // m0 * sum(col) for col in zip(*rs)) for rs in zip(*powers))


def _mat_mod(a, q):
    return tuple(tuple(x % q for x in row) for row in a)


def _mat_pow(a, e, q=None):
    """a^e for e >= 1 by repeated squaring, in about 2 log2(e) products; mod q when q is given."""
    if e == 1:
        return a
    mul = _mat_mul if q is None else (lambda x, y: _mat_mod(_mat_mul(x, y), q))
    half = _mat_pow(mul(a, a), e // 2, q)
    return mul(a, half) if e % 2 else half


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
    for w, mult in r._terms.items():
        if w not in table:
            raise ValueError(f"no scalar given for constituent {w}")
        c = table[w].coeffs
        if c:  # a zero scalar drops the constituent
            in_schur[w] = _times(mult, c)
    return SymPoly._from_canonical(r.n, _apply(in_schur, _dominant_weights))
