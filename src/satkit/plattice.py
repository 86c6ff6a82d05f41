"""p-adic lattices by exact linear algebra, and the brute-force oracle.

A PLattice is a full-rank Z_(p)-lattice in Q^n, given by a basis matrix with
p-power denominators; basis vectors are the COLUMNS of the matrix.  Two bases
give the same lattice iff they differ by right multiplication by a matrix
invertible over Z_(p) (integral entries at p, unit determinant at p).

The pair invariant is computed the only way it can be: for lattices L1, L2
with basis matrices B1, B2, the relative position inv_pair(L1, L2) is the
tuple of elementary-divisor valuations of B1^-1 B2, sorted weakly
decreasing.  Orientation is pinned by

    inv_pair(standard, apply_coweight(mu, p)) == mu        (mu dominant),

and with basis-as-columns and B1^-1 B2 (not B2^-1 B1) the convolution
identity below holds with no sign or reversal fix-up; during development the
identity was checked numerically before the convention was frozen.

inv_pair works on integers.  Writing B_i = A_i / p^{e_i} with A_i integral,
B1^-1 B2 = p^{e1 - e2} adj(A1) A2 / det(A1), so the valuations are those of
the integer matrix adj(A1) A2 shifted by e1 - e2 - v_p(det A1).  They are
read off by valuation-pivot elimination: an entry p^v u of minimal valuation
(u a p-unit) p-divides every other entry, so each other row is scaled by u
and has an integer multiple of the pivot row subtracted, which clears the
pivot column while staying in Z and invertible over Z_(p); the pivot row
can then be cleared by column operations that touch nothing else, so
recursion on the complement reads off the remaining valuations.
smith_invariants runs the same elimination over Fractions on any rational
matrix; it is kept as the independent route the tests hold the integer one
to.

The depth-d window p^d L0 <= L <= L0 is walked as column-style Hermite
normal forms H: integer lower triangular, diagonals p^{a_i} with
0 <= a_i <= d, off-diagonal entries 0 <= h_ij < h_ii (j < i), and
containment p^d L0 <= H L0, i.e. X = p^d H^-1 integral.  X is lower
triangular and its row i depends only on rows <= i of H, so rows are chosen
one at a time by exact forward substitution and a row whose X row is not
integral cuts off all its completions.  Each lattice in the window appears
exactly once (this is the classical normal form for subgroups of
(Z/p^d)^n; the counts 15 and 129 are frozen in the tests).  The window
p^hi L0 <= L <= p^lo L0 is p^lo times the depth hi - lo one, so the shapes H
are computed once per (p, n, depth), together with their partition into
Schubert cells by inv(L0, H), the valuations of H itself; inv(L0, p^lo H)
is that plus lo.  schubert_count is a cell size.

The point of the module is convolution_oracle(lam, mu, nu, p):

    #{ L : inv(L0, L) = lam  and  inv(L, nu(p) L0) = mu }

which must equal the T_nu-coefficient of T_lam * T_mu specialized at q = p.
It tests only the lattices of lam's cell.  The Hecke side computes that
coefficient through the Satake transform; the two routes share no code,
which is what makes the agreement a real check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .rootdata import check_weight, is_dominant

_ALLOWED_PRIMES = (2, 3)
_MAX_RANK = 3
_MAX_WINDOW = 2


def val_p(x, p):
    """The p-adic valuation of a rational, None for 0."""
    x = Fraction(x)
    if x == 0:
        return None
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _check_p(p):
    if p not in _ALLOWED_PRIMES:
        raise ValueError(f"p must be one of {_ALLOWED_PRIMES}, got {p!r}")
    return p


def _mat_fractions(mat):
    rows = tuple(tuple(Fraction(x) for x in row) for row in mat)
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("matrix must be square and nonempty")
    return rows


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def _mat_inv(mat):
    n = len(mat)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


@dataclass(frozen=True)
class PLattice:
    p: int
    basis: tuple  # columns are basis vectors; entries Fraction

    def __post_init__(self):
        p = _check_p(self.p)
        rows = _mat_fractions(self.basis)
        for row in rows:
            for x in row:
                den = x.denominator
                while den % p == 0:
                    den //= p
                if den != 1:
                    raise ValueError(f"basis entry {x} has a denominator not a power of {p}")
        object.__setattr__(self, "basis", rows)
        # full rank required
        _mat_inv(rows)

    @property
    def n(self):
        return len(self.basis)

    @classmethod
    def standard(cls, n, p):
        return cls(p, tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)))

    @classmethod
    def from_coweight(cls, mu, p):
        """The lattice mu(p) L0: diagonal basis p^{mu_i}."""
        mu = check_weight(mu)
        return cls(
            p,
            tuple(
                tuple(Fraction(p) ** mu[i] if i == j else Fraction(0) for j in range(len(mu)))
                for i in range(len(mu))
            ),
        )

    def scaled(self, k):
        """p^k times this lattice."""
        f = Fraction(self.p) ** k
        return PLattice(self.p, tuple(tuple(f * x for x in row) for row in self.basis))

    def same_lattice(self, other):
        """Equality as Z_(p)-lattices: B1^-1 B2 invertible over Z_(p)."""
        if not isinstance(other, PLattice):
            raise ValueError("same_lattice wants a PLattice")
        if self.p != other.p or self.n != other.n:
            return False
        m = _mat_mul(_mat_inv(self.basis), other.basis)
        for row in m:
            for x in row:
                v = val_p(x, self.p)
                if v is not None and v < 0:
                    return False
        return val_p(_det(m), self.p) == 0

    def to_json(self):
        return {
            "p": self.p,
            "basis": [[str(x) for x in row] for row in self.basis],
        }

    @classmethod
    def from_json(cls, data):
        return cls(data["p"], tuple(tuple(Fraction(x) for x in row) for row in data["basis"]))

    def __repr__(self):
        rows = "; ".join(",".join(str(x) for x in row) for row in self.basis)
        return f"PLattice(p={self.p}, [{rows}])"


def _det(mat):
    n = len(mat)
    m = [list(row) for row in mat]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def smith_invariants(mat, p):
    """Valuations of the elementary divisors of a nonsingular matrix at p.

    Sorted weakly decreasing.  Valuation-pivot elimination: pick any entry of
    minimal valuation, record it, clear its row and column (the multipliers
    entry/pivot all have valuation >= 0), recurse on the rest.

    >>> smith_invariants([[2, 1], [0, 2]], 2)
    (2, 0)
    """
    p = _check_p(p)
    m = [list(row) for row in _mat_fractions(mat)]
    n = len(m)
    if _det(m) == 0:
        raise ValueError("smith_invariants wants a nonsingular matrix")
    rows = list(range(n))
    cols = list(range(n))
    out = []
    while rows:
        best = None
        for i in rows:
            for j in cols:
                v = val_p(m[i][j], p)
                if v is not None and (best is None or v < best[0]):
                    best = (v, i, j)
        v, pi, pj = best  # nonsingular, so some entry is nonzero
        pivot = m[pi][pj]
        # clear the pivot column by row operations (multipliers in Z_(p))
        for i in rows:
            if i != pi and m[i][pj] != 0:
                f = m[i][pj] / pivot
                for j in cols:
                    m[i][j] -= f * m[pi][j]
        # clear the pivot row by column operations; the pivot column is
        # already zero off the pivot, so only row pi changes
        for j in cols:
            if j != pj and m[pi][j] != 0:
                f = m[pi][j] / pivot
                for i in rows:
                    m[i][j] -= f * m[i][pj]
        out.append(v)
        rows.remove(pi)
        cols.remove(pj)
    return tuple(sorted(out, reverse=True))


def _val_int(x, p):
    """The p-adic valuation of a nonzero integer."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _int_smith(mat, p):
    """Valuations at p of the elementary divisors of a nonsingular integer matrix.

    Sorted weakly decreasing.  Rows are scaled only by p-units, so every step
    stays in Z and is invertible over Z_(p).
    """
    m = [list(row) for row in mat]
    out = []
    while m:
        best = None
        for i, row in enumerate(m):
            for j, x in enumerate(row):
                if x:
                    v = _val_int(x, p)
                    if best is None or v < best[0]:
                        best = (v, i, j)
        v, pi, pj = best  # nonsingular, so some entry is nonzero
        prow = m.pop(pi)
        pivot = prow.pop(pj)
        unit, scale = pivot // p**v, p**v
        for row in m:
            x = row.pop(pj)
            if x:
                f = x // scale
                row[:] = [unit * a - f * b for a, b in zip(row, prow)]
        out.append(v)
    return tuple(sorted(out, reverse=True))


def _det_int(mat):
    """Determinant of a square integer matrix (Bareiss elimination); 1 if empty."""
    m = [list(row) for row in mat]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def _integral(lat):
    """(A, e): the integer matrix A = p^e B of a basis B, for the least e >= 0."""
    den = max(x.denominator for row in lat.basis for x in row)
    a = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in lat.basis)
    return a, _val_int(den, lat.p)


def inv_pair(l1, l2):
    """Relative position of two lattices: elementary divisors of B1^-1 B2."""
    if not isinstance(l1, PLattice) or not isinstance(l2, PLattice):
        raise ValueError("inv_pair wants two PLattices")
    if l1.p != l2.p:
        raise ValueError(f"prime mismatch: {l1.p} vs {l2.p}")
    if l1.n != l2.n:
        raise ValueError(f"rank mismatch: {l1.n} vs {l2.n}")
    p, n = l1.p, l1.n
    (a1, e1), (a2, e2) = _integral(l1), _integral(l2)
    idx = range(n)
    adj = [
        [
            (-1) ** (i + j)
            * _det_int([[a1[r][c] for c in idx if c != i] for r in idx if r != j])
            for j in idx
        ]
        for i in idx
    ]
    det = sum(a1[0][k] * adj[k][0] for k in idx)
    prod = [[sum(adj[i][k] * a2[k][j] for k in idx) for j in idx] for i in idx]
    shift = e1 - e2 - _val_int(det, p)
    return tuple(v + shift for v in _int_smith(prod, p))


def _hnf_rows(p, depth, diag):
    """The shapes H of the depth window with diagonal p^diag, as integer rows.

    Row-major lexicographic in the off-diagonal entries.  Alongside each
    prefix of rows of H it keeps the rows of X = p^depth H^-1, found by
    forward substitution; a row of H whose X row is not integral is dropped
    with every completion of it.
    """
    n = len(diag)
    found = []

    def extend(hs, xs):
        i = len(hs)
        if i == n:
            found.append(tuple(hs))
            return
        d = p ** diag[i]
        for off in itertools.product(range(d), repeat=i):
            x = []
            for k in range(i):
                s = sum(off[j] * xs[j][k] for j in range(k, i))
                if s % d:
                    break
                x.append(-s // d)
            else:
                x.append(p ** (depth - diag[i]))
                extend(hs + [off + (d,) + (0,) * (n - i - 1)], xs + [x])

    extend([], [])
    return found


@lru_cache(maxsize=None)
def _shapes(p, n, depth):
    """The depth window p^depth L0 <= L <= L0, each lattice once, and its cells.

    Returns (shapes, cells): the integer bases H in enumeration order, and a
    dict from inv(L0, H) to the tuple of those H (the same objects).
    """
    shapes = []
    for diag in itertools.product(range(depth + 1), repeat=n):
        shapes.extend(_hnf_rows(p, depth, diag))
    cells = {}
    for h in shapes:
        cells.setdefault(_int_smith(h, p), []).append(h)
    return tuple(shapes), {key: tuple(group) for key, group in cells.items()}


@lru_cache(maxsize=None)
def _window(p, n, lo, hi):
    """Lattices L with p^hi L0 <= L <= p^lo L0, each once, and their cells.

    Returns (lattices, cells), cells keyed by inv(L0, L) and holding the same
    PLattice objects.  Cached; PLattice is frozen so sharing is safe.
    """
    shapes, shape_cells = _shapes(p, n, hi - lo)
    scale = Fraction(p) ** lo
    made = {h: PLattice(p, tuple(tuple(scale * x for x in row) for row in h)) for h in shapes}
    cells = {
        tuple(e + lo for e in key): tuple(made[h] for h in group)
        for key, group in shape_cells.items()
    }
    return tuple(made.values()), cells


def enumerate_between(p, n, nn):
    """All lattices L with p^N L0 <= L <= p^-N L0 (the depth-N window).

    >>> len(enumerate_between(2, 2, 0))
    1
    """
    p = _check_p(p)
    if not isinstance(n, int) or not 1 <= n <= _MAX_RANK:
        raise ValueError(f"rank must be 1..{_MAX_RANK}, got {n!r}")
    if not isinstance(nn, int) or not 0 <= nn <= _MAX_WINDOW:
        raise ValueError(f"window must be 0..{_MAX_WINDOW}, got {nn!r}")
    return list(_window(p, n, -nn, nn)[0])


def _window_for(mu):
    lo = min(0, min(mu))
    hi = max(0, max(mu))
    if hi - lo > 2 * _MAX_WINDOW:
        raise ValueError(f"coweight {mu} exceeds the enumeration window")
    return lo, hi


def schubert_count(mu, p):
    """#{L : inv_pair(L0, L) = mu}, the size of mu's cell in its window.

    >>> schubert_count((1, 0), 2)
    3
    >>> schubert_count((1, 0, 0), 2)
    7
    """
    mu = check_weight(mu)
    p = _check_p(p)
    n = len(mu)
    if n > _MAX_RANK:
        raise ValueError(f"rank must be <= {_MAX_RANK}, got {n}")
    if not is_dominant(mu):
        raise ValueError(f"coweight must be dominant: {mu}")
    lo, hi = _window_for(mu)
    cells = _shapes(p, n, hi - lo)[1]
    return len(cells.get(tuple(e - lo for e in mu), ()))


def convolution_oracle(lam, mu, nu, p):
    """Count lattices L with inv(L0, L) = lam and inv(L, nu(p) L0) = mu.

    This is the structure constant of T_lam * T_mu on T_nu with v^2
    specialized to p, counted one lattice of lam's cell at a time.
    """
    lam, mu, nu = check_weight(lam), check_weight(mu), check_weight(nu)
    p = _check_p(p)
    n = len(lam)
    if len(mu) != n or len(nu) != n:
        raise ValueError(f"rank mismatch among {lam}, {mu}, {nu}")
    if n > _MAX_RANK:
        raise ValueError(f"rank must be <= {_MAX_RANK}, got {n}")
    for w in (lam, mu, nu):
        if not is_dominant(w):
            raise ValueError(f"coweights must be dominant: {w}")
    lo, hi = _window_for(lam)
    target = PLattice.from_coweight(nu, p)
    cell = _window(p, n, lo, hi)[1].get(lam, ())
    return sum(1 for lat in cell if inv_pair(lat, target) == mu)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
