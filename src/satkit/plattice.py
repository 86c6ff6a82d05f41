"""p-adic lattices by exact integer linear algebra, and the brute-force oracle.

A PLattice is a full-rank Z_(p)-lattice in Q^n, given by a basis matrix with
p-power denominators; basis vectors are the COLUMNS of the matrix.  Two bases
give the same lattice iff they differ by right multiplication by a matrix
invertible over Z_(p) (integral entries at p, unit determinant at p).

A PLattice stores its basis B as (A, e): the integer matrix A = p^e B for
the least e >= 0.  Rationals are converted once, by the public constructor
(which the CLI's inv verb and from_json go through); the basis property
turns (A, e) back into Fraction rows for to_json and repr.  Equality and
hashing are those of (p, A, e), i.e. of the basis matrix; two bases span
the same lattice iff inv_pair between them is zero.  The constructor also
keeps v_p(det A) from its singularity check, for inv_pair; a lattice built
by the trusted constructor (window enumeration, scaling) computes it only
when inv_pair first asks.

The pair invariant is computed the only way it can be: for lattices L1, L2
with basis matrices B1, B2, the relative position inv_pair(L1, L2) is the
tuple of elementary-divisor valuations of B1^-1 B2, sorted weakly
decreasing.  Orientation is pinned by

    inv_pair(standard, apply_coweight(mu, p)) == mu        (mu dominant),

and with basis-as-columns and B1^-1 B2 (not B2^-1 B1) the convolution
identity below holds with no sign or reversal fix-up; during development the
identity was checked numerically before the convention was frozen.

inv_pair works on the stored integers, by valuation-pivot elimination:
an entry p^v u of least valuation (u a p-unit) p-divides every other entry,
so each other row is scaled by u and has an integer multiple of the pivot
row subtracted, which clears the pivot column while staying in Z and
invertible over Z_(p); the rest of the pivot row then has valuations >= v,
so it can be cleared by column operations that touch nothing else, and
recursion on the complement reads off the remaining valuations.
Valuations below k survive reduction mod p^k, so the elimination reduces
its input mod p^k on entry and each row as it updates it, with k above
every valuation its caller needs to tell apart, and its entries stay
bounded.  An entry's valuation is then read off gcd(x, p^k) = p^min(v, k),
one C call whatever the size of k, and the pivot is the entry of least gcd.

With B_i = A_i / p^{e_i}, B1^-1 B2 = p^{e1 - e2} A1^-1 A2, and two passes
of that elimination give its valuations with no inverse or adjugate.  Let
d1 = v_p(det A1) and c = d1 + 1.  The first pass eliminates [A1 | p^c A2]:
the A1 block left at each step has a determinant of valuation at most d1,
so an entry of valuation at most d1 < c, and all n pivots p^{v_i} u_i land
there.  The pivot rows carry U A2, U invertible over Z_(p) with, up to the
order of the columns, U A1 = diag(p^{v_i} u_i)(1 + N), N strictly upper
triangular and integral at p.  So A1^-1 A2 has the valuations of diag(p^{-v_i}) U A2, and the second
pass eliminates the carried rows scaled by p^{d1 - v_i}, shifting the result
by e1 - e2 - c - d1.  The same elimination over Fractions, on B1^-1 B2
itself, is kept in the tests as the independent route the integer one is
held to.

The depth-d window p^d L0 <= L <= L0 is walked as column-style Hermite
normal forms H: integer lower triangular, diagonals p^{a_i} with
0 <= a_i <= d, off-diagonal entries 0 <= h_ij < h_ii (j < i), and
containment p^d L0 <= H L0, i.e. X = p^d H^-1 integral.  X is lower
triangular and its row i depends only on rows <= i of H, so rows are chosen
one at a time by exact forward substitution.  Entry k < i of row i of X is
-s_k / p^{a_i}, s_k = sum_{k <= j < i} h_ij X_jk, which involves only the
offsets h_ik, ..., h_i,i-1: so the offsets are solved from the last column
back, each from the congruence h_ik X_kk = -s_k mod p^{a_i} (no solution,
or an arithmetic progression), and only rows with an integral X are ever
made.  The prefixes of rows grow a row at a time, each new row's solutions
sorted and appended in the prefixes' order, so the walk is row-major
lexicographic in the offsets.  Each lattice in the window appears exactly
once (this is the classical normal form for subgroups of (Z/p^d)^n; the
counts 15 and 129 are frozen in the tests).  The window p^hi L0 <= L <=
p^lo L0 is p^lo times the depth hi - lo one, so only the integer shapes H
are cached, per (p, n, depth), each with its X (_window).  Their
Schubert cells, by inv(L0, H), the valuations of H itself, are a separate
cache (_cells), filled only when a count asks for a cell: enumerate_between
reads the window alone.  _cells splits each cell into groups by the
shapes' key (r, c): r_i the least valuation of row i of H, c_j that of
column j of X.  One pass over the window computes each key, and at rank
<= 3 reads the cell off it too (below); past rank 3 the cell is H's
elimination.  For L = p^lo H, inv(L0, L) = inv(L0, H) + lo and inv(L, T) =
inv(H, T) - lo.  enumerate_between makes a PLattice of each shape;
schubert_count sums the sizes of a cell's groups.

Each window the budget admits has one table of its cell sizes, {mu :
p^<2rho,mu> W(1/p) / W_mu(1/p)} over its dominant mu (W the Poincare
polynomial of S_n, W_mu that of mu's stabilizer; Macdonald, SFHP, Ch. V),
per (p, n, depth) (_cell_sizes).  The window is refused before any
enumeration when the table sums to more than _MAX_LATTICES lattices; the
refusal is raised, so a refused window keeps no table.  The oracle reads
the sizes of its two cells off that table.  Rank needs no cap of its own
below 18, past which every window wider than L0 alone is over the budget
anyway; enumerate_between keeps rank <= 3 and the budget too.

The point of the module is convolution_oracle(lam, mu, nu, p):

    #{ L : inv(L0, L) = lam  and  inv(L, nu(p) L0) = mu }

which must equal the T_nu-coefficient of T_lam * T_mu specialized at q = p.
It counts the shapes of one cell, with no adjugate, by one route.  With
w* = (-w_n, ..., -w_1) for a coweight w, m = min nu, s = nu - m and D the
diagonal scaling by p^s: inv(L, nu(p) L0) = mu exactly when inv(nu(p) L0,
L) = mu*, and those L are nu(p) p^lo H for the shapes H of mu*'s cell, so
inv(L0, L) is the valuations of the row-scaled D H shifted by m + lo.  This
is a bijection of lattices and uses no commutativity of the Hecke algebra.
lam's cell is walked as mu*'s cell of the starred triple (mu*, lam*, nu*):
as inv(A, B) = inv(B, A)* and nu*(p) = w0 nu(p)^-1 w0 with w0 in K, a shape
M of lam's cell passes that count exactly when w0 M is counted here.

lam's window is checked against the caps first, so every refusal is lam's;
mu*'s cell is walked when it is strictly smaller (by the Poincare formula,
|mu*'s cell| = |mu's|) and its window no deeper than lam's, so a central or
wide mu never brings in a larger window, and lam's cell otherwise.  Both
sizes are read off the table of lam's window, which holds mu's cell too,
shifted, whenever mu*'s window is no deeper.

The count needs no elimination per lattice.  The sum v_1 + ... + v_k of
the k least valuations of an integer matrix M is delta_k, the least
valuation of its k x k minors (Macdonald, SFHP, II): delta_1 is the least
entry valuation, delta_n = v_p(det M), and delta_(n-1) that of adj M =
det(M) M^-1.  For the matrix tested, with d = v_p(det H) (the sum of the
cell's key) and W the wanted valuations ascending:

    M      delta_1               delta_n       delta_(n-1)
    D H    min_i (r_i + s_i)     d + sum(s)    delta_n - depth + min_i (c_i - s_i)

as (D H)^-1 = p^-depth X D^-1.  So all members of a group share the three,
and none of them is counted unless delta_1 = W_1, delta_(n-1) = sum(W) -
W_n and delta_n = sum(W).  At rank <= 3 the three give all the valuations,
and a group that passes is counted whole.  The row's case s = 0, M = H, is
delta_1 = min r, delta_n = d (the sum of H's diagonal exponents) and
delta_(n-1) = d - depth + min c, so at rank <= 3 _cells reads each shape's
cell off its key, with no elimination either.  Past it only the members of
such groups are scaled and eliminated, each elimination stopping at the
first valuation that differs from the one wanted.  The tests hold the
oracle's counts to inv_pair's two-pass route, to that elimination run on
every lattice of the cell, and the two sides to each other.  The Hecke side
computes the same coefficient through the Satake transform; the two routes
share no code, which is what makes the agreement a real check.
"""

import itertools
import math
from functools import lru_cache
from operator import add, mul, sub

from .rootdata import _det_int, check_weight, is_dominant

_ALLOWED_PRIMES = (2, 3, 5, 7)
_MAX_RANK = 3  # enumerate_between's rank range; the counting routes are capped by _MAX_LATTICES
_MAX_WINDOW = 2
# just above the largest window of rank <= 3, GL_3 at p = 3 and depth 4: 67,969
# lattices, about 4 s cold on a 2-core host
_MAX_LATTICES = 70_000
# past it every window but L0's alone has more than _MAX_LATTICES lattices (the lines
# of F_p^n number more than p^(n-1)); below it a window's count takes at most 0.13 s
_MAX_LATTICE_RANK = _MAX_LATTICES.bit_length()
# delta_1, delta_(n-1) and delta_n, which a shape's key gives, are all of its valuations up to rank 3
_KEY_RANK = 3


def _check_p(p):
    # type, not just value: 2.0 == 2, but the integer kernels need an int
    if type(p) is not int or p not in _ALLOWED_PRIMES:
        raise ValueError(f"p must be one of {_ALLOWED_PRIMES}, got {p!r}")
    return p


def _entry(x):
    """A matrix entry, which like a LaurentScalar coefficient must be an int (not a bool) or a Fraction.

    An int is kept as it is: it has a numerator and a denominator too, so
    fractions is imported only for an entry that is not an int.
    """
    if type(x) is int:
        return x
    from fractions import Fraction
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise ValueError(f"matrix entries must be ints or Fractions: {x!r}")
    return Fraction(x)


def _entry_from_json(x):
    """A matrix entry as to_json writes it, text "p" or "p/q" read by int() on each side; what is not text is the constructor's to check.

    Only that is read, so no exponent ("1e-99999") is expanded, and int()
    bounds the digits.
    """
    if not isinstance(x, str):
        return x
    num, slash, den = x.partition("/")
    try:
        num, den = int(num), int(den) if slash else 1
    except ValueError:
        raise ValueError(f'basis entry {x!r} is not of the form "p" or "p/q" that to_json writes') from None
    if not slash:
        return num
    if not den:
        raise ValueError(f"zero denominator in {x!r}")
    from fractions import Fraction
    return Fraction(num, den)


class PLattice:
    """The lattice spanned by the columns of p^-e A, for A a nonsingular integer matrix."""

    __slots__ = ("p", "a", "e", "_d")

    def __init__(self, p, basis):
        p = _check_p(p)
        rows = tuple(tuple(_entry(x) for x in row) for row in basis)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and nonempty")
        for row in rows:
            for x in row:
                den = x.denominator
                while den % p == 0:
                    den //= p
                if den != 1:
                    raise ValueError(f"basis entry {x} has a denominator not a power of {p}")
        # p-power denominators: the largest is a multiple of all the others
        den = max(x.denominator for row in rows for x in row)
        a = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in rows)
        det = _det_int(a)
        if det == 0:
            raise ValueError("matrix is singular")
        self.p, self.a, self.e, self._d = p, a, _val_int(den, p), _val_int(det, p)

    @classmethod
    def _trusted(cls, p, a, e):
        """Unvalidated p^-e A for a nonsingular integer A and any int e; e is made least."""
        if e < 0:
            a, e = tuple(tuple(x * p**-e for x in row) for row in a), 0
        while e and all(x % p == 0 for row in a for x in row):
            a, e = tuple(tuple(x // p for x in row) for row in a), e - 1
        out = object.__new__(cls)
        out.p, out.a, out.e, out._d = p, a, e, None
        return out

    def _det_val(self):
        """v_p(det A): kept by the constructor, which needs det A anyway; else computed once, here."""
        if self._d is None:
            self._d = _val_int(_det_int(self.a), self.p)
        return self._d

    @property
    def n(self):
        return len(self.a)

    @property
    def basis(self):
        """The basis matrix p^-e A as Fraction rows."""
        from fractions import Fraction
        den = self.p**self.e
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.a)

    @classmethod
    def standard(cls, n, p):
        return cls(p, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def from_coweight(cls, mu, p):
        """The lattice mu(p) L0: diagonal basis p^{mu_i}."""
        from fractions import Fraction
        mu = check_weight(mu)
        return cls(
            p,
            tuple(
                tuple(Fraction(p) ** mu[i] if i == j else 0 for j in range(len(mu)))
                for i in range(len(mu))
            ),
        )

    def scaled(self, k):
        """p^k times this lattice."""
        return PLattice._trusted(self.p, self.a, self.e - k)

    def __eq__(self, other):
        if not isinstance(other, PLattice):
            return NotImplemented
        return (self.p, self.a, self.e) == (other.p, other.a, other.e)

    def __hash__(self):
        return hash((self.p, self.a, self.e))

    def to_json(self):
        return {
            "p": self.p,
            "basis": [[str(x) for x in row] for row in self.basis],
        }

    @classmethod
    def from_json(cls, data):
        """The lattice of a to_json dict; each text entry must be "p" or "p/q" as to_json writes it.

        The CLI's inv verb reads a basis by a deliberately wider rule, which
        also admits decimals and exponents within int()'s digit limit.
        """
        return cls(data["p"], [[_entry_from_json(x) for x in row] for row in data["basis"]])

    def __repr__(self):
        rows = "; ".join(",".join(str(x) for x in row) for row in self.basis)
        return f"PLattice(p={self.p}, [{rows}])"


def _val_int(x, p):
    """The p-adic valuation of a nonzero integer."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _smith_steps(mat, p, k):
    """Yield (v, rest) for each pivot of the elimination of an integer matrix, working mod p^k.

    The v are the valuations at p of the elementary divisors, weakly
    increasing: exact below k, and k once what is left is zero mod p^k.  The
    pivot is an entry of least valuation and rest is the rest of its row, as
    the earlier steps left it; clearing the pivot's row and column leaves
    every other entry in p^v Z_(p).  Rows are scaled only by p-units, so
    every step is invertible over Z_(p), and the input is reduced mod p^k on
    entry and each row again as it is updated, so no entry passes p^k.  An
    entry's valuation is read off gcd(x, p^k), the power p^min(v, k), and
    the pivot is the entry of least gcd.
    """
    q = p**k
    scale, v = 1, 0
    m = [[x % q for x in row] for row in mat]
    while m:
        best, pi, pj = q, 0, 0  # an entry in p^k Z has gcd p^k: valuation k
        for i, row in enumerate(m):
            for j, x in enumerate(row):
                if x and (g := math.gcd(x, q)) < best:
                    best, pi, pj = g, i, j
            if best == scale:  # the last pivot's gcd is a floor: nothing left is smaller
                break
        while scale < best:
            scale, v = scale * p, v + 1
        prow = m.pop(pi)
        unit = prow.pop(pj) // scale
        for row in m:
            x = row.pop(pj)
            if x:
                f = x // scale
                row[:] = [(unit * a - f * b) % q for a, b in zip(row, prow)]
        yield v, prow


def _int_smith(mat, p, k):
    """The valuations of _smith_steps(mat, p, k), weakly decreasing."""
    return tuple(reversed([v for v, _ in _smith_steps(mat, p, k)]))


def smith_invariants(mat, p):
    """Valuations at p of the elementary divisors of a nonsingular rational matrix.

    Sorted weakly decreasing.  The matrix is scaled to integers by the lcm d
    of its denominators, so the valuations are those of the integer kernel
    shifted by -v_p(d).

    >>> smith_invariants([[2, 1], [0, 2]], 2)
    (2, 0)
    """
    p = _check_p(p)
    rows = [[_entry(x) for x in row] for row in mat]
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("smith_invariants wants a square matrix")
    d = math.lcm(*(x.denominator for row in rows for x in row))
    ints = [[int(x * d) for x in row] for row in rows]
    det = _det_int(ints)
    if det == 0:
        raise ValueError("smith_invariants wants a nonsingular matrix")
    shift = _val_int(d, p)
    return tuple(v - shift for v in _int_smith(ints, p, _val_int(det, p) + 1))


def _inv(l1, l2):
    """inv of the lattices p^-e1 A1 and p^-e2 A2 of one prime and rank."""
    p, n, a1, e1, a2, e2 = l1.p, l1.n, l1.a, l1.e, l2.a, l2.e
    d1, d2 = l1._det_val(), l2._det_val()
    c = d1 + 1
    # the valuations of the second pass are at most c + d2 + (n - 1) d1
    k = c + d2 + n * d1 + 1
    # every pivot lands in the A1 block, so each rest ends with a row of U p^c A2
    first = _smith_steps([list(r1) + [x * p**c for x in r2] for r1, r2 in zip(a1, a2)], p, k)
    carried = [[x * p ** (d1 - v) for x in rest[-n:]] for v, rest in first]
    return tuple(v + e1 - e2 - c - d1 for v in _int_smith(carried, p, k))


def inv_pair(l1, l2):
    """Relative position of two lattices: elementary divisors of B1^-1 B2."""
    if not isinstance(l1, PLattice) or not isinstance(l2, PLattice):
        raise ValueError("inv_pair wants two PLattices")
    if l1.p != l2.p:
        raise ValueError(f"prime mismatch: {l1.p} vs {l2.p}")
    if l1.n != l2.n:
        raise ValueError(f"rank mismatch: {l1.n} vs {l2.n}")
    return _inv(l1, l2)


def _hnf_rows(p, depth, diag):
    """The shapes H of the depth window with diagonal p^diag, each with X = p^depth H^-1.

    Pairs (H, X) of integer matrices as row tuples, row-major lexicographic
    in the off-diagonal entries of H.  The prefixes of rows of H, each with
    its rows of X, grow a row at a time and in order; each new row's offsets
    are solved from the last column back so that its row of X is integral,
    and sorted.
    """
    n = len(diag)
    shapes = [((), ())]
    for i, a in enumerate(diag):
        d = p**a
        zeros = (0,) * (n - i - 1)
        h_tail, x_tail = (d,) + zeros, (p ** (depth - a),) + zeros
        grown = []
        for hs, xs in shapes:
            # (offsets off_k.., X row entries x_k..), solved for columns k.. of the new row
            partial = [((), ())]
            for k in range(i - 1, -1, -1):
                xkk = xs[k][k]
                below = [xs[j][k] for j in range(k + 1, i)]
                # off_k X_kk = -s mod d, s = sum_{k < j < i} off_j X_jk over the entries below X_kk:
                # none, or every m-th residue from the least
                g = math.gcd(xkk, d)
                m = d // g
                solved = []
                for off, x in partial:
                    s = sum(map(mul, off, below))
                    if s % g == 0:
                        for o in range((-s // g) % m, d, m):
                            solved.append(((o,) + off, (-(s + o * xkk) // d,) + x))
                partial = solved
            partial.sort()
            grown += [(hs + (off + h_tail,), xs + (x + x_tail,)) for off, x in partial]
        shapes = grown
    return shapes


@lru_cache(maxsize=None)
def _window(p, n, depth):
    """The depth window p^depth L0 <= L <= L0, each lattice once.

    A dict from each integer basis H, in enumeration order, to its integral
    inverse X = p^depth H^-1.
    """
    window = {}
    for diag in itertools.product(range(depth + 1), repeat=n):
        window.update(_hnf_rows(p, depth, diag))
    return window


@lru_cache(maxsize=None)
def _cells(p, n, depth):
    """The depth window's Schubert cells, each split by its shapes' key: inv(L0, H) -> ((r, c, shapes), ...).

    r_i is the least valuation of row i of H and c_j that of column j of X
    = p^depth H^-1.  Each is read off the gcd of the row or column, a power
    of p, since the diagonal entry p^(a_i) of H, or p^(depth - a_j) of X, is
    one of the entries.  Up to _KEY_RANK the key fixes the cell (see the
    module docstring); past it the cell is H's elimination.  Cells, groups
    and the shapes within a group keep the window's order.
    """
    logs = {p**k: k for k in range(depth + 1)}
    cells = {}
    for h, x in _window(p, n, depth).items():
        r, c = tuple(logs[math.gcd(*row)] for row in h), tuple(logs[math.gcd(*col)] for col in zip(*x))
        if n <= _KEY_RANK:
            # the least valuation is delta_1 = min r, the largest delta_n - delta_(n-1) = depth - min c,
            # and at rank 3 the middle one is what is left of delta_n = det
            least, largest, det = min(r), depth - min(c), sum(logs[h[i][i]] for i in range(n))
            cell = (largest, det - least - largest, least) if n == 3 else (largest, least)[:n]
        else:  # p^depth H^-1 is integral, so no valuation of H passes depth
            cell = _int_smith(h, p, depth + 1)
        cells.setdefault(cell, {}).setdefault((r, c), []).append(h)
    return {cell: tuple((r, c, tuple(group)) for (r, c), group in split.items()) for cell, split in cells.items()}


def enumerate_between(p, n, nn):
    """All lattices L with p^N L0 <= L <= p^-N L0 (the depth-N window).

    >>> len(enumerate_between(2, 2, 0))
    1
    """
    p = _check_p(p)
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= _MAX_RANK:
        raise ValueError(f"rank must be 1..{_MAX_RANK}, got {n!r}")
    if not isinstance(nn, int) or isinstance(nn, bool) or not 0 <= nn <= _MAX_WINDOW:
        raise ValueError(f"window must be 0..{_MAX_WINDOW}, got {nn!r}")
    # every window of rank <= 3 at p = 2, 3 is under the budget; at p = 5, 7 the depth-4 ones are not
    _cell_sizes(p, n, 2 * nn)
    return [PLattice._trusted(p, h, nn) for h in _window(p, n, 2 * nn)]


def _poincare_sizes(p, n, depth):
    """{mu: |K mu(p) K / K|} over the dominant mu in 0..depth, the cells of the depth window of rank n.

    |K mu(p) K / K| = p^<2rho,mu> W(1/p) / W_mu(1/p) (Macdonald, SFHP, Ch. V).
    In integers: p^(<2rho,mu> - #{i<j : mu_i > mu_j}) W(p) / W_mu(p), with
    W(p) = prod_{i<=n} (p^i - 1)/(p - 1) the Poincare polynomial of S_n at p
    and W_mu(p) the product of those of the blocks of equal entries of mu.
    A cell's size is unchanged by adding a constant to mu.  Both exponent
    and stabiliser are read off mu's multiplicities, one block of equal
    entries at a time: a block of m entries v adds m (s - a(v + 1)) to the
    exponent, with a entries summing to s above it.
    """
    w = [1]
    for i in range(1, n + 1):
        w.append(w[-1] * ((p**i - 1) // (p - 1)))
    sizes = {}
    for mu in itertools.combinations_with_replacement(range(depth, -1, -1), n):
        gaps, stabilizer, above, total = 0, 1, 0, 0
        for v, block in itertools.groupby(mu):
            m = len(tuple(block))
            gaps += m * (total - above * (v + 1))
            stabilizer *= w[m]
            above += m
            total += m * v
        sizes[mu] = p**gaps * w[n] // stabilizer
    return sizes


@lru_cache(maxsize=None)
def _cell_sizes(p, n, depth):
    """The depth window's table {mu: |mu's cell|}, refused before any enumeration past _MAX_LATTICES lattices.

    A refusal is raised, so a window the budget refuses keeps no table.
    """
    if n > _MAX_LATTICE_RANK:
        raise ValueError(f"rank must be <= {_MAX_LATTICE_RANK}, got {n}")
    sizes = _poincare_sizes(p, n, depth)
    size = sum(sizes.values())
    if size > _MAX_LATTICES:
        raise ValueError(
            f"the depth-{depth} window of rank {n} at p = {p} has {size} lattices, over the cap of {_MAX_LATTICES}"
        )
    return sizes


def _window_for(mu, p):
    """(lo, hi): mu's cell lies in the window p^hi L0 <= L <= p^lo L0, checked against the caps."""
    lo = min(0, min(mu))
    hi = max(0, max(mu))
    if hi - lo > 2 * _MAX_WINDOW:
        raise ValueError(f"coweight {mu} exceeds the enumeration window")
    _cell_sizes(p, len(mu), hi - lo)
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
    if not is_dominant(mu):
        raise ValueError(f"coweight must be dominant: {mu}")
    lo, hi = _window_for(mu, p)
    return sum(len(shapes) for _, _, shapes in _cells(p, len(mu), hi - lo).get(tuple(e - lo for e in mu), ()))


def _oracle_cell(lam, mu, nu, p):
    """The arguments (lam, mu, nu, p, lo, depth) of _oracle_count, which walks their mu*'s cell.

    lam's window is checked against the caps first.  mu*'s cell, mu* =
    (-mu_n, ..., -mu_1), is taken when its window is no deeper and it is
    strictly smaller: |mu*'s cell| = |mu's|, as <2rho, mu*> = <2rho, mu> and
    the stabilizers match.  Both sizes are read off the cell-size table of
    lam's window, at lam - lo and at mu's core mu - mu_n, since a size is
    unchanged by a shift and the core spans mu_1 - mu_n, which is at most
    the depth of mu*'s window.  Otherwise lam's cell is taken, in its own
    window, as mu*'s cell of the starred triple (mu*, lam*, nu*).
    """
    lo, hi = _window_for(lam, p)
    dlo, dhi = min(0, -mu[0]), max(0, -mu[-1])
    if dhi - dlo <= hi - lo:
        sizes = _cell_sizes(p, len(lam), hi - lo)
        if sizes[tuple(x - mu[-1] for x in mu)] < sizes[tuple(x - lo for x in lam)]:
            return lam, mu, nu, p, dlo, dhi - dlo
    star = (tuple(-x for x in reversed(w)) for w in (mu, lam, nu))
    return (*star, p, lo, hi - lo)


def _oracle_count(lam, mu, nu, p, lo, depth):
    """convolution_oracle's count over mu*'s cell, in the window of lo and depth.

    With m = min nu, s = nu - m and D = diag(p^s), each shape's matrix is D
    H, whose valuations are inv(L0, L) shifted by -m - lo; see the module
    docstring.  The cell fixes its v_p(det), and the group key its least
    valuation and its largest, which is depth less the least entry valuation
    of p^depth (D H)^-1 = X D^-1.
    """
    n, m = len(nu), min(nu)
    s = [x - m for x in nu]
    cell = tuple(-x - lo for x in reversed(mu))
    want = [x - m - lo for x in reversed(lam)]
    if sum(cell) + sum(s) != sum(want):
        return 0
    passing = []
    for r, c, shapes in _cells(p, n, depth).get(cell, ()):
        if min(map(add, r, s)) == want[0] and depth - min(map(sub, c, s)) == want[-1]:
            passing += shapes
    if n <= _KEY_RANK:
        return len(passing)
    scale = [p**x for x in s]
    mats = ([[x * t for x in row] for row, t in zip(h, scale)] for h in passing)
    # a valuation past max(want) is a mismatch already, and want[0] >= 0 keeps p^k an int;
    # the valuations come smallest first, so each elimination stops at the first that differs
    k = max(want) + 1
    return sum(all(v == w for (v, _), w in zip(_smith_steps(mat, p, k), want)) for mat in mats)


def convolution_oracle(lam, mu, nu, p):
    """Count lattices L with inv(L0, L) = lam and inv(L, nu(p) L0) = mu.

    This is the structure constant of T_lam * T_mu on T_nu with v^2
    specialized to p, counted a group of lattices at a time over the smaller
    of lam's and mu*'s cells, lam's as mu*'s cell of the starred triple.
    """
    lam, mu, nu = check_weight(lam), check_weight(mu), check_weight(nu)
    p = _check_p(p)
    n = len(lam)
    if len(mu) != n or len(nu) != n:
        raise ValueError(f"rank mismatch among {lam}, {mu}, {nu}")
    for w in (lam, mu, nu):
        if not is_dominant(w):
            raise ValueError(f"coweights must be dominant: {w}")
    return _oracle_count(*_oracle_cell(lam, mu, nu, p))
