"""Weights and coweights for GL_n, and the combinatorics between them.

A weight is a plain tuple of ints; its length is the rank and every function
here checks ranks before doing anything.  For GL_n weights and coweights live
in the same lattice Z^n, so a single type serves both.

Conventions, fixed once:

- dominant means weakly decreasing;
- dominance_leq(a, b) is the usual partial order on dominant vectors: all
  prefix sums of a are <= those of b and the totals agree (distinct totals
  simply compare as False);
- two_rho_pairing(mu) = sum_i (n + 1 - 2i) mu_i, the pairing with the sum of
  the positive roots;
- dual_weight reverses and negates (the highest weight of the dual
  representation; on dominants this is -w0).

The package's one exact elimination lives here too: _bareiss, fraction-free
on integer matrices, of which the determinant _det_int is the case with no
columns riding along.  SigmaAction checks unimodularity with _det_int and
plattice its lattice bases; GroupSpec and in_integer_span eliminate
[G G^T | G] once for det(G G^T) and adj(G G^T) G.  Everything here is
integer arithmetic; plattice's valuation elimination over Z_(p) is its own.
"""


def check_weight(w):
    """Validate a weight and return it as a tuple of ints."""
    t = tuple(w)
    if not t:
        raise ValueError("rank-0 weights are not supported")
    for x in t:
        if type(x) is not int and (not isinstance(x, int) or isinstance(x, bool)):
            raise ValueError(f"weight entries must be ints: {w!r}")
    return t


def _positive_int(x, what):
    """Refuse x unless it is a positive int (not a bool): "{what} must be a positive int: {x!r}"."""
    if not isinstance(x, int) or isinstance(x, bool) or x < 1:
        raise ValueError(f"{what} must be a positive int: {x!r}")


def same_rank(a, b):
    a, b = check_weight(a), check_weight(b)
    if len(a) != len(b):
        raise ValueError(f"rank mismatch: {a} has rank {len(a)}, {b} has rank {len(b)}")
    return a, b


def is_dominant(w):
    return _is_dominant(check_weight(w))


def _is_dominant(w):
    """is_dominant for a weight already checked: a tuple of ints.

    A plain loop: every basis element and every irreducible is checked here.
    """
    prev = w[0] if w else 0
    for x in w:
        if x > prev:
            return False
        prev = x
    return True


def dominance_leq(a, b):
    """a <= b in dominance order; both arguments must be dominant.

    >>> dominance_leq((1, 1, 0), (2, 0, 0))
    True
    >>> dominance_leq((2, 0, 0), (1, 1, 0))
    False
    """
    a, b = same_rank(a, b)
    for w in (a, b):
        if not is_dominant(w):
            raise ValueError(f"dominance order needs dominant arguments: {w}")
    if sum(a) != sum(b):
        return False
    pa = pb = 0
    for i in range(len(a) - 1):
        pa += a[i]
        pb += b[i]
        if pa > pb:
            return False
    return True


def two_rho_pairing(mu):
    """<2rho, mu> = sum_i (n + 1 - 2i) mu_i  (1-indexed i).

    >>> two_rho_pairing((1, 0))
    1
    >>> two_rho_pairing((1, 0, 0))
    2
    """
    return _two_rho_pairing(check_weight(mu))


def _two_rho_pairing(mu):
    """two_rho_pairing for a weight already checked: a tuple of ints."""
    n = len(mu)
    return sum((n - 1 - 2 * i) * m for i, m in enumerate(mu))


def dual_weight(mu):
    """Highest weight of the dual: reverse and negate. Involutive."""
    mu = check_weight(mu)
    return tuple(-x for x in reversed(mu))


class GroupSpec:
    """Rank plus the cocharacter lattice of the center, by generators.

    center_generators must be linearly independent rank-n weights; the
    integer span is what in_tate_lattice tests membership of.
    """

    __slots__ = ("n", "center_generators", "_span")

    def __init__(self, n, center_generators=()):
        _positive_int(n, "rank")
        gens = tuple(check_weight(g) for g in center_generators)
        for g in gens:
            if len(g) != n:
                raise ValueError(f"center generator {g} has rank {len(g)}, expected {n}")
        span = _span_data(gens)
        if span[1] == 0:
            raise ValueError("center generators must be linearly independent")
        self.n, self.center_generators, self._span = n, gens, span

    def __eq__(self, other):
        if not isinstance(other, GroupSpec):
            return NotImplemented
        return (self.n, self.center_generators) == (other.n, other.center_generators)

    def __hash__(self):
        return hash((self.n, self.center_generators))

    def __repr__(self):
        return f"GroupSpec(n={self.n!r}, center_generators={self.center_generators!r})"


def in_integer_span(target, generators):
    """Is target an integer combination of the (independent) generators?

    With G the generators as rows, the only rational solution of c G = t is
    c = A t / Delta (see _span_data), so t lies in the integer span exactly
    when Delta divides every entry of A t and the quotients give back t.
    """
    target = check_weight(target)
    gens = tuple(check_weight(g) for g in generators)
    for g in gens:
        if len(g) != len(target):
            raise ValueError(f"rank mismatch between target {target} and generator {g}")
    span = _span_data(gens)
    if span[1] == 0:
        raise ValueError("generators must be linearly independent")
    return _in_span(target, span)


# -- exact integer linear algebra -----------------------------------------


def _span_data(gens):
    """(G, Delta, A) for generator rows G: Delta = det(G G^T) and A = adj(G G^T) G.

    Both come from one elimination of [G G^T | G].  Delta is 0 exactly when
    the generators are dependent, and then A is None; no generators give
    (G, 1, ()).
    """
    gram = _mat_mul(gens, tuple(zip(*gens)))
    delta, a = _bareiss([row + g for row, g in zip(gram, gens)])
    return gens, delta, a


def _in_span(t, span):
    """Is the integer vector t in the integer span, for span = _span_data(G) with Delta != 0?"""
    gens, delta, a = span
    quotients = [divmod(sum(x * y for x, y in zip(row, t)), delta) for row in a]
    if any(r for _, r in quotients):
        return False
    return all(sum(c * g[i] for (c, _), g in zip(quotients, gens)) == x for i, x in enumerate(t))


def _det_int(mat):
    """Determinant of a square integer matrix (Bareiss elimination); 1 if empty."""
    return _bareiss(mat)[0]


def _bareiss(rows):
    """(det M, adj(M) B) for the k integer rows [M | B], M their first k columns; (0, None) if M is singular.

    Fraction-free elimination (Bareiss): on pivot column c, each entry x to
    its right, in each row eliminated, becomes (pivot x - f y) / (the
    previous pivot), with f the row's entry in column c and y the pivot
    row's entry in x's column.  The division is exact, and the last pivot
    is det M times the sign of the row swaps.  With no columns B only the
    rows below each pivot are eliminated, all a determinant needs, and the
    second item is ().  With some, the rows above are too (Gauss-Jordan,
    k^2 (k + width of B) steps), which leaves det(M) M^-1 B = adj(M) B in
    the B columns, up to the same sign.
    """
    m = [list(row) for row in rows]
    k = len(m)
    width = len(m[0]) if k else 0
    wide = width > k
    sign, prev = 1, 1
    for c in range(k):
        if m[c][c] == 0:
            swap = next((r for r in range(c + 1, k) if m[r][c]), None)
            if swap is None:
                return 0, None
            m[c], m[swap] = m[swap], m[c]
            sign = -sign
        prow = m[c]
        pivot = prow[c]
        for i in range(0 if wide else c + 1, k):
            if i != c:
                row = m[i]
                f = row[c]
                for j in range(c + 1, width):
                    row[j] = (row[j] * pivot - f * prow[j]) // prev
        prev = pivot
    if not wide:
        return sign * prev, ()
    return sign * prev, tuple(tuple(x * sign for x in row[k:]) for row in m)


def _mat_mul(a, b):
    """The product of two row-major matrices, exactly in their entry types."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def _mat_identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
