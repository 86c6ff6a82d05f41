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

The package's one exact linear-algebra kernel lives here too: a Gauss-Jordan
elimination over Fractions (_gauss_jordan) from which rank, determinant and
the integer-span solve are read off, plus _mat_mul.  GroupSpec, trace_k and
the tests use it; plattice works on integers with kernels of its own.
"""

from fractions import Fraction

Weight = tuple  # tuple[int, ...]; rank is the length


def check_weight(w):
    """Validate a weight and return it as a tuple of ints."""
    t = tuple(w)
    if not t:
        raise ValueError("rank-0 weights are not supported")
    for x in t:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"weight entries must be ints: {w!r}")
    return t


def same_rank(a, b):
    a, b = check_weight(a), check_weight(b)
    if len(a) != len(b):
        raise ValueError(f"rank mismatch: {a} has rank {len(a)}, {b} has rank {len(b)}")
    return a, b


def is_dominant(w):
    return _is_dominant(check_weight(w))


def _is_dominant(w):
    """is_dominant for a weight already checked: a tuple of ints."""
    return all(a >= b for a, b in zip(w, w[1:]))


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

    __slots__ = ("n", "center_generators")

    def __init__(self, n, center_generators=()):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"rank must be a positive int: {n!r}")
        gens = tuple(check_weight(g) for g in center_generators)
        for g in gens:
            if len(g) != n:
                raise ValueError(f"center generator {g} has rank {len(g)}, expected {n}")
        if gens and _rank(gens) != len(gens):
            raise ValueError("center generators must be linearly independent")
        self.n, self.center_generators = n, gens

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

    Solves the rational linear system and checks integrality; with
    independent generators the solution, when it exists, is unique.
    """
    target = check_weight(target)
    gens = [check_weight(g) for g in generators]
    if not gens:
        return all(x == 0 for x in target)
    n = len(target)
    for g in gens:
        if len(g) != n:
            raise ValueError(f"rank mismatch between target {target} and generator {g}")
    # augmented system: columns are the generators, then the target
    k = len(gens)
    rref, pivots, _ = _gauss_jordan([[g[i] for g in gens] + [target[i]] for i in range(n)], k)
    if len(pivots) != k:
        raise ValueError("generators must be linearly independent")
    # consistency: rows below the pivots must have zero rhs
    if any(row[k] != 0 for row in rref[k:]):
        return False
    return all(row[k].denominator == 1 for row in rref[:k])


# -- exact linear algebra over Q ------------------------------------------


def _gauss_jordan(rows, ncols=None):
    """Gauss-Jordan elimination over Fractions: the one exact kernel.

    Pivots are sought in the first ncols columns (all of them by default);
    row operations act on whole rows, so further columns ride along as an
    augmented block.  Returns (rref, pivots, det): the reduced rows, the
    pivot columns in order, and the product of the pivots signed by the row
    swaps, which is the determinant when the matrix is square and every
    column has a pivot.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    pivots = []
    det = Fraction(1)
    for col in range(ncols):
        top = len(pivots)
        pivot = next((r for r in range(top, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        if pivot != top:
            mat[top], mat[pivot] = mat[pivot], mat[top]
            det = -det
        lead = mat[top][col]
        det *= lead
        mat[top] = [x / lead for x in mat[top]]
        for r in range(len(mat)):
            if r != top and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[top])]
        pivots.append(col)
    return mat, pivots, det


def _rank(rows):
    """Rank over Q of a rational matrix."""
    return len(_gauss_jordan(rows)[1])


def _det(rows):
    """Determinant of a square rational matrix, as a Fraction."""
    _, pivots, det = _gauss_jordan(rows)
    return det if len(pivots) == len(rows) else Fraction(0)


def _mat_mul(a, b):
    """The product of two row-major matrices, exactly in their entry types."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def _mat_identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
