"""Named assertion bundles behind the ``check`` CLI verb.

Each suite returns a list of ``(name, ok, detail)`` rows; the CLI prints one
line per row and exits nonzero if any row failed.  Everything here is an
exact identity — no tolerances, no sampling.

The ``oracle`` suite compares Hecke structure constants computed two
independent ways (symmetric-function transform vs. brute-force lattice
count).  Keep the two code paths separate; routing one through the other
would make the comparison vacuous.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .hecke import basis, convolve, normalized_satake, satake, specialize_v
from .laurent import LaurentScalar, parse_scalar
from .plattice import convolution_oracle, schubert_count
from .repring import irreducible, tensor
from .rootdata import dominance_leq
from .symfunc import expand_in_schur, hall_littlewood, monomial, schur
from .tate import (
    h_operator,
    in_tate_lattice,
    similitude_unitary_config,
    std_with_twist,
    tate_dimension,
    unitary_config,
    v_binomial,
)
from .trace_k import s_pairing


def _row(name, ok, detail=""):
    return (name, bool(ok), "" if ok else detail)


def _eq(name, got, want):
    return _row(name, got == want, f"got {got!r}, want {want!r}")


# -- GL2 identities ------------------------------------------------------


def gl2_paper():
    v = LaurentScalar.v_power(1)
    rows = [
        _eq("satake-minuscule", satake(basis((1, 0))), v * monomial((1, 0))),
        _eq("satake-central", satake(basis((1, 1))), monomial((1, 1))),
        _eq(
            "satake-symmetric-square",
            satake(basis((2, 0)) + basis((1, 1))),
            (v * v) * (monomial((2, 0)) + monomial((1, 1))),
        ),
        _eq(
            "convolution-square-of-minuscule",
            convolve(basis((1, 0)), basis((1, 0))),
            basis((2, 0)) + parse_scalar("1+v^2") * basis((1, 1)),
        ),
        _eq(
            "normalized-transform-schur-expansion",
            normalized_satake(basis((2, 0))),
            schur((2, 0)) - LaurentScalar.v_power(-2) * schur((1, 1)),
        ),
        _eq(
            "tensor-square-of-std",
            tensor(irreducible((1, 0)), irreducible((1, 0))),
            irreducible((2, 0)) + irreducible((1, 1)),
        ),
        _eq("pairing-of-std", s_pairing((1, 0)), LaurentScalar.from_int(2)),
    ]
    # well-definedness of the normalized transform: only even powers of v
    bad = []
    for mu in [(1, 0), (2, 0), (2, 1), (2, 2)]:
        f = normalized_satake(basis(mu))
        for lam, c in f.terms.items():
            if any(e % 2 for e in c.coeffs):
                bad.append((mu, lam, c.to_string()))
    rows.append(_row("normalized-transform-even-powers", not bad, f"odd powers at {bad!r}"))
    return rows


# -- transform vs. lattice count ----------------------------------------


def _dual_route_rows(n, p, pairs, tag):
    rows = []
    bad = []
    for lam, mu in pairs:
        product = convolve(basis(lam), basis(mu))
        for nu, coeff in product.terms.items():
            want = specialize_v(coeff, p)
            got = Fraction(convolution_oracle(lam, mu, nu, p))
            if want != got:
                bad.append((lam, mu, nu, str(want), str(got)))
    rows.append(_row(tag, not bad, f"disagreements {bad!r}"))
    return rows


def oracle():
    rows = []
    doms2 = [
        w
        for w in itertools.product(range(2, -1, -1), repeat=2)
        if w[0] >= w[1]
    ]
    for p in (2, 3):
        pairs = [(a, b) for a in doms2 for b in doms2]
        rows += _dual_route_rows(2, p, pairs, f"gl2-structure-constants-p{p}")
    fund3 = [(1, 0, 0), (1, 1, 0), (2, 1, 0)]
    rows += _dual_route_rows(3, 2, [(a, b) for a in fund3 for b in fund3], "gl3-structure-constants-p2")

    # minuscule cell sizes against Gaussian binomials at v = p
    bad = []
    for p in (2, 3):
        for n in (2, 3):
            for i in range(n + 1):
                omega = (1,) * i + (0,) * (n - i)
                got = schubert_count(omega, p)
                want = v_binomial(n, i).specialize(p * p)  # v = p exactly
                if Fraction(got) != want:
                    bad.append((n, i, p, got, str(want)))
    rows.append(_row("minuscule-counts-are-gaussian-binomials", not bad, f"{bad!r}"))

    bad = []
    for p in (2, 3):
        total = schubert_count((2, 0), p) + schubert_count((1, 1), p)
        if total != p * p + p + 1:
            bad.append((p, total))
    rows.append(_row("length-two-closed-cell-size", not bad, f"{bad!r}"))
    return rows


# -- Tate lattices, Gaussian binomials, the distinguished operator ------


def tate():
    u3 = unitary_config(3)
    rows = [
        _eq("orbit-sum-noncentral-rejected", in_tate_lattice((1, 0, -1), u3), False),
        _eq("orbit-sum-anti-invariant-accepted", in_tate_lattice((0, 1, 0), u3), True),
        _eq("zero-weight-dimension", tate_dimension((0, 0, 0), u3), 1),
    ]
    for r in (1, 2, 3):
        rows.append(
            _eq(
                f"similitude-std-twist-r{r}",
                tate_dimension(std_with_twist(r), similitude_unitary_config(r)),
                1,
            )
        )
    h1 = h_operator(1)
    rows.append(_eq("h-rank-one-t0-coefficient", h1.coefficient(0), parse_scalar("1-p-2p^2", var="p")))
    rows.append(_eq("h-rank-one-t1-coefficient", h1.coefficient(1), LaurentScalar.one()))
    bad = []
    for r in (1, 2, 3):
        for j, c in h_operator(r).coeffs.items():
            if not c.is_integer_coeffs() or (not c.is_zero() and c.min_exp() < 0):
                bad.append((r, j, c.to_string(var="p")))
    rows.append(_row("h-coefficients-integral", not bad, f"{bad!r}"))
    rows.append(_eq("gaussian-binomial-4-2", v_binomial(4, 2), parse_scalar("1+v+2v^2+v^3+v^4")))
    pascal_ok = v_binomial(5, 2) == v_binomial(4, 1) + LaurentScalar.v_power(2) * v_binomial(4, 2)
    rows.append(_row("gaussian-binomial-pascal", pascal_ok, "Pascal recurrence failed at (5,2)"))
    return rows


# -- Hall-Littlewood endpoint specializations ---------------------------


def _partitions_up_to(total_max, n):
    for w in itertools.product(range(total_max, -1, -1), repeat=n):
        if sum(w) <= total_max and all(w[i] >= w[i + 1] for i in range(n - 1)):
            yield w


def hl_specialize():
    bad_schur, bad_monomial, bad_triangular = [], [], []
    for n in (2, 3):
        for mu in _partitions_up_to(4, n):
            p = hall_littlewood(mu)
            if p.substitute_t(Fraction(0)) != schur(mu):
                bad_schur.append(mu)
            if p.substitute_t(Fraction(1)) != monomial(mu):
                bad_monomial.append(mu)
            in_schur = expand_in_schur(p)
            for lam, c in in_schur.items():
                if lam == mu:
                    if not c.is_one():
                        bad_triangular.append((mu, lam, c.to_string()))
                elif not (dominance_leq(lam, mu) and lam != mu):
                    bad_triangular.append((mu, lam, c.to_string()))
    return [
        _row("t-zero-gives-schur", not bad_schur, f"{bad_schur!r}"),
        _row("t-one-gives-monomial", not bad_monomial, f"{bad_monomial!r}"),
        _row("schur-expansion-unitriangular", not bad_triangular, f"{bad_triangular!r}"),
    ]


SUITES = {
    "gl2-paper": gl2_paper,
    "oracle": oracle,
    "tate": tate,
    "hl-specialize": hl_specialize,
}
