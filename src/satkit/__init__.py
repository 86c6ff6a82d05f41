"""Exact combinatorics of spherical Hecke algebras for GL_n.

Everything is computed over Z[v, v^-1] (LaurentScalar) or over exact
rationals (fractions.Fraction); there is not a single float in the library.

Module map:

- laurent:   the coefficient ring Z[v, v^-1], canonical printing/parsing
- rootdata:  weights, dominance order, 2rho-pairing, group data; the one
             integer determinant and the integer-span solve built on it
- symfunc:   the combination base shared by SymPoly, HeckeElement and
             RepElement; symmetric functions, stored in the monomial basis
             and computed in the Schur basis; Schur and Hall-Littlewood
             polynomials; the strips and Pieri dispatch shared with hecke;
             tensor products by the Schur Pieri rules or Brauer-Klimyk
- repring:   representation ring of GL_n: dimensions, weight multiplicities,
             tensor products
- hecke:     spherical Hecke algebra elements, Satake transform and inverse,
             convolution through the transform
- trace_k:   S-operators at the identity twist, trace pairing, traces of
             endomorphisms
- tate:      Tate weight spaces for twisted lattice data, Gaussian binomials,
             the distinguished unitary-group combination in the T_{p,j} basis
- plattice:  p-adic lattices by exact linear algebra; the brute-force
             convolution oracle
- checks:    named assertion bundles behind the `check` CLI verb
- cli:       command line front end (JSON in, JSON out, deterministic)
"""

__version__ = "0.1.0"
