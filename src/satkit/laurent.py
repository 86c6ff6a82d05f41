"""The coefficient ring Z[v, v^-1], exactly.

A scalar is a finite sum  sum_k c_k v^k  stored as {k: c_k} with int
exponents.  Coefficients are Python ints; exact rationals (Fraction) are
tolerated so that rational eigenvalue data can flow through linear maps, and
are normalized back to int whenever the denominator is 1.  Zero coefficients
are never stored.

The fractions module (which loads decimal and numbers, about 2 ms) is
imported only where a rational is first made: by specialize and by
parse_scalar on a term "a/b".  _rational looks the Fraction class up among
the loaded modules, since no Fraction exists before fractions is loaded.  A
computation on int coefficients never loads it.

Two substitutions recur throughout the package and get dedicated methods:

- specialize(q): v -> sqrt(q) for a positive int or Fraction q.  The result
  is an exact Fraction when only even powers occur or sqrt(q) is rational,
  and an exact element a + b*sqrt(q) of the quadratic extension otherwise.
- substitute_t(t): reads the scalar as a polynomial in t = v^-2 (demanding
  even, nonpositive exponents) and evaluates at an int or Fraction t.

Canonical strings list terms by ascending exponent ("1-v^2+3v^4", "v^-1+v")
and parse back exactly; parse(to_string(x)) == x always.

>>> parse_scalar("1+v^2") * parse_scalar("1-v^2")
LaurentScalar('1-v^4')
>>> LaurentScalar({2: 1, 0: 1}).specialize(3)
Fraction(4, 1)
"""

import re
import sys
from math import isqrt


_new = object.__new__  # bound once: the trusted constructors run once per result


def _norm_coeff(c):
    if type(c) is not int and c.denominator == 1:
        return int(c)
    return c


def _rational(x):
    """True for an int that is not a bool, or a Fraction; imports nothing, as a Fraction needs fractions loaded."""
    if isinstance(x, int):
        return not isinstance(x, bool)
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(x, fractions.Fraction)


class LaurentScalar:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        d = {}
        for k, c in (coeffs or {}).items():
            if not isinstance(k, int) or isinstance(k, bool):
                raise ValueError(f"exponent must be int, got {k!r}")
            if not _rational(c):
                raise ValueError(f"coefficient must be int or Fraction, got {c!r}")
            c = _norm_coeff(c)
            if c != 0:
                d[k] = d.get(k, 0) + c
                if d[k] == 0:
                    del d[k]
        self.coeffs = d

    # -- constructors ------------------------------------------------

    @classmethod
    def _from_canonical(cls, coeffs):
        """Trusted constructor: coeffs must already be canonical (int
        exponents, no zero coefficient, no Fraction with denominator 1)."""
        out = _new(cls)
        out.coeffs = coeffs
        return out

    @classmethod
    def zero(cls):
        return cls._from_canonical({})

    @classmethod
    def one(cls):
        return cls._from_canonical({0: 1})

    @classmethod
    def from_int(cls, c):
        return cls({0: c})

    @classmethod
    def v_power(cls, k, c=1):
        return cls({k: c})

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == {0: 1}

    def is_integer_coeffs(self):
        return all(isinstance(c, int) for c in self.coeffs.values())

    def min_exp(self):
        if not self.coeffs:
            raise ValueError("zero scalar has no exponent range")
        return min(self.coeffs)

    def as_int(self):
        """The value of a constant scalar, erroring on anything else."""
        if self.is_zero():
            return 0
        if set(self.coeffs) != {0}:
            raise ValueError(f"not a constant: {self}")
        c = self.coeffs[0]
        if not isinstance(c, int):
            raise ValueError(f"not an integer constant: {self}")
        return c

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = _try_coerce(other)
        if other is None:
            return NotImplemented
        return LaurentScalar._from_canonical(_add_scaled(dict(self.coeffs), other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return LaurentScalar._from_canonical({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        other = _try_coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _try_coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _try_coerce(other)
        if other is None:
            return NotImplemented
        return LaurentScalar._from_canonical(_mul_into({}, self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _try_coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # equal to an int or Fraction exactly when constant, so hash as that number then
        if self.coeffs.keys() <= {0}:
            return hash(self.coeffs.get(0, 0))
        return hash(frozenset(self.coeffs.items()))

    def shift(self, k):
        """Multiply by v^k."""
        return LaurentScalar._from_canonical({e + k: c for e, c in self.coeffs.items()})

    def negate_variable(self):
        """The substitution v -> -v."""
        return LaurentScalar._from_canonical(
            {e: (c if e % 2 == 0 else -c) for e, c in self.coeffs.items()}
        )

    # -- substitutions --------------------------------------------------

    def specialize(self, q_value):
        """Evaluate at v = sqrt(q_value) for a positive int or Fraction q_value.

        Returns a Fraction when the value is rational, otherwise a QuadExt
        a + b*sqrt(q) with exact rational a, b.
        """
        if not _rational(q_value):
            raise ValueError(f"q must be an int or a Fraction, got {q_value!r}")
        from fractions import Fraction
        q = Fraction(q_value)
        if q <= 0:
            raise ValueError(f"q must be a positive rational, got {q_value!r}")
        even = odd = Fraction(0)
        for e, c in self.coeffs.items():
            if e % 2 == 0:
                even += Fraction(c) * q ** (e // 2)
            else:
                odd += Fraction(c) * q ** ((e - 1) // 2)
        if odd == 0:
            return even
        root = _exact_sqrt(q)
        return QuadExt(even, odd, q) if root is None else even + odd * root

    def substitute_t(self, t_value):
        """Evaluate as a polynomial in t = v^-2 at an int or Fraction t_value.

        Only meaningful for scalars supported on even nonpositive exponents
        (Hall-Littlewood coefficients live there); anything else raises.
        The value is an int when it is whole, else a Fraction.
        """
        if not _rational(t_value):
            raise ValueError(f"t must be an int or a Fraction, got {t_value!r}")
        return _substitute_t(self.coeffs, t_value)

    # -- printing -------------------------------------------------------

    def to_string(self, var="v"):
        return _to_string(self.coeffs, var)

    def __repr__(self):
        return f"LaurentScalar({self.to_string()!r})"


def _to_string(p, var="v"):
    """The canonical string of a coefficient dict: terms by ascending exponent, "0" for {}."""
    if not p:
        return "0"
    parts = []
    for e in sorted(p):
        c = p[e]
        mag = -c if (c < 0) else c
        if e == 0:
            body = str(mag)
        else:
            vp = var if e == 1 else f"{var}^{e}"
            body = vp if mag == 1 else f"{mag}{vp}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+{body}" if c > 0 else f"-{body}")
    return "".join(parts)


def _substitute_t(p, t_value):
    """A coefficient dict read as a polynomial in t = v^-2, at a checked int or Fraction t_value; an int when whole."""
    total = 0
    for e, c in p.items():
        if e > 0 or e % 2 != 0:
            raise ValueError(f"not a polynomial in v^-2: LaurentScalar({_to_string(p)!r})")
        total += c * t_value ** (-e // 2)
    return _norm_coeff(total)


class QuadExt:
    """An exact value a + b*sqrt(q) with rational a, b and nonsquare q."""

    __slots__ = ("a", "b", "q")

    def __init__(self, a, b, q):
        self.a, self.b, self.q = a, b, q

    def __eq__(self, other):
        if not isinstance(other, QuadExt):
            return NotImplemented
        return (self.a, self.b, self.q) == (other.a, other.b, other.q)

    def __hash__(self):
        return hash((self.a, self.b, self.q))

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.q}))"


def _add_scaled(acc, p, c=1, shift=0):
    """acc += c * v^shift * p on canonical coefficient dicts, in place; returns acc.

    c is a nonzero int or Fraction.  A coefficient that cancels is removed
    and a whole Fraction becomes an int, so acc stays canonical.
    """
    for k, x in p.items():
        k += shift
        s = acc.get(k, 0) + c * x
        if s:
            acc[k] = s if type(s) is int else _norm_coeff(s)
        else:
            del acc[k]
    return acc


def _mul_into(acc, p, q):
    """acc += p * q on canonical coefficient dicts, in place; returns acc.

    The package's one polynomial multiplication: LaurentScalar.__mul__ and
    the coefficient-dict kernels of symfunc and hecke all come here, or to
    _times, its form that starts a new dict with a scaled copy.
    """
    for k, c in q.items():
        _add_scaled(acc, p, c, k)
    return acc


def _times(p, q):
    """p * q as a new canonical coefficient dict; p and q are only read.

    p is a nonzero coefficient dict.  q is a nonzero int or Fraction, or a
    nonzero coefficient dict: its first term makes a scaled copy of p, and
    only its further terms go through _add_scaled.  A copy has no
    cancellation to check, and a whole Fraction in it becomes an int.  So
    of two dicts the longer should be p: symfunc._bilinear passes a table
    entry's coefficient as p and the pair's coefficient, one term for every
    basis product, as q.
    """
    if type(q) is dict:
        terms = iter(q.items())
        shift, c = next(terms)
    else:
        terms, shift, c = (), 0, q
    out = {}
    for k, x in p.items():
        x *= c
        out[k + shift] = x if type(x) is int else _norm_coeff(x)
    for k, c in terms:
        _add_scaled(out, p, c, k)
    return out


def _add_times(acc, p, q):
    """acc += p * q in place, for q as in _times; returns acc, from which a cancelled coefficient is removed."""
    if type(q) is dict:
        return _mul_into(acc, p, q)
    return _add_scaled(acc, p, q)


def _gauss_rows(n, m):
    """Rows k = 0..n of the q-Pascal triangle, each cut at column m: the package's one Gaussian-binomial kernel.

    Row k lists [k, j] for j = 0..min(k, m) as {exponent: int}, a polynomial
    in one variable, by [k, j] = [k-1, j-1] + x^j [k-1, j] on ints; only the
    previous row is kept.  tate reads it with x = v, hecke with x = t = v^-2.
    """
    row = [{0: 1}]
    yield row
    for k in range(1, n + 1):
        row = [{0: 1}] + [
            _add_scaled(dict(row[j - 1]), row[j], 1, j) if j < k else {0: 1} for j in range(1, min(k, m) + 1)
        ]
        yield row


def _try_coerce(x):
    if isinstance(x, LaurentScalar):
        return x
    if _rational(x):
        return LaurentScalar({0: x})
    return None


def _coerce(x):
    c = _try_coerce(x)
    if c is None:
        raise ValueError(f"cannot treat {x!r} as a scalar")
    return c


def _exact_sqrt(q):
    """sqrt of a positive Fraction if rational, else None."""
    from fractions import Fraction
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


_TERM_RE = re.compile(
    r"""(?P<coeff>\d+(?:/\d+)?)?          # optional magnitude, maybe a/b
        (?P<var>[A-Za-z]+(?:\^(?P<exp>-?\d+))?)?   # optional v part
        $""",
    re.VERBOSE,
)


def parse_scalar(s, var="v"):
    """Inverse of LaurentScalar.to_string.

    Accepts exactly the canonical grammar: terms joined by + or -, each term
    a magnitude, a power of the variable, or both ("3", "v", "v^-2", "2v^3",
    "5/2v").  Raises ValueError on anything else.
    """
    text = s.strip().replace(" ", "")
    if not text:
        raise ValueError("empty scalar string")
    if text == "0":
        return LaurentScalar.zero()
    # split on + or - signs that are not exponent signs (those follow '^')
    tokens = re.split(r"(?<!\^)([+-])", text)
    if tokens[0] == "":
        tokens = tokens[1:]
    else:
        tokens = ["+"] + tokens
    if len(tokens) % 2 != 0:
        raise ValueError(f"malformed scalar string: {s!r}")
    coeffs = {}
    for sign, term in zip(tokens[::2], tokens[1::2]):
        if sign not in ("+", "-") or not term:
            raise ValueError(f"malformed scalar string: {s!r}")
        m = _TERM_RE.fullmatch(term)
        if not m or (m.group("coeff") is None and m.group("var") is None):
            raise ValueError(f"malformed term {term!r} in {s!r}")
        if m.group("var") is not None:
            vname = m.group("var").split("^")[0]
            if vname != var:
                raise ValueError(f"unknown variable {vname!r} in {s!r}")
            exp = int(m.group("exp")) if m.group("exp") is not None else 1
        else:
            exp = 0
        raw = m.group("coeff")
        if raw is None:
            mag = 1
        elif "/" in raw:
            num, den = map(int, raw.split("/"))
            if den == 0:
                raise ValueError(f"zero denominator in term {term!r} of {s!r}")
            from fractions import Fraction
            mag = Fraction(num, den)
        else:
            mag = int(raw)
        c = mag if sign == "+" else -mag
        coeffs[exp] = coeffs.get(exp, 0) + c
    return LaurentScalar(coeffs)
