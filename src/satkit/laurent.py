"""The coefficient ring Z[v, v^-1], exactly.

A scalar is a finite sum  sum_k c_k v^k  stored as {k: c_k} with int
exponents.  Coefficients are Python ints; exact rationals (Fraction) are
tolerated so that rational eigenvalue data can flow through linear maps, and
are normalized back to int whenever the denominator is 1.  Zero coefficients
are never stored.

Two substitutions recur throughout the package and get dedicated methods:

- specialize(q): v -> sqrt(q) for a positive rational q.  The result is an
  exact Fraction when only even powers occur or sqrt(q) is rational, and an
  exact element a + b*sqrt(q) of the quadratic extension otherwise.
- substitute_t(t): reads the scalar as a polynomial in t = v^-2 (demanding
  even, nonpositive exponents) and evaluates at a rational t.

Canonical strings list terms by ascending exponent ("1-v^2+3v^4", "v^-1+v")
and parse back exactly; parse(to_string(x)) == x always.

>>> parse_scalar("1+v^2") * parse_scalar("1-v^2")
LaurentScalar('1-v^4')
>>> LaurentScalar({2: 1, 0: 1}).specialize(3)
Fraction(4, 1)
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt


def _norm_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class LaurentScalar:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        d = {}
        for k, c in (coeffs or {}).items():
            if not isinstance(k, int) or isinstance(k, bool):
                raise ValueError(f"exponent must be int, got {k!r}")
            if not isinstance(c, (int, Fraction)) or isinstance(c, bool):
                raise ValueError(f"coefficient must be int or Fraction, got {c!r}")
            c = _norm_coeff(c)
            if c != 0:
                d[k] = d.get(k, 0) + c
                if d[k] == 0:
                    del d[k]
        self.coeffs = d

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

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

    def max_exp(self):
        if not self.coeffs:
            raise ValueError("zero scalar has no exponent range")
        return max(self.coeffs)

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
        d = dict(self.coeffs)
        for k, c in other.coeffs.items():
            d[k] = d.get(k, 0) + c
        return LaurentScalar(d)

    __radd__ = __add__

    def __neg__(self):
        return LaurentScalar({k: -c for k, c in self.coeffs.items()})

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
        d = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                d[k] = d.get(k, 0) + c1 * c2
        return LaurentScalar(d)

    __rmul__ = __mul__

    def __pow__(self, m):
        if not isinstance(m, int) or m < 0:
            raise ValueError("only nonnegative integer powers")
        out = LaurentScalar.one()
        for _ in range(m):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentScalar.from_int(other)
        if not isinstance(other, LaurentScalar):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # equal to an int exactly when constant, so hash as that int then
        if self.coeffs.keys() <= {0}:
            return hash(self.coeffs.get(0, 0))
        return hash(frozenset(self.coeffs.items()))

    def shift(self, k):
        """Multiply by v^k."""
        return LaurentScalar({e + k: c for e, c in self.coeffs.items()})

    def negate_variable(self):
        """The substitution v -> -v."""
        return LaurentScalar({e: (c if e % 2 == 0 else -c) for e, c in self.coeffs.items()})

    # -- division -----------------------------------------------------

    def exact_div(self, other):
        """Exact quotient self/other in Z[v, v^-1]; ValueError if inexact.

        Ordinary ascending long division after shifting both operands to
        honest polynomials.  Exactness of each coefficient step is checked;
        a nonzero remainder raises.
        """
        other = _coerce(other)
        if other.is_zero():
            raise ValueError("division by zero scalar")
        if self.is_zero():
            return LaurentScalar.zero()
        s_min, o_min = self.min_exp(), other.min_exp()
        num = {e - s_min: Fraction(c) for e, c in self.coeffs.items()}
        den = {e - o_min: Fraction(c) for e, c in other.coeffs.items()}
        lead = den[0]  # nonzero by construction: o_min shifted to 0
        # exact quotient exponents are bounded by deg(num) - deg(den)
        bound = max(num) - max(den)
        quo = {}
        while num:
            low = min(num)
            if low > bound:
                raise ValueError(f"inexact division: {self} / {other}")
            q = num[low] / lead
            quo[low] = q
            for e, c in den.items():
                t = low + e
                num[t] = num.get(t, Fraction(0)) - q * c
                if num[t] == 0:
                    del num[t]
        out = LaurentScalar({e + s_min - o_min: c for e, c in quo.items()})
        if self.is_integer_coeffs() and other.is_integer_coeffs():
            if not out.is_integer_coeffs():
                raise ValueError(f"inexact division over Z: {self} / {other}")
        return out

    # -- substitutions --------------------------------------------------

    def specialize(self, q_value):
        """Evaluate at v = sqrt(q_value) for a positive rational q_value.

        Returns a Fraction when the value is rational, otherwise a QuadExt
        a + b*sqrt(q) with exact rational a, b.
        """
        q = Fraction(q_value)
        if q <= 0:
            raise ValueError(f"q must be a positive rational, got {q_value!r}")
        root = _exact_sqrt(q)
        if root is not None:
            total = Fraction(0)
            for e, c in self.coeffs.items():
                total += Fraction(c) * root ** e
            return total
        even = Fraction(0)
        odd = Fraction(0)
        for e, c in self.coeffs.items():
            if e % 2 == 0:
                even += Fraction(c) * q ** (e // 2)
            else:
                odd += Fraction(c) * q ** ((e - 1) // 2)
        if odd == 0:
            return even
        return QuadExt(even, odd, q)

    def substitute_t(self, t_value):
        """Evaluate as a polynomial in t = v^-2 at a rational t_value.

        Only meaningful for scalars supported on even nonpositive exponents
        (Hall-Littlewood coefficients live there); anything else raises.
        """
        t = Fraction(t_value)
        total = Fraction(0)
        for e, c in self.coeffs.items():
            if e > 0 or e % 2 != 0:
                raise ValueError(f"not a polynomial in v^-2: {self}")
            total += Fraction(c) * t ** (-e // 2)
        return _norm_coeff(total)

    # -- printing -------------------------------------------------------

    def to_string(self, var="v"):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
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

    def __repr__(self):
        return f"LaurentScalar({self.to_string()!r})"


@dataclass(frozen=True)
class QuadExt:
    """An exact value a + b*sqrt(q) with rational a, b and nonsquare q."""

    a: Fraction
    b: Fraction
    q: Fraction

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.q}))"


def _try_coerce(x):
    if isinstance(x, LaurentScalar):
        return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return LaurentScalar({0: x})
    return None


def _coerce(x):
    c = _try_coerce(x)
    if c is None:
        raise ValueError(f"cannot treat {x!r} as a scalar")
    return c


def _exact_sqrt(q):
    """sqrt of a positive Fraction if rational, else None."""
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
            mag = Fraction(num, den)
        else:
            mag = int(raw)
        c = mag if sign == "+" else -mag
        coeffs[exp] = coeffs.get(exp, 0) + c
    return LaurentScalar(coeffs)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
