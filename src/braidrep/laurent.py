"""Exact Laurent polynomial arithmetic over the rationals.

A Laurent polynomial is a finite sum ``c_k * t^k`` with integer exponents of
either sign and rational coefficients.  Values are immutable and kept in a
normalized sparse form (zero coefficients are never stored), so structural
equality coincides with mathematical equality and hashing is well defined.

The canonical text form lists terms in ascending exponent order, each as
``c*t^k`` with ``c`` a rational in ``p`` or ``p/q`` notation, joined by
`` + ``, e.g. ``-1/2*t^-3 + 4*t^0 + 1*t^2``.  The zero polynomial prints as
``0``.  Parsing round-trips printing bit-exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator, Mapping, Union

from .errors import NotDivisible, ZeroSubstitution

RationalLike = Union[int, Fraction]

_TERM_RE = re.compile(r"^(?P<c>-?\d+(?:/\d+)?)\*t\^(?P<k>-?\d+)$")


class LaurentPoly:
    """Immutable Laurent polynomial in one variable t with Fraction coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, RationalLike] | None = None):
        c: dict[int, Fraction] = {}
        if coeffs:
            for k, v in coeffs.items():
                f = Fraction(v)
                if f:
                    c[int(k)] = c.get(int(k), Fraction(0)) + f
        # re-drop anything that cancelled during accumulation
        self._c = {k: v for k, v in c.items() if v}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def t(cls) -> "LaurentPoly":
        """The variable itself, t^1."""
        return cls({1: 1})

    @classmethod
    def const(cls, c: RationalLike) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def term(cls, c: RationalLike, k: int) -> "LaurentPoly":
        """Single term c*t^k."""
        return cls({k: c})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def is_unit(self) -> bool:
        """True iff the polynomial is c*t^k with c != 0 (invertible in the ring)."""
        return len(self._c) == 1

    @property
    def is_one(self) -> bool:
        """True iff the polynomial is the constant 1."""
        return len(self._c) == 1 and self._c.get(0) == 1

    @property
    def deg_min(self) -> int | None:
        """Smallest exponent with nonzero coefficient; None for the zero polynomial."""
        return min(self._c) if self._c else None

    @property
    def deg_max(self) -> int | None:
        """Largest exponent with nonzero coefficient; None for the zero polynomial."""
        return max(self._c) if self._c else None

    @property
    def num_terms(self) -> int:
        return len(self._c)

    def coeff(self, k: int) -> Fraction:
        return self._c.get(k, Fraction(0))

    def items(self) -> Iterator[tuple[int, Fraction]]:
        """(exponent, coefficient) pairs in ascending exponent order."""
        return iter(sorted(self._c.items()))

    def is_const(self) -> bool:
        return not self._c or set(self._c) == {0}

    def const_value(self) -> Fraction:
        """The value of a constant polynomial; raises if t actually occurs."""
        if self.is_zero:
            return Fraction(0)
        if set(self._c) != {0}:
            raise ValueError("polynomial is not constant: %s" % self)
        return self._c[0]

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "LaurentPoly | RationalLike") -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        c = dict(self._c)
        for k, v in other._c.items():
            s = c.get(k, Fraction(0)) + v
            if s:
                c[k] = s
            else:
                c.pop(k, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {k: -v for k, v in self._c.items()}
        return out

    def __sub__(self, other: "LaurentPoly | RationalLike") -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "LaurentPoly | RationalLike") -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: "LaurentPoly | RationalLike") -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._c or not other._c:
            return LaurentPoly.zero()
        c: dict[int, Fraction] = {}
        for ka, va in self._c.items():
            for kb, vb in other._c.items():
                k = ka + kb
                s = c.get(k, Fraction(0)) + va * vb
                if s:
                    c[k] = s
                else:
                    c.pop(k, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "LaurentPoly":
        """Inverse of a unit c*t^k; raises NotDivisible otherwise."""
        if not self.is_unit:
            raise NotDivisible("only single-term Laurent polynomials are invertible: %s" % self)
        ((k, c),) = self._c.items()
        return LaurentPoly.term(Fraction(1) / c, -k)

    def divide_exact(self, other: "LaurentPoly | RationalLike") -> "LaurentPoly":
        """Exact quotient self/other: both are shifted to ordinary
        polynomials, divided by matrix.poly_divmod over the rationals and
        shifted back.  Raises NotDivisible when the remainder is not zero,
        so that no exact quotient exists in the Laurent ring."""
        other = _coerce(other)
        if other is NotImplemented:
            raise TypeError("cannot divide LaurentPoly by %r" % (other,))
        if other.is_zero:
            raise NotDivisible("division by zero polynomial")
        if self.is_zero:
            return LaurentPoly.zero()
        from .matrix import Domain, poly_divmod  # matrix imports this module

        a, b = ([p._c.get(k, Fraction(0)) for k in range(p.deg_min, p.deg_max + 1)]
                for p in (self, other))
        sa, sb = self.deg_min, other.deg_min
        q, r = poly_divmod(a, b, Domain.RATIONAL)
        if any(r):
            raise NotDivisible("%s does not divide %s" % (other, self))
        return LaurentPoly({i + sa - sb: c for i, c in enumerate(q) if c})

    # -- evaluation ----------------------------------------------------------

    def eval(self, u):
        """Evaluate at u.  Exact (Fraction in, Fraction out) for rational u,
        floating for float/complex u.  Raises ZeroSubstitution when u == 0 and
        a negative exponent occurs."""
        if isinstance(u, (int, Fraction)):
            u = Fraction(u)
            exact = True
        elif isinstance(u, (float, complex)):
            u = complex(u)
            exact = False
        else:
            raise TypeError("cannot evaluate at %r" % (u,))
        if not self._c:
            return Fraction(0) if exact else complex(0)
        if u == 0 and (self.deg_min or 0) < 0:
            raise ZeroSubstitution("negative power of t evaluated at 0")
        total = Fraction(0) if exact else complex(0)
        for k, c in self._c.items():
            if exact:
                total += c * u**k
            else:
                total += complex(c) * u**k
        return total

    # -- text form -----------------------------------------------------------

    def format(self) -> str:
        """Canonical text form; see module docstring."""
        if not self._c:
            return "0"
        parts = ["%s*t^%d" % (c, k) for k, c in sorted(self._c.items())]
        return " + ".join(parts)

    @classmethod
    def parse(cls, s: str) -> "LaurentPoly":
        """Parse the canonical text form.  Inverse of format, bit-exactly."""
        s = s.strip()
        if s == "0":
            return cls.zero()
        c: dict[int, Fraction] = {}
        for part in s.split(" + "):
            m = _TERM_RE.match(part.strip())
            if not m:
                raise ValueError("bad Laurent term: %r" % part)
            k = int(m.group("k"))
            coef = Fraction(m.group("c"))
            c[k] = c.get(k, Fraction(0)) + coef
        return cls(c)

    # -- misc ----------------------------------------------------------------

    def magnitude(self) -> float:
        """Largest absolute coefficient, as float.  Used for residual reporting."""
        if not self._c:
            return 0.0
        return float(max(abs(v) for v in self._c.values()))

    def content(self) -> Fraction:
        """Positive rational c such that self/c has coprime integer
        coefficients; 0 for the zero polynomial."""
        from .matrix import Domain, _content  # matrix imports this module

        return _content(self._c.values(), Domain.RATIONAL)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        # a constant equals its value (see __eq__), so it hashes like it
        c = self._c
        if not c:
            return hash(0)
        if len(c) == 1 and 0 in c:
            return hash(c[0])
        return hash(tuple(sorted(c.items())))

    def __bool__(self) -> bool:
        return bool(self._c)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return "LaurentPoly.parse(%r)" % self.format()


def _coerce(x) -> "LaurentPoly":
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPoly.const(x)
    return NotImplemented
