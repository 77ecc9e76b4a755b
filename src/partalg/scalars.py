"""Exact scalar arithmetic: rationals, polynomials in x, rational functions in x.

Diagram coefficients are rationals, or polynomials in x in generic
mode; a rational function is the generic value of a trace-weight ratio
(``structure.eps_ratio``), never a coefficient.

>>> from partalg.scalars import Poly, RatFunc, parse_rational
>>> x = Poly.x()
>>> (x + 1) * (x - 1)
Poly('x^2 - 1')
>>> (x**2 - 1).exact_div(x - 1)
Poly('x + 1')
>>> parse_rational("3/6")
Fraction(1, 2)

Polynomials are coefficient tuples indexed by degree.  A coefficient
is an ``int`` when it is integral and a ``Fraction`` otherwise, and
there are no trailing zeros; rational functions keep a monic
denominator coprime to the numerator.  Both canonical forms are
enforced on construction, so equality, hashing and the text form are
structural.  Every division divides by a ``Fraction``, so integer
coefficients never turn into floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import BadParams, DenominatorVanishes
from .limits import check

__all__ = [
    "Poly",
    "RatFunc",
    "Scalar",
    "parse_rational",
    "parse_parameter",
    "rational_str",
]


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parses "p", "p/q", an int, or a Fraction into a reduced Fraction;
    anything else raises BadParams."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError):
        raise BadParams(f"not a rational number: {text!r}") from None


def parse_parameter(n: str | int | Fraction) -> Fraction:
    """parse_rational for the parameter n of the algebra, whose height,
    the bit lengths of numerator and denominator added, is capped in
    partalg.limits: exact work slows with the size of n's powers."""
    point = parse_rational(n)
    check("parameter_bits", point.numerator.bit_length() + point.denominator.bit_length())
    return point


def rational_str(value: Fraction | int) -> str:
    """Renders p/q, or just p when the denominator is 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _canonical(coeffs) -> tuple[tuple[int | Fraction, ...], int]:
    """The canonical coefficient tuple, and the least common
    denominator of its entries."""
    out = []
    den = 1
    for c in coeffs:
        if type(c) is not int:
            c = Fraction(c)
            if c.denominator == 1:
                c = c.numerator
            else:
                den = lcm(den, c.denominator)
        out.append(c)
    while out and not out[-1]:
        out.pop()
    return tuple(out), den


@dataclass(frozen=True)
class Poly:
    """Polynomial over Q in one variable; coeffs[i] is the x^i coefficient.

    Canonical form: each coefficient is an ``int`` when integral and a
    ``Fraction`` otherwise, with no trailing zeros, so
    ``Poly((Fraction(2), Fraction(1, 2))).coeffs == (2, Fraction(1, 2))``.
    ``leading()``, ``const_value()`` and evaluation return ``Fraction``.
    ``denominator``, which is not compared, is the least common
    denominator of the coefficients: 1 when all are ``int``.
    """

    coeffs: tuple[int | Fraction, ...]
    denominator = 1  # not a field; set on the instance when it is not 1

    def __init__(self, coeffs=()):
        coeffs, denominator = _canonical(coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if denominator != 1:
            object.__setattr__(self, "denominator", denominator)

    @classmethod
    def _from_ints(cls, coeffs: tuple[int, ...]) -> Poly:
        """The Poly of these int coefficients, which the caller
        guarantees end in a nonzero one; nothing is checked."""
        out = object.__new__(cls)
        object.__setattr__(out, "coeffs", coeffs)
        return out

    @staticmethod
    def const(c) -> Poly:
        return Poly((c,))

    @staticmethod
    def x() -> Poly:
        return Poly((0, 1))

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return Fraction(self.coeffs[-1])

    def const_value(self) -> Fraction:
        if len(self.coeffs) > 1:
            raise ValueError("not a constant polynomial")
        return Fraction(self.coeffs[0]) if self.coeffs else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Poly:
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __call__(self, value) -> Fraction:
        point = Fraction(value)
        if point.denominator == 1:
            point = point.numerator
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return Fraction(acc)

    def divmod(self, divisor: Poly) -> tuple[Poly, Poly]:
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dlead = divisor.leading()
        ddeg = divisor.degree
        quot = [0] * max(0, len(rem) - ddeg)
        while len(rem) - 1 >= ddeg and rem:
            factor = rem[-1] / dlead
            if factor.denominator == 1:
                factor = factor.numerator
            shift = len(rem) - 1 - ddeg
            quot[shift] = factor
            for i, c in enumerate(divisor.coeffs):
                rem[shift + i] -= factor * c
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(quot), Poly(rem)

    def exact_div(self, divisor: Poly) -> Poly:
        q, r = self.divmod(divisor)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def monic(self) -> Poly:
        if self.is_zero():
            return self
        lead = self.leading()
        return Poly(tuple(c / lead for c in self.coeffs))

    @staticmethod
    def gcd(a: Poly, b: Poly) -> Poly:
        # Euclid; result is monic so gcd is canonical.
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = rational_str(abs(c))
            else:
                mag = "" if abs(c) == 1 else rational_str(abs(c)) + "*"
                term = f"{mag}x" if i == 1 else f"{mag}x^{i}"
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly('{self}')"


def _coerce_poly(value):
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly((value,))
    return NotImplemented


@dataclass(frozen=True)
class RatFunc:
    """Quotient of polynomials; denominator monic and coprime to the numerator."""

    num: Poly
    den: Poly

    def __init__(self, num, den=None):
        num = _coerce_poly(num)
        den = Poly.const(1) if den is None else _coerce_poly(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("RatFunc parts must be polynomials or rationals")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = Poly.gcd(num, den)
        if not g.is_zero() and g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        lead = den.leading()
        if lead != 1:
            num = num * (Fraction(1) / lead)
            den = den.monic()
        if num.is_zero():
            den = Poly.const(1)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __add__(self, other):
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> RatFunc:
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __call__(self, value) -> Fraction:
        point = Fraction(value)
        bottom = self.den(point)
        if bottom == 0:
            raise DenominatorVanishes(f"pole at x = {rational_str(point)}")
        return self.num(point) / bottom

    def __str__(self) -> str:
        if self.den == Poly.const(1):
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc('{self}')"


def _coerce_ratfunc(value):
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, Poly):
        return RatFunc(value)
    if isinstance(value, (int, Fraction)):
        return RatFunc(Poly((value,)))
    return NotImplemented


Scalar = Fraction | Poly | RatFunc

