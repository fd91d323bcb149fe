"""Exact scalars: rational literals, an infinity sentinel, Gaussian rationals.

Every quantity in this package is a `fractions.Fraction`, a `GaussianRational`
(pair of Fractions), or the distinguished `INF` sentinel.  Floating point is
never used, so equality and comparisons are exact everywhere.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import MalformedRational

_RATIONAL_RE = _re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational(text) -> Fraction:
    """Parse an 'n' or 'n/d' literal; exact values (int, Fraction) pass
    through. Anything inexact or malformed (floats, blanks) is rejected.
    """
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise MalformedRational(f"not a rational literal: {text!r}")
    return Fraction(text)


def format_rational(value: Fraction) -> str:
    """Inverse of parse_rational: reduced 'n' or 'n/d' with positive denominator."""
    return str(Fraction(value))


class Infinity:
    """Value strictly above every rational.  Comparisons only; arithmetic raises.

    Used as the expansivity constant of observables that separate nothing.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def __lt__(self, other):
        if isinstance(other, (Infinity, int, Fraction)):
            return False
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, Infinity):
            return True
        if isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, Infinity):
            return False
        if isinstance(other, (int, Fraction)):
            return True
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, (Infinity, int, Fraction)):
            return True
        return NotImplemented

    def _no_arithmetic(self, *_):
        raise TypeError("arithmetic with the infinity sentinel is not defined")

    __add__ = __radd__ = __sub__ = __rsub__ = _no_arithmetic
    __mul__ = __rmul__ = __truediv__ = __rtruediv__ = __neg__ = _no_arithmetic


INF = Infinity()

ExtScalar = Union[Fraction, Infinity]


def format_extended(value: ExtScalar) -> str:
    return "inf" if isinstance(value, Infinity) else format_rational(value)


def parse_extended(text) -> ExtScalar:
    if text == "inf":
        return INF
    return parse_rational(text)


@dataclass(frozen=True)
class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    real: Fraction
    imag: Fraction

    @classmethod
    def of(cls, real, imag=0) -> "GaussianRational":
        return cls(Fraction(real), Fraction(imag))

    @classmethod
    def parse_pair(cls, pair) -> "GaussianRational":
        if isinstance(pair, (str, int)):
            return cls(parse_rational(pair), Fraction(0))
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise MalformedRational(f"expected a [re, im] pair, got {pair!r}")
        return cls(parse_rational(pair[0]), parse_rational(pair[1]))

    def to_pair(self):
        return [format_rational(self.real), format_rational(self.imag)]

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.real + other.real, self.imag + other.imag)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.real - other.real, self.imag - other.imag)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.real, -self.imag)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.real, -self.imag)

    def is_zero(self) -> bool:
        return self.real == 0 and self.imag == 0

    def __str__(self):
        if self.imag == 0:
            return format_rational(self.real)
        return f"{format_rational(self.real)}+{format_rational(self.imag)}i"


GR_ZERO = GaussianRational.of(0)
GR_ONE = GaussianRational.of(1)
GR_I = GaussianRational.of(0, 1)
