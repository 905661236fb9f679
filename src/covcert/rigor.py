"""Exact rational and outward-rounded interval arithmetic.

Every numeric claim made by the certification pipeline reduces to arithmetic
on closed intervals with exact rational endpoints.  Field operations on
rationals are exact, so the only widening in the whole system comes from
series truncation and the floor and ceiling divisions of the fixed-point
kernels in ``specfun``, and from outward rounding to a dyadic grid: the
optional ``coarsen`` step that caps denominator growth.

A comparison between two intervals is *certified* when the intervals are
disjoint; an ``OVERLAP`` verdict is never treated as a proof of anything.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

# the relation lives with the certificate format, so a re-checker needs only report
from .report import Comparison, compare

iv_compare = compare

RationalLike = Union[Fraction, int, str]


class DivisionByIntervalContainingZero(ZeroDivisionError):
    """Raised when dividing by an interval that contains zero."""


def _to_rational(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


class Interval:
    """Closed interval [lo, hi] with exact rational endpoints.

    Immutable, and equal and hashed by its endpoints; never equal to an
    object of another type, such as a tuple or a report ``Enclosure``.
    """

    __slots__ = ("lo", "hi")

    lo: Fraction
    hi: Fraction

    def __init__(self, lo: RationalLike, hi: RationalLike) -> None:
        lo, hi = _to_rational(lo), _to_rational(hi)
        if lo > hi:
            raise ValueError(f"invalid interval: lo={lo} > hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Interval is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Interval is immutable: cannot delete {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Interval(lo={self.lo!r}, hi={self.hi!r})"

    # -- constructors ------------------------------------------------------

    @classmethod
    def exact(cls, value: RationalLike) -> "Interval":
        r = _to_rational(value)
        return cls(r, r)

    # -- queries -----------------------------------------------------------

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def subset_of(self, other: "Interval") -> bool:
        return other.lo <= self.lo and self.hi <= other.hi

    def is_point(self) -> bool:
        return self.lo == self.hi

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    def __truediv__(self, other: "Interval") -> "Interval":
        if other.contains_zero():
            raise DivisionByIntervalContainingZero(
                f"division by {other} which contains zero"
            )
        quotients = (
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        )
        return Interval(min(quotients), max(quotients))

    def pow_int(self, k: int) -> "Interval":
        if k == 0:
            return Interval.exact(1)
        if k < 0:
            if self.contains_zero():
                raise DivisionByIntervalContainingZero(
                    f"negative power of {self} which contains zero"
                )
            return Interval.exact(1) / self.pow_int(-k)
        if k % 2 == 1 or self.lo >= 0:
            return Interval(self.lo**k, self.hi**k)
        if self.hi <= 0:
            return Interval(self.hi**k, self.lo**k)
        # even power of an interval straddling zero
        return Interval(Fraction(0), max(self.lo**k, self.hi**k))

    # -- rounding ----------------------------------------------------------

    def coarsen(self, bits: int) -> "Interval":
        """Outward-round both endpoints to denominator 2**bits.

        Soundness: the result always contains ``self``.  Skips endpoints
        whose denominator already fits, so coarsening is idempotent.
        """
        scale = 1 << bits
        lo, hi = self.lo, self.hi
        if lo.denominator > scale:
            lo = Fraction(lo.numerator * scale // lo.denominator, scale)
        if hi.denominator > scale:
            hi = Fraction(-((-hi.numerator) * scale // hi.denominator), scale)
        return Interval(lo, hi)

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def coarsen_relative(iv: Interval, bits: int) -> Interval:
    """Outward-round while preserving roughly ``bits`` of relative precision.

    Plain ``coarsen`` fixes the absolute resolution at 2**-bits, which
    destroys intervals whose magnitude is far below 1.  This variant
    shifts the rounding grid down by the magnitude's exponent.
    """
    magnitude = max(abs(iv.lo), abs(iv.hi))
    if magnitude == 0:
        return iv
    extra = magnitude.denominator.bit_length() - magnitude.numerator.bit_length()
    return iv.coarsen(bits + max(extra + 1, 0))


_BINARY_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
}


def iv_arith(op: str, a: Interval, b: Interval) -> Interval:
    """Dispatch-style interface over the binary operations add, sub, mul, div."""
    if op not in _BINARY_OPS:
        raise ValueError(f"unknown interval operation {op!r}")
    if not isinstance(b, Interval):
        raise TypeError(f"{op} requires an Interval second operand")
    return _BINARY_OPS[op](a, b)
