"""Exact number kernel: rationals, values in Q(sqrt 3) and the exact sign
of ``p + q*sqrt(3)``, the torus norm, small-prime iteration, and the input
rules every engine shares: ``_check_count``, which every integer input in
the package passes once and which words its own refusal, and
``_unit_scale``.

Nothing in this module (or anything built on it) ever rounds.  Rationals are
stdlib :class:`fractions.Fraction` values -- always reduced, denominator
positive, so equality is structural.  The engines compute in integers and
decide a sign in Q(sqrt 3) with :func:`sqrt3_sign`; :class:`QuadExt` only
carries an exact slope or point in and out of them.
Floats appear only in the SVG renderer, which converts at the last moment.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

__all__ = [
    "RationalLike",
    "torus_norm",
    "sqrt3_sign",
    "QuadExt",
    "is_prime",
    "next_prime_not_dividing",
    "SpeedSet",
]

RationalLike = Union[int, Fraction]


def _check_count(value, name: str, least: int = 1, most: Optional[int] = None) -> int:
    """``value`` if it is an int in [least, most], the one rule for every
    integer input an engine or a document takes; ``most`` of None is no
    upper bound.  A bool is not an int here, although Python treats True
    as 1.  Any other value is refused with one message, built from
    ``name`` and the bounds."""
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value < least
        or most is not None and value > most
    ):
        rule = f"an integer >= {least}" if most is None else f"an integer from {least} to {most}"
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return value


def _unit_scale(alpha: RationalLike) -> Fraction:
    """The obstacle scale alpha as a Fraction, refused unless 0 < alpha < 1.
    A Fraction is kept as it is, without Fraction()'s costly type check."""
    alpha = alpha if type(alpha) is Fraction else Fraction(alpha)
    if not 0 < alpha.numerator < alpha.denominator:  # the denominator is positive
        raise ValueError("alpha must lie strictly between 0 and 1")
    return alpha


def torus_norm(x: RationalLike) -> Fraction:
    """Distance from the rational ``x`` to the nearest integer.

    The result is exact and lies in [0, 1/2]; it equals 1/2 exactly when
    ``x - 1/2`` is an integer.
    """
    x = Fraction(x)
    frac = x - (x.numerator // x.denominator)
    return min(frac, 1 - frac)


def sqrt3_sign(p: int, q: int) -> int:
    """Exact sign of ``p + q*sqrt(3)`` for integers p and q: one of -1, 0, +1.

    When p and q disagree in sign, the term of larger square magnitude
    wins; p*p == 3*q*q only at p = q = 0 because sqrt(3) is irrational.
    """
    sp = (p > 0) - (p < 0)
    sq = (q > 0) - (q < 0)
    if sq == 0:
        return sp
    if sp == 0 or sp == sq:
        return sq
    return sp if p * p > 3 * q * q else sq


@dataclass(frozen=True)
class QuadExt:
    """An element ``a + b*sqrt(3)`` of the real quadratic field Q(sqrt 3), as
    a plain value: a slope, a path point or a cell corner.  It has no
    arithmetic and no order; the engines compute on the integers of its
    cleared form.

    Because sqrt(3) is irrational the representation (a, b) is unique, so
    structural equality is numeric equality; a rational element equals, and
    hashes like, its int or Fraction.  The sign of a value is decided
    exactly by :func:`sqrt3_sign` on integers, after clearing denominators.
    """

    a: Fraction
    b: Fraction

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0):
        # A Fraction is kept as it is: Fraction(Fraction) would only copy
        # it, after a costly numbers.Rational check.
        object.__setattr__(self, "a", a if type(a) is Fraction else Fraction(a))
        object.__setattr__(self, "b", b if type(b) is Fraction else Fraction(b))

    def sign(self) -> int:
        """Exact sign of ``a + b*sqrt(3)``: one of -1, 0, +1."""
        # Multiplying by the positive integer a.denominator * b.denominator
        # keeps the sign and leaves an integer pair.
        a, b = self.a, self.b
        return sqrt3_sign(a.numerator * b.denominator, b.numerator * a.denominator)

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        # A rational element equals its Fraction, so it must hash like one.
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    # -- conversions ----------------------------------------------------------

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * 3 ** 0.5

    def __repr__(self) -> str:
        return f"QuadExt({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt3"
        return f"{self.a} + {self.b}*sqrt3"


def is_prime(n: int) -> bool:
    """Deterministic trial division, adequate for the desk-scale primes used
    throughout (well below 10**6 in all planned sweeps)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def next_prime_not_dividing(lower: int, speeds: Iterable[int]) -> int:
    """Smallest prime ``p >= lower`` that divides no element of ``speeds``."""
    if lower < 2:
        raise ValueError("lower bound must be at least 2")
    members = tuple(speeds)
    p = lower
    while True:
        if is_prime(p) and all(s % p != 0 for s in members):
            return p
        p += 1


class SpeedSet(tuple):
    """A finite set of distinct positive integer speeds: the sorted tuple of
    its members.

    Construction normalizes to set semantics (duplicates collapse) and
    rejects empty input and non-positive or non-integer entries.  A
    SpeedSet passed in is returned as it is.
    """

    __slots__ = ()

    def __new__(cls, speeds: Iterable[int]) -> "SpeedSet":
        if isinstance(speeds, cls):
            return speeds
        items = list(speeds)
        # Checked in input order, before anything compares them: the order
        # of a set of mixed types depends on the hash seed.
        for s in items:
            _check_count(s, "speed")
        if not items:
            raise ValueError("speed set must be nonempty")
        return super().__new__(cls, sorted(set(items)))

    @property
    def max(self) -> int:
        return self[-1]

    def __repr__(self) -> str:
        return f"SpeedSet({{{', '.join(map(str, self))}}})"
