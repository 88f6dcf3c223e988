"""Exact number kernel: rationals, the ordered field Q(sqrt 3), the torus
norm, and small-prime iteration.

Nothing in this module (or anything built on it) ever rounds.  Rationals are
stdlib :class:`fractions.Fraction` values -- always reduced, denominator
positive, so equality is structural.
Floats appear only in the SVG renderer, which converts at the last moment.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

__all__ = [
    "RationalLike",
    "torus_norm",
    "sqrt3_sign",
    "QuadExt",
    "SQRT3",
    "is_prime",
    "next_prime_not_dividing",
    "SpeedSet",
]

RationalLike = Union[int, Fraction]


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
    """An element ``a + b*sqrt(3)`` of the real quadratic field Q(sqrt 3).

    Because sqrt(3) is irrational the representation (a, b) is unique, so
    structural equality is numeric equality.  The sign of a value is decided
    exactly by :func:`sqrt3_sign` on integers, after clearing denominators.
    """

    a: Fraction
    b: Fraction

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0):
        # A Fraction is kept as it is: Fraction(Fraction) would only copy
        # it, after a costly numbers.Rational check.
        object.__setattr__(self, "a", a if type(a) is Fraction else Fraction(a))
        object.__setattr__(self, "b", b if type(b) is Fraction else Fraction(b))

    # -- field operations ---------------------------------------------------

    @staticmethod
    def _coerce(value: "QuadExt | RationalLike") -> "QuadExt | None":
        if isinstance(value, QuadExt):
            return value
        if isinstance(value, (int, Fraction)):
            return QuadExt(value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuadExt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuadExt(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuadExt(
            self.a * other.a + 3 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        # (a + b sqrt3)^-1 = (a - b sqrt3) / (a^2 - 3 b^2); the norm form
        # a^2 - 3 b^2 vanishes only at zero because sqrt(3) is irrational.
        norm = self.a * self.a - 3 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 3)")
        return QuadExt(self.a / norm, -self.b / norm)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __neg__(self):
        return QuadExt(-self.a, -self.b)

    def __pos__(self):
        return self

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- exact order --------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of ``a + b*sqrt(3)``: one of -1, 0, +1."""
        # Multiplying by the positive integer a.denominator * b.denominator
        # keeps the sign and leaves an integer pair.
        a, b = self.a, self.b
        return sqrt3_sign(a.numerator * b.denominator, b.numerator * a.denominator)

    def _cmp(self, other) -> int:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign()

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b

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


SQRT3 = QuadExt(0, 1)


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


class SpeedSet:
    """A finite set of distinct positive integer speeds, stored sorted.

    Construction normalizes to set semantics (duplicates collapse) and
    rejects empty input and non-positive or non-integer entries.
    """

    __slots__ = ("speeds",)

    speeds: tuple[int, ...]

    def __init__(self, speeds: Iterable[int]):
        items = sorted(set(speeds))
        if not items:
            raise ValueError("speed set must be nonempty")
        for s in items:
            if not isinstance(s, int) or isinstance(s, bool) or s < 1:
                raise ValueError(f"speeds must be integers >= 1, got {s!r}")
        object.__setattr__(self, "speeds", tuple(items))

    @classmethod
    def of(cls, value: "SpeedSet | Iterable[int]") -> "SpeedSet":
        return value if isinstance(value, cls) else cls(value)

    def __setattr__(self, name, value):
        raise AttributeError("SpeedSet is immutable")

    def __iter__(self) -> Iterator[int]:
        return iter(self.speeds)

    def __len__(self) -> int:
        return len(self.speeds)

    def __contains__(self, value) -> bool:
        return value in self.speeds

    def __getitem__(self, index: int) -> int:
        return self.speeds[index]

    @property
    def max(self) -> int:
        return self.speeds[-1]

    def __eq__(self, other):
        if isinstance(other, SpeedSet):
            return self.speeds == other.speeds
        return NotImplemented

    def __hash__(self):
        return hash(self.speeds)

    def __repr__(self) -> str:
        return f"SpeedSet({{{', '.join(map(str, self.speeds))}}})"
