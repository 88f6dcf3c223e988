"""Arithmetic and order in Q(sqrt 3), for the tests' reference computations.

The library's :class:`lonelyrunner.arith.QuadExt` is a plain value: its
engines compute on integers.  The reference walks, folds and reflections
that the tests compare the engines against compute in the field itself, so
this module's ``QuadExt`` subclass adds the field operations, ``inverse``,
``abs`` and the exact order.  It keeps the library's construction,
equality, hash, sign and conversions, so its values equal the library's
values and can be handed to the engines.  :func:`lift` converts the
library's values, inside tuples and dataclasses, for arithmetic.
"""

from dataclasses import fields, is_dataclass, replace
from fractions import Fraction

from lonelyrunner import arith

__all__ = ["QuadExt", "SQRT3", "lift"]


class QuadExt(arith.QuadExt):
    """An element ``a + b*sqrt(3)`` of the ordered field Q(sqrt 3)."""

    @staticmethod
    def _coerce(value) -> "QuadExt | None":
        if isinstance(value, QuadExt):
            return value
        if isinstance(value, arith.QuadExt):
            return QuadExt(value.a, value.b)
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


SQRT3 = QuadExt(0, 1)


def lift(value):
    """``value`` with every library QuadExt in it, through tuples and
    dataclass fields, replaced by this module's equal QuadExt."""
    if isinstance(value, arith.QuadExt):
        return QuadExt._coerce(value)
    if isinstance(value, tuple):
        return tuple(lift(item) for item in value)
    if is_dataclass(value):
        return replace(value, **{f.name: lift(getattr(value, f.name)) for f in fields(value)})
    return value
