"""The per-cell triangle walk, first-contact test and fold that
:mod:`lonelyrunner.billiards` ran before its single step loop, kept here as
the tests' reference for that loop.

Each cell of the walk is a generator item (row, col, points_up, P, Q), with
P + Q*sqrt3 the ray's side value at the cell's incenter; the contact test
reads the corner offsets of each cell from a dict, and the fold looks one
cell ahead to tell which edge a down cell leaves by.  The names match the
engine's, without the leading underscore.
"""

from fractions import Fraction
from itertools import islice
from typing import Iterator, Optional

from lonelyrunner.arith import sqrt3_sign
from lonelyrunner.billiards import TriangleHit

__all__ = ["UP_CORNERS", "DOWN_CORNERS", "walk", "lattice_period", "first_contact", "fold_triangle"]

# The corners of up and down cells with the highest side value, then the one
# with the lowest, as offsets (dX, dY) from the incenter.
UP_CORNERS = ((1, -1), (0, 2))
DOWN_CORNERS = ((0, -2), (-1, 1))


def walk(a: int, b: int, d: int) -> Iterator[tuple[int, int, bool, int, int]]:
    """Cells crossed by the ray y = ((a + b*sqrt3)/d) * x, in order, as
    (row, col, points_up, P, Q)."""
    top_p, top_q = 3 * d - 3 * b, -a
    right_p, right_q = 6 * b, 2 * a
    row = col = 0
    while True:
        x = 2 * col + row + 1
        y = 3 * row + 1
        yield row, col, True, 3 * a * x, 3 * b * x - d * y
        yield row, col, False, 3 * a * (x + 1), 3 * b * (x + 1) - d * (y + 1)
        exit_sign = sqrt3_sign(
            (row + 1) * top_p - (col + 1) * right_p, (row + 1) * top_q - (col + 1) * right_q
        )
        if exit_sign <= 0:  # top edge, or the top-right vertex
            row += 1
        if exit_sign >= 0:  # right edge, or the top-right vertex
            col += 1


def lattice_period(b: int, d: int) -> int:
    i, j = ((d - b) // 2, b) if (d - b) % 2 == 0 else (d - b, 2 * b)
    return 2 * (i + j) - 2


def first_contact(a: int, b: int, d: int, alpha: Fraction, horizon: int) -> Optional[TriangleHit]:
    """The first of ``horizon`` cells whose alpha-scaled obstacle the ray
    meets, or None; on a lattice slope at most one period is walked."""
    if a == 0:
        horizon = min(horizon, lattice_period(b, d))
    p, q = alpha.numerator, alpha.denominator
    offsets = {
        up: [(3 * a * p * dx, p * (3 * b * dx - d * dy)) for dx, dy in corners]
        for up, corners in ((True, UP_CORNERS), (False, DOWN_CORNERS))
    }
    for index, (row, col, points_up, cp, cq) in enumerate(islice(walk(a, b, d), horizon)):
        cp *= q
        cq *= q
        (high_p, high_q), (low_p, low_q) = offsets[points_up]
        high = sqrt3_sign(cp + high_p, cq + high_q)
        if high < 0:
            continue
        low = sqrt3_sign(cp + low_p, cq + low_q)
        if low > 0:
            continue
        return TriangleHit(index, row, col, points_up, high == 0 or low == 0)
    return None


def _ratio(num: tuple[int, int], den: tuple[int, int]) -> tuple[int, int, int]:
    (num_p, num_q), (den_p, den_q) = num, den
    return (
        num_p * den_p - 3 * num_q * den_q,
        num_q * den_p - num_p * den_q,
        den_p * den_p - 3 * den_q * den_q,
    )


_CORNERS = ((0, 0), (2, 0), (1, 1))


def fold_triangle(
    a: int, b: int, d: int, n_strikes: int
) -> tuple[tuple[tuple[int, int, int, int, int], ...], bool]:
    """The origin and the first ``n_strikes`` strike points folded into the
    base triangle, as (xa, xb, ya, yb, n), and whether the last is a table
    corner."""
    g1, g2, g3 = (6 * b, 2 * a), (3 * d - 3 * b, -a), (3 * d + 3 * b, a)
    falling, top, rising = _ratio(g1, g3), _ratio(g2, g1), _ratio(g1, g2)
    points = [(0, 0, 0, 0, 1)]
    terminated = False
    cells = walk(a, b, d)
    row, col, points_up, _, _ = next(cells)
    for next_row, next_col, next_up, _, _ in cells:
        if points_up:  # right edge, on u3 = level
            level, (p, q, n), offset = row + col + 1, falling, row
            v0, v1 = (col + 1, row), (col, row + 1)
        elif next_col == col:  # top edge, on u1 = level
            level, (p, q, n), offset = row + 1, top, col
            v0, v1 = (col, row + 1), (col + 1, row + 1)
        elif next_row == row:  # right edge, on u2 = level
            level, (p, q, n), offset = col + 1, rising, row
            v0, v1 = (col + 1, row), (col + 1, row + 1)
        else:
            x, y = _CORNERS[(col + 1 + 2 * (row + 1)) % 3]
            points.append((x, 0, 0, y, 2))
            terminated = True
            break
        tp, tq = level * p - offset * n, level * q
        x0, y0 = _CORNERS[(v0[0] + 2 * v0[1]) % 3]
        x1, y1 = _CORNERS[(v1[0] + 2 * v1[1]) % 3]
        dx, dy = x1 - x0, y1 - y0
        points.append((x0 * n + dx * tp, dx * tq, 3 * dy * tq, y0 * n + dy * tp, 2 * n))
        if len(points) > n_strikes:
            break
        row, col, points_up = next_row, next_col, next_up
    return tuple(points), terminated
