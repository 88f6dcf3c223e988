"""Square and equilateral-triangle billiards via unfolding.

A billiard path from the origin unfolds to a straight ray: reflecting the
table across the struck side straightens the path.  For the unit square the
inverse map is a coordinatewise triangle-wave fold; for the unit equilateral
triangle the unfoldings tile the wedge between the rays at angles 0 and
pi/3, and the ray is walked through that tiling cell by cell.

Cell bookkeeping for the triangular tiling: with h = sqrt(3)/2 the tiling's
edges lie on the three line families  y = j*h,  x - y/sqrt3 = i  and
x + y/sqrt3 = s  (integers j, i, s).  The up-triangle in row j, column i has
corners (i + j/2, j h), (i+1 + j/2, j h), (i + (j+1)/2, (j+1) h); the down
triangle of the same index sits immediately to its right.  Along a ray
y = sigma * x with 0 < sigma < sqrt3 all three coordinates increase, so an
up cell always exits through its right edge, and a down cell exits through
its top or right edge -- or through its top-right corner, which is a lattice
vertex (a table corner after folding).  The walk is therefore one step loop:
the up cell (row, col), its down neighbour, then that down cell's exit to
the next up cell.

The walk, its contact tests and the path folds run on integers.  The slope
is written (a + b*sqrt3)/d with integers a, b, d, and a point is measured
as X = 2x, Y = 6y/sqrt3, which makes every corner and incenter of the
tiling an integer pair.  The ray's side of a point is then the sign of
6d*(sigma*x - y) = 3aX + (3bX - dY)*sqrt3, a pair of integers P + Q*sqrt3
whose sign is decided by the integer comparisons of
:func:`~lonelyrunner.arith.sqrt3_sign`.  The slope's own range check,
0 < sigma < sqrt3, is two such signs.  An obstacle hit is named by its
cell's (row, col, orientation).

The exit rule, the one rule the contact test and the path fold share: let
g1 and g2 be 3d times the growth of u1 = 2y/sqrt3 and u2 = x - y/sqrt3 per
unit x, as integer pairs (P, Q) for P + Q*sqrt3.  The ray leaves the down
cell (row, col) through its top edge u1 = row + 1, through the top-right
vertex, or through its right edge u2 = col + 1 as the exit value
E = (row+1)*g2 - (col+1)*g1 is negative, zero or positive, and enters the
up cell one row up, one row up and one column right, or one column right.
Neither loop recomputes E from (row, col).  Both carry it and step it: a
row step adds g2, a column step subtracts g1.  The contact test carries the
side value at the up cell's incenter as well, which a row step moves by
(X, Y) = (1, 3) and a column step by (2, 0), so each cell costs a few
integer additions and comparisons.

A path crossing lies a fraction (p + q*sqrt3)/n of the way along a tiling
edge and folds by the colours of the edge's two lattice vertices, so a
path keeps its strike points as integers.  Q(sqrt 3) values appear only
when a path's ``segments`` are read and in :func:`triangle_cell`, which
builds a cell's corners from its integer incenter and the corner offsets
in _CELL_CORNERS; the renderer draws cells from the same integers.

The square runs on integers as well.  Its path is folded from the ray's
merged grid crossings, and its obstacle test is a comparison per grid cell.
The unfolded ray of slope p/q meets the centered alpha-square of cell (i, j)
exactly when |p(2i+1) - q(2j+1)| <= alpha*(p+q).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from typing import Iterator, NamedTuple, Optional

from .arith import QuadExt, RationalLike, _check_count, _unit_scale, sqrt3_sign

__all__ = [
    "Point",
    "QPoint",
    "SquarePath",
    "TrianglePath",
    "TriangleCell",
    "TriangleHit",
    "square_path_segments",
    "square_min_obstacle",
    "square_obstacle_contact",
    "triangle_cell",
    "triangle_obstruction_check",
    "triangle_path_segments",
    "triangle_min_obstacle",
]

Point = tuple[Fraction, Fraction]
QPoint = tuple[QuadExt, QuadExt]
_MAX_PATH = 2**14  # the most segments or strikes a path takes


# ---------------------------------------------------------------------------
# Square table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SquarePath:
    """Billiard path in the unit square: the fold of the ray y = slope*x.

    ``points`` are the ``n_segments + 1`` breakpoints as numerator pairs
    (x, y) of the point (x/p, y/q), for the slope p/q; they follow from the
    slope and the count, so two paths are equal when those are.
    ``segments`` builds the points as Fractions when it is read.
    Consecutive segments share an endpoint on the boundary and obey the
    reflection law; unfolding the segments recovers collinear ray points.
    """

    slope: Fraction
    n_segments: int
    points: tuple[tuple[int, int], ...] = field(repr=False)

    @cached_property
    def segments(self) -> tuple[tuple[Point, Point], ...]:
        p, q = self.slope.numerator, self.slope.denominator
        points = [(Fraction(x, p), Fraction(y, q)) for x, y in self.points]
        return tuple(zip(points, points[1:]))


def _square_slope(slope: RationalLike) -> tuple[int, int]:
    slope = Fraction(slope)
    if slope <= 0:
        raise ValueError("slope must be positive")
    return slope.numerator, slope.denominator


def _crossings(p: int, q: int) -> Iterator[int]:
    """The ray y = (p/q)*x's crossings of integer grid lines as X = p*x, in
    increasing order from X = 0: the ray meets the vertical lines at the
    multiples of p and the horizontal lines at the multiples of q, and the
    crossing at X is the ray point (X/p, X/q).  A simultaneous crossing is
    a corner hit and is yielded once.

    The ray runs from the crossing X_k to the next one inside the grid cell
    (X_k // p, X_k // q).
    """
    x, vertical, horizontal = 0, p, q
    while True:
        yield x
        x = min(vertical, horizontal)
        if x == vertical:
            vertical += p
        if x == horizontal:
            horizontal += q


def square_path_segments(slope: RationalLike, n_segments: int) -> SquarePath:
    """First ``n_segments`` table segments of the slope's billiard path,
    at most 2**14.

    Breakpoints are the ray's grid crossings (see :func:`_crossings`),
    each folded onto the table coordinatewise.  The crossing X = p*x is
    the ray point (X/p, X/q), and its triangle-wave fold
    1 - |1 - (u mod 2)| in each coordinate u = X/m, m = p or q, is
    (m - |m - X mod 2m|)/m.  A corner of the cell grid folds to a corner
    of the table, which realizes the diagonal-reflection rule for corner
    hits.
    """
    p, q = _square_slope(slope)
    _check_count(n_segments, "segments", most=_MAX_PATH)
    p2, q2 = 2 * p, 2 * q
    points = tuple(
        (p - abs(p - x % p2), q - abs(q - x % q2)) for x in islice(_crossings(p, q), n_segments + 1)
    )
    return SquarePath(Fraction(p, q), n_segments, points)


def square_min_obstacle(slope: RationalLike) -> Fraction:
    """Minimal scale of the centered square every slope-path must meet:
    ((p+q) mod 2)/(p+q) for the reduced slope p/q.

    Unfolded, the path is the ray y = (p/q)*x, and every grid cell (i, j)
    carries a centered square; the ray meets the alpha-square of (i, j)
    exactly when |p(2i+1) - q(2j+1)| <= alpha*(p+q).  These values have the
    parity of p + q, so none is below (p+q) mod 2.  That value is attained
    by a cell the ray crosses: p*i - q*j takes every integer on the cells
    with i, j >= 0, since gcd(p, q) = 1, and the ray crosses exactly the
    cells with |p(2i+1) - q(2j+1)| < p + q.  By view-obstruction duality
    this is 1 - 2*delta({p, q}).
    """
    p, q = _square_slope(slope)
    return Fraction((p + q) % 2, p + q)


def square_obstacle_contact(path: SquarePath, alpha) -> str:
    """How the path meets the centered alpha-square G(alpha): 'miss',
    'boundary' (grazing only), or 'interior'.

    Folding carries each cell's centered square onto the table's, so the
    path meets G(alpha) as its unfolded ray meets the squares of the cells
    it crosses: with c = |p(2i+1) - q(2j+1)| least over those cells, the
    contact is 'interior' when alpha*(p+q) > c, 'boundary' at equality and
    'miss' below.  Only the slope and the segment count are read.

    At most one period of p + q - 1 cells is walked.  The values
    |p(2i+1) - q(2j+1)| are unchanged by the translation
    (i, j) -> (i + q, j + p), and the ray enters the cell (q, p) at its
    corner X = pq, after the p + q - 1 crossings in [0, pq); from there the
    cells repeat.  So a path of 2**14 segments costs one period.
    """
    alpha = _unit_scale(alpha)
    p, q = path.slope.numerator, path.slope.denominator
    least = min(
        abs(p * (2 * (x // p) + 1) - q * (2 * (x // q) + 1))
        for x in islice(_crossings(p, q), min(path.n_segments, p + q - 1))
    )
    reach = alpha.numerator * (p + q)  # alpha*(p+q) and least, times alpha's denominator
    least *= alpha.denominator
    if reach > least:
        return "interior"
    return "boundary" if reach == least else "miss"


# ---------------------------------------------------------------------------
# Triangular table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriangleCell:
    """One unit triangle of the wedge tiling, addressed by (row, col,
    orientation); the incenter coincides with the centroid."""

    row: int
    col: int
    points_up: bool
    vertices: tuple[QPoint, QPoint, QPoint]
    incenter: QPoint


# A cell's corners minus its incenter, in (X, Y) units and in the order of
# TriangleCell.vertices, keyed by points_up.
_CELL_CORNERS = {True: ((-1, -1), (1, -1), (0, 2)), False: ((0, -2), (-1, 1), (1, 1))}


def _incenter(row: int, col: int, points_up: bool) -> tuple[int, int]:
    """The incenter (X, Y) of the cell at (row, col): X = 2col + row + 1,
    Y = 3row + 1 for an up cell, and (X + 1, Y + 1) for the down cell."""
    x, y = 2 * col + row + 1, 3 * row + 1
    return (x, y) if points_up else (x + 1, y + 1)


def triangle_cell(row: int, col: int, points_up: bool) -> TriangleCell:
    """Construct the cell at (row, col) with the given orientation."""
    if row < 0 or col < 0:
        raise ValueError("wedge cells have row >= 0 and col >= 0")
    x, y = _incenter(row, col, points_up)
    vertices = tuple(
        (QuadExt(Fraction(x + dx, 2)), QuadExt(0, Fraction(y + dy, 6)))
        for dx, dy in _CELL_CORNERS[points_up]
    )
    incenter = (QuadExt(Fraction(x, 2)), QuadExt(0, Fraction(y, 6)))
    return TriangleCell(row, col, points_up, vertices, incenter)


class _Slope(NamedTuple):
    """A wedge slope cleared to integers: slope = (a + b*sqrt3)/d, d >= 1.
    The public triangle functions take one in place of a slope, so a
    caller that has cleared a slope once can hand it to several."""

    a: int
    b: int
    d: int


def _cleared(slope) -> _Slope:
    """Integers (a, b, d) with slope = (a + b*sqrt3)/d and d >= 1, for a
    slope in the wedge (see :func:`_cleared_parts`).  A slope already
    cleared is returned as it is."""
    if type(slope) is _Slope:
        return slope
    s = slope if isinstance(slope, QuadExt) else QuadExt(Fraction(slope))
    return _cleared_parts(s.a.numerator, s.a.denominator, s.b.numerator, s.b.denominator)


def _cleared_parts(a_num: int, a_den: int, b_num: int, b_den: int) -> _Slope:
    """The slope a_num/a_den + (b_num/b_den)*sqrt3, read from its integers
    (the denominators nonzero, of either sign) with no Fraction built, and
    cleared with one lcm to (a, b, d) with no common factor and d >= 1: the
    least common denominator of the parts in lowest terms, as for a slope
    held as a QuadExt.  It is refused unless it lies strictly between 0 and
    sqrt3: since d > 0, that is a + b*sqrt3 and (d - b)*sqrt3 - a both
    positive."""
    d = lcm(a_den, b_den)  # positive, so d // a_den carries a_den's sign
    a, b = a_num * (d // a_den), b_num * (d // b_den)
    g = gcd(a, b, d)
    a, b, d = a // g, b // g, d // g
    if sqrt3_sign(a, b) <= 0 or sqrt3_sign(-a, d - b) <= 0:
        raise ValueError("slope must lie strictly between 0 and sqrt(3)")
    return _Slope(a, b, d)


class TriangleHit(NamedTuple):
    """First obstacle contact along the walk: the ``index``-th cell walked,
    at (row, col, points_up); ``triangle_cell`` builds its geometry.
    ``grazing`` means the ray touches the scaled triangle without crossing
    its interior."""

    index: int
    row: int
    col: int
    points_up: bool
    grazing: bool


def _lattice_period(b: int, d: int) -> int:
    """The walk's period on the lattice slope sqrt3*b/d, b/d in lowest
    terms as :func:`_cleared` gives it: the index of its first step
    through a lattice vertex.

    The ray meets the lattice vertex V(i, j) = (i + j/2, j*sqrt3/2) exactly
    when b/d = j/(2i + j) for coprime i, j >= 1.  In lowest terms that is
    b = j, d - b = 2i when j is odd, and b = j/2, d - b = i when j is even
    (then i is odd).  The walk reaches V(i, j) by i - 1 right and j - 1 top
    exits of down cells, so after 2(i + j) - 2 cells it enters the up cell
    (j, i), the translate of the base cell by V(i, j).  That translation
    maps the ray, the tiling and every scaled obstacle onto themselves, so
    the walk repeats from there, and every first contact has an index below
    the period.
    """
    i, j = ((d - b) // 2, b) if (d - b) % 2 == 0 else (d - b, 2 * b)
    return 2 * (i + j) - 2


def _first_contact(a: int, b: int, d: int, alpha: Fraction, horizon: int) -> Optional[TriangleHit]:
    """The first of ``horizon`` cells whose alpha-scaled obstacle the ray
    meets, or None.

    The walk is one step loop: the up cell (row, col), its down neighbour,
    then that cell's exit by the exit rule (see the module docstring).  The
    ray's side value at a point (X, Y) is G = P + Q*sqrt3 with P = 3aX and
    Q = 3bX - dY, which is 6d*(sigma*x - y); the up cell's incenter is
    X = 2col + row + 1, Y = 3row + 1, and the down cell's is (X + 1, Y + 1).

    The scaled corner is (1-alpha)*incenter + alpha*corner, so with
    alpha = p/q the ray's side of it has the sign of q*G_center +
    p*(G_corner - G_center).  Obstacles are closed: the ray misses only
    when all three corners lie strictly on one side, and it grazes when no
    two lie strictly on opposite sides (a zero sign is the ray through a
    scaled corner).

    Two corners decide this.  A corner at (dX, dY) from the incenter has
    G_corner - G_center = d*(3*sigma*dX - sqrt3*dY), whose bracket is
    3*sigma + sqrt3 at (1, -1), sqrt3 - 3*sigma at (-1, -1) and -2*sqrt3
    at (0, 2) in an up cell; 2*sqrt3 at (0, -2), 3*sigma - sqrt3 at (1, 1)
    and -3*sigma - sqrt3 at (-1, 1) in a down cell.  Since 0 < sigma < sqrt3,
    these are ordered the same way in every cell: an up cell's highest
    scaled corner is at (1, -1) and its lowest at (0, 2), a down cell's
    highest at (0, -2) and its lowest at (-1, 1).  The ray misses when the
    highest sign is negative or the lowest positive; otherwise the highest
    is >= 0 and the lowest <= 0, and the ray grazes exactly when one of
    them is 0.  Times p, the offsets of those corners are (3ap, p(3b + d))
    at (1, -1) and its negative at (-1, 1), and -2dp*sqrt3 at (0, 2) and
    its negative at (0, -2).

    Nothing is recomputed per cell.  The loop carries q*G at the up
    cell's incenter and the exit value E as integer pairs and steps both:
    a row step moves the incenter by (1, 3) and adds g2 to E, a column
    step moves it by (2, 0) and subtracts g1 from E.  Each sign is decided
    inline, by the comparisons :func:`~lonelyrunner.arith.sqrt3_sign`
    makes: P + Q*sqrt3 >= 0 when both are >= 0, and when they differ in
    sign the term of larger square wins (the squares tie only at 0).

    On a lattice slope (a == 0) at most one period is walked: see
    :func:`_lattice_period`.  The cap is set once, so the loop is the same
    for every slope.
    """
    if a == 0:
        horizon = min(horizon, _lattice_period(b, d))
    p, q = alpha.numerator, alpha.denominator
    x_p, x_q, y_q = 3 * a * q, 3 * b * q, d * q  # q*G at (X, Y) is (x_p*X, x_q*X - y_q*Y)
    row_p, row_q, col_p, col_q = x_p, x_q - 3 * y_q, 2 * x_p, 2 * x_q
    # The tested corners' offsets from q*G at the up incenter.
    side_p, side_q, edge = 3 * a * p, p * (3 * b + d), 2 * d * p
    down_p, down_q = x_p, x_q - y_q  # the down incenter, at (1, 1) from it
    down_high_q, down_low_p, down_low_q = down_q + edge, down_p - side_p, down_q - side_q
    g1_p, g1_q, g2_p, g2_q = 6 * b, 2 * a, 3 * d - 3 * b, -a
    row = col = 0
    cp, cq = x_p, x_q - y_q  # the up cell (0, 0), at X = Y = 1
    ep, eq = g2_p - g1_p, g2_q - g1_q  # E = (row+1)*g2 - (col+1)*g1
    last = horizon - 1
    for index in range(0, horizon, 2):
        # Up cell: is the highest corner's sign >= 0, then the lowest's <= 0?
        hp, hq = cp + side_p, cq + side_q
        if (hq >= 0 or hp * hp > 3 * hq * hq) if hp >= 0 else (hq > 0 and 3 * hq * hq > hp * hp):
            lq = cq - edge
            if (lq <= 0 or cp * cp > 3 * lq * lq) if cp <= 0 else (lq < 0 and 3 * lq * lq > cp * cp):
                return TriangleHit(index, row, col, True, not (hp or hq) or not (cp or lq))
        if index == last:
            return None
        # Down cell.
        hp, hq = cp + down_p, cq + down_high_q
        if (hq >= 0 or hp * hp > 3 * hq * hq) if hp >= 0 else (hq > 0 and 3 * hq * hq > hp * hp):
            lp, lq = cp + down_low_p, cq + down_low_q
            if (lq <= 0 or lp * lp > 3 * lq * lq) if lp <= 0 else (lq < 0 and 3 * lq * lq > lp * lp):
                return TriangleHit(index + 1, row, col, False, not (hp or hq) or not (lp or lq))
        # The exit: E <= 0 steps a row up, E >= 0 a column right.
        right = (eq >= 0 or ep * ep > 3 * eq * eq) if ep >= 0 else (eq > 0 and 3 * eq * eq > ep * ep)
        if not right or not (ep or eq):
            row += 1
            cp += row_p
            cq += row_q
            ep += g2_p
            eq += g2_q
        if right:
            col += 1
            cp += col_p
            cq += col_q
            ep -= g1_p
            eq -= g1_q
    return None


def triangle_obstruction_check(slope, alpha, horizon: int) -> Optional[TriangleHit]:
    """First cell whose alpha-scaled obstacle the ray meets, or None.

    On a lattice slope sqrt3*j/(2i+j) the walk repeats with period
    P = 2(i+j) - 2 (see :func:`_lattice_period`), so a None over
    min(horizon, P) cells is a miss over the whole ray, and the check
    costs that many cells.  Off the lattice a None is horizon-qualified:
    the ray avoided the first ``horizon`` obstacles, which proves nothing
    beyond that range, and the cost grows with the horizon.
    """
    a, b, d = _cleared(slope)
    alpha = _unit_scale(alpha)
    _check_count(horizon, "horizon")
    return _first_contact(a, b, d, alpha, horizon)


# The defaults of triangle_min_obstacle, which lrc triangle reads as well.
_HORIZON = 10_000
_TOLERANCE = Fraction(1, 1024)
_MIN_TOLERANCE = Fraction(1, 2**64)  # one bisection probe per bit


def triangle_min_obstacle(
    slope,
    horizon: int = _HORIZON,
    tolerance: RationalLike = _TOLERANCE,
) -> tuple[Fraction, Fraction]:
    """Bisection bracket [lo, hi] for the minimal obstructing scale.

    ``hi`` is always a verified hit; ``lo`` is a horizon-qualified miss (or
    0).  The bracket narrows to the requested width; scale 1 always hits
    since the full cell contains the ray segment crossing it.  On a
    lattice slope each probe walks min(horizon, P) cells of the period P
    (see :func:`triangle_obstruction_check`), so ``lo`` is a miss over the
    whole ray; off the lattice each probe's cost grows with the horizon.
    There is one probe per bit of the tolerance, which must be >= 2**-64.
    """
    a, b, d = _cleared(slope)
    _check_count(horizon, "horizon")
    tolerance = tolerance if type(tolerance) is Fraction else Fraction(tolerance)
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if tolerance < _MIN_TOLERANCE:
        raise ValueError(f"tolerance {tolerance} below the limit of 2**-64")

    def hits(alpha: Fraction) -> bool:
        return _first_contact(a, b, d, alpha, horizon) is not None

    zero = Fraction(0)
    if hits(zero):
        return zero, zero
    lo, hi = zero, Fraction(1)
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if hits(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


# -- folding the ray into the base triangle ---------------------------------


@dataclass(frozen=True)
class TrianglePath:
    """Billiard path in the unit equilateral triangle (corners (0,0), (1,0),
    (1/2, sqrt3/2)); one segment per boundary strike.

    ``points`` are the origin and the strike points as :func:`_fold_triangle`
    gives them; they follow from the slope and the strike count, so two
    paths are equal when those are.  ``segments`` builds the points in
    Q(sqrt 3) when it is read.  A strike at a table corner ends the path
    (``terminated_at_corner``), so it may have fewer segments than
    ``n_strikes``; the reflection there is not defined by the table
    geometry.
    """

    slope: QuadExt
    n_strikes: int
    points: tuple[tuple[int, int, int, int, int], ...] = field(repr=False)
    terminated_at_corner: bool = field(repr=False)

    @cached_property
    def segments(self) -> tuple[tuple[QPoint, QPoint], ...]:
        points = [
            (QuadExt(Fraction(xa, n), Fraction(xb, n)), QuadExt(Fraction(ya, n), Fraction(yb, n)))
            for xa, xb, ya, yb, n in self.points
        ]
        return tuple(zip(points, points[1:]))


def _ratio(num: tuple[int, int], den: tuple[int, int]) -> tuple[int, int, int]:
    """Integers (p, q, n) with (p + q*sqrt3)/n = num/den, for nonzero
    num = num[0] + num[1]*sqrt3 and den of the same form.  This multiplies
    through by the conjugate of den; n, the norm of den, may be negative
    but is never zero, because sqrt3 is irrational."""
    (num_p, num_q), (den_p, den_q) = num, den
    return (
        num_p * den_p - 3 * num_q * den_q,
        num_q * den_p - num_p * den_q,
        den_p * den_p - 3 * den_q * den_q,
    )


# Table corners (0,0), (1,0), (1/2, sqrt3/2) as (2x, 2y/sqrt3).  Every fold
# isometry preserves the tiling's 3-colouring, so it sends the lattice
# vertex V(i, j) = (i + j/2, j*sqrt3/2) to corner (i + 2j) % 3.
_CORNERS = ((0, 0), (2, 0), (1, 1))


def _fold_triangle(
    a: int, b: int, d: int, n_strikes: int
) -> tuple[tuple[tuple[int, int, int, int, int], ...], bool]:
    """The origin and the first ``n_strikes`` strike points of the ray
    y = ((a + b*sqrt3)/d) * x, folded into the base triangle, and whether
    the last is a table corner, which ends the path early.  A point is five
    integers (xa, xb, ya, yb, n), n nonzero, for x = (xa + xb*sqrt3)/n and
    y = (ya + yb*sqrt3)/n.

    The walk decides which tiling edge the ray leaves each cell by: an up
    cell its right edge, then its down neighbour the edge the exit rule
    (see the module docstring) gives, from the exit value E, which the loop
    carries and steps as :func:`_first_contact` does.  The crossing lies a
    fraction t of the way along that edge, between two lattice vertices,
    and folds to the same fraction of the way between their table corners.
    With the tiling coordinates u1 = 2y/sqrt3, u2 = x - y/sqrt3 and
    u3 = x + y/sqrt3, t is u1 - row where the ray meets u3 = level or
    u2 = level, and u2 - col where it meets u1 = level; the ray's u1/u3,
    u2/u1 and u1/u2 are constants, so t is computed in integers.
    """
    # 3d times the growth of u1, u2 and u3 per unit x.
    g1, g2, g3 = (6 * b, 2 * a), (3 * d - 3 * b, -a), (3 * d + 3 * b, a)
    falling, top, rising = _ratio(g1, g3), _ratio(g2, g1), _ratio(g1, g2)
    points = [(0, 0, 0, 0, 1)]
    terminated = False
    row = col = 0
    ep, eq = g2[0] - g1[0], g2[1] - g1[1]  # E = (row+1)*g2 - (col+1)*g1
    points_up = True
    while len(points) <= n_strikes:
        if points_up:  # right edge, on u3 = level
            level, (p, q, n), offset = row + col + 1, falling, row
            v0, v1 = (col + 1, row), (col, row + 1)
        else:
            exit_sign = sqrt3_sign(ep, eq)
            if exit_sign < 0:  # top edge, on u1 = level
                level, (p, q, n), offset = row + 1, top, col
                v0, v1 = (col, row + 1), (col + 1, row + 1)
                row += 1
                ep, eq = ep + g2[0], eq + g2[1]
            elif exit_sign > 0:  # right edge, on u2 = level
                level, (p, q, n), offset = col + 1, rising, row
                v0, v1 = (col + 1, row), (col + 1, row + 1)
                col += 1
                ep, eq = ep - g1[0], eq - g1[1]
            else:
                # Lattice vertex V(col + 1, row + 1): its table corner (x, y),
                # in the units of _CORNERS, is (x/2, y*sqrt3/2); the path stops.
                x, y = _CORNERS[(col + 1 + 2 * (row + 1)) % 3]
                points.append((x, 0, 0, y, 2))
                terminated = True
                break
        points_up = not points_up
        # t = (tp + tq*sqrt3)/n of the way from corner (x0, y0) to corner
        # (x0 + dx, y0 + dy): x = (x0 + dx*t)/2, y = (y0 + dy*t)*sqrt3/2.
        tp, tq = level * p - offset * n, level * q
        x0, y0 = _CORNERS[(v0[0] + 2 * v0[1]) % 3]
        x1, y1 = _CORNERS[(v1[0] + 2 * v1[1]) % 3]
        dx, dy = x1 - x0, y1 - y0
        points.append((x0 * n + dx * tp, dx * tq, 3 * dy * tq, y0 * n + dy * tp, 2 * n))
    return tuple(points), terminated


def triangle_path_segments(slope, n_strikes: int) -> TrianglePath:
    """The ray y = slope*x folded into the base triangle through
    ``n_strikes`` boundary hits, at most 2**14, all coordinates exact in
    Q(sqrt 3)."""
    a, b, d = _cleared(slope)
    _check_count(n_strikes, "strikes", most=_MAX_PATH)
    points, terminated = _fold_triangle(a, b, d, n_strikes)
    return TrianglePath(QuadExt(Fraction(a, d), Fraction(b, d)), n_strikes, points, terminated)
