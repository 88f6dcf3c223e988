"""Square and equilateral-triangle billiards via unfolding.

A billiard path from the origin unfolds to a straight ray: reflecting the
table across the struck side straightens the path.  For the unit square the
inverse map is a coordinatewise triangle-wave fold; for the unit equilateral
triangle the unfoldings tile the wedge between the rays at angles 0 and
pi/3, and the walk through that tiling is carried out with exact sign tests
in Q(sqrt 3).

Cell bookkeeping for the triangular tiling: with h = sqrt(3)/2 the tiling's
edges lie on the three line families  y = j*h,  x - y/sqrt3 = i  and
x + y/sqrt3 = s  (integers j, i, s).  The up-triangle in row j, column i has
corners (i + j/2, j h), (i+1 + j/2, j h), (i + (j+1)/2, (j+1) h); the down
triangle of the same index sits immediately to its right.  Along a ray
y = sigma * x with 0 < sigma < sqrt3 all three coordinates increase, so an
up cell always exits through its right edge, and a down cell exits through
its top or right edge -- or through its top-right corner, which is a lattice
vertex (a table corner after folding).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Optional

from .arith import QuadExt, SQRT3, RationalLike
from .viewobstruct import min_scale_for_direction

__all__ = [
    "Point",
    "QPoint",
    "SquarePath",
    "TrianglePath",
    "TriangleCell",
    "TriangleHit",
    "fold_ray_point",
    "square_path_segments",
    "square_min_obstacle",
    "square_obstacle_contact",
    "triangle_cell",
    "triangle_cells_along_ray",
    "triangle_obstruction_check",
    "triangle_path_segments",
    "triangle_min_obstacle",
]

Point = tuple[Fraction, Fraction]
QPoint = tuple[QuadExt, QuadExt]

_HALF = Fraction(1, 2)
_ROW_H = QuadExt(0, _HALF)  # sqrt(3)/2, the tiling row height


# ---------------------------------------------------------------------------
# Square table
# ---------------------------------------------------------------------------


def _fold_coordinate(u: Fraction) -> Fraction:
    if u < 0:
        raise ValueError("point must lie in the closed first quadrant")
    r = u % 2
    return 1 - abs(1 - r)


def fold_ray_point(point: Iterable[RationalLike]) -> Point:
    """Map an unfolded ray point back onto the unit billiard table.

    Coordinatewise triangle-wave fold u -> 1 - |1 - (u mod 2)|; a corner of
    the cell grid folds to a corner of the table, which realizes the
    diagonal-reflection rule for corner hits automatically.
    """
    x, y = (Fraction(u) for u in point)
    return _fold_coordinate(x), _fold_coordinate(y)


@dataclass(frozen=True)
class SquarePath:
    """Billiard path in the unit square: the fold of the ray y = slope*x.

    Consecutive segments share an endpoint on the boundary and obey the
    reflection law; unfolding the segments recovers collinear ray points.
    """

    slope: Fraction
    segments: tuple[tuple[Point, Point], ...]


def square_path_segments(slope: RationalLike, n_segments: int) -> SquarePath:
    """First ``n_segments`` table segments of the slope's billiard path.

    Breakpoints are the ray's crossings of integer grid lines, merged in
    increasing order; a simultaneous crossing is a corner hit and consumes a
    single breakpoint.
    """
    slope = Fraction(slope)
    if slope <= 0:
        raise ValueError("slope must be positive")
    if n_segments < 1:
        raise ValueError("need at least one segment")
    p, q = slope.numerator, slope.denominator
    crossings: list[Fraction] = [Fraction(0)]
    i = j = 1
    while len(crossings) <= n_segments:
        x_vert = Fraction(i)
        x_horiz = Fraction(j * q, p)
        if x_vert <= x_horiz:
            crossings.append(x_vert)
            i += 1
            if x_vert == x_horiz:
                j += 1  # corner: both grid lines crossed at once
        else:
            crossings.append(x_horiz)
            j += 1
    folded = [fold_ray_point((x, slope * x)) for x in crossings]
    segments = tuple((folded[n], folded[n + 1]) for n in range(n_segments))
    return SquarePath(slope, segments)


def square_min_obstacle(slope: RationalLike) -> Fraction:
    """Minimal scale of the centered square every slope-path must meet.

    Unfolding reduces this to view obstruction for the direction (q, p) of
    the reduced slope p/q, so the value is 1 - 2*delta({p, q}) exactly.
    """
    slope = Fraction(slope)
    if slope <= 0:
        raise ValueError("slope must be positive")
    return min_scale_for_direction((slope.denominator, slope.numerator))


def _segment_box_contact(a: Point, b: Point, center: Fraction, half: Fraction) -> str:
    """Classify a segment against the closed axis-aligned box center +/- half:
    'miss', 'boundary' (touches without entering), or 'interior'."""
    t_lo, t_hi = Fraction(0), Fraction(1)
    interior_possible = True
    for axis in (0, 1):
        w_lo, w_hi = center - half, center + half
        start = a[axis]
        d = b[axis] - a[axis]
        if d == 0:
            if start < w_lo or start > w_hi:
                return "miss"
            if start == w_lo or start == w_hi:
                interior_possible = False
        else:
            ta = (w_lo - start) / d
            tb = (w_hi - start) / d
            if ta > tb:
                ta, tb = tb, ta
            t_lo = max(t_lo, ta)
            t_hi = min(t_hi, tb)
    if t_lo > t_hi:
        return "miss"
    if interior_possible and t_lo < t_hi:
        return "interior"
    return "boundary"


def square_obstacle_contact(path: SquarePath, alpha) -> str:
    """How the path meets the centered alpha-square G(alpha): 'miss',
    'boundary' (grazing only), or 'interior'."""
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie strictly between 0 and 1")
    result = "miss"
    for a, b in path.segments:
        contact = _segment_box_contact(a, b, _HALF, alpha / 2)
        if contact == "interior":
            return "interior"
        if contact == "boundary":
            result = "boundary"
    return result


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


def triangle_cell(row: int, col: int, points_up: bool) -> TriangleCell:
    """Construct the cell at (row, col) with the given orientation."""
    if row < 0 or col < 0:
        raise ValueError("wedge cells have row >= 0 and col >= 0")
    j, i = row, col
    y_base = j * _ROW_H
    y_top = (j + 1) * _ROW_H
    offset = Fraction(i) + Fraction(j, 2)
    if points_up:
        vertices = (
            (QuadExt(offset), y_base),
            (QuadExt(offset + 1), y_base),
            (QuadExt(offset + _HALF), y_top),
        )
        incenter = (QuadExt(offset + _HALF), QuadExt(0, Fraction(3 * j + 1, 6)))
    else:
        vertices = (
            (QuadExt(offset + 1), y_base),
            (QuadExt(offset + _HALF), y_top),
            (QuadExt(offset + 1 + _HALF), y_top),
        )
        incenter = (QuadExt(offset + 1), QuadExt(0, Fraction(3 * j + 2, 6)))
    return TriangleCell(row, col, points_up, vertices, incenter)


def _wedge_slope(slope) -> QuadExt:
    s = slope if isinstance(slope, QuadExt) else QuadExt(Fraction(slope))
    if s.sign() <= 0 or (SQRT3 - s).sign() <= 0:
        raise ValueError("slope must lie strictly between 0 and sqrt(3)")
    return s


def _ray_rates(slope: QuadExt) -> tuple[QuadExt, QuadExt, QuadExt]:
    """Per-unit-x rates of the three tiling coordinates along y = slope*x:
    2y/sqrt3, x - y/sqrt3 and x + y/sqrt3.  All positive inside the wedge."""
    g1 = slope * QuadExt(0, Fraction(2, 3))
    g2 = 1 - slope * QuadExt(0, Fraction(1, 3))
    g3 = 1 + slope * QuadExt(0, Fraction(1, 3))
    return g1, g2, g3


# Transitions out of a down cell: the next integer crossing of 2y/sqrt3
# (top edge) is compared against that of x - y/sqrt3 (right edge); a tie is
# a lattice vertex.
_TOP, _RIGHT, _VERTEX = 0, 1, 2


def _down_cell_exit(row: int, col: int, g1: QuadExt, g2: QuadExt) -> int:
    cmp = ((row + 1) * g2 - (col + 1) * g1).sign()
    if cmp < 0:
        return _TOP
    if cmp > 0:
        return _RIGHT
    return _VERTEX


def _walk_cells(slope: QuadExt) -> Iterator[TriangleCell]:
    g1, g2, _ = _ray_rates(slope)
    row = col = 0
    points_up = True
    while True:
        yield triangle_cell(row, col, points_up)
        if points_up:
            points_up = False  # up cells always exit through their right edge
        else:
            exit_kind = _down_cell_exit(row, col, g1, g2)
            if exit_kind == _TOP:
                row += 1
            elif exit_kind == _RIGHT:
                col += 1
            else:
                row += 1
                col += 1
            points_up = True


def triangle_cells_along_ray(slope, horizon: int) -> list[TriangleCell]:
    """The first ``horizon`` tiling cells crossed by the ray y = slope*x.

    The walk starts in the base triangle and advances by exact crossing
    comparisons; a simultaneous crossing (lattice vertex) jumps diagonally
    to the next up cell.
    """
    s = _wedge_slope(slope)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    return list(islice(_walk_cells(s), horizon))


class TriangleHit(NamedTuple):
    """First obstacle contact along the walk; ``grazing`` means the ray
    touches the scaled triangle without crossing its interior."""

    index: int
    cell: TriangleCell
    grazing: bool


def _scaled_side_signs(slope: QuadExt, cell: TriangleCell, alpha: Fraction) -> list[int]:
    # Sign of slope*x - y at each vertex of the alpha-scaling of the cell
    # about its incenter; the scaled vertex is (1-alpha)*incenter + alpha*v.
    cx, cy = cell.incenter
    g_center = slope * cx - cy
    signs = []
    for vx, vy in cell.vertices:
        g_vertex = slope * vx - vy
        signs.append(((1 - alpha) * g_center + alpha * g_vertex).sign())
    return signs


def _contact_from_signs(signs: list[int]) -> Optional[bool]:
    """None for a miss; otherwise the grazing flag.  Obstacles are closed,
    so a zero sign (ray through a scaled vertex) counts as contact."""
    if all(s > 0 for s in signs) or all(s < 0 for s in signs):
        return None
    if 0 in signs and (all(s >= 0 for s in signs) or all(s <= 0 for s in signs)):
        return True
    return False


def triangle_obstruction_check(slope, alpha, horizon: int) -> Optional[TriangleHit]:
    """First cell whose alpha-scaled obstacle the ray meets, or None.

    A None is horizon-qualified: the ray avoided the first ``horizon``
    obstacles, which proves nothing beyond that range.
    """
    s = _wedge_slope(slope)
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    for index, cell in enumerate(islice(_walk_cells(s), horizon)):
        grazing = _contact_from_signs(_scaled_side_signs(s, cell, alpha))
        if grazing is not None:
            return TriangleHit(index, cell, grazing)
    return None


def triangle_min_obstacle(
    slope,
    horizon: int = 10_000,
    tolerance: RationalLike = Fraction(1, 1024),
) -> tuple[Fraction, Fraction]:
    """Bisection bracket [lo, hi] for the minimal obstructing scale.

    ``hi`` is always a verified hit; ``lo`` is a horizon-qualified miss (or
    0).  The bracket narrows to the requested width; scale 1 always hits
    since the full cell contains the ray segment crossing it.
    """
    s = _wedge_slope(slope)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    tolerance = Fraction(tolerance)
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    cells = list(islice(_walk_cells(s), horizon))
    # Precompute the side-line values; each alpha probe is then three sign
    # evaluations of (1-alpha)*g_center + alpha*g_vertex per cell.
    prepared = []
    for cell in cells:
        cx, cy = cell.incenter
        g_center = s * cx - cy
        g_vertices = tuple(s * vx - vy for vx, vy in cell.vertices)
        prepared.append((g_center, g_vertices))

    def hits(alpha: Fraction) -> bool:
        for g_center, g_vertices in prepared:
            signs = [((1 - alpha) * g_center + alpha * g_v).sign() for g_v in g_vertices]
            if _contact_from_signs(signs) is not None:
                return True
        return False

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
class _Isometry:
    """Affine isometry of the plane with entries in Q(sqrt 3)."""

    m00: QuadExt
    m01: QuadExt
    m10: QuadExt
    m11: QuadExt
    tx: QuadExt
    ty: QuadExt

    def apply(self, p: QPoint) -> QPoint:
        x, y = p
        return (
            self.m00 * x + self.m01 * y + self.tx,
            self.m10 * x + self.m11 * y + self.ty,
        )

    def compose(self, other: "_Isometry") -> "_Isometry":
        """self after other (matrix product self . other)."""
        return _Isometry(
            self.m00 * other.m00 + self.m01 * other.m10,
            self.m00 * other.m01 + self.m01 * other.m11,
            self.m10 * other.m00 + self.m11 * other.m10,
            self.m10 * other.m01 + self.m11 * other.m11,
            self.m00 * other.tx + self.m01 * other.ty + self.tx,
            self.m10 * other.tx + self.m11 * other.ty + self.ty,
        )


_IDENTITY = _Isometry(QuadExt(1), QuadExt(0), QuadExt(0), QuadExt(1), QuadExt(0), QuadExt(0))

_Q_HALF = QuadExt(_HALF)
_Q_SQRT3_HALF = QuadExt(0, _HALF)


def _reflect_horizontal(level: int) -> _Isometry:
    """Reflection across y = level * sqrt(3)/2."""
    return _Isometry(
        QuadExt(1), QuadExt(0), QuadExt(0), QuadExt(-1), QuadExt(0), 2 * level * _ROW_H
    )


def _reflect_rising(level: int) -> _Isometry:
    """Reflection across x - y/sqrt3 = level (the slope +sqrt3 family)."""
    return _Isometry(
        -_Q_HALF,
        _Q_SQRT3_HALF,
        _Q_SQRT3_HALF,
        _Q_HALF,
        QuadExt(Fraction(3 * level, 2)),
        QuadExt(0, Fraction(-level, 2)),
    )


def _reflect_falling(level: int) -> _Isometry:
    """Reflection across x + y/sqrt3 = level (the slope -sqrt3 family)."""
    return _Isometry(
        -_Q_HALF,
        -_Q_SQRT3_HALF,
        -_Q_SQRT3_HALF,
        _Q_HALF,
        QuadExt(Fraction(3 * level, 2)),
        QuadExt(0, Fraction(level, 2)),
    )


@dataclass(frozen=True)
class TrianglePath:
    """Billiard path in the unit equilateral triangle (corners (0,0), (1,0),
    (1/2, sqrt3/2)); one segment per boundary strike.

    A strike at a table corner ends the path (``terminated_at_corner``); the
    reflection there is not defined by the table geometry.
    """

    slope: QuadExt
    segments: tuple[tuple[QPoint, QPoint], ...]
    terminated_at_corner: bool


def triangle_path_segments(slope, n_strikes: int) -> TrianglePath:
    """Fold the ray y = slope*x into the base triangle through ``n_strikes``
    boundary hits, all coordinates exact in Q(sqrt 3).

    Maintains the fold isometry of the current cell: each crossing of a
    tiling line composes the corresponding reflection, and crossing points
    map to strike points on the table boundary.
    """
    s = _wedge_slope(slope)
    if n_strikes < 1:
        raise ValueError("need at least one strike")
    g1, g2, g3 = _ray_rates(s)
    fold = _IDENTITY
    previous: QPoint = (QuadExt(0), QuadExt(0))
    segments: list[tuple[QPoint, QPoint]] = []
    row = col = 0
    points_up = True
    terminated = False
    while len(segments) < n_strikes:
        if points_up:
            level = row + col + 1
            x = QuadExt(level) / g3
            reflection = _reflect_falling(level)
            nxt = (row, col, False)
        else:
            exit_kind = _down_cell_exit(row, col, g1, g2)
            if exit_kind == _TOP:
                level = row + 1
                x = QuadExt(level) / g1
                reflection = _reflect_horizontal(level)
                nxt = (row + 1, col, True)
            elif exit_kind == _RIGHT:
                level = col + 1
                x = QuadExt(level) / g2
                reflection = _reflect_rising(level)
                nxt = (row, col + 1, True)
            else:
                # Lattice vertex: folds to a table corner; the path stops.
                x = QuadExt(row + 1) / g1
                point = fold.apply((x, s * x))
                segments.append((previous, point))
                terminated = True
                break
        crossing = (x, s * x)
        current = fold.apply(crossing)
        segments.append((previous, current))
        previous = current
        fold = fold.compose(reflection)
        row, col, points_up = nxt
    return TrianglePath(s, tuple(segments), terminated)
