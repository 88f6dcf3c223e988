"""Deterministic SVG renderings of the obstruction and billiard scenes.

This is the one place floats are allowed: geometry is computed exactly
upstream and converted at emission time with a fixed 6-decimal format, so
identical inputs yield byte-identical SVG.  Triangle cells are drawn from
the walk's integer (X, Y) = (2x, 6y/sqrt3) cell units, each coordinate one
correctly rounded division.  Each figure embeds its exact inputs in a
leading comment.
"""

from __future__ import annotations

import inspect
from fractions import Fraction

from .arith import QuadExt, _check_count, _unit_scale
from .billiards import (
    _CELL_CORNERS,
    SquarePath,
    TrianglePath,
    _cleared,
    _incenter,
    _square_slope,
    square_path_segments,
    triangle_path_segments,
)

__all__ = ["SCENES", "render_svg"]

_STROKE = 0.012
# obstruction2d draws extent**2 squares and triangle_tiling about
# 1.5*extent**2 cells, all held as one string.
_MAX_EXTENT = 100
_SQRT3 = 3 ** 0.5


def _fmt(value) -> str:
    return f"{float(value):.6f}"


class _Canvas:
    """Collects SVG elements in user coordinates with y pointing up."""

    def __init__(self, comment: str):
        self.comment = comment
        self.elements: list[str] = []

    def line(self, a, b, stroke="#1f3b73", width=_STROKE, dash: str | None = None):
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.elements.append(
            f'<line x1="{_fmt(a[0])}" y1="{_fmt(-a[1])}" x2="{_fmt(b[0])}" '
            f'y2="{_fmt(-b[1])}" stroke="{stroke}" stroke-width="{_fmt(width)}"'
            f"{dash_attr} />"
        )

    def polygon(self, points, fill="#c8d4ea", stroke="#40404a", width=_STROKE):
        coords = " ".join(f"{_fmt(x)},{_fmt(-y)}" for x, y in points)
        self.elements.append(
            f'<polygon points="{coords}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}" />'
        )

    def circle(self, center, radius, fill="#9c2b2b"):
        self.elements.append(
            f'<circle cx="{_fmt(center[0])}" cy="{_fmt(-center[1])}" '
            f'r="{_fmt(radius)}" fill="{fill}" />'
        )

    def document(self, x_range, y_range) -> str:
        x0, x1 = float(x_range[0]), float(x_range[1])
        y0, y1 = float(y_range[0]), float(y_range[1])
        pad = 0.05 * max(x1 - x0, y1 - y0, 1.0)
        min_x, width = x0 - pad, (x1 - x0) + 2 * pad
        min_y, height = -(y1 + pad), (y1 - y0) + 2 * pad
        header = (
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="{_fmt(min_x)} {_fmt(min_y)} {_fmt(width)} {_fmt(height)}">'
        )
        body = "\n".join(self.elements)
        return f"<!-- {self.comment} -->\n{header}\n{body}\n</svg>\n"


def _obstruction2d(
    alpha: Fraction = Fraction(1, 3),
    rays: tuple[Fraction, ...] = (Fraction(2), Fraction(1, 2), Fraction(1, 5)),
    extent: int = 6,
) -> str:
    for slope in rays:
        _square_slope(slope)  # refuses a slope that is not positive
    canvas = _Canvas(
        f"scene=obstruction2d alpha={alpha} "
        f"rays=[{', '.join(str(r) for r in rays)}] extent={extent}"
    )
    canvas.line((0, 0), (extent, 0), stroke="#40404a")
    canvas.line((0, 0), (0, extent), stroke="#40404a")
    half = alpha / 2
    for i in range(extent):
        for j in range(extent):
            cx, cy = Fraction(2 * i + 1, 2), Fraction(2 * j + 1, 2)
            canvas.polygon(
                [
                    (cx - half, cy - half),
                    (cx + half, cy - half),
                    (cx + half, cy + half),
                    (cx - half, cy + half),
                ]
            )
    for slope in rays:
        end_x = Fraction(extent) if slope <= 1 else Fraction(extent) / slope
        canvas.line((0, 0), (end_x, slope * end_x), stroke="#9c2b2b")
    return canvas.document((0, extent), (0, extent))


def _square_billiard(slope: Fraction, alpha: Fraction | None = None, segments: int = 12) -> str:
    path: SquarePath = square_path_segments(slope, segments)
    canvas = _Canvas(f"scene=square_billiard slope={slope} alpha={alpha} segments={segments}")
    canvas.polygon([(0, 0), (1, 0), (1, 1), (0, 1)], fill="none")
    if alpha is not None:
        half = alpha / 2
        c = Fraction(1, 2)
        canvas.polygon(
            [
                (c - half, c - half),
                (c + half, c - half),
                (c + half, c + half),
                (c - half, c + half),
            ]
        )
    for a, b in path.segments:
        canvas.line(a, b, stroke="#9c2b2b")
    canvas.circle(path.segments[-1][1], 0.015)
    return canvas.document((0, 1), (0, 1))


def _cell_corners(row: int, col: int, points_up: bool, alpha: Fraction = Fraction(1)):
    """The corners of the tiling cell at (row, col), scaled by ``alpha``
    about its incenter (X, Y), as floats.

    With alpha = p/q, the corner (dX, dY) from the incenter lies at
    x = (qX + p*dX)/(2q) and y = (qY + p*dY)/(6q) * sqrt3.  Python rounds
    an int/int division correctly, so these are the floats that
    ``QuadExt.__float__`` gives for the exact Q(sqrt 3) corners.
    """
    x, y = _incenter(row, col, points_up)
    p, q = alpha.numerator, alpha.denominator
    return [
        ((q * x + p * dx) / (2 * q), (q * y + p * dy) / (6 * q) * _SQRT3)
        for dx, dy in _CELL_CORNERS[points_up]
    ]


def _triangle_billiard(slope: QuadExt, alpha: Fraction | None = None, strikes: int = 10) -> str:
    path: TrianglePath = triangle_path_segments(slope, strikes)
    canvas = _Canvas(f"scene=triangle_billiard slope={slope} alpha={alpha} strikes={strikes}")
    apex = _SQRT3 / 2
    canvas.polygon([(0, 0), (1, 0), (0.5, apex)], fill="none")
    if alpha is not None:
        canvas.polygon(_cell_corners(0, 0, True, alpha))
    for a, b in path.segments:
        canvas.line((float(a[0]), float(a[1])), (float(b[0]), float(b[1])), stroke="#9c2b2b")
    last = path.segments[-1][1]
    canvas.circle((float(last[0]), float(last[1])), 0.012)
    return canvas.document((0, 1), (0, apex))


def _triangle_tiling(
    alpha: Fraction = Fraction(1, 4),
    rays: tuple[QuadExt, ...] = (
        QuadExt(0, Fraction(1, 5)),
        QuadExt(0, Fraction(1, 8)),
        QuadExt(0, Fraction(1, 11)),
    ),
    extent: int = 8,
) -> str:
    for slope in rays:
        _cleared(slope)  # refuses a ray outside the wedge
    canvas = _Canvas(
        f"scene=triangle_tiling alpha={alpha} "
        f"rays=[{', '.join(str(r) for r in rays)}] extent={extent}"
    )
    top = _SQRT3 / 2 * extent
    canvas.line((0, 0), (extent, 0), stroke="#40404a")
    canvas.line((0, 0), (extent / 2, top), stroke="#40404a")
    for row in range(extent):
        for col in range(extent):
            for points_up in (True, False):
                # Drawn when its rightmost corner, at X + 1, is within x <= extent.
                if _incenter(row, col, points_up)[0] + 1 <= 2 * extent:
                    canvas.polygon(_cell_corners(row, col, points_up), fill="none",
                                   stroke="#b0b4c0", width=_STROKE / 2)
                    canvas.polygon(_cell_corners(row, col, points_up, alpha))
    for idx, slope in enumerate(rays):
        dash = "0.08,0.05" if idx == 2 else None  # third reference ray is dashed
        s = float(slope)
        end_x = extent if s <= top / extent else top / s
        canvas.line((0, 0), (end_x, s * end_x), stroke="#9c2b2b", dash=dash)
    return canvas.document((0, extent), (0, top))


# Each scene's drawing function; its signature states the scene's
# parameters and their defaults.
_DRAW = {
    "obstruction2d": _obstruction2d,
    "square_billiard": _square_billiard,
    "triangle_billiard": _triangle_billiard,
    "triangle_tiling": _triangle_tiling,
}
SCENES = tuple(_DRAW)


def render_svg(scene: str, **params) -> str:
    """Render one of the four supported scenes to SVG 1.1 text.  ``params``
    are bound to the scene's drawing signature, so a parameter the scene
    does not take, or a required one left out, is refused.  An obstacle
    scale ``alpha``, where given, lies strictly between 0 and 1, and an
    ``extent`` is an int from 1 to 100 cells; the path engines refuse a bad
    ``segments`` or ``strikes``."""
    draw = _DRAW.get(scene)
    if draw is None:
        raise ValueError(f"unknown scene {scene!r}; expected one of {', '.join(SCENES)}")
    try:
        inspect.signature(draw).bind(**params)
    except TypeError as exc:
        raise ValueError(f"scene {scene}: {exc}") from None
    if params.get("alpha") is not None:
        _unit_scale(params["alpha"])
    if "extent" in params:
        _check_count(params["extent"], "extent", most=_MAX_EXTENT)
    return draw(**params)
