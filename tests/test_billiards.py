"""Tests for square and triangular billiards.

The square path generator is checked against a naive step-by-step
reflection simulator; the triangle cell walk is checked against a floating
ray march.  Both oracles are independent of the unfolding implementation.
The integer walk and folds are also checked, value for value, against
copies of the Q(sqrt 3) and Fraction code they replaced, and the step loop
against the per-cell walk and fold it replaced (tests/walkref.py).
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import pytest

from lonelyrunner import billiards, certificates
from lonelyrunner.billiards import (
    square_min_obstacle,
    square_obstacle_contact,
    square_path_segments,
    triangle_cell,
    triangle_min_obstacle,
    triangle_obstruction_check,
    triangle_path_segments,
)
from tests import walkref
from tests.quadfield import SQRT3, QuadExt, lift

F = Fraction


def simulate_square(slope: Fraction, n_segments: int):
    """Independent oracle: explicit position/direction bouncing in [0,1]^2.

    A simultaneous x/y wall hit is a corner and flips both components,
    which is the diagonal-reflection rule.
    """
    pos = (F(0), F(0))
    dx, dy = F(1), F(slope)
    segments = []
    for _ in range(n_segments):
        tx = (1 - pos[0]) / dx if dx > 0 else pos[0] / -dx
        ty = (1 - pos[1]) / dy if dy > 0 else pos[1] / -dy
        t = min(tx, ty)
        new = (pos[0] + dx * t, pos[1] + dy * t)
        segments.append((pos, new))
        if tx == t:
            dx = -dx
        if ty == t:
            dy = -dy
        pos = new
    return segments


def reference_fold(point):
    """Independent reference for the square path's strike points: the
    coordinatewise triangle-wave fold u -> 1 - |1 - (u mod 2)| of an
    unfolded ray point onto the unit table."""
    return tuple(1 - abs(1 - F(u) % 2) for u in point)


class TestFold:
    def test_examples(self):
        assert reference_fold((F(3, 2), F(3, 4))) == (F(1, 2), F(3, 4))
        assert reference_fold((2, 1)) == (0, 1)
        assert reference_fold((4, 2)) == (0, 0)

    def test_round_trip_random(self):
        rng = random.Random(800)
        for _ in range(1000):
            u = F(rng.randint(0, 400), rng.randint(1, 40))
            v = F(rng.randint(0, 400), rng.randint(1, 40))
            x, y = reference_fold((u, v))
            assert 0 <= x <= 1 and 0 <= y <= 1
            # Folding is idempotent and 2-periodic in each coordinate.
            assert reference_fold((x, y)) == (x, y)
            assert reference_fold((u + 2, v)) == (x, y)
            assert reference_fold((2 - u if u <= 2 else u, v))[1] == y


class TestSquarePath:
    def test_figure_path_slope_half(self):
        path = square_path_segments(F(1, 2), 4)
        assert path.segments == (
            ((F(0), F(0)), (F(1), F(1, 2))),
            ((F(1), F(1, 2)), (F(0), F(1))),
            ((F(0), F(1)), (F(1), F(1, 2))),
            ((F(1), F(1, 2)), (F(0), F(0))),
        )

    def test_diagonal_single_segment(self):
        path = square_path_segments(1, 1)
        assert path.segments == (((F(0), F(0)), (F(1), F(1))),)

    def test_matches_reflection_simulator(self):
        rng = random.Random(801)
        for _ in range(60):
            slope = F(rng.randint(1, 12), rng.randint(1, 12))
            n = rng.randint(1, 12)
            path = square_path_segments(slope, n)
            assert path.segments == tuple(simulate_square(slope, n))

    def test_example_slope_two_thirds(self):
        path = square_path_segments(F(2, 3), 5)
        assert path.segments == tuple(simulate_square(F(2, 3), 5))

    def test_unfold_points_on_ray(self):
        rng = random.Random(802)
        for _ in range(50):
            slope = F(rng.randint(1, 9), rng.randint(1, 9))
            n = rng.randint(2, 10)
            path = square_path_segments(slope, n)
            # Walk the ray's grid crossings again: each folded breakpoint
            # must equal the fold of the corresponding ray point.
            xs = [F(0)]
            i = j = 1
            while len(xs) <= n:
                xv, xh = F(i), F(j * slope.denominator, slope.numerator)
                if xv <= xh:
                    xs.append(xv)
                    i += 1
                    if xv == xh:
                        j += 1
                else:
                    xs.append(xh)
                    j += 1
            for seg, x0, x1 in zip(path.segments, xs, xs[1:]):
                assert seg[0] == reference_fold((x0, slope * x0))
                assert seg[1] == reference_fold((x1, slope * x1))

    def test_reflection_law(self):
        rng = random.Random(803)
        checked = 0
        for _ in range(200):
            slope = F(rng.randint(1, 15), rng.randint(1, 15))
            path = square_path_segments(slope, rng.randint(2, 8))
            for (a, b), (b2, c) in zip(path.segments, path.segments[1:]):
                assert b == b2  # consecutive segments share the strike point
                d1 = (b[0] - a[0], b[1] - a[1])
                d2 = (c[0] - b[0], c[1] - b[1])
                flip_x = b[0] in (0, 1)
                flip_y = b[1] in (0, 1)
                assert flip_x or flip_y  # strikes land on the boundary
                expect = (-d1[0] if flip_x else d1[0], -d1[1] if flip_y else d1[1])
                # Equal direction up to positive scale.
                assert expect[0] * d2[1] == expect[1] * d2[0]
                assert expect[0] * d2[0] >= 0 and expect[1] * d2[1] >= 0
                checked += 1
        assert checked > 400

    def test_validation(self):
        with pytest.raises(ValueError):
            square_path_segments(F(-1, 2), 3)
        with pytest.raises(ValueError):
            square_path_segments(F(1, 2), 0)


class TestSquareObstacle:
    def test_examples(self):
        assert square_min_obstacle(F(1, 2)) == F(1, 3)
        assert square_min_obstacle(1) == 0
        assert square_min_obstacle(F(1, 5)) == 0  # both direction parts odd

    def test_grazing_at_the_constant(self):
        path = square_path_segments(F(1, 2), 8)
        assert square_obstacle_contact(path, F(1, 3)) == "boundary"
        assert square_obstacle_contact(path, F(1, 3) + F(1, 60)) == "interior"
        assert square_obstacle_contact(path, F(1, 3) - F(1, 60)) == "miss"

    def test_duality_against_gap(self):
        # View-obstruction duality: the minimal scale is 1 - 2*delta({p, q}).
        from lonelyrunner.gap import exact_gap

        for p in range(1, 41):
            for q in range(1, 41):
                slope = F(p, q)
                delta = exact_gap({slope.numerator, slope.denominator}).delta
                assert square_min_obstacle(slope) == 1 - 2 * delta, slope

    def test_contact_agrees_with_min_obstacle(self):
        # Long paths: above the minimal scale the obstacle is met, below it
        # is not (checked over enough segments to reach the witness).
        rng = random.Random(805)
        for _ in range(25):
            slope = F(rng.randint(1, 8), rng.randint(1, 8))
            scale = square_min_obstacle(slope)
            segments = 4 * (slope.numerator + slope.denominator)
            path = square_path_segments(slope, segments)
            if 0 < scale:
                below = scale - F(1, 500)
                if below > 0:
                    assert square_obstacle_contact(path, below) == "miss"
            above = scale + F(1, 500)
            if above < 1:
                assert square_obstacle_contact(path, above) != "miss"


class TestSquareContactPeriod:
    def test_one_period_matches_the_full_walk(self):
        # The contact walks at most p + q - 1 cells, one period of the cell
        # values; the full walk over every cell of the path must agree, for
        # lengths from 1 to four periods.  The scales tried are the least
        # value's threshold and its two neighbours, which separate the
        # three contacts.
        rng = random.Random(840)
        slopes = {F(1, 1), F(1, 2), F(2, 1)}
        while len(slopes) < 40:
            slopes.add(F(rng.randint(1, 60), rng.randint(1, 60)))
        for slope in sorted(slopes):
            p, q = slope.numerator, slope.denominator
            period = p + q - 1
            crossings = islice(billiards._crossings(p, q), 4 * period)
            values = [abs(p * (2 * (x // p) + 1) - q * (2 * (x // q) + 1)) for x in crossings]
            lengths = {1, 2, period - 1, period, period + 1, 2 * period, 4 * period}
            lengths |= {rng.randint(1, 4 * period) for _ in range(6)}
            for n in sorted(lengths - {0}):
                path = square_path_segments(slope, n)
                least = min(values[:n])
                for k in (least - 1, least, least + 1):
                    alpha = F(k, p + q)
                    if not 0 < alpha < 1:
                        continue
                    full = "interior" if k > least else "boundary" if k == least else "miss"
                    assert square_obstacle_contact(path, alpha) == full, (slope, n, alpha)

    def test_cost_is_one_period(self, monkeypatch):
        # A path at the cap costs one period of crossings, not 2**14.
        counted = []
        crossings = billiards._crossings

        def counting(p, q):
            for x in crossings(p, q):
                counted.append(x)
                yield x

        path = square_path_segments(F(6, 17), 2**14)
        monkeypatch.setattr(billiards, "_crossings", counting)
        square_obstacle_contact(path, F(1, 3))
        assert len(counted) == 6 + 17 - 1


class TestSquareObstacleInvariance:
    def test_reflection_maps_centered_square_to_centered_square(self):
        # Reflecting the table across a side carries the centered obstacle
        # onto the reflected table's centered obstacle, exactly.
        rng = random.Random(806)
        for _ in range(1000):
            alpha = F(rng.randint(1, 99), 100)
            half = alpha / 2
            corners = [
                (F(1, 2) + sx * half, F(1, 2) + sy * half)
                for sx in (-1, 1)
                for sy in (-1, 1)
            ]
            side = rng.choice(["x0", "x1", "y0", "y1"])
            if side == "x0":
                reflected = {(-x, y) for x, y in corners}
                expected_center = (F(-1, 2), F(1, 2))
            elif side == "x1":
                reflected = {(2 - x, y) for x, y in corners}
                expected_center = (F(3, 2), F(1, 2))
            elif side == "y0":
                reflected = {(x, -y) for x, y in corners}
                expected_center = (F(1, 2), F(-1, 2))
            else:
                reflected = {(x, 2 - y) for x, y in corners}
                expected_center = (F(1, 2), F(3, 2))
            cx, cy = expected_center
            expected = {
                (cx + sx * half, cy + sy * half) for sx in (-1, 1) for sy in (-1, 1)
            }
            assert reflected == expected


def qpoint_float(p):
    return float(p[0]), float(p[1])


def float_cell_walk(slope_value: float, horizon: int):
    """Independent oracle: march the ray with floats and classify the cell
    of each sample by the three tiling coordinates.  Samples that land too
    close to a boundary are skipped, so the result is a subsequence of the
    true cell sequence."""
    cells = []
    x = 1e-4
    step = 2.5e-3
    sqrt3 = math.sqrt(3.0)
    while len(cells) < horizon * 8:
        y = slope_value * x
        f1 = 2 * y / sqrt3
        f2 = x - y / sqrt3
        f3 = x + y / sqrt3
        if min(abs(f - round(f)) for f in (f1, f2, f3)) > 1e-6:
            j, i, s = int(f1), int(f2), int(f3)
            cell = (j, i, s == i + j)
            if not cells or cells[-1] != cell:
                cells.append(cell)
        x += step
        if x > horizon:
            break
    return cells


def cells_along_ray(slope: QuadExt, horizon: int):
    """The first ``horizon`` cells of the reference walk, as TriangleCells.
    The engine's step loop is held to that walk by TestStepLoopDifferential."""
    walk = islice(walkref.walk(*billiards._cleared(slope)), horizon)
    return [triangle_cell(row, col, points_up) for row, col, points_up, _, _ in walk]


class TestTriangleWalk:
    def test_starts_at_base_cell(self):
        cells = cells_along_ray(QuadExt(0, F(1, 5)), 4)
        first = cells[0]
        assert (first.row, first.col, first.points_up) == (0, 0, True)
        assert first.vertices[0] == (QuadExt(0), QuadExt(0))

    def test_bisector_walk(self):
        cells = cells_along_ray(QuadExt(0, F(1, 3)), 6)
        labels = [(c.row, c.col, c.points_up) for c in cells]
        assert labels == [
            (0, 0, True),
            (0, 0, False),
            (1, 1, True),
            (1, 1, False),
            (2, 2, True),
            (2, 2, False),
        ]

    def test_extremal_ray_walk_alternates(self):
        cells = cells_along_ray(QuadExt(0, F(1, 5)), 20)
        assert [c.points_up for c in cells] == [True, False] * 10

    def test_walk_matches_float_march(self):
        rng = random.Random(807)
        for _ in range(25):
            if rng.random() < 0.5:
                slope = QuadExt(0, F(rng.randint(1, 9), 10))  # sqrt3 * b
            else:
                slope = QuadExt(F(rng.randint(1, 16), 10))  # rational < 1.7
            cells = cells_along_ray(slope, 40)
            walked = [(c.row, c.col, c.points_up) for c in cells]
            sampled = float_cell_walk(float(slope), 30)
            # Every sampled cell appears in the walk, in order.
            it = iter(walked)
            for cell in sampled[: len(walked) // 2]:
                for candidate in it:
                    if candidate == cell:
                        break
                else:
                    pytest.fail(f"sampled cell {cell} missing from walk {walked[:12]}")

    def test_walk_transitions_are_legal(self):
        # Up cells hand off to the down cell of the same index; down cells
        # move up a row, right a column, or both (vertex pass).
        rng = random.Random(813)
        for _ in range(20):
            slope = (
                QuadExt(0, F(rng.randint(1, 9), 10))
                if rng.random() < 0.5
                else QuadExt(F(rng.randint(1, 17), 10))
            )
            cells = cells_along_ray(slope, 200)
            for a, b in zip(cells, cells[1:]):
                if a.points_up:
                    assert (b.row, b.col, b.points_up) == (a.row, a.col, False)
                else:
                    assert b.points_up
                    step = (b.row - a.row, b.col - a.col)
                    assert step in ((1, 0), (0, 1), (1, 1))

    def test_incenter_is_centroid(self):
        rng = random.Random(808)
        for _ in range(200):
            cell = lift(triangle_cell(rng.randint(0, 8), rng.randint(0, 8), rng.random() < 0.5))
            sx = sum((v[0] for v in cell.vertices), QuadExt(0))
            sy = sum((v[1] for v in cell.vertices), QuadExt(0))
            assert sx == 3 * cell.incenter[0]
            assert sy == 3 * cell.incenter[1]

    def test_slope_validation(self):
        def check(slope, horizon):
            return triangle_obstruction_check(slope, F(1, 4), horizon)

        for engine in (check, triangle_min_obstacle):
            with pytest.raises(ValueError):
                engine(QuadExt(0), 5)
            with pytest.raises(ValueError):
                engine(SQRT3, 5)
            with pytest.raises(ValueError):
                engine(QuadExt(2), 5)  # 2 > sqrt3
            with pytest.raises(ValueError):
                engine(QuadExt(1), 0)


class TestTriangleObstruction:
    def test_extremal_ray_grazes_at_quarter(self):
        hit = triangle_obstruction_check(QuadExt(0, F(1, 5)), F(1, 4), 50)
        assert hit is not None
        assert hit.grazing
        assert hit.index == 0  # tangent already in the base cell

    def test_extremal_ray_misses_below_quarter(self):
        assert triangle_obstruction_check(QuadExt(0, F(1, 5)), F(1, 5), 200) is None
        assert (
            triangle_obstruction_check(QuadExt(0, F(1, 5)), F(1, 4) - F(1, 100), 200)
            is None
        )

    def test_extremal_ray_crosses_above_quarter(self):
        hit = triangle_obstruction_check(QuadExt(0, F(1, 5)), F(1, 4) + F(1, 100), 50)
        assert hit is not None and not hit.grazing

    def test_bisector_hits_immediately(self):
        hit = triangle_obstruction_check(QuadExt(0, F(1, 3)), F(1, 100), 5)
        assert hit is not None and hit.index == 0

    def test_sweep_hits_above_quarter(self):
        # Smaller version of the acceptance sweep.
        for n in range(1, 51):
            slope = QuadExt(0, F(n, 51))
            hit = triangle_obstruction_check(slope, F(1, 4) + F(1, 100), 2000)
            assert hit is not None, f"slope sqrt3*{n}/51 escaped"

    def test_validation(self):
        with pytest.raises(ValueError):
            triangle_obstruction_check(QuadExt(0, F(1, 5)), F(0), 10)
        with pytest.raises(ValueError):
            triangle_obstruction_check(QuadExt(0, F(1, 5)), F(1, 4), 0)


class TestTriangleMinObstacle:
    def test_extremal_bracket_contains_quarter(self):
        lo, hi = triangle_min_obstacle(QuadExt(0, F(1, 5)), horizon=300)
        assert lo < F(1, 4) <= hi
        assert hi - lo <= F(1, 1024)

    def test_bisector_is_zero(self):
        assert triangle_min_obstacle(QuadExt(0, F(1, 3)), horizon=10) == (0, 0)

    def test_slope_one_below_quarter(self):
        lo, hi = triangle_min_obstacle(QuadExt(1), horizon=600)
        assert hi <= F(1, 4)

    def test_tolerance_respected(self):
        lo, hi = triangle_min_obstacle(QuadExt(0, F(1, 5)), horizon=200, tolerance=F(1, 64))
        assert hi - lo <= F(1, 64)

    def test_tolerance_floor(self):
        # One bisection probe per bit: the engine itself refuses a width
        # below 2**-64, and accepts 2**-64.
        slope = QuadExt(F(16, 11))
        with pytest.raises(ValueError) as info:
            triangle_min_obstacle(slope, 10, tolerance=F(1, 2**65))
        assert str(info.value) == f"tolerance {F(1, 2**65)} below the limit of 2**-64"
        lo, hi = triangle_min_obstacle(slope, 10, tolerance=F(1, 2**64))
        assert 0 < hi - lo <= F(1, 2**64)

    def test_horizon_validation(self):
        # hi must be a verified hit, and an empty walk verifies nothing.
        with pytest.raises(ValueError):
            triangle_min_obstacle(QuadExt(0, F(1, 5)), horizon=0)


    def test_default_cli_horizon_bracket(self):
        # lrc triangle --slope sqrt3*1/5 --min-obstacle at the default horizon.
        assert triangle_min_obstacle(QuadExt(0, F(1, 5)), 10_000) == (F(255, 1024), F(1, 4))


SLOPE_MESSAGE = "slope must lie strictly between 0 and sqrt(3)"
OUTSIDE_WEDGE = [
    QuadExt(0),
    SQRT3,
    QuadExt(F(-1, 2)),
    QuadExt(2),
    QuadExt(F(1, 10**12), 1),  # just above sqrt3
]


class TestWedgeSlope:
    @pytest.mark.parametrize("slope", OUTSIDE_WEDGE, ids=str)
    def test_outside_rejected_first_by_every_engine(self, slope):
        # The slope is reported ahead of a bad alpha, horizon, tolerance or
        # strike count.
        engines = [
            lambda: triangle_obstruction_check(slope, F(1, 4), 5),
            lambda: triangle_obstruction_check(slope, F(0), 5),
            lambda: triangle_obstruction_check(slope, F(3, 2), 5),
            lambda: triangle_obstruction_check(slope, F(1, 4), 0),
            lambda: triangle_obstruction_check(slope, F(0), 0),
            lambda: triangle_min_obstacle(slope, 5),
            lambda: triangle_min_obstacle(slope, 0),
            lambda: triangle_min_obstacle(slope, 5, F(0)),
            lambda: triangle_path_segments(slope, 3),
            lambda: triangle_path_segments(slope, 0),
        ]
        for engine in engines:
            with pytest.raises(ValueError) as info:
                engine()
            assert str(info.value) == SLOPE_MESSAGE

    def test_just_below_sqrt3_accepted(self):
        # The ray hugs the wedge's upper edge, far from the first incenters.
        slope = QuadExt(F(-1, 10**12), 1)
        assert triangle_obstruction_check(slope, F(1, 4), 5) is None
        assert triangle_min_obstacle(slope, 5, F(1, 16)) == (F(15, 16), F(1))
        path = triangle_path_segments(slope, 3)
        assert path.slope == slope and len(path.segments) == 3

    def test_rationals_coerced(self):
        assert triangle_path_segments(F(1, 2), 1).slope == QuadExt(F(1, 2))
        assert triangle_path_segments(1, 1).slope == QuadExt(1)
        for slope in (0, F(7, 4), -1):
            with pytest.raises(ValueError, match=r"sqrt\(3\)"):
                triangle_path_segments(slope, 1)


class TestCountValidation:
    @pytest.mark.parametrize("count", [True, False, 2.0, "3", None])
    def test_non_int_counts_rejected(self, count):
        slope = QuadExt(0, F(1, 5))
        with pytest.raises(ValueError):
            triangle_obstruction_check(slope, F(1, 4), count)
        with pytest.raises(ValueError):
            triangle_min_obstacle(slope, count)
        with pytest.raises(ValueError):
            triangle_path_segments(slope, count)
        with pytest.raises(ValueError):
            square_path_segments(F(1, 2), count)


# ---------------------------------------------------------------------------
# Differential test: the integer walk against the Q(sqrt 3) formulas it
# replaced, copied here as the reference.
# ---------------------------------------------------------------------------


def ref_walk(slope: QuadExt, horizon: int):
    # Crossing rates of 2y/sqrt3 (g1) and x - y/sqrt3 (g2) per unit x; a
    # down cell exits through the top edge when (row+1)*g2 - (col+1)*g1 < 0,
    # the right edge when > 0, and the top-right vertex when = 0.
    g1 = slope * QuadExt(0, F(2, 3))
    g2 = 1 - slope * QuadExt(0, F(1, 3))
    cells = []
    row = col = 0
    points_up = True
    while len(cells) < horizon:
        cells.append(triangle_cell(row, col, points_up))
        if not points_up:
            cmp = ((row + 1) * g2 - (col + 1) * g1).sign()
            if cmp <= 0:
                row += 1
            if cmp >= 0:
                col += 1
        points_up = not points_up
    return cells


def ref_prepare(slope: QuadExt, cells):
    # Side values slope*x - y at each incenter and corner.
    prepared = []
    for cell in cells:
        cx, cy = cell.incenter
        g_vertices = tuple(slope * vx - vy for vx, vy in cell.vertices)
        prepared.append((cell, slope * cx - cy, g_vertices))
    return prepared


def ref_contact(g_center, g_vertices, alpha):
    # The scaled corner is (1-alpha)*incenter + alpha*corner; obstacles are
    # closed, so a zero sign counts as contact.
    signs = [((1 - alpha) * g_center + alpha * g_v).sign() for g_v in g_vertices]
    if all(s > 0 for s in signs) or all(s < 0 for s in signs):
        return None
    return 0 in signs and (all(s >= 0 for s in signs) or all(s <= 0 for s in signs))


def ref_first_contact(prepared, alpha):
    for index, (cell, g_center, g_vertices) in enumerate(prepared):
        grazing = ref_contact(g_center, g_vertices, alpha)
        if grazing is not None:
            return index, cell, grazing
    return None


def ref_min_obstacle(prepared, tolerance):
    def hits(alpha):
        return ref_first_contact(prepared, alpha) is not None

    if hits(F(0)):
        return F(0), F(0)
    lo, hi = F(0), F(1)
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if hits(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


DIFF_SLOPES = [
    # sqrt3 * p/q; sqrt3/3 and sqrt3/5 pass through lattice vertices
    *(QuadExt(0, F(p, q)) for p, q in [(1, 3), (1, 5), (2, 7), (1, 8), (5, 9), (7, 11), (1, 17), (99, 100)]),
    # rational p/q
    *(QuadExt(F(p, q)) for p, q in [(1, 1), (1, 2), (3, 2), (2, 7), (5, 3), (1, 50)]),
    # mixed a + b*sqrt3
    QuadExt(F(1, 2), F(1, 4)),
    QuadExt(1, F(-1, 5)),
    QuadExt(F(-1, 3), F(2, 3)),
    QuadExt(2, F(-1, 2)),
    QuadExt(F(3, 7), F(3, 11)),
    QuadExt(F(1, 97), F(50, 101)),
    # near the edges of the wedge 0 < sigma < sqrt3, where _first_contact's
    # highest and lowest corners are closest to a tie with the third
    QuadExt(F(1, 10**6)),
    QuadExt(F(-1, 10**6), 1),
    QuadExt(0, F(999, 1000)),
]
DIFF_ALPHAS = [
    F(1, 4),
    F(1, 4) - F(1, 10**9),
    F(1, 4) + F(1, 10**9),
    F(1, 3),
    F(99, 100),
    F(1, 1000),
    F(999, 1000),
]
DIFF_HORIZON = 300


class TestIntegerWalkDifferential:
    @pytest.mark.parametrize("slope", DIFF_SLOPES, ids=str)
    def test_matches_quadext_reference(self, slope):
        cells = ref_walk(slope, DIFF_HORIZON)
        assert cells_along_ray(slope, DIFF_HORIZON) == cells
        prepared = ref_prepare(slope, cells)
        for alpha in DIFF_ALPHAS:
            ref = ref_first_contact(prepared, alpha)
            # The answer at horizon H is the horizon-300 answer cut at H, so
            # these horizons cover every H in 1..300.
            horizons = {1, 2, DIFF_HORIZON}
            if ref is not None:
                horizons |= {ref[0], ref[0] + 1}
            for horizon in sorted(h for h in horizons if 1 <= h <= DIFF_HORIZON):
                hit = triangle_obstruction_check(slope, alpha, horizon)
                got = None
                if hit is not None:
                    got = (hit.index, (hit.row, hit.col, hit.points_up), hit.grazing)
                want = None
                if ref is not None and ref[0] < horizon:
                    index, cell, grazing = ref
                    want = (index, (cell.row, cell.col, cell.points_up), grazing)
                assert got == want, (alpha, horizon)
        for horizon in (1, 17, 100):
            for tolerance in (F(1, 64), F(1, 1024)):
                assert triangle_min_obstacle(slope, horizon, tolerance) == ref_min_obstacle(
                    prepared[:horizon], tolerance
                ), (horizon, tolerance)

    @pytest.mark.parametrize("slope", DIFF_SLOPES, ids=str)
    def test_hit_cell_geometry_is_reachable(self, slope):
        # A hit names its cell by integers; triangle_cell rebuilds the same
        # geometry as the reference walk, and the ray meets that cell's
        # obstacle by the reference's Q(sqrt 3) contact test.
        prepared = ref_prepare(slope, ref_walk(slope, DIFF_HORIZON))
        for alpha in DIFF_ALPHAS:
            hit = triangle_obstruction_check(slope, alpha, DIFF_HORIZON)
            if hit is None:
                continue
            cell, g_center, g_vertices = prepared[hit.index]
            assert triangle_cell(hit.row, hit.col, hit.points_up) == cell
            assert ref_contact(g_center, g_vertices, alpha) == hit.grazing

    def test_hits_build_no_cell(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("triangle_cell called")

        monkeypatch.setattr(billiards, "triangle_cell", refuse)
        slope = QuadExt(0, F(1, 5))
        hit = billiards.triangle_obstruction_check(slope, F(1, 4), 50)
        assert hit == (0, 0, 0, True, True)
        assert billiards.triangle_obstruction_check(slope, F(1, 5), 200) is None


# ---------------------------------------------------------------------------
# Lattice slopes: _first_contact walks at most one period, checked against
# the reference walk's contact loop with no cap.
# ---------------------------------------------------------------------------


def uncapped_first_contact(a, b, d, alpha, horizon):
    p, q = alpha.numerator, alpha.denominator
    offsets = {
        up: [(3 * a * p * dx, p * (3 * b * dx - d * dy)) for dx, dy in corners]
        for up, corners in ((True, walkref.UP_CORNERS), (False, walkref.DOWN_CORNERS))
    }
    walk = islice(walkref.walk(a, b, d), horizon)
    for index, (row, col, points_up, cp, cq) in enumerate(walk):
        cp *= q
        cq *= q
        (high_p, high_q), (low_p, low_q) = offsets[points_up]
        high = billiards.sqrt3_sign(cp + high_p, cq + high_q)
        if high < 0:
            continue
        low = billiards.sqrt3_sign(cp + low_p, cq + low_q)
        if low > 0:
            continue
        return billiards.TriangleHit(index, row, col, points_up, high == 0 or low == 0)
    return None


def closed_form_min_obstacle(i, j):
    """The least alpha whose obstacle the ray through V(i, j) meets: 0 when
    i - j is divisible by 3, else min(r/(i+2j), (3-r)/(2i+j)) with
    r = (i - j) mod 3."""
    r = (i - j) % 3
    return F(0) if r == 0 else min(F(r, i + 2 * j), F(3 - r, 2 * i + j))


LATTICE_PAIRS = [(i, j) for i in range(1, 31) for j in range(1, 31) if math.gcd(i, j) == 1]
LATTICE_ALPHAS = [
    F(1, 1000),
    F(1, 8),
    F(1, 5),
    F(1, 4) - F(1, 1000),
    F(1, 4),
    F(1, 4) + F(1, 1000),
    F(1, 3),
    F(1, 2),
    F(3, 4),
    F(999, 1000),
]


class TestLatticePeriod:
    def test_period_is_first_vertex_step(self):
        # The walk's first step through a lattice vertex leaves the down
        # cell (row, col) for the up cell (row+1, col+1): that up cell's
        # index is the period.
        for i, j in LATTICE_PAIRS:
            a, b, d = billiards._cleared(QuadExt(0, F(j, 2 * i + j)))
            period = 2 * (i + j) - 2
            assert (a, billiards._lattice_period(b, d)) == (0, period)
            walk = walkref.walk(a, b, d)
            previous = next(walk)
            for index, cell in enumerate(walk, start=1):
                if cell[:3] == (previous[0] + 1, previous[1] + 1, True):
                    break
                previous = cell
            assert (index, cell[:2]) == (period, (j, i)), (i, j)

    def test_capped_walk_matches_uncapped(self):
        # An unreduced b/d gives a longer cap, never a shorter one.
        for i, j in LATTICE_PAIRS:
            _, b, d = billiards._cleared(QuadExt(0, F(j, 2 * i + j)))
            period = 2 * (i + j) - 2
            least = closed_form_min_obstacle(i, j)
            alphas = list(LATTICE_ALPHAS)
            if least:
                alphas += [least, least - F(1, 10**6)]
            for alpha in alphas:
                ref = uncapped_first_contact(0, b, d, alpha, 10 * period)
                assert ref is None or ref.index < period, (i, j, alpha)
                if alpha == least:
                    assert ref is not None and ref.grazing, (i, j)
                elif least and alpha == least - F(1, 10**6):
                    assert ref is None, (i, j)
                for horizon in (period - 1, period, period + 1, 10 * period):
                    want = ref if ref is None or ref.index < horizon else None
                    for scale in (1, 2, 3):  # the slope reduced, then unreduced
                        got = billiards._first_contact(0, scale * b, scale * d, alpha, horizon)
                        assert got == want, (i, j, alpha, horizon, scale)


# ---------------------------------------------------------------------------
# The engine's step loop against the per-cell walk, contact test and fold it
# replaced, frozen in tests/walkref.py.
# ---------------------------------------------------------------------------


def near_threshold_alphas(a, b, d, horizon, steps=12):
    """The ends of a bisection bracket for the least alpha the reference
    walk meets within ``horizon`` cells: the closest hit and miss found."""
    lo, hi = F(0), F(1)
    for _ in range(steps):
        mid = (lo + hi) / 2
        if walkref.first_contact(a, b, d, mid, horizon) is None:
            lo = mid
        else:
            hi = mid
    return [alpha for alpha in (lo, hi) if 0 < alpha < 1]


def small_horizons(*extra):
    # Odd horizons end on an up cell, even ones on a down cell.
    return sorted({1, 2, 3, 4, 5, 6, 7, *extra} - {0})


class TestStepLoopDifferential:
    def test_lattice_slopes(self):
        # Every coprime pair i, j <= 30, reduced and unreduced, at the
        # closed-form least alpha (where the ray grazes), just around it and
        # at the fixed alphas, over horizons around the period P.
        for i, j in LATTICE_PAIRS:
            _, b, d = billiards._cleared(QuadExt(0, F(j, 2 * i + j)))
            period = 2 * (i + j) - 2
            least = closed_form_min_obstacle(i, j)
            alphas = list(LATTICE_ALPHAS)
            if least:
                alphas += [least, least - F(1, 10**6), least + F(1, 10**6)]
            grazes = 0
            for alpha in alphas:
                for horizon in small_horizons(period - 1, period, period + 1, 2 * period + 1):
                    for scale in (1, 2):
                        sb, sd = scale * b, scale * d
                        want = walkref.first_contact(0, sb, sd, alpha, horizon)
                        got = billiards._first_contact(0, sb, sd, alpha, horizon)
                        assert got == want, (i, j, alpha, horizon, scale)
                        grazes += got is not None and got.grazing
            assert grazes or not least, (i, j)

    def test_off_lattice_slopes(self):
        # 500 seeded rational and mixed slopes, each at fixed alphas and at
        # the two ends of its own bisection bracket, over small horizons and
        # horizons around the first hit.
        rng = random.Random(816)
        for n in range(500):
            slope = random_wedge_slope(rng, ("rational", "mixed")[n % 2])
            a, b, d = billiards._cleared(slope)
            alphas = [F(1, 1000), F(1, 4), F(1, 2), F(rng.randint(1, 99), 100)]
            alphas += near_threshold_alphas(a, b, d, 120)
            for alpha in alphas:
                first = walkref.first_contact(a, b, d, alpha, 120)
                around = () if first is None else (first.index, first.index + 1, first.index + 2)
                for horizon in small_horizons(119, 120, 121, *around):
                    want = walkref.first_contact(a, b, d, alpha, horizon)
                    assert billiards._first_contact(a, b, d, alpha, horizon) == want, (
                        slope,
                        alpha,
                        horizon,
                    )

    def test_folds_match(self):
        # Lattice slopes stop at a table corner after about P strikes.
        rng = random.Random(817)
        cases = []
        for i, j in LATTICE_PAIRS:
            period = 2 * (i + j) - 2
            strikes = small_horizons(period - 1, period, period + 1)
            cases += [(QuadExt(0, F(j, 2 * i + j)), n) for n in strikes]
        for n in range(500):
            slope = random_wedge_slope(rng, ("rational", "mixed")[n % 2])
            cases += [(slope, k) for k in small_horizons(rng.randint(8, 80))]
        terminated = 0
        for slope, strikes in cases:
            a, b, d = billiards._cleared(slope)
            folded = billiards._fold_triangle(a, b, d, strikes)
            assert folded == walkref.fold_triangle(a, b, d, strikes), (slope, strikes)
            terminated += folded[1]
        assert terminated >= len(LATTICE_PAIRS)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("edge", ["low", "high"])
    def test_near_tie_slopes(self, n, edge):
        # The unit u = 2 - sqrt3 has norm 1, so u**n = x + y*sqrt3 has
        # x*x - 3*y*y = 1: the slopes u**n, near 0, and sqrt3 - u**n, near
        # sqrt3, give side and exit values whose two terms nearly cancel.
        x, y = 1, 0
        for _ in range(n):
            x, y = 2 * x - 3 * y, 2 * y - x
        slope = QuadExt(x, y) if edge == "low" else QuadExt(-x, 1 - y)
        a, b, d = billiards._cleared(slope)
        alphas = [F(1, 1000), F(1, 4), F(1, 2)] + near_threshold_alphas(a, b, d, 400)
        for alpha in alphas:
            first = walkref.first_contact(a, b, d, alpha, 400)
            around = () if first is None else (first.index, first.index + 1, first.index + 2)
            for horizon in small_horizons(399, 400, 401, *around):
                want = walkref.first_contact(a, b, d, alpha, horizon)
                assert billiards._first_contact(a, b, d, alpha, horizon) == want, (slope, alpha, horizon)
        for strikes in small_horizons(399, 400, 401):
            assert billiards._fold_triangle(a, b, d, strikes) == walkref.fold_triangle(a, b, d, strikes), (
                slope,
                strikes,
            )

    def test_long_off_lattice_walks(self):
        # 20,000 cells and more at alpha = 10**-6 and at the ends of each
        # slope's bisection bracket, whose hit may lie thousands of cells
        # in, and folds of 20,000 strikes: the stepped values must not
        # drift.  A walk that drifted after some cell would miss the hits
        # beyond it, so the hits must reach deep rows and columns.
        rng = random.Random(835)
        deepest = (0, 0, 0)
        for n in range(16):
            slope = random_wedge_slope(rng, ("rational", "mixed")[n % 2])
            a, b, d = billiards._cleared(slope)
            for alpha in [F(1, 10**6)] + near_threshold_alphas(a, b, d, 20_001):
                for horizon in (20_000, 20_001):
                    want = walkref.first_contact(a, b, d, alpha, horizon)
                    assert billiards._first_contact(a, b, d, alpha, horizon) == want, (slope, alpha, horizon)
                    if want is not None:
                        deepest = tuple(map(max, deepest, (want.index, want.row, want.col)))
            assert billiards._fold_triangle(a, b, d, 20_000) == walkref.fold_triangle(a, b, d, 20_000), slope
        assert deepest >= (10_000, 4_000, 4_000) and min(deepest) >= 4_000, deepest


# ---------------------------------------------------------------------------
# Reference folds: the triangle fold by composed reflections, and the square
# fold and slab test in Fractions, that the integer folds replaced; copied
# here as the references of the differential tests below.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Isometry:
    """Affine isometry of the plane with entries in Q(sqrt 3)."""

    m00: QuadExt
    m01: QuadExt
    m10: QuadExt
    m11: QuadExt
    tx: QuadExt
    ty: QuadExt

    def apply(self, p):
        x, y = p
        return (
            self.m00 * x + self.m01 * y + self.tx,
            self.m10 * x + self.m11 * y + self.ty,
        )

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other (matrix product self . other)."""
        return Isometry(
            self.m00 * other.m00 + self.m01 * other.m10,
            self.m00 * other.m01 + self.m01 * other.m11,
            self.m10 * other.m00 + self.m11 * other.m10,
            self.m10 * other.m01 + self.m11 * other.m11,
            self.m00 * other.tx + self.m01 * other.ty + self.tx,
            self.m10 * other.tx + self.m11 * other.ty + self.ty,
        )


IDENTITY = Isometry(QuadExt(1), QuadExt(0), QuadExt(0), QuadExt(1), QuadExt(0), QuadExt(0))
Q_HALF = QuadExt(F(1, 2))
Q_SQRT3_HALF = QuadExt(0, F(1, 2))


def reflect_horizontal(level: int) -> Isometry:
    """Reflection across y = level * sqrt(3)/2."""
    return Isometry(
        QuadExt(1), QuadExt(0), QuadExt(0), QuadExt(-1), QuadExt(0), 2 * level * Q_SQRT3_HALF
    )


def reflect_rising(level: int) -> Isometry:
    """Reflection across x - y/sqrt3 = level (the slope +sqrt3 family)."""
    return Isometry(
        -Q_HALF,
        Q_SQRT3_HALF,
        Q_SQRT3_HALF,
        Q_HALF,
        QuadExt(F(3 * level, 2)),
        QuadExt(0, F(-level, 2)),
    )


def reflect_falling(level: int) -> Isometry:
    """Reflection across x + y/sqrt3 = level (the slope -sqrt3 family)."""
    return Isometry(
        -Q_HALF,
        -Q_SQRT3_HALF,
        -Q_SQRT3_HALF,
        Q_HALF,
        QuadExt(F(3 * level, 2)),
        QuadExt(0, F(level, 2)),
    )


def reflect_point(kind, level, p):
    iso = {
        "h": reflect_horizontal,
        "r": reflect_rising,
        "f": reflect_falling,
    }[kind](level)
    return iso.apply(p)


def ref_triangle_path(slope: QuadExt, n_strikes: int):
    """The path's segments and whether it stopped at a corner."""
    # Keep the fold isometry of the current cell: each crossing composes the
    # reflection across the crossed line, and each crossing point, computed
    # in Q(sqrt 3), is mapped by the fold of the cell it leaves.
    rise = slope * QuadExt(0, F(1, 3))  # growth of y/sqrt3 per unit x
    fold = IDENTITY
    previous = (QuadExt(0), QuadExt(0))
    segments = []
    terminated = False
    cells = ref_walk(slope, n_strikes + 1)
    for cell, after in zip(cells, cells[1:]):
        row, col = cell.row, cell.col
        if cell.points_up:
            level = row + col + 1
            x = level / (1 + rise)
            reflection = reflect_falling(level)
        elif after.col == col:
            level = row + 1
            x = level / (2 * rise)
            reflection = reflect_horizontal(level)
        elif after.row == row:
            level = col + 1
            x = level / (1 - rise)
            reflection = reflect_rising(level)
        else:
            x = (row + 1) / (2 * rise)
            segments.append((previous, fold.apply((x, slope * x))))
            terminated = True
            break
        current = fold.apply((x, slope * x))
        segments.append((previous, current))
        previous = current
        fold = fold.compose(reflection)
    return tuple(segments), terminated


def ref_fold_coordinate(u: Fraction) -> Fraction:
    r = u % 2
    return 1 - abs(1 - r)


def ref_square_path(slope: Fraction, n_segments: int):
    """The path's segments."""
    p, q = slope.numerator, slope.denominator
    crossings = [F(0)]
    i = j = 1
    while len(crossings) <= n_segments:
        x_vert = F(i)
        x_horiz = F(j * q, p)
        if x_vert <= x_horiz:
            crossings.append(x_vert)
            i += 1
            if x_vert == x_horiz:
                j += 1
        else:
            crossings.append(x_horiz)
            j += 1
    folded = [(ref_fold_coordinate(x), ref_fold_coordinate(slope * x)) for x in crossings]
    return tuple((folded[n], folded[n + 1]) for n in range(n_segments))


def ref_segment_box_contact(a, b, center: Fraction, half: Fraction) -> str:
    t_lo, t_hi = F(0), F(1)
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


def ref_square_contact(segments, alpha: Fraction) -> str:
    result = "miss"
    for a, b in segments:
        contact = ref_segment_box_contact(a, b, F(1, 2), alpha / 2)
        if contact == "interior":
            return "interior"
        if contact == "boundary":
            result = "boundary"
    return result


def random_wedge_slope(rng: random.Random, kind: str) -> QuadExt:
    """A slope inside (0, sqrt3): sqrt3*p/q, p/q, or a + b*sqrt3 with a and
    b both nonzero."""
    while True:
        if kind == "sqrt3":
            q = rng.randint(2, 14)
            return QuadExt(0, F(rng.randint(1, q - 1), q))
        if kind == "rational":
            slope = QuadExt(F(rng.randint(1, 40), rng.randint(1, 24)))
        else:
            slope = QuadExt(
                F(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 12)),
                F(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 12)),
            )
        if slope.sign() > 0 and (SQRT3 - slope).sign() > 0:
            return slope


def ref_triangle_document(slope: QuadExt, segments, terminated: bool) -> certificates.CertificateDocument:
    """The path-only triangle document of the reference fold's segments,
    each point encoded on its own with ``encode_quadext``."""
    encoded = [[[certificates.encode_quadext(c) for c in point] for point in s] for s in segments]
    return certificates.CertificateDocument(
        command="triangle",
        inputs={
            "slope": certificates.encode_quadext(slope),
            "alpha": None,
            "horizon": 10_000,
            "strikes": len(segments),
            "tolerance": None,
        },
        result={
            "hit": None,
            "path": {"segments": encoded, "terminated_at_corner": terminated},
            "min_obstacle": None,
        },
    )


def ref_billiard_document(slope: Fraction, segments) -> certificates.CertificateDocument:
    """The billiard document of ``segments``, points encoded on their own
    with ``encode_rational``, without an alpha."""
    encoded = [[[certificates.encode_rational(c) for c in point] for point in s] for s in segments]
    return certificates.CertificateDocument(
        command="billiard",
        inputs={"slope": certificates.encode_rational(slope), "alpha": None, "segments": len(segments)},
        result={
            "min_obstacle": certificates.encode_rational(square_min_obstacle(slope)),
            "path": encoded,
            "contact": None,
        },
    )


class TestIntegerFoldDifferential:
    """The integer folds and the documents encoded from their integers,
    against the reference folds and documents encoded point by point with
    ``encode_quadext``/``encode_rational``.  Rational and mixed slopes fold
    crossings whose edge norm n is negative, so an encoder that keeps the
    sign of its denominator fails here."""

    def test_triangle_paths_match_isometry_fold(self):
        rng = random.Random(814)
        kinds = (("sqrt3", 40), ("rational", 25), ("mixed", 25))
        cases = [(kind, rng.randint(1, 60)) for kind, count in kinds for _ in range(count)]
        cases += [("sqrt3", 60)] * 25  # long enough to reach the corner
        terminated = 0
        for kind, strikes in cases:
            slope = random_wedge_slope(rng, kind)
            path = triangle_path_segments(slope, strikes)
            doc = certificates.triangle_document(slope, None, 10_000, None, path)
            reference = ref_triangle_path(slope, strikes)
            assert (path.segments, path.terminated_at_corner) == reference, (slope, strikes)
            expected = certificates.serialize(ref_triangle_document(slope, *reference))
            assert certificates.serialize(doc) == expected, (slope, strikes)
            terminated += path.terminated_at_corner
        assert terminated >= 50

    def test_square_paths_and_contacts_match_fraction_fold(self):
        # Every threshold k/(p+q) on every path of 1 to 2(p+q) segments.  A
        # path's least contact scale is one of these thresholds, and it lies
        # above square_min_obstacle when the path is too short to reach the
        # cell that attains the minimum.
        rank = {"miss": 0, "boundary": 1, "interior": 2}
        rng = random.Random(815)
        for _ in range(25):
            slope = F(rng.randint(1, 30), rng.randint(1, 30))
            total = slope.numerator + slope.denominator
            longest = ref_square_path(slope, 2 * total)
            paths = [square_path_segments(slope, n) for n in range(1, 2 * total + 1)]
            for n, path in enumerate(paths, 1):
                doc = certificates.billiard_document(path, square_min_obstacle(slope), None, None)
                assert path.segments == longest[:n], (slope, n)
                expected = certificates.serialize(ref_billiard_document(slope, longest[:n]))
                assert certificates.serialize(doc) == expected, (slope, n)
            for k in range(1, total):
                alpha = F(k, total)
                expected = "miss"
                for segment, path in zip(longest, paths):
                    single = ref_square_contact((segment,), alpha)
                    expected = max(expected, single, key=rank.get)
                    assert square_obstacle_contact(path, alpha) == expected, (path, alpha)


class TestPathRecords:
    """A path is folded once, when it is made, into public integer points;
    its segments are built only when read, never by a document or a
    contact test."""

    def test_square_path(self):
        slope, alpha = F(6, 17), F(82, 115)
        path = square_path_segments(slope, 46)
        contact = square_obstacle_contact(path, alpha)
        certificates.billiard_document(path, square_min_obstacle(slope), alpha, contact)
        assert "segments" not in vars(path)
        assert path.segments == ref_square_path(slope, 46)

    @pytest.mark.parametrize("slope", [QuadExt(F(16, 11)), QuadExt(0, F(1, 3))])
    def test_triangle_path(self, slope):
        path = triangle_path_segments(slope, 40)
        certificates.triangle_document(slope, None, 10_000, None, path)
        assert "segments" not in vars(path)
        assert (path.segments, path.terminated_at_corner) == ref_triangle_path(slope, 40)

    def test_equal_by_slope_and_count(self):
        assert square_path_segments(F(2, 4), 3) == square_path_segments(F(1, 2), 3)
        assert square_path_segments(F(1, 2), 3) != square_path_segments(F(1, 2), 4)
        assert triangle_path_segments(F(1, 2), 3) == triangle_path_segments(QuadExt(F(2, 4)), 3)
        assert triangle_path_segments(F(1, 2), 3) != triangle_path_segments(F(1, 2), 4)
        assert repr(square_path_segments(F(1, 2), 3)) == "SquarePath(slope=Fraction(1, 2), n_segments=3)"
        # A path that stops at a corner keeps the count it was asked for.
        bisector = QuadExt(0, F(1, 3))
        assert triangle_path_segments(bisector, 10) != triangle_path_segments(bisector, 2)
        assert triangle_path_segments(bisector, 10).segments == triangle_path_segments(bisector, 2).segments

    def test_triangle_fold_runs_once_per_path(self, monkeypatch):
        folds = []
        fold = billiards._fold_triangle
        monkeypatch.setattr(billiards, "_fold_triangle", lambda *args: folds.append(args) or fold(*args))
        slope = QuadExt(F(16, 11))
        path = triangle_path_segments(slope, 40)
        assert len(folds) == 1
        doc = certificates.triangle_document(slope, None, 10_000, None, path)
        path.segments
        assert len(folds) == 1
        # The check rebuilds the document once; comparing it folds nothing.
        assert certificates.validate_document(certificates.parse(certificates.serialize(doc))) == []
        assert len(folds) == 2


class TestTriangleObstacleInvariance:
    def test_reflection_carries_obstacle_to_neighbor(self):
        # Reflecting a cell across a shared edge maps its alpha-obstacle
        # exactly onto the neighbor's alpha-obstacle (as vertex sets).
        rng = random.Random(809)
        for _ in range(1000):
            row, col = rng.randint(0, 6), rng.randint(0, 6)
            alpha = F(rng.randint(1, 99), 100)
            which = rng.choice(["up-right", "down-top", "down-right"])
            if which == "up-right":
                a = triangle_cell(row, col, True)
                b = triangle_cell(row, col, False)
                kind, level = "f", row + col + 1
            elif which == "down-top":
                a = triangle_cell(row, col, False)
                b = triangle_cell(row + 1, col, True)
                kind, level = "h", row + 1
            else:
                a = triangle_cell(row, col, False)
                b = triangle_cell(row, col + 1, True)
                kind, level = "r", col + 1

            def scaled(cell):
                cell = lift(cell)
                cx, cy = cell.incenter
                return {
                    ((1 - alpha) * cx + alpha * vx, (1 - alpha) * cy + alpha * vy)
                    for vx, vy in cell.vertices
                }

            reflected = {reflect_point(kind, level, p) for p in scaled(a)}
            assert reflected == scaled(b)

    def test_reflections_are_involutions(self):
        rng = random.Random(810)
        for _ in range(200):
            p = (
                QuadExt(F(rng.randint(-20, 20), 4), F(rng.randint(-20, 20), 4)),
                QuadExt(F(rng.randint(-20, 20), 4), F(rng.randint(-20, 20), 4)),
            )
            for kind in "hrf":
                level = rng.randint(-3, 3)
                assert reflect_point(kind, level, reflect_point(kind, level, p)) == p


def point_in_base_triangle(p) -> bool:
    x, y = p
    return (
        y.sign() >= 0
        and (SQRT3 * x - y).sign() >= 0
        and (SQRT3 * (1 - x) - y).sign() >= 0
    )


def base_side_of(p):
    """Which side of the base triangle a boundary point lies on."""
    x, y = p
    if y == QuadExt(0):
        return "bottom"
    if (SQRT3 * x - y) == QuadExt(0):
        return "left"
    if (SQRT3 * (1 - x) - y) == QuadExt(0):
        return "right"
    return None


def reflect_direction(side, d):
    dx, dy = d
    half = F(1, 2)
    if side == "bottom":
        return dx, -dy
    if side == "left":
        return (
            -half * dx + QuadExt(0, half) * dy,
            QuadExt(0, half) * dx + half * dy,
        )
    return (
        -half * dx - QuadExt(0, half) * dy,
        -QuadExt(0, half) * dx + half * dy,
    )


class TestTrianglePath:
    def test_bisector_two_strikes(self):
        path = triangle_path_segments(QuadExt(0, F(1, 3)), 2)
        assert path.terminated_at_corner
        (a0, b0), (a1, b1) = path.segments
        assert a0 == (QuadExt(0), QuadExt(0))
        assert b0 == (QuadExt(F(3, 4)), QuadExt(0, F(1, 4)))  # opposite midpoint
        assert a1 == b0
        assert b1 == (QuadExt(0), QuadExt(0))

    def test_figure_sixteen_strike_count(self):
        path = triangle_path_segments(QuadExt(1), 10)
        assert len(path.segments) == 10
        assert not path.terminated_at_corner

    def test_segments_inside_table(self):
        rng = random.Random(811)
        for _ in range(30):
            slope = (
                QuadExt(0, F(rng.randint(1, 9), 10))
                if rng.random() < 0.5
                else QuadExt(F(rng.randint(1, 16), 10))
            )
            segments = lift(triangle_path_segments(slope, rng.randint(1, 12)).segments)
            for a, b in segments:
                assert point_in_base_triangle(a)
                assert point_in_base_triangle(b)
            for (_, b), (a2, _) in zip(segments, segments[1:]):
                assert b == a2
                assert base_side_of(b) is not None  # strikes land on the boundary

    def test_reflection_law_exact(self):
        rng = random.Random(812)
        for _ in range(30):
            slope = (
                QuadExt(0, F(rng.randint(1, 9), 10))
                if rng.random() < 0.5
                else QuadExt(F(rng.randint(1, 16), 10))
            )
            segs = lift(triangle_path_segments(slope, rng.randint(2, 10)).segments)
            for (a, b), (_, c) in zip(segs, segs[1:]):
                side = base_side_of(b)
                d1 = (b[0] - a[0], b[1] - a[1])
                d2 = (c[0] - b[0], c[1] - b[1])
                rx, ry = reflect_direction(side, d1)
                # Parallel with positive scale.
                assert rx * d2[1] == ry * d2[0]
                assert (rx * d2[0]).sign() >= 0 and (ry * d2[1]).sign() >= 0

    def test_first_segment_leaves_origin_along_slope(self):
        slope = QuadExt(0, F(2, 7))
        path = triangle_path_segments(slope, 3)
        a, b = path.segments[0]
        assert a == (QuadExt(0), QuadExt(0))
        assert b[1] == slope * b[0]

    def test_corner_termination_cuts_requested_strikes(self):
        path = triangle_path_segments(QuadExt(0, F(1, 3)), 10)
        assert path.terminated_at_corner
        assert len(path.segments) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            triangle_path_segments(QuadExt(1), 0)
