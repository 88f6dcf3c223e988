"""Tests for the view-obstruction engine."""

import random
from fractions import Fraction
from itertools import permutations, product
from math import floor, gcd

import pytest
from hypothesis import given, settings, strategies as st

from lonelyrunner.arith import QuadExt, SpeedSet
from lonelyrunner.billiards import square_obstacle_contact, square_path_segments, triangle_obstruction_check
from lonelyrunner.fieldsearch import BandWitness
from lonelyrunner.gap import exact_gap
from lonelyrunner.viewobstruct import (
    kprime_scan,
    min_scale_for_direction,
    obstruction_witness,
    primitive_direction,
)
from lonelyrunner.render import render_svg


def nearest_center(y):
    """A half-integer m + 1/2 (m >= 0) nearest to y > 0."""
    return floor(y) + Fraction(1, 2)


class TestPrimitiveDirection:
    def test_normalizes_gcd(self):
        assert primitive_direction((2, 4)) == (1, 2)
        assert primitive_direction((6, 10, 15)) == (6, 10, 15)
        assert primitive_direction([4, 4, 6]) == (2, 2, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="^direction coordinate must be an integer >= 1, got 0$"):
            primitive_direction((0, 1))
        with pytest.raises(ValueError, match="at least one coordinate"):
            primitive_direction(())

    @pytest.mark.parametrize("coords", [(2.7, 4), (2.0, 4), (True, 2), ("3", 4)])
    def test_rejects_non_integers(self, coords):
        # Truncating would read (2.7, 4) as the direction (1, 2).
        with pytest.raises(ValueError):
            primitive_direction(coords)


class TestMinScale:
    def test_examples(self):
        assert min_scale_for_direction((1, 2)) == Fraction(1, 3)
        assert min_scale_for_direction((1, 1)) == 0
        assert min_scale_for_direction((1, 2, 3)) == Fraction(1, 2)

    def test_duality_identity(self):
        rng = random.Random(700)
        for _ in range(100):
            k = rng.randint(1, 4)
            coords = tuple(rng.randint(1, 15) for _ in range(k))
            scale = min_scale_for_direction(coords)
            assert scale == 1 - 2 * exact_gap(SpeedSet(set(coords))).delta

    def test_permutation_invariance(self):
        rng = random.Random(701)
        for _ in range(60):
            coords = tuple(rng.randint(1, 12) for _ in range(3))
            base = min_scale_for_direction(coords)
            for perm in permutations(coords):
                assert min_scale_for_direction(perm) == base

    def test_projection_monotonicity(self):
        rng = random.Random(702)
        for _ in range(60):
            coords = tuple(rng.randint(1, 12) for _ in range(3))
            dropped = coords[:2]
            assert min_scale_for_direction(dropped) <= min_scale_for_direction(coords)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(
    direction=st.lists(st.integers(1, 30), min_size=2, max_size=4),
    alpha=st.fractions(0, 1, max_denominator=60).filter(lambda a: 0 < a < 1),
    t=st.builds(Fraction, st.integers(1, 200), st.integers(1, 60)),
)
def test_band_witness_at_any_time_implies_the_minimal_scale(direction, alpha, t):
    # A band witness at t certifies delta >= (1 - alpha)/2, that is,
    # alpha >= 1 - 2*delta: the check of an obstruct witness needs no
    # separate test of the minimal scale.
    if BandWitness.at_time(t, (1 - alpha) / 2).avoids(direction):
        assert alpha >= min_scale_for_direction(direction)


class TestObstructionWitness:
    def test_examples(self):
        w = obstruction_witness((1, 2), Fraction(1, 3))
        assert w == BandWitness(3, 1, 0)  # grazing counts: cubes are closed
        w = obstruction_witness((1, 1), Fraction(1, 100))
        assert w == BandWitness(2, 1, 0)  # t = 1/2, the center of the first cube
        assert obstruction_witness((1, 2), Fraction(1, 4)) is None

    def test_containment_invariant(self):
        rng = random.Random(703)
        for _ in range(100):
            coords = tuple(rng.randint(1, 10) for _ in range(rng.randint(1, 3)))
            scale = min_scale_for_direction(coords)
            alpha = scale + Fraction(rng.randint(0, 20), 100)
            if not 0 < alpha < 1:
                continue
            w = obstruction_witness(coords, alpha)
            assert w is not None and w.bound >= (1 - alpha) / 2
            t = Fraction(w.x, w.n)
            coords = primitive_direction(coords)
            assert t == exact_gap(SpeedSet(coords)).witness_time
            for c in coords:
                assert abs(c * t - nearest_center(c * t)) * 2 <= alpha

    def test_monotonicity_in_alpha(self):
        rng = random.Random(704)
        for _ in range(60):
            coords = (rng.randint(1, 9), rng.randint(1, 9))
            scale = min_scale_for_direction(coords)
            if scale == 0:
                continue
            below = scale - Fraction(1, 1000)
            if below > 0:
                assert obstruction_witness(coords, below) is None
            assert obstruction_witness(coords, scale) is not None

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            obstruction_witness((1, 2), Fraction(0))
        with pytest.raises(ValueError):
            obstruction_witness((1, 2), Fraction(3, 2))
        # Every engine that takes an obstacle scale refuses one outside
        # (0, 1) with the same message, as a Fraction or an int.
        engines = [
            lambda alpha: obstruction_witness((1, 2), alpha),
            lambda alpha: square_obstacle_contact(square_path_segments(Fraction(1, 2), 4), alpha),
            lambda alpha: triangle_obstruction_check(QuadExt(0, Fraction(1, 5)), alpha, 10),
            lambda alpha: render_svg("obstruction2d", alpha=alpha),
        ]
        for engine, alpha in product(engines, [0, 1, Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 2)]):
            with pytest.raises(ValueError) as info:
                engine(alpha)
            assert str(info.value) == "alpha must lie strictly between 0 and 1"


class TestKPrimeScan:
    def test_two_dimensional_scan(self):
        report = kprime_scan(2, 10)
        assert report.observed_sup == Fraction(1, 3)
        assert report.extremal == (1, 2)
        assert report.matches_conjecture
        assert report.cap == Fraction(1, 2)

    def test_tiny_scan(self):
        report = kprime_scan(2, 2)
        assert report.observed_sup == Fraction(1, 3)

    def test_three_dimensional_scan(self):
        report = kprime_scan(3, 6)
        assert report.observed_sup == Fraction(1, 2)
        assert report.extremal == (1, 2, 3)
        assert report.matches_conjecture

    @pytest.mark.parametrize(
        "k, max_coord",
        [(2, m) for m in range(2, 13)] + [(3, m) for m in range(3, 10)] + [(4, m) for m in range(4, 8)],
    )
    def test_matches_ordered_tuple_scan(self, k, max_coord):
        # The definition over directions: the first lexicographic maximum of
        # 1 - 2*delta over gcd-1 ordered k-tuples with repetition.  At k=4,
        # max_coord=7 the sets {1,2,3,4} and {1,3,4,7} tie, so the tie-break
        # is exercised.
        best, best_coords = None, None
        for c in product(range(1, max_coord + 1), repeat=k):
            if gcd(*c) == 1:
                scale = 1 - 2 * exact_gap(SpeedSet(set(c))).delta
                if best is None or scale > best:
                    best, best_coords = scale, c
        report = kprime_scan(k, max_coord)
        assert report.observed_sup == best
        assert report.extremal == best_coords

    def test_validation(self):
        with pytest.raises(ValueError):
            kprime_scan(1, 5)
        with pytest.raises(ValueError):
            kprime_scan(3, 2)


class TestScanEnumeration:
    def test_gcd_one_tuples_counted(self):
        # All gcd-1 tuples within the box share the scan's candidate space.
        coords = [
            c for c in product(range(1, 5), repeat=2) if gcd(*c) == 1
        ]
        scales = {c: min_scale_for_direction(c) for c in coords}
        assert max(scales.values()) == Fraction(1, 3)
        winners = [c for c, v in scales.items() if v == Fraction(1, 3)]
        assert (1, 2) in winners and (2, 1) in winners
