"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
exact rational equality unless the criterion itself is horizon-qualified;
runtime ceilings are asserted as stated.
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from lonelyrunner.arith import QuadExt, SpeedSet, next_prime_not_dividing, torus_norm
from lonelyrunner.billiards import (
    square_min_obstacle,
    square_obstacle_contact,
    square_path_segments,
    triangle_cell,
    triangle_obstruction_check,
)
from lonelyrunner.fieldsearch import BandWitness, conj34_witness, invisible_subset
from lonelyrunner.gap import exact_gap, gap_grid_oracle, verify_lrc
from lonelyrunner.viewobstruct import (
    kprime_scan,
    min_scale_for_direction,
    obstruction_witness,
)
from tests.quadfield import lift
from tests.test_billiards import reference_fold, reflect_point

F = Fraction


class Stopwatch:
    def __init__(self, limit_seconds):
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.1f}s exceeded the {self.limit}s ceiling"
            )


def report(number, name, watch):
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({watch.elapsed:.2f}s)")


@pytest.fixture(scope="module")
def sweep_data():
    """Shared enumeration for criteria 3, 4 and 11."""
    data = {}
    for k, max_speed in ((3, 30), (4, 15)):
        sets = [
            c for c in combinations(range(1, max_speed + 1), k) if gcd(*c) == 1
        ]
        deltas = {c: exact_gap(c).delta for c in sets}
        data[(k, max_speed)] = (sets, deltas)
    return data


def test_criterion_01_dirichlet_family_exactness():
    with Stopwatch(1.0) as watch:
        for n in range(1, 11):
            assert exact_gap(range(1, n + 1)).delta == F(1, n + 1)
    report(1, "Dirichlet family exactness", watch)


def test_criterion_02_three_runner_theorem():
    with Stopwatch(10.0) as watch:
        bound = F(1, 3)
        for s1 in range(1, 100):
            for s2 in range(s1 + 1, 101):
                if gcd(s1, s2) != 1:
                    continue
                assert exact_gap((s1, s2)).delta >= bound, (s1, s2)
        assert exact_gap((1, 2)).delta == bound
    report(2, "three-runner theorem", watch)


def test_criterion_03_lrc_desk_scale_sweeps():
    with Stopwatch(300.0) as watch:
        report3 = verify_lrc(3, 30)
        assert report3.counterexamples == ()
        assert (1, 2, 3) in report3.tight
        report4 = verify_lrc(4, 15)
        assert report4.counterexamples == ()
        assert (1, 2, 3, 4) in report4.tight
    report(3, "LRC desk-scale sweeps", watch)


def test_criterion_04_bound_sandwich(sweep_data):
    with Stopwatch(300.0) as watch:
        for (k, _), (sets, deltas) in sweep_data.items():
            low = F(1, 2 * k)
            for s in sets:
                delta = deltas[s]
                assert low <= delta <= F(1, 2), (s, delta)
    report(4, "bound sandwich", watch)


def test_criterion_05_oracle_equivalence():
    with Stopwatch(60.0) as watch:
        rng = random.Random(905)
        for _ in range(200):
            k = rng.randint(1, 5)
            speeds = SpeedSet(rng.sample(range(1, 51), k))
            n = 64 * speeds.max * k
            oracle = gap_grid_oracle(speeds, n)
            delta = exact_gap(speeds).delta
            assert oracle <= delta <= oracle + F(speeds.max, 2 * n)
    report(5, "oracle equivalence", watch)


def test_criterion_06_view_obstruction_duality():
    with Stopwatch(60.0) as watch:
        from itertools import product

        cache = {}
        for k in (2, 3):
            for coords in product(range(1, 21), repeat=k):
                key = frozenset(coords)
                if key not in cache:
                    cache[key] = 1 - 2 * exact_gap(SpeedSet(key)).delta
                assert min_scale_for_direction(coords) == cache[key]
        scan2 = kprime_scan(2, 20)
        assert scan2.observed_sup == F(1, 3)
        assert scan2.extremal == (1, 2)
        scan3 = kprime_scan(3, 10)
        assert scan3.observed_sup == F(1, 2)
    report(6, "view-obstruction duality", watch)


def test_criterion_07_square_billiard_constant():
    with Stopwatch(10.0) as watch:
        assert square_min_obstacle(F(1, 2)) == F(1, 3)
        path = square_path_segments(F(1, 2), 8)
        assert square_obstacle_contact(path, F(1, 3)) == "boundary"  # grazing
        assert obstruction_witness((2, 1), F(1, 3)) is not None
        best = F(0)
        for p in range(1, 21):
            for q in range(1, 21):
                if gcd(p, q) == 1:
                    best = max(best, square_min_obstacle(F(p, q)))
        assert best == F(1, 3)
    report(7, "square billiard constant", watch)


def test_criterion_08_triangle_constant():
    with Stopwatch(300.0) as watch:
        extremal = QuadExt(0, F(1, 5))
        hit = triangle_obstruction_check(extremal, F(1, 4), 10_000)
        assert hit is not None and hit.grazing
        assert triangle_obstruction_check(extremal, F(1, 4) - F(1, 100), 10_000) is None
        slopes = [QuadExt(0, F(i, 251)) for i in range(1, 251)]
        slopes += [QuadExt(F(i, 145)) for i in range(1, 251)]
        assert len(slopes) == 500
        alpha = F(1, 4) + F(1, 100)
        for slope in slopes:
            assert triangle_obstruction_check(slope, alpha, 10_000) is not None, slope
    report(8, "triangle constant", watch)


def test_criterion_09_field_witness_soundness():
    with Stopwatch(60.0) as watch:
        rng = random.Random(909)
        for _ in range(100):
            k = rng.randint(1, 5)
            speeds = SpeedSet(rng.sample(range(1, 41), k))
            p = next_prime_not_dividing(rng.randint(2, 30), speeds)
            delta = exact_gap(speeds).delta
            assert BandWitness(p, 1, 0).avoids(speeds)
            for x in range(1, p):
                for m in range((p - 1) // 2 + 1):
                    witness = BandWitness(p, x, m)
                    if witness.avoids(speeds):
                        assert witness.bound <= delta, (speeds, witness)
    report(9, "field-witness soundness", watch)


def test_criterion_10_invisible_runner_theorem():
    with Stopwatch(300.0) as watch:
        rng = random.Random(910)
        for trial in range(50):
            k = rng.randint(3, 8)
            speeds = SpeedSet(rng.sample(range(1, 41), k))
            d = 1 + trial % 2
            cert = invisible_subset(speeds, d)
            assert len(cert.kept) >= k - d
            assert cert.bound == F(d + 1, 2 * k)
            assert exact_gap(cert.kept).delta >= cert.bound
    report(10, "invisible-runner theorem", watch)


def test_criterion_11_conjecture34_witnesses(sweep_data):
    with Stopwatch(300.0) as watch:
        for (k, _), (sets, _) in sweep_data.items():
            for s in sets:
                witness = conj34_witness(s)
                assert witness is not None, s
                assert witness.m == -(-witness.n // (k + 1)) - 1
    report(11, "conjecture-34 witnesses", watch)


def test_criterion_12_invariant_suite():
    with Stopwatch(120.0) as watch:
        rng = random.Random(912)

        # Torus-norm symmetry and periodicity.
        for _ in range(1000):
            x = F(rng.randint(-500, 500), rng.randint(1, 60))
            n = torus_norm(x)
            assert n == torus_norm(-x) == torus_norm(x + 1)
            assert 0 <= n <= F(1, 2)

        # Gap scale invariance.
        for _ in range(1000):
            k = rng.randint(1, 3)
            s = SpeedSet(rng.sample(range(1, 13), k))
            c = rng.randint(1, 10)
            assert exact_gap(SpeedSet(c * v for v in s)).delta == exact_gap(s).delta

        # Subset monotonicity.
        for _ in range(1000):
            k = rng.randint(1, 4)
            s = SpeedSet(rng.sample(range(1, 16), k))
            sub = SpeedSet(rng.sample(s, rng.randint(1, k)))
            assert exact_gap(sub).delta >= exact_gap(s).delta

        # Fold/unfold round trip.
        for _ in range(1000):
            u = F(rng.randint(0, 300), rng.randint(1, 30))
            v = F(rng.randint(0, 300), rng.randint(1, 30))
            x, y = reference_fold((u, v))
            assert 0 <= x <= 1 and 0 <= y <= 1
            assert reference_fold((x, y)) == (x, y)
            assert reference_fold((u + 2, v + 2)) == (x, y)

        # Reflection-law exactness over at least 1000 reflection events.
        events = 0
        while events < 1000:
            slope = F(rng.randint(1, 15), rng.randint(1, 15))
            path = square_path_segments(slope, rng.randint(2, 9))
            for (a, b), (b2, c) in zip(path.segments, path.segments[1:]):
                assert b == b2
                d1 = (b[0] - a[0], b[1] - a[1])
                d2 = (c[0] - b[0], c[1] - b[1])
                ex = -d1[0] if b[0] in (0, 1) else d1[0]
                ey = -d1[1] if b[1] in (0, 1) else d1[1]
                assert ex * d2[1] == ey * d2[0]
                assert ex * d2[0] >= 0 and ey * d2[1] >= 0
                events += 1

        # Square obstacle invariance under table reflection (Lemma-22 form).
        for _ in range(1000):
            alpha = F(rng.randint(1, 99), 100)
            half = alpha / 2
            corners = {
                (F(1, 2) + sx * half, F(1, 2) + sy * half)
                for sx in (-1, 1)
                for sy in (-1, 1)
            }
            reflected = {(2 - x, y) for x, y in corners}
            expected = {
                (F(3, 2) + sx * half, F(1, 2) + sy * half)
                for sx in (-1, 1)
                for sy in (-1, 1)
            }
            assert reflected == expected

        # Triangle obstacle invariance under cell reflection (Lemma-26 form).
        for _ in range(1000):
            row, col = rng.randint(0, 5), rng.randint(0, 5)
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

            assert {reflect_point(kind, level, p) for p in scaled(a)} == scaled(b)
    report(12, "invariant suite", watch)
