"""Tests for finite-field witnesses and invisible-runner extraction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lonelyrunner.arith import SpeedSet, next_prime_not_dividing
from lonelyrunner.fieldsearch import (
    BandWitness,
    PrimeBudgetExhausted,
    conj34_witness,
    invisible_subset,
    residue_matrix_scan,
)
from lonelyrunner.gap import exact_gap, verify_lrc


def random_speed_set(rng, max_k=5, max_speed=40) -> SpeedSet:
    k = rng.randint(1, max_k)
    return SpeedSet(rng.sample(range(1, max_speed + 1), k))


class TestBandAvoidance:
    def test_examples(self):
        w = BandWitness(5, 1, 1)
        assert w.avoids((2, 3)) and w.residues((2, 3)) == (2, 3)
        assert w.bound == Fraction(2, 5)
        assert BandWitness(3, 1, 0).avoids((1,))
        assert BandWitness(5, 1, 0).avoids((1, 2, 3, 4))
        assert BandWitness(5, 1, 0).bound == Fraction(1, 5)
        assert BandWitness(5, 2, 1).far((1, 2, 3, 4)) == (1, 4)
        assert not BandWitness(5, 2, 1).avoids((1, 2))

    def test_radius_certifies_one_over_k_plus_one(self):
        for k in range(1, 9):
            for n in range(2, 60):
                m = BandWitness.radius(n, Fraction(1, k + 1))
                assert BandWitness(n, 1, m).bound >= Fraction(1, k + 1)
                assert m == 0 or BandWitness(n, 1, m - 1).bound < Fraction(1, k + 1)
                strict = n // (k + 1)
                assert BandWitness(n, 1, strict).bound > Fraction(1, k + 1)
                assert strict == 0 or BandWitness(n, 1, strict - 1).bound <= Fraction(1, k + 1)

    def test_radius_at_one_over_k_plus_one_is_the_integer_formula(self):
        for k in range(1, 30):
            for n in range(1, 400):
                assert BandWitness.radius(n, Fraction(1, k + 1)) == (n - 1) // (k + 1)

    def test_radius_is_the_least_certifying_one(self):
        rng = random.Random(905)
        for _ in range(500):
            n = rng.randint(2, 300)
            q = rng.randint(2, 60)
            bound = Fraction(rng.randint(1, (q - 1) // 2 or 1), q)
            m = BandWitness.radius(n, bound)
            assert Fraction(m + 1, n) >= bound > Fraction(m, n)

    @settings(max_examples=500, deadline=None, database=None, derandomize=True)
    @given(data=st.data(), n=st.integers(2, 10**4), k=st.integers(1, 10))
    def test_bound_reaches_one_over_k_plus_one_exactly_from_the_radius(self, data, n, k):
        # lrc check tests a conj34 witness by its bound; that is the same
        # test as comparing its band with the least certifying radius.  Half
        # the draws sit within one of that radius, (n-1)//(k+1).
        half, near = (n - 1) // 2, (n - 1) // (k + 1)
        m = data.draw(st.integers(0, half) | st.integers(max(0, near - 1), min(half, near + 1)))
        target = Fraction(1, k + 1)
        assert (BandWitness(n, 1, m).bound >= target) == (m >= BandWitness.radius(n, target))

    def test_validation(self):
        with pytest.raises(ValueError):
            residue_matrix_scan((5, 7), 5, 0, 0)  # p divides a speed
        with pytest.raises(ValueError):
            residue_matrix_scan((2, 3), 5, 3, 0)  # m >= p/2
        with pytest.raises(ValueError):
            residue_matrix_scan((2, 3), 6, 1, 0)  # p not prime

    def test_no_witness_when_band_too_wide(self):
        # p=5, m=1 leaves only residues {2,3}; the set {1,2,3,4} covers all
        # of Z_5^* under any multiplier, so no x works.
        assert not any(BandWitness(5, x, 1).avoids((1, 2, 3, 4)) for x in range(1, 5))

    def test_soundness_on_random_sets(self):
        # Every witness that holds is sound, not only the first one found.
        rng = random.Random(600)
        for _ in range(100):
            s = random_speed_set(rng)
            p = next_prime_not_dividing(rng.randint(2, 30), s)
            delta = exact_gap(s).delta
            assert BandWitness(p, 1, 0).avoids(s)
            for x in range(1, p):
                for m in range((p - 1) // 2 + 1):
                    w = BandWitness(p, x, m)
                    if w.avoids(s):
                        assert w.bound <= delta, (s, w)
                        assert all(m < r < p - m for r in w.residues(s))


class TestResidueMatrixScan:
    def test_examples(self):
        assert residue_matrix_scan((1, 2), 7, 1, 0) == 2  # {2,4} misses the band
        assert residue_matrix_scan((3,), 5, 0, 0) == 1
        assert residue_matrix_scan((1, 2, 3), 11, 1, 1) == 1
        assert residue_matrix_scan((1, 2, 3, 4), 5, 1, 0) is None

    def test_returned_x_is_smallest_qualifying(self):
        rng = random.Random(601)
        for _ in range(100):
            s = random_speed_set(rng, max_k=4, max_speed=20)
            p = next_prime_not_dividing(rng.randint(3, 20), s)
            m = rng.randint(0, (p - 1) // 2)
            band = set(range(1, m + 1)) | {p - r for r in range(1, m + 1)}
            d = rng.randint(0, len(s))
            x = residue_matrix_scan(s, p, m, d)
            hits = lambda y: sum(1 for v in s if y * v % p in band)
            if x is None:
                assert all(hits(y) > d for y in range(1, p))
            else:
                assert hits(x) <= d
                assert all(hits(y) > d for y in range(1, x))

    def test_row_coverage(self):
        # Each row {j*s mod p : j=1..p-1} is all of Z_p^* when p does not
        # divide s.
        rng = random.Random(602)
        for _ in range(50):
            s = random_speed_set(rng, max_k=3, max_speed=30)
            p = next_prime_not_dividing(rng.randint(2, 40), s)
            for v in s:
                assert {j * v % p for j in range(1, p)} == set(range(1, p))

    def test_band_position_count(self):
        # Total positions of the matrix occupied by band elements is k*|B|.
        s = SpeedSet([2, 3, 7])
        p = 11
        band = {1, 3, 10}
        total = sum(
            1 for v in s for j in range(1, p) if j * v % p in band
        )
        assert total == len(s) * len(band)

    def test_validation(self):
        with pytest.raises(ValueError):
            residue_matrix_scan((2,), 9, 1, 0)
        with pytest.raises(ValueError):
            residue_matrix_scan((2,), 5, -1, 0)
        with pytest.raises(ValueError):
            residue_matrix_scan((2,), 5, 3, 0)
        with pytest.raises(ValueError):
            residue_matrix_scan((2,), 5, 1, 3)


class TestInvisibleSubset:
    def test_example_three_speeds(self):
        cert = invisible_subset((1, 2, 3), 1)
        assert len(cert.kept) >= 2
        assert cert.bound == Fraction(1, 3)
        assert cert.kept_delta >= cert.bound
        assert exact_gap(cert.kept).delta == cert.kept_delta

    def test_example_two_speeds(self):
        cert = invisible_subset((1, 2), 1)
        assert len(cert.kept) == 1
        assert cert.kept_delta == Fraction(1, 2) >= Fraction(2, 4)

    def test_example_seven_speeds(self):
        cert = invisible_subset((1, 2, 3, 4, 5, 6, 7), 2)
        assert len(cert.kept) >= 5
        assert cert.kept_delta >= Fraction(3, 14)

    def test_partition_and_witness_invariants(self):
        rng = random.Random(603)
        for _ in range(40):
            s = random_speed_set(rng, max_k=6, max_speed=30)
            d = rng.randint(0, len(s) - 1)
            cert = invisible_subset(s, d)
            k = len(s)
            assert sorted(list(cert.kept) + list(cert.removed)) == list(s)
            assert len(cert.kept) >= k - d
            assert cert.bound == Fraction(d + 1, 2 * k)
            assert cert.kept_delta >= cert.bound
            w = cert.witness
            assert all(v % w.n != 0 for v in s)
            assert w.far(s) == tuple(cert.kept)
            assert w.avoids(cert.kept)
            # The field-side bound is the weaker Lemma-30 one.
            assert w.bound <= cert.kept_delta

    def test_budget_exhaustion(self):
        with pytest.raises(PrimeBudgetExhausted):
            invisible_subset((1, 2, 3), 1, prime_budget=3)

    def test_validation(self):
        with pytest.raises(ValueError):
            invisible_subset((1, 2), 2)
        with pytest.raises(ValueError):
            invisible_subset((1, 2), -1)


class TestConj34:
    def test_examples(self):
        assert conj34_witness((1, 2, 3, 4)) == (5, 1, 0)
        assert conj34_witness((1, 2)) == (3, 1, 0)
        assert conj34_witness((1, 3)) == (4, 2, 1)

    def test_residues_avoid_band(self):
        rng = random.Random(604)
        for _ in range(100):
            s = random_speed_set(rng, max_k=4, max_speed=25)
            if len(s) < 2:
                continue
            w = conj34_witness(s)
            assert w is not None
            k = len(s)
            assert w.m == -(-w.n // (k + 1)) - 1
            assert w.avoids(s)
            for v in s:
                r = w.x * v % w.n
                assert w.m < r < w.n - w.m

    def test_succeeds_on_sweep(self):
        report = verify_lrc(2, 20)
        assert report.counterexamples == ()
        from itertools import combinations
        from math import gcd

        for pair in combinations(range(1, 21), 2):
            if gcd(*pair) == 1:
                assert conj34_witness(pair) is not None

    def test_needs_two_speeds(self):
        with pytest.raises(ValueError):
            conj34_witness((5,))
