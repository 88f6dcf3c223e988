"""Tests for the exact gap engine and its sweeps."""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from lonelyrunner import certificates, gap
from lonelyrunner.arith import SpeedSet, torus_norm
from lonelyrunner.gap import (
    check_kappa_bounds,
    exact_gap,
    gap_grid_oracle,
    kappa_bounds,
    lonely_time,
    sweep,
    verify_lrc,
)
from lonelyrunner.viewobstruct import kprime_scan


def brute_gap(speeds) -> Fraction:
    """Independent oracle: evaluate f_S with plain Fractions at every
    candidate a/(s_i+s_j) over the full closed range 0..s_i+s_j."""
    speeds = tuple(speeds)
    best = Fraction(0)
    for i in range(len(speeds)):
        for j in range(i + 1, len(speeds)):
            den = speeds[i] + speeds[j]
            for a in range(0, den + 1):
                t = Fraction(a, den)
                value = min(torus_norm(s * t) for s in speeds)
                if value > best:
                    best = value
    return best


def breakpoint_gap(speeds) -> Fraction:
    """Airtight oracle: f_S is piecewise linear, so its maximum over [0,1]
    sits at a breakpoint -- a kink of one branch (t = m/(2s)) or a crossing
    of two branches (t = a/(s_i+s_j) or a/|s_i-s_j|).  Evaluating f at every
    such point, including the difference-form candidates the production
    enumeration never touches, gives the true supremum unconditionally."""
    speeds = tuple(speeds)
    times = {Fraction(0), Fraction(1)}
    for s in speeds:
        for m in range(2 * s + 1):
            times.add(Fraction(m, 2 * s))
    for i in range(len(speeds)):
        for j in range(i + 1, len(speeds)):
            for den in (speeds[i] + speeds[j], abs(speeds[i] - speeds[j])):
                for a in range(den + 1):
                    times.add(Fraction(a, den))
    return max(min(torus_norm(s * t) for s in speeds) for t in times)


def document_norms(cert: gap.GapCertificate) -> list[dict]:
    """The per-speed norms that the gap document of ``cert`` writes."""
    return certificates.gap_document(cert).result["per_speed_norms"]


def encoded(values) -> list[dict]:
    """The rationals ``values`` as a document encodes them."""
    return [certificates.encode_rational(x) for x in values]


def random_speed_set(rng, max_k=4, max_speed=20) -> SpeedSet:
    k = rng.randint(1, max_k)
    return SpeedSet(rng.sample(range(1, max_speed + 1), k))


class TestExactGap:
    @pytest.mark.parametrize(
        "speeds,delta,witness",
        [
            ((1, 2), Fraction(1, 3), Fraction(1, 3)),
            ((1, 2, 3, 4, 5), Fraction(1, 6), Fraction(1, 6)),
            ((7,), Fraction(1, 2), Fraction(1, 14)),
            ((2, 3), Fraction(2, 5), Fraction(1, 5)),
            ((1, 3), Fraction(1, 2), Fraction(1, 2)),
        ],
    )
    def test_frozen_examples(self, speeds, delta, witness):
        cert = exact_gap(speeds)
        assert cert.delta == delta
        assert cert.witness_time == witness

    def test_dirichlet_family(self):
        for n in range(1, 11):
            cert = exact_gap(range(1, n + 1))
            assert cert.delta == Fraction(1, n + 1)
            assert cert.witness_time == Fraction(1, n + 1)

    def test_matches_brute_oracle(self):
        rng = random.Random(500)
        for _ in range(150):
            s = random_speed_set(rng)
            if len(s) == 1:
                assert exact_gap(s).delta == Fraction(1, 2)
            else:
                assert exact_gap(s).delta == brute_gap(s)

    def test_matches_breakpoint_oracle(self):
        # The sum-form candidate set misses no maximum: the full breakpoint
        # enumeration (kinks and both crossing forms) agrees exactly.
        rng = random.Random(509)
        for _ in range(80):
            s = random_speed_set(rng, max_k=4, max_speed=15)
            assert exact_gap(s).delta == breakpoint_gap(s)

    def test_certificate_self_consistency(self):
        rng = random.Random(501)
        for _ in range(200):
            s = random_speed_set(rng)
            cert = exact_gap(s)
            norms = tuple(torus_norm(v * cert.witness_time) for v in s)
            assert document_norms(cert) == encoded(norms)
            assert cert.delta == min(norms)
            assert Fraction(1, 2 * len(s)) <= cert.delta <= Fraction(1, 2)
            if cert.witness_pair is not None:
                i, j, a = cert.witness_pair
                den = s[i] + s[j]
                assert i < j and 1 <= a <= den
                assert cert.witness_time == Fraction(a, den)
            else:
                assert len(s) == 1

    def test_document_norms_are_the_torus_norms(self):
        # The gap document writes each speed's norm at the witness time from
        # that time's integers; the least of them is delta.
        rng = random.Random(506)
        for _ in range(1000):
            s = SpeedSet(rng.sample(range(1, 121), rng.randint(1, 10)))
            cert = exact_gap(s)
            norms = document_norms(cert)
            assert norms == encoded(torus_norm(v * cert.witness_time) for v in s), s
            assert min(Fraction(x["num"], x["den"]) for x in norms) == cert.delta, s

    def test_two_fractions_per_call(self, monkeypatch):
        # The certificate holds delta and the witness time, and builds no
        # Fraction per speed.
        built = []
        monkeypatch.setattr(gap, "Fraction", lambda *args: built.append(args) or Fraction(*args))
        rng = random.Random(507)
        for k in range(1, 11):
            for _ in range(10):
                built.clear()
                cert = exact_gap(rng.sample(range(1, 121), k))
                assert [Fraction(*args) for args in built] == [cert.delta, cert.witness_time], k

    def test_tie_breaks_to_smallest_time(self):
        # f_{1,2} attains 1/3 at both 1/3 and 2/3; the smaller time wins.
        assert exact_gap((1, 2)).witness_time == Fraction(1, 3)
        assert exact_gap((1, 2, 3)).witness_time == Fraction(1, 4)

    def test_scale_invariance(self):
        rng = random.Random(502)
        for _ in range(200):
            s = random_speed_set(rng, max_k=3, max_speed=12)
            c = rng.randint(1, 10)
            scaled = SpeedSet(c * v for v in s)
            assert exact_gap(scaled).delta == exact_gap(s).delta

    def test_subset_monotonicity(self):
        rng = random.Random(503)
        for _ in range(200):
            s = random_speed_set(rng, max_k=4, max_speed=15)
            sub = SpeedSet(rng.sample(s, rng.randint(1, len(s))))
            assert exact_gap(sub).delta >= exact_gap(s).delta

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            exact_gap(())

    def test_pair_sum_above_the_limit_raises_at_once(self):
        start = time.process_time()
        with pytest.raises(ValueError, match=r"2\*\*22"):
            exact_gap((1, 2**22))
        with pytest.raises(ValueError, match=r"2\*\*22"):
            exact_gap((5, 10**12, 10**12 + 1))
        assert time.process_time() - start < 0.5

    def test_pair_sum_at_the_limit(self):
        cert = exact_gap((1, 2**22 - 1))
        half = Fraction(1, 2)
        assert (cert.delta, cert.witness_time, cert.witness_pair) == (half, half, (0, 1, 2**21))
        assert document_norms(cert) == encoded((half, half))

    def test_one_row_per_folded_step(self, monkeypatch):
        # Both speeds fold to the step 2**21 - 1 at the one pair sum 2**22,
        # whose row no single slice of the flag string holds: _row builds
        # it once, and the certificate is the same.
        steps = []
        build = gap._row
        monkeypatch.setattr(gap, "_row", lambda reps, n, r, h: steps.append(r) or build(reps, n, r, h))
        cert = exact_gap((2**21 - 1, 2**21 + 1))
        assert steps == [2**21 - 1]
        half = Fraction(1, 2)
        assert (cert.delta, cert.witness_time, cert.witness_pair) == (half, half, (0, 1, 2**21))
        assert document_norms(cert) == encoded((half, half))


def reference_exact_gap(speeds) -> tuple[gap.GapCertificate, tuple[Fraction, ...]]:
    """Reference for the whole certificate: every a/(s_i+s_j) for every pair
    in order and every 1 <= a < s_i+s_j, unreduced and over the full period,
    keeping the first (i, j, a) at which the least maximizing time appears.
    Returned with each speed's norm at that time."""
    sset = SpeedSet(speeds)
    members = sset
    k = len(members)
    if k == 1:
        s = members[0]
        return gap.GapCertificate(sset, Fraction(1, 2), Fraction(1, 2 * s), None), (Fraction(1, 2),)
    best_num, best_den = -1, 1
    best_t = best_pair = None
    for i in range(k):
        si = members[i]
        for j in range(i + 1, k):
            den = si + members[j]
            for a in range(1, den):
                num = den
                limit = best_num * den
                for s in members:
                    r = s * a % den
                    if den - r < r:
                        r = den - r
                    if r < num:
                        num = r
                        if num * best_den < limit:
                            break
                else:
                    scaled = num * best_den
                    if scaled > limit:
                        best_num, best_den = num, den
                        best_t = Fraction(a, den)
                        best_pair = (i, j, a)
                    elif scaled == limit:
                        t = Fraction(a, den)
                        if t < best_t:
                            best_num, best_den = num, den
                            best_t = t
                            best_pair = (i, j, a)
    norms = tuple(torus_norm(s * best_t) for s in members)
    return gap.GapCertificate(sset, Fraction(best_num, best_den), best_t, best_pair), norms


def maximizers_in_first_half(speeds) -> list[Fraction]:
    speeds = tuple(speeds)
    times = {Fraction(a, s + t) for s, t in combinations(speeds, 2) for a in range(1, s + t)}
    values = {t: min(torus_norm(s * t) for s in speeds) for t in times}
    top = max(values.values())
    return sorted(t for t, v in values.items() if v == top and t <= Fraction(1, 2))


class TestReducedCandidates:
    """``exact_gap`` evaluates each reduced time a/d <= 1/2 once; the whole
    certificate must equal the one the full a/(s_i + s_j) loop gives, and
    its gap document must write that loop's norms."""

    def _assert_same(self, speeds):
        cert, norms = reference_exact_gap(speeds)
        got = exact_gap(speeds)
        assert got == cert, speeds
        assert document_norms(got) == encoded(norms), speeds

    def test_random_sets(self):
        rng = random.Random(800)
        for _ in range(400):
            self._assert_same(rng.sample(range(1, 81), rng.randint(1, 10)))

    def test_one_to_n(self):
        for n in range(1, 41):
            self._assert_same(range(1, n + 1))

    def test_coprime_pairs(self):
        for a, b in combinations(range(1, 41), 2):
            if gcd(a, b) == 1:
                self._assert_same((a, b))

    @pytest.mark.parametrize(
        "speeds",
        [(3, 6), (4, 8), (5, 15), (6, 12), (7, 14), (8, 12), (1, 7, 14), (2, 7, 14), (6, 12, 18)],
    )
    def test_tied_maximizers(self, speeds):
        # Several maximizers lie in (0, 1/2]; the smallest one wins.
        tied = maximizers_in_first_half(speeds)
        assert len(tied) >= 3
        self._assert_same(speeds)
        assert exact_gap(speeds).witness_time == tied[0]

    def test_instance_shaped_sets(self):
        # k = 20..45 speeds drawn from 1..2k, as the single-instance commands
        # are given, and {1..n} past the sizes above.
        rng = random.Random(802)
        for k in (20, 27, 33, 38, 45):
            self._assert_same(rng.sample(range(1, 2 * k + 1), k))
        for n in (45, 50, 55, 60):
            self._assert_same(range(1, n + 1))

    def test_speed_divisible_by_a_pair_sum(self):
        # A speed that is 0 mod a pair sum n holds every time a/n at 0, so
        # that n drops out whole; the other sums still decide the gap.
        rng = random.Random(803)
        for speeds in [(1, 2, 3), (1, 3, 4), (2, 3, 10), (1, 4, 5, 10), (3, 5, 16, 24)]:
            self._assert_same(speeds)
        for _ in range(100):
            s, t = rng.sample(range(1, 40), 2)
            extra = rng.sample(range(1, 60), rng.randint(0, 4))
            self._assert_same([s, t, (s + t) * rng.randint(1, 3), *extra])

    @pytest.mark.parametrize("speeds", [(1, 10**5), (1234, 2345, 3001)])
    def test_large_pair_sums(self, speeds):
        self._assert_same(speeds)

    @pytest.mark.parametrize("name, value", [("_ROW_BYTES", 64), ("_FEW_TIMES", 0)])
    def test_mask_paths(self, monkeypatch, name, value):
        # A repeated flag string of 64 bytes is too short for most rows, so
        # they are written slice by slice; with no times tested one by one,
        # even the smallest pair sums go through the masks, ties included.
        monkeypatch.setattr(gap, name, value)
        rng = random.Random(804)
        for _ in range(150):
            self._assert_same(rng.sample(range(1, 81), rng.randint(2, 10)))
        for speeds in [range(1, 41), (1, 10**5), (1234, 2345, 3001), (1, 3, 4, 7), (3, 6), (1, 7, 14)]:
            self._assert_same(speeds)

    def test_witness_pair_is_the_first_pair_the_denominator_divides(self):
        rng = random.Random(801)
        for _ in range(200):
            s = SpeedSet(rng.sample(range(1, 61), rng.randint(2, 8)))
            cert = exact_gap(s)
            i, j, a = cert.witness_pair
            d = cert.witness_time.denominator
            first = next(p for p in combinations(range(len(s)), 2) if (s[p[0]] + s[p[1]]) % d == 0)
            assert (i, j) == first
            assert Fraction(a, s[i] + s[j]) == cert.witness_time


def grid_max_reference(members, n: int) -> int:
    """max over m < n of min over s of ||s*m/n||, times n, point by point."""
    best = 0
    for m in range(n):
        value = n
        for s in members:
            r = s * m % n
            if n - r < r:
                r = n - r
            if r < value:
                value = r
        if value > best:
            best = value
    return best


class TestGridOracle:
    def test_examples(self):
        value = gap_grid_oracle((1, 2), 300)
        assert Fraction(1, 3) - Fraction(1, 300) <= value <= Fraction(1, 3)
        assert gap_grid_oracle((5,), 100) == Fraction(1, 2)
        value = gap_grid_oracle((2, 3), 600)
        assert Fraction(2, 5) - Fraction(1, 400) <= value <= Fraction(2, 5)

    def test_bracketing_random(self):
        rng = random.Random(504)
        for _ in range(60):
            s = random_speed_set(rng, max_k=4, max_speed=20)
            n = rng.randint(2 * s.max, 6 * s.max)
            oracle = gap_grid_oracle(s, n)
            delta = exact_gap(s).delta
            assert oracle <= delta <= oracle + Fraction(s.max, 2 * n)

    def test_rejects_low_resolution(self):
        with pytest.raises(ValueError, match="^resolution must be an integer from 14 to 4194304, got 13$"):
            gap_grid_oracle((1, 7), 13)

    def test_resolution_limit(self):
        value = gap_grid_oracle((1, 2), 2**22)
        assert Fraction(1, 3) - Fraction(1, 2**22) <= value <= Fraction(1, 3)
        for speeds, n in [((1, 2), 2**22 + 1), ((1, 100_000_000), 64 * 100_000_000 * 2)]:
            with pytest.raises(ValueError, match=f"^resolution must be an integer from {2 * speeds[1]} to 4194304, got {n}$"):
                gap_grid_oracle(speeds, n)

    @pytest.mark.parametrize("resolution", [300.9, True, None, "300"])
    def test_rejects_non_integer_resolution(self, resolution):
        with pytest.raises(ValueError) as info:
            gap_grid_oracle((1, 2), resolution)
        assert str(info.value) == f"resolution must be an integer from 4 to 4194304, got {resolution!r}"

    def test_bigint_fallback_matches_numpy_path(self):
        # The int64 scan against a per-point scan in Python integers.
        rng = random.Random(508)
        for _ in range(20):
            s = random_speed_set(rng, max_k=3, max_speed=15)
            n = rng.randint(2 * s.max, 5 * s.max)
            assert gap_grid_oracle(s, n) == Fraction(grid_max_reference(s, n), n)


class TestLonely:
    def test_examples(self):
        r = lonely_time((0, 1, 2, 3), 0)
        assert r.loneliest_time == Fraction(1, 4)
        assert r.min_separation == Fraction(1, 4)
        assert r.lonely  # exactly 1/4 with n=4 runners
        r = lonely_time((1, 2), 0)
        assert r.loneliest_time == Fraction(1, 2)
        assert r.min_separation == Fraction(1, 2)
        r = lonely_time((1, 2, 3, 4), 0)
        assert r.loneliest_time == Fraction(1, 4)
        assert r.min_separation == Fraction(1, 4)

    def test_min_separation_recomputes(self):
        rng = random.Random(506)
        for _ in range(100):
            n = rng.randint(2, 5)
            speeds = rng.sample(range(0, 25), n)
            focus = rng.randrange(n)
            r = lonely_time(speeds, focus)
            sep = min(
                torus_norm((s - speeds[focus]) * r.loneliest_time)
                for i, s in enumerate(speeds)
                if i != focus
            )
            assert sep == r.min_separation
            assert r.min_separation >= r.separation_floor

    def test_translation_invariance(self):
        rng = random.Random(507)
        for _ in range(100):
            n = rng.randint(2, 5)
            speeds = rng.sample(range(0, 20), n)
            focus = rng.randrange(n)
            shift = rng.randint(1, 30)
            base = lonely_time(speeds, focus)
            moved = lonely_time([s + shift for s in speeds], focus)
            assert base.min_separation == moved.min_separation
            assert base.loneliest_time == moved.loneliest_time

    def test_validation(self):
        with pytest.raises(ValueError):
            lonely_time((1,), 0)
        with pytest.raises(ValueError):
            lonely_time((1, 1), 0)
        with pytest.raises(ValueError):
            lonely_time((1, 2), 5)
        with pytest.raises(ValueError):
            lonely_time((-1, 2), 0)

    @pytest.mark.parametrize("speeds", [(0, 1.9, 3), (0, 2.0, 3), (True, 2, 3), (0, "2", 3)])
    def test_rejects_non_integer_speeds(self, speeds):
        # Truncating would answer for the speeds (0, 1, 3).
        with pytest.raises(ValueError):
            lonely_time(speeds, 0)

    @pytest.mark.parametrize("focus", [True, 1.0])
    def test_rejects_non_integer_focus(self, focus):
        with pytest.raises(ValueError):
            lonely_time((0, 1, 2), focus)


class TestVerifyLrc:
    def test_three_runner_sweep(self):
        report = verify_lrc(2, 50)
        assert report.counterexamples == ()
        assert (1, 2) in report.tight
        assert report.bound == Fraction(1, 3)

    def test_k1_trivial(self):
        report = verify_lrc(1, 5)
        assert report.counterexamples == ()
        assert report.checked == 1  # gcd filter keeps only {1}
        assert report.tight == ((1,),)

    def test_small_k3(self):
        report = verify_lrc(3, 10)
        assert report.counterexamples == ()
        assert (1, 2, 3) in report.tight

    @pytest.mark.parametrize("k, max_speed", [(1, 4), (2, 16), (3, 12), (4, 10)])
    def test_matches_plain_enumeration(self, k, max_speed):
        bound = Fraction(1, k + 1)
        sets = [c for c in combinations(range(1, max_speed + 1), k) if gcd(*c) == 1]
        deltas = {c: exact_gap(c).delta for c in sets}
        report = verify_lrc(k, max_speed)
        assert report.checked == len(sets)
        assert report.tight == tuple(c for c in sets if deltas[c] == bound)
        assert report.counterexamples == tuple(c for c in sets if deltas[c] < bound)

    def test_eight_runners(self):
        # The sporadic tight 7-sets of Goddyn and Wong's catalogue next to
        # {1..7}.
        report = verify_lrc(7, 20)
        assert report.counterexamples == ()
        assert report.tight == ((1, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 7, 12), (1, 4, 5, 6, 7, 11, 13))

    @pytest.mark.parametrize("k", range(1, 8))
    def test_gcd1_count_matches_enumeration(self, k):
        for max_speed in range(k, 25):
            expected = sum(1 for c in combinations(range(1, max_speed + 1), k) if gcd(*c) == 1)
            assert gap._gcd1_subset_count(k, max_speed) == expected, max_speed

    # What the sweep finds in larger boxes.  For k >= 7 "no counterexample"
    # is computed for the box, not cited.
    @pytest.mark.parametrize(
        "k, max_speed, tight",
        [
            (4, 100, ((1, 2, 3, 4), (1, 3, 4, 7))),
            (5, 60, ((1, 2, 3, 4, 5), (1, 3, 4, 5, 9))),
            (7, 60, ((1, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 7, 12), (1, 4, 5, 6, 7, 11, 13))),
            (8, 40, ((1, 2, 3, 4, 5, 6, 7, 8),)),
            (9, 40, ((1, 2, 3, 4, 5, 6, 7, 8, 9),)),
            (10, 30, ((1, 2, 3, 4, 5, 6, 7, 8, 9, 10),)),
        ],
    )
    def test_larger_boxes(self, k, max_speed, tight):
        report = verify_lrc(k, max_speed)
        assert report.counterexamples == ()
        assert report.tight == tight

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_lrc(0, 5)
        with pytest.raises(ValueError):
            verify_lrc(11, 12)
        with pytest.raises(ValueError):
            verify_lrc(3, 2)


# The sweep before it enumerated hitting sets, copied here as the reference
# of the differential test below: one bitset of witness columns per speed,
# and a depth-first walk over every k-subset that spends one AND on each.


def reference_witness_table(k: int, max_speed: int) -> tuple[int, ...]:
    """Entry s is the bitset of the distinct columns (far sets of at least
    k speeds at a reduced a/n, n <= 2*max_speed - 1) in which s is far."""
    table = [0] * (max_speed + 1)
    if k == 1:
        return tuple(table)
    seen = set()
    for n in range(2, 2 * max_speed):
        m = n // (k + 1)
        far = b"0" * (m + 1) + b"1" * (n - 2 * m - 1) + b"0" * m
        reps = far * (max_speed // 2 + 1)
        columns = []
        for a in range(1, n // 2 + 1):
            if gcd(a, n) == 1:
                column = reps[a : a * max_speed + 1 : a]
                mask = int(column, 2)
                if mask.bit_count() >= k and mask not in seen:
                    seen.add(mask)
                    columns.append(column)
        if columns:
            block = b"".join(columns)
            for s in range(1, max_speed + 1):
                table[s] = table[s] << len(columns) | int(block[s - 1 :: max_speed], 2)
    return tuple(table)


def reference_sweep(k: int, max_speed: int, table=None) -> list:
    """(S, delta(S) >= 1/(k+1)) for the gcd-1 k-subsets whose AND of rows
    is zero, the flag from the exact gap."""
    if table is None:
        table = reference_witness_table(k, max_speed)
    bound = Fraction(1, k + 1)
    found = []

    def walk(prefix, rows, common, low):
        if len(prefix) == k - 1:
            for v in range(low, max_speed + 1):
                if not rows & table[v] and gcd(common, v) == 1:
                    s = prefix + (v,)
                    found.append((s, exact_gap(s).delta >= bound))
            return
        for v in range(low, max_speed - k + len(prefix) + 2):
            walk(prefix + (v,), rows & table[v], gcd(common, v), v + 1)

    walk((), -1, 0, 1)
    return found


# Every size of the benchmark's sweep ladder: verify, then kscan.
VERIFY_LADDER = (
    [(3, m) for m in (10, 14, 18, 22)]
    + [(4, m) for m in range(8, 18)]
    + [(5, m) for m in range(7, 14)]
    + [(6, m) for m in range(7, 12)]
)
KSCAN_LADDER = [(3, m) for m in range(4, 15)] + [(4, m) for m in (4, 5, 6)]
LADDER_SIZES = VERIFY_LADDER + KSCAN_LADDER


class TestSweepReference:
    @pytest.mark.parametrize(
        "k, max_speed", sorted(set(LADDER_SIZES)) + [(6, 30), (7, 30), (8, 14), (9, 16), (10, 14)]
    )
    def test_matches_the_and_walk(self, k, max_speed):
        assert list(sweep(k, max_speed)) == reference_sweep(k, max_speed)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_and_walk_on_random_columns(self, monkeypatch, seed):
        # Column families the residue scan never builds: unsorted, with
        # large near sets and few columns.
        rng = random.Random(seed)
        k, max_speed = rng.randint(2, 4), rng.randint(8, 14)
        speeds = range(1, max_speed + 1)
        fars = [set(rng.sample(speeds, rng.randint(k, max_speed - 1))) for _ in range(rng.randint(1, 6))]
        far_rows = [0] + [sum(1 << j for j, far in enumerate(fars) if s in far) for s in speeds]
        columns = [sum(1 << max_speed - s for s in far) for far in fars]
        monkeypatch.setattr(gap, "_columns", lambda k, max_speed: (far_rows, columns))
        assert list(sweep(k, max_speed)) == reference_sweep(k, max_speed, far_rows)


def speeds_of(mask: int, max_speed: int) -> tuple[int, ...]:
    """The speeds of a column mask, speed s at bit max_speed - s."""
    return tuple(s for s in range(1, max_speed + 1) if mask >> max_speed - s & 1)


def breakpoint_columns(k: int, max_speed: int) -> set:
    """The far sets of at least k speeds that are local maxima over the
    open intervals between the distinct breakpoints t = x/(s*(k+1)) of
    (0, 1/2), as masks.  The breakpoints are Fractions, and each far set is
    read off at its interval's midpoint, not toggled."""
    c = k + 1
    points = {
        Fraction(x, s * c)
        for s in range(1, max_speed + 1)
        for x in range(1, (s * c + 1) // 2)
        if x % c in (1, c - 1)
    }
    ends = [Fraction(0)] + sorted(points) + [Fraction(1, 2)]
    fars = []
    for lo, hi in zip(ends, ends[1:]):
        t = (lo + hi) / 2
        p, q = t.numerator, t.denominator
        fars.append(sum(1 << max_speed - s for s in range(1, max_speed + 1) if c * min(s * p % q, q - s * p % q) > q))
    # The last interval reaches past 1/2 to its mirror image, so the far set
    # after it is the one before it.
    fars.append(fars[-2])
    return {
        far
        for before, far, after in zip(fars, fars[1:], fars[2:])
        if far & ~before and far & ~after and far.bit_count() >= k
    }


# The ladder plus larger boxes, with every k the sweeps take above 1.
COLUMN_SIZES = sorted(set(LADDER_SIZES)) + [(2, 3), (2, 60), (3, 40), (4, 40), (5, 30), (7, 30), (8, 20)]


class TestBreakpointColumns:
    @pytest.mark.parametrize("k, max_speed", COLUMN_SIZES)
    def test_every_column_is_a_witness(self, k, max_speed):
        # Sound: every subset of a column's far set has delta > 1/(k+1).
        bound = Fraction(1, k + 1)
        for column in gap._columns(k, max_speed)[1]:
            assert exact_gap(speeds_of(column, max_speed)).delta > bound, column

    @pytest.mark.parametrize("k, max_speed", COLUMN_SIZES)
    def test_dominates_every_residue_column(self, k, max_speed):
        # Complete: each column of the scan over every reduced a/n,
        # n <= 2*max_speed - 1, lies inside some breakpoint column.
        table = reference_witness_table(k, max_speed)
        columns = gap._columns(k, max_speed)[1]
        for j in range(max(table).bit_length()):
            old = sum(1 << max_speed - s for s in range(1, max_speed + 1) if table[s] >> j & 1)
            assert any(old & ~column == 0 for column in columns), speeds_of(old, max_speed)

    @pytest.mark.parametrize("k, max_speed", COLUMN_SIZES + [(2, 100), (6, 40)])
    def test_equals_the_exact_breakpoint_intervals(self, k, max_speed):
        far_rows, columns = gap._columns(k, max_speed)
        assert len(set(columns)) == len(columns)
        assert set(columns) == breakpoint_columns(k, max_speed)
        counts = [column.bit_count() for column in columns]
        assert counts == sorted(counts, reverse=True)
        for s in range(1, max_speed + 1):
            expected = sum(1 << j for j, column in enumerate(columns) if column >> max_speed - s & 1)
            assert far_rows[s] == expected, s

    def test_coincident_breakpoints_toggle_together(self):
        # At t = 1/3 speed 4 turns far as speed 2 turns near: no column
        # holds both, since delta({2, 4}) is exactly 1/3.
        for max_speed in (4, 10, 30):
            both = 1 << max_speed - 2 | 1 << max_speed - 4
            assert all(column & both != both for column in gap._columns(2, max_speed)[1])


class TestReaches:
    """``gap._reaches(S, c)`` against the exact gap: delta(S) >= 1/c."""

    @staticmethod
    def _assert_same(speeds, c) -> int:
        """Asserts the rule; returns the sign of delta(speeds) - 1/c."""
        speeds = tuple(sorted(speeds))
        delta = exact_gap(speeds).delta
        assert gap._reaches(speeds, c) == (delta >= Fraction(1, c)), (speeds, c)
        return (delta > Fraction(1, c)) - (delta < Fraction(1, c))

    def test_random_sets(self):
        rng = random.Random(810)
        signs = [
            self._assert_same(rng.sample(range(1, 61), rng.randint(1, 8)), rng.randint(2, 11))
            for _ in range(3000)
        ]
        # Sets above, at and below the threshold all occur.
        assert min(signs.count(1), signs.count(0), signs.count(-1)) >= 50

    def test_single_speeds(self):
        # delta is 1/2, reached only at t = 1/(2s) and its odd multiples.
        for s in range(1, 61):
            for c in range(2, 12):
                assert gap._reaches((s,), c)
                self._assert_same((s,), c)

    def test_c_two(self):
        # The times x/(2s), x odd, are the peaks of speed s; delta reaches
        # 1/2 exactly when every speed has the 2-adic valuation of the first.
        rng = random.Random(811)
        for _ in range(500):
            speeds = rng.sample(range(1, 41), rng.randint(1, 5))
            self._assert_same(speeds, 2)
        for speeds in [(1, 3), (1, 3, 5, 7), (2, 6, 10), (1, 2), (3, 6), (4, 12, 20)]:
            self._assert_same(speeds, 2)

    def test_tight_sets(self):
        # Sets at exactly 1/c, where {f_S >= 1/c} holds only isolated
        # maximizers.
        for k in range(2, 11):
            assert gap._reaches(tuple(range(1, k + 1)), k + 1)
            assert not gap._reaches(tuple(range(1, k + 1)), k)
        for speeds in [(1, 3, 4, 7), (1, 3, 4, 5, 9), (1, 2, 3, 4, 5, 7, 12), (1, 4, 5, 6, 7, 11, 13)]:
            self._assert_same(speeds, len(speeds) + 1)
            assert gap._reaches(speeds, len(speeds) + 1)


def count_maximize_calls(monkeypatch) -> list:
    """Route gap._maximize, the exact search behind every exact gap, through
    a counter; returns the list it appends to.  The sweep itself never calls
    it, and ``kprime_scan`` calls it once for each set the sweep flags below
    the bound."""
    calls = []
    maximize = gap._maximize

    def counted(speeds):
        calls.append(speeds)
        return maximize(speeds)

    monkeypatch.setattr(gap, "_maximize", counted)
    return calls


class TestSweepPrefilter:
    @pytest.mark.parametrize(
        "k, max_speed", [(1, 6), (2, 14), (3, 11), (4, 10), (5, 9), (6, 10), (3, 4), (4, 9), (6, 6)]
    )
    def test_matches_plain_exact_gap(self, k, max_speed):
        bound = Fraction(1, k + 1)
        expected = [
            (c, delta == bound)
            for c in combinations(range(1, max_speed + 1), k)
            if gcd(*c) == 1 and (delta := exact_gap(c).delta) <= bound
        ]
        assert list(sweep(k, max_speed)) == expected

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_k_below_one(self, k):
        # Raised by the call itself, before any set is walked.
        with pytest.raises(ValueError, match=f"^k must be an integer >= 1, got {k}$"):
            sweep(k, 5)

    # (2, 3), (3, 4), (3, 7), (4, 5), (4, 9): some set is above 1/(k+1) only
    # at a time with denominator exactly 2*max_speed - 1, so these sizes pin
    # the witness range.
    COMPLETENESS_SIZES = [(2, 3), (2, 4), (2, 12), (3, 4), (3, 7), (3, 10), (4, 5), (4, 9), (5, 6), (5, 9)]

    @pytest.mark.parametrize("k, max_speed", [(1, 5)] + COMPLETENESS_SIZES + VERIFY_LADDER)
    def test_verify_computes_no_exact_gap(self, monkeypatch, k, max_speed):
        # The sweep's flag files every set, tight or counterexample.
        calls = count_maximize_calls(monkeypatch)
        report = verify_lrc(k, max_speed)
        assert report.tight and not report.counterexamples
        assert calls == []

    @pytest.mark.parametrize("k, max_coord", COMPLETENESS_SIZES + KSCAN_LADDER + [(5, 12), (6, 12)])
    def test_kscan_computes_no_exact_gap(self, monkeypatch, k, max_coord):
        # No set of a k <= 6 box is below the bound, so none needs its gap.
        calls = count_maximize_calls(monkeypatch)
        report = kprime_scan(k, max_coord)
        assert report.extremal == tuple(range(1, k + 1))
        assert calls == []

    @pytest.mark.parametrize("k, max_coord", [(3, 9), (4, 10), (5, 13)])
    def test_kscan_below_the_bound(self, monkeypatch, k, max_coord):
        # No real set is below the bound, so the sweep is made to yield the
        # gcd-1 k-sets holding max_coord (one column, whose near set is
        # {max_coord}) and to flag each below it: the scan takes the first
        # set of least exact delta, at one exact search per set.
        far = sum(1 << max_coord - s for s in range(1, max_coord))
        far_rows = [0] + [1] * (max_coord - 1) + [0]
        monkeypatch.setattr(gap, "_columns", lambda k, max_coord: (far_rows, [far]))
        monkeypatch.setattr(gap, "_reaches", lambda speeds, c: False)
        sets = [c for c in combinations(range(1, max_coord + 1), k) if c[-1] == max_coord and gcd(*c) == 1]
        deltas = [exact_gap(c).delta for c in sets]
        least = min(deltas)
        calls = count_maximize_calls(monkeypatch)
        report = kprime_scan(k, max_coord)
        assert len(calls) == len(sets)
        assert report.extremal == sets[deltas.index(least)]
        assert report.observed_sup == 1 - 2 * least
        assert deltas.count(least) > 1  # the tie goes to the first set

    @pytest.mark.parametrize("failing", [{(1, 3, 4, 7)}, {(1, 2, 3, 4)}, {(1, 2, 3, 4), (1, 3, 4, 7)}])
    def test_kscan_mixes_flags_and_exact_gaps(self, monkeypatch, failing):
        # The box (4, 17) yields {1, 2, 3, 4} and {1, 3, 4, 7}, both at 1/5.
        # A set flagged below the bound gets its exact gap, a set flagged
        # tight is taken at the bound, and the tie goes to the first set.
        reaches = gap._reaches
        monkeypatch.setattr(gap, "_reaches", lambda speeds, c: speeds not in failing and reaches(speeds, c))
        calls = count_maximize_calls(monkeypatch)
        report = kprime_scan(4, 17)
        assert sorted(calls) == sorted(failing)
        assert report.extremal == (1, 2, 3, 4)
        assert report.observed_sup == Fraction(3, 5)

    def test_k1_is_linear_in_max_speed(self, monkeypatch):
        # The walk hands each speed of the box to combinations once; a sweep
        # quadratic in max_speed hands about max_speed**2 / 2 speeds, which
        # the item count tells apart even where the time would not.
        handed = []

        def counted(items, r):
            items = list(items)
            handed.append(len(items))
            return combinations(items, r)

        monkeypatch.setattr(gap, "combinations", counted)
        start = time.process_time()
        report = verify_lrc(1, 2048)
        assert time.process_time() - start < 0.5
        assert sum(handed) <= 2048  # the box, and nothing else
        assert report.checked == 1
        assert report.tight == ((1,),)
        with pytest.raises(ValueError, match="max_speed must be an integer from 1 to 2048, got 2049"):
            verify_lrc(1, 2049)


class TestBounds:
    def test_kappa_examples(self):
        assert check_kappa_bounds((1, 2, 3)) == (Fraction(1, 6), Fraction(1, 4), True)
        assert check_kappa_bounds((4,)) == (Fraction(1, 2), Fraction(1, 2), True)
        assert check_kappa_bounds((3, 5)) == (Fraction(1, 4), Fraction(1, 3), True)

    def test_kappa_bounds_of_a_certificate(self):
        for speeds in [(1, 2, 3), (4,), (3, 5), (1, 3, 4, 7)]:
            assert kappa_bounds(exact_gap(speeds)) == check_kappa_bounds(speeds)


@pytest.fixture(scope="module")
def differential_sets() -> list[tuple[tuple[int, ...], gap.GapCertificate]]:
    """2,000 seeded sets of 1 to 10 speeds up to 500, after one-speed sets,
    sets whose gap is 1/2 and the sets {1..n}, each with its exact gap."""
    rng = random.Random(601)
    sets = [(1,), (7,), (500,), (1, 3), (2, 6, 10), (3, 9), (1, 3, 5, 7)]
    sets += [tuple(range(1, n + 1)) for n in range(2, 41)]
    sets += [tuple(rng.sample(range(1, 501), rng.randint(1, 10))) for _ in range(2000)]
    return [(s, exact_gap(s)) for s in sets]


def wrong_claims(cert: gap.GapCertificate) -> list[Fraction]:
    """Claims near delta, the bounds every set meets or misses, and values
    out of range, less delta itself."""
    delta, k = cert.delta, len(cert.speeds)
    near = [Fraction(1, 10**6), Fraction(1, 7 * delta.denominator)]
    claims = [delta + e for e in near] + [delta - e for e in near]
    claims += [Fraction(1, k + 1), Fraction(1, 2), Fraction(0), Fraction(-1, 3), Fraction(3, 5)]
    return [claim for claim in claims if claim != delta]


def window_excess(monkeypatch) -> list[int]:
    """Record, for each window check_gap builds, how many intervals it holds
    beyond one per speed."""
    excess = []
    cover = gap._cover

    def counted(members, *args):
        for window in cover(members, *args):
            excess.append(len(window) - len(members))
            yield window

    monkeypatch.setattr(gap, "_cover", counted)
    return excess


class TestCheckGap:
    @pytest.mark.parametrize("block", [gap._COVER_BLOCK, 4], ids=["one window", "windows of 4"])
    def test_agrees_with_exact_gap(self, block, differential_sets, monkeypatch):
        monkeypatch.setattr(gap, "_COVER_BLOCK", block)
        windows = window_excess(monkeypatch)
        assert {cert.delta for _, cert in differential_sets} >= {Fraction(1, 2)}
        for speeds, cert in differential_sets:
            assert gap.check_gap(speeds, cert.delta) == cert, speeds
            for claim in wrong_claims(cert):
                assert gap.check_gap(speeds, claim) is None, (speeds, claim)
        if block == 4:  # the sweep carried its reach across window edges
            assert len(windows) > 100 * len(differential_sets)
            assert max(windows) <= 4

    def test_one_speed_lists_no_interval(self, monkeypatch):
        monkeypatch.setattr(gap, "_cover", None)
        for s in (1, 2, 7, 2**22):
            assert gap.check_gap((s,), Fraction(1, 2)) == exact_gap((s,))
            assert gap.check_gap((s,), Fraction(1, 3)) is None

    def test_calls_no_search(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("check_gap ran the search")

        monkeypatch.setattr(gap, "_maximize", refuse)
        monkeypatch.setattr(gap, "_row", refuse)
        claims = [((1, 2, 3), Fraction(1, 4)), ((2, 3), Fraction(2, 5)), (range(1, 41), Fraction(1, 41))]
        for speeds, delta in claims:
            cert = gap.check_gap(speeds, delta)
            assert cert is not None and cert.delta == delta

    def test_windows_bound_the_lists(self, monkeypatch):
        # {1..600} has about 90,000 intervals: two windows.
        windows = window_excess(monkeypatch)
        speeds = range(1, 601)
        assert gap.check_gap(speeds, Fraction(1, 601)) == exact_gap(speeds)
        assert len(windows) == 2 and max(windows) <= gap._COVER_BLOCK

    def test_reads_speeds_and_refuses_pair_sums_as_exact_gap(self, monkeypatch):
        monkeypatch.setattr(gap, "_cover", None)  # refused before any interval
        for speeds in [(0, 1), (1, -2), (), (1, 2**22), (2**21, 2**21 + 1)]:
            with pytest.raises(ValueError) as expected:
                exact_gap(speeds)
            with pytest.raises(ValueError) as raised:
                gap.check_gap(speeds, Fraction(1, 3))
            assert str(raised.value) == str(expected.value)
        # The largest pair sum the engines take.
        monkeypatch.undo()
        assert gap.check_gap((2**21 - 1, 2**21 + 1), Fraction(1, 2)) == gap.GapCertificate(
            SpeedSet((2**21 - 1, 2**21 + 1)), Fraction(1, 2), Fraction(1, 2), (0, 1, 2**21)
        )
