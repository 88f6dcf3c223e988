"""Unit tests for the exact number kernel."""

import copy
import inspect
import math
import operator
import pickle
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from lonelyrunner import arith, billiards, certificates, fieldsearch, gap, render, viewobstruct
from lonelyrunner.arith import (
    SpeedSet,
    is_prime,
    next_prime_not_dividing,
    sqrt3_sign,
    torus_norm,
)
from tests.quadfield import SQRT3, QuadExt


def brute_torus_norm(x: Fraction) -> Fraction:
    """Independent oracle: scan the integers within 2 of x."""
    base = x.numerator // x.denominator
    return min(abs(x - z) for z in range(base - 2, base + 3))


class TestTorusNorm:
    def test_examples(self):
        assert torus_norm(Fraction(7, 3)) == Fraction(1, 3)
        assert torus_norm(5) == 0
        assert torus_norm(Fraction(1, 2)) == Fraction(1, 2)

    def test_matches_brute_scan(self):
        rng = random.Random(421)
        for _ in range(1000):
            x = Fraction(rng.randint(-400, 400), rng.randint(1, 60))
            assert torus_norm(x) == brute_torus_norm(x)

    def test_symmetry_periodicity_range(self):
        rng = random.Random(422)
        for _ in range(1000):
            x = Fraction(rng.randint(-300, 300), rng.randint(1, 50))
            n = torus_norm(x)
            assert 0 <= n <= Fraction(1, 2)
            assert n == torus_norm(-x)
            assert n == torus_norm(x + 1)
            assert (n == Fraction(1, 2)) == ((x - Fraction(1, 2)).denominator == 1)

    def test_reduced_fraction_formula(self):
        rng = random.Random(423)
        for _ in range(500):
            q = rng.randint(1, 97)
            p = rng.randint(0, 600)
            r = p % q
            assert torus_norm(Fraction(p, q)) == Fraction(min(r, q - r), q)


class TestQuadExt:
    def test_sign_examples(self):
        assert QuadExt(0, 0).sign() == 0
        assert QuadExt(-1, 1).sign() == 1  # sqrt(3) > 1
        # 2 - sqrt(3) > 0 because 2^2 > 3 * 1^2, checked by the same
        # integer comparison the implementation uses.
        assert (2 * 2 > 3 * 1 * 1) and QuadExt(2, -1).sign() == 1
        assert QuadExt(1, -1).sign() == -1
        assert QuadExt(-2, 1).sign() == -1
        assert QuadExt(Fraction(5, 3)).sign() == 1

    def test_sign_matches_float_on_random_values(self):
        rng = random.Random(77)
        for _ in range(10_000):
            a = Fraction(rng.randint(-60, 60), rng.randint(1, 20))
            b = Fraction(rng.randint(-60, 60), rng.randint(1, 20))
            approx = float(a) + float(b) * math.sqrt(3)
            if abs(approx) < 1e-9:  # too close for float to vote
                continue
            assert QuadExt(a, b).sign() == (1 if approx > 0 else -1)

    def test_field_identities(self):
        rng = random.Random(78)
        for _ in range(300):
            q = QuadExt(
                Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
            )
            r = QuadExt(rng.randint(-5, 5), rng.randint(-5, 5))
            assert (q + r) - r == q
            assert q * r == r * q
            if q != QuadExt(0):
                assert q * q.inverse() == QuadExt(1)
                assert (r / q) * q == r

    def test_sqrt3_squares_to_three(self):
        assert SQRT3 * SQRT3 == QuadExt(3)
        assert SQRT3.inverse() == QuadExt(0, Fraction(1, 3))

    def test_ordering(self):
        assert QuadExt(0, 1) > QuadExt(Fraction(17, 10))  # sqrt3 > 1.7
        assert QuadExt(0, 1) < QuadExt(Fraction(18, 10))
        assert QuadExt(1, 1) > 0
        assert sorted([SQRT3, QuadExt(1), QuadExt(2)]) == [QuadExt(1), SQRT3, QuadExt(2)]

    def test_representation_unique(self):
        assert QuadExt(1, 2) != QuadExt(1, 3)
        assert QuadExt(Fraction(2, 4), 0) == QuadExt(Fraction(1, 2))
        assert hash(QuadExt(1, 2)) == hash(QuadExt(Fraction(1), Fraction(2)))

    def test_rational_elements_hash_like_fractions(self):
        assert len({QuadExt(1), 1, Fraction(1)}) == 1
        assert {QuadExt(Fraction(1, 2)): "half"}[Fraction(1, 2)] == "half"

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QuadExt(1) / QuadExt(0)

    def test_float_conversion(self):
        assert abs(float(QuadExt(1, 1)) - (1 + math.sqrt(3))) < 1e-12

    def test_library_value_has_no_arithmetic_or_order(self):
        # The field operations and the order live in tests.quadfield; the
        # library's QuadExt only carries a value.
        value = arith.QuadExt(1, 1)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv,
                   operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                op(value, 1)
            with pytest.raises(TypeError):
                op(1, value)
        with pytest.raises(TypeError):
            -value
        with pytest.raises(TypeError):
            abs(value)
        assert value == QuadExt(1, 1) and hash(value) == hash(QuadExt(1, 1))
        assert arith.QuadExt(Fraction(1, 2)) == Fraction(1, 2) and arith.QuadExt(2) == 2
        assert arith.QuadExt(0, 1) != 0 and arith.QuadExt(1) != "1"


def fraction_sign(a: Fraction, b: Fraction) -> int:
    """The sign rule QuadExt.sign used before it moved to integers: compare
    a^2 with 3*b^2 as Fractions when a and b disagree in sign."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sb == 0:
        return sa
    if sa == 0 or sa == sb:
        return sb
    return sa if a * a > 3 * b * b else sb


# Numerators with a^2 - 3*b^2 = 1 (Pell solutions) or -2: the nearest
# misses of a tie, where a rounding or a dropped factor would flip the sign.
NEAR_TIES = [(2, 1), (7, 4), (26, 15), (97, 56), (362, 209), (1351, 780), (1, 1), (5, 3), (19, 11)]


class TestSqrt3Sign:
    def test_examples(self):
        assert sqrt3_sign(0, 0) == 0
        assert sqrt3_sign(2, -1) == 1  # 2 > sqrt3
        assert sqrt3_sign(-2, 1) == -1
        assert sqrt3_sign(1, -1) == -1  # 1 < sqrt3
        assert sqrt3_sign(0, -5) == -1
        assert sqrt3_sign(7, 0) == 1

    def test_matches_fraction_rule_on_integers(self):
        rng = random.Random(431)
        for _ in range(2000):
            p, q = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
            assert sqrt3_sign(p, q) == fraction_sign(Fraction(p), Fraction(q))

    def test_near_ties(self):
        for a, b in NEAR_TIES:
            for sa in (1, -1):
                for sb in (1, -1):
                    expected = fraction_sign(Fraction(sa * a), Fraction(sb * b))
                    assert sqrt3_sign(sa * a, sb * b) == expected
                    # Scaling by a positive integer keeps the sign.
                    assert sqrt3_sign(10**12 * sa * a, 10**12 * sb * b) == expected

    def test_quadext_sign_matches_fraction_rule(self):
        rng = random.Random(432)
        pairs = []
        for _ in range(2000):
            pairs.append(
                (
                    Fraction(rng.randint(-500, 500), rng.randint(1, 60)),
                    Fraction(rng.randint(-500, 500), rng.randint(1, 60)),
                )
            )
        for a, b in NEAR_TIES:
            for _ in range(20):
                # A positive rational multiple keeps the near tie; after
                # reduction a and b usually have different denominators.
                r = Fraction(rng.randint(1, 99), rng.randint(1, 99))
                pairs.append((rng.choice((1, -1)) * a * r, rng.choice((1, -1)) * b * r))
        for a, b in pairs:
            assert QuadExt(a, b).sign() == fraction_sign(a, b), (a, b)


class TestPrimes:
    def test_is_prime_brute(self):
        def divisors(n):
            return [d for d in range(1, n + 1) if n % d == 0]

        for n in range(-3, 200):
            assert is_prime(n) == (n >= 2 and divisors(n) == [1, n])

    def test_next_prime_examples(self):
        assert next_prime_not_dividing(2, SpeedSet([2, 3])) == 5
        assert next_prime_not_dividing(6, SpeedSet([1, 2])) == 7
        assert next_prime_not_dividing(11, SpeedSet([11])) == 13

    def test_lower_bound_validation(self):
        with pytest.raises(ValueError):
            next_prime_not_dividing(1, SpeedSet([2]))


class TestSpeedSet:
    def test_normalizes_sorted_unique(self):
        s = SpeedSet([3, 1, 2, 3])
        assert isinstance(s, tuple)
        assert s == (1, 2, 3) and tuple(s) == (1, 2, 3)
        assert len(s) == 3 and 2 in s and s.max == 3 and s[0] == 1
        assert list(s) == [1, 2, 3]
        assert repr(s) == "SpeedSet({1, 2, 3})"

    def test_a_speed_set_is_returned_as_is(self):
        s = SpeedSet([2, 1])
        assert SpeedSet(s) is s
        assert SpeedSet((1, 2)) is not s and SpeedSet((1, 2)) == s

    @pytest.mark.parametrize(
        "speeds, message",
        [
            ([], "speed set must be nonempty"),
            ([0, 1], "speed must be an integer >= 1, got 0"),
            ([-2], "speed must be an integer >= 1, got -2"),
            ([Fraction(1, 2)], "speed must be an integer >= 1, got Fraction(1, 2)"),
            ([True, 2], "speed must be an integer >= 1, got True"),
            ([1, 2.0], "speed must be an integer >= 1, got 2.0"),
        ],
    )
    def test_rejects_bad_input(self, speeds, message):
        with pytest.raises(ValueError) as info:
            SpeedSet(speeds)
        assert str(info.value) == message

    def test_equality_and_hash(self):
        assert SpeedSet([2, 1]) == SpeedSet([1, 2]) == (1, 2)
        assert SpeedSet([1, 2]) != (2, 1) and SpeedSet([1, 2]) != [1, 2]
        assert hash(SpeedSet([1, 2])) == hash(SpeedSet([2, 1])) == hash((1, 2))

    def test_immutable(self):
        s = SpeedSet([1, 2])
        with pytest.raises(AttributeError):
            s.speeds = (3,)
        with pytest.raises(AttributeError):
            s.max = 3
        with pytest.raises(TypeError):
            s[0] = 3
        assert not hasattr(s, "__dict__")

    def test_pickle_and_deepcopy_round_trip(self):
        s = SpeedSet([5, 3, 7])
        copies = [pickle.loads(pickle.dumps(s, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for t in copies + [copy.deepcopy(s), copy.copy(s)]:
            assert type(t) is SpeedSet and t == s and t.max == 7
            assert repr(t) == "SpeedSet({3, 5, 7})"


# Every integer input, as a call with that input bad, an int outside its
# range, and the refusal that names the input and its range, which ends
# ", got <repr of the value>".
COUNT_ARGUMENTS = {
    "verify_lrc k": (lambda bad: gap.verify_lrc(bad, 5), 11, "k must be an integer from 1 to 10"),
    "verify_lrc max_speed": (lambda bad: gap.verify_lrc(3, bad), 2, "max_speed must be an integer from 3 to 2048"),
    "sweep k": (lambda bad: list(gap.sweep(bad, 5)), 0, "k must be an integer >= 1"),
    "sweep max_speed": (lambda bad: list(gap.sweep(3, bad)), -1, "max_speed must be an integer from 0 to 2048"),
    "kprime_scan k": (lambda bad: viewobstruct.kprime_scan(bad, 12), 11, "k must be an integer from 2 to 10"),
    "kprime_scan max_coord": (
        lambda bad: viewobstruct.kprime_scan(3, bad), 2, "max_coord must be an integer from 3 to 2048"
    ),
    "invisible_subset d": (
        lambda bad: fieldsearch.invisible_subset((1, 2, 3), bad), 3, "d must be an integer from 0 to 2"
    ),
    "invisible_subset prime_budget": (
        lambda bad: fieldsearch.invisible_subset((1, 2, 3), 1, prime_budget=bad),
        0,
        "prime_budget must be an integer from 1 to 1099511627776",
    ),
    "residue_matrix_scan m": (
        lambda bad: fieldsearch.residue_matrix_scan((1, 2, 3), 7, bad, 1), 4, "m must be an integer from 0 to 3"
    ),
    "residue_matrix_scan d": (
        lambda bad: fieldsearch.residue_matrix_scan((1, 2, 3), 7, 1, bad), -1, "d must be an integer from 0 to 3"
    ),
    "SpeedSet speed": (lambda bad: SpeedSet([3, bad]), 0, "speed must be an integer >= 1"),
    "primitive_direction coordinate": (
        lambda bad: viewobstruct.primitive_direction((1, bad)), 0, "direction coordinate must be an integer >= 1"
    ),
    "lonely_time runner speed": (
        lambda bad: gap.lonely_time((0, bad, 5), 0), -1, "runner speed must be an integer >= 0"
    ),
    "lonely_time focus": (
        lambda bad: gap.lonely_time((0, 1, 2), bad), 3, "focus must be an integer from 0 to 2"
    ),
    "gap_grid_oracle resolution": (
        lambda bad: gap.gap_grid_oracle((1, 2), bad), 2**22 + 1, "resolution must be an integer from 4 to 4194304"
    ),
    "square_path_segments segments": (
        lambda bad: billiards.square_path_segments(Fraction(1, 2), bad),
        2**14 + 1,
        "segments must be an integer from 1 to 16384",
    ),
    "triangle_path_segments strikes": (
        lambda bad: billiards.triangle_path_segments(QuadExt(1), bad),
        2**14 + 1,
        "strikes must be an integer from 1 to 16384",
    ),
    "triangle_obstruction_check horizon": (
        lambda bad: billiards.triangle_obstruction_check(QuadExt(1), Fraction(1, 3), bad),
        0,
        "horizon must be an integer >= 1",
    ),
    "triangle_min_obstacle horizon": (
        lambda bad: billiards.triangle_min_obstacle(QuadExt(1), bad), -4, "horizon must be an integer >= 1"
    ),
    "render_svg extent": (
        lambda bad: render.render_svg("obstruction2d", extent=bad), 101, "extent must be an integer from 1 to 100"
    ),
    "render_svg segments": (
        lambda bad: render.render_svg("square_billiard", slope=Fraction(1, 2), segments=bad),
        0,
        "segments must be an integer from 1 to 16384",
    ),
    "render_svg strikes": (
        lambda bad: render.render_svg("triangle_billiard", slope=QuadExt(1), strikes=bad),
        0,
        "strikes must be an integer from 1 to 16384",
    ),
    "produce gap grid": (
        lambda bad: certificates.produce("gap", {"speeds": [1, 2], "grid": bad}), -1, "grid must be an integer >= 0"
    ),
    "produce triangle horizon": (
        lambda bad: certificates.produce(
            "triangle",
            {"slope": certificates.encode_quadext(QuadExt(1)), "alpha": None, "horizon": bad, "strikes": None,
             "tolerance": None},
        ),
        0,
        "horizon must be an integer >= 1",
    ),
    "produce invisible d": (
        lambda bad: certificates.produce("invisible", {"speeds": [1, 2, 3], "d": bad, "prime_budget": 100}),
        -1,
        "d must be an integer from 0 to 2",
    ),
    "produce invisible prime_budget": (
        lambda bad: certificates.produce("invisible", {"speeds": [1, 2, 3], "d": 1, "prime_budget": bad}),
        2**40 + 1,
        "prime_budget must be an integer from 1 to 1099511627776",
    ),
}

# The one form of every refusal: the input's name, the rule and the value.
ONE_FORM = re.compile(r"[a-z_ ]+ must be an integer(?: >= -?\d+| from -?\d+ to -?\d+), got (.+)")


class TestCountRule:
    """Every integer input is refused by the one count rule, with its name
    and range, where it enters an engine: a bool or a float as well,
    although Python would compare True as 1 and 2.0 as 2."""

    @pytest.mark.parametrize("bad", [True, 2.0], ids=repr)
    @pytest.mark.parametrize("name", list(COUNT_ARGUMENTS))
    def test_bool_and_float_refused(self, name, bad):
        call, _, refusal = COUNT_ARGUMENTS[name]
        with pytest.raises(ValueError) as info:
            call(bad)
        assert str(info.value) == f"{refusal}, got {bad!r}"

    def test_range_messages_kept(self):
        for call, bad, refusal in COUNT_ARGUMENTS.values():
            with pytest.raises(ValueError) as info:
                call(bad)
            assert str(info.value) == f"{refusal}, got {bad!r}"
        # Counts at the ends of their ranges are accepted.
        assert fieldsearch.residue_matrix_scan((1, 2, 3), 7, 3, 3) == 1
        assert fieldsearch.invisible_subset((1, 2, 3), 2).d == 2
        assert list(gap.sweep(3, 0)) == []
        assert gap.lonely_time((0, 1, 2), 2).focus_index == 2
        assert gap.gap_grid_oracle((1, 2), 4) == Fraction(1, 4)

    @pytest.mark.parametrize(
        "name, bad",
        [
            pytest.param(name, bad, id=f"{name}-{bad!r}")
            for name, (_, out_of_range, _) in COUNT_ARGUMENTS.items()
            for bad in (True, 2.0, out_of_range)
        ],
    )
    def test_every_refusal_has_the_one_form(self, name, bad):
        with pytest.raises(ValueError) as info:
            COUNT_ARGUMENTS[name][0](bad)
        form = ONE_FORM.fullmatch(str(info.value))
        assert form is not None, str(info.value)
        assert form[1] == repr(bad)

    def test_only_the_rule_tests_for_a_bool(self):
        # The int-not-bool test is written once in the package, in the rule.
        package = Path(arith.__file__).parent
        found = [
            (path.name, number)
            for path in sorted(package.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"isinstance\([^)]*\bbool\b", line)
        ]
        rule = inspect.getsourcelines(arith._check_count)
        assert [name for name, _ in found] == ["arith.py"]
        assert all(rule[1] <= number < rule[1] + len(rule[0]) for _, number in found)

    def test_prime_budget_is_a_count(self):
        # A budget is read by the one rule that reads it in a document, so
        # the library refuses what the check would list as malformed.
        rule = "prime_budget must be an integer from 1 to 1099511627776, got "
        for budget in (1000.5, 0, -5):
            with pytest.raises(ValueError) as info:
                fieldsearch.invisible_subset((1, 2, 3), 1, prime_budget=budget)
            assert str(info.value) == rule + repr(budget)
        # A budget of 1 is taken, and the search finds no prime within it.
        with pytest.raises(fieldsearch.PrimeBudgetExhausted) as info:
            fieldsearch.invisible_subset((1, 2, 3), 1, prime_budget=1)
        assert str(info.value) == "no certifying prime <= 1 for SpeedSet({1, 2, 3}) with d=1"
        assert fieldsearch.invisible_subset((1, 2, 3), 1, prime_budget=1000).d == 1
