"""Exact computation of the gap function delta(S) = sup_t min_i ||s_i t||.

The supremum of the piecewise-linear function f_S(t) = min_i ||s_i t|| over a
set S of distinct positive integer speeds is attained at a rational time of
the form a / (s_i + s_j) for a pair of distinct speeds.  Because
f_S(t) = f_S(1 - t), such times up to 1/2 suffice.  ``exact_gap`` tests all
times a/n of one pair sum n at once, as a byte mask per speed against a
threshold that starts at the lower bound 1/(2k); it evaluates only the
survivors exactly, in integers, and returns the exact maximum together with
a witness.  ``check_gap`` decides instead whether a claimed value is the
maximum, by one sweep over the intervals where f_S is at most that value,
and returns the same certificate.  An independent grid scan brackets the
same value and serves as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .arith import SpeedSet, _check_count

__all__ = [
    "GapCertificate",
    "LonelyReport",
    "LrcSweepReport",
    "exact_gap",
    "check_gap",
    "gap_grid_oracle",
    "lonely_time",
    "sweep",
    "verify_lrc",
    "check_kappa_bounds",
    "kappa_bounds",
]


@dataclass(frozen=True)
class GapCertificate:
    """The exact maximum of f_S together with a maximizing time.

    ``witness_pair`` is ``(i, j, a)`` -- indices into the sorted speeds plus
    the numerator -- with ``witness_time == a / (speeds[i] + speeds[j])``.
    For a single-speed set the maximum 1/2 is attained first at ``1 / (2 s)``
    and ``witness_pair`` is None.
    """

    speeds: SpeedSet
    delta: Fraction
    witness_time: Fraction
    witness_pair: Optional[tuple[int, int, int]]


# A gap engine: exact_gap, or a check's engine built on check_gap.
GapEngine = Callable[[SpeedSet], GapCertificate]


_ROW_BYTES = 1 << 20  # cap on the repeated flag string of one pair sum
# Up to this many times a/n at one pair sum, testing each costs less than
# building the masks.  The small gap instances of the single-set commands
# (2 to 6 speeds up to 40) visit many such sums: without this fork the
# benchmark's instances workload ran 1-2% slower end to end (Python 3.11).
_FEW_TIMES = 8
_MAX_PAIR_SUM = 2**22  # the largest pair sum exact_gap takes, the grid's limit
# The largest speed a sweep box takes, refused before any allocation, so a
# flag or a document cannot ask for an allocation without bound.  It does not
# bound time: a box's cost grows as about max_speed**3 to max_speed**4, so a
# box near it with k >= 4 may take hours.
_MAX_SPEED = 2048
_MAX_K = 10  # the largest set size verify_lrc and kprime_scan sweep


def _row(reps: bytes, n: int, r: int, h: int) -> bytearray:
    """Byte a of the result, a = 0..h, is ``reps[r*a % n]``: the row of step
    r from ``reps``, a string of period n at least two periods long, when
    one slice of it would not reach r*h."""
    row = bytearray(h + 1)
    a = x = 0
    last = len(reps) - 1
    while a <= h:
        # Each slice starts inside the first period and runs to the end.
        count = min((last - x) // r + 1, h + 1 - a)
        row[a : a + count] = reps[x : x + count * r : r]
        a += count
        x = (x + count * r) % n
    return row


def exact_gap(speeds: Iterable[int]) -> GapCertificate:
    """Exact global maximum of f_S over one period, with certificate.

    The candidates are the times a/n for each distinct pair sum
    n = s_i + s_j and 1 <= a <= n/2, since f_S(t) = f_S(1 - t) lets the
    first half period stand for the whole.  Pair sums are visited in
    ascending order against a threshold that starts at the lower bound
    1/(2k), which every k-set meets, and rises to the best value found.
    At each n, one mask per speed marks the a whose residue s*a mod n lies
    at least the threshold from 0; only the times that survive the AND of
    the masks are evaluated, in integers.  A pair sum with at most 8
    times skips the masks and evaluates each time, and one that some speed
    divides is skipped whole.  Ties survive, and break toward
    the smallest time, so the witness is the least maximizer in [0, 1],
    which always lies in the first half.  ``witness_pair`` names the first
    pair (i, j), in lexicographic order, whose sum the witness denominator
    in lowest terms divides.  A set whose largest pair sum exceeds 2**22
    raises ``ValueError``.
    """
    members = _members(speeds)
    num, den, a = _maximize(members)
    assert num == min(min(r, den - r) for r in (s * a % den for s in members))
    delta, time = Fraction(num, den), Fraction(a, den)
    return GapCertificate(members, delta, time, _witness_pair(members, time))


def _members(speeds: Iterable[int]) -> SpeedSet:
    """The speeds as a SpeedSet; a largest pair sum above 2**22 raises ValueError."""
    members = SpeedSet(speeds)
    if len(members) > 1 and members[-1] + members[-2] > _MAX_PAIR_SUM:
        raise ValueError(f"largest pair sum {members[-1] + members[-2]} above the limit of 2**22")
    return members


def _witness_pair(members: Sequence[int], time: Fraction) -> Optional[tuple[int, int, int]]:
    """The first pair (i, j), in lexicographic order, whose sum the
    denominator of ``time`` divides, with the numerator over that sum."""
    a, den = time.numerator, time.denominator
    sums = ((i, j, members[i] + members[j]) for i, j in combinations(range(len(members)), 2))
    return next(((i, j, a * n // den) for i, j, n in sums if n % den == 0), None)


_COVER_BLOCK = 2**16  # intervals per window of check_gap, bounding its lists


def check_gap(speeds: Iterable[int], delta: Fraction) -> Optional[GapCertificate]:
    """``exact_gap(speeds)`` if ``delta`` is delta(S), else None, decided by
    one sweep over the intervals where f_S <= delta, not by a search.

    With v = delta = p/q, speed s is within v of an integer a exactly on
    the closed interval [(a*q - p)/(s*q), (a*q + p)/(s*q)], and strictly
    within on its interior.  So f_S < v on the union of the open intervals
    and f_S <= v on the union of the closed ones, and delta(S) = v exactly
    when the open intervals leave a point of [0, 1/2] uncovered (delta >= v)
    and the closed ones cover [0, 1/2] (delta <= v); by the symmetry
    t -> 1 - t that half period stands for the whole.  The sweep visits the
    intervals with left end below 1/2 in order of left end (one that starts
    at 1/2 holds no point of the half period in its interior, and is needed
    for the cover only if the others reach 1/2 already).  It first
    finds g, the first point no open interval holds: the least t with
    f_S(t) >= v, which is a right end, so f_S(g) = v.  If g lies past 1/2,
    delta < v.  From g on, the closed intervals must chain without a gap up
    to 1/2; inside a gap f_S > v.  If they do, delta = v and g is the least
    maximizer, ``exact_gap``'s witness time.

    The ends are sorted exactly, in integers: the end A/(s*q) has the key
    A * 2*M**2 // s, M the largest speed, and 1/2 the key M**2 * q.  Two
    distinct ends differ by at least 1/(M**2 * q), and an end and 1/2 by at
    least 1/(2*M*q), so the keys keep their order and equal ends get equal
    keys.  The intervals are built one window of [0, 1/2] at a time,
    at most ``_COVER_BLOCK`` per window plus one per speed, and the sweep
    carries its reach from one window to the next.  There are about
    sum(S)/2 intervals, so the check takes O(sum(S) log sum(S)) time.  The
    claim 1/2 builds none: it is decided from the speeds' 2-adic
    valuations, in O(k).

    Speeds are read as ``exact_gap`` reads them, by :func:`_members`.
    """
    members = _members(speeds)
    p, q = delta.numerator, delta.denominator
    if 2 * p == q:
        # f_S(t) = 1/2 exactly when 2*s*t is odd for every s, which some t
        # meets exactly when the speeds share one 2-adic valuation; the
        # least such t is 1/(2*gcd(S)).  One speed s gives 1/(2s).
        low_bit = members[0] & -members[0]
        if any(s & -s != low_bit for s in members):
            return None
        time = Fraction(1, 2 * gcd(*members))
        return GapCertificate(members, delta, time, _witness_pair(members, time))
    if len(members) == 1 or p <= 0 or 2 * p > q:
        return None
    scale = 2 * members[-1] ** 2
    half = scale * q // 2
    width = (half + 2 * p * scale).bit_length()  # every right key is below 2**width
    mask = (1 << width) - 1
    # The intervals at a = 0 hold t = 0; the least speed's reaches farthest.
    # Below reach, the intervals swept so far leave no gap; first is g.
    reach = p * scale // members[0]
    first = None
    for block in _cover(members, p, q, scale, half, width):
        for x in block:
            left = x >> width
            if left >= reach:
                if first is None:
                    first = reach  # no open interval holds it
                if left > reach:
                    return None  # f_S > v between reach and left
            right = x & mask
            if right > reach:
                reach = right
    if first is None:
        first = reach
    if not first <= half <= reach:
        return None  # g past 1/2, or a gap from reach up to 1/2
    time = _end(members, q, scale, first)
    return GapCertificate(members, delta, time, _witness_pair(members, time))


def _cover(
    members: Sequence[int], p: int, q: int, scale: int, half: int, width: int
) -> Iterator[list[int]]:
    """The intervals of :func:`check_gap` at a >= 1 with left end below
    1/2, each as the int left key << width | right key, one sorted list per
    window of the key range [0, half).

    There are ceil(sum(S) / (2*_COVER_BLOCK)) windows, so each spans at most
    1/(2*windows) of time plus a key, and speed s, whose left ends lie 1/s
    apart, has at most s/(2*windows) + 1 intervals in it: a window holds at
    most ``_COVER_BLOCK`` intervals plus one per speed.  The first a at or
    after the key bound u is ceil((u*s + p*scale)/(q*scale)), since the
    left key of a reaches u exactly when (a*q - p)*scale >= u*s.
    """
    windows = -(-sum(members) // (2 * _COVER_BLOCK))
    step = q * scale
    offset = p * scale
    starts = [step] * len(members)  # a * step for the next a of each speed
    for w in range(1, windows + 1):
        bound = half * w // windows
        stops = [-(-(bound * s + offset) // step) * step for s in members]
        block = [
            (x - offset) // s << width | (x + offset) // s
            for s, start, stop in zip(members, starts, stops)
            for x in range(start, stop, step)
        ]
        block.sort()
        yield block
        starts = stops


def _end(members: Sequence[int], q: int, scale: int, key: int) -> Fraction:
    """The interval end whose key is ``key``: the one value A/(s*q), for s
    in ``members`` and A an integer, with A*scale // s == key, since two
    distinct such values get distinct keys."""
    for s in members:
        a = -(-key * s // scale)
        if a * scale // s == key:
            return Fraction(a, s * q)
    raise ArithmeticError(f"no interval end has the key {key}")


def _maximize(members: Sequence[int]) -> tuple[int, int, int]:
    """The search of :func:`exact_gap` on the speeds :func:`_members`
    read: ``(num, den, a)`` with delta = num/den attained first at the time
    a/den in lowest terms.  A single speed s gives (s, 2s, 1)."""
    k = len(members)
    if k == 1:
        return members[0], 2 * members[0], 1

    # The incumbent value is best_num/best_den and its time best_a/best_den.
    # It starts at the bound 1/(2k) at time 1, later than every candidate,
    # so that a maximizer at the bound still replaces it.
    best_num, best_den, best_a = 1, 2 * k, 2 * k
    for n in sorted({s + t for s, t in combinations(members, 2)}):
        # Residue x survives when min(x, n - x) >= m, the least residue at
        # or above the threshold.  A speed that is 0 mod n holds every time
        # a/n at 0, so that n drops out.
        m = -(-best_num * n // best_den)
        residues = members if n > members[-1] else [s % n for s in members]
        if 2 * m > n or 0 in residues:
            continue
        h = n // 2
        if h <= _FEW_TIMES:
            survivors = b"\0" + b"\1" * h  # test every time a/n
        else:
            flags = b"\0" * m + b"\1" * (n + 1 - 2 * m) + b"\0" * (m - 1)
            # A folded residue r is at most h, so r*h + 1 bytes hold its row.
            reps = flags * min(h * h // n + 1, max(2, _ROW_BYTES // n))
            size = len(reps)
            alive = -1
            built = set()  # the steps whose row _row has built at this n
            for r in residues:
                if n - r < r:
                    r = n - r
                # Byte a of the row is the flag of r*a mod n, one bit per byte.
                if r * h < size:
                    row = reps[: r * h + 1 : r]
                elif r in built:
                    continue  # two speeds fold to one step: its row is in alive
                else:
                    built.add(r)
                    row = _row(reps, n, r, h)
                alive &= int.from_bytes(row, "little")
                if not alive:
                    break
            survivors = alive.to_bytes(h + 1, "little")
        a = survivors.find(1)
        while a > 0:
            num = n
            limit = best_num * n
            for s in members:
                r = s * a % n
                if n - r < r:
                    r = n - r
                if r < num:
                    num = r
                    if num * best_den < limit:
                        break  # strictly below the incumbent; skip
            else:
                scaled = num * best_den
                if scaled > limit or (scaled == limit and a * best_den < best_a * n):
                    best_num, best_den, best_a = num, n, a
            a = survivors.find(1, a + 1)

    g = gcd(best_a, best_den)  # g divides every residue s*a mod n, so num too
    return best_num // g, best_den // g, best_a // g


def gap_grid_oracle(speeds: Iterable[int], resolution: int) -> Fraction:
    """Maximum of f_S over the uniform grid {m/N : 0 <= m < N}, N = resolution.

    Independent of the candidate enumeration above.  Since f_S is piecewise
    linear with slopes bounded by the largest speed, the grid value brackets
    the true gap:  oracle <= delta(S) <= oracle + s_max/(2N).  N runs from
    2 * s_max to 2**22: the scan holds a few arrays of N integers, and it
    multiplies in int64, where s_max * (N - 1) < N**2 / 2 <= 2**43 fits.
    """
    members = SpeedSet(speeds)
    s_max = members[-1]
    n = _check_count(resolution, "resolution", least=2 * s_max, most=_MAX_PAIR_SUM)
    grid = np.arange(n, dtype=np.int64)
    low: np.ndarray | None = None
    for s in members:
        r = (s * grid) % n
        np.minimum(r, n - r, out=r)
        low = r if low is None else np.minimum(low, r)
    return Fraction(int(low.max()), n)


@dataclass(frozen=True)
class LonelyReport:
    """Loneliest moment for one runner against the rest of the field.

    ``min_separation`` is the exact maximum over time of the smallest track
    distance from the focus runner to any other; ``lonely`` states whether
    that reaches 1/n for n runners.  ``separation_floor`` is the guaranteed
    per-instance floor 1/(2(n-1)).
    """

    all_speeds: tuple[int, ...]
    focus_index: int
    loneliest_time: Fraction
    min_separation: Fraction
    lonely: bool
    separation_floor: Fraction


def lonely_time(speeds: Sequence[int], focus: int) -> LonelyReport:
    """Exact loneliest time for ``speeds[focus]`` among n >= 2 runners.

    Works on the difference set {|s_j - s_focus|}: the focus runner is at
    distance ||(s_j - s_focus) t|| from runner j, so its best separation is
    the gap of the differences.
    """
    return _lonely(speeds, focus, exact_gap)


def _lonely(speeds: Sequence[int], focus: int, gap_of: GapEngine) -> LonelyReport:
    """:func:`lonely_time` with the gap of the differences taken by ``gap_of``."""
    runners = tuple(speeds)
    n = len(runners)
    if n < 2:
        raise ValueError("need at least two runners")
    for s in runners:
        _check_count(s, "runner speed", least=0)
    if len(set(runners)) != n:
        raise ValueError("runner speeds must be distinct")
    _check_count(focus, "focus", least=0, most=n - 1)
    diffs = SpeedSet(abs(s - runners[focus]) for i, s in enumerate(runners) if i != focus)
    cert = gap_of(diffs)
    return LonelyReport(
        all_speeds=runners,
        focus_index=focus,
        loneliest_time=cert.witness_time,
        min_separation=cert.delta,
        lonely=cert.delta >= Fraction(1, n),
        separation_floor=Fraction(1, 2 * (n - 1)),
    )


@dataclass(frozen=True)
class LrcSweepReport:
    """Result of exhaustively checking delta >= 1/(k+1) over a speed range."""

    k: int
    max_speed: int
    bound: Fraction
    checked: int
    tight: tuple[tuple[int, ...], ...]
    counterexamples: tuple[tuple[int, ...], ...]


_BLOCK = 4096  # columns per transpose, bounding the transient strings
# Unhit columns whose near sets prune the walk's last speed.  Measured in
# verify_lrc: cap 1 took (7,60) 0.37 -> 0.53 s, no cap (2,400) 0.10 -> 4.2 s.
_AND_COLUMNS = 8


def _columns(k: int, max_speed: int) -> tuple[list[int], list[int]]:
    """The witness columns for the k-subsets of {1..max_speed}, one per
    local maximum of the far set over time: ``(far_rows, columns)``.

    With c = k + 1, speed s is far at time t when ||s*t|| > 1/c and near
    otherwise.  On 0 < t < 1/2 its far set changes only at the breakpoints
    t = x/(s*c) with x = 1 or c - 1 mod c and 2x < s*c: the speed turns far
    at x = 1 mod c and near again at x = -1 mod c.  Between two consecutive
    distinct breakpoints, and from the last one up to 1/2, the far set is
    constant on an open interval, and any rational a/n inside it is a
    witness time: every speed of that far set F has ||s*a/n|| > 1/c, so
    every subset of F has delta > 1/(k+1).  Conversely, if delta(S) > 1/c
    the open set {t : min ||s*t|| > 1/c} is not empty; by the symmetry
    t -> 1 - t it meets (0, 1/2] off the finitely many breakpoints, inside
    one such interval, whose far set contains S.  So these far sets witness
    exactly the sets with delta > 1/(k+1).

    The breakpoints are sorted exactly, in integers: two distinct values
    x/s, x'/s' with s, s' <= max_speed differ by at least 1/max_speed**2,
    so the key ``x * K // s`` with K = 2*max_speed**2 keeps their order and
    gives equal breakpoints equal keys.  All the toggles of one key are
    applied together, since a mask between coincident breakpoints is the
    far set of no interval.  An interval is kept only when the breakpoint
    before it added a speed and the one after it removed one (the last
    interval: when the last breakpoint added one); any other lies inside a
    neighbour's far set.  Each distinct far set with at least k members is
    one column, and the columns are ordered by far count, largest first,
    so that column 0 has the smallest near set.  Entry s of ``far_rows`` is
    the bitset of the columns in which s is far (entry 0 is unused); entry
    j of ``columns`` is the bitset of the speeds far in column j, speed s
    at bit max_speed - s.

    There are O(max_speed**2) columns, so the rows hold O(max_speed**3)
    bits; they are transposed from strings of flags, a block of columns at
    a time, not bit by bit.  For k = 1 no speed is ever farther than 1/2,
    so there is no column and the scan is skipped.
    """
    far_rows = [0] * (max_speed + 1)
    if k == 1:
        return far_rows, []
    c = k + 1
    scale = 2 * max_speed * max_speed
    shift = max_speed.bit_length()
    # One int per breakpoint: its key, then the bit of its speed.
    points = [
        x * scale // s << shift | max_speed - s
        for s in range(1, max_speed + 1)
        for first in (1, c - 1)
        for x in range(first, (s * c + 1) // 2, c)
    ]
    points.sort()
    low = (1 << shift) - 1
    distinct = set()
    # far is the far set so far, before the far set of the interval before
    # the key at last, and rose whether the key ahead of that interval
    # added a speed.
    far = before = rose = 0
    last = -1
    for point in points:
        key = point >> shift
        if key != last:
            # The key at last is complete: keep the interval before it if
            # it rose into that interval and falls out of it here.
            if rose and before & ~far:
                distinct.add(before)
            rose = far & ~before
            before = far
            last = key
        far ^= 1 << (point & low)
    if rose and before & ~far:
        distinct.add(before)
    if far & ~before:
        distinct.add(far)  # the last interval, up to 1/2
    del points
    # Far count ascending, so the last column, with the smallest near set,
    # becomes bit 0 of the rows; ties go by mask, not by the set's order.
    masks = sorted((mask for mask in distinct if mask.bit_count() >= k), reverse=True)
    del distinct  # the masks now hold the columns; free the set before the transpose
    masks.sort(key=int.bit_count)
    width = f"0{max_speed}b"
    for i in range(0, len(masks), _BLOCK):
        # Transpose: char s-1 of each column, in column order, is row s.
        block = "".join([format(mask, width) for mask in masks[i : i + _BLOCK]])
        size = len(block) // max_speed
        for s in range(1, max_speed + 1):
            far_rows[s] = far_rows[s] << size | int(block[s - 1 :: max_speed], 2)
    masks.reverse()
    return far_rows, masks


def sweep(k: int, max_speed: int) -> Iterator[tuple[tuple[int, ...], bool]]:
    """Yield (S, tight) for the gcd-1 k-subsets S of {1..max_speed} with
    delta(S) <= 1/(k+1), in lexicographic order: ``tight`` is whether
    delta(S) == 1/(k+1), and otherwise delta(S) < 1/(k+1).

    Every other gcd-1 set has a witness: it lies inside the far set of a
    column of :func:`_columns`, the speeds s with ||s*t|| > 1/(k+1) on one
    open interval of times t between breakpoints of that condition, so any
    rational a/n inside the interval proves delta(S) > 1/(k+1).  The columns
    are complete: if delta(S) > 1/(k+1), the open set of times at which
    every speed of S is that far is not empty, and it meets (0, 1/2] inside
    such an interval.  So the sets without a witness are exactly those with
    delta(S) <= 1/(k+1).  Each of them is tested by :func:`_reaches` at the
    same breakpoints, for k + 1, which decides whether delta(S) is 1/(k+1);
    no exact search runs.

    A set has no witness exactly when it meets the near set of every
    column, so the sweep enumerates these hitting sets and visits no other.
    Depth first, it carries ``rows``, the columns the speeds chosen so far
    have not hit (the AND of their far rows), and ``pool``, the speeds still
    allowed.  It takes the lowest column of ``rows``, the one with the
    smallest near set, and branches on each of its near speeds in ``pool``,
    least first, dropping each from ``pool`` after its branch, so no set is
    reached twice.  A set the walk never reaches meets none of those near
    speeds, so it lies inside the far set of a branching column and is
    witnessed.  Once ``rows`` is 0, every completion from ``pool`` is
    witness-free.

    With one speed left to choose the walk does not recurse.  A speed s
    completes the set exactly when ``rows & far_rows[s]`` is 0, that is,
    when s is near in every unhit column.  The recursion would branch on
    the near speeds in ``pool`` of the lowest unhit column and keep those
    that pass this test, and every speed that passes is near in that
    column, so it finds exactly the speeds of ``pool`` that pass.  The last
    level therefore ANDs ``pool`` with the near sets of the first (up to)
    eight unhit columns, which drops only speeds that fail, stops once
    nothing is left, and then tests each speed that survives.

    The sets found are sorted, since the walk's own order need not be
    lexicographic.  Sets with a common factor are skipped: delta is
    invariant under scaling all speeds by a constant.
    """
    _check_count(k, "k")
    _check_count(max_speed, "max_speed", least=0, most=_MAX_SPEED)
    far_rows, columns = _columns(k, max_speed)
    found = []
    width = f"0{max_speed}b"  # speed s is char s-1, bit max_speed - s

    def walk(chosen, rows, pool, left):
        if rows == 0:
            rest = [s for s, bit in enumerate(format(pool, width), 1) if bit == "1"]
            found.extend(chosen + tail for tail in combinations(rest, left))
            return
        if left == 1:
            # The one-speed completions: near in every unhit column.
            near, unhit = pool, rows
            for _ in range(_AND_COLUMNS):
                near &= ~columns[(unhit & -unhit).bit_length() - 1]
                unhit &= unhit - 1
                if not near or not unhit:
                    break
            while near:
                low = near & -near
                s = max_speed + 1 - low.bit_length()
                if not rows & far_rows[s]:
                    found.append(chosen + (s,))
                near ^= low
            return
        branch = pool & ~columns[(rows & -rows).bit_length() - 1]  # its near speeds in the pool
        while branch and pool.bit_count() >= left:
            high = 1 << branch.bit_length() - 1  # the least speed first
            s = max_speed + 1 - high.bit_length()
            walk(chosen + (s,), rows & far_rows[s], pool ^ high, left - 1)
            pool ^= high
            branch ^= high

    walk((), (1 << len(columns)) - 1, (1 << max_speed) - 1, k)
    sets = sorted(tuple(sorted(s)) for s in found)
    return ((s, _reaches(s, k + 1)) for s in sets if gcd(*s) == 1)


def _reaches(speeds: Sequence[int], c: int) -> bool:
    """Whether delta(speeds) >= 1/c, for c >= 2, tested at the breakpoints
    of :func:`_columns` alone: the times x/(s*c) with s in ``speeds``,
    x = 1 or c - 1 mod c and 1 <= x <= s*c/2, at which speed s is exactly
    1/c from an integer.

    If delta >= 1/c, the closed set {t : f_S(t) >= 1/c} holds a maximizer
    but not t = 0, so an endpoint of its interval around the maximizer has
    f_S = 1/c there, which some speed s attains: the endpoint is such an
    x/(s*c), and by the symmetry t -> 1 - t one in (0, 1/2] exists.  At it
    every speed v has ||v*x/(s*c)|| >= 1/c, the integer test below.  The
    converse holds by evaluation.
    """
    for s in speeds:
        n = s * c
        for first in {1, c - 1}:
            for x in range(first, n // 2 + 1, c):
                for v in speeds:
                    r = v * x % n
                    if r < s or n - r < s:
                        break
                else:
                    return True
    return False


def _gcd1_subset_count(k: int, max_speed: int) -> int:
    """Number of k-subsets of {1..max_speed} with gcd 1.

    The k-subsets of the multiples of d number C(max_speed//d, k); those
    with gcd exactly d are what remains after removing the ones whose gcd
    is a larger multiple of d, counted from the largest d down.
    """
    exact = [0] * (max_speed // k + 1)
    for d in range(max_speed // k, 0, -1):
        exact[d] = comb(max_speed // d, k) - sum(exact[2 * d :: d])
    return exact[1]


def verify_lrc(k: int, max_speed: int) -> LrcSweepReport:
    """Check delta(S) >= 1/(k+1) for every gcd-1 k-subset of {1..max_speed},
    for 1 <= k <= 10 and k <= max_speed <= 2048.

    ``checked`` counts those sets in closed form (:func:`_gcd1_subset_count`);
    only the ones at or below the bound are enumerated, as hitting sets (see
    :func:`sweep`), and each is filed as tight or as a counterexample by the
    sweep's flag, so no exact gap is computed.  A counterexample is
    collected, not raised -- it would refute the conjecture.  Both lists come
    out in lexicographic order.
    """
    _check_count(k, "k", most=_MAX_K)
    _check_count(max_speed, "max_speed", least=k, most=_MAX_SPEED)
    bound = Fraction(1, k + 1)
    tight: list[tuple[int, ...]] = []
    bad: list[tuple[int, ...]] = []
    for s, reaches in sweep(k, max_speed):  # delta <= bound
        (tight if reaches else bad).append(s)
    checked = _gcd1_subset_count(k, max_speed)
    return LrcSweepReport(k, max_speed, bound, checked, tuple(tight), tuple(bad))


def check_kappa_bounds(speeds: Iterable[int]) -> tuple[Fraction, Fraction, bool]:
    """The lower bound 1/(2k) that every k-set meets, and 1/(k+1), the
    infimum over k-sets.

    Only the lower bound constrains each instance; {1, ..., k} attains the
    infimum.  Returns (lower, upper, lower <= delta(S)).
    """
    return kappa_bounds(exact_gap(speeds))


def kappa_bounds(cert: GapCertificate) -> tuple[Fraction, Fraction, bool]:
    """:func:`check_kappa_bounds` for a set whose gap is already computed."""
    k = len(cert.speeds)
    lower = Fraction(1, 2 * k)
    return lower, Fraction(1, k + 1), cert.delta >= lower
