"""View obstruction by scaled cubes centered at the half-integer lattice.

For a ray r(t) = (a_1 t, ..., a_k t) through the positive orthant, the
smallest cube scale that the ray cannot avoid is 1 - 2*delta over the set of
coordinate values: the ray point is within alpha/2 of a cube center in every
coordinate exactly when min_i ||a_i t|| >= (1 - alpha)/2.  At t = x/n that
is a :class:`~lonelyrunner.fieldsearch.BandWitness` (n, x, m) over the
coordinates, with m = ``BandWitness.radius(n, (1 - alpha)/2)``.  Everything
here is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional

from .arith import SpeedSet, _check_count, _unit_scale
from .fieldsearch import BandWitness
from .gap import _MAX_K, _MAX_SPEED, GapCertificate, exact_gap, sweep

__all__ = [
    "KPrimeScanReport",
    "primitive_direction",
    "min_scale_for_direction",
    "obstruction_witness",
    "kprime_scan",
]


def primitive_direction(coords: Iterable[int]) -> tuple[int, ...]:
    """A rational ray direction as a coprime tuple of positive integers: the
    coordinates divided by their gcd."""
    items = tuple(coords)
    if not items:
        raise ValueError("direction must have at least one coordinate")
    for c in items:
        _check_count(c, "direction coordinate")
    g = gcd(*items)
    return tuple(c // g for c in items)


def min_scale_for_direction(direction: Iterable[int]) -> Fraction:
    """Infimum of cube scales obstructing the ray; equals 1 - 2*delta."""
    return 1 - 2 * exact_gap(SpeedSet(primitive_direction(direction))).delta


def obstruction_witness(
    direction: Iterable[int], alpha, cert: Optional[GapCertificate] = None
) -> Optional[BandWitness]:
    """Band witness (n, x, m) of a cube hit at scale alpha, or None below the
    minimal scale.

    The hit time x/n is the exact-gap witness of the collapsed coordinate
    set: there the smallest torus norm equals delta >= (1 - alpha)/2.  Cubes
    are closed, so grazing the boundary counts.  ``cert`` is that set's
    :func:`~lonelyrunner.gap.exact_gap`, computed here when not given.
    """
    speeds = SpeedSet(primitive_direction(direction))
    alpha = _unit_scale(alpha)
    if cert is None:
        cert = exact_gap(speeds)
    if alpha < 1 - 2 * cert.delta:
        return None
    witness = BandWitness.at_time(cert.witness_time, (1 - alpha) / 2)
    if not witness.avoids(speeds):
        raise ArithmeticError("witness time failed the cube containment check")
    return witness


@dataclass(frozen=True)
class KPrimeScanReport:
    """Supremum of the per-direction minimal scale over a coordinate box."""

    k: int
    max_coord: int
    observed_sup: Fraction
    extremal: tuple[int, ...]
    matches_conjecture: bool
    cap: Fraction


def kprime_scan(k: int, max_coord: int) -> KPrimeScanReport:
    """Supremum of minimal obstruction scales over all directions with
    coordinates up to ``max_coord``.

    A direction's scale is 1 - 2*delta of its set of coordinate values, and
    adding a value never raises delta, so the supremum is 1 - 2*min delta(S)
    over the gcd-1 k-subsets S of {1..max_coord} (2 <= k <= 10 and
    k <= max_coord <= 2048), taken from the shared
    :func:`~lonelyrunner.gap.sweep`.  The sweep yields only the
    sets with delta <= 1/(k+1); the others cannot win, since the box always
    holds {1, ..., k}, whose delta is exactly 1/(k+1).  A set the sweep flags
    tight has delta 1/(k+1); only a set below it gets its exact gap, and no
    k <= 6 box has one.  With none, the result is the first set yielded,
    {1, ..., k}.  The observed supremum
    can never exceed (k-1)/k; the report states whether it equals the
    conjectured value (k-1)/(k+1), attained by the direction (1, 2, ..., k).

    Ties break to the lexicographically smallest k-set, for every k.  For
    k <= 7 this is also the lexicographically smallest direction among all
    ordered k-tuples with repetition.  By the seven-runner theorem a set of
    j <= 6 values has delta >= 1/(j+1), so a set of fewer than k <= 7
    values cannot tie the minimum, which is at most delta({1..k}) =
    1/(k+1); and the smallest ordering of a set is its sorted one.  For
    k >= 8 that argument needs sets of seven or more values, which the
    theorem does not cover, so only the k-set statement is claimed there.
    """
    _check_count(k, "k", least=2, most=_MAX_K)
    _check_count(max_coord, "max_coord", least=k, most=_MAX_SPEED)
    bound = Fraction(1, k + 1)
    found = ((s, bound if tight else exact_gap(s).delta) for s, tight in sweep(k, max_coord))
    coords, delta = min(found, key=lambda item: item[1])
    best = 1 - 2 * delta
    cap = Fraction(k - 1, k)
    if best > cap:
        raise ArithmeticError(f"observed supremum {best} exceeds the cap {cap}")
    return KPrimeScanReport(
        k=k,
        max_coord=max_coord,
        observed_sup=best,
        extremal=coords,
        matches_conjecture=best == Fraction(k - 1, k + 1),
        cap=cap,
    )
