"""Finite-field certification of gap lower bounds and invisible-runner
subset extraction.

Everything here rests on one object, the band witness ``(n, x, m)``: a
modulus n, a multiplier x and a band radius m such that every residue
x*s mod n lies strictly between m and n - m.  At time x/n each speed then
has ||s*x/n|| >= (m+1)/n, so delta(S) >= (m+1)/n; n need not be prime.
The least radius that certifies a bound b is ``BandWitness.radius(n, b)``,
ceil(n*b) - 1: b = 1/(k+1) for a k-speed set here, b = (1 - alpha)/2 for a
cube hit at scale alpha in :mod:`~lonelyrunner.viewobstruct`.

``invisible_subset`` works modulo a prime p that divides no speed.  A
counting argument over the k x (p-1) residue matrix guarantees multipliers
whose column meets a small band in at most d places, which is what lets d
runners be dropped while boosting the certified gap of the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Iterable, NamedTuple, Optional

from .arith import SpeedSet, _check_count, is_prime, next_prime_not_dividing
from .gap import exact_gap

__all__ = [
    "BandWitness",
    "SubsetCertificate",
    "PrimeBudgetExhausted",
    "residue_matrix_scan",
    "invisible_subset",
    "conj34_witness",
]


class PrimeBudgetExhausted(RuntimeError):
    """The subset search ran out of admissible primes below its budget.

    This signals the budget was too small for the instance, never a
    refutation: larger primes always certify eventually.
    """


class BandWitness(NamedTuple):
    """Modulus n, multiplier x and band radius m.

    The witness holds for the speeds it :meth:`avoids`: every residue
    x*s mod n lies strictly between m and n - m, so delta over those speeds
    is at least :attr:`bound` = (m+1)/n.
    """

    n: int
    x: int
    m: int

    @staticmethod
    def radius(n: int, bound: Fraction) -> int:
        """The least m whose bound (m+1)/n reaches ``bound``: ceil(n*bound) - 1."""
        return ceil(n * bound) - 1

    @classmethod
    def at_time(cls, t: Fraction, bound: Fraction) -> "BandWitness":
        """The witness at time t = x/n (in lowest terms, x mod n) that certifies ``bound``."""
        n = t.denominator
        return cls(n, t.numerator % n, cls.radius(n, bound))

    @property
    def bound(self) -> Fraction:
        return Fraction(self.m + 1, self.n)

    def residues(self, speeds: Iterable[int]) -> tuple[int, ...]:
        return tuple(self.x * s % self.n for s in speeds)

    def far(self, speeds: Iterable[int]) -> tuple[int, ...]:
        """The speeds whose residue x*s mod n stays outside the band."""
        n, x, m = self
        return tuple(s for s in speeds if m < x * s % n < n - m)

    def avoids(self, speeds: Iterable[int]) -> bool:
        speeds = tuple(speeds)
        return self.far(speeds) == speeds


def _require_admissible(p: int, speeds: SpeedSet) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    for s in speeds:
        if s % p == 0:
            raise ValueError(f"prime {p} divides speed {s}")


def residue_matrix_scan(
    speeds: Iterable[int], p: int, m: int, d: int
) -> Optional[int]:
    """Smallest x in 1..p-1 whose residue column meets the band +/-{1..m}
    at most d times.

    The column for x in the k x (p-1) matrix (j * s_i mod p) is the residue
    set x*S.  Existence is guaranteed whenever 2m <= p(d+1)/(k+eps) for
    some eps > 0 with p > k/eps + 1; outside that regime None is possible.
    """
    sset = SpeedSet(speeds)
    _require_admissible(p, sset)
    _check_count(m, "m", least=0, most=(p - 1) // 2)
    _check_count(d, "d", least=0, most=len(sset))
    for x in range(1, p):
        if len(BandWitness(p, x, m).far(sset)) >= len(sset) - d:
            return x
    return None


_PRIME_BUDGET = 100_000  # invisible_subset's default, and lrc invisible's
# Trial division of a prime within this budget takes at most 2**19 steps.
_MAX_PRIME_BUDGET = 2**40


@dataclass(frozen=True)
class SubsetCertificate:
    """A kept subset, its exact gap ``kept_delta`` and the ``bound`` (d+1)/(2k).

    The band witness (p, x, m) decides the rest by one rule,
    :meth:`from_witness`, which ``invisible_subset`` and ``lrc check`` both
    apply: ``kept`` is exactly ``witness.far(original)``.  The witness's
    weaker bound (m+1)/p is what the prime-side argument certifies;
    ``invisible_subset`` returns a certificate only when its at least k-d
    kept speeds reach ``bound``.
    """

    original: SpeedSet
    kept: SpeedSet
    removed: tuple[int, ...]
    d: int
    bound: Fraction
    kept_delta: Fraction
    witness: BandWitness

    @classmethod
    def from_witness(cls, speeds: SpeedSet, d: int, witness: BandWitness) -> "SubsetCertificate":
        """The certificate ``witness`` decides; its far set must not be empty."""
        kept = SpeedSet(witness.far(speeds))
        removed = tuple(s for s in speeds if s not in kept)
        bound = Fraction(d + 1, 2 * len(speeds))
        return cls(speeds, kept, removed, d, bound, exact_gap(kept).delta, witness)


def _subset_inputs(speeds: Iterable[int], d: int, prime_budget: int) -> tuple[SpeedSet, int, int]:
    """The one reading of a subset search's inputs, for ``invisible_subset``
    and ``lrc check``: d from 0 to k - 1, then a budget from 1 to 2**40."""
    sset = SpeedSet(speeds)
    _check_count(d, "d", least=0, most=len(sset) - 1)
    _check_count(prime_budget, "prime_budget", most=_MAX_PRIME_BUDGET)
    return sset, d, prime_budget


def invisible_subset(
    speeds: Iterable[int], d: int, prime_budget: int = _PRIME_BUDGET
) -> SubsetCertificate:
    """Drop up to d speeds so the remaining gap reaches (d+1)/(2k).

    Runs the shrinking schedule eps_n = k/2^n: for each step take the
    smallest admissible prime p > k/eps_n + 1, band radius
    m = floor(p(d+1) / (2(k+eps_n))), find a multiplier whose column has at
    most d band hits, and keep the speeds that avoided the band.  The first
    kept set whose exact gap reaches the target is returned.  Raises
    :class:`PrimeBudgetExhausted` when the next prime would exceed the
    budget.  A budget below 1 or above 2**40 is refused.
    """
    sset, d, prime_budget = _subset_inputs(speeds, d, prime_budget)
    k = len(sset)
    step = 1
    while True:
        eps = Fraction(k, 2 ** step)
        # Threshold k/eps + 1 = 2^step + 1, exceeded strictly.
        p = next_prime_not_dividing(2 ** step + 2, sset)
        if p > prime_budget:
            raise PrimeBudgetExhausted(
                f"no certifying prime <= {prime_budget} for {sset} with d={d}"
            )
        # m = floor(p(d+1) / (2(k+eps))) with eps = k/2^step, in integers.
        m = (p * (d + 1) * 2 ** step) // (2 * k * (2 ** step + 1))
        assert Fraction(m + 1, p) >= Fraction(d + 1, 1) / (2 * (k + eps))
        x = residue_matrix_scan(sset, p, m, d)
        assert x is not None, "counting bound guarantees a multiplier here"
        cert = SubsetCertificate.from_witness(sset, d, BandWitness(p, x, m))
        if cert.kept_delta >= cert.bound:
            return cert
        step += 1


def conj34_witness(speeds: Iterable[int]) -> Optional[BandWitness]:
    """Band witness (n, x, m) certifying delta(S) >= 1/(k+1).

    Takes n = s_i + s_j and x = a from the exact-gap witness pair, with the
    least radius m that certifies 1/(k+1); the residues avoid the band exactly
    because delta(S) >= 1/(k+1).  Returns None when delta(S) < 1/(k+1),
    which would refute the conjecture.  The modulus n need not be prime; the
    check is plain modular arithmetic.
    """
    sset = SpeedSet(speeds)
    k = len(sset)
    if k < 2:
        raise ValueError("need at least two speeds")
    cert = exact_gap(sset)
    if cert.delta < Fraction(1, k + 1):
        return None
    i, j, a = cert.witness_pair
    n = sset[i] + sset[j]
    witness = BandWitness(n, a % n, BandWitness.radius(n, Fraction(1, k + 1)))
    if not witness.avoids(sset):
        raise ArithmeticError(f"a residue of {sset} entered the band of {witness}")
    return witness
