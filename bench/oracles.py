"""Reference computations the benchmark checks the package against.

Nothing here imports ``lonelyrunner``.  Each function recomputes a claim by a
route of its own -- plain integer enumeration, closed forms, a Moebius count,
and a cell walk in Q(sqrt 3) that locates cells from floor coordinates rather
than from the package's exit-edge transitions -- so that a wrong answer in the
package cannot be mirrored by the check.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt
from typing import Iterable, Iterator, Optional

# ---------------------------------------------------------------------------
# Gap function
# ---------------------------------------------------------------------------


def norm(x: Fraction) -> Fraction:
    """Distance from ``x`` to the nearest integer."""
    r = x - (x.numerator // x.denominator)
    return min(r, 1 - r)


def value_at(speeds: Iterable[int], t: Fraction) -> Fraction:
    """min over s of ||s t||."""
    return min(norm(s * t) for s in speeds)


def delta(speeds: Iterable[int]) -> Fraction:
    """Exact sup_t min_s ||s t|| by enumerating every time a/n, where n runs
    over the distinct pairwise sums (and 2s for a single speed)."""
    members = sorted(set(speeds))
    if len(members) == 1:
        return Fraction(1, 2)
    dens = {a + b for i, a in enumerate(members) for b in members[i + 1 :]}
    best_num, best_den = 0, 1
    for n in sorted(dens):
        for a in range(1, n):
            low = n
            for s in members:
                r = s * a % n
                r = min(r, n - r)
                if r < low:
                    low = r
                    if low * best_den <= best_num * n:
                        break
            else:
                best_num, best_den = low, n
    return Fraction(best_num, best_den)


def dirichlet_delta(n: int) -> Fraction:
    """Closed form delta({1..n}) = 1/(n+1)."""
    return Fraction(1, n + 1)


def pair_delta(a: int, b: int) -> Fraction:
    """Closed form delta({a, b}) = floor((a+b)/2)/(a+b) for coprime a != b."""
    return Fraction((a + b) // 2, a + b)


def moebius_upto(n: int) -> list[int]:
    mu = [1] * (n + 1)
    prime = [True] * (n + 1)
    for p in range(2, n + 1):
        if prime[p]:
            for m in range(p, n + 1, p):
                prime[m] = m == p
                mu[m] = -mu[m]
            for m in range(p * p, n + 1, p * p):
                mu[m] = 0
    return mu


def count_gcd1_subsets(max_speed: int, k: int) -> int:
    """Number of k-subsets of {1..M} with gcd 1: sum_d mu(d) C(M//d, k)."""
    mu = moebius_upto(max_speed)
    return sum(mu[d] * comb(max_speed // d, k) for d in range(1, max_speed + 1))


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, isqrt(n) + 1))


# ---------------------------------------------------------------------------
# Q(sqrt 3): pairs (a, b) meaning a + b*sqrt3, a and b Fractions
# ---------------------------------------------------------------------------

Q = tuple[Fraction, Fraction]


def q(a=0, b=0) -> Q:
    return (Fraction(a), Fraction(b))


def q_add(x: Q, y: Q) -> Q:
    return (x[0] + y[0], x[1] + y[1])


def q_sub(x: Q, y: Q) -> Q:
    return (x[0] - y[0], x[1] - y[1])


def q_mul(x: Q, y: Q) -> Q:
    return (x[0] * y[0] + 3 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def q_scale(c: Fraction, x: Q) -> Q:
    return (c * x[0], c * x[1])


def q_inv(x: Q) -> Q:
    n = x[0] * x[0] - 3 * x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def q_sign(x: Q) -> int:
    """Exact sign of a + b*sqrt3, from sign(a)*a^2 + sign(b)*3b^2."""
    a, b = x
    return _signum(_signum(a) * a * a + _signum(b) * 3 * b * b)


def _signum(v) -> int:
    return (v > 0) - (v < 0)


def q_floor(x: Q) -> int:
    """Exact floor of a + b*sqrt3."""
    guess = int(float(x[0]) + float(x[1]) * 3 ** 0.5) - 2
    while q_sign(q_sub(x, q(guess + 1))) >= 0:
        guess += 1
    return guess


# ---------------------------------------------------------------------------
# Triangle tiling
# ---------------------------------------------------------------------------

_H = q(0, Fraction(1, 2))  # row height sqrt3/2


def cell_vertices(row: int, col: int, up: bool) -> tuple[Q, Q, Q]:
    """The three (x, y) corners of a wedge cell."""
    j, i = row, col
    base = Fraction(i) + Fraction(j, 2)
    lo, hi = q_scale(Fraction(j), _H), q_scale(Fraction(j + 1), _H)
    if up:
        return ((q(base), lo), (q(base + 1), lo), (q(base + Fraction(1, 2)), hi))
    return ((q(base + 1), lo), (q(base + Fraction(1, 2)), hi), (q(base + Fraction(3, 2)), hi))


def contact(slope: Q, row: int, col: int, up: bool, alpha: Fraction) -> Optional[bool]:
    """None if y = slope*x misses the alpha-scaled cell (scaled about its
    centroid); otherwise whether the contact only grazes."""
    verts = cell_vertices(row, col, up)
    cx = q_scale(Fraction(1, 3), q_add(q_add(verts[0][0], verts[1][0]), verts[2][0]))
    cy = q_scale(Fraction(1, 3), q_add(q_add(verts[0][1], verts[1][1]), verts[2][1]))
    signs = []
    for vx, vy in verts:
        px = q_add(cx, q_scale(alpha, q_sub(vx, cx)))
        py = q_add(cy, q_scale(alpha, q_sub(vy, cy)))
        signs.append(q_sign(q_sub(q_mul(slope, px), py)))
    if min(signs) > 0 or max(signs) < 0:
        return None
    return min(signs) >= 0 or max(signs) <= 0


def walk(slope: Q) -> Iterator[tuple[int, int, bool]]:
    """Cells crossed by the ray y = slope*x, 0 < slope < sqrt3, in order.

    The tiling lines are the integer level sets of u1 = 2y/sqrt3,
    u2 = x - y/sqrt3 and u3 = x + y/sqrt3.  Between consecutive crossings of
    any of them the ray stays in one cell, identified from the floors of the
    u's at the midpoint: row floor(u1), column floor(u2), pointing up exactly
    when floor(u3) = row + column.
    """
    inv_sqrt3 = q(0, Fraction(1, 3))
    slope_over_sqrt3 = q_mul(slope, inv_sqrt3)
    rates = (
        q_scale(Fraction(2), slope_over_sqrt3),
        q_sub(q(1), slope_over_sqrt3),
        q_add(q(1), slope_over_sqrt3),
    )
    inverses = [q_inv(g) for g in rates]
    levels = [1, 1, 1]
    prev = q(0)
    while True:
        nxt = [q_scale(Fraction(levels[f]), inverses[f]) for f in range(3)]
        x = nxt[0]
        for cand in nxt[1:]:
            if q_sign(q_sub(cand, x)) < 0:
                x = cand
        mid = q_scale(Fraction(1, 2), q_add(prev, x))
        u1, u2, u3 = (q_floor(q_mul(g, mid)) for g in rates)
        yield u1, u2, u3 == u1 + u2
        for f in range(3):
            if q_sign(q_sub(nxt[f], x)) == 0:
                levels[f] += 1
        prev = x


def first_contact(slope: Q, alpha: Fraction, horizon: int):
    """(index, (row, col, up), grazing) of the first contact within the
    horizon, or None."""
    for index, cell in enumerate(walk(slope)):
        if index >= horizon:
            return None
        hit = contact(slope, *cell, alpha)
        if hit is not None:
            return index, cell, hit
    return None


def on_triangle_boundary(x: Q, y: Q) -> bool:
    """Point lies on a side of the table with corners (0,0), (1,0), (1/2, sqrt3/2)."""
    sqrt3 = q(0, 1)
    if q_sign(q_sub(x, q(0))) < 0 or q_sign(q_sub(q(1), x)) < 0 or q_sign(y) < 0:
        return False
    on_base = q_sign(y) == 0
    on_left = q_sign(q_sub(y, q_mul(sqrt3, x))) == 0
    on_right = q_sign(q_sub(y, q_mul(sqrt3, q_sub(q(1), x)))) == 0
    return on_base or on_left or on_right


def square_min_obstacle(p: int, q_: int) -> Fraction:
    """Minimal centered obstacle met by every path of slope p/q (coprime,
    p != q): 1 - 2*delta({p, q}) = ((p+q) mod 2)/(p+q)."""
    return 1 - 2 * pair_delta(p, q_)
