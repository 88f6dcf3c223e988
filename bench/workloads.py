"""The benchmark's three workloads: seeded inputs, timed calls, and checks.

A workload is a list of operations, one *round*.  An operation produces one
certificate document through the package's public functions and then checks
it, and those two calls are the only timed code.  ``verify`` then judges the
outputs against :mod:`oracles` and against properties the method must have,
never against a stored copy of earlier output.

The seed picks the inputs (and, for ``sweep``, whose sizes are a fixed
ladder, the operation order and the sets whose gap is recomputed), so every
seed gives a round of about the same cost.
"""

from __future__ import annotations

import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable

import oracles
from lonelyrunner import billiards, certificates, cli, gap, viewobstruct
from lonelyrunner.arith import QuadExt

F = Fraction


@dataclass
class Op:
    """One operation.  ``produce`` returns the document text and ``check``
    the raw outcome of checking it; those two are timed.  ``verify(text)``
    and ``verdict(checked)`` return the problems found in each (empty when
    the outputs are right)."""

    key: str
    produce: Callable[[], str]
    check: Callable[[str], object]
    verify: Callable[[str], list[str]]
    verdict: Callable[[object], list[str]]


def _rational(value) -> Fraction:
    return F(value["num"], value["den"])


def _quad(value) -> oracles.Q:
    return (_rational(value["a"]), _rational(value["b"]))


def _expect(problems: list[str], condition: bool, message: str) -> None:
    if not condition:
        problems.append(message)


# ---------------------------------------------------------------------------
# Calls into the package.  Every call goes through a module attribute so that
# the traced run's wrappers see it.
# ---------------------------------------------------------------------------


def _check_document(text: str) -> list[str]:
    return certificates.validate_document(certificates.parse(text))


def _check_verdict(checked) -> list[str]:
    return [f"check reported: {issue}" for issue in checked]


class CommandFailed(RuntimeError):
    """A CLI invocation exited nonzero."""


def _run_cli(argv: list[str], stdin_text: str | None = None) -> str:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        code = cli.run(argv, out=out, err=err)
    finally:
        sys.stdin = saved
    if code != 0:
        raise CommandFailed(f"lrc {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _cli_check(text: str) -> str:
    return _run_cli(["check", "-"], stdin_text=text)


def _cli_check_verdict(report_text: str) -> list[str]:
    result = json.loads(report_text)["result"]
    if result["valid"] is not True or result["issues"]:
        return [f"check reported: {result['issues']}"]
    return []


# ---------------------------------------------------------------------------
# sweep: verify_lrc and kprime_scan over a fixed ladder of sizes
# ---------------------------------------------------------------------------

# (k, max_speed) for verify_lrc; k <= 6 is where the seven-runner theorem
# guarantees delta >= 1/(k+1), so a counterexample is a program fault.
VERIFY_LADDER = (
    [(3, m) for m in (10, 14, 18, 22)]
    + [(4, m) for m in range(8, 18)]
    + [(5, m) for m in range(7, 14)]
    + [(6, m) for m in range(7, 12)]
)
# (k, max_coord) for kprime_scan.
KSCAN_LADDER = [(3, m) for m in range(4, 15)] + [(4, m) for m in (4, 5, 6)]
SWEEP_SAMPLE = 8  # non-listed sets per sweep whose gap is recomputed


def verify_sweep(k: int, max_speed: int, doc: dict, rng: random.Random) -> list[str]:
    problems: list[str] = []
    res = doc["result"]
    bound = F(1, k + 1)
    _expect(problems, doc["inputs"] == {"k": k, "max_speed": max_speed}, "inputs not echoed")
    _expect(problems, _rational(res["bound"]) == bound, "bound is not 1/(k+1)")
    expected = oracles.count_gcd1_subsets(max_speed, k)
    _expect(problems, res["checked"] == expected, f"checked {res['checked']} != {expected} gcd-1 sets")
    _expect(problems, res["counterexamples"] == [], "counterexample below the seven-runner bound")
    tight = [tuple(s) for s in res["tight"]]
    _expect(problems, tight == sorted(set(tight)), "tight list not sorted and distinct")
    _expect(problems, tuple(range(1, k + 1)) in tight, "tight list misses {1..k}")
    for s in tight:
        ok = (
            len(s) == k
            and list(s) == sorted(set(s))
            and 1 <= s[0]
            and s[-1] <= max_speed
            and gcd(*s) == 1
            and oracles.delta(s) == bound
        )
        _expect(problems, ok, f"listed tight set {s} is not a tight gcd-1 k-set")
    listed = set(tight)
    drawn = 0
    while drawn < SWEEP_SAMPLE:
        s = tuple(sorted(rng.sample(range(1, max_speed + 1), k)))
        if gcd(*s) != 1:
            continue
        drawn += 1
        d = oracles.delta(s)
        _expect(problems, d >= bound, f"{s} has delta {d} below the bound")
        _expect(problems, (d == bound) == (s in listed), f"tight list wrong about {s}")
    return problems


def verify_kscan(k: int, max_coord: int, doc: dict) -> list[str]:
    problems: list[str] = []
    res = doc["result"]
    sup = _rational(res["observed_sup"])
    _expect(problems, doc["inputs"] == {"k": k, "max_coord": max_coord}, "inputs not echoed")
    _expect(problems, sup == F(k - 1, k + 1), f"supremum {sup} is not (k-1)/(k+1)")
    _expect(problems, res["matches_conjecture"] is True, "conjecture flag not set")
    _expect(problems, _rational(res["cap"]) == F(k - 1, k), "cap is not (k-1)/k")
    ext = res["extremal"]
    ok = len(ext) == k and all(1 <= c <= max_coord for c in ext) and gcd(*ext) == 1
    _expect(problems, ok, f"extremal direction {ext} outside the box")
    if ok:
        _expect(problems, 1 - 2 * oracles.delta(ext) == sup, "extremal does not attain the supremum")
    return problems


def _verify_op(k: int, max_speed: int, sample_seed: int) -> Op:
    def produce() -> str:
        return certificates.serialize(certificates.verify_document(gap.verify_lrc(k, max_speed)))

    def verify(text: str) -> list[str]:
        return verify_sweep(k, max_speed, json.loads(text), random.Random(sample_seed))

    return Op(f"verify k={k} M={max_speed}", produce, _check_document, verify, _check_verdict)


def _kscan_op(k: int, max_coord: int) -> Op:
    def produce() -> str:
        report = viewobstruct.kprime_scan(k, max_coord)
        return certificates.serialize(certificates.kscan_document(report))

    def verify(text: str) -> list[str]:
        return verify_kscan(k, max_coord, json.loads(text))

    return Op(f"kscan k={k} M={max_coord}", produce, _check_document, verify, _check_verdict)


def build_sweep(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = [_verify_op(k, m, rng.randrange(2**32)) for k, m in VERIFY_LADDER]
    ops += [_kscan_op(k, m) for k, m in KSCAN_LADDER]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# instances: single-instance commands through cli.run, checked by lrc check
# ---------------------------------------------------------------------------


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def verify_gap_doc(speeds: list[int], doc: dict) -> list[str]:
    problems: list[str] = []
    res = doc["result"]
    members = sorted(set(speeds))
    d = _rational(res["delta"])
    t = _rational(res["witness_time"])
    _expect(problems, doc["inputs"]["speeds"] == members, "speeds not echoed")
    _expect(problems, d == oracles.delta(members), f"delta {d} is not the enumerated maximum")
    _expect(problems, 0 < t < 1 and oracles.value_at(members, t) == d, "delta not attained at the witness time")
    norms = [_rational(x) for x in res["per_speed_norms"]]
    _expect(problems, norms == [oracles.norm(s * t) for s in members], "per-speed norms wrong")
    if members == list(range(1, len(members) + 1)):
        _expect(problems, d == oracles.dirichlet_delta(len(members)), "delta({1..n}) != 1/(n+1)")
    if len(members) == 2 and gcd(*members) == 1:
        _expect(problems, d == oracles.pair_delta(*members), "delta({a,b}) closed form fails")
    return problems


def verify_lonely_doc(speeds: list[int], focus: int, doc: dict) -> list[str]:
    problems: list[str] = []
    res = doc["result"]
    n = len(speeds)
    diffs = [abs(s - speeds[focus]) for i, s in enumerate(speeds) if i != focus]
    sep = _rational(res["min_separation"])
    t = _rational(res["loneliest_time"])
    _expect(problems, sep == oracles.delta(diffs), "min_separation is not the gap of the differences")
    _expect(problems, oracles.value_at(diffs, t) == sep, "separation not attained at the loneliest time")
    _expect(problems, res["lonely"] == (sep >= F(1, n)), "lonely flag wrong")
    _expect(problems, _rational(res["separation_floor"]) == F(1, 2 * (n - 1)), "floor wrong")
    _expect(problems, sep >= F(1, 2 * (n - 1)), "separation below the floor")
    return problems


def verify_kappa_doc(speeds: list[int], doc: dict) -> list[str]:
    problems: list[str] = []
    res = doc["result"]
    k = len(speeds)
    d = oracles.delta(speeds)
    _expect(problems, _rational(res["lower"]) == F(1, 2 * k), "lower is not 1/(2k)")
    _expect(problems, _rational(res["upper"]) == F(1, k + 1), "upper is not 1/(k+1)")
    _expect(problems, _rational(res["delta"]) == d, "delta wrong")
    _expect(problems, res["holds"] is True and d >= F(1, 2 * k), "sandwich lower bound fails")
    return problems


def verify_obstruct_doc(direction: list[int], alpha: Fraction, doc: dict) -> list[str]:
    problems: list[str] = []
    res = doc["result"]
    g = gcd(*direction)
    coords = [c // g for c in direction]
    min_scale = 1 - 2 * oracles.delta(coords)
    _expect(problems, _rational(res["min_scale"]) == min_scale, "min_scale is not 1 - 2*delta")
    witness = res["witness"]
    if alpha < min_scale:
        _expect(problems, witness is None, "witness below the minimal scale")
        return problems
    if witness is None:
        return problems + ["no witness at an obstructing scale"]
    t = _rational(witness["hit_time"])
    centers = [_rational(c) for c in witness["cube_center"]]
    _expect(problems, len(centers) == len(coords), "cube center arity wrong")
    for c, center in zip(coords, centers):
        half_integer = (center - F(1, 2)).denominator == 1 and center > 0
        _expect(problems, half_integer and abs(c * t - center) * 2 <= alpha, f"ray leaves the cube in coordinate {c}")
    return problems


def verify_conj34_doc(speeds: list[int], doc: dict) -> list[str]:
    problems: list[str] = []
    res = doc["result"]
    n, x, m = res["n"], res["x"], res["m"]
    members = sorted(set(speeds))
    residues = [x * s % n for s in members]
    _expect(problems, res["residues"] == residues, "residues are not x*s mod n")
    _expect(problems, all(m < r < n - m for r in residues), "a residue enters the band")
    _expect(problems, F(m + 1, n) >= F(1, len(members) + 1), "band too narrow to certify 1/(k+1)")
    return problems


def verify_invisible_doc(speeds: list[int], d: int, doc: dict) -> list[str]:
    problems: list[str] = []
    res = doc["result"]
    members = sorted(set(speeds))
    k = len(members)
    kept, removed = res["kept"], res["removed"]
    _expect(problems, sorted(kept + removed) == members, "kept and removed do not partition the speeds")
    _expect(problems, len(kept) >= k - d, "more than d speeds dropped")
    target = F(d + 1, 2 * k)
    kept_delta = oracles.delta(kept)
    _expect(problems, _rational(res["bound"]) == target, "bound is not (d+1)/(2k)")
    _expect(problems, kept_delta >= target, "kept set does not reach (d+1)/(2k)")
    _expect(problems, _rational(res["kept_delta"]) == kept_delta, "kept_delta wrong")
    w = res["witness"]
    p, x, m = w["prime"], w["multiplier"], w["band"]
    _expect(problems, oracles.is_prime(p) and all(s % p for s in members), "witness prime inadmissible")
    residues = [x * s % p for s in kept]
    _expect(problems, w["residues"] == residues, "witness residues are not x*s mod p")
    _expect(problems, all(m < r < p - m for r in residues), "witness residue enters the band")
    return problems


def verify_square_doc(p: int, q: int, alpha: Fraction, segments: int, doc: dict) -> list[str]:
    problems: list[str] = []
    res = doc["result"]
    min_obstacle = oracles.square_min_obstacle(p, q)
    _expect(problems, _rational(res["min_obstacle"]) == min_obstacle, "min_obstacle is not 1 - 2*delta({p,q})")
    # The path's unfolding repeats after p + q crossings, so 2(p+q) segments
    # pass every obstacle the path ever meets.
    expected = "interior" if alpha > min_obstacle else "miss"
    _expect(problems, res["contact"] == expected, f"contact {res['contact']} at alpha {alpha}")
    path = [[[_rational(u) for u in pt] for pt in seg] for seg in res["path"]]
    _expect(problems, len(path) == segments, "segment count wrong")
    _expect(problems, path[0][0] == [0, 0], "path does not start at the origin")
    for seg, nxt in zip(path, path[1:]):
        _expect(problems, seg[1] == nxt[0], "path segments do not chain")
    for seg in path:
        for x, y in seg:
            _expect(problems, 0 <= x <= 1 and 0 <= y <= 1 and (x in (0, 1) or y in (0, 1)), "strike point off the table edge")
    return problems


def _cli_op(argv: list[str], judge: Callable[[dict], list[str]]) -> Op:
    def verify(text: str) -> list[str]:
        return judge(json.loads(text))

    return Op(" ".join(argv), lambda: _run_cli(argv), _cli_check, verify, _cli_check_verdict)


def _speeds_op(command: str, speeds: list[int], judge) -> Op:
    return _cli_op([command, "--speeds", _csv(speeds)], lambda doc: judge(speeds, doc))


def _coprime_pair(rng: random.Random, top: int) -> tuple[int, int]:
    while True:
        a, b = rng.sample(range(1, top + 1), 2)
        if gcd(a, b) == 1:
            return a, b


def _split_coprime(rng: random.Random, n: int) -> tuple[int, int]:
    """(p, q) with p + q = n and gcd(p, q) = 1, so that a square path of
    slope p/q repeats after n crossings whatever the seed."""
    p = rng.choice([p for p in range(1, n) if gcd(p, n) == 1 and 2 * p != n])
    return p, n - p


def _billiard_op(p: int, q: int, alpha: Fraction) -> Op:
    segments = 2 * (p + q)
    argv = ["billiard", "--slope", f"{p}/{q}", "--alpha", str(alpha), "--segments", str(segments)]
    return _cli_op(argv, lambda doc: verify_square_doc(p, q, alpha, segments, doc))


def _square_alpha(rng: random.Random, p: int, q: int) -> Fraction:
    """A scale strictly above or strictly below the path's minimal obstacle."""
    lo = oracles.square_min_obstacle(p, q)
    if lo > 0 and rng.random() < 0.5:
        return lo * F(rng.randint(1, 9), 10)
    return lo + (1 - lo) * F(rng.randint(1, 9), 10)


def build_instances(seed: int) -> list[Op]:
    """Sizes follow fixed ladders (``j % ...``) and only the values are
    drawn, so that every seed gives a round of about the same cost."""
    rng = random.Random(seed)
    ops: list[Op] = []
    for j in range(97):
        ops.append(_speeds_op("gap", sorted(rng.sample(range(1, 41), 2 + j % 5)), verify_gap_doc))
    for _ in range(40):
        ops.append(_speeds_op("gap", sorted(_coprime_pair(rng, 60)), verify_gap_doc))
    for n in list(range(2, 17)) + [20, 30, 40]:
        ops.append(_speeds_op("gap", list(range(1, n + 1)), verify_gap_doc))
    for size in (20, 25, 30, 35, 40):
        ops.append(_speeds_op("gap", sorted(rng.sample(range(1, 2 * size + 1), size)), verify_gap_doc))
    for j in range(50):
        speeds = rng.sample(range(0, 31), 3 + j % 4)
        focus = rng.randrange(len(speeds))
        argv = ["lonely", "--speeds", _csv(speeds), "--focus", str(focus)]
        ops.append(_cli_op(argv, lambda doc, s=speeds, f=focus: verify_lonely_doc(s, f, doc)))
    for j in range(40):
        ops.append(_speeds_op("kappa", sorted(rng.sample(range(1, 41), 2 + j % 5)), verify_kappa_doc))
    for j in range(40):
        direction = [rng.randint(1, 20) for _ in range(2 + j % 3)]
        alpha = F(rng.randint(1, 19), 20)
        argv = ["obstruct", "--direction", _csv(direction), "--alpha", str(alpha)]
        ops.append(_cli_op(argv, lambda doc, v=direction, a=alpha: verify_obstruct_doc(v, a, doc)))
    for j in range(40):
        ops.append(_speeds_op("conj34", sorted(rng.sample(range(1, 41), 2 + j % 5)), verify_conj34_doc))
    for d, count in ((1, 25), (2, 15)):
        for j in range(count):
            speeds = sorted(rng.sample(range(1, 41), d + 2 + j % (6 - d)))
            argv = ["invisible", "--speeds", _csv(speeds), "--d", str(d)]
            ops.append(_cli_op(argv, lambda doc, s=speeds, dd=d: verify_invisible_doc(s, dd, doc)))
    for j in range(30):
        p, q = _split_coprime(rng, 5 + 2 * (j % 10))
        ops.append(_billiard_op(p, q, _square_alpha(rng, p, q)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# triangle: Q(sqrt 3) billiards
# ---------------------------------------------------------------------------

EXTREMAL = (F(0), F(1, 5))  # slope sqrt3/5, whose minimal obstacle is exactly 1/4
QUARTER = F(1, 4)
MISS_HORIZONS = (150, 200, 250)
HIT_HORIZON = 2000
MIN_OBSTACLE_HORIZON = 100
PATH_STRIKES = 40


def verify_triangle_hit(slope: oracles.Q, alpha: Fraction, horizon: int, doc: dict) -> list[str]:
    """The stored hit must be the first contact of the benchmark's own walk."""
    problems: list[str] = []
    hit = doc["result"]["hit"]
    _expect(problems, _quad(doc["inputs"]["slope"]) == slope, "slope not echoed")
    mine = oracles.first_contact(slope, alpha, horizon)
    if mine is None:
        _expect(problems, hit == {"found": False}, "hit reported where the walk misses")
        return problems
    index, (row, col, up), grazing = mine
    expected = {"found": True, "index": index, "row": row, "col": col, "orientation": "up" if up else "down", "grazing": grazing}
    _expect(problems, hit == expected, f"hit {hit} is not the first contact {expected}")
    return problems


def _triangle_check_op(key: str, slope: oracles.Q, alpha: Fraction, horizon: int, must: str) -> Op:
    def produce() -> str:
        s = QuadExt(*slope)
        hit = billiards.triangle_obstruction_check(s, alpha, horizon)
        return certificates.serialize(certificates.triangle_document(s, alpha, horizon, hit, None))

    def verify(text: str) -> list[str]:
        doc = json.loads(text)
        problems = verify_triangle_hit(slope, alpha, horizon, doc)
        hit = doc["result"]["hit"]
        if must == "miss":
            _expect(problems, hit == {"found": False}, "sqrt3/5 met an obstacle below 1/4")
        elif must == "graze":
            _expect(problems, hit.get("index") == 0 and hit.get("grazing") is True, "sqrt3/5 does not graze at 1/4")
        else:
            _expect(problems, hit.get("found") is True, "slope misses an obstacle above 1/4")
        return problems

    return Op(key, produce, _check_document, verify, _check_verdict)


def _min_obstacle_op(slope: oracles.Q, horizon: int) -> Op:
    tolerance = F(1, 1024)

    def produce() -> str:
        s = QuadExt(*slope)
        lo, hi = billiards.triangle_min_obstacle(s, horizon, tolerance)
        doc = certificates.triangle_document(s, None, horizon, None, None, (lo, hi, tolerance))
        return certificates.serialize(doc)

    def verify(text: str) -> list[str]:
        problems: list[str] = []
        bracket = json.loads(text)["result"]["min_obstacle"]
        lo, hi = _rational(bracket["lo"]), _rational(bracket["hi"])
        _expect(problems, lo <= QUARTER <= hi and hi - lo <= tolerance, f"bracket [{lo}, {hi}] misses 1/4")
        _expect(problems, oracles.first_contact(slope, hi, horizon) is not None, "hi is not a hit")
        _expect(problems, lo == 0 or oracles.first_contact(slope, lo, horizon) is None, "lo is not a miss")
        return problems

    return Op(f"triangle min-obstacle H={horizon}", produce, _check_document, verify, _check_verdict)


def _path_op(slope: Fraction, strikes: int) -> Op:
    def produce() -> str:
        s = QuadExt(slope)
        path = billiards.triangle_path_segments(s, strikes)
        return certificates.serialize(certificates.triangle_document(s, None, 10_000, None, path))

    def verify(text: str) -> list[str]:
        problems: list[str] = []
        path = json.loads(text)["result"]["path"]
        segs = [[[_quad(u) for u in pt] for pt in seg] for seg in path["segments"]]
        _expect(problems, path["terminated_at_corner"] is False, "rational slope stopped at a corner")
        _expect(problems, len(segs) == strikes, "strike count wrong")
        _expect(problems, segs[0][0] == [oracles.q(0), oracles.q(0)], "path does not start at the origin")
        for seg, nxt in zip(segs, segs[1:]):
            _expect(problems, seg[1] == nxt[0], "path segments do not chain")
        _expect(problems, all(oracles.on_triangle_boundary(*seg[1]) for seg in segs), "strike point off the table edge")
        return problems

    return Op(f"triangle path {slope}", produce, _check_document, verify, _check_verdict)


def _square_op(p: int, q: int, alpha: Fraction) -> Op:
    segments = 2 * (p + q)

    def produce() -> str:
        path = billiards.square_path_segments(F(p, q), segments)
        min_obstacle = billiards.square_min_obstacle(F(p, q))
        contact = billiards.square_obstacle_contact(path, alpha)
        return certificates.serialize(certificates.billiard_document(path, min_obstacle, alpha, contact))

    def verify(text: str) -> list[str]:
        return verify_square_doc(p, q, alpha, segments, json.loads(text))

    return Op(f"square {p}/{q} alpha={alpha}", produce, _check_document, verify, _check_verdict)


def _stratified(rng: random.Random, top: Fraction, j: int, strata: int, denominators: range) -> Fraction:
    """A fraction p/q with q drawn from ``denominators``, inside the j-th of
    ``strata`` equal parts of (0, top).  How far the walk runs before a hit
    depends mostly on where the slope lies, so stratifying keeps the cost of
    a round nearly the same for every seed."""
    lo, hi = top * F(j, strata), top * F(j + 1, strata)
    while True:
        q = rng.choice(denominators)
        inside = [p for p in range(1, int(hi * q) + 1) if lo < F(p, q) < hi]
        if inside:
            return F(rng.choice(inside), q)


def _wedge_slopes(rng: random.Random, strata: int) -> list[oracles.Q]:
    """Slopes inside (0, sqrt3): per stratum one sqrt3*p/q and one rational p/q."""
    slopes = []
    denominators = range(strata, 2 * strata + 1)
    for j in range(strata):
        slopes.append((F(0), _stratified(rng, F(1), j, strata, denominators)))
        slopes.append((_stratified(rng, F(17, 10), j, strata, denominators), F(0)))
    return slopes


def build_triangle(seed: int) -> list[Op]:
    rng = random.Random(seed)
    above = QUARTER + F(1, 1000)
    ops = [
        _triangle_check_op("sqrt3/5 at 1/4", EXTREMAL, QUARTER, MISS_HORIZONS[0], "graze"),
        _min_obstacle_op(EXTREMAL, MIN_OBSTACLE_HORIZON),
    ]
    for horizon in MISS_HORIZONS:
        for m in range(1, 7):
            alpha = QUARTER - F(1, 10**m)
            ops.append(_triangle_check_op(f"sqrt3/5 at {alpha} H={horizon}", EXTREMAL, alpha, horizon, "miss"))
    for slope in _wedge_slopes(rng, 60):
        ops.append(_triangle_check_op(f"slope {slope} above 1/4", slope, above, HIT_HORIZON, "hit"))
    for j in range(5):
        ops.append(_path_op(_stratified(rng, F(17, 10), j, 5, range(7, 13)), PATH_STRIKES))
    for n in (7, 11, 13, 17, 19):
        p, q = _split_coprime(rng, n)
        ops.append(_square_op(p, q, _square_alpha(rng, p, q)))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"sweep": build_sweep, "instances": build_instances, "triangle": build_triangle}


def build(name: str, seed: int) -> list[Op]:
    return WORKLOADS[name](seed)
