"""Exact JSON certificate documents (schema ``lrc-cert/1``).

A document echoes its command and parsed inputs and carries an
engine-specific result payload.  Every rational is serialized as an integer
pair ``{"num": .., "den": ..}`` -- certificates are exact, so decimal
strings or floats never appear.  ``validate_document`` re-derives each
claim by exact recomputation, never floats; a ``conj34`` document is
checked through the band witness it carries instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

from .arith import QuadExt, SpeedSet, is_prime
from . import billiards, fieldsearch, gap, viewobstruct

__all__ = [
    "SCHEMA_VERSION",
    "CertificateDocument",
    "encode_rational",
    "decode_rational",
    "encode_quadext",
    "decode_quadext",
    "serialize",
    "parse",
    "validate_document",
    "gap_document",
    "lonely_document",
    "verify_document",
    "kappa_document",
    "obstruct_document",
    "kscan_document",
    "billiard_document",
    "triangle_document",
    "invisible_document",
    "conj34_document",
]

SCHEMA_VERSION = "lrc-cert/1"


def encode_rational(x: Fraction) -> dict[str, int]:
    x = Fraction(x)
    return {"num": x.numerator, "den": x.denominator}


def decode_rational(value: Any) -> Fraction:
    if (
        not isinstance(value, dict)
        or set(value) != {"num", "den"}
        or not all(isinstance(value[k], int) for k in ("num", "den"))
    ):
        raise ValueError(f"not a rational encoding: {value!r}")
    if value["den"] == 0:
        raise ValueError(f"zero denominator in rational encoding: {value!r}")
    return Fraction(value["num"], value["den"])


def encode_quadext(q: QuadExt) -> dict[str, dict[str, int]]:
    return {"a": encode_rational(q.a), "b": encode_rational(q.b)}


def decode_quadext(value: Any) -> QuadExt:
    if not isinstance(value, dict) or set(value) != {"a", "b"}:
        raise ValueError(f"not a quadratic-field encoding: {value!r}")
    return QuadExt(decode_rational(value["a"]), decode_rational(value["b"]))


def _encode_qpoint(p: billiards.QPoint) -> list:
    return [encode_quadext(p[0]), encode_quadext(p[1])]


def _encode_point(p: billiards.Point) -> list:
    return [encode_rational(p[0]), encode_rational(p[1])]


@dataclass
class CertificateDocument:
    command: str
    inputs: dict
    result: dict
    version: str = SCHEMA_VERSION


def serialize(doc: CertificateDocument) -> str:
    payload = {
        "version": doc.version,
        "command": doc.command,
        "inputs": doc.inputs,
        "result": doc.result,
    }
    return json.dumps(payload, indent=2) + "\n"


def parse(text: str) -> CertificateDocument:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("certificate document must be a JSON object")
    for key in ("version", "command", "inputs", "result"):
        if key not in data:
            raise ValueError(f"certificate document missing {key!r}")
    if data["version"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {data['version']!r}")
    return CertificateDocument(
        command=data["command"],
        inputs=data["inputs"],
        result=data["result"],
        version=data["version"],
    )


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def gap_document(
    cert: gap.GapCertificate, grid: Optional[tuple[int, Fraction]] = None
) -> CertificateDocument:
    pair = None
    if cert.witness_pair is not None:
        i, j, a = cert.witness_pair
        pair = {"i": i, "j": j, "a": a}
    oracle = None
    if grid is not None:
        resolution, value = grid
        oracle = {"resolution": resolution, "value": encode_rational(value)}
    return CertificateDocument(
        command="gap",
        inputs={"speeds": list(cert.speeds), "grid": None if grid is None else grid[0]},
        result={
            "delta": encode_rational(cert.delta),
            "witness_time": encode_rational(cert.witness_time),
            "witness_pair": pair,
            "per_speed_norms": [encode_rational(x) for x in cert.per_speed_norms],
            "grid_oracle": oracle,
        },
    )


def lonely_document(report: gap.LonelyReport) -> CertificateDocument:
    return CertificateDocument(
        command="lonely",
        inputs={"speeds": list(report.all_speeds), "focus": report.focus_index},
        result={
            "loneliest_time": encode_rational(report.loneliest_time),
            "min_separation": encode_rational(report.min_separation),
            "lonely": report.lonely,
            "separation_floor": encode_rational(report.separation_floor),
        },
    )


def verify_document(report: gap.LrcSweepReport) -> CertificateDocument:
    return CertificateDocument(
        command="verify",
        inputs={"k": report.k, "max_speed": report.max_speed},
        result={
            "bound": encode_rational(report.bound),
            "checked": report.checked,
            "tight": [list(s) for s in report.tight],
            "counterexamples": [list(s) for s in report.counterexamples],
        },
    )


def kappa_document(speeds: SpeedSet, lower, upper, delta, holds: bool) -> CertificateDocument:
    return CertificateDocument(
        command="kappa",
        inputs={"speeds": list(speeds)},
        result={
            "lower": encode_rational(lower),
            "upper": encode_rational(upper),
            "delta": encode_rational(delta),
            "holds": holds,
        },
    )


def obstruct_document(
    direction: viewobstruct.Direction,
    alpha: Optional[Fraction],
    min_scale: Fraction,
    witness: Optional[viewobstruct.ObstructionWitness],
) -> CertificateDocument:
    encoded = None
    if witness is not None:
        encoded = {
            "hit_time": encode_rational(witness.hit_time),
            "cube_center": [encode_rational(c) for c in witness.cube_center],
        }
    return CertificateDocument(
        command="obstruct",
        inputs={
            "direction": list(direction.coords),
            "alpha": None if alpha is None else encode_rational(alpha),
        },
        result={"min_scale": encode_rational(min_scale), "witness": encoded},
    )


def kscan_document(report: viewobstruct.KPrimeScanReport) -> CertificateDocument:
    return CertificateDocument(
        command="kscan",
        inputs={"k": report.k, "max_coord": report.max_coord},
        result={
            "observed_sup": encode_rational(report.observed_sup),
            "extremal": list(report.extremal.coords),
            "matches_conjecture": report.matches_conjecture,
            "cap": encode_rational(report.cap),
        },
    )


def billiard_document(
    path: billiards.SquarePath,
    min_obstacle: Fraction,
    alpha: Optional[Fraction],
    contact: Optional[str],
) -> CertificateDocument:
    return CertificateDocument(
        command="billiard",
        inputs={
            "slope": encode_rational(path.slope),
            "alpha": None if alpha is None else encode_rational(alpha),
            "segments": len(path.segments),
        },
        result={
            "min_obstacle": encode_rational(min_obstacle),
            "path": [[_encode_point(a), _encode_point(b)] for a, b in path.segments],
            "contact": contact,
        },
    )


def triangle_document(
    slope: QuadExt,
    alpha: Optional[Fraction],
    horizon: int,
    hit: Optional[billiards.TriangleHit],
    path: Optional[billiards.TrianglePath],
    min_obstacle: Optional[tuple[Fraction, Fraction, Fraction]] = None,
) -> CertificateDocument:
    hit_payload: Optional[dict] = None
    if alpha is not None:
        if hit is None:
            hit_payload = {"found": False}
        else:
            hit_payload = {
                "found": True,
                "index": hit.index,
                "row": hit.cell.row,
                "col": hit.cell.col,
                "orientation": "up" if hit.cell.points_up else "down",
                "grazing": hit.grazing,
            }
    path_payload = None
    if path is not None:
        path_payload = {
            "segments": [[_encode_qpoint(a), _encode_qpoint(b)] for a, b in path.segments],
            "terminated_at_corner": path.terminated_at_corner,
        }
    bracket_payload = None
    tolerance = None
    if min_obstacle is not None:
        lo, hi, tolerance = min_obstacle
        bracket_payload = {"lo": encode_rational(lo), "hi": encode_rational(hi)}
    return CertificateDocument(
        command="triangle",
        inputs={
            "slope": encode_quadext(slope),
            "alpha": None if alpha is None else encode_rational(alpha),
            "horizon": horizon,
            "strikes": None if path is None else len(path.segments),
            "tolerance": None if tolerance is None else encode_rational(tolerance),
        },
        result={"hit": hit_payload, "path": path_payload, "min_obstacle": bracket_payload},
    )


def invisible_document(cert: fieldsearch.SubsetCertificate, prime_budget: int) -> CertificateDocument:
    return CertificateDocument(
        command="invisible",
        inputs={"speeds": list(cert.original), "d": cert.d, "prime_budget": prime_budget},
        result={
            "kept": list(cert.kept),
            "removed": list(cert.removed),
            "bound": encode_rational(cert.bound),
            "kept_delta": encode_rational(cert.kept_delta),
            "witness": {
                "prime": cert.witness.n,
                "multiplier": cert.witness.x,
                "band": cert.witness.m,
                "residues": list(cert.witness.residues(cert.kept)),
            },
        },
    )


def conj34_document(speeds: SpeedSet, witness: fieldsearch.BandWitness) -> CertificateDocument:
    n, x, m = witness
    return CertificateDocument(
        command="conj34",
        inputs={"speeds": list(speeds)},
        result={"n": n, "x": x, "m": m, "residues": list(witness.residues(speeds))},
    )


# ---------------------------------------------------------------------------
# Re-validation
# ---------------------------------------------------------------------------


def _check(issues: list[str], condition: bool, message: str) -> None:
    if not condition:
        issues.append(message)


def _validate_gap(doc: CertificateDocument, issues: list[str]) -> None:
    speeds = SpeedSet(doc.inputs["speeds"])
    cert = gap.exact_gap(speeds)
    res = doc.result
    _check(issues, decode_rational(res["delta"]) == cert.delta, "delta mismatch")
    _check(
        issues,
        decode_rational(res["witness_time"]) == cert.witness_time,
        "witness_time mismatch",
    )
    stored_pair = res["witness_pair"]
    if cert.witness_pair is None:
        _check(issues, stored_pair is None, "expected single-speed witness")
    else:
        i, j, a = cert.witness_pair
        _check(
            issues,
            stored_pair == {"i": i, "j": j, "a": a},
            "witness_pair mismatch",
        )
    norms = [decode_rational(x) for x in res["per_speed_norms"]]
    _check(issues, tuple(norms) == cert.per_speed_norms, "per_speed_norms mismatch")
    oracle = res.get("grid_oracle")
    if oracle is not None:
        resolution = oracle["resolution"]
        value = decode_rational(oracle["value"])
        _check(
            issues,
            value == gap.gap_grid_oracle(speeds, resolution),
            "grid oracle mismatch",
        )
        _check(
            issues,
            value <= cert.delta <= value + Fraction(speeds.max, 2 * resolution),
            "grid oracle does not bracket delta",
        )


def _validate_lonely(doc: CertificateDocument, issues: list[str]) -> None:
    report = gap.lonely_time(doc.inputs["speeds"], doc.inputs["focus"])
    res = doc.result
    _check(
        issues,
        decode_rational(res["loneliest_time"]) == report.loneliest_time,
        "loneliest_time mismatch",
    )
    _check(
        issues,
        decode_rational(res["min_separation"]) == report.min_separation,
        "min_separation mismatch",
    )
    _check(issues, res["lonely"] == report.lonely, "lonely flag mismatch")
    _check(
        issues,
        decode_rational(res["separation_floor"]) == report.separation_floor,
        "separation_floor mismatch",
    )


def _validate_verify(doc: CertificateDocument, issues: list[str]) -> None:
    report = gap.verify_lrc(doc.inputs["k"], doc.inputs["max_speed"])
    res = doc.result
    _check(issues, decode_rational(res["bound"]) == report.bound, "bound mismatch")
    _check(issues, res["checked"] == report.checked, "checked count mismatch")
    _check(
        issues,
        [tuple(s) for s in res["tight"]] == list(report.tight),
        "tight list mismatch",
    )
    _check(
        issues,
        [tuple(s) for s in res["counterexamples"]] == list(report.counterexamples),
        "counterexample list mismatch",
    )


def _validate_kappa(doc: CertificateDocument, issues: list[str]) -> None:
    cert = gap.exact_gap(SpeedSet(doc.inputs["speeds"]))
    lower, upper, holds = gap.kappa_bounds(cert)
    res = doc.result
    _check(issues, decode_rational(res["lower"]) == lower, "lower bound mismatch")
    _check(issues, decode_rational(res["upper"]) == upper, "upper bound mismatch")
    _check(issues, decode_rational(res["delta"]) == cert.delta, "delta mismatch")
    _check(issues, res["holds"] == holds, "holds flag mismatch")


def _validate_obstruct(doc: CertificateDocument, issues: list[str]) -> None:
    direction = viewobstruct.Direction(doc.inputs["direction"])
    min_scale = viewobstruct.min_scale_for_direction(direction)
    res = doc.result
    _check(issues, decode_rational(res["min_scale"]) == min_scale, "min_scale mismatch")
    alpha = doc.inputs["alpha"]
    witness = res["witness"]
    if alpha is None:
        _check(issues, witness is None, "witness without a queried alpha")
        return
    alpha = decode_rational(alpha)
    if witness is None:
        _check(issues, alpha < min_scale, "missing witness at an obstructing scale")
        return
    _check(issues, alpha >= min_scale, "witness below the minimal scale")
    t = decode_rational(witness["hit_time"])
    centers = [decode_rational(c) for c in witness["cube_center"]]
    _check(issues, len(centers) == len(direction.coords), "cube_center arity mismatch")
    for c, center in zip(direction.coords, centers):
        m = center - Fraction(1, 2)
        _check(issues, m.denominator == 1 and m >= 0, f"bad cube center {center}")
        _check(
            issues,
            abs(c * t - center) * 2 <= alpha,
            f"ray exits the cube in coordinate with speed {c}",
        )


def _validate_kscan(doc: CertificateDocument, issues: list[str]) -> None:
    report = viewobstruct.kprime_scan(doc.inputs["k"], doc.inputs["max_coord"])
    res = doc.result
    _check(
        issues,
        decode_rational(res["observed_sup"]) == report.observed_sup,
        "observed_sup mismatch",
    )
    _check(
        issues,
        tuple(res["extremal"]) == report.extremal.coords,
        "extremal direction mismatch",
    )
    _check(
        issues,
        res["matches_conjecture"] == report.matches_conjecture,
        "conjecture flag mismatch",
    )
    _check(issues, decode_rational(res["cap"]) == report.cap, "cap mismatch")


def _validate_billiard(doc: CertificateDocument, issues: list[str]) -> None:
    slope = decode_rational(doc.inputs["slope"])
    path = billiards.square_path_segments(slope, doc.inputs["segments"])
    res = doc.result
    _check(
        issues,
        decode_rational(res["min_obstacle"]) == billiards.square_min_obstacle(slope),
        "min_obstacle mismatch",
    )
    stored = [
        tuple(tuple(decode_rational(u) for u in pt) for pt in seg) for seg in res["path"]
    ]
    _check(issues, tuple(stored) == path.segments, "path segments mismatch")
    alpha = doc.inputs["alpha"]
    if alpha is None:
        _check(issues, res["contact"] is None, "contact without a queried alpha")
    else:
        contact = billiards.square_obstacle_contact(path, decode_rational(alpha))
        _check(issues, res["contact"] == contact, "contact classification mismatch")


def _validate_triangle(doc: CertificateDocument, issues: list[str]) -> None:
    billiards._check_count(doc.inputs["horizon"], "horizon must be at least 1")
    slope = decode_quadext(doc.inputs["slope"])
    alpha = doc.inputs["alpha"]
    res = doc.result
    if alpha is not None:
        hit = billiards.triangle_obstruction_check(
            slope, decode_rational(alpha), doc.inputs["horizon"]
        )
        stored = res["hit"]
        if stored is None:
            issues.append("missing hit payload for a queried alpha")
        elif hit is None:
            _check(issues, stored == {"found": False}, "hit reported but walk misses")
        else:
            expected = {
                "found": True,
                "index": hit.index,
                "row": hit.cell.row,
                "col": hit.cell.col,
                "orientation": "up" if hit.cell.points_up else "down",
                "grazing": hit.grazing,
            }
            _check(issues, stored == expected, "hit payload mismatch")
    if res["path"] is not None:
        strikes = doc.inputs["strikes"]
        path = billiards.triangle_path_segments(slope, strikes)
        stored_segments = [
            tuple(tuple(decode_quadext(u) for u in pt) for pt in seg)
            for seg in res["path"]["segments"]
        ]
        _check(issues, tuple(stored_segments) == path.segments, "path segments mismatch")
        _check(
            issues,
            res["path"]["terminated_at_corner"] == path.terminated_at_corner,
            "corner termination mismatch",
        )
    if res.get("min_obstacle") is not None:
        tolerance = decode_rational(doc.inputs["tolerance"])
        lo, hi = billiards.triangle_min_obstacle(slope, doc.inputs["horizon"], tolerance)
        _check(
            issues,
            decode_rational(res["min_obstacle"]["lo"]) == lo
            and decode_rational(res["min_obstacle"]["hi"]) == hi,
            "min_obstacle bracket mismatch",
        )


def _check_band_witness(
    issues: list[str], n, x, m, speeds: SpeedSet, residues
) -> Optional[fieldsearch.BandWitness]:
    """Check a stored band witness (n, x, m) over ``speeds`` and its stored
    ``residues``; returns the witness unless its numbers are out of range,
    which are reported before any modulo is taken."""
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (n, x, m)):
        issues.append("witness n, x and m must be integers")
        return None
    if n < 2 or not 0 < x < n or m < 0 or 2 * m >= n:
        issues.append(f"witness ({n}, {x}, {m}) needs n >= 2, 0 < x < n and 0 <= 2m < n")
        return None
    witness = fieldsearch.BandWitness(n, x, m)
    _check(issues, list(residues) == list(witness.residues(speeds)), "witness residues mismatch")
    _check(issues, witness.avoids(speeds), "witness residues enter the band")
    return witness


def _validate_invisible(doc: CertificateDocument, issues: list[str]) -> None:
    original = SpeedSet(doc.inputs["speeds"])
    d = doc.inputs["d"]
    res = doc.result
    kept = SpeedSet(res["kept"])
    removed = res["removed"]
    _check(
        issues,
        sorted(list(kept) + list(removed)) == list(original),
        "kept and removed do not partition the original speeds",
    )
    _check(issues, len(kept) >= len(original) - d, "kept set too small")
    bound = decode_rational(res["bound"])
    _check(
        issues,
        bound == Fraction(d + 1, 2 * len(original)),
        "bound is not (d+1)/(2k)",
    )
    delta = gap.exact_gap(kept).delta
    _check(issues, decode_rational(res["kept_delta"]) == delta, "kept_delta mismatch")
    _check(issues, delta >= bound, "kept set does not reach the bound")
    w = res["witness"]
    p = w["prime"]
    witness = _check_band_witness(issues, p, w["multiplier"], w["band"], kept, w["residues"])
    if witness is not None:
        _check(issues, is_prime(p), f"{p} is not prime")
        _check(issues, all(s % p != 0 for s in original), "prime divides a speed")


def _validate_conj34(doc: CertificateDocument, issues: list[str]) -> None:
    """Check the document's own witness; the gap is not recomputed."""
    speeds = SpeedSet(doc.inputs["speeds"])
    k = len(speeds)
    res = doc.result
    _check(issues, k >= 2, "need at least two speeds")
    witness = _check_band_witness(issues, res["n"], res["x"], res["m"], speeds, res["residues"])
    if witness is not None:
        _check(
            issues,
            witness.m >= fieldsearch.BandWitness.radius(witness.n, k),
            "band radius too small to certify 1/(k+1)",
        )


_VALIDATORS = {
    "gap": _validate_gap,
    "lonely": _validate_lonely,
    "verify": _validate_verify,
    "kappa": _validate_kappa,
    "obstruct": _validate_obstruct,
    "kscan": _validate_kscan,
    "billiard": _validate_billiard,
    "triangle": _validate_triangle,
    "invisible": _validate_invisible,
    "conj34": _validate_conj34,
}


def validate_document(doc: CertificateDocument) -> list[str]:
    """Re-derive every claim in the document; returns a list of issues
    (empty means the certificate is valid)."""
    validator = _VALIDATORS.get(doc.command)
    if validator is None:
        return [f"unknown certificate command {doc.command!r}"]
    issues: list[str] = []
    try:
        validator(doc, issues)
    except (KeyError, TypeError, ValueError) as exc:
        issues.append(f"malformed document: {exc}")
    return issues
