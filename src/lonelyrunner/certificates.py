"""Exact JSON certificate documents (schema ``lrc-cert/1``).

A document echoes its command and parsed inputs and carries an
engine-specific result payload.  Every rational is serialized as an integer
pair ``{"num": .., "den": ..}`` -- certificates are exact, so decimal
strings or floats never appear.

``serialize`` writes a document as ``json.dumps(payload, separators=(",",
":"))`` plus a newline: one line, no whitespace between tokens,
ASCII-escaped strings, keys in the order the builder put them.  The C
encoder writes those bytes.  A path's segment list, whose segments share
their strike points as the path builders make them, is written from one
encoding of its points, so no point is encoded twice; the rest of the
document, and any other payload, is one call of the encoder.  Whitespace
carries nothing, so ``parse`` reads an indented document of the same schema
unchanged; ``python -m json.tool`` indents one for reading.

``produce(command, inputs)`` is the one rule from a command's inputs to its
document; ``lrc <command>`` and ``lrc check`` both call it.
``validate_document`` holds a re-run document to that rule: it must be
exactly what its command produces for its inputs, equal as JSON (a bool is
not a count, rationals are in lowest terms, no key is missing or extra; key
order and whitespace do not count).  ``obstruct``, ``invisible`` and
``conj34`` documents are instead rebuilt by their builders from their inputs
and their own band witness (n, x, m) of :mod:`~lonelyrunner.fieldsearch`,
and no other stored value but the gap (below): the search that found the
witness is not re-run, so any valid witness passes, but inputs, keys and
every value derived from the witness are held to the same JSON equality.
An ``obstruct`` document stores its hit time x/n, from which the cube
centers are rebuilt; an ``invisible`` document is read and rebuilt by
``invisible_subset``'s own rules, so its witness decides the kept speeds,
its far set of the input speeds.  A ``conj34`` witness must reach 1/(k+1)
by its own bound (m+1)/n.  A refuted ``conj34`` document has no witness and
is re-run.

The gap a ``gap``, ``kappa``, ``lonely``, ``obstruct`` or ``invisible``
document stores (``delta``, ``min_separation``, (1 - ``min_scale``)/2,
``kept_delta``) is proved by ``gap.check_gap``, one interval sweep at that
value, which returns the certificate ``gap.exact_gap`` would; the document
is rebuilt from it.  If the sweep rejects the stored value, the check stops
there, and its one issue is ``<key> mismatch``.  So no check of these five
runs the gap search.
"""

from __future__ import annotations

import json
import marshal
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import is_, itemgetter
from typing import Any, Optional

from .arith import QuadExt, SpeedSet, _check_count, _unit_scale, is_prime
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
    "produce",
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
    """Encode a Fraction or an int; a float has no numerator and fails."""
    return {"num": x.numerator, "den": x.denominator}


def _rational_parts(value: Any) -> tuple[int, int]:
    """The integers (num, den) of a rational encoding, den nonzero and the
    pair as stored (a bool counts as an int here); the one reading rule
    of :func:`decode_rational` and of a ``triangle`` slope."""
    if isinstance(value, dict) and value.keys() == {"num", "den"}:
        num, den = value["num"], value["den"]
        if isinstance(num, int) and isinstance(den, int):
            if den == 0:
                raise ValueError(f"zero denominator in rational encoding: {value!r}")
            return num, den
    raise ValueError(f"not a rational encoding: {value!r}")


def decode_rational(value: Any) -> Fraction:
    num, den = _rational_parts(value)
    return Fraction(num, den)


def encode_quadext(q: QuadExt) -> dict[str, dict[str, int]]:
    return {"a": encode_rational(q.a), "b": encode_rational(q.b)}


def _quadext_parts(value: Any) -> tuple[Any, Any]:
    if not isinstance(value, dict) or value.keys() != {"a", "b"}:
        raise ValueError(f"not a quadratic-field encoding: {value!r}")
    return value["a"], value["b"]


def decode_quadext(value: Any) -> QuadExt:
    a, b = _quadext_parts(value)
    return QuadExt(decode_rational(a), decode_rational(b))


def _decode_slope(value: Any) -> billiards._Slope:
    """``billiards._cleared(decode_quadext(value))``, read straight from
    the encoding's integers: the same rules, refusals and order, with no
    Fraction or QuadExt built."""
    a, b = _quadext_parts(value)
    return billiards._cleared_parts(*_rational_parts(a), *_rational_parts(b))


def _encode_ratio(num: int, den: int) -> dict[str, int]:
    """Encode num/den, for integers with den nonzero, as the Fraction it
    equals: in lowest terms, with a positive denominator."""
    g = gcd(num, den)
    if den < 0:
        g = -g
    return {"num": num // g, "den": den // g}


@dataclass
class CertificateDocument:
    command: str
    inputs: dict
    result: dict


# Built once: json.dumps with any keyword builds and configures a new
# encoder per call.  No builder makes a cycle (a path shares its points, but
# nothing holds itself), so the C encoder skips its cycle check.
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)


# Stands in the payload for a path's segment list while the rest is encoded.
# Its text is one whole JSON string, so it can only match a string token
# equal to it; serialize requires exactly one match.
_CHAIN_MARK = "\0chain"
_CHAIN_MARK_TEXT = _ENCODER.encode(_CHAIN_MARK)


def _chain_text(segments: Any) -> Optional[str]:
    """The text of ``segments`` if it is a chained list, else None.

    A chained list holds n >= 1 segments, each a list of two points that
    are lists, and each segment's end is the same list object as the next
    segment's start.  Its text is written from one encoding of its n+1
    points, split into one text per point, so no point is encoded twice.
    If a point's text holds ``],[``, as a string or a list of lists in it
    may, the split gives more texts than points and the list is not
    written here."""
    if type(segments) is not list or not segments:
        return None
    if set(map(type, segments)) != {list} or set(map(len, segments)) != {2}:
        return None
    points = list(map(itemgetter(0), segments))
    ends = list(map(itemgetter(1), segments))
    if not all(map(is_, points[1:], ends)):  # each end against the next start
        return None
    points.append(ends[-1])
    if set(map(type, points)) != {list}:
        return None
    # "[[c0],[c1],...,[cn]]": the contents c of each point between "],[".
    contents = _ENCODER.encode(points)[2:-2].split("],[")
    if len(contents) != len(points):
        return None
    # Segment i is "[[ci],[ci+1]]"; the list is "[" + their join on "," + "]".
    return "[[[" + "]],[[".join(map("],[".join, zip(contents, contents[1:]))) + "]]]"


def _without_chain(doc: CertificateDocument) -> tuple[Any, Optional[str]]:
    """``doc.result`` with its path's chained segment list replaced by
    ``_CHAIN_MARK``, and that list's text; or ``doc.result`` and None.  A
    ``billiard`` document holds the list at ``result["path"]``, a
    ``triangle`` document at ``result["path"]["segments"]``."""
    result = doc.result
    if type(result) is dict:
        path = result.get("path")
        if doc.command == "billiard":
            chain = _chain_text(path)
            if chain is not None:
                return {**result, "path": _CHAIN_MARK}, chain
        elif doc.command == "triangle" and type(path) is dict:
            chain = _chain_text(path.get("segments"))
            if chain is not None:
                return {**result, "path": {**path, "segments": _CHAIN_MARK}}, chain
    return result, None


def serialize(doc: CertificateDocument) -> str:
    result, chain = _without_chain(doc)
    payload = {
        "version": SCHEMA_VERSION,
        "command": doc.command,
        "inputs": doc.inputs,
        "result": result,
    }
    if chain is not None:
        parts = _ENCODER.encode(payload).split(_CHAIN_MARK_TEXT)
        if len(parts) == 2:
            return chain.join(parts) + "\n"
        payload["result"] = doc.result  # the mark's text is also elsewhere
    return _ENCODER.encode(payload) + "\n"


_TOP_KEYS = ("version", "command", "inputs", "result")


def parse(text: str) -> CertificateDocument:
    try:
        data = json.loads(text)
    except RecursionError:  # the decoder recurses once per nesting level
        raise ValueError("certificate document is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("certificate document must be a JSON object")
    for key in _TOP_KEYS:
        if key not in data:
            raise ValueError(f"certificate document missing {key!r}")
    if len(data) > len(_TOP_KEYS):
        raise ValueError(f"certificate document has extra keys {sorted(data.keys() - _TOP_KEYS)}")
    if data["version"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {data['version']!r}")
    if not isinstance(data["command"], str):
        raise ValueError("certificate document command must be a string")
    return CertificateDocument(data["command"], data["inputs"], data["result"])


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
    # Each speed's norm ||s*x/n|| at the witness time x/n, from its integers.
    x, n = cert.witness_time.numerator, cert.witness_time.denominator
    norms = [_encode_ratio(min(r, n - r), n) for r in (s * x % n for s in cert.speeds)]
    return CertificateDocument(
        command="gap",
        inputs={"speeds": list(cert.speeds), "grid": None if grid is None else grid[0]},
        result={
            "delta": encode_rational(cert.delta),
            "witness_time": encode_rational(cert.witness_time),
            "witness_pair": pair,
            "per_speed_norms": norms,
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


def kappa_document(cert: gap.GapCertificate) -> CertificateDocument:
    """The kappa bounds of the gap certificate ``cert`` and its delta."""
    lower, upper, holds = gap.kappa_bounds(cert)
    return CertificateDocument(
        command="kappa",
        inputs={"speeds": list(cert.speeds)},
        result={
            "lower": encode_rational(lower),
            "upper": encode_rational(upper),
            "delta": encode_rational(cert.delta),
            "holds": holds,
        },
    )


def obstruct_document(
    direction: tuple[int, ...],
    alpha: Optional[Fraction],
    min_scale: Fraction,
    hit_time: Optional[Fraction],
) -> CertificateDocument:
    """The cube the ray is in at ``hit_time`` is centered, in each
    coordinate y, at the half-integer nearest y, the lower one on a tie:
    ceil(y) - 1/2.  At the time x/n, that is (2*ceil(c*x/n) - 1)/2 for the
    direction's coordinate c, with the ceiling taken by integer floor
    division; the numerator is odd, so the pair is in lowest terms."""
    encoded = None
    if hit_time is not None:
        x, n = hit_time.numerator, hit_time.denominator
        encoded = {
            "hit_time": encode_rational(hit_time),
            "cube_center": [{"num": -2 * (-c * x // n) - 1, "den": 2} for c in direction],
        }
    return CertificateDocument(
        command="obstruct",
        inputs={
            "direction": list(direction),
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
            "extremal": list(report.extremal),
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
    """The path is encoded from its integer points, each point's list built
    once and shared by the two segments that meet there."""
    p, q = path.slope.numerator, path.slope.denominator
    points = [[_encode_ratio(x, p), _encode_ratio(y, q)] for x, y in path.points]
    return CertificateDocument(
        command="billiard",
        inputs={
            "slope": encode_rational(path.slope),
            "alpha": None if alpha is None else encode_rational(alpha),
            "segments": path.n_segments,
        },
        result={
            "min_obstacle": encode_rational(min_obstacle),
            "path": [list(segment) for segment in zip(points, points[1:])],
            "contact": contact,
        },
    )


def triangle_document(
    slope: QuadExt | billiards._Slope,
    alpha: Optional[Fraction],
    horizon: int,
    hit: Optional[billiards.TriangleHit],
    path: Optional[billiards.TrianglePath],
    min_obstacle: Optional[tuple[Fraction, Fraction, Fraction]] = None,
) -> CertificateDocument:
    """A cleared slope (a + b*sqrt3)/d is encoded from its integers, as the
    QuadExt it equals."""
    if type(slope) is billiards._Slope:
        a, b, d = slope
        slope_payload = {"a": _encode_ratio(a, d), "b": _encode_ratio(b, d)}
    else:
        slope_payload = encode_quadext(slope)
    hit_payload: Optional[dict] = None
    if alpha is not None:
        if hit is None:
            hit_payload = {"found": False}
        else:
            hit_payload = {
                "found": True,
                "index": hit.index,
                "row": hit.row,
                "col": hit.col,
                "orientation": "up" if hit.points_up else "down",
                "grazing": hit.grazing,
            }
    path_payload = None
    strikes = None
    if path is not None:
        # Encoded from the integer points, as in billiard_document.
        points = [
            [
                {"a": _encode_ratio(xa, n), "b": _encode_ratio(xb, n)},
                {"a": _encode_ratio(ya, n), "b": _encode_ratio(yb, n)},
            ]
            for xa, xb, ya, yb, n in path.points
        ]
        path_payload = {
            "segments": [list(segment) for segment in zip(points, points[1:])],
            "terminated_at_corner": path.terminated_at_corner,
        }
        strikes = len(path.points) - 1
    bracket_payload = None
    tolerance = None
    if min_obstacle is not None:
        lo, hi, tolerance = min_obstacle
        bracket_payload = {"lo": encode_rational(lo), "hi": encode_rational(hi)}
    return CertificateDocument(
        command="triangle",
        inputs={
            "slope": slope_payload,
            "alpha": None if alpha is None else encode_rational(alpha),
            "horizon": horizon,
            "strikes": strikes,
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
# Producers: the one rule per command from document-form inputs to document
# ---------------------------------------------------------------------------


def _optional_rational(value: Any) -> Optional[Fraction]:
    return None if value is None else decode_rational(value)


def _produce_gap(inputs: dict, gap_of: Optional[gap.GapEngine] = None) -> CertificateDocument:
    speeds = SpeedSet(inputs["speeds"])
    grid = None
    if inputs["grid"] is not None:
        # 0 asks for the default resolution N = 64 * max speed * k, which
        # makes the oracle's bracket width s_max/(2N) = 1/(128 k); the
        # document records the one used.
        resolution = _check_count(inputs["grid"], "grid", least=0) or 64 * speeds.max * len(speeds)
        grid = (resolution, gap.gap_grid_oracle(speeds, resolution))
    cert = (gap_of or gap.exact_gap)(speeds)
    if grid is not None:
        # The oracle samples times independently of exact_gap; its value
        # must bracket delta within max(S)/(2N).
        resolution, value = grid
        if not value <= cert.delta <= value + Fraction(speeds.max, 2 * resolution):
            raise ArithmeticError(f"grid oracle {value} does not bracket delta {cert.delta}")
    return gap_document(cert, grid)


def _produce_lonely(inputs: dict, gap_of: Optional[gap.GapEngine] = None) -> CertificateDocument:
    if gap_of is None:
        return lonely_document(gap.lonely_time(inputs["speeds"], inputs["focus"]))
    return lonely_document(gap._lonely(inputs["speeds"], inputs["focus"], gap_of))


def _produce_verify(inputs: dict) -> CertificateDocument:
    return verify_document(gap.verify_lrc(inputs["k"], inputs["max_speed"]))


def _produce_kappa(inputs: dict, gap_of: Optional[gap.GapEngine] = None) -> CertificateDocument:
    return kappa_document((gap_of or gap.exact_gap)(SpeedSet(inputs["speeds"])))


def _obstruct_inputs(inputs: dict) -> tuple[tuple[int, ...], Optional[Fraction]]:
    """The direction and alpha of an ``obstruct`` document, read by one rule
    for ``produce`` and for the validator, before any gap is computed."""
    direction = viewobstruct.primitive_direction(inputs["direction"])
    alpha = _optional_rational(inputs["alpha"])
    return direction, None if alpha is None else _unit_scale(alpha)


def _produce_obstruct(inputs: dict) -> CertificateDocument:
    direction, alpha = _obstruct_inputs(inputs)
    cert = gap.exact_gap(SpeedSet(direction))
    witness = None if alpha is None else viewobstruct.obstruction_witness(direction, alpha, cert)
    hit_time = None if witness is None else cert.witness_time
    return obstruct_document(direction, alpha, 1 - 2 * cert.delta, hit_time)


def _produce_kscan(inputs: dict) -> CertificateDocument:
    return kscan_document(viewobstruct.kprime_scan(inputs["k"], inputs["max_coord"]))


def _produce_billiard(inputs: dict) -> CertificateDocument:
    slope = decode_rational(inputs["slope"])
    alpha = _optional_rational(inputs["alpha"])
    path = billiards.square_path_segments(slope, inputs["segments"])
    contact = None if alpha is None else billiards.square_obstacle_contact(path, alpha)
    return billiard_document(path, billiards.square_min_obstacle(slope), alpha, contact)


def _produce_triangle(inputs: dict) -> CertificateDocument:
    # The slope must lie in the wedge, whatever is asked, and is checked
    # first.  It is cleared once here, and each engine and the builder take
    # it cleared.
    slope = _decode_slope(inputs["slope"])
    alpha = _optional_rational(inputs["alpha"])
    horizon = _check_count(inputs["horizon"], "horizon")
    hit = None if alpha is None else billiards.triangle_obstruction_check(slope, alpha, horizon)
    path = None
    if inputs["strikes"] is not None:
        path = billiards.triangle_path_segments(slope, inputs["strikes"])
    tolerance = _optional_rational(inputs["tolerance"])
    bracket = None
    if tolerance is not None:  # the engine refuses a tolerance below 2**-64
        bracket = billiards.triangle_min_obstacle(slope, horizon, tolerance) + (tolerance,)
    return triangle_document(slope, alpha, horizon, hit, path, bracket)


def _produce_invisible(inputs: dict) -> CertificateDocument:
    cert = fieldsearch.invisible_subset(inputs["speeds"], inputs["d"], inputs["prime_budget"])
    return invisible_document(cert, inputs["prime_budget"])


def _produce_conj34(inputs: dict) -> CertificateDocument:
    speeds = SpeedSet(inputs["speeds"])
    witness = fieldsearch.conj34_witness(speeds)
    if witness is None:
        return CertificateDocument("conj34", {"speeds": list(speeds)}, {"refuted": True})
    return conj34_document(speeds, witness)


_PRODUCERS = {
    "gap": _produce_gap,
    "lonely": _produce_lonely,
    "verify": _produce_verify,
    "kappa": _produce_kappa,
    "obstruct": _produce_obstruct,
    "kscan": _produce_kscan,
    "billiard": _produce_billiard,
    "triangle": _produce_triangle,
    "invisible": _produce_invisible,
    "conj34": _produce_conj34,
}


def produce(command: str, inputs: dict) -> CertificateDocument:
    """The document ``command`` produces for ``inputs`` in document form:
    JSON values, with rationals and elements of Q(sqrt 3) encoded as in a
    document.  Counts must be ints, never bools.  Bad inputs raise
    ``KeyError``, ``TypeError`` or ``ValueError``."""
    producer = _PRODUCERS.get(command)
    if producer is None:
        raise ValueError(f"unknown certificate command {command!r}")
    return producer(inputs)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _check(issues: list[str], condition: bool, message: str) -> None:
    if not condition:
        issues.append(message)


def _same(stored: Any, rebuilt: Any) -> bool:
    """Equal as JSON: a bool is not an int, a float is not an int, and key
    order does not count.  A rebuilt value holds no float and no tuple, so
    values equal as JSON are equal by ``==`` too, and unequal ones are told
    apart without the two dumps."""
    if stored != rebuilt:
        return False
    return json.dumps(stored, sort_keys=True) == json.dumps(rebuilt, sort_keys=True)


def _decode_rationals(stored: Any, rebuilt: Any) -> None:
    """Decode every stored value that sits where the rebuilt one is a
    rational; one that fails to decode raises ``ValueError``."""
    if isinstance(rebuilt, dict):
        if rebuilt.keys() == {"num", "den"}:
            decode_rational(stored)
        elif isinstance(stored, dict):
            for key in rebuilt.keys() & stored.keys():
                _decode_rationals(stored[key], rebuilt[key])
    elif isinstance(rebuilt, list) and isinstance(stored, list):
        for s, r in zip(stored, rebuilt):
            _decode_rationals(s, r)


def _diagnose(part: str, stored: Any, rebuilt: dict, issues: list[str]) -> None:
    if not isinstance(stored, dict):
        raise ValueError(f"{part} must be an object")
    missing = [key for key in rebuilt if key not in stored]
    extra = [key for key in stored if key not in rebuilt]
    if missing or extra:
        raise ValueError(f"{part} is missing keys {missing} or has extra keys {extra}")
    for key, value in rebuilt.items():
        if not _same(stored[key], value):
            _decode_rationals(stored[key], value)
            issues.append(f"{key} mismatch")


def _compare(doc: CertificateDocument, rebuilt: CertificateDocument, issues: list[str]) -> None:
    """``inputs`` and ``result`` must equal the rebuilt ones as JSON."""
    # Fast path.  Format 2 of marshal tags every value's type (True, 1 and
    # 1.0 differ), keeps key order and shares no references, so equal bytes
    # mean equal JSON, at a fraction of the cost of two JSON dumps.  A
    # rebuilt path shares each point's list between two segments and a
    # parsed one does not; format 2 writes a shared list in full each time,
    # so the two marshal equal.
    stored, expected = [doc.inputs, doc.result], [rebuilt.inputs, rebuilt.result]
    if marshal.dumps(stored, 2) != marshal.dumps(expected, 2):
        _diagnose("inputs", doc.inputs, rebuilt.inputs, issues)
        _diagnose("result", doc.result, rebuilt.result, issues)


class _Rejected(Exception):
    """A stored gap the interval sweep rejects; its text is the one issue."""


def _gap_check(result: Any, key: str, to_gap=lambda value: value) -> gap.GapEngine:
    """The gap engine of a check whose document stores the gap as
    ``to_gap(result[key])``: it reads the speeds by ``exact_gap``'s rules,
    then the stored value, which ``gap.check_gap`` proves or rejects with
    :class:`_Rejected`.  A value missing or undecodable is malformed."""

    def gap_of(speeds: SpeedSet) -> gap.GapCertificate:
        members = gap._members(speeds)
        cert = gap.check_gap(members, to_gap(decode_rational(result[key])))
        if cert is None:
            raise _Rejected(f"{key} mismatch")
        return cert

    return gap_of


_STORED_GAPS = {"gap": "delta", "kappa": "delta", "lonely": "min_separation"}


def _validate_rebuilt(doc: CertificateDocument, issues: list[str]) -> None:
    """Valid only if the document is exactly what its command produces for
    its inputs.  A ``gap``, ``kappa`` or ``lonely`` producer takes the gap
    engine of :func:`_gap_check`, from the gap the document stores."""
    key = _STORED_GAPS.get(doc.command)
    if key is None:
        _compare(doc, produce(doc.command, doc.inputs), issues)
    else:
        _compare(doc, _PRODUCERS[doc.command](doc.inputs, _gap_check(doc.result, key)), issues)


def _validate_obstruct(doc: CertificateDocument, issues: list[str]) -> None:
    """The stored hit time t = x/n must be a band witness over the
    direction's speeds at scale alpha; the centers are rebuilt from t, and
    the minimal scale 1 - 2*delta from the gap (1 - min_scale)/2 the
    document stores, by :func:`_gap_check`."""
    direction, alpha = _obstruct_inputs(doc.inputs)
    gap_of = _gap_check(doc.result, "min_scale", lambda scale: (1 - scale) / 2)
    min_scale = 1 - 2 * gap_of(SpeedSet(direction)).delta
    stored = doc.result["witness"]
    t = None if stored is None else decode_rational(stored["hit_time"])
    _compare(doc, obstruct_document(direction, alpha, min_scale, t), issues)
    if alpha is None:
        _check(issues, t is None, "witness without a queried alpha")
        return
    if t is None:
        _check(issues, alpha < min_scale, "missing witness at an obstructing scale")
        return
    if t <= 0:
        issues.append("hit time must be positive")
        return
    witness = fieldsearch.BandWitness.at_time(t, (1 - alpha) / 2)
    _check(issues, witness.avoids(direction), "witness residues enter the band")


def _band_witness(n, x, m) -> fieldsearch.BandWitness:
    """A stored band witness, each number refused out of range before any modulo."""
    _check_count(n, "witness n", least=2)
    _check_count(x, "witness x", most=n - 1)
    _check_count(m, "witness m", least=0, most=(n - 1) // 2)
    return fieldsearch.BandWitness(n, x, m)


def _validate_invisible(doc: CertificateDocument, issues: list[str]) -> None:
    """Read and rebuilt by ``invisible_subset``'s own rules, ``_subset_inputs``
    and ``SubsetCertificate.from_witness`` (the kept speeds are the witness's
    far set), with the kept speeds' gap proved from the stored ``kept_delta``
    by :func:`_gap_check`; the check adds the size pre-check, the comparison
    and the budget, primality and divisibility tests."""
    inputs = doc.inputs
    original, d, budget = fieldsearch._subset_inputs(inputs["speeds"], inputs["d"], inputs["prime_budget"])
    w = doc.result["witness"]
    p = w["prime"]
    witness = _band_witness(p, w["multiplier"], w["band"])
    if len(witness.far(original)) < len(original) - d:  # an empty far set included
        issues.append("kept set too small")
        return
    gap_of = _gap_check(doc.result, "kept_delta")
    cert = fieldsearch.SubsetCertificate._with_gap(original, d, witness, gap_of)
    _compare(doc, invisible_document(cert, budget), issues)
    _check(issues, cert.kept_delta >= cert.bound, "kept set does not reach the bound")
    # The budget bounds the trial division, so it is tested first.
    if p > budget:
        issues.append(f"prime {p} exceeds the prime budget {budget}")
    else:
        _check(issues, is_prime(p), f"{p} is not prime")
    _check(issues, all(s % p != 0 for s in original), "prime divides a speed")


def _validate_conj34(doc: CertificateDocument, issues: list[str]) -> None:
    """Check the document's own witness; the gap is not recomputed unless
    the document claims a refutation."""
    res = doc.result
    speeds = SpeedSet(doc.inputs["speeds"])
    k = len(speeds)
    if "refuted" in res or k < 2:
        # A refutation has no witness to check: it stands only if the gap of
        # the speeds, which bounds the cost, is below 1/(k+1) as well.  The
        # producer refuses a single speed.
        _validate_rebuilt(doc, issues)
        return
    witness = _band_witness(res["n"], res["x"], res["m"])
    _check(issues, witness.avoids(speeds), "witness residues enter the band")
    _compare(doc, conj34_document(speeds, witness), issues)
    _check(issues, witness.bound >= Fraction(1, k + 1), "band radius too small to certify 1/(k+1)")


_WITNESS_CHECKS = {
    "obstruct": _validate_obstruct,
    "invisible": _validate_invisible,
    "conj34": _validate_conj34,
}


def validate_document(doc: CertificateDocument) -> list[str]:
    """Check a document; returns a list of issues (empty means valid).
    ``obstruct``, ``invisible`` and ``conj34`` documents are rebuilt from
    their inputs and their own witness, which is checked; any other
    document is rebuilt from its inputs alone.  Either way it must equal
    the rebuilt one.  A stored gap is proved by :func:`_gap_check`, not
    searched for again; if it is rejected, that is the one issue."""
    if not isinstance(doc.command, str) or doc.command not in _PRODUCERS:
        return [f"unknown certificate command {doc.command!r}"]
    issues: list[str] = []
    try:
        _WITNESS_CHECKS.get(doc.command, _validate_rebuilt)(doc, issues)
    except _Rejected as exc:
        issues.append(str(exc))
    except (KeyError, TypeError, ValueError) as exc:
        issues.append(f"malformed document: {exc}")
    return issues
