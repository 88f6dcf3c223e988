"""The rational and Q(sqrt 3) decoders' reports, pinned.

``lrc check`` reports a malformed value with the decoder's message, so each
malformed shape gets one exact report here.  A seeded differential then
mutates ``triangle``, ``billiard`` and ``obstruct`` documents and holds
every verdict and message to those of the decoders and the ``triangle``
producer that read the documents through ``set()`` and ``Fraction`` before
the direct integer checks, copied here as the reference.
"""

import copy
import io
import json
import random
import sys
from fractions import Fraction
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from lonelyrunner import billiards, certificates
from lonelyrunner.arith import QuadExt, _check_count
from lonelyrunner.cli import run

# ---------------------------------------------------------------------------
# The reference: the decoders and the triangle producer as they were.
# ---------------------------------------------------------------------------


def ref_decode_rational(value: Any) -> Fraction:
    if (
        not isinstance(value, dict)
        or set(value) != {"num", "den"}
        or not all(isinstance(value[k], int) for k in ("num", "den"))
    ):
        raise ValueError(f"not a rational encoding: {value!r}")
    if value["den"] == 0:
        raise ValueError(f"zero denominator in rational encoding: {value!r}")
    return Fraction(value["num"], value["den"])


def ref_decode_quadext(value: Any) -> QuadExt:
    if not isinstance(value, dict) or set(value) != {"a", "b"}:
        raise ValueError(f"not a quadratic-field encoding: {value!r}")
    return QuadExt(ref_decode_rational(value["a"]), ref_decode_rational(value["b"]))


def ref_optional_rational(value):
    return None if value is None else ref_decode_rational(value)


def ref_produce_triangle(inputs: dict) -> certificates.CertificateDocument:
    slope = ref_decode_quadext(inputs["slope"])
    billiards._cleared(slope)
    alpha = ref_optional_rational(inputs["alpha"])
    horizon = _check_count(inputs["horizon"], "horizon")  # counts: the one count rule, as now
    hit = None if alpha is None else billiards.triangle_obstruction_check(slope, alpha, horizon)
    path = None
    if inputs["strikes"] is not None:
        path = billiards.triangle_path_segments(slope, inputs["strikes"])
    tolerance = ref_optional_rational(inputs["tolerance"])
    bracket = None
    if tolerance is not None:
        bracket = billiards.triangle_min_obstacle(slope, horizon, tolerance) + (tolerance,)
    return certificates.triangle_document(slope, alpha, horizon, hit, path, bracket)


# ---------------------------------------------------------------------------
# One exact report per malformed shape
# ---------------------------------------------------------------------------


def invoke(argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        code = run(argv, out=out, err=err)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def base_triangle() -> dict:
    code, out, _ = invoke(["triangle", "--slope", "sqrt3*1/5", "--alpha", "1/4", "--horizon", "150"])
    assert code == 0
    return json.loads(out)


def check_report(doc: dict) -> tuple[int, dict, str]:
    code, out, err = invoke(["check", "-"], json.dumps(doc))
    return code, json.loads(out), err


def invalid(*issues: str) -> dict:
    return {
        "version": certificates.SCHEMA_VERSION,
        "command": "check",
        "inputs": {"target_command": "triangle"},
        "result": {"valid": False, "issues": list(issues)},
    }


MALFORMED = "malformed document: "
WEDGE = "slope must lie strictly between 0 and sqrt(3)"
# (name, value, report when it is alpha, report when it is the slope's b)
RATIONAL_SHAPES = [
    ("not a dict", 5, [MALFORMED + "not a rational encoding: 5"], None),
    ("a list", [1, 4], [MALFORMED + "not a rational encoding: [1, 4]"], None),
    ("missing key", {"num": 1}, [MALFORMED + "not a rational encoding: {'num': 1}"], None),
    (
        "extra key",
        {"num": 1, "den": 4, "x": 0},
        [MALFORMED + "not a rational encoding: {'num': 1, 'den': 4, 'x': 0}"],
        None,
    ),
    # A bool is an int to the decoder, so the value decodes, and the rebuilt
    # document, which writes 1, differs from the stored one.
    ("bool value", {"num": True, "den": 4}, ["alpha mismatch"], ["slope mismatch", "hit mismatch"]),
    (
        "float value",
        {"num": 1.0, "den": 4},
        [MALFORMED + "not a rational encoding: {'num': 1.0, 'den': 4}"],
        None,
    ),
    (
        "string value",
        {"num": "1", "den": 4},
        [MALFORMED + "not a rational encoding: {'num': '1', 'den': 4}"],
        None,
    ),
    (
        "zero denominator",
        {"num": 1, "den": 0},
        [MALFORMED + "zero denominator in rational encoding: {'num': 1, 'den': 0}"],
        None,
    ),
    ("negative denominator", {"num": -1, "den": -4}, ["alpha mismatch"], ["slope mismatch", "hit mismatch"]),
    (
        "negative denominator and value",
        {"num": 1, "den": -4},
        [MALFORMED + "alpha must lie strictly between 0 and 1"],
        [MALFORMED + WEDGE],
    ),
    ("unreduced", {"num": 2, "den": 8}, ["alpha mismatch"], ["slope mismatch", "hit mismatch"]),
]

QUADEXT_SHAPES = [
    ("not a dict", 5, "not a quadratic-field encoding: 5"),
    (
        "a list",
        [{"num": 0, "den": 1}, {"num": 1, "den": 5}],
        "not a quadratic-field encoding: [{'num': 0, 'den': 1}, {'num': 1, 'den': 5}]",
    ),
    (
        "missing key",
        {"b": {"num": 1, "den": 5}},
        "not a quadratic-field encoding: {'b': {'num': 1, 'den': 5}}",
    ),
    (
        "extra key",
        {"a": {"num": 0, "den": 1}, "b": {"num": 1, "den": 5}, "c": 0},
        "not a quadratic-field encoding: {'a': {'num': 0, 'den': 1}, 'b': {'num': 1, 'den': 5}, 'c': 0}",
    ),
    ("bool component", {"a": False, "b": {"num": 1, "den": 5}}, "not a rational encoding: False"),
]

OUTSIDE = {"num": 1, "den": 1}  # b = 1: the slope sqrt3, outside the wedge
ABOVE_ONE = {"num": 3, "den": 2}
ZERO_DEN = {"num": 1, "den": 0}
DELETE = object()
# (name, edits of inputs, the one issue reported): the first error in the
# producer's order wins.
DOUBLY_MALFORMED = [
    ("outside wedge, bad alpha", [("slope.b", OUTSIDE), ("alpha", "x")], WEDGE),
    ("outside wedge, zero horizon", [("slope.b", OUTSIDE), ("horizon", 0)], WEDGE),
    ("outside wedge, no alpha", [("slope.b", OUTSIDE), ("alpha", DELETE)], WEDGE),
    ("outside wedge, no horizon", [("slope.b", OUTSIDE), ("horizon", DELETE)], WEDGE),
    ("outside wedge, alpha above 1", [("slope.b", {"num": 2, "den": 1}), ("alpha", ABOVE_ONE)], WEDGE),
    ("outside wedge, no strikes", [("slope.b", OUTSIDE), ("strikes", DELETE)], WEDGE),
    (
        "bad alpha, zero horizon",
        [("alpha", ZERO_DEN), ("horizon", 0)],
        "zero denominator in rational encoding: {'num': 1, 'den': 0}",
    ),
    (
        "alpha above 1, zero horizon",
        [("alpha", ABOVE_ONE), ("horizon", 0)],
        "horizon must be an integer >= 1, got 0",
    ),
    (
        "alpha above 1, bool horizon",
        [("alpha", ABOVE_ONE), ("horizon", True)],
        "horizon must be an integer >= 1, got True",
    ),
    (
        "slope not a dict, bad alpha",
        [("slope", None), ("alpha", ZERO_DEN)],
        "not a quadratic-field encoding: None",
    ),
    (
        "alpha above 1, zero tolerance",
        [("alpha", ABOVE_ONE), ("tolerance", {"num": 0, "den": 1})],
        "alpha must lie strictly between 0 and 1",
    ),
    ("no horizon, bad alpha", [("horizon", DELETE), ("alpha", 1)], "not a rational encoding: 1"),
    ("no alpha, zero horizon", [("alpha", DELETE), ("horizon", 0)], "'alpha'"),
]


def edit_inputs(doc: dict, where: str, value) -> None:
    *path, key = where.split(".")
    node = doc["inputs"]
    for part in path:
        node = node[part]
    if value is DELETE:
        del node[key]
    else:
        node[key] = value


class TestMalformedShapes:
    @pytest.mark.parametrize(
        "name, value, as_alpha, as_slope", RATIONAL_SHAPES, ids=[s[0] for s in RATIONAL_SHAPES]
    )
    def test_rational(self, name, value, as_alpha, as_slope):
        for where, issues in (("alpha", as_alpha), ("slope.b", as_slope or as_alpha)):
            doc = base_triangle()
            edit_inputs(doc, where, value)
            assert check_report(doc) == (2, invalid(*issues), ""), where

    @pytest.mark.parametrize("name, value, message", QUADEXT_SHAPES, ids=[s[0] for s in QUADEXT_SHAPES])
    def test_quadext(self, name, value, message):
        doc = base_triangle()
        edit_inputs(doc, "slope", value)
        assert check_report(doc) == (2, invalid(MALFORMED + message), "")

    @pytest.mark.parametrize(
        "name, edits, message", DOUBLY_MALFORMED, ids=[s[0] for s in DOUBLY_MALFORMED]
    )
    def test_doubly_malformed_reports_the_first(self, name, edits, message):
        doc = base_triangle()
        for where, value in edits:
            edit_inputs(doc, where, value)
        assert check_report(doc) == (2, invalid(MALFORMED + message), "")

    def test_decoders_raise_the_reference_messages(self):
        values = [value for _, value, _, _ in RATIONAL_SHAPES] + [value for _, value, _ in QUADEXT_SHAPES]
        values += [None, True, {"num": 3, "den": 4}, {"a": {"num": 1, "den": 2}, "b": {"num": 0, "den": 1}}]
        for value in values:
            for decode, reference in (
                (certificates.decode_rational, ref_decode_rational),
                (certificates.decode_quadext, ref_decode_quadext),
            ):
                assert outcome(decode, value) == outcome(reference, value), value


def outcome(function, *args):
    try:
        return "value", function(*args)
    except Exception as exc:  # the exception's type and message are the outcome
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# The triangle slope reader against decode_quadext and _cleared
# ---------------------------------------------------------------------------

# Small parts, so that many well-formed slopes lie in the wedge and the
# others test the wedge refusal.  Each shape is drawn by a weighted tag, the
# well-formed ones (unreduced parts, negative and zero denominators among
# them) most often.
INTS = st.integers(-12, 12)
ODD = st.none() | st.booleans() | st.floats(-2, 2) | st.text(max_size=2) | st.lists(INTS, max_size=2)


@st.composite
def rationals(draw):
    shape = draw(st.integers(0, 9))
    num, den = draw(INTS), draw(INTS)
    if shape == 6:  # a bool for an int
        num, den = draw(st.sampled_from([(True, den), (num, True), (num, False), (False, True)]))
    elif shape == 7:  # a float, a string or another value for an int
        num, den = draw(st.sampled_from([(draw(ODD), den), (num, draw(ODD))]))
    elif shape == 8:  # a key missing or extra
        return draw(st.sampled_from([{"num": num}, {"den": den}, {"num": num, "den": den, "x": 0}]))
    elif shape == 9:
        return draw(ODD | INTS)
    return {"num": num, "den": den}


@st.composite
def slopes(draw):
    shape = draw(st.integers(0, 9))
    a, b = draw(rationals()), draw(rationals())
    if shape == 8:  # a key missing or extra
        return draw(st.sampled_from([{"a": a}, {"b": b}, {"a": a, "b": b, "c": 0}]))
    if shape == 9:
        return draw(st.sampled_from([None, 1, [a, b], (a, b)]))
    return {"a": a, "b": b}


class TestSlopeReader:
    """``_decode_slope`` reads a ``triangle`` slope straight into integers;
    it must give the cleared slope, or the refusal, of ``decode_quadext``
    followed by ``billiards._cleared``."""

    @staticmethod
    def reference(value):
        return billiards._cleared(certificates.decode_quadext(value))

    @settings(max_examples=1000, deadline=None, database=None, derandomize=True)
    @given(value=slopes())
    def test_matches_decode_and_clear(self, value):
        got = outcome(certificates._decode_slope, value)
        assert got == outcome(self.reference, value)
        if got[0] == "value":
            assert all(type(part) is int for part in got[1])

    @pytest.mark.parametrize(
        "value",
        [
            {"a": {"num": 14, "den": 16}, "b": {"num": 0, "den": 1}},
            {"a": {"num": -7, "den": -8}, "b": {"num": 0, "den": 3}},
            {"a": {"num": 0, "den": 5}, "b": {"num": 2, "den": 10}},
            {"a": {"num": 1, "den": 6}, "b": {"num": 1, "den": -4}},
            {"a": {"num": True, "den": 2}, "b": {"num": 1, "den": True}},
            {"a": {"num": 7, "den": True}, "b": {"num": 0, "den": 1}},
            {"a": {"num": 1, "den": False}, "b": {"num": 0, "den": 1}},
            {"a": {"num": 7, "den": 4}, "b": {"num": 0, "den": 1}},
            {"a": {"num": 0, "den": 1}, "b": {"num": 1, "den": 1}},
            {"a": {"num": 1, "den": 2}, "b": {"num": 1, "den": 0}},
            {"a": {"num": 0.5, "den": 1}, "b": {"num": 1, "den": 0}},
            {"a": {"num": "1", "den": 2}, "b": {"num": 0, "den": 1}},
            {"a": {"num": 1, "den": 2, "x": 0}, "b": {"num": 0, "den": 1}},
            {"a": {"num": 1, "den": 2}},
            {"a": {"num": 1, "den": 2}, "b": {"num": 0, "den": 1}, "c": 0},
        ],
    )
    def test_named_shapes(self, value):
        assert outcome(certificates._decode_slope, value) == outcome(self.reference, value)


# ---------------------------------------------------------------------------
# Seeded mutated-document differential
# ---------------------------------------------------------------------------

BASE_ARGV = [
    ["triangle", "--slope", "sqrt3*1/5", "--alpha", "1/4", "--horizon", "150"],
    ["triangle", "--slope", "16/11", "--alpha", "1/3", "--horizon", "100"],
    ["triangle", "--slope", "7/8", "--horizon", "200", "--strikes", "4"],
    ["triangle", "--slope", "sqrt3*1/5", "--horizon", "100", "--min-obstacle", "1/16"],
    ["triangle", "--slope", "16/11", "--alpha", "1/4", "--horizon", "200", "--strikes", "3"]
    + ["--min-obstacle", "1/8"],
    ["billiard", "--slope", "6/17", "--alpha", "82/115", "--segments", "5"],
    ["billiard", "--slope", "1/2", "--segments", "3"],
    ["obstruct", "--direction", "1,2", "--alpha", "1/3"],
    ["obstruct", "--direction", "1,3,4", "--alpha", "1/2"],
    ["obstruct", "--direction", "2,3"],
]

# Small values only: a mutated count or scale must not make a long walk.
POOL = [
    None, True, False, 0, 1, -1, 2, 7, 1.5, "1", [], {}, [1, 2],
    {"num": 1}, {"num": 1, "den": 0}, {"num": 2, "den": 8}, {"num": -1, "den": -3},
    {"num": 1, "den": -3}, {"num": True, "den": 3}, {"num": 1.0, "den": 3},
    {"num": 3, "den": 2}, {"num": 1, "den": 3}, {"num": 1, "den": 2, "x": 0},
    {"a": {"num": 1, "den": 2}, "b": {"num": 0, "den": 1}},
    {"a": {"num": 0, "den": 1}, "b": {"num": 1, "den": 3}},
    {"a": {"num": 0, "den": 1}},
]


def node_paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from node_paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from node_paths(item, path + (index,))


def mutate(rng: random.Random, doc: dict) -> None:
    """Replace, delete or add one value under ``inputs`` or ``result``."""
    paths = [p for p in node_paths({"inputs": doc["inputs"], "result": doc["result"]}) if len(p) >= 2]
    *path, key = rng.choice(paths)
    node = doc
    for part in path:
        node = node[part]
    roll = rng.random()
    if roll < 0.15 and isinstance(node, dict):
        del node[key]
    elif roll < 0.25 and isinstance(node, dict):
        node["extra"] = copy.deepcopy(rng.choice(POOL))
    else:
        node[key] = copy.deepcopy(rng.choice(POOL))


def verdict(text: str):
    return outcome(lambda: certificates.validate_document(certificates.parse(text)))


class TestMutatedDocumentDifferential:
    def test_verdicts_match_the_reference(self, monkeypatch):
        rng = random.Random(818)
        texts = []
        for argv in BASE_ARGV:
            code, out, _ = invoke(argv)
            assert code == 0, argv
            base = json.loads(out)
            texts.append(json.dumps(base))
            for _ in range(120):
                doc = copy.deepcopy(base)
                for _ in range(rng.choice((1, 1, 2))):
                    mutate(rng, doc)
                texts.append(json.dumps(doc))
        got = [verdict(text) for text in texts]
        monkeypatch.setattr(certificates, "decode_rational", ref_decode_rational)
        monkeypatch.setattr(certificates, "decode_quadext", ref_decode_quadext)
        monkeypatch.setitem(certificates._PRODUCERS, "triangle", ref_produce_triangle)
        want = [verdict(text) for text in texts]
        for text, g, w in zip(texts, got, want):
            assert g == w, text
        # The mutations reach every kind of verdict.
        kinds = {w[0] if w[0] != "value" else bool(w[1]) for w in want}
        assert kinds == {False, True}
        assert sum(any(i.startswith(MALFORMED) for i in w[1]) for w in want) >= 300
