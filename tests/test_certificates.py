"""Round-trip and re-validation tests for certificate documents."""

import copy
import dataclasses
import io
import json
import marshal
import math
import random
import time
from collections import OrderedDict
from fractions import Fraction
from typing import NamedTuple

import pytest

from lonelyrunner.arith import QuadExt, SpeedSet
from lonelyrunner import billiards, certificates, fieldsearch, gap, viewobstruct
from lonelyrunner.cli import run
from tests.test_pinned_documents import PINNED

F = Fraction


def build_all_documents():
    docs = {}
    docs["gap"] = certificates.gap_document(
        gap.exact_gap((1, 2, 3)), (600, gap.gap_grid_oracle((1, 2, 3), 600))
    )
    docs["lonely"] = certificates.lonely_document(gap.lonely_time((0, 1, 2, 3), 0))
    docs["verify"] = certificates.verify_document(gap.verify_lrc(2, 8))
    docs["kappa"] = certificates.kappa_document(gap.exact_gap((3, 5)))
    witness = viewobstruct.obstruction_witness((1, 2), F(1, 3))
    docs["obstruct"] = certificates.obstruct_document(
        (1, 2),
        F(1, 3),
        viewobstruct.min_scale_for_direction((1, 2)),
        F(witness.x, witness.n),
    )
    docs["kscan"] = certificates.kscan_document(viewobstruct.kprime_scan(2, 5))
    path = billiards.square_path_segments(F(1, 2), 4)
    docs["billiard"] = certificates.billiard_document(
        path,
        billiards.square_min_obstacle(F(1, 2)),
        F(1, 3),
        billiards.square_obstacle_contact(path, F(1, 3)),
    )
    slope = QuadExt(0, F(1, 5))
    docs["triangle"] = certificates.triangle_document(
        slope,
        F(1, 4),
        50,
        billiards.triangle_obstruction_check(slope, F(1, 4), 50),
        billiards.triangle_path_segments(slope, 4),
        billiards.triangle_min_obstacle(slope, 50, F(1, 64)) + (F(1, 64),),
    )
    docs["invisible"] = certificates.invisible_document(
        fieldsearch.invisible_subset((1, 2, 3), 1), 100_000
    )
    docs["conj34"] = certificates.conj34_document(
        SpeedSet([1, 3]), fieldsearch.conj34_witness((1, 3))
    )
    return docs


DOCS = build_all_documents()


class TestSerialization:
    @pytest.mark.parametrize("command", sorted(DOCS))
    def test_round_trip(self, command):
        doc = DOCS[command]
        again = certificates.parse(certificates.serialize(doc))
        assert again == doc

    @pytest.mark.parametrize("command", sorted(DOCS))
    def test_no_floats_anywhere(self, command):
        def walk(value):
            if isinstance(value, float):
                pytest.fail(f"float {value} in certificate payload")
            if isinstance(value, dict):
                for v in value.values():
                    walk(v)
            if isinstance(value, list):
                for v in value:
                    walk(v)

        walk(DOCS[command].result)
        walk(DOCS[command].inputs)

    def test_rational_codec(self):
        assert certificates.decode_rational(certificates.encode_rational(F(-3, 7))) == F(-3, 7)
        with pytest.raises(ValueError):
            certificates.decode_rational({"num": 1})
        with pytest.raises(ValueError):
            certificates.decode_rational({"num": 1, "den": 2.0})
        with pytest.raises(ValueError):
            certificates.decode_rational("1/2")
        with pytest.raises(ValueError):
            certificates.decode_rational({"num": 1, "den": 0})

    def test_quadext_codec(self):
        q = QuadExt(F(1, 2), F(-3, 5))
        assert certificates.decode_quadext(certificates.encode_quadext(q)) == q

    def test_parse_rejects_bad_documents(self):
        with pytest.raises(ValueError):
            certificates.parse("[]")
        with pytest.raises(ValueError):
            certificates.parse('{"version": "lrc-cert/1"}')
        with pytest.raises(ValueError):
            certificates.parse(
                '{"version": "nope", "command": "gap", "inputs": {}, "result": {}}'
            )
        with pytest.raises(ValueError, match=r"extra keys \['extra'\]"):
            certificates.parse(
                '{"version": "lrc-cert/1", "command": "gap", "inputs": {}, "result": {}, "extra": 1}'
            )

    @pytest.mark.parametrize("depth", [990, 1_500, 5_000])
    def test_parse_refuses_deep_nesting(self, depth):
        # json.loads recurses once per level and raises RecursionError.
        with pytest.raises(ValueError, match="nested too deeply"):
            certificates.parse("[" * depth + "]" * depth)


class TestValidation:
    @pytest.mark.parametrize("command", sorted(DOCS))
    def test_valid_documents_pass(self, command):
        assert certificates.validate_document(DOCS[command]) == []

    def test_unknown_command(self):
        doc = certificates.CertificateDocument("frobnicate", {}, {})
        assert certificates.validate_document(doc) != []
        doc = certificates.CertificateDocument(["gap"], {}, {})  # unhashable
        assert certificates.validate_document(doc) != []

    def test_tampered_gap_delta(self):
        doc = copy.deepcopy(DOCS["gap"])
        doc.result["delta"] = {"num": 1, "den": 3}
        assert any("delta" in issue for issue in certificates.validate_document(doc))

    def test_tampered_witness_time(self):
        doc = copy.deepcopy(DOCS["gap"])
        doc.result["witness_time"] = {"num": 1, "den": 5}
        assert certificates.validate_document(doc) != []

    def test_tampered_verify_tight_list(self):
        doc = copy.deepcopy(DOCS["verify"])
        doc.result["tight"] = []
        assert certificates.validate_document(doc) != []

    def test_tampered_obstruct_center(self):
        doc = copy.deepcopy(DOCS["obstruct"])
        doc.result["witness"]["cube_center"][0] = {"num": 5, "den": 2}
        assert certificates.validate_document(doc) != []

    def test_tampered_invisible_kept(self):
        doc = copy.deepcopy(DOCS["invisible"])
        doc.result["kept"] = [1]
        assert certificates.validate_document(doc) != []

    def test_tampered_triangle_grazing_flag(self):
        doc = copy.deepcopy(DOCS["triangle"])
        doc.result["hit"]["grazing"] = False
        assert certificates.validate_document(doc) != []

    def test_tampered_billiard_contact(self):
        doc = copy.deepcopy(DOCS["billiard"])
        doc.result["contact"] = "interior"
        assert certificates.validate_document(doc) != []

    def test_tampered_grid_oracle(self):
        doc = copy.deepcopy(DOCS["gap"])
        doc.result["grid_oracle"]["value"] = {"num": 1, "den": 1000}
        assert certificates.validate_document(doc) != []

    def test_tampered_min_obstacle_bracket(self):
        doc = copy.deepcopy(DOCS["triangle"])
        doc.result["min_obstacle"]["hi"] = {"num": 1, "den": 2}
        assert certificates.validate_document(doc) != []

    def test_tampered_conj34_residue(self):
        doc = copy.deepcopy(DOCS["conj34"])
        doc.result["residues"][0] = 3
        assert any("residues" in issue for issue in certificates.validate_document(doc))

    def test_conj34_band_radius_below_the_certifying_one(self):
        # {1, 3} at n = 4, x = 2 keeps every residue out of the band m = 0,
        # but (m+1)/n = 1/4 falls short of 1/3: 3 * 1 < 4.
        doc = copy.deepcopy(DOCS["conj34"])
        assert doc.result["m"] == 1
        doc.result["m"] = 0
        assert any("radius" in issue for issue in certificates.validate_document(doc))

    def test_conj34_multiplier_zero(self):
        doc = copy.deepcopy(DOCS["conj34"])
        doc.result["x"] = 0
        doc.result["residues"] = [0, 0]
        assert certificates.validate_document(doc) != []

    @pytest.mark.parametrize(
        "command, key, value, issue",
        [
            ("conj34", "n", True, "witness n must be an integer >= 2, got True"),
            ("conj34", "x", 2.5, "witness x must be an integer from 1 to 3, got 2.5"),
            ("conj34", "x", 4, "witness x must be an integer from 1 to 3, got 4"),
            ("conj34", "m", 2, "witness m must be an integer from 0 to 1, got 2"),
            ("invisible", "prime", True, "witness n must be an integer >= 2, got True"),
            ("invisible", "multiplier", 2.5, "witness x must be an integer from 1 to 4, got 2.5"),
            ("invisible", "band", -1, "witness m must be an integer from 0 to 2, got -1"),
        ],
    )
    def test_band_witness_numbers_follow_the_count_rule(self, command, key, value, issue):
        # Refused before any modulo is taken, with the count rule's message.
        doc = copy.deepcopy(DOCS[command])
        witness = doc.result if command == "conj34" else doc.result["witness"]
        witness[key] = value
        assert certificates.validate_document(doc) == [f"malformed document: {issue}"]

    REFUTED_1_3 = certificates.CertificateDocument("conj34", {"speeds": [1, 3]}, {"refuted": True})

    def test_conj34_refutation_the_engine_makes_is_valid(self, monkeypatch):
        monkeypatch.setattr(fieldsearch, "conj34_witness", lambda speeds: None)
        assert certificates.validate_document(self.REFUTED_1_3) == []

    def test_conj34_false_refutation_is_invalid(self):
        # The engine finds a witness for {1, 3}, so the rebuilt document has
        # no "refuted" key.
        issues = certificates.validate_document(self.REFUTED_1_3)
        assert len(issues) == 1 and "['refuted']" in issues[0]

    def test_conj34_accepts_another_valid_witness(self):
        # The engine's witness for {1, 2} is (3, 1, 0); (3, 2, 0) certifies
        # the same bound and is checked on its own merits.
        speeds = SpeedSet([1, 2])
        assert fieldsearch.conj34_witness(speeds) == (3, 1, 0)
        doc = certificates.conj34_document(speeds, fieldsearch.BandWitness(3, 2, 0))
        assert doc.result["residues"] == [2, 1]
        assert certificates.validate_document(doc) == []

    def test_invisible_accepts_another_valid_witness(self):
        # Every admissible (p, x, m) with p < 30 whose far set of {1, 2, 3}
        # keeps at least k - d = 2 speeds, split by whether that set's gap
        # reaches (d+1)/(2k) = 1/3.  Each is checked on its own merits.
        speeds, d = SpeedSet([1, 2, 3]), 1
        engine = fieldsearch.invisible_subset(speeds, d)
        reaching, missing = [], []
        for p in (5, 7, 11, 13, 17, 19, 23, 29):
            for x in range(1, p):
                for m in range((p - 1) // 2 + 1):
                    witness = fieldsearch.BandWitness(p, x, m)
                    if len(witness.far(speeds)) >= len(speeds) - d:
                        cert = fieldsearch.SubsetCertificate.from_witness(speeds, d, witness)
                        (reaching if cert.kept_delta >= cert.bound else missing).append(cert)
        others = [cert for cert in reaching if cert.witness != engine.witness]
        assert len(others) == len(reaching) - 1 and others and missing
        for cert in others + missing:
            doc = certificates.invisible_document(cert, 100_000)
            expected = [] if cert in others else ["kept set does not reach the bound"]
            assert certificates.validate_document(doc) == expected, cert.witness
        # The band-0 witness at 5 keeps all three speeds, whose gap is 1/4.
        band_0 = fieldsearch.SubsetCertificate.from_witness(speeds, d, fieldsearch.BandWitness(5, 1, 0))
        assert band_0 in missing and band_0.kept == speeds and band_0.kept_delta == F(1, 4)

    def test_malformed_payload_reported(self):
        doc = copy.deepcopy(DOCS["gap"])
        del doc.result["delta"]
        issues = certificates.validate_document(doc)
        assert issues and "malformed" in issues[0]


def _with_count(doc, key, value):
    """The document with inputs[key] replaced, after a JSON round trip."""
    doc = copy.deepcopy(doc)
    doc.inputs[key] = value
    return certificates.parse(certificates.serialize(doc))


class TestBooleanCounts:
    """JSON true is a bool, which Python would compare and slice as the
    count 1; a document that carries it as a count is malformed."""

    SLOPE = QuadExt(0, F(1, 5))

    def _assert_malformed_only_as_bool(self, doc, key):
        assert certificates.validate_document(_with_count(doc, key, 1)) == []
        issues = certificates.validate_document(_with_count(doc, key, True))
        assert issues and "malformed" in issues[0]

    def test_triangle_horizon_true_with_alpha(self):
        hit = billiards.triangle_obstruction_check(self.SLOPE, F(1, 4), 1)
        doc = certificates.triangle_document(self.SLOPE, F(1, 4), 1, hit, None)
        self._assert_malformed_only_as_bool(doc, "horizon")

    def test_triangle_horizon_true_with_min_obstacle(self):
        bracket = billiards.triangle_min_obstacle(self.SLOPE, 1, F(1, 64)) + (F(1, 64),)
        doc = certificates.triangle_document(self.SLOPE, None, 1, None, None, bracket)
        self._assert_malformed_only_as_bool(doc, "horizon")

    def test_triangle_strikes_true(self):
        path = billiards.triangle_path_segments(self.SLOPE, 1)
        doc = certificates.triangle_document(self.SLOPE, None, 10_000, None, path)
        self._assert_malformed_only_as_bool(doc, "strikes")

    def test_billiard_segments_true(self):
        path = billiards.square_path_segments(F(1, 2), 1)
        doc = certificates.billiard_document(
            path, billiards.square_min_obstacle(F(1, 2)), None, None
        )
        self._assert_malformed_only_as_bool(doc, "segments")


class TestLibraryDocuments:
    """Documents built from library calls, whose counts the engines have
    checked, are valid under the rule ``lrc check`` applies."""

    def test_round_trip(self):
        for doc in [
            certificates.verify_document(gap.verify_lrc(4, 12)),
            certificates.kscan_document(viewobstruct.kprime_scan(3, 8)),
            certificates.invisible_document(fieldsearch.invisible_subset((1, 2, 3), 1), 100000),
        ]:
            assert certificates.validate_document(certificates.parse(certificates.serialize(doc))) == []
            assert certificates.validate_document(doc) == []


class TestTriangleHorizon:
    """A path-only triangle document runs no walk, but its horizon must
    still be a count."""

    SLOPE = QuadExt(0, F(1, 5))

    @pytest.mark.parametrize("horizon", [True, -5, "x", 2.5])
    def test_path_only_document_with_bad_horizon(self, horizon):
        path = billiards.triangle_path_segments(self.SLOPE, 2)
        doc = certificates.triangle_document(self.SLOPE, None, 10_000, None, path)
        assert certificates.validate_document(_with_count(doc, "horizon", 10_000)) == []
        issues = certificates.validate_document(_with_count(doc, "horizon", horizon))
        assert issues and "malformed" in issues[0]


class TestGridLimit:
    def test_huge_grid_is_malformed_at_once(self):
        doc = _with_count(DOCS["gap"], "grid", 10**9)
        start = time.process_time()
        issues = certificates.validate_document(doc)
        assert time.process_time() - start < 0.5
        speeds = DOCS["gap"].inputs["speeds"]
        assert issues == [
            f"malformed document: resolution must be an integer from {2 * max(speeds)} to 4194304, got {10**9}"
        ]


class TestPathCounts:
    """A path document's count input is read by its engine's rule, like any
    other input, and the rebuilt path must equal the stored one.  The
    engines refuse a count above 2**14, so a tiny document naming a huge
    count costs at most one rebuild at the cap."""

    SLOPE = F(16, 11)  # neither path meets a corner, so neither rebuild stops early

    def _documents(self):
        square = billiards.square_path_segments(self.SLOPE, 2)
        min_obstacle = billiards.square_min_obstacle(self.SLOPE)
        slope = QuadExt(self.SLOPE)
        triangle = billiards.triangle_path_segments(slope, 2)
        return [
            ("segments", certificates.billiard_document(square, min_obstacle, None, None)),
            ("strikes", certificates.triangle_document(slope, None, 10_000, None, triangle)),
        ]

    def test_huge_count_is_invalid_at_once(self):
        for key, doc in self._documents():
            assert certificates.validate_document(_with_count(doc, key, 2)) == []
            tampered = _with_count(doc, key, 10**9)
            start = time.process_time()
            issues = certificates.validate_document(tampered)
            assert time.process_time() - start < 0.5, key
            assert issues == [f"malformed document: {key} must be an integer from 1 to 16384, got 1000000000"]

    def test_count_at_the_cap_is_a_mismatch_at_once(self):
        for key, doc in self._documents():
            tampered = _with_count(doc, key, 2**14)
            start = time.process_time()
            issues = certificates.validate_document(tampered)
            assert time.process_time() - start < 0.5, key
            assert issues == ["path mismatch"]

    def test_count_at_the_cap_is_told_apart_without_dumps(self, monkeypatch):
        # The stored path is shorter than the rebuilt one, so the two differ
        # by == before either is dumped as JSON; only the small values that
        # are equal (the slope, the counts) are dumped, to tell a bool from
        # an int.
        dumped = []
        real = json.dumps
        monkeypatch.setattr(json, "dumps", lambda value, **kwargs: dumped.append(value) or real(value, **kwargs))
        for key, doc in self._documents():
            tampered = _with_count(doc, key, 2**14)
            assert certificates.validate_document(tampered) == ["path mismatch"]
        paths = [v for v in dumped if isinstance(v, list) or (isinstance(v, dict) and "segments" in v)]
        assert paths == []

    @pytest.mark.parametrize("count", [1, 3])
    def test_near_count_is_a_mismatch(self, count):
        for key, doc in self._documents():
            assert certificates.validate_document(_with_count(doc, key, count)) == ["path mismatch"]

    def test_path_that_is_not_a_list_is_a_mismatch(self):
        for key, doc in self._documents():
            doc = copy.deepcopy(doc)
            if key == "segments":
                doc.result["path"] = {"segments": doc.result["path"]}
            else:
                doc.result["path"]["segments"] = 2
            assert certificates.validate_document(doc) == ["path mismatch"]

    @pytest.mark.parametrize("stored", [None, 2, [], {}, {"segments": None}])
    def test_triangle_path_without_segments_list_is_a_mismatch(self, stored):
        doc = copy.deepcopy(self._documents()[1][1])
        doc.result["path"] = stored
        assert certificates.validate_document(doc) == ["path mismatch"]


class TestLatticeHorizon:
    """On a lattice slope the walk covers at most one period, so a document
    naming a huge horizon costs no more to check than one period.  The
    check rebuilds the document, so a valid one carries the rebuilt
    answer: here the answer at a small horizon."""

    SLOPE = QuadExt(0, F(1, 5))  # sqrt3/5: period 4 cells

    def _check_in_time(self, doc):
        doc = certificates.parse(certificates.serialize(doc))
        start = time.process_time()
        issues = certificates.validate_document(doc)
        assert time.process_time() - start < 0.5
        assert issues == []

    def test_miss_at_huge_horizon(self):
        hit = billiards.triangle_obstruction_check(self.SLOPE, F(1, 5), 150)
        assert hit is None
        self._check_in_time(certificates.triangle_document(self.SLOPE, F(1, 5), 10**9, hit, None))

    def test_min_obstacle_at_huge_horizon(self):
        tolerance = F(1, 1024)
        bracket = billiards.triangle_min_obstacle(self.SLOPE, 10_000, tolerance)
        assert bracket == (F(255, 1024), F(1, 4))
        doc = certificates.triangle_document(
            self.SLOPE, None, 10**9, None, None, bracket + (tolerance,)
        )
        self._check_in_time(doc)


# ---------------------------------------------------------------------------
# One tamper matrix over the seven commands whose check rebuilds the document
# ---------------------------------------------------------------------------

REBUILT = ["gap", "lonely", "verify", "kappa", "kscan", "billiard", "triangle"]
COUNTS = {
    "gap": ["grid"],
    "lonely": ["focus"],
    "verify": ["k", "max_speed"],
    "kscan": ["k", "max_coord"],
    "billiard": ["segments"],
    "triangle": ["horizon", "strikes"],
}


def _unreduced(value):
    """``value`` with every rational in it written as 2n/2d."""
    if isinstance(value, dict) and value.keys() == {"num", "den"}:
        return {"num": 2 * value["num"], "den": 2 * value["den"]}
    if isinstance(value, dict):
        return {key: _unreduced(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_unreduced(item) for item in value]
    return value


def _other(value):
    """A different JSON value of the same kind where one exists; a bool
    becomes the int Python equates with it."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, list):
        return value[:-1] if value else [0]
    if isinstance(value, dict):
        return None
    return 0


def _set_result(key, value):
    return lambda result, inputs: result.update({key: value})


def _set_input(key, value):
    return lambda result, inputs: inputs.update({key: value})


def _tamper_cases():
    cases = []
    for command in REBUILT:
        for key, value in DOCS[command].result.items():
            cases.append((command, f"drop {key}", lambda r, i, k=key: r.pop(k)))
            if value is not True:
                cases.append((command, f"{key}=true", _set_result(key, True)))
            if _unreduced(value) != value:
                cases.append((command, f"{key} unreduced", _set_result(key, _unreduced(value))))
            cases.append((command, f"{key} other", _set_result(key, _other(value))))
        cases.append((command, "extra result key", _set_result("extra", 1)))
        cases.append((command, "extra input key", _set_input("extra", 1)))
        for count in COUNTS.get(command, []):
            cases.append((command, f"{count}=true", _set_input(count, True)))
    return cases


def _verify_k1():
    return certificates.verify_document(gap.verify_lrc(1, 6))


def _lonely_focus_1():
    return certificates.lonely_document(gap.lonely_time((0, 1, 2, 3), 1))


def _path_only_triangle():
    slope = QuadExt(0, F(1, 5))
    return certificates.triangle_document(
        slope, None, 10_000, None, billiards.triangle_path_segments(slope, 2)
    )


SLOPE_1_5 = certificates.encode_quadext(QuadExt(0, F(1, 5)))
MADE_UP_HIT = {"found": True, "index": 0, "row": 0, "col": 0, "orientation": "up", "grazing": True}

# The holes that a field-by-field re-run left open, on top of the matrix.
EXTRA_CASES = [
    (_verify_k1, "k=1 checked=true", _set_result("checked", True)),
    (_verify_k1, "k=1 k=true", _set_input("k", True)),
    (_path_only_triangle, "path-only made-up hit", _set_result("hit", MADE_UP_HIT)),
    (lambda: DOCS["gap"], "unsorted speeds", _set_input("speeds", [3, 2, 1])),
    (_lonely_focus_1, "focus 1 as true", _set_input("focus", True)),
    (lambda: DOCS["triangle"], "slope unreduced", _set_input("slope", _unreduced(SLOPE_1_5))),
]


CASES = [
    (lambda c=command: DOCS[c], f"{command}: {name}", edit)
    for command, name, edit in _tamper_cases()
] + EXTRA_CASES


@pytest.mark.parametrize("build, edit", [(b, e) for b, _, e in CASES], ids=[n for _, n, _ in CASES])
def test_tampered_rebuilt_document_is_invalid(build, edit):
    _assert_edit_invalidates(build, edit)


def _assert_edit_invalidates(build, edit):
    original = build()
    assert certificates.validate_document(original) == []
    doc = certificates.parse(certificates.serialize(original))
    edit(doc.result, doc.inputs)
    assert certificates.validate_document(certificates.parse(certificates.serialize(doc))) != []


# ---------------------------------------------------------------------------
# The three commands whose check rebuilds the document from its own witness
# ---------------------------------------------------------------------------


def _conj34_1_2_3():
    return certificates.produce("conj34", {"speeds": [1, 2, 3]})


def _set_witness(key, value):
    return lambda result, inputs: result["witness"].update({key: value})


def _both(*edits):
    def edit(result, inputs):
        for one in edits:
            one(result, inputs)

    return edit


def _doc(command):
    return lambda: DOCS[command]


def _unreduced_rational(key, value, set_value=_set_result):
    return set_value(key, _unreduced(certificates.encode_rational(value)))


WITNESS_CASES = [
    (_doc(command), f"{command}: {name}", edit)
    for command in ["obstruct", "invisible", "conj34"]
    for name, edit in [
        ("extra result key", _set_result("extra", 1)),
        ("extra input key", _set_input("extra", 1)),
    ]
] + [
    (_conj34_1_2_3, "conj34: speeds [3, 2, 1]", _set_input("speeds", [3, 2, 1])),
    (
        _conj34_1_2_3,
        "conj34: speeds [3, 2, 1] and an extra result key",
        _both(_set_input("speeds", [3, 2, 1]), _set_result("extra", 1)),
    ),
    (_doc("conj34"), "conj34: speeds [3, 1]", _set_input("speeds", [3, 1])),
    (_doc("obstruct"), "obstruct: direction [true, 2]", _set_input("direction", [True, 2])),
    (
        _doc("obstruct"),
        "obstruct: direction [true, 2] and an extra result key",
        _both(_set_input("direction", [True, 2]), _set_result("extra", 1)),
    ),
    (_doc("obstruct"), "obstruct: direction [2, 4]", _set_input("direction", [2, 4])),
    (_doc("obstruct"), "obstruct: alpha 3/2", _set_input("alpha", {"num": 3, "den": 2})),
    (_doc("obstruct"), "obstruct: min_scale unreduced", _unreduced_rational("min_scale", F(1, 3))),
    (
        _doc("obstruct"),
        "obstruct: hit_time unreduced",
        _unreduced_rational("hit_time", F(1, 3), _set_witness),
    ),
    (_doc("obstruct"), "obstruct: extra witness key", _set_witness("extra", 1)),
    (_doc("invisible"), "invisible: speeds [3, 2, 1]", _set_input("speeds", [3, 2, 1])),
    (_doc("invisible"), "invisible: kept [3, 2]", _set_result("kept", [3, 2])),
    (
        _doc("invisible"),
        "invisible: kept_delta unreduced",
        _unreduced_rational("kept_delta", F(2, 5)),
    ),
    (_doc("invisible"), "invisible: extra witness key", _set_witness("extra", 1)),
    (
        # Every value matches the stored kept set {2, 3}, but 3 is no input speed.
        _doc("invisible"),
        "invisible: kept outside the original speeds",
        _both(_set_input("speeds", [1, 2, 4]), _set_result("removed", [1, 4])),
    ),
]


@pytest.mark.parametrize(
    "build, edit", [(b, e) for b, _, e in WITNESS_CASES], ids=[n for _, n, _ in WITNESS_CASES]
)
def test_tampered_witness_document_is_invalid(build, edit):
    _assert_edit_invalidates(build, edit)


class TestRebuiltVerdicts:
    def test_key_order_and_whitespace_do_not_count(self):
        for command in REBUILT:
            text = certificates.serialize(DOCS[command])
            doc = certificates.parse(json.dumps(json.loads(text), sort_keys=True))
            assert certificates.serialize(doc) != text
            assert certificates.validate_document(doc) == []

    def test_mismatch_names_the_key(self):
        doc = copy.deepcopy(DOCS["gap"])
        doc.result["delta"] = {"num": 2, "den": 8}
        assert certificates.validate_document(doc) == ["delta mismatch"]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc.result.pop("delta"),
            lambda doc: doc.result.update(extra=1),
            lambda doc: doc.result.update(delta={"num": 1, "den": 0}),
            lambda doc: doc.result.update(delta=True),
        ],
        ids=["missing key", "extra key", "zero denominator", "bool rational"],
    )
    def test_malformed(self, edit):
        doc = copy.deepcopy(DOCS["gap"])
        edit(doc)
        issues = certificates.validate_document(doc)
        assert len(issues) == 1 and issues[0].startswith("malformed document: ")

    def test_grid_bracket_is_still_checked(self, tmp_path, monkeypatch):
        # The oracle is an independent check of exact_gap: produce refuses a
        # grid value that does not bracket delta, so the rebuild under
        # lrc check refuses it as well.
        target = tmp_path / "gap.json"
        target.write_text(certificates.serialize(DOCS["gap"]))
        assert DOCS["gap"].inputs["grid"] is not None
        monkeypatch.setattr(gap, "gap_grid_oracle", lambda speeds, n: F(0))
        with pytest.raises(ArithmeticError, match="grid oracle 0 does not bracket delta 2/5"):
            certificates.produce("gap", {"speeds": [2, 3], "grid": 600})
        out, err = io.StringIO(), io.StringIO()
        assert run(["check", str(target)], out=out, err=err) == 2
        assert out.getvalue() == ""
        assert err.getvalue().startswith("counterexample: grid oracle 0 does not bracket delta")


class TestProduce:
    def test_unknown_command(self):
        with pytest.raises(ValueError):
            certificates.produce("frobnicate", {})

    def test_default_grid_resolution_bracket(self):
        # grid 0 asks for N = 64 * max speed * k: a bracket width of 1/(128 k).
        rng = random.Random(505)
        for _ in range(40):
            s = SpeedSet(rng.sample(range(1, 26), rng.randint(1, 4)))
            oracle = certificates.produce("gap", {"speeds": list(s), "grid": 0}).result["grid_oracle"]
            assert oracle["resolution"] == 64 * s.max * len(s)
            value = certificates.decode_rational(oracle["value"])
            assert value <= gap.exact_gap(s).delta <= value + F(1, 128 * len(s))

    def test_conj34_refuted_document(self, monkeypatch):
        monkeypatch.setattr(fieldsearch, "conj34_witness", lambda speeds: None)
        doc = certificates.produce("conj34", {"speeds": [3, 1]})
        assert (doc.inputs, doc.result) == ({"speeds": [1, 3]}, {"refuted": True})

    @pytest.mark.parametrize(
        "alpha, strikes, tolerance",
        [
            ({"num": 1, "den": 4}, None, None),
            (None, 5, None),
            ({"num": 1, "den": 4}, 5, None),
            (None, None, {"num": 1, "den": 64}),
            ({"num": 1, "den": 4}, 5, {"num": 1, "den": 64}),
        ],
        ids=["alpha", "strikes", "alpha-strikes", "min-obstacle", "alpha-strikes-min-obstacle"],
    )
    def test_triangle_slope_cleared_once(self, monkeypatch, alpha, strikes, tolerance):
        # Clearing a slope's denominators takes one lcm; a rebuild clears
        # once, whatever it is asked, and each engine takes the cleared
        # slope.  The document is the one the engines give for the slope.
        slope = QuadExt(F(1, 2), F(1, 3))
        inputs = {
            "slope": certificates.encode_quadext(slope),
            "alpha": alpha,
            "horizon": 50,
            "strikes": strikes,
            "tolerance": tolerance,
        }
        lcm, calls = billiards.lcm, []
        monkeypatch.setattr(billiards, "lcm", lambda *args: calls.append(args) or lcm(*args))
        doc = certificates.produce("triangle", inputs)
        assert len(calls) == 1
        monkeypatch.setattr(billiards, "lcm", lcm)
        hit = path = bracket = None
        if alpha is not None:
            alpha = certificates.decode_rational(alpha)
            hit = billiards.triangle_obstruction_check(slope, alpha, 50)
        if strikes is not None:
            path = billiards.triangle_path_segments(slope, strikes)
        if tolerance is not None:
            tolerance = certificates.decode_rational(tolerance)
            bracket = billiards.triangle_min_obstacle(slope, 50, tolerance) + (tolerance,)
        want = certificates.triangle_document(slope, alpha, 50, hit, path, bracket)
        assert certificates.serialize(doc) == certificates.serialize(want)

    def test_outputs_hold_no_speed_set(self):
        # marshal, which the check's comparison uses, refuses a tuple
        # subclass such as SpeedSet.
        for _, document in PINNED:
            doc = certificates.produce(document["command"], document["inputs"])
            payload = [doc.inputs, doc.result]
            assert not any(isinstance(v, SpeedSet) for v in _walk(payload)), doc.command
            assert marshal.loads(marshal.dumps(payload, 2)) == payload

    @pytest.mark.parametrize(
        "command, inputs, message",
        [
            ("gap", {"speeds": [1, 2, 3], "grid": -4}, "grid must be an integer >= 0, got -4"),
            ("lonely", {"speeds": [0, 1], "focus": -1}, "focus must be an integer from 0 to 1, got -1"),
            ("verify", {"k": 0, "max_speed": 5}, "k must be an integer from 1 to 10, got 0"),
            ("kscan", {"k": 2, "max_coord": 0}, "max_coord must be an integer from 2 to 2048, got 0"),
            (
                "billiard",
                {"slope": {"num": 1, "den": 2}, "alpha": None, "segments": 0},
                "segments must be an integer from 1 to 16384, got 0",
            ),
            (
                "triangle",
                {
                    "slope": {"a": {"num": 0, "den": 1}, "b": {"num": 1, "den": 5}},
                    "alpha": None,
                    "horizon": -5,
                    "strikes": 2,
                    "tolerance": None,
                },
                "horizon must be an integer >= 1, got -5",
            ),
        ],
        ids=["grid", "focus", "k", "max_coord", "segments", "horizon"],
    )
    def test_count_below_its_least_value(self, command, inputs, message):
        with pytest.raises(ValueError) as info:
            certificates.produce(command, inputs)
        assert str(info.value) == message


class TestInvisibleInputs:
    """The invisible check reads its inputs as a witness check: d a count
    below k, and a prime budget that admits the witness prime."""

    @pytest.mark.parametrize(
        "key, value",
        [("d", True), ("d", 3), ("prime_budget", "x"), ("prime_budget", 2)],
        ids=["d true", "d not below k", "budget not a count", "budget below the witness prime"],
    )
    def test_bad_input_is_invalid(self, key, value):
        doc = _with_count(DOCS["invisible"], key, value)
        assert doc.result["witness"]["prime"] == 5
        assert certificates.validate_document(doc) != []

    def test_budget_at_the_witness_prime_is_valid(self):
        doc = _with_count(DOCS["invisible"], "prime_budget", 5)
        assert certificates.validate_document(doc) == []

    @pytest.mark.parametrize(
        "prime, budget, issues",
        [
            (10**14 + 31, 10**5, ["prime 100000000000031 exceeds the prime budget 100000"]),
            (5, 10**17, [f"malformed document: prime_budget must be an integer from 1 to {2**40}, got {10**17}"]),
            (
                10**16 + 61,
                10**17,
                [f"malformed document: prime_budget must be an integer from 1 to {2**40}, got {10**17}"],
            ),
            (2**40 - 87, 2**40, []),
            (1048573 * 1048571, 2**40, [f"{1048573 * 1048571} is not prime"]),
        ],
        ids=["huge prime", "huge budget", "both", "largest prime within the cap", "semiprime near it"],
    )
    def test_hostile_prime_or_budget_is_settled_at_once(self, prime, budget, issues):
        # The witness prime is trial-divided only once it is within the
        # budget, and the budget is at most 2**40: at most 2**19 divisions.
        doc = _with_count(DOCS["invisible"], "prime_budget", budget)
        doc.result["witness"]["prime"] = prime
        start = time.process_time()
        assert certificates.validate_document(doc) == issues
        assert time.process_time() - start < 0.5

    @pytest.mark.parametrize(
        "key, value",
        [
            ("d", True),
            ("d", -1),
            ("prime_budget", 100_000.5),
            ("prime_budget", 0),
            ("prime_budget", 2**40 + 1),
        ],
        ids=["d true", "d negative", "budget a float", "budget zero", "budget above 2**40"],
    )
    def test_produce_refuses_what_the_check_calls_malformed(self, key, value):
        inputs = dict(DOCS["invisible"].inputs, **{key: value})
        with pytest.raises(ValueError):
            certificates.produce("invisible", inputs)
        doc = _with_count(DOCS["invisible"], key, value)
        issues = certificates.validate_document(doc)
        assert len(issues) == 1 and issues[0].startswith("malformed document: ")


def _gap_only_within(monkeypatch, speeds):
    """Make the gap engines the check calls, ``gap.check_gap`` and
    ``gap.exact_gap``, fail on any speed outside ``speeds``; returns the
    list of (engine, speeds) of each call, so that a guard on a binding the
    check no longer calls reads as a missing call rather than passing
    silently."""
    calls = []

    def guard(name):
        original = getattr(gap, name)

        def guarded(kept, *claim):
            assert set(kept) <= set(speeds), f"{name} ran on a speed outside the inputs"
            calls.append((name, tuple(kept)))
            return original(kept, *claim)

        monkeypatch.setattr(gap, name, guarded)

    guard("check_gap")
    guard("exact_gap")
    return calls


class TestWitnessDecides:
    """An ``invisible`` witness decides the kept speeds, its far set of the
    input speeds; the stored ``kept`` list is only compared."""

    def test_hostile_kept_list_is_a_mismatch(self, monkeypatch):
        calls = _gap_only_within(monkeypatch, [1, 2, 3])
        doc = copy.deepcopy(DOCS["invisible"])
        assert doc.inputs["speeds"] == [1, 2, 3] and doc.inputs["d"] == 1
        doc.result["kept"] = list(range(1, 801))
        assert certificates.validate_document(doc) == ["kept mismatch"]
        # The stored kept_delta is the gap of the witness's far set, which
        # the interval check proves: no exact_gap call.
        kept = tuple(DOCS["invisible"].result["kept"])
        assert calls == [("check_gap", kept)]
        # A tampered kept_delta as well: the interval check rejects it, and
        # the check stops there, with no exact_gap call.
        calls.clear()
        doc.result["kept_delta"] = {"num": 1, "den": 4}
        assert certificates.validate_document(doc) == ["kept_delta mismatch"]
        assert calls == [("check_gap", kept)]

    def test_widest_band_keeps_no_speed(self, monkeypatch):
        calls = _gap_only_within(monkeypatch, [])
        doc = copy.deepcopy(DOCS["invisible"])
        witness = doc.result["witness"]
        assert (witness["prime"], witness["band"]) == (5, 1)
        witness["band"] = 2
        assert certificates.validate_document(doc) == ["kept set too small"]
        assert calls == []

    def test_lowered_band_is_a_mismatch(self):
        doc = certificates.produce("invisible", {"speeds": [1, 2, 3, 4], "d": 1, "prime_budget": 100_000})
        assert doc.result["witness"]["band"] == 1
        doc.result["witness"]["band"] = 0
        # The far set is now all four speeds, whose gap is not the stored one.
        assert certificates.validate_document(doc) == ["kept_delta mismatch"]

    def test_obstruct_witness_below_its_scale_has_one_issue(self):
        # The alpha 1/3 witness certifies (1 - 1/3)/2, so no band witness
        # at its time can certify (1 - 1/4)/2 > delta = 1/3.
        doc = certificates.produce("obstruct", {"direction": [1, 2], "alpha": {"num": 1, "den": 3}})
        doc.inputs["alpha"] = {"num": 1, "den": 4}
        assert certificates.validate_document(doc) == ["witness residues enter the band"]


# The documents of the five commands whose check proves a stored gap.
GAP_FAMILY = [
    ["gap", "--speeds", "1,2,3"],
    ["gap", "--speeds", "2,3", "--grid", "600"],
    ["gap", "--speeds", "7"],
    ["kappa", "--speeds", "1,3,4,7"],
    ["lonely", "--speeds", "0,1,2,3", "--focus", "1"],
    ["obstruct", "--direction", "2,3,5", "--alpha", "1/2"],
    ["obstruct", "--direction", "1,2"],
    ["invisible", "--speeds", "1,2,3,4", "--d", "1"],
]


# The result key of each command's stored gap.
_STORED_GAP = {
    "gap": "delta",
    "kappa": "delta",
    "lonely": "min_separation",
    "obstruct": "min_scale",
    "invisible": "kept_delta",
}


def _cli_check(text, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    out = io.StringIO()
    code = run(["check", "-"], out=out)
    return code, json.loads(out.getvalue())["result"]


class TestIntervalCheck:
    """The check of a ``gap``, ``kappa``, ``lonely``, ``obstruct`` or
    ``invisible`` document proves its stored gap by ``gap.check_gap``."""

    @pytest.mark.parametrize("argv", GAP_FAMILY, ids=" ".join)
    def test_valid_documents_pass_without_the_search(self, argv, monkeypatch):
        out = io.StringIO()
        assert run(argv, out=out) == 0

        def refuse(*args):
            raise AssertionError("the check ran the gap search")

        monkeypatch.setattr(gap, "_maximize", refuse)
        assert _cli_check(out.getvalue(), monkeypatch) == (0, {"valid": True, "issues": []})

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["gap", "--speeds", "1,2,3"], "delta"),
            (["kappa", "--speeds", "1,3,4,7"], "delta"),
            (["lonely", "--speeds", "0,1,2,3", "--focus", "1"], "min_separation"),
            (["obstruct", "--direction", "2,3,5", "--alpha", "1/2"], "min_scale"),
            (["invisible", "--speeds", "1,2,3,4", "--d", "1"], "kept_delta"),
        ],
        ids=lambda value: value if isinstance(value, str) else value[0],
    )
    def test_a_wrong_engine_is_never_trusted(self, argv, key, monkeypatch):
        # exact_gap, at every binding, returns a gap above the true one, and
        # the document is built from it: the interval check rejects the
        # stored gap, and the check calls exact_gap no more.
        original = gap.exact_gap
        calls = []

        def wrong(speeds):
            calls.append(speeds)
            cert = original(speeds)
            return dataclasses.replace(cert, delta=(cert.delta + F(1, 2)) / 2)

        for module in (gap, fieldsearch, viewobstruct):
            monkeypatch.setattr(module, "exact_gap", wrong)
        out = io.StringIO()
        run(argv, out=out)
        produced = len(calls)
        code, report = _cli_check(out.getvalue(), monkeypatch)
        assert code == 2 and report["issues"] == [f"{key} mismatch"]
        assert len(calls) == produced

    @pytest.mark.parametrize("argv", GAP_FAMILY, ids=" ".join)
    def test_a_stored_gap_is_proved_or_rejected_without_the_search(self, argv, monkeypatch):
        # A wrong, an undecodable and a missing stored gap each end the
        # check with one issue, and neither the search nor exact_gap runs.
        out = io.StringIO()
        assert run(argv, out=out) == 0
        valid = json.loads(out.getvalue())
        key = _STORED_GAP[valid["command"]]

        def refuse(*args):
            raise AssertionError("the check ran the gap search")

        monkeypatch.setattr(gap, "_maximize", refuse)
        for module in (gap, fieldsearch, viewobstruct):
            monkeypatch.setattr(module, "exact_gap", refuse)
        stored = valid["result"][key]
        wrong = {"num": stored["num"], "den": stored["den"] + 1}
        cases = [
            (wrong, [f"{key} mismatch"]),
            ("1/3", ["malformed document: not a rational encoding: '1/3'"]),
            (None, [f"malformed document: '{key}'"]),
        ]
        for value, issues in cases:
            doc = copy.deepcopy(valid)
            if value is None:
                del doc["result"][key]
            else:
                doc["result"][key] = value
            report = {"valid": False, "issues": issues}
            assert _cli_check(json.dumps(doc), monkeypatch) == (2, report), value


# ---------------------------------------------------------------------------
# obstruct verdicts against the cube-containment rule
# ---------------------------------------------------------------------------


def cube_containment_verdict(doc) -> bool:
    """The rule an ``obstruct`` witness was once checked by, for documents
    whose direction and min_scale are as produced: the ray at the stored hit
    time lies in the closed cube of side alpha around each stored center,
    a half-integer m + 1/2 with m >= 0, one center per coordinate."""
    alpha = certificates._optional_rational(doc.inputs["alpha"])
    min_scale = certificates.decode_rational(doc.result["min_scale"])
    witness = doc.result["witness"]
    if alpha is None:
        return witness is None
    if not 0 < alpha < 1:
        return False
    if witness is None:
        return alpha < min_scale
    t = certificates.decode_rational(witness["hit_time"])
    centers = [certificates.decode_rational(c) for c in witness["cube_center"]]
    direction = doc.inputs["direction"]
    return (
        alpha >= min_scale
        and len(centers) == len(direction)
        and all(
            (center - F(1, 2)).denominator == 1
            and center >= F(1, 2)
            and abs(c * t - center) * 2 <= alpha
            for c, center in zip(direction, centers)
        )
    )


def _obstruct_variants(doc, rng):
    """The document with its hit time, centers and alpha changed, each
    edit kept in lowest terms so that only the witness decides."""
    direction = tuple(doc.inputs["direction"])
    alpha = certificates._optional_rational(doc.inputs["alpha"])
    min_scale = certificates.decode_rational(doc.result["min_scale"])
    yield doc
    stored = doc.result["witness"]
    if stored is None:
        yield certificates.obstruct_document(direction, alpha, min_scale, F(1, 2))
        return
    t = certificates.decode_rational(stored["hit_time"])
    times = [t + 1, t + 3, F(0), -t, t - 1, 1 - t, F(2), F(rng.randint(-9, 40), rng.randint(1, 40))]
    for time_ in times:
        moved = certificates.obstruct_document(direction, alpha, min_scale, time_)
        yield moved  # the centers the time itself gives
        kept = copy.deepcopy(moved)
        kept.result["witness"]["cube_center"] = copy.deepcopy(stored["cube_center"])
        yield kept
    for j, center in enumerate(stored["cube_center"]):
        for shift in (1, -1, F(1, 2)):
            moved = copy.deepcopy(doc)
            value = certificates.decode_rational(center) + shift
            moved.result["witness"]["cube_center"][j] = certificates.encode_rational(value)
            yield moved
    for edit in (lambda cs: cs.append(cs[0]), lambda cs: cs.pop()):
        moved = copy.deepcopy(doc)
        edit(moved.result["witness"]["cube_center"])
        yield moved
    for other in (None, F(1, 100), F(1, 2), F(99, 100), F(0), F(1), F(rng.randint(1, 30), 31)):
        moved = copy.deepcopy(doc)
        moved.inputs["alpha"] = None if other is None else certificates.encode_rational(other)
        yield moved
    moved = copy.deepcopy(doc)
    moved.result["witness"] = None
    yield moved


class TestObstructVerdicts:
    def test_matches_the_cube_containment_rule(self):
        rng = random.Random(2207)
        verdicts = []
        for _ in range(120):
            coords = [rng.randint(1, 20) for _ in range(rng.randint(1, 4))]
            q = rng.randint(2, 30)
            alpha = certificates.encode_rational(F(rng.randint(1, q - 1), q))
            inputs = {"direction": coords, "alpha": alpha}
            for doc in _obstruct_variants(certificates.produce("obstruct", inputs), rng):
                doc = certificates.parse(certificates.serialize(doc))
                valid = certificates.validate_document(doc) == []
                assert valid == cube_containment_verdict(doc), certificates.serialize(doc)
                verdicts.append(valid)
        assert verdicts.count(True) > 200 and verdicts.count(False) > 1000

    def test_hit_time_must_be_positive(self):
        # At -t and t - 1 every residue x*c mod n is mirrored or kept, so the
        # band check alone passes; the centers rebuilt there are negative.
        doc = DOCS["obstruct"]
        t = certificates.decode_rational(doc.result["witness"]["hit_time"])
        for time_ in (-t, t - 1):
            moved = certificates.obstruct_document((1, 2), F(1, 3), F(1, 3), time_)
            assert certificates.validate_document(moved) == ["hit time must be positive"]
        shifted = certificates.obstruct_document((1, 2), F(1, 3), F(1, 3), t + 1)
        assert certificates.validate_document(shifted) == []

    def test_cube_centers_are_the_nearest_half_integers(self):
        # Each center is ceil(c*t) - 1/2, the half-integer nearest c*t (the
        # lower one on a tie), encoded as a Fraction is: for times of either
        # sign and times at which c*t is whole or a half-integer.
        rng = random.Random(2240)
        times = [F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(3, 2), F(7, 4), F(-7, 4)]
        times += [F(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(300)]
        for time_ in times:
            direction = tuple(rng.randint(1, 40) for _ in range(rng.randint(1, 4)))
            doc = certificates.obstruct_document(direction, F(1, 3), F(1, 3), time_)
            want = [certificates.encode_rational(math.ceil(c * time_) - F(1, 2)) for c in direction]
            assert doc.result["witness"]["cube_center"] == want, (direction, time_)

    def test_whole_hit_time_misses_the_band(self):
        # At a whole time every coordinate is at a lattice point, so every
        # residue enters the band; the document stores no witness number.
        for time_ in (F(1), F(2)):
            moved = certificates.obstruct_document((1, 2), F(1, 3), F(1, 3), time_)
            assert certificates.validate_document(moved) == ["witness residues enter the band"]


# ---------------------------------------------------------------------------
# serialize against the standard library's encoder
# ---------------------------------------------------------------------------


def _stdlib_bytes(doc):
    """The format ``serialize`` writes, as the standard library writes it
    with its default cycle check."""
    payload = {
        "version": certificates.SCHEMA_VERSION,
        "command": doc.command,
        "inputs": doc.inputs,
        "result": doc.result,
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _assert_stdlib_bytes(doc):
    assert certificates.serialize(doc) == _stdlib_bytes(doc)


class _Pair(NamedTuple):
    first: object
    second: object


def _walk(value):
    """Every value nested in ``value``, itself included."""
    yield value
    if isinstance(value, (dict, list, tuple)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _walk(item)


class TestSerializeBytes:
    """``serialize`` writes exactly the bytes of ``json.dumps(payload,
    separators=(",", ":"))`` and a newline."""

    @pytest.mark.parametrize("command", sorted(DOCS))
    def test_built_documents(self, command):
        _assert_stdlib_bytes(DOCS[command])

    def test_pinned_documents(self):
        for _, document in PINNED:
            _assert_stdlib_bytes(certificates.parse(json.dumps(document)))

    def test_rebuilt_documents(self):
        # One document per command as the check rebuilds it from its inputs
        # (a triangle document encodes its slope from the cleared integers):
        # json.dumps's bytes, and the builder's.
        assert sorted(DOCS) == sorted(certificates._PRODUCERS)
        for command, doc in DOCS.items():
            rebuilt = certificates.produce(command, doc.inputs)
            payload = {
                "version": certificates.SCHEMA_VERSION,
                "command": command,
                "inputs": rebuilt.inputs,
                "result": rebuilt.result,
            }
            text = certificates.serialize(rebuilt)
            assert text == json.dumps(payload, separators=(",", ":")) + "\n", command
            assert text == certificates.serialize(doc), command

    def test_tampered_documents(self):
        for build, _, edit in CASES + WITNESS_CASES:
            doc = copy.deepcopy(build())
            edit(doc.result, doc.inputs)
            _assert_stdlib_bytes(doc)

    def test_check_report_with_hostile_issues(self, tmp_path):
        stored = json.loads(certificates.serialize(DOCS["gap"]))
        stored["result"]["delta"] = {"num": 'q"\\{}\t\u00e9', "den": ["\u2603", {"x": None}]}
        target = tmp_path / "hostile.json"
        target.write_text(json.dumps(stored))
        out = io.StringIO()
        assert run(["check", str(target)], out=out) == 2
        report = json.loads(out.getvalue())
        issues = report["result"]["issues"]
        assert any(
            issue.startswith("malformed document: not a rational encoding: {")
            and all(c in issue for c in '"\\{}\u00e9\u2603')
            for issue in issues
        )
        assert out.getvalue() == json.dumps(report, separators=(",", ":")) + "\n"

    def test_container_subclasses(self):
        # A subclass of list, tuple or dict is written as its base type.
        pair = _Pair([1, {"num": 1, "den": 2}], OrderedDict(num=3, den=4))
        items = type("Items", (list,), {})([pair, "s", []])
        for value in (SpeedSet([1, 2]), pair, OrderedDict(a=[1, 2], b=OrderedDict()), [pair, pair], items):
            doc = certificates.CertificateDocument("x", {"v": value}, {})
            _assert_stdlib_bytes(doc)
        text = certificates.serialize(certificates.CertificateDocument("x", {"v": SpeedSet([1, 2])}, {}))
        assert '"v":[1,2]' in text

    @pytest.mark.parametrize("command", sorted(DOCS))
    def test_indented_documents_still_check(self, command, tmp_path):
        # lrc-cert/1 documents were once written with json.dumps(indent=2);
        # whitespace carries nothing, so each such file still checks valid.
        indented = json.dumps(json.loads(certificates.serialize(DOCS[command])), indent=2) + "\n"
        assert "\n  " in indented
        target = tmp_path / "indented.json"
        target.write_text(indented)
        out = io.StringIO()
        assert run(["check", str(target)], out=out) == 0
        assert json.loads(out.getvalue())["result"]["valid"] is True

    def test_path_documents_share_points(self):
        square = billiards.square_path_segments(F(6, 17), 46)
        doc = certificates.billiard_document(square, billiards.square_min_obstacle(F(6, 17)), None, None)
        path = doc.result["path"]
        assert all(a[1] is b[0] for a, b in zip(path, path[1:]))
        _assert_stdlib_bytes(doc)
        slope = QuadExt(F(16, 11))
        triangle = billiards.triangle_path_segments(slope, 40)
        doc = certificates.triangle_document(slope, None, 10_000, None, triangle)
        segments = doc.result["path"]["segments"]
        assert all(a[1] is b[0] for a, b in zip(segments, segments[1:]))
        _assert_stdlib_bytes(doc)
        # Parsed back, nothing is shared, and the document is still valid.
        assert certificates.validate_document(certificates.parse(certificates.serialize(doc))) == []


def _encoded(monkeypatch) -> list:
    """Record each value ``serialize`` hands the prebuilt encoder."""
    calls = []
    encode = certificates._ENCODER.encode

    class Recording:
        def encode(self, value):
            calls.append(value)
            return encode(value)

    monkeypatch.setattr(certificates, "_ENCODER", Recording())
    return calls


class TestChainedPaths:
    """A path whose segments share their strike points is written from one
    encoding of its points, with the bytes of ``json.dumps``; any other
    segment list is written by the one call over the whole payload."""

    @staticmethod
    def _square(slope, segments):
        path = billiards.square_path_segments(slope, segments)
        return certificates.billiard_document(path, billiards.square_min_obstacle(slope), None, None)

    @staticmethod
    def _triangle(slope, strikes):
        return certificates.triangle_document(
            slope, None, 10_000, None, billiards.triangle_path_segments(slope, strikes)
        )

    def test_seeded_paths(self, monkeypatch):
        rng = random.Random(4301)
        docs = [self._square(F(3, 5), 1), self._triangle(QuadExt(F(16, 11)), 1)]
        corner = self._triangle(QuadExt(0, F(1, 3)), 40)
        assert corner.result["path"]["terminated_at_corner"]
        docs.append(corner)
        for _ in range(60):
            count = rng.choice([1, 2, rng.randint(1, 200)])
            docs.append(self._square(F(rng.randint(1, 40), rng.randint(1, 40)), count))
            if rng.random() < 0.5:
                slope = QuadExt(F(rng.randint(1, 16), rng.randint(10, 20)))
            else:
                slope = QuadExt(0, F(rng.randint(1, 9), rng.randint(10, 20)))
            docs.append(self._triangle(slope, count))
        calls = _encoded(monkeypatch)
        for doc in docs:
            del calls[:]
            _assert_stdlib_bytes(doc)
            assert len(calls) == 2 and calls[-1]["result"] is not doc.result  # the points, then the rest

    def test_paths_at_the_cap(self):
        _assert_stdlib_bytes(self._square(F(355, 113), 2**14))
        _assert_stdlib_bytes(self._triangle(QuadExt(F(16, 11)), 2**14))

    @staticmethod
    def _hand_built(command, points, **extra):
        """A chained segment list over ``points`` where ``command``'s
        builder puts its path."""
        segments = [[a, b] for a, b in zip(points, points[1:])]
        if command == "billiard":
            return certificates.CertificateDocument(command, {}, {"path": segments, **extra})
        return certificates.CertificateDocument(command, {}, {"path": {"segments": segments}, **extra})

    @pytest.mark.parametrize("command", ["billiard", "triangle"])
    @pytest.mark.parametrize(
        "points, takes_chain",
        [
            ([[1, 2], [3, 4], []], True),
            ([[1, 2], (3, 4), [5, 6]], False),  # a tuple is not a list
            ([[1, 2], "ab", [5, 6]], False),
            ([{"x": 1}, {"x": 2}], False),
            ([[1, "],["], [3, 4]], False),  # the split gives an extra text
            ([[[1], [2]], [3, 4]], False),  # so does a list of lists
            ([[1, [2]], [[3], 4]], True),  # lists that hold no "],["
            ([[1, 2], [3, "\0chain"]], True),
        ],
    )
    def test_hand_built_chains(self, monkeypatch, command, points, takes_chain):
        doc = self._hand_built(command, points)
        calls = _encoded(monkeypatch)
        _assert_stdlib_bytes(doc)
        assert (calls[-1]["result"] is not doc.result) == takes_chain

    @pytest.mark.parametrize("command", ["billiard", "triangle"])
    def test_mark_elsewhere_takes_the_single_call(self, monkeypatch, command):
        doc = self._hand_built(command, [[1, 2], [3, 4]], contact=certificates._CHAIN_MARK)
        calls = _encoded(monkeypatch)
        _assert_stdlib_bytes(doc)
        assert calls[-1]["result"] is doc.result

    def test_lists_that_do_not_chain_take_the_single_call(self, monkeypatch):
        unshared = [[[1, 2], [3, 4]], [[3, 4], [5, 6]]]
        calls = _encoded(monkeypatch)
        for segments in (unshared, [], [[[1, 2]]], [[[1], [2], [3]]], [[[1], [2]], "s"], (([1], [2]),)):
            for doc in (
                certificates.CertificateDocument("billiard", {}, {"path": segments}),
                certificates.CertificateDocument("triangle", {}, {"path": {"segments": segments}}),
                certificates.CertificateDocument("gap", {}, {"path": segments}),
            ):
                del calls[:]
                _assert_stdlib_bytes(doc)
                assert len(calls) == 1
