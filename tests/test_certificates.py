"""Round-trip and re-validation tests for certificate documents."""

import copy
from fractions import Fraction

import pytest

from lonelyrunner.arith import QuadExt, SpeedSet
from lonelyrunner import billiards, certificates, fieldsearch, gap, viewobstruct

F = Fraction


def build_all_documents():
    docs = {}
    docs["gap"] = certificates.gap_document(
        gap.exact_gap((1, 2, 3)), (600, gap.gap_grid_oracle((1, 2, 3), 600))
    )
    docs["lonely"] = certificates.lonely_document(gap.lonely_time((0, 1, 2, 3), 0))
    docs["verify"] = certificates.verify_document(gap.verify_lrc(2, 8))
    speeds = SpeedSet([3, 5])
    lower, upper, holds = gap.check_kappa_bounds(speeds)
    docs["kappa"] = certificates.kappa_document(
        speeds, lower, upper, gap.exact_gap(speeds).delta, holds
    )
    direction = viewobstruct.Direction((1, 2))
    docs["obstruct"] = certificates.obstruct_document(
        direction,
        F(1, 3),
        viewobstruct.min_scale_for_direction(direction),
        viewobstruct.obstruction_witness(direction, F(1, 3)),
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


class TestValidation:
    @pytest.mark.parametrize("command", sorted(DOCS))
    def test_valid_documents_pass(self, command):
        assert certificates.validate_document(DOCS[command]) == []

    def test_unknown_command(self):
        doc = certificates.CertificateDocument("frobnicate", {}, {})
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

    def test_conj34_accepts_another_valid_witness(self):
        # The engine's witness for {1, 2} is (3, 1, 0); (3, 2, 0) certifies
        # the same bound and is checked on its own merits.
        speeds = SpeedSet([1, 2])
        assert fieldsearch.conj34_witness(speeds) == (3, 1, 0)
        doc = certificates.conj34_document(speeds, fieldsearch.BandWitness(3, 2, 0))
        assert doc.result["residues"] == [2, 1]
        assert certificates.validate_document(doc) == []

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
