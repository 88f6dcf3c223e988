"""End-to-end tests of the command-line surface."""

import argparse
import ast
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lonelyrunner import cli, fieldsearch, gap, render, viewobstruct
from lonelyrunner.arith import QuadExt
from lonelyrunner.cli import UsageError, build_parser, run
from tests.test_pinned_documents import SVG_DIGESTS


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def invoke_json(argv):
    code, out, err = invoke(argv)
    assert out, f"no output; stderr: {err}"
    return code, json.loads(out)


class TestGapCommand:
    def test_dirichlet_example(self):
        code, doc = invoke_json(["gap", "--speeds", "1,2,3"])
        assert code == 0
        assert doc["result"]["delta"] == {"num": 1, "den": 4}

    def test_pair_example(self):
        code, doc = invoke_json(["gap", "--speeds", "2,3"])
        assert code == 0
        assert doc["result"]["delta"] == {"num": 2, "den": 5}

    def test_grid_cross_check(self):
        code, doc = invoke_json(["gap", "--speeds", "2,3", "--grid", "600"])
        assert code == 0
        oracle = doc["result"]["grid_oracle"]
        assert oracle["resolution"] == 600
        assert oracle["value"] == {"num": 2, "den": 5}

    def test_grid_default_resolution(self):
        code, doc = invoke_json(["gap", "--speeds", "1,2", "--grid"])
        assert code == 0
        assert doc["result"]["grid_oracle"]["resolution"] == 64 * 2 * 2

    def test_grid_past_int64_exits_one_at_once(self):
        # A grid of 4e18 points could not be scanned at all (nor in int64);
        # it is refused by its range, and this runs in a child process that
        # must exit well within the timeout.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        argv = ["gap", "--speeds", "1,2", "--grid", "4000000000000000000"]
        done = subprocess.run(
            [sys.executable, "-m", "lonelyrunner", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr == "error: resolution must be an integer from 4 to 4194304, got 4000000000000000000\n"

    @pytest.mark.parametrize("grid", [["--grid", "1000000000"], ["--grid"]])
    def test_grid_above_the_limit_exits_one_at_once(self, grid):
        # The default resolution 64 * max speed * k is capped as well.
        start = time.process_time()
        code, out, err = invoke(["gap", "--speeds", "1,100000000", *grid])
        assert time.process_time() - start < 0.5
        assert code == 1 and out == ""
        assert err.startswith("error: resolution must be an integer from 200000000 to 4194304, got ")

    def test_pair_sum_above_the_limit_exits_one_at_once(self):
        start = time.process_time()
        code, out, err = invoke(["gap", "--speeds", "1,4194304"])
        assert time.process_time() - start < 0.5
        assert (code, out) == (1, "")
        assert err == "error: largest pair sum 4194305 above the limit of 2**22\n"

    def test_bad_speeds(self):
        code, _, err = invoke(["gap", "--speeds", "1,x"])
        assert code == 1 and err

    def test_empty_speeds(self):
        code, _, err = invoke(["gap", "--speeds", ","])
        assert code == 1 and err


class TestSweepCommands:
    def test_verify(self):
        code, doc = invoke_json(["verify", "--k", "2", "--max-speed", "50"])
        assert code == 0
        assert [1, 2] in doc["result"]["tight"]
        assert doc["result"]["counterexamples"] == []

    def test_kscan(self):
        code, doc = invoke_json(["kscan", "--k", "2", "--max-coord", "6"])
        assert code == 0
        assert doc["result"]["observed_sup"] == {"num": 1, "den": 3}
        assert doc["result"]["extremal"] == [1, 2]

    def test_lonely(self):
        code, doc = invoke_json(["lonely", "--speeds", "0,1,2,3", "--focus", "0"])
        assert code == 0
        assert doc["result"]["min_separation"] == {"num": 1, "den": 4}
        assert doc["result"]["lonely"] is True

    def test_kappa(self):
        code, doc = invoke_json(["kappa", "--speeds", "3,5"])
        assert code == 0
        assert doc["result"] == {
            "lower": {"num": 1, "den": 4},
            "upper": {"num": 1, "den": 3},
            "delta": {"num": 1, "den": 2},
            "holds": True,
        }

    def test_kappa_check_proves_delta_without_exact_gap(self, tmp_path, monkeypatch):
        # The producer computes delta once; the check proves the stored
        # delta by the interval sweep, and rejects a tampered one without
        # exact_gap.
        calls = []
        original = gap.exact_gap

        def counted(speeds):
            calls.append(speeds)
            return original(speeds)

        monkeypatch.setattr(gap, "exact_gap", counted)
        path = tmp_path / "kappa.json"
        assert invoke(["kappa", "--speeds", "1,3,4,7", "--json", str(path)])[0] == 0
        assert len(calls) == 1
        code, checked = invoke_json(["check", str(path)])
        assert code == 0 and checked["result"]["valid"] is True
        assert len(calls) == 1
        doc = json.loads(path.read_text())
        doc["result"]["delta"] = {"num": 1, "den": 6}
        path.write_text(json.dumps(doc))
        code, checked = invoke_json(["check", str(path)])
        assert code == 2 and checked["result"]["issues"] == ["delta mismatch"]
        assert len(calls) == 1

    def test_obstruct_check_proves_min_scale_without_exact_gap(self, tmp_path, monkeypatch):
        # viewobstruct binds exact_gap at import, so both bindings count.
        calls = []
        original = gap.exact_gap

        def counted(speeds):
            calls.append(speeds)
            return original(speeds)

        monkeypatch.setattr(gap, "exact_gap", counted)
        monkeypatch.setattr(viewobstruct, "exact_gap", counted)
        path = tmp_path / "obstruct.json"
        argv = ["obstruct", "--direction", "2,3,5", "--alpha", "1/2", "--json", str(path)]
        assert invoke(argv)[0] == 0
        assert json.loads(path.read_text())["result"]["witness"] is not None
        assert len(calls) == 1
        code, checked = invoke_json(["check", str(path)])
        assert code == 0 and checked["result"]["valid"] is True
        assert len(calls) == 1
        doc = json.loads(path.read_text())
        doc["result"]["min_scale"] = {"num": 1, "den": 5}
        path.write_text(json.dumps(doc))
        code, checked = invoke_json(["check", str(path)])
        assert code == 2 and checked["result"]["issues"] == ["min_scale mismatch"]
        assert len(calls) == 1

    def test_obstruct_refuses_alpha_before_any_gap(self, monkeypatch):
        def no_gap(speeds):
            raise AssertionError("exact_gap ran before alpha was refused")

        monkeypatch.setattr(gap, "exact_gap", no_gap)
        monkeypatch.setattr(viewobstruct, "exact_gap", no_gap)
        argv = ["obstruct", "--direction", "2097151,2097153", "--alpha", "3/2"]
        assert invoke(argv) == (1, "", "error: alpha must lie strictly between 0 and 1\n")


class TestCounterexampleExit:
    """A document that reports a counterexample exits 2.  None occurs in
    the boxes the engines reach, so each engine is stubbed to report one."""

    def test_verify_counterexample(self, monkeypatch):
        report = gap.LrcSweepReport(2, 3, Fraction(1, 3), 3, ((1, 2),), ((2, 3),))
        monkeypatch.setattr(gap, "verify_lrc", lambda k, m: report)
        code, doc = invoke_json(["verify", "--k", "2", "--max-speed", "3"])
        assert code == 2 and doc["result"]["counterexamples"] == [[2, 3]]

    def test_kappa_bound_fails(self, monkeypatch):
        monkeypatch.setattr(gap, "kappa_bounds", lambda cert: (Fraction(1), Fraction(1), False))
        code, doc = invoke_json(["kappa", "--speeds", "3,5"])
        assert code == 2 and doc["result"]["holds"] is False

    def test_conj34_refuted(self, monkeypatch):
        monkeypatch.setattr(fieldsearch, "conj34_witness", lambda speeds: None)
        code, doc = invoke_json(["conj34", "--speeds", "1,3"])
        assert code == 2 and doc["result"] == {"refuted": True}

    def test_kscan_below_conjecture(self, monkeypatch):
        # A box holding a set with delta < 1/(k+1): its scale 1 - 2*delta
        # exceeds the conjectured (k-1)/(k+1).
        report = viewobstruct.KPrimeScanReport(
            2, 5, Fraction(3, 5), (1, 4), False, Fraction(1, 2)
        )
        monkeypatch.setattr(viewobstruct, "kprime_scan", lambda k, m: report)
        code, doc = invoke_json(["kscan", "--k", "2", "--max-coord", "5"])
        assert code == 2 and doc["result"]["matches_conjecture"] is False

    def test_lonely_runner_never_lonely(self, monkeypatch):
        speeds = (0, 1, 2)
        report = gap.LonelyReport(speeds, 0, Fraction(1, 4), Fraction(1, 4), False, Fraction(1, 4))
        monkeypatch.setattr(gap, "lonely_time", lambda s, focus: report)
        code, doc = invoke_json(["lonely", "--speeds", "0,1,2", "--focus", "0"])
        assert code == 2 and doc["result"]["lonely"] is False


class TestGeometryCommands:
    def test_obstruct_with_witness(self):
        code, doc = invoke_json(["obstruct", "--direction", "1,2", "--alpha", "1/3"])
        assert code == 0
        assert doc["result"]["min_scale"] == {"num": 1, "den": 3}
        assert doc["result"]["witness"] is not None

    def test_obstruct_below_scale(self):
        code, doc = invoke_json(["obstruct", "--direction", "1,2", "--alpha", "1/4"])
        assert code == 0
        assert doc["result"]["witness"] is None

    def test_billiard(self):
        code, doc = invoke_json(
            ["billiard", "--slope", "1/2", "--alpha", "1/3", "--segments", "8"]
        )
        assert code == 0
        assert doc["result"]["min_obstacle"] == {"num": 1, "den": 3}
        assert doc["result"]["contact"] == "boundary"

    def test_triangle_hit(self):
        code, doc = invoke_json(
            ["triangle", "--slope", "sqrt3*1/5", "--alpha", "1/4", "--horizon", "100"]
        )
        assert code == 0
        assert doc["result"]["hit"]["grazing"] is True

    def test_triangle_miss_exits_three(self):
        code, doc = invoke_json(
            ["triangle", "--slope", "sqrt3*1/5", "--alpha", "6/25", "--horizon", "500"]
        )
        assert code == 3  # horizon-qualified miss
        assert doc["result"]["hit"] == {"found": False}

    def test_triangle_path(self):
        code, doc = invoke_json(
            ["triangle", "--slope", "1/1", "--strikes", "10", "--horizon", "10"]
        )
        assert code == 0
        assert len(doc["result"]["path"]["segments"]) == 10

    def test_tolerance_without_min_obstacle_exits_one(self, tmp_path):
        # The bracket width is the value of --min-obstacle; there is no
        # separate --tolerance flag to give without it.
        argv = ["triangle", "--slope", "16/11", "--tolerance", "1/8"]
        code, out, err = invoke(argv)
        assert (code, out) == (1, "")
        assert err.startswith("lrc: unrecognized arguments: --tolerance 1/8\n")
        target = tmp_path / "doc.json"
        code, _, _ = invoke(argv + ["--json", str(target)])
        assert code == 1 and not target.exists()

    def test_tolerance_below_two_to_the_minus_64_exits_one(self, tmp_path):
        # Off the lattice each bisection probe walks the whole horizon, so
        # the bracket costs a walk per bit of the tolerance: it is capped.
        tiny = f"1/{2**64 + 1}"
        argv = ["triangle", "--slope", "16/11", "--min-obstacle", tiny]
        code, out, err = invoke(argv)
        assert (code, out) == (1, "")
        assert err == f"error: tolerance {tiny} below the limit of 2**-64\n"
        target = tmp_path / "doc.json"
        code, _, _ = invoke(argv + ["--json", str(target)])
        assert code == 1 and not target.exists()

    def test_tolerance_at_two_to_the_minus_64_is_bracketed(self, tmp_path):
        argv = ["triangle", "--slope", "sqrt3*1/5", "--horizon", "50", "--min-obstacle"]
        code, doc = invoke_json(argv + [f"1/{2**64}"])
        assert code == 0
        assert doc["result"]["min_obstacle"]["hi"] == {"num": 1, "den": 4}
        # The same document naming a smaller tolerance is malformed.
        doc["inputs"]["tolerance"] = {"num": 1, "den": 2**65}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, report = invoke_json(["check", str(path)])
        assert code == 2
        assert report["result"] == {
            "valid": False,
            "issues": [f"malformed document: tolerance 1/{2**65} below the limit of 2**-64"],
        }

    def test_triangle_min_obstacle(self):
        code, doc = invoke_json(
            ["triangle", "--slope", "sqrt3*1/5", "--min-obstacle", "--horizon", "300"]
        )
        assert code == 0
        bracket = doc["result"]["min_obstacle"]
        assert bracket["hi"] == {"num": 1, "den": 4}

    @pytest.mark.parametrize("slope", ["0", "sqrt3", "-1/2", "2"])
    @pytest.mark.parametrize(
        "extra",
        [
            ["--alpha", "1/4"],
            ["--alpha", "0"],
            ["--alpha", "3/2"],
            ["--strikes", "3"],
            ["--min-obstacle", "0"],
            [],
            ["--horizon", "0"],
        ],
        ids=lambda extra: " ".join(extra) or "slope-only",
    )
    def test_triangle_slope_outside_wedge_exits_one(self, slope, extra):
        # The slope is reported ahead of a bad alpha, horizon or tolerance,
        # and refused when nothing else is asked.
        code, out, err = invoke(["triangle", f"--slope={slope}", *extra])
        assert (code, out) == (1, "")
        assert err == "error: slope must lie strictly between 0 and sqrt(3)\n"

    @pytest.mark.parametrize("b", [0, 1, 2])
    def test_check_reports_edited_slope_outside_wedge(self, b, tmp_path):
        _, out, _ = invoke(["triangle", "--slope", "sqrt3*1/5"])
        data = json.loads(out)
        data["inputs"]["slope"]["b"] = {"num": b, "den": 1}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(data))
        code, doc = invoke_json(["check", str(path)])
        assert code == 2
        assert doc["result"] == {
            "valid": False,
            "issues": ["malformed document: slope must lie strictly between 0 and sqrt(3)"],
        }

    def test_rational_slope_parsing(self):
        code, doc = invoke_json(
            ["triangle", "--slope", "3/2", "--alpha", "1/2", "--horizon", "50"]
        )
        assert code in (0, 3)
        assert doc["inputs"]["slope"]["a"] == {"num": 3, "den": 2}


class TestFieldCommands:
    def test_invisible(self):
        code, doc = invoke_json(["invisible", "--speeds", "1,2,3", "--d", "1"])
        assert code == 0
        assert doc["result"]["kept_delta"] == {"num": 2, "den": 5}

    def test_invisible_budget_exhaustion(self):
        code, _, err = invoke(
            ["invisible", "--speeds", "1,2,3", "--d", "1", "--prime-budget", "3"]
        )
        assert code == 3 and "budget" in err

    @pytest.mark.parametrize("budget, code", [("1", 3), ("0", 1), ("-5", 1)])
    def test_budget_below_one_is_a_usage_error(self, budget, code):
        argv = ["invisible", "--speeds", "1,2,3", "--d", "1", "--prime-budget", budget]
        assert invoke(argv)[0] == code

    def test_budget_above_the_cap_is_a_usage_error(self):
        argv = ["invisible", "--speeds", "1,2,3", "--d", "1", "--prime-budget", str(2**40 + 1)]
        code, out, err = invoke(argv)
        assert (code, out) == (1, "")
        assert err == f"error: prime_budget must be an integer from 1 to {2**40}, got {2**40 + 1}\n"
        argv[-1] = str(2**40)
        assert invoke(argv)[0] == 0

    def test_conj34(self):
        code, doc = invoke_json(["conj34", "--speeds", "1,3"])
        assert code == 0
        assert doc["result"] == {"n": 4, "x": 2, "m": 1, "residues": [2, 2]}


class TestCheckConj34:
    def test_check_computes_no_gap(self, tmp_path, monkeypatch):
        path = tmp_path / "conj34.json"
        assert invoke(["conj34", "--speeds", "1,3,4,7", "--json", str(path)])[0] == 0

        def refuse(speeds):
            raise AssertionError("a conj34 check must not compute a gap")

        monkeypatch.setattr(gap, "exact_gap", refuse)
        monkeypatch.setattr(fieldsearch, "exact_gap", refuse)
        code, checked = invoke_json(["check", str(path)])
        assert code == 0 and checked["result"] == {"valid": True, "issues": []}


class TestHostileWitness:
    """Witness numbers out of range are issues, reported before any modulo."""

    def _check_tampered(self, tmp_path, argv, edit):
        _, out, _ = invoke(argv)
        data = json.loads(out)
        edit(data["result"])
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(data))
        code, doc = invoke_json(["check", str(path)])
        assert code == 2 and doc["result"]["valid"] is False
        assert doc["result"]["issues"]

    @pytest.mark.parametrize("prime", [0, -7, True])
    def test_invisible_prime(self, tmp_path, prime):
        argv = ["invisible", "--speeds", "1,2,3", "--d", "1"]
        self._check_tampered(tmp_path, argv, lambda res: res["witness"].update(prime=prime))

    @pytest.mark.parametrize(
        "speeds, field, value",
        [
            ("1,3", "n", 0),
            # The engine's witness for {2, 3, 7} is (5, 1, 1): a bool x or a
            # float n would otherwise reproduce its residues.
            ("2,3,7", "x", True),
            ("2,3,7", "n", 5.0),
        ],
    )
    def test_conj34_witness_numbers(self, tmp_path, speeds, field, value):
        argv = ["conj34", "--speeds", speeds]
        self._check_tampered(tmp_path, argv, lambda res: res.update({field: value}))


class TestCheckCommand:
    def test_round_trip_valid(self, tmp_path):
        _, out, _ = invoke(["gap", "--speeds", "1,2,3,4"])
        path = tmp_path / "doc.json"
        path.write_text(out)
        code, doc = invoke_json(["check", str(path)])
        assert code == 0 and doc["result"]["valid"] is True

    def test_json_flag_writes_file(self, tmp_path):
        path = tmp_path / "cert.json"
        code, out, _ = invoke(["gap", "--speeds", "2,3", "--json", str(path)])
        assert code == 0 and out == ""
        doc = json.loads(path.read_text())
        assert doc["result"]["delta"] == {"num": 2, "den": 5}
        code, checked = invoke_json(["check", str(path)])
        assert code == 0 and checked["result"]["valid"] is True

    def test_detects_tampering(self, tmp_path):
        _, out, _ = invoke(["gap", "--speeds", "1,2,3,4"])
        data = json.loads(out)
        data["result"]["delta"] = {"num": 1, "den": 3}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(data))
        code, doc = invoke_json(["check", str(path)])
        assert code == 2 and doc["result"]["valid"] is False

    def test_zero_denominator_is_reported_invalid(self, tmp_path):
        _, out, _ = invoke(["gap", "--speeds", "1,2,3"])
        data = json.loads(out)
        data["result"]["delta"] = {"num": 1, "den": 0}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(data))
        code, doc = invoke_json(["check", str(path)])
        assert code == 2 and doc["result"]["valid"] is False
        assert any("malformed" in issue for issue in doc["result"]["issues"])

    def test_missing_file(self):
        code, _, err = invoke(["check", "/nonexistent/cert.json"])
        assert code == 1 and err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gap", "--speeds", "1,2", "--json"],
            ["check", "-", "--json"],
            ["render", "--scene", "obstruction2d", "--svg"],
        ],
        ids=["json", "check json", "svg"],
    )
    def test_unwritable_output_path_exits_one(self, tmp_path, monkeypatch, argv):
        monkeypatch.setattr("sys.stdin", io.StringIO(invoke(["gap", "--speeds", "1,2"])[1]))
        path = tmp_path / "missing" / "out"
        code, out, err = invoke(argv + [str(path)])
        assert code == 1 and out == ""
        assert err.startswith(f"cannot write {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, inputs",
        [
            ("gap", {"speeds": [1, 4194304], "grid": None}),
            ("lonely", {"speeds": [0, 1, 4194304], "focus": 0}),
            ("kappa", {"speeds": [1, 4194304]}),
            ("obstruct", {"direction": [1, 4194304], "alpha": None}),
        ],
    )
    def test_pair_sum_above_the_limit_is_malformed_at_once(self, tmp_path, command, inputs):
        # A hostile document naming speeds whose largest pair sum exceeds
        # 2**22 is refused before any candidate time is tested.
        path = tmp_path / "doc.json"
        doc = {"version": "lrc-cert/1", "command": command, "inputs": inputs, "result": {}}
        path.write_text(json.dumps(doc))
        start = time.process_time()
        code, checked = invoke_json(["check", str(path)])
        assert time.process_time() - start < 0.5
        assert code == 2 and checked["result"]["valid"] is False
        issues = checked["result"]["issues"]
        assert issues == ["malformed document: largest pair sum 4194305 above the limit of 2**22"]

    @pytest.mark.parametrize("command, key", [("verify", "max_speed"), ("kscan", "max_coord")])
    def test_sweep_box_above_the_cap_is_malformed_at_once(self, tmp_path, command, key):
        # A document naming a box past 2048 is refused before the sweep
        # allocates anything.
        argv = [command, "--k", "3", "--" + key.replace("_", "-"), "8"]
        code, doc = invoke_json(argv)
        assert code == 0
        doc["inputs"][key] = 2**40
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        start = time.process_time()
        code, checked = invoke_json(["check", str(path)])
        assert time.process_time() - start < 1
        assert code == 2
        assert checked["result"]["issues"] == [
            f"malformed document: {key} must be an integer from 3 to 2048, got {2**40}"
        ]

    @pytest.mark.parametrize("depth", [1, 600])
    def test_command_that_is_not_a_string_exits_one(self, tmp_path, depth):
        # The report would echo the command; a list nested 600 deep once
        # overflowed the encoder's recursion.
        command = "[" * depth + '"gap"' + "]" * depth
        path = tmp_path / "doc.json"
        path.write_text('{"version": "lrc-cert/1", "command": %s, "inputs": {}, "result": {}}' % command)
        code, out, err = invoke(["check", str(path)])
        assert (code, out) == (1, "")
        assert err == "certificate document command must be a string\n"

    def test_deep_nesting_exits_one_without_traceback(self):
        # json.loads recurses once per nesting level; a child process shows
        # what reaches stderr.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        done = subprocess.run(
            [sys.executable, "-m", "lonelyrunner", "check", "-"],
            input="[" * 5000 + "]" * 5000, capture_output=True, text=True, env=env, timeout=60,
        )
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == "certificate document is nested too deeply\n"

    @pytest.mark.parametrize(
        "argv",
        [["gap", "--speeds", "1,2,3"], ["gap", "--speeds", ",".join(map(str, range(1, 301)))]],
        ids=["small", "past the buffer"],
    )
    def test_closed_stdout_exits_one_without_traceback(self, argv):
        # The pipe's read end is closed before the child starts, so every
        # write to stdout fails.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "lonelyrunner", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert done.stderr == "cannot write stdout: [Errno 32] Broken pipe\n"


WEDGE_MESSAGE = "error: slope must lie strictly between 0 and sqrt(3)\n"
POSITIVE_MESSAGE = "error: slope must be positive\n"


class TestRenderCommand:
    @pytest.mark.parametrize(
        "argv",
        [
            ["render", "--scene", "obstruction2d", "--alpha", "1/3", "--rays", "2,1/2,1/5"],
            ["render", "--scene", "square_billiard", "--slope", "1/2", "--alpha", "1/3"],
            ["render", "--scene", "triangle_billiard", "--slope", "1/1", "--strikes", "10"],
            ["render", "--scene", "triangle_tiling", "--alpha", "1/4", "--extent", "6"],
        ],
    )
    def test_scenes_emit_svg(self, argv):
        code, out, _ = invoke(argv)
        assert code == 0
        assert out.startswith("<!--")
        assert "<svg" in out and out.rstrip().endswith("</svg>")

    def test_svg_to_file(self, tmp_path):
        target = tmp_path / "figure.svg"
        code, out, _ = invoke(
            ["render", "--scene", "square_billiard", "--slope", "1/2", "--svg", str(target)]
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("<!--")

    def test_missing_slope(self):
        code, _, err = invoke(["render", "--scene", "square_billiard"])
        assert code == 1 and err

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(argv.split(), message, id=argv)
            for argv, message in [
                (
                    "render --scene square_billiard --slope 1/2 --segments 0",
                    "segments must be an integer from 1 to 16384, got 0",
                ),
                (
                    "render --scene triangle_billiard --slope 1/1 --strikes 0",
                    "strikes must be an integer from 1 to 16384, got 0",
                ),
                ("render --scene obstruction2d --extent 0", "extent must be an integer from 1 to 100, got 0"),
                ("render --scene triangle_tiling --extent -2", "extent must be an integer from 1 to 100, got -2"),
            ]
        ],
    )
    def test_count_below_one_exits_one_without_svg(self, argv, message, tmp_path):
        # A zero count is a count, not a missing flag: it is rejected, not
        # replaced by the scene's default.
        code, out, err = invoke(argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        target = tmp_path / "figure.svg"
        code, _, _ = invoke(argv + ["--svg", str(target)])
        assert code == 1 and not target.exists()

    @pytest.mark.parametrize("alpha", ["0", "1", "2", "-1/2"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["render", "--scene", "obstruction2d"],
            ["render", "--scene", "square_billiard", "--slope", "1/2"],
            ["render", "--scene", "triangle_billiard", "--slope", "sqrt3*1/5"],
            ["render", "--scene", "triangle_tiling"],
        ],
        ids=lambda argv: argv[2],
    )
    def test_alpha_outside_unit_interval_exits_one_without_svg(self, argv, alpha, tmp_path):
        argv = argv + [f"--alpha={alpha}"]  # the = form lets argparse take "-1/2"
        code, out, err = invoke(argv)
        assert (code, out) == (1, "")
        assert "alpha must lie strictly between 0 and 1" in err
        target = tmp_path / "figure.svg"
        code, _, _ = invoke(argv + ["--svg", str(target)])
        assert code == 1 and not target.exists()


    @pytest.mark.parametrize("extent", [101, 10**6])
    @pytest.mark.parametrize("scene", ["obstruction2d", "triangle_tiling"])
    def test_extent_above_limit_exits_one_at_once(self, scene, extent, tmp_path):
        target = tmp_path / "figure.svg"
        argv = ["render", "--scene", scene, "--extent", str(extent)]
        start = time.process_time()
        code, out, err = invoke(argv)
        assert time.process_time() - start < 0.5
        assert (code, out, err) == (1, "", f"error: extent must be an integer from 1 to 100, got {extent}\n")
        code, _, _ = invoke(argv + ["--svg", str(target)])
        assert code == 1 and not target.exists()


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--scene", "triangle_tiling", "--rays", "2"], WEDGE_MESSAGE),
            (["--scene", "triangle_tiling", "--rays", "0"], WEDGE_MESSAGE),
            (["--scene", "triangle_tiling", "--rays", "sqrt3"], WEDGE_MESSAGE),
            (["--scene", "triangle_tiling", "--rays", "1/2,2"], WEDGE_MESSAGE),
            (["--scene", "obstruction2d", "--rays=-1"], POSITIVE_MESSAGE),
            (["--scene", "obstruction2d", "--rays", "0"], POSITIVE_MESSAGE),
            (["--scene", "obstruction2d", "--rays", "1/2,0"], POSITIVE_MESSAGE),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else "",
    )
    def test_ray_outside_the_scene_exits_one_without_svg(self, argv, message, tmp_path):
        # The slopes that triangle_billiard and square_billiard refuse, with
        # the same messages.
        code, out, err = invoke(["render", *argv])
        assert (code, out, err) == (1, "", message)
        target = tmp_path / "figure.svg"
        code, _, _ = invoke(["render", *argv, "--svg", str(target)])
        assert code == 1 and not target.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--scene", "triangle_billiard", "--slope", "1/2", "--segments", "3"], "segments"),
            (["--scene", "square_billiard", "--slope", "1/2",
              "--extent", "5", "--rays", "3", "--strikes", "4"], "rays"),
            (["--scene", "obstruction2d", "--slope", "1/2"], "slope"),
            (["--scene", "square_billiard", "--slope", "1/2", "--strikes", "3"], "strikes"),
            (["--scene", "triangle_tiling", "--segments", "2"], "segments"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else "",
    )
    def test_flag_the_scene_does_not_take_exits_one_without_svg(self, argv, flag, tmp_path):
        code, out, err = invoke(["render", *argv])
        assert (code, out) == (1, "")
        assert err == f"error: scene {argv[1]}: got an unexpected keyword argument {flag!r}\n"
        target = tmp_path / "figure.svg"
        code, _, _ = invoke(["render", *argv, "--svg", str(target)])
        assert code == 1 and not target.exists()

    @pytest.mark.parametrize(
        "argv, required",
        [
            (["--scene", "obstruction2d"], {}),
            (["--scene", "square_billiard", "--slope", "6/17"], {"slope": Fraction(6, 17)}),
            (["--scene", "triangle_billiard", "--slope", "16/11"],
             {"slope": QuadExt(Fraction(16, 11))}),
            (["--scene", "triangle_tiling"], {}),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else "",
    )
    def test_library_defaults_draw_the_pinned_cli_default(self, argv, required):
        # Each default is stated once, in the scene's drawing signature.
        text = render.render_svg(argv[1], **required)
        pinned = {tuple(a): digest for a, digest in SVG_DIGESTS}
        assert hashlib.sha256(text.encode()).hexdigest() == pinned[tuple(argv)]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gap", "--speeds", "3,7,11"],
            ["verify", "--k", "2", "--max-speed", "15"],
            ["obstruct", "--direction", "2,3,5", "--alpha", "1/2"],
            ["triangle", "--slope", "sqrt3*2/7", "--alpha", "1/3", "--horizon", "200"],
            ["render", "--scene", "triangle_tiling", "--alpha", "1/4", "--extent", "5"],
        ],
    )
    def test_byte_identical_output(self, argv):
        first = invoke(argv)
        second = invoke(argv)
        assert first == second

    def test_malformed_speeds_report_is_independent_of_the_hash_seed(self, tmp_path):
        # Mixed types in a set iterate in an order that depends on the hash
        # seed; the report must not.
        _, out, _ = invoke(["gap", "--speeds", "1,29"])
        doc = json.loads(out)
        doc["inputs"]["speeds"] = ["x", 29]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        src = str(Path(__file__).resolve().parents[1] / "src")
        reports = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
            done = subprocess.run(
                [sys.executable, "-m", "lonelyrunner", "check", str(path)],
                capture_output=True, env=env, timeout=60,
            )
            reports.append((done.returncode, done.stdout, done.stderr))
        assert reports[0] == reports[1]
        assert b"got 'x'" in reports[0][1] + reports[0][2]


class TestUsage:
    def test_no_subcommand(self):
        code, _, err = invoke([])
        assert code == 1 and "usage" in err.lower()

    def test_unknown_flag(self):
        code, _, err = invoke(["gap", "--nope"])
        assert code == 1 and "usage" in err.lower()

    def test_unknown_subcommand(self):
        code, _, err = invoke(["frobnicate"])
        assert code == 1

    def test_usage_error_leaves_the_shared_parser_intact(self):
        # The parser is built once per process; a failed parse must not
        # leak state into the next invocation.
        code, _, err = invoke(["verify", "--k", "3"])
        assert code == 1 and "--max-speed" in err
        code, doc = invoke_json(["gap", "--speeds", "2,3"])
        assert code == 0 and doc["command"] == "gap"
        assert doc["result"]["delta"] == {"num": 2, "den": 5}


def _argparse_stderr(argv):
    """What ``run`` wrote to stderr when the top-level parser read every
    argv: argparse's own error, or the usage alone without a subcommand."""
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        return str(exc).rstrip() + "\n"
    assert args.subcommand is None
    return build_parser().format_usage().rstrip() + "\n"


def _subcommands() -> dict:
    """The subparsers of ``build_parser()`` by name."""
    return next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices


def _full_parse(argv):
    """``build_parser().parse_args(argv)`` as (key, value) pairs in order, or
    the text of the usage error it raises."""
    try:
        return list(vars(build_parser().parse_args(argv)).items())
    except UsageError as exc:
        return str(exc)


# Values for any flag or positional: some each type takes, some it refuses
# with a ValueError or with a UsageError, and some that start with "-".
_VALUES = [
    "1", "3", "12", "1,2,3", "2,3,7", "1/3", "6/17", "sqrt3*1/5", "x", "1,x", "a/b",
    "", "x.json", "-", "-1", "-1/2", "--", *render.SCENES,
]


def _taken(action) -> list[str]:
    """The values of ``_VALUES`` that ``cli._read`` may take for ``action``:
    none that starts with "-" (but "-" for a positional), is outside its
    choices, or makes its type raise a ``ValueError``.  A ``UsageError``
    from the type is kept."""
    taken = []
    for value in _VALUES:
        try:
            parsed = value if action.type is None else action.type(value)
        except ValueError:
            continue
        except UsageError:
            parsed = None
        dash = value.startswith("-") and (value != "-" or action.option_strings)
        if not dash and (action.choices is None or parsed in action.choices):
            taken.append(value)
    return taken


@st.composite
def _argvs(draw, command):
    """An argv for ``command`` from its flag vocabulary.  Each flag or
    positional is left out (a required one at times too), or given in
    one of these forms: plain, with a value ``cli._read`` may take;
    abbreviated, ambiguous ones included; as ``--flag=value``; or with any
    value, one that starts with "-" among them.  Up to two extra chunks
    follow: a repeated flag, a flag missing its value, an extra positional
    or ``--``.  The chunks are shuffled.  Help is left out."""
    actions = [a for a in _subcommands()[command]._actions if a.dest != "help"]
    flags = [f for a in actions for f in a.option_strings]
    value = st.sampled_from(_VALUES)

    def chunk(action, form):
        flag = action.option_strings[:1]
        short = [flag[0][:n] for n in range(3, len(flag[0]))] if flag else []
        short = [s for s in short if not "--help".startswith(s)]
        taken = st.sampled_from(_taken(action))
        if form == "abbreviated" and short:
            return [draw(st.sampled_from(short)), draw(taken)]
        if form == "equals" and flag:
            return [f"{flag[0]}={draw(taken)}"]
        if form == "any value":
            return flag + [draw(value)]
        return flag + [draw(taken)]

    forms = ["plain"] * 12 + ["abbreviated", "equals", "any value"]
    chunks = [
        chunk(a, draw(st.sampled_from(forms)))
        for a in actions
        if (draw(st.integers(0, 7)) > 0 if a.required else draw(st.booleans()))
    ]
    extra = st.one_of(
        st.sampled_from(actions).map(lambda a: chunk(a, "plain")),
        st.sampled_from(flags + ["--", "extra"]).map(lambda t: [t]),
    )
    chunks += draw(st.lists(extra, max_size=2))
    return [command] + [token for c in draw(st.permutations(chunks)) for token in c]


_PRODUCING = [
    ["gap", "--speeds", "3,7,12"],
    ["lonely", "--speeds", "3,0,7,2", "--focus", "2"],
    ["verify", "--k", "3", "--max-speed", "10"],
    ["kappa", "--speeds", "1,3,4,7"],
    ["obstruct", "--direction", "2,3,5", "--alpha", "7/20"],
    ["kscan", "--k", "3", "--max-coord", "8"],
    ["billiard", "--slope", "6/17", "--alpha", "82/115", "--segments", "46"],
    ["triangle", "--slope", "16/11", "--alpha", "1/4", "--strikes", "40"],
    ["invisible", "--speeds", "1,2,3,4,5", "--d", "2"],
    ["conj34", "--speeds", "2,3,7"],
]


class TestDispatch:
    """``run`` reads the plain form of argv with ``cli._read`` and hands
    every other argv to the full parse; the namespace and every usage error
    must be those of the full parse."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["gap", "--speeds", "3,7", "--grid"],
            ["lonely", "--speeds", "3,0,7", "--focus", "1"],
            ["verify", "--max-speed", "10", "--k", "3"],
            ["kappa", "--speeds=1,3,4,7"],
            ["obstruct", "--direction", "2,3", "--alpha", "1/3", "--json", "x.json"],
            ["kscan", "--k", "2", "--max-coord", "6"],
            ["billiard", "--slope", "2/3", "--segments", "5"],
            ["triangle", "--slope", "sqrt3*1/5", "--min-obstacle", "--strikes", "3"],
            ["invisible", "--speeds", "1,2,3", "--d", "1"],
            ["conj34", "--speeds", "2,3,7"],
            ["check", "-"],
            ["render", "--scene", "triangle_tiling", "--extent", "5"],
        ],
        ids=" ".join,
    )
    def test_namespace_equals_the_full_parse(self, argv, monkeypatch):
        seen = []

        def capture(args, out):
            seen.append(args)
            return 0

        monkeypatch.setattr(cli, "_cmd_produce", capture)
        monkeypatch.setattr(cli, "_COMMANDS", {"check": capture, "render": capture})
        assert run(argv) == 0
        # Key order too: a document's inputs follow the namespace's order.
        assert list(vars(seen[0]).items()) == list(vars(build_parser().parse_args(argv)).items())

    @pytest.mark.parametrize(
        "argv",
        [
            ["gap", "--speeds", "1,2", "extra"],
            ["gap", "--speeds", "1,2", "--bogus"],
            ["gap", "--speeds", "1,2", "--", "x"],
            [],
            ["bogus"],
            ["--speeds", "1", "gap"],
            ["gap"],
            ["verify", "--k", "x", "--max-speed", "3"],
        ],
        ids=repr,
    )
    def test_usage_errors_are_those_of_the_full_parse(self, argv):
        code, out, err = invoke(argv)
        assert (code, out, err) == (1, "", _argparse_stderr(argv))

    def test_leftover_arguments_are_reported_by_the_top_level_parser(self):
        code, _, err = invoke(["gap", "--speeds", "1,2", "extra"])
        assert code == 1
        assert err == "lrc: unrecognized arguments: extra\nusage: lrc [-h] SUBCOMMAND ...\n"
        code, _, err = invoke(["gap", "--speeds", "1,2", "--", "x"])
        assert err.startswith("lrc: unrecognized arguments: -- x\n")

    @pytest.mark.parametrize("command", sorted(_subcommands()))
    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_reader_declines_or_equals_the_full_parse(self, command, data):
        argv = data.draw(_argvs(command))
        expected = _full_parse(argv)
        try:
            args = cli._read(argv)
        except UsageError as exc:  # from a type, which the full parse calls too
            assert str(exc) == expected
            return
        assert args is None or list(vars(args).items()) == expected

    @pytest.mark.parametrize("argv", _PRODUCING, ids=" ".join)
    def test_full_parse_gives_the_same_output(self, argv, monkeypatch):
        # The document and its check, with argv read plainly and with every
        # argv left to argparse: the same exit codes and bytes.
        def produce_and_check():
            produced = invoke(argv)
            monkeypatch.setattr(sys, "stdin", io.StringIO(produced[1]))
            return produced, invoke(["check", "-"])

        assert cli._read(argv) is not None and cli._read(["check", "-"]) is not None
        plain = produce_and_check()
        (code, _, _), (checked, report, err) = plain
        assert code == 0 and checked == 0 and err == ""
        assert json.loads(report)["result"] == {"valid": True, "issues": []}
        monkeypatch.setattr(cli, "_read", lambda argv: None)
        assert produce_and_check() == plain


class TestCliAndCheckerAgree:
    """Every document the CLI emits passes ``lrc check``, and an invocation
    whose document the check would reject emits none."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["triangle", "--slope", "sqrt3*1/5", "--strikes", "2", "--horizon", "-5"],
                "horizon must be an integer >= 1, got -5",
            ),
            (["gap", "--speeds", "1,2,3", "--grid", "-4"], "grid must be an integer >= 0, got -4"),
        ],
    )
    def test_bad_count_exits_one_without_a_document(self, argv, message):
        code, out, err = invoke(argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("value", [2049, 2**40])
    @pytest.mark.parametrize("command, key", [("verify", "max_speed"), ("kscan", "max_coord")])
    def test_sweep_box_above_the_cap_exits_one(self, command, key, value):
        code, out, err = invoke([command, "--k", "3", "--" + key.replace("_", "-"), str(value)])
        assert (code, out, err) == (1, "", f"error: {key} must be an integer from 3 to 2048, got {value}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["gap", "--speeds", "3,1,2,2"],
            ["gap", "--speeds", "2,3", "--grid", "600"],
            ["gap", "--speeds", "1,2", "--grid"],
            ["lonely", "--speeds", "3,0,7,2", "--focus", "2"],
            ["verify", "--k", "3", "--max-speed", "10"],
            ["kappa", "--speeds", "1,3,4,7"],
            ["obstruct", "--direction", "2,4,6"],
            ["obstruct", "--direction", "1,2", "--alpha", "1/3"],
            ["obstruct", "--direction", "1,2", "--alpha", "1/4"],
            ["kscan", "--k", "3", "--max-coord", "8"],
            ["billiard", "--slope", "1/2"],
            ["billiard", "--slope", "2/3", "--alpha", "1/5", "--segments", "20"],
            ["triangle", "--slope", "sqrt3*1/5"],
            ["triangle", "--slope", "sqrt3*2/7", "--alpha", "1/3", "--horizon", "200"],
            ["triangle", "--slope", "sqrt3*1/5", "--alpha", "6/25", "--horizon", "50"],
            ["triangle", "--slope", "sqrt3*1/3", "--strikes", "12"],
            ["triangle", "--slope", "sqrt3*1/5", "--min-obstacle", "--horizon", "50"],
            [
                "triangle", "--slope", "sqrt3*1/5", "--alpha", "1/4", "--horizon", "60",
                "--strikes", "6", "--min-obstacle", "1/64",
            ],
            ["invisible", "--speeds", "1,2,3,4,5", "--d", "2"],
            ["invisible", "--speeds", "1,2,3", "--d", "1", "--prime-budget", "5"],
            ["conj34", "--speeds", "2,3,7"],
        ],
        ids=" ".join,
    )
    def test_every_document_passes_check(self, argv, tmp_path):
        path = tmp_path / "doc.json"
        code, out, err = invoke(argv + ["--json", str(path)])
        assert code in (0, 3) and out == "", err
        code, checked = invoke_json(["check", str(path)])
        assert code == 0 and checked["result"] == {"valid": True, "issues": []}


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _readme_block(heading: str, language: str) -> str:
    """The first ``language`` code block under the README's ``heading``."""
    return README.split(heading, 1)[1].split(f"```{language}", 1)[1].split("```", 1)[0]


def _readme_calls():
    """Every ``lrc`` call of the README's CLI block, an ``a && b`` line as two."""
    calls = []
    for line in _readme_block("## CLI", "sh").splitlines():
        for part in line.split("#", 1)[0].split("&&"):
            argv = shlex.split(part)
            if argv:
                assert argv[0] == "lrc"
                calls.append(argv[1:])
    return calls


README_CALLS = _readme_calls()


def test_readme_library_block_runs():
    """Run the README's Library block statement by statement and hold each
    expression line to what its comment states."""
    block = _readme_block("## Library", "python")
    namespace, values = {}, {}
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            values[source] = eval(source, namespace)
        else:
            exec(source, namespace)
    assert values["cert.delta, cert.witness_time"] == (Fraction(1, 2), Fraction(1, 2))
    assert values["cert.witness_pair"] == (0, 1, 4)
    assert isinstance(namespace["sub"].witness, fieldsearch.BandWitness)
    assert values["sub.witness.avoids(sub.kept)"] is True
    assert values["obstruction_witness((1, 2), Fraction(1, 3))"] == fieldsearch.BandWitness(n=3, x=1, m=0)
    assert values["hit.index, hit.row, hit.col, hit.points_up"] == (0, 0, 0, True)
    assert values["hit.grazing"] is True
    vertices = values["triangle_cell(hit.row, hit.col, hit.points_up).vertices"]
    assert len(vertices) == 3 and all(isinstance(u, QuadExt) for vertex in vertices for u in vertex)


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    assert len(README_CALLS) >= 14
    monkeypatch.chdir(tmp_path)
    for argv in README_CALLS:
        code, out, err = invoke(argv)
        assert code == 0, f"lrc {' '.join(argv)} exited {code}: {err}"
        if "--json" in argv:
            out = Path(argv[argv.index("--json") + 1]).read_text()
        if out.startswith("{") and json.loads(out)["command"] != "check":
            (tmp_path / "doc.json").write_text(out)
            code, checked = invoke_json(["check", "doc.json"])
            assert code == 0 and checked["result"]["valid"] is True, argv
