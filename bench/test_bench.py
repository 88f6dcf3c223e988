"""Fast tests of the benchmark itself: ``python3 -m pytest bench``.

The oracles must agree with closed forms, and every workload's correctness
check must reject a deliberately wrong output.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from lonelyrunner import gap, viewobstruct  # noqa: E402


# -- oracles ----------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 31))
def test_delta_of_first_n_speeds_is_one_over_n_plus_one(n):
    assert oracles.delta(range(1, n + 1)) == F(1, n + 1) == oracles.dirichlet_delta(n)


def test_delta_of_coprime_pairs_matches_closed_form():
    pairs = [(a, b) for a in range(1, 40) for b in range(a + 1, 40) if gcd(a, b) == 1]
    assert len(pairs) > 400
    for a, b in pairs:
        assert oracles.delta([a, b]) == F((a + b) // 2, a + b) == oracles.pair_delta(a, b)


def test_delta_is_attained_and_not_beaten_on_a_fine_grid():
    speeds = [2, 5, 7, 11]
    d = oracles.delta(speeds)
    n = 2 * 3 * 5 * 7 * 11 * 13
    assert max(oracles.value_at(speeds, F(m, n)) for m in range(n)) <= d


@pytest.mark.parametrize("max_speed,k", [(6, 2), (12, 3), (15, 4), (11, 5), (9, 6)])
def test_moebius_count_matches_enumeration(max_speed, k):
    brute = sum(1 for c in combinations(range(1, max_speed + 1), k) if gcd(*c) == 1)
    assert oracles.count_gcd1_subsets(max_speed, k) == brute


def test_quadratic_sign_and_floor():
    assert oracles.q_sign(oracles.q(2, -1)) == 1  # 2 > sqrt3
    assert oracles.q_sign(oracles.q(-2, 1)) == -1
    assert oracles.q_sign(oracles.q(0, 0)) == 0
    assert oracles.q_floor(oracles.q(0, 1)) == 1
    assert oracles.q_floor(oracles.q(F(1, 2), 3)) == 5  # 0.5 + 5.196


def test_extremal_slope_grazes_at_a_quarter_and_misses_below():
    slope = workloads.EXTREMAL
    assert oracles.first_contact(slope, F(1, 4), 50) == (0, (0, 0, True), True)
    assert oracles.first_contact(slope, F(1, 4) - F(1, 1000), 300) is None


# -- correctness checks reject wrong outputs --------------------------------


def _op(ops, prefix):
    return next(op for op in ops if op.key.startswith(prefix))


def test_instances_check_rejects_a_tampered_delta():
    op = _op(workloads.build_instances(7), "gap --speeds 1,2,3,4,5,6,7,8,9,10")
    text = op.produce()
    assert op.verify(text) == []
    assert op.verdict(op.check(text)) == []
    doc = json.loads(text)
    doc["result"]["delta"] = {"num": 1, "den": 10}
    assert op.verify(json.dumps(doc))


def test_instances_check_rejects_an_invalid_check_report():
    report = json.dumps({"result": {"valid": False, "issues": ["delta mismatch"]}})
    assert workloads._cli_check_verdict(report)


def test_sweep_check_rejects_a_tight_list_missing_1234():
    op = _op(workloads.build_sweep(7), "verify k=4 M=8")
    text = op.produce()
    assert op.verify(text) == []
    doc = json.loads(text)
    assert [1, 2, 3, 4] in doc["result"]["tight"]
    doc["result"]["tight"].remove([1, 2, 3, 4])
    assert any("{1..k}" in p for p in op.verify(json.dumps(doc)))


def test_sweep_check_rejects_a_wrong_count():
    op = _op(workloads.build_sweep(7), "kscan k=3 M=6")
    assert op.verify(op.produce()) == []
    doc = json.loads(_op(workloads.build_sweep(7), "verify k=5 M=7").produce())
    doc["result"]["checked"] += 1
    assert workloads.verify_sweep(5, 7, doc, workloads.random.Random(0))


def test_triangle_check_rejects_a_hit_in_the_wrong_cell():
    op = _op(workloads.build_triangle(7), "slope")
    text = op.produce()
    assert op.verify(text) == []
    doc = json.loads(text)
    assert doc["result"]["hit"]["found"] is True
    doc["result"]["hit"]["col"] += 1
    assert op.verify(json.dumps(doc))


def test_triangle_check_rejects_a_miss_reported_as_hit():
    op = _op(workloads.build_triangle(7), "sqrt3/5 at 249/1000")
    doc = json.loads(op.produce())
    assert doc["result"]["hit"] == {"found": False}
    doc["result"]["hit"] = {"found": True, "index": 0, "row": 0, "col": 0, "orientation": "up", "grazing": True}
    assert op.verify(json.dumps(doc))


# -- workload construction --------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_are_seeded(name):
    keys = [op.key for op in workloads.build(name, 3)]
    assert keys == [op.key for op in workloads.build(name, 3)]
    assert keys != [op.key for op in workloads.build(name, 4)]
    assert run.tail_percentile(len(keys)) in run.TAIL_PERCENTILES


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(400) == 95
    assert run.tail_percentile(1000) == 99
    with pytest.raises(ValueError):
        run.tail_percentile(39)


# -- tracing ----------------------------------------------------------------


def test_tracer_sees_calls_through_import_bindings_and_restores_them():
    original = gap.exact_gap
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert viewobstruct.exact_gap is not original
        viewobstruct.min_scale_for_direction((1, 2))
    finally:
        tracer.uninstall()
    assert viewobstruct.exact_gap is original and gap.exact_gap is original
    assert tracer.names == ["viewobstruct.min_scale_for_direction", "gap.exact_gap"]
    assert tracer.parent[1] == 0
    metrics = tracer.layer_metrics(1)
    assert metrics["viewobstruct.exact_gap_calls"] == 1
    assert set(metrics) | {"import.numpy_ms", "import.lonelyrunner_ms"} == set(spans.LAYER_UNITS)


# -- the runner -------------------------------------------------------------


def test_run_prints_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "triangle", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == len(workloads.build_triangle(1))
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    for m in bench["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
