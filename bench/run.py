"""Run one benchmark workload in process and print its metrics.

    python3 bench/run.py --workload sweep|instances|triangle --seed N \
        --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  The
run repeats whole rounds of the workload's operations until ``--seconds``
have passed, timing each operation's produce and check calls, and verifies
every output.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
A copy with the run's context (Python version, core count, seed, sample
counts, unscaled times) goes to ``bench/out/``.

Operations are timed in CPU seconds and rescaled to a fixed machine speed.
The shared machine this was built on at times does not run the process at
all, which wall time counts and CPU time does not; and it drifts between
speed levels that hold for seconds to minutes, so even the CPU times of
identical runs differ by a third.  After every operation the run times a
slice of reference work that belongs to the benchmark (see
``reference_unit``), and each operation's times are multiplied by the nominal
over the measured time of the slices around it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_SAMPLES = 7  # cold starts per run; setup_s is their median
IMPORT_SAMPLES = 3  # -X importtime children per traced run
TAIL_PERCENTILES = (99, 95, 90, 75)
REFERENCE_UNITS_PER_ROUND = 400  # one slice after each of a round's operations
REFERENCE_UNIT_S = 0.0005  # nominal seconds of one reference unit
SCALE_WINDOW = 5  # an operation is scaled by the slices within 5 places of it
SPIN_S = 0.01  # nominal seconds of the cold start's spin loop

# Timed in a fresh interpreter: import the package and its CLI, build inputs.
# A spin loop that needs no import is timed just before and just after.
_COLD_START = """
import sys, time
def spin():
    t, x = time.perf_counter(), 0
    for i in range(120000):
        x += i * i % 7
    return time.perf_counter() - t
before = spin()
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import lonelyrunner, lonelyrunner.cli
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]))
t1 = time.perf_counter()
print(t1 - t0, before + spin())
"""

_REFERENCE_DOC = {"values": [{"num": i, "den": i + 1} for i in range(50)]}


def reference_unit() -> None:
    """Fixed pure-Python work mixing what the package spends its time on:
    integer loops, Fraction arithmetic and JSON.  It uses only the
    benchmark's own code, so no change to the package can move it."""
    import oracles

    oracles.delta((2, 3, 5, 7, 9, 11))
    oracles.contact((Fraction(0), Fraction(1, 5)), 3, 2, False, Fraction(1, 4))
    json.loads(json.dumps(_REFERENCE_DOC))


def cpu_seconds() -> float:
    """CPU time of this process, its threads and its reaped children.  The
    machine is shared, so wall time also counts time the process was not
    running at all; CPU time does not."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference_seconds(units: int) -> float:
    t0 = cpu_seconds()
    for _ in range(units):
        reference_unit()
    return cpu_seconds() - t0


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def cold_start(workload: str, seed: int) -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import the package and build the
    workload's inputs, and the speed scale measured around it."""
    argv = [sys.executable, "-c", _COLD_START, str(SRC), str(BENCH_DIR), workload, str(seed)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=_child_env(), check=True)
    seconds, spins = map(float, done.stdout.split())
    return seconds, 2 * SPIN_S / spins


def import_times() -> dict[str, float]:
    """Cumulative import time of numpy and lonelyrunner, in ms, from
    ``python -X importtime`` (median of a few fresh interpreters)."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import lonelyrunner, lonelyrunner.cli"
    samples: dict[str, list[float]] = {"numpy": [], "lonelyrunner": []}
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            capture_output=True, text=True, timeout=60, env=_child_env(), check=True,
        )
        for line in done.stderr.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if m and m.group(2) in samples:
                samples[m.group(2)].append(int(m.group(1)) / 1000)
    return {f"import.{name}_ms": statistics.median(v) for name, v in samples.items()}


def tail_percentile(samples: int) -> int:
    """Highest percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if samples * (100 - p) >= 1000:
            return p
    raise ValueError(f"{samples} operations per round leave no tail percentile")


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lonelyrunner" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import lonelyrunner
    import workloads

    if Path(lonelyrunner.__file__).resolve().parent != SRC / "lonelyrunner":
        print(f"error: lonelyrunner imported from {lonelyrunner.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    ops = workloads.build(args.workload, args.seed)
    ref_units = max(1, REFERENCE_UNITS_PER_ROUND // len(ops))
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    # Per operation, one (produce, check, position) triple per successful
    # round; position indexes ``slices``, the reference slice that followed.
    samples: list[list[tuple[float, float, int]]] = [[] for _ in ops]
    slices: list[float] = []
    rounds = 0
    verified: dict[str, str] = {}  # op key -> an output already judged correct
    failures: list[str] = []
    problems: list[str] = []
    setup: list[tuple[float, float]] = []
    attempted = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        for i, op in enumerate(ops):
            attempted += 1
            try:
                t0 = cpu_seconds()
                text = op.produce()
                t1 = cpu_seconds()
                checked = op.check(text)
                t2 = cpu_seconds()
            except Exception as exc:  # counted against the operation, not fatal
                failures.append(f"{op.key}: {exc!r}")
                continue
            finally:
                slices.append(reference_seconds(ref_units))
            samples[i].append((t1 - t0, t2 - t1, len(slices) - 1))
            found = op.verdict(checked)
            # Identical inputs must give byte-identical output, so an output
            # equal to one already verified needs no second verification.
            if verified.get(op.key) != text:
                found += op.verify(text)
                if not found:
                    verified[op.key] = text
            problems.extend(f"{op.key}: {p}" for p in found)
        rounds += 1
        if not args.trace and len(setup) < SETUP_SAMPLES:
            setup.append(cold_start(args.workload, args.seed))
        if time.perf_counter() >= deadline:
            break

    scales = []
    for g in range(len(slices)):
        window = slices[max(g - SCALE_WINDOW, 0) : g + SCALE_WINDOW + 1]
        scales.append(len(window) * ref_units * REFERENCE_UNIT_S / sum(window))
    timed = [s for s in samples if s]

    def summed(part: int, scaled: bool) -> float:
        """Sum over operations of each one's median time across rounds."""
        return sum(statistics.median(x[part] * (scales[x[2]] if scaled else 1) for x in s) for s in timed)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "rounds": rounds,
        "ops_per_round": len(ops),
        "speed_scale_median": statistics.median(scales),
        "raw_produce_s": summed(0, False),
        "raw_check_s": summed(1, False),
        "produce_s": summed(0, True),
        "check_s": summed(1, True),
    }
    OUT_DIR.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.uninstall()
        units = spans.LAYER_UNITS
        scale = statistics.median(scales)
        metrics = {}
        for name, value in tracer.layer_metrics(rounds).items():
            if units[name] in ("s", "ms"):
                value *= scale
            elif units[name] == "1/s":
                value /= scale
            metrics[name] = value
        metrics.update(import_times())
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
        info["spans"] = len(tracer.names)
    else:
        while len(setup) < SETUP_SAMPLES:
            setup.append(cold_start(args.workload, args.seed))
        latency = [statistics.median((x[0] + x[1]) * scales[x[2]] for x in s) for s in timed]
        tail = tail_percentile(len(ops))
        info.update(
            tail_percentile=tail,
            latency_samples=len(latency),
            raw_setup_s=[raw for raw, _ in setup],
            setup_scale=[scale for _, scale in setup],
        )
        metrics = {
            "setup_s": statistics.median(raw * scale for raw, scale in setup),
            "produce_s": info["produce_s"],
            "check_s": info["check_s"],
            "op_p50_ms": 1000 * statistics.median(latency),
            "op_tail_ms": 1000 * percentile(latency, tail),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "produce_s": "s", "check_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB"}

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    for line in failures[:10] + problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    record = dict(info, failures=failures, problems=problems, **result)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print("info: " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
