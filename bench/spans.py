"""Span tracing around the package's layer boundaries, from outside it.

``Tracer.install`` replaces each traced function with a wrapper in *every*
``lonelyrunner`` module that holds a binding to it -- ``viewobstruct`` and
``fieldsearch`` bind ``exact_gap`` at import, so patching ``gap`` alone would
miss their calls.  A span is (name, start, end, parent); spans stay in memory
and are written out once, when the run ends.  Hot kernel functions get a bare
call counter instead of a span.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import Counter
from time import process_time

from lonelyrunner import certificates
from lonelyrunner.arith import QuadExt

ENGINES = ("gap.", "viewobstruct.", "fieldsearch.", "billiards.")

SPANS = {
    "gap": ["exact_gap", "verify_lrc", "lonely_time", "check_kappa_bounds"],
    "viewobstruct": ["kprime_scan", "min_scale_for_direction", "obstruction_witness"],
    "fieldsearch": ["invisible_subset", "conj34_witness", "residue_matrix_scan"],
    "billiards": [
        "triangle_obstruction_check",
        "triangle_min_obstacle",
        "triangle_path_segments",
        "square_path_segments",
        "square_min_obstacle",
        "square_obstacle_contact",
    ],
    "certificates": ["serialize", "parse", "validate_document"]
    + [name for name in certificates.__all__ if name.endswith("_document") and name != "validate_document"],
    "cli": ["run"],
}
COUNTERS = {"arith": ["torus_norm"], "billiards": ["triangle_cell"]}
METHOD_COUNTERS = {"arith.quadext_new": "__init__", "arith.quadext_sign": "sign"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        names, start, end, parent, stack = self.names, self.start, self.end, self.parent, self._stack
        counts = self.counts
        measure_bytes = name == "certificates.serialize"

        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(process_time())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = process_time()
                stack.pop()
            if measure_bytes:
                counts["certificates.bytes"] += len(result.encode())
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------------

    def _patch_everywhere(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "lonelyrunner" and not modname.startswith("lonelyrunner."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def install(self) -> None:
        for table, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for layer, functions in table.items():
                module = sys.modules[f"lonelyrunner.{layer}"]
                for fn_name in functions:
                    original = getattr(module, fn_name)
                    self._patch_everywhere(original, make(f"{layer}.{fn_name}", original))
        for name, method in METHOD_COUNTERS.items():
            original = QuadExt.__dict__[method]
            setattr(QuadExt, method, self._counter(name, original))
            self._restore.append((QuadExt, method, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        """One JSON line per span: [name, start, end, parent index]."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for i, name in enumerate(self.names):
                handle.write(json.dumps([name, self.start[i], self.end[i], self.parent[i]]) + "\n")

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-round layer figures (per call for ``cli.self_ms``)."""
        names, parent, start, end = self.names, self.parent, self.start, self.end
        n = len(names)
        child = [0.0] * n
        in_check = [False] * n
        in_view = [False] * n
        seconds: Counter[str] = Counter()  # inclusive time per span name
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()  # span time minus its children
        for i in range(n):
            name, p = names[i], parent[i]
            d = end[i] - start[i]
            seconds[name] += d
            calls[name] += 1
            if p >= 0:
                child[p] += d
                in_check[i] = in_check[p] or names[p] == "certificates.validate_document"
                in_view[i] = in_view[p] or names[p].startswith("viewobstruct.")
                if names[p] == "certificates.validate_document" and name.startswith(ENGINES):
                    calls["engine_in_check"] += 1
            if name == "gap.exact_gap":
                calls["exact_gap_in_check"] += in_check[i]
                calls["exact_gap_in_view"] += in_view[i]
        for i in range(n):
            self_s[names[i]] += end[i] - start[i] - child[i]

        builders = [f"certificates.{b}" for b in SPANS["certificates"] if b.endswith("_document")]
        builders.remove("certificates.validate_document")
        gap_s, gap_calls = seconds["gap.exact_gap"], calls["gap.exact_gap"]
        walk_s = seconds["billiards.triangle_obstruction_check"] + seconds["billiards.triangle_min_obstacle"]
        cells = self.counts["billiards.triangle_cell"]
        r = rounds
        return {
            "gap.exact_gap_calls": gap_calls / r,
            "gap.exact_gap_s": gap_s / r,
            "gap.sets_per_s": gap_calls / gap_s if gap_s else 0.0,
            "gap.exact_gap_calls_in_check": calls["exact_gap_in_check"] / r,
            "certificates.engine_calls_in_check": calls["engine_in_check"] / r,
            "viewobstruct.kprime_scan_s": seconds["viewobstruct.kprime_scan"] / r,
            "viewobstruct.exact_gap_calls": calls["exact_gap_in_view"] / r,
            "cli.self_ms": 1000 * self_s["cli.run"] / calls["cli.run"] if calls["cli.run"] else 0.0,
            "cli.calls": calls["cli.run"] / r,
            "certificates.build_s": sum(seconds[b] for b in builders) / r,
            "certificates.serialize_s": seconds["certificates.serialize"] / r,
            "certificates.parse_s": seconds["certificates.parse"] / r,
            "certificates.validate_self_s": self_s["certificates.validate_document"] / r,
            "certificates.bytes": self.counts["certificates.bytes"] / r,
            "fieldsearch.search_s": (seconds["fieldsearch.invisible_subset"] + seconds["fieldsearch.conj34_witness"]) / r,
            "fieldsearch.residue_scan_calls": calls["fieldsearch.residue_matrix_scan"] / r,
            "billiards.triangle_cell_calls": cells / r,
            "billiards.cells_per_s": cells / walk_s if walk_s else 0.0,
            "billiards.min_obstacle_s": seconds["billiards.triangle_min_obstacle"] / r,
            "billiards.path_s": (seconds["billiards.triangle_path_segments"] + seconds["billiards.square_path_segments"]) / r,
            "arith.quadext_sign_calls": self.counts["arith.quadext_sign"] / r,
            "arith.quadext_new": self.counts["arith.quadext_new"] / r,
            "arith.torus_norm_calls": self.counts["arith.torus_norm"] / r,
        }


LAYER_UNITS = {
    "gap.exact_gap_calls": "count",
    "gap.exact_gap_s": "s",
    "gap.sets_per_s": "1/s",
    "gap.exact_gap_calls_in_check": "count",
    "certificates.engine_calls_in_check": "count",
    "viewobstruct.kprime_scan_s": "s",
    "viewobstruct.exact_gap_calls": "count",
    "cli.self_ms": "ms",
    "cli.calls": "count",
    "certificates.build_s": "s",
    "certificates.serialize_s": "s",
    "certificates.parse_s": "s",
    "certificates.validate_self_s": "s",
    "certificates.bytes": "bytes",
    "fieldsearch.search_s": "s",
    "fieldsearch.residue_scan_calls": "count",
    "billiards.triangle_cell_calls": "count",
    "billiards.cells_per_s": "1/s",
    "billiards.min_obstacle_s": "s",
    "billiards.path_s": "s",
    "arith.quadext_sign_calls": "count",
    "arith.quadext_new": "count",
    "arith.torus_norm_calls": "count",
    "import.numpy_ms": "ms",
    "import.lonelyrunner_ms": "ms",
}
