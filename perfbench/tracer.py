"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each listed public function, in every matchforce
module namespace that binds it, by a wrapper that records a span (name,
start, end, parent, op id) and counts; `uninstall()` puts the originals back.
Self time is a span's duration minus the time its child spans cover.

The wrappers only observe: arguments and results pass through unchanged,
except that an iterable handed to a hitting-set solver is materialised as a
tuple first so its size can be counted (the solver iterates it once either
way).
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import paths  # noqa: F401  (puts the checkout's src/ on sys.path)
from matchforce.verify import SUITE_IDS

# Layer (module) -> traced public functions.
LAYERS: dict[str, tuple[str, ...]] = {
    "graphs": (
        "enumerate_perfect_matchings",
        "count_perfect_matchings",
        "edge_fixedness",
        "has_unique_perfect_matching",
        "enumerate_alternating_cycles",
        "orient_and_contract",
        "enumerate_directed_cycles",
    ),
    "exact": (
        "min_hitting_set",
        "min_hitting_size",
        "max_independent_indices",
        "max_independent_size",
    ),
    "forcing": (
        "forcing_number",
        "max_disjoint_alternating_cycles",
        "compatible_cycles",
        "is_forcing_set",
    ),
    "antiforcing": (
        "antiforcing_number",
        "max_compatible_alternating_set",
        "anti_forcing_edges",
        "min_feedback_arc_set",
        "is_antiforcing_set",
    ),
    "hexsys": (
        "build_hex_system",
        "alternating_hexagons",
        "clar_number",
        "fries_numbers",
        "is_truncated_parallelogram",
        "is_all_kink_catahex",
        "normal_hex_components",
        "parallel_cuts",
    ),
    "generators": ("enumerate_hex_systems", "gen_truncated_parallelogram", "glue_preset"),
    "verify": ("run_suite",),
    "report": ("compute_report", "replay"),
    "io": ("load_instance", "serialize_instance"),
}

# Size of the returned tuple, reported as <name>.items.
ITEMS_OUT = (
    "graphs.enumerate_perfect_matchings",
    "graphs.enumerate_alternating_cycles",
    "graphs.enumerate_directed_cycles",
)
# Size of the input family, reported as <name>.sets_in / <name>.items_in.
SETS_IN = ("exact.min_hitting_set", "exact.min_hitting_size")
ITEMS_IN = ("exact.max_independent_indices", "exact.max_independent_size")
WITNESS_SOLVERS = ("exact.min_hitting_set", "exact.max_independent_indices")
# Calls that enumerate perfect matchings of their graph argument.
PM_ENUM = (
    "graphs.enumerate_perfect_matchings",
    "graphs.count_perfect_matchings",
    "graphs.edge_fixedness",
)
ALT_CYCLES = "graphs.enumerate_alternating_cycles"
REPORT_INVARIANTS = (
    "pm_count", "f", "F", "af", "Af", "f_spectrum", "af_spectrum",
    "clar", "fries", "anti_forcing_edges",
)


def traced_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def metric_specs() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in output order."""
    specs = []
    for name in traced_names():
        specs += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        if name in ITEMS_OUT:
            specs.append((f"{name}.items", "count"))
        if name in SETS_IN:
            specs.append((f"{name}.sets_in", "count"))
        if name in ITEMS_IN:
            specs.append((f"{name}.items_in", "count"))
    specs += [
        ("graphs.pm_enum.dup_ratio", "ratio"),
        ("graphs.alt_cycles.dup_ratio", "ratio"),
        ("exact.witness_frac", "ratio"),
    ]
    specs += [(f"verify.run_suite.{sid}.s", "s") for sid in SUITE_IDS]
    specs += [(f"report.inv.{inv}.ms", "ms") for inv in REPORT_INVARIANTS]
    specs.append(("trace.overhead_ratio", "ratio"))
    return specs


class _Stat:
    __slots__ = ("calls", "self_s", "items")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.items = 0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (span id, name index, start, end, parent span id or -1, op id)
        self.spans: list[tuple[int, int, float, float, int, int]] = []
        self._stack: list[list] = []  # [span id, start, child seconds]
        self._next_id = 0
        self.op_id = -1
        self._op_frame: list = []
        self._op_name = -1
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.suite_s: dict[str, float] = defaultdict(float)
        self.inv_ms: dict[str, float] = defaultdict(float)
        # distinct arguments per op, for the duplicate-work ratios
        self._pm_keys: dict[int, set] = defaultdict(set)
        self._alt_keys: dict[int, set] = defaultdict(set)
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _enter(self) -> list:
        frame = [self._next_id, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name_index: int) -> float:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        parent = -1
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        self.spans.append((frame[0], name_index, frame[1], end, parent, self.op_id))
        return duration

    def begin_op(self, op_id: int, label: str) -> None:
        """Open the root span of one benchmark operation."""
        self.op_id = op_id
        self._op_frame = self._enter()
        self._op_name = self._name_index(f"op:{label}")

    def end_op(self) -> None:
        self._exit(self._op_frame, self._op_name)

    def _name_index(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # ------------------------------------------------------- wrapping

    def _wrap(self, name: str, orig):
        name_index = self._name_index(name)
        stat = self.stats[name]
        tracer = self

        sets_in, items_in = name in SETS_IN, name in ITEMS_IN
        items_out, pm_enum = name in ITEMS_OUT, name in PM_ENUM
        alt_cycles, suite = name == ALT_CYCLES, name == "verify.run_suite"
        report_entries = name == "report.compute_report"

        def wrapper(*args, **kwargs):
            if pm_enum:
                tracer._pm_keys[tracer.op_id].add(args[0])
            elif alt_cycles:
                tracer._alt_keys[tracer.op_id].add((args[0], args[1]))
            frame = tracer._enter()
            try:
                if sets_in:
                    args = (tuple(args[0]),) + args[1:]
                if sets_in or items_in:
                    stat.items += len(args[0])
                result = orig(*args, **kwargs)
            finally:
                duration = tracer._exit(frame, name_index)
                stat.calls += 1
                stat.self_s += duration - frame[2]
                if suite:
                    tracer.suite_s[args[0]] += duration
            if items_out:
                stat.items += len(result)
            elif report_entries:
                for entry in result["invariants"]:
                    tracer.inv_ms[entry["name"]] += entry["runtime_ms"]
            return result

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", name)
        wrapper.__doc__ = getattr(orig, "__doc__", None)
        return wrapper

    def install(self) -> None:
        """Wrap every listed function in every matchforce namespace binding it."""
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "matchforce" or key.startswith("matchforce.")
        ]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"matchforce.{layer}"]
            for fn in fns:
                orig = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    # -------------------------------------------------------- results

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Every per-layer metric of metric_specs(), from what was recorded."""
        out: dict[str, float] = {}
        for name in traced_names():
            stat = self.stats[name]
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s"] = stat.self_s
            if name in ITEMS_OUT:
                out[f"{name}.items"] = stat.items
            if name in SETS_IN:
                out[f"{name}.sets_in"] = stat.items
            if name in ITEMS_IN:
                out[f"{name}.items_in"] = stat.items
        out["graphs.pm_enum.dup_ratio"] = _ratio(
            sum(self.stats[n].calls for n in PM_ENUM),
            sum(len(keys) for keys in self._pm_keys.values()),
        )
        out["graphs.alt_cycles.dup_ratio"] = _ratio(
            self.stats[ALT_CYCLES].calls,
            sum(len(keys) for keys in self._alt_keys.values()),
        )
        solver_calls = sum(self.stats[f"exact.{fn}"].calls for fn in LAYERS["exact"])
        out["exact.witness_frac"] = _ratio(
            sum(self.stats[n].calls for n in WITNESS_SOLVERS), solver_calls
        )
        for sid in SUITE_IDS:
            out[f"verify.run_suite.{sid}.s"] = self.suite_s[sid]
        for inv in REPORT_INVARIANTS:
            out[f"report.inv.{inv}.ms"] = self.inv_ms[inv]
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON header line with the span names, then one line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({
                "fields": ["id", "name", "start", "end", "parent", "op"],
                "names": self.names,
            }) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
