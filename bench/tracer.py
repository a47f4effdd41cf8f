"""In-memory span tracer for the benchmark's traced runs.

The tracer replaces public functions of the `debtregime` package with timing
wrappers.  A function imported elsewhere with `from .inference import ...` is
looked up by its callers in their own module, so the wrapper is installed on
every `debtregime` module that holds the function, not only on the module
that defines it.  Methods are wrapped on their class.

Each call records a span (id, parent id, op id, name, start, end).  Per
function the tracer keeps exact call counts, total time and self time (span
time minus the time of child spans); the span log itself is capped so that a
long traced run cannot exhaust memory, and is written out when the run ends.
The tracer keeps one call stack, so it is only correct for single-threaded
runs.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

PACKAGE = "debtregime"


def _count_points(tracer, args, kwargs, result, parent):
    series = args[0] if args else kwargs["series"]
    tracer.count("inference.detrend_local_linear.points", len(series))


def _count_fallback(tracer, args, kwargs, result, parent):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    if cfg.window_h - cfg.block_len + 1 < 5:
        tracer.count("inference.subsample_critical_value.fallback")


def _count_boundary(tracer, args, kwargs, result, parent):
    if result in ("boundary-near", "marginal"):
        tracer.count("inference.classify.boundary")


def _count_bisection(tracer, args, kwargs, result, parent):
    if parent == "closure.solve_premium":
        tracer.count("closure.solve_premium.bisection")


def _count_bytes(tracer, args, kwargs, result, parent):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.count("tables.emit_csv.bytes", os.path.getsize(path))


# (layer.function, observer of each successful call).  The layer is the
# module that defines the function.
TRACED: Tuple[Tuple[str, Optional[Callable]], ...] = (
    ("inference.detrend_local_linear", _count_points),
    ("inference.subsample_critical_value", _count_fallback),
    ("inference.classify", _count_boundary),
    ("montecarlo.simulate_pe_paths", None),
    ("montecarlo.run_mc_pe", None),
    ("montecarlo.run_mc_tf", None),
    ("closure.solve_premium", None),
    ("closure.solve_premium_bisection", _count_bisection),
    ("closure.demand_at", None),
    ("closure.fixed_point_scan", None),
    ("closure.monotone_path", None),
    ("investment.allocate", None),
    ("investment.AllocationProblem.objective", None),
    ("investment.allocate_ascent", None),
    ("transition.required_growth_endogenous", None),
    ("scenario.load_scenario", None),
    ("cli.run_cli", None),
    ("tables.build_table", None),
    ("tables.emit_csv", _count_bytes),
)

# Ratios and work counts derived from the observers, with their units:
# name -> (unit, numerator counter, denominator function or None).
DERIVED: Dict[str, Tuple[str, str, Optional[str]]] = {
    "inference.detrend_local_linear.points": (
        "count", "inference.detrend_local_linear.points", None),
    "inference.subsample_critical_value.fallback_share": (
        "ratio", "inference.subsample_critical_value.fallback",
        "inference.subsample_critical_value"),
    "inference.classify.boundary_share": (
        "ratio", "inference.classify.boundary", "inference.classify"),
    "closure.solve_premium.bisection_share": (
        "ratio", "closure.solve_premium.bisection", "closure.solve_premium"),
    "tables.emit_csv.bytes": ("B", "tables.emit_csv.bytes", None),
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units: Dict[str, str] = {}
    for name, _ in TRACED:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    for name, (unit, _, _) in DERIVED.items():
        units[name] = unit
    units["cli.import_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


class Tracer:
    def __init__(self, span_cap: int = 100_000):
        self.stats: Dict[str, List[float]] = {}  # name -> [calls, total_s, self_s]
        self.counters: Dict[str, float] = {}
        self.spans: List[tuple] = []
        self.span_cap = span_cap
        self.dropped = 0
        self.active = False
        self.op_id: Optional[int] = None
        self._stack: List[list] = []  # frames: [name, span_id, child_s]
        self._next_id = 0
        self._undo: List[Tuple[object, str, object]] = []

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _wrap(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        self.stats[name] = [0, 0.0, 0.0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = [name, self._next_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                st = self.stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if len(self.spans) < self.span_cap:
                    self.spans.append((frame[1], parent[1] if parent else 0,
                                       self.op_id, name, start, end))
                else:
                    self.dropped += 1
            if observe is not None:
                observe(self, args, kwargs, result, parent[0] if parent else None)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED wherever the package looks it up."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name, observe in TRACED:
            layer, *attr = name.split(".")
            owner = importlib.import_module(f"{PACKAGE}.{layer}")
            if len(attr) == 2:  # a method: wrap it on its class
                cls = getattr(owner, attr[0])
                original = cls.__dict__[attr[1]]
                self._set(cls, attr[1], self._wrap(name, original, observe))
                continue
            original = getattr(owner, attr[0])
            wrapper = self._wrap(name, original, observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)

    def _set(self, holder, key: str, value) -> None:
        self._undo.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        while self._undo:
            holder, key, value = self._undo.pop()
            setattr(holder, key, value)

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0,))[0])

    def metrics(self) -> Dict[str, float]:
        """Per-function calls and self time plus the derived counts."""
        out: Dict[str, float] = {}
        for name, _ in TRACED:
            calls, _total, self_s = self.stats.get(name, (0, 0.0, 0.0))
            out[name + ".calls"] = int(calls)
            out[name + ".self_s"] = self_s
        for name, (_unit, num, den) in DERIVED.items():
            value = self.counters.get(num, 0)
            if den is None:
                out[name] = value
            else:
                calls = self.calls(den)
                out[name] = value / calls if calls else 0.0
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent_id, op_id, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent_id, "op": op_id,
                                     "name": name, "start": start, "end": end}) + "\n")
            if self.dropped:
                fh.write(json.dumps({"dropped_spans": self.dropped}) + "\n")
