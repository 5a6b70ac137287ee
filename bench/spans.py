"""Spans around the calls into each pathwager module, for the traced run.

``Tracer.install`` wraps every public module-level function of the package
and rebinds each name that refers to it, in every module: ``pathwager.cli``
calls ``solve`` through its own imported name, ``verify`` imports
``solve`` too, and ``certify_graph`` imports ``exploit_search`` at call
time.  Each call records a span (name, start, end, parent span, command
id) and, at the same boundary, the counts some layers need: array bytes
returned, Philox blocks drawn.  Spans stay in memory until ``write``.

Per-layer metrics come from the spans of one traced round.  A layer time is
inclusive (a span's whole duration, counted once where spans of the same
layer nest) unless its name says self time, which subtracts the intervals
covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

MODULES = ("graph", "values", "strategy", "markov", "simulate", "oracle", "verify", "cli")

# metric -> (span names, "inclusive" | "self")
LAYER_TIMES = {
    "graph.parse_s": (("graph.parse_graph",), "inclusive"),
    "graph.classify_s": (("graph.classify",), "inclusive"),
    "oracle.build_s": (("oracle.build_window_game", "oracle.build_stopping_variant",
                        "oracle.build_forbidden_pattern_game"), "inclusive"),
    "values.operator_s": (("values.build_propagation_matrix",), "inclusive"),
    "values.sc_solve_s": (("values.solve_strongly_connected",), "inclusive"),
    "values.terminating_solve_s": (("values.solve_terminating",), "inclusive"),
    "values.tree_solve_s": (("values.solve_tree",), "inclusive"),
    "strategy.profile_s": (("strategy.build_profile",), "inclusive"),
    "strategy.transition_s": (("strategy.chooser_transition_matrix",), "inclusive"),
    "markov.stopping_s": (("markov.stopping_analysis",), "inclusive"),
    "markov.invariant_s": (("markov.invariant_measure",), "inclusive"),
    "simulate.philox_s": (("simulate.step_uniforms",), "inclusive"),
    "simulate.run_s": (("simulate.run",), "self"),
    "simulate.exploit_s": (("simulate.exploit_search",), "inclusive"),
    "verify.audit_s": (("verify.audit_convergence",), "inclusive"),
    "verify.brute_force_s": (("verify.brute_force_value",), "inclusive"),
    "verify.certify_s": (("verify.certify_graph",), "self"),
    "cli.dispatch_self_s": (("cli.dispatch",), "self"),
}
# metric -> (span name, count key)
LAYER_COUNTS = {
    "graph.classify_calls": ("graph.classify", "calls"),
    "values.solve_calls": ("values.solve", "calls"),
    "values.operator_mb": ("values.build_propagation_matrix", "bytes"),
    "simulate.philox_draws": ("simulate.step_uniforms", "draws"),
    "simulate.occupancy_mb": ("simulate.run", "bytes"),
}


def _returned_bytes(name: str, result) -> int:
    if name == "values.build_propagation_matrix":
        return int(result.matrix.nbytes)
    if name == "simulate.run":
        return int(result.occupancy.nbytes) if result.occupancy is not None else 0
    return 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []    # (id, name, start, end, parent, command)
        self.counts: dict[tuple[str, str], int] = {}
        self.command = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import pathwager

        modules = [importlib.import_module(f"pathwager.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in [pathwager] + modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._originals.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._originals):
            setattr(mod, attr, obj)
        self._originals.clear()

    def _wrap(self, name: str, func):
        spans, counts, stack = self.spans, self.counts, self._stack
        measure = name in ("values.build_propagation_matrix", "simulate.run")
        draws = name == "simulate.step_uniforms"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[span_id] = (span_id, name, start, end, parent, self.command)
                key = (name, "calls")
                counts[key] = counts.get(key, 0) + 1
            if measure:
                key = (name, "bytes")
                counts[key] = counts.get(key, 0) + _returned_bytes(name, result)
            if draws:
                key = (name, "draws")
                counts[key] = counts.get(key, 0) + len(args[1])
            return result

        return wrapper

    # -- results -------------------------------------------------------------

    def mark(self) -> tuple[int, dict]:
        """Position to measure a round from."""
        return len(self.spans), dict(self.counts)

    def layer_metrics(self, since: tuple[int, dict]) -> dict[str, tuple[float, str]]:
        first, counts_before = since
        spans = self.spans[first:]
        by_id = {s[0]: s for s in spans}
        child_time: dict[int, float] = {}
        for s in spans:
            if s[4] in by_id:
                child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])
        out: dict[str, tuple[float, str]] = {}
        for metric, (names, mode) in LAYER_TIMES.items():
            total = 0.0
            for s in spans:
                if s[1] not in names:
                    continue
                if mode == "self":
                    total += (s[3] - s[2]) - child_time.get(s[0], 0.0)
                elif not _has_ancestor(s, names, by_id):
                    total += s[3] - s[2]
            out[metric] = (total, "s")
        for metric, (name, key) in LAYER_COUNTS.items():
            value = self.counts.get((name, key), 0) - counts_before.get((name, key), 0)
            out[metric] = (value / 1e6, "MB") if key == "bytes" else (value, "count")
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, command in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "command": command}) + "\n")


def _has_ancestor(span, names, by_id) -> bool:
    parent = by_id.get(span[4])
    while parent is not None:
        if parent[1] in names:
            return True
        parent = by_id.get(parent[4])
    return False
