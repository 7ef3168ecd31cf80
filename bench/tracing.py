"""Span tracing around rulerunner's public functions, from outside `src/`.

`Tracer.install()` replaces each traced function, in every module that
holds a reference to it, with a wrapper that records a span (name, parent,
start, end) into flat arrays, and restores the originals on exit.  Layer
self time is a span's duration minus the part its child spans cover.

Counts that must repeat exactly between runs of one seed (calls, rule
counts, live instances, parsed and replayed cells) are only accumulated
while `counting` is true: the workload switches it off once it has run its
fixed prefix of inputs, so the counts never depend on how much work fitted
into the time window.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

from rulerunner import cli, engine, ltl, mapcheck, oracle, rules, traces, truth

LAYERS = ("ltl", "truth", "rules", "engine", "oracle", "mapcheck", "traces", "cli")

# span name -> (layer, [(holder, attribute), ...]); every holder that
# references the function gets the wrapper, so calls made through another
# module's imported name are seen too.
TARGETS = {
    "ltl.parse_formula": ("ltl", [(ltl, "parse_formula"), (cli, "parse_formula")]),
    "ltl.to_nnf": ("ltl", [(ltl, "to_nnf"), (cli, "to_nnf")]),
    "truth.eval_binary": ("truth", [(truth, "eval_binary")]),
    "truth.eval_unary": ("truth", [(truth, "eval_unary")]),
    "rules.compile_formula": ("rules", [(rules, "compile_formula"), (cli, "compile_formula"), (mapcheck, "compile_formula")]),
    "engine.run_trace": ("engine", [(engine, "run_trace"), (cli, "run_trace"), (mapcheck, "run_trace")]),
    "engine.Monitor.step": ("engine", [(engine.Monitor, "step")]),
    "oracle.oracle_eval": ("oracle", [(oracle, "oracle_eval"), (cli, "oracle_eval")]),
    "mapcheck.check_run": ("mapcheck", [(mapcheck, "check_run")]),
    "traces.parse_trace_inline": ("traces", [(traces, "parse_trace_inline"), (cli, "parse_trace_inline")]),
    "cli.main": ("cli", [(cli, "main")]),
    "cli.run_differential": ("cli", [(cli, "run_differential")]),
    "cli.cmd_stream": ("cli", [(cli, "cmd_stream")]),
    "tracing.hook": ("tracing", []),
    "bench.calibrate": ("bench", []),
}
NAMES = tuple(TARGETS)
ID = {name: i for i, name in enumerate(NAMES)}


def _len(seq) -> int:
    return 0 if seq is None else len(seq)


class Tracer:
    def __init__(self):
        self.span_name = array("b")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counting = True
        self.counts = {
            "eval_rules": 0,
            "cells_offered": 0,
            "replayed_cells": 0,
            "snapshot_entries": 0,
            "peak_live": 0,
            "check_runs": 0,
            "check_skipped": 0,
            "check_steps": 0,
        }
        self.prefix_end = None  # first span index after the counted prefix
        # step-time growth: per monitor run, sums over the first and last decile
        self._run_steps: list[float] = []
        self.growth_first = 0.0
        self.growth_last = 0.0

    # -- recording --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.span_name)

    def _wrap(self, name: str, fn, after=None):
        nid = ID[name]
        hook = ID["tracing.hook"]
        names, parents, starts, ends, stack = self.span_name, self.span_parent, self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                # hook time is charged to its own span, not to the caller
                h = len(names)
                names.append(hook)
                parents.append(stack[-1])
                starts.append(clock())
                ends.append(0.0)
                after(i, args, result)
                ends[h] = clock()
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def record(self, name: str, start: float, end: float) -> None:
        """A span the benchmark times itself (a calibration slice)."""
        self.span_name.append(ID[name])
        self.span_parent.append(self._stack[-1])
        self.span_start.append(start)
        self.span_end.append(end)

    def offer(self, cells: int) -> None:
        """Cells the workload hands to the engine directly (not via run_trace)."""
        if self.counting:
            self.counts["cells_offered"] += cells

    def end_prefix(self) -> None:
        if self.counting:
            self.counting = False
            self.prefix_end = len(self)

    # -- hooks ----------------------------------------------------------------

    def _after_compile(self, i, args, system) -> None:
        if self.counting:
            self.counts["eval_rules"] += len(system.eval_rules)

    def _after_run_trace(self, i, args, result) -> None:
        if self.counting:
            cells = len(args[1])
            self.counts["cells_offered"] += cells
            p = self.span_parent[i]
            if p >= 0 and self.span_name[p] == ID["cli.cmd_stream"]:
                self.counts["replayed_cells"] += cells

    def _after_step(self, i, args, outcome) -> None:
        dur = self.span_end[i] - self.span_start[i]
        if outcome.cell == 0:
            self._close_run()
        self._run_steps.append(dur)
        if self.counting:
            c = self.counts
            c["snapshot_entries"] += (
                _len(getattr(outcome, "state_before", None))
                + _len(getattr(outcome, "state_after", None))
                + _len(getattr(outcome, "evaluations", None))
            )
            live = args[0].live_count()
            if live > c["peak_live"]:
                c["peak_live"] = live

    def _after_check(self, i, args, report) -> None:
        if self.counting:
            c = self.counts
            c["check_runs"] += 1
            c["check_skipped"] += report.skipped_from is not None
            c["check_steps"] += len(report.steps)

    def _close_run(self) -> None:
        steps = self._run_steps
        if len(steps) >= 2:
            k = max(1, len(steps) // 10)
            self.growth_first += sum(steps[:k]) / k
            self.growth_last += sum(steps[-k:]) / k
        self._run_steps = []

    @contextmanager
    def install(self):
        hooks = {
            "rules.compile_formula": self._after_compile,
            "engine.run_trace": self._after_run_trace,
            "engine.Monitor.step": self._after_step,
            "mapcheck.check_run": self._after_check,
        }
        saved = []
        try:
            for name, (_, holders) in TARGETS.items():
                if not holders:
                    continue
                original = getattr(*holders[0])
                wrapper = self._wrap(name, original, hooks.get(name))
                for holder, attr in holders:
                    current = getattr(holder, attr, None)
                    if current is original:
                        saved.append((holder, attr, current))
                        setattr(holder, attr, wrapper)
            yield self
        finally:
            for holder, attr, original in reversed(saved):
                setattr(holder, attr, original)
            self._close_run()

    # -- reduction ----------------------------------------------------------------

    def summary(self, loop_start: int, loop_seconds: float) -> dict[str, float]:
        """Per-layer metrics.  Timings cover every span; self-time shares
        cover the spans from `loop_start` (the measured loop, after set-up)
        against the loop's wall time less its calibration slices; counts
        cover the prefix only."""
        n = len(self)
        prefix = self.prefix_end if self.prefix_end is not None else n
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        k = len(NAMES)
        child = array("d", bytes(8 * n))
        total = [0.0] * k
        calls = [0] * k
        loop_self = [0.0] * k
        prefix_calls = [0] * k
        step, truth_ids = ID["engine.Monitor.step"], (ID["truth.eval_binary"], ID["truth.eval_unary"])
        stream, run_trace = ID["cli.cmd_stream"], ID["engine.run_trace"]
        lookups = 0
        replay_time = 0.0
        replays = 0
        for i in range(n - 1, -1, -1):  # children always follow their parent
            nid = names[i]
            dur = ends[i] - starts[i]
            p = parents[i]
            if p >= 0:
                child[p] += dur
            if i >= loop_start:
                loop_self[nid] += dur - child[i]
            if p >= 0 and names[p] == nid:
                continue  # a recursive call (to_nnf) is part of its caller's call
            total[nid] += dur
            calls[nid] += 1
            if i < prefix:
                prefix_calls[nid] += 1
                if nid in truth_ids and p >= 0 and names[p] == step:
                    lookups += 1
            if nid == run_trace and p >= 0 and names[p] == stream:
                replay_time += dur
                replays += 1

        def mean(name: str, scale: float) -> float:
            j = ID[name]
            return total[j] / calls[j] * scale if calls[j] else 0.0

        c = self.counts
        stepped = prefix_calls[step]
        parses = calls[ID["ltl.parse_formula"]]
        out = {
            "ltl.parse_nnf_us": (total[ID["ltl.parse_formula"]] + total[ID["ltl.to_nnf"]]) / parses * 1e6 if parses else 0.0,
            "rules.compile_ms": mean("rules.compile_formula", 1e3),
            "rules.compile_calls": prefix_calls[ID["rules.compile_formula"]],
            "rules.eval_rule_count": c["eval_rules"],
            "engine.run_trace_us": mean("engine.run_trace", 1e6),
            "engine.snapshot_entries_per_cell": c["snapshot_entries"] / stepped if stepped else 0.0,
            "engine.step_us": mean("engine.Monitor.step", 1e6),
            "engine.cells_stepped": stepped,
            "engine.early_stop_ratio": stepped / c["cells_offered"] if c["cells_offered"] else 0.0,
            "engine.peak_live_instances": c["peak_live"],
            "engine.step_growth": self.growth_last / self.growth_first if self.growth_first else 0.0,
            "truth.lookups_per_cell": lookups / stepped if stepped else 0.0,
            "oracle.eval_us": mean("oracle.oracle_eval", 1e6),
            "oracle.calls": prefix_calls[ID["oracle.oracle_eval"]],
            "mapcheck.check_run_us": mean("mapcheck.check_run", 1e6),
            "mapcheck.skipped_share": c["check_skipped"] / c["check_runs"] if c["check_runs"] else 0.0,
            "mapcheck.steps_per_run": c["check_steps"] / c["check_runs"] if c["check_runs"] else 0.0,
            "traces.cell_parse_us": mean("traces.parse_trace_inline", 1e6),
            "traces.cells_parsed": prefix_calls[ID["traces.parse_trace_inline"]],
            "cli.replay_ms": replay_time / replays * 1e3 if replays else 0.0,
            "cli.replayed_cells": c["replayed_cells"],
        }
        loop_seconds -= loop_self[ID["bench.calibrate"]]
        by_layer = {layer: 0.0 for layer in LAYERS + ("tracing", "bench")}
        spans_by_layer = {layer: 0 for layer in LAYERS}
        for name, (layer, _) in TARGETS.items():
            j = ID[name]
            by_layer[layer] += loop_self[j]
            if layer in spans_by_layer:
                spans_by_layer[layer] += prefix_calls[j]
        for layer in LAYERS:
            out[f"{layer}.self_share"] = by_layer[layer] / loop_seconds if loop_seconds else 0.0
            out[f"{layer}.spans"] = spans_by_layer[layer]
        out["tracing.self_share"] = by_layer["tracing"] / loop_seconds if loop_seconds else 0.0
        return out
