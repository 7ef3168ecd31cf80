"""Self-test of the benchmark itself (not of rulerunner).

    python3 bench/selftest.py

Checks that the generated sweep corpus is exactly the criterion-4 corpus,
that a deliberately wrong expected verdict makes every workload report
failures, that making the program slower by a fixed amount of Python work
lowers the machine-speed-scaled rate as much as the raw one, that every
metric named for a workload is emitted, and that the count metrics repeat
exactly between two traced runs of one seed.  Exits non-zero on the first
failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
from pathlib import Path

import run  # puts the checkout's src/ on sys.path
from calibrate import REFERENCE_SLICE_S, Calibrator
from rulerunner import cli, engine, enumerate_formulas
from workloads import CORPUS_SIZE, WORKLOADS, corpus_formula, parse_nnf

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
EXACT_COUNTS = (
    "rules.compile_calls",
    "rules.eval_rule_count",
    "engine.cells_stepped",
    "engine.peak_live_instances",
    "engine.snapshot_entries_per_cell",
    "engine.early_stop_ratio",
    "truth.lookups_per_cell",
    "oracle.calls",
    "mapcheck.skipped_share",
    "mapcheck.steps_per_run",
    "traces.cells_parsed",
    "cli.replayed_cells",
)
SECONDS = "1"
BUSY_LOOPS = 20_000  # extra Python work per Monitor.step, about as long as the mean step


def check(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def quiet_main(argv: list[str]) -> dict:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        record = run.main(argv)
    record["last_line"] = json.loads(out.getvalue().strip().splitlines()[-1])
    return record


def corpus() -> None:
    ours = [parse_nnf(corpus_formula(i)) for i in range(CORPUS_SIZE)]
    check(ours == enumerate_formulas(2, ["a", "b"]), f"sweep corpus equals the {CORPUS_SIZE}-formula criterion-4 corpus")


def wrong_verdicts() -> None:
    def failures(name: str, spoil) -> int:
        workload = WORKLOADS[name](7)
        cal = Calibrator()
        workload.setup(cal)
        with spoil(workload):
            m = workload.run(0.1, cal)
        return m.failed

    @contextlib.contextmanager
    def negated_oracle(workload):
        original = cli.oracle_eval
        cli.oracle_eval = lambda f, u, i: not original(f, u, i)
        try:
            yield
        finally:
            cli.oracle_eval = original

    @contextlib.contextmanager
    def flipped_stream(workload):
        unit = workload.units[0]
        unit.outputs[-1] = "FAILURE" if unit.outputs[-1] == "SUCCESS" else "SUCCESS"
        yield

    @contextlib.contextmanager
    def flipped_growth(workload):
        unit = workload.units[0]
        unit.verdict = "FAILURE" if unit.verdict == "SUCCESS" else "SUCCESS"
        yield

    for name, spoil in (("sweep", negated_oracle), ("stream_flat", flipped_stream), ("nested_growth", flipped_growth)):
        check(failures(name, spoil) > 0, f"{name}: a wrong expected verdict raises failed_share above 0")


def scaling_keeps_speed() -> None:
    """Scaled rates divide by the calibration slice time, so they keep the
    program's own speed only if that time does not depend on the program.
    Alternate plain and slowed runs of nested_growth, and require the scaled
    cells_per_s to fall by the same factor as the raw one."""
    workload = WORKLOADS["nested_growth"](7)
    cal = Calibrator()
    workload.setup(cal)
    step = engine.Monitor.step

    def slow_step(self, *args, **kwargs):
        for _ in range(BUSY_LOOPS):
            pass
        return step(self, *args, **kwargs)

    def rates(slow: bool) -> tuple[float, float]:
        engine.Monitor.step = slow_step if slow else step
        try:
            chunks = workload.run(0.0, cal).chunks  # one pass
        finally:
            engine.Monitor.step = step
        cells = sum(c.cells for c in chunks)
        raw = sum(c.seconds for c in chunks)
        scaled = sum(c.seconds * REFERENCE_SLICE_S / c.slice_s for c in chunks)
        return cells / raw, cells / scaled

    raw_falls, scaled_falls = [], []
    for _ in range(5):
        (raw, scaled), (slow_raw, slow_scaled) = rates(False), rates(True)
        raw_falls.append(raw / slow_raw)
        scaled_falls.append(scaled / slow_scaled)
    raw_fall, scaled_fall = statistics.median(raw_falls), statistics.median(scaled_falls)
    check(raw_fall > 1.5 and abs(scaled_fall / raw_fall - 1) < 0.1,
          f"scaled cells_per_s falls {scaled_fall:.3f}x when raw falls {raw_fall:.3f}x")


def metrics_and_counts() -> None:
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    for name in WORKLOADS:
        record = quiet_main(["--workload", name, "--seed", "5", "--seconds", SECONDS, "--trace", "0"])
        line = record["last_line"]
        check(line["correct"] and line["failed"] == 0 and line["attempted"] > 0, f"{name}: correct on the seed code")
        check(set(line["metrics"]) == end_to_end, f"{name}: last line holds exactly the end-to-end metrics")
        check(all(line["metrics"][k]["value"] > 0 for k in end_to_end), f"{name}: no end-to-end metric is 0")
        wanted = set(run.WORKLOAD_METRICS[name]) | end_to_end | {"failed_share"}
        check(wanted <= set(record["metrics"]), f"{name}: every metric named for it is reported")
        traced = [quiet_main(["--workload", name, "--seed", "5", "--seconds", SECONDS, "--trace", "1"]) for _ in range(2)]
        check(all(set(t["last_line"]["metrics"]) == per_layer for t in traced), f"{name}: traced run reports every per-layer metric")
        first, second = (t["metrics"] for t in traced)
        differ = {k: (first[k]["value"], second[k]["value"]) for k in EXACT_COUNTS if first[k]["value"] != second[k]["value"]}
        check(not differ, f"{name}: count metrics repeat exactly for one seed" + (f" {differ}" if differ else ""))


if __name__ == "__main__":
    corpus()
    wrong_verdicts()
    scaling_keeps_speed()
    metrics_and_counts()
