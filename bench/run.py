"""rulerunner benchmark: one workload per process.

    python3 bench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  `--trace 0` measures the end-to-end metrics with tracing
off; `--trace 1` runs the workload untraced for half the time, then again
with spans around every public entry point, and reports the per-layer
metrics and the tracing overhead.  Every metric is printed with its unit,
sample count, median and quartiles, and the record (with machine facts) is
written to bench/results/.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import rulerunner  # noqa: E402

if Path(rulerunner.__file__).resolve().parent != ROOT / "src" / "rulerunner":
    sys.exit(f"rulerunner imported from {rulerunner.__file__}, not from this checkout's src/")

from calibrate import REFERENCE_SLICE_S, Calibrator  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 5
SETUP_SECONDS = 2.0

# metric -> unit, as listed in BENCHMARK.json (selftest.py checks they agree)
END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "comparisons_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
# printed and recorded alongside, on the workloads where they exist (and
# failed_share on all)
WORKLOAD_METRICS = {
    "sweep": ("map_checks_per_s",),
    "stream_flat": ("step_p50_us", "step_p99_us", "eof_verdict_ms"),
    "nested_growth": ("step_p50_us", "step_p99_us", "peak_live_instances"),
}
PER_LAYER_UNITS = {
    "ltl.parse_nnf_us": "us",
    "rules.compile_ms": "ms",
    "rules.compile_calls": "count",
    "rules.eval_rule_count": "count",
    "engine.run_trace_us": "us",
    "engine.snapshot_entries_per_cell": "1/cell",
    "engine.step_us": "us",
    "engine.cells_stepped": "count",
    "engine.early_stop_ratio": "ratio",
    "engine.peak_live_instances": "count",
    "engine.step_growth": "ratio",
    "truth.lookups_per_cell": "1/cell",
    "oracle.eval_us": "us",
    "oracle.calls": "count",
    "mapcheck.check_run_us": "us",
    "mapcheck.skipped_share": "ratio",
    "mapcheck.steps_per_run": "count",
    "traces.cell_parse_us": "us",
    "traces.cells_parsed": "count",
    "cli.replay_ms": "ms",
    "cli.replayed_cells": "count",
    **{f"{layer}.self_share": "ratio" for layer in ("ltl", "truth", "rules", "engine", "oracle", "mapcheck", "traces", "cli", "tracing")},
    **{f"{layer}.spans": "count" for layer in ("ltl", "truth", "rules", "engine", "oracle", "mapcheck", "traces", "cli")},
    "tracing.cells_per_s_ratio": "ratio",
    "tracing.comparisons_per_s_ratio": "ratio",
}


def summarize(samples: list[float], unit: str, value: float | None = None) -> dict:
    """Value (the median unless given) with the sample count and quartiles."""
    ordered = sorted(samples)
    if len(ordered) >= 2:
        q1, med, q3 = statistics.quantiles(ordered, n=4)
    else:  # one sample, or none when every request of the kind failed
        q1 = med = q3 = ordered[0] if ordered else 0.0
    return {"value": med if value is None else value, "unit": unit, "n": len(ordered), "q1": q1, "median": med, "q3": q3}


def percentile(samples: list[float], p: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(len(ordered) * p))]


def rates(metrics: dict, name: str, m, work: str, seconds: str = "seconds") -> None:
    """The scaled rate (see workloads.py), with the per-visit rates as
    samples, and the unscaled per-visit rates under raw.<name>."""
    raw, scaled = m.visit_rates(work, seconds)
    metrics[name] = summarize(scaled, "1/s", m.rate(work, seconds))
    metrics[f"raw.{name}"] = summarize(raw, "1/s")


def timed_setups(workload, cal: Calibrator) -> tuple[list[float], float]:
    """At least SETUP_REPS set-ups and SETUP_SECONDS in all, so that a set-up
    of a few formulae still gives a steady median; returns the raw times and
    the mean calibration slice over them."""
    out = []
    mark = cal.mark()
    gc.collect()
    while len(out) < SETUP_REPS or sum(out) < SETUP_SECONDS:
        out.append(workload.setup(cal))
    return out, cal.mean_since(mark)


def end_to_end(name: str, setups: list[float], setup_slice: float, m) -> dict:
    metrics = {"setup_s": summarize([t * REFERENCE_SLICE_S / setup_slice for t in setups], "s")}
    rates(metrics, "cells_per_s", m, "cells")
    rates(metrics, "comparisons_per_s", m, "verdicts")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    metrics["peak_rss_mib"] = summarize([rss], "MiB")
    metrics["raw.setup_s"] = summarize(setups, "s")
    metrics["calibration_slice_ms"] = summarize([c.slice_s * 1e3 for c in m.chunks], "ms")
    extra = WORKLOAD_METRICS[name]
    if "map_checks_per_s" in extra:
        rates(metrics, "map_checks_per_s", m, "checks", "check_seconds")
    if "step_p50_us" in extra:
        steps = m.step_us
        metrics["step_p50_us"] = summarize(steps.values, "us") | {"n": steps.count}
        p99 = percentile(steps.values, 0.99)
        metrics["step_p99_us"] = {"value": p99, "unit": "us", "n": steps.count, "beyond": round(steps.count * 0.01)}
    if "eof_verdict_ms" in extra:
        metrics["eof_verdict_ms"] = summarize(m.eof_ms, "ms")
    if "peak_live_instances" in extra:
        metrics["peak_live_instances"] = summarize([m.peak_live], "count")
    metrics["failed_share"] = summarize([m.failed / m.attempted], "ratio")
    return metrics


def per_layer(workload, seconds: float) -> tuple[dict, list]:
    """Untraced run for half the time, then a traced set-up and run."""
    cal = Calibrator()
    workload.setup(cal)
    plain = workload.run(max(seconds / 2, 0.5), cal)
    tracer = Tracer()
    cal.tracer = tracer
    with tracer.install():
        workload.setup(cal)
        loop_start = len(tracer)
        t0 = time.perf_counter()
        traced = workload.run(seconds, cal, tracer)
        loop_seconds = time.perf_counter() - t0
    workload.verify(traced)
    values = tracer.summary(loop_start, loop_seconds)
    for metric, attr in (("cells_per_s", "cells"), ("comparisons_per_s", "verdicts")):
        values[f"tracing.{metric}_ratio"] = traced.rate(attr) / plain.rate(attr)
    metrics = {name: {"value": values[name], "unit": unit, "n": 1} for name, unit in PER_LAYER_UNITS.items()}
    return metrics, [plain, traced]


def machine_facts(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rulerunner").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, measurements = per_layer(workload, args.seconds)
        reported = PER_LAYER_UNITS
    else:
        cal = Calibrator()
        setups, setup_slice = timed_setups(workload, cal)
        m = workload.run(args.seconds, cal)
        workload.verify(m)
        measurements = [m]
        metrics = end_to_end(args.workload, setups, setup_slice, m)
        reported = END_TO_END
    attempted = sum(m.attempted for m in measurements)
    failed = sum(m.failed for m in measurements)
    failures = [f for m in measurements for f in m.failures]

    record = {"facts": machine_facts(args), "attempted": attempted, "failed": failed, "failures": failures, "metrics": metrics}
    results = Path(__file__).resolve().parent / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    facts = record["facts"]
    print(f"# {args.workload} seed={args.seed} cores={facts['cores']} python={facts['python']} "
          f"commit={facts['commit']} src={facts['source_sha256'][:12]}")
    for what in failures:
        print(f"# FAILED: {what}")
    for name, s in metrics.items():
        quart = f" q1={s['q1']:.6g} median={s['median']:.6g} q3={s['q3']:.6g}" if "q1" in s else ""
        beyond = f" beyond={s['beyond']}" if "beyond" in s else ""
        print(f"{name:36s} {s['value']:.6g} {s['unit']} n={s['n']}{quart}{beyond}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]} for name in reported},
    }
    print(json.dumps(result))
    return record


if __name__ == "__main__":
    main()
