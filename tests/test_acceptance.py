"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 4's corpus is the exhaustive formula space at operator-nesting
depth <= 2 over {a, b} (30,405 formulae) with 216 seeded random traces per
formula (lengths 1-6, densities {0, 0.3, 0.7, 1}), plus a seeded random
depth-3 sample; the depth-3 space itself (~2.8e9 formulae) is not
enumerable in any sane budget.  Criteria 5 and 6 are checked over the same
sweep.
"""

import itertools
import multiprocessing
import random
import time

import pytest

from rulerunner import (
    CachedMonitor,
    Monitor,
    Trace,
    Verdict,
    check_run,
    compile_formula,
    dump_rules,
    enumerate_formulas,
    explain,
    oracle_eval,
    parse_formula,
    parse_trace_inline,
    random_formula,
    run_trace,
    to_nnf,
)
from rulerunner.ltl import Always, And, Atom, Next, Or, Until, WeakNext
from rulerunner.truth import (
    AND_B,
    BINARY_MODES,
    BINARY_OPS,
    FALSE,
    OR_B,
    TRUE,
    UNARY_MODES,
    UNARY_OPS,
    UND,
    EvalMode,
    TruthValue,
    eval_binary,
    eval_unary,
)

ATOMS = ("a", "b")
DENSITIES = (0.0, 0.3, 0.7, 1.0)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def sweep_traces(per_combo: int = 9, max_length: int = 6, seed: int = 90210) -> list[Trace]:
    """Seeded trace corpus: `per_combo` traces per (length, density) pair."""
    rng = random.Random(seed)
    out = []
    for length in range(1, max_length + 1):
        for density in DENSITIES:
            for _ in range(per_combo):
                cells = tuple(
                    frozenset(a for a in ATOMS if rng.random() < density) for _ in range(length)
                )
                out.append(Trace(cells))
    return out


def _sweep_batch(args):
    """Worker: differential + end-binary + extension-invariance checks for
    one batch of formulae over the shared trace corpus, and the cached
    monitor's verdict and deciding cell against `run_trace`'s.  A trace
    equal to one seen before reuses its `run_trace` result and oracle
    value; every pair still gets every check, in order, so the extension
    draws stay the same."""
    batch_index, formulas, traces = args
    rng = random.Random(0xACCE97 + batch_index)
    mismatches = []
    nonbinary = []
    ext_bad = []
    cache_bad = []
    comparisons = 0
    ext_checked = 0
    for f in formulas:
        system = compile_formula(f)
        cache = CachedMonitor(system)
        ext_budget = 2  # extension checks per formula
        known = {}  # per distinct trace: its run and, if decided, the oracle's value
        for u in traces:
            comparisons += 1
            if u.cells not in known:
                result = run_trace(system, u)
                known[u.cells] = result, result.verdict is not Verdict.UNDECIDED and oracle_eval(f, u, 0)
            result, oracle_true = known[u.cells]
            if cache.run(u.cells) != (result.verdict, result.deciding_cell):
                cache_bad.append((f, u))
            if result.verdict is Verdict.UNDECIDED:
                nonbinary.append((f, u))
                continue
            engine_true = result.verdict is Verdict.SUCCESS
            if oracle_true != engine_true:
                mismatches.append((f, u, result.verdict))
            if ext_budget and len(result.outcomes) < len(u):
                ext_budget -= 1
                ext_checked += 1
                suffix = tuple(
                    frozenset(a for a in ATOMS if rng.random() < 0.5) for _ in range(3)
                )
                consumed = u.cells[: len(result.outcomes)]
                for extended in (Trace(u.cells + suffix), Trace(consumed + suffix)):
                    if oracle_eval(f, extended, 0) != engine_true:
                        ext_bad.append((f, u, extended))
    return comparisons, mismatches, nonbinary, ext_checked, ext_bad, cache_bad


@pytest.fixture(scope="module")
def differential_sweep():
    formulas = enumerate_formulas(2, list(ATOMS))
    traces = sweep_traces()
    assert len(traces) >= 200

    deep_rng = random.Random(1234321)
    deep_formulas = [random_formula(3, list(ATOMS), deep_rng) for _ in range(3000)]
    deep_traces = sweep_traces(per_combo=3, max_length=6, seed=777)  # 72 traces

    batch_size = 400
    batches = [
        (i, formulas[lo : lo + batch_size], traces)
        for i, lo in enumerate(range(0, len(formulas), batch_size))
    ]
    base = len(batches)
    batches += [
        (base + i, deep_formulas[lo : lo + batch_size], deep_traces)
        for i, lo in enumerate(range(0, len(deep_formulas), batch_size))
    ]

    started = time.time()
    totals = dict(comparisons=0, mismatches=[], nonbinary=[], ext_checked=0, ext_bad=[], cache_bad=[])
    with multiprocessing.Pool(2) as pool:
        for comparisons, mismatches, nonbinary, ext_checked, ext_bad, cache_bad in pool.imap_unordered(
            _sweep_batch, batches
        ):
            totals["comparisons"] += comparisons
            totals["mismatches"] += mismatches
            totals["nonbinary"] += nonbinary
            totals["ext_checked"] += ext_checked
            totals["ext_bad"] += ext_bad
            totals["cache_bad"] += cache_bad
    totals["elapsed"] = time.time() - started
    totals["formula_count"] = len(formulas)
    totals["trace_count"] = len(traces)
    totals["deep_count"] = len(deep_formulas)
    return totals


def test_criterion_1_worked_example_golden_run():
    started = time.time()
    system = compile_formula(to_nnf(parse_formula("a | F b")))
    trace = parse_trace_inline("[c - a - b,d - b]")
    result = run_trace(system, trace)
    elapsed = time.time() - started
    expected = (
        "state : R[a], R[b], R[F b], R[a | F b]B\n"
        "+ obs : R[a], R[b], R[F b], R[a | F b]B, c\n"
        "eval  : [a]F, [b]F, [F b]?, [a | F b]?R\n"
        "react : R[b], R[F b], R[a | F b]R\n"
        "\n"
        "state : R[b], R[F b], R[a | F b]R\n"
        "+ obs : R[b], R[F b], R[a | F b]R, a\n"
        "eval  : [b]F, [F b]?, [a | F b]?R\n"
        "react : R[b], R[F b], R[a | F b]R\n"
        "\n"
        "state : R[b], R[F b], R[a | F b]R\n"
        "+ obs : R[b], R[F b], R[a | F b]R, b, d\n"
        "eval  : [b]T, [F b]T, [a | F b]T, SUCCESS\n"
        "STOP  : PROPERTY SATISFIED"
    )
    ok = (
        explain(result) == expected
        and result.verdict is Verdict.SUCCESS
        and result.deciding_cell == 2
        and len(result.outcomes) == 3  # the fourth cell is never read
        and elapsed < 1.0
    )
    report(1, ok, f"worked-example evolution reproduced, SUCCESS at cell 2 in {elapsed * 1000:.0f} ms")
    assert explain(result) == expected
    assert result.verdict is Verdict.SUCCESS and result.deciding_cell == 2
    assert len(result.outcomes) == 3
    assert elapsed < 1.0


def test_criterion_2_worked_example_compile_golden():
    from test_rules import WORKED_EXAMPLE_LISTING, WORKED_EXAMPLE_REACTIVATIONS

    system = compile_formula(to_nnf(parse_formula("a | F b")))
    rendered = [r.render(system.index) for r in system.eval_rules]
    reacts = [r.render(system.index) for r in system.react_rules]
    initial = ", ".join(r.render(system.index) for r in system.initial)

    def squeeze(s: str) -> str:
        return "".join(s.split())

    dump_squeezed = squeeze(dump_rules(system))
    ok = (
        len(system.eval_rules) == 25
        and len(system.react_rules) == 4
        and rendered == WORKED_EXAMPLE_LISTING
        and reacts == WORKED_EXAMPLE_REACTIVATIONS
        and initial == "R[a], R[b], R[F b], R[a | F b]B"
        and all(squeeze(line) in dump_squeezed for line in WORKED_EXAMPLE_LISTING)
    )
    report(2, ok, "25 evaluation rules, 4 reactivation rules, initial state and full listing verbatim")
    assert len(system.eval_rules) == 25 and len(system.react_rules) == 4
    assert rendered == WORKED_EXAMPLE_LISTING
    assert reacts == WORKED_EXAMPLE_REACTIVATIONS
    assert initial == "R[a], R[b], R[F b], R[a | F b]B"
    for line in WORKED_EXAMPLE_LISTING:
        assert squeeze(line) in dump_squeezed


def test_criterion_3_mapped_run_golden():
    from test_mapcheck import GOLDEN_SEQUENCE

    report_obj = check_run(to_nnf(parse_formula("a | X b")), parse_trace_inline("[b - b]"))
    got = [(s.state, s.judgement, s.index) for s in report_obj.steps]
    values_constant = all(s.value is True for s in report_obj.steps)
    ok = (
        report_obj.passed
        and len(report_obj.steps) == 11
        and got == GOLDEN_SEQUENCE
        and report_obj.steps[-1].judgement == "⊤"
        and values_constant
    )
    report(3, ok, "11-step state/judgement sequence reproduced, ending ⊤, invariant at every step")
    assert got == GOLDEN_SEQUENCE
    assert report_obj.passed and values_constant
    assert report_obj.steps[-1].judgement == "⊤"


def test_criterion_4_differential_soundness(differential_sweep):
    s = differential_sweep
    expected_min = s["formula_count"] * s["trace_count"]
    ok = not s["mismatches"] and s["comparisons"] >= expected_min
    report(
        4,
        ok,
        f"{s['comparisons']} engine-vs-oracle comparisons "
        f"({s['formula_count']} exhaustive depth<=2 formulae x {s['trace_count']} traces "
        f"+ {s['deep_count']} random depth-3 formulae), "
        f"{len(s['mismatches'])} mismatches in {s['elapsed']:.0f} s "
        f"({s['comparisons'] / s['elapsed']:.0f} comparisons/s; gate < 300 s)",
    )
    for f, u, verdict in s["mismatches"][:5]:
        print("  mismatch:", f, u, verdict)
    assert s["comparisons"] >= expected_min
    assert not s["mismatches"]
    assert s["elapsed"] < 300


def test_criterion_5_early_verdict_extension_invariance(differential_sweep):
    s = differential_sweep
    ok = s["ext_checked"] >= 1000 and not s["ext_bad"]
    report(
        5,
        ok,
        f"{s['ext_checked']} early-verdict pairs extended by 3 random cells, "
        f"{len(s['ext_bad'])} oracle flips",
    )
    assert s["ext_checked"] >= 1000
    assert not s["ext_bad"]


def test_criterion_6_end_binary(differential_sweep):
    s = differential_sweep
    ok = not s["nonbinary"]
    report(6, ok, f"verdict binary at trace end in all {s['comparisons']} runs")
    assert not s["nonbinary"]


def test_cached_monitor_matches_run_trace(differential_sweep):
    """Over every pair of the criterion-4 sweep, the cached monitor gives
    the verdict and deciding cell `run_trace` gives."""
    s = differential_sweep
    for f, u in s["cache_bad"][:5]:
        print("  cache mismatch:", f, u)
    assert not s["cache_bad"]


def chain_formula(depth: int):
    f = Always(Atom("a"))
    for _ in range(depth - 1):
        f = Always(And(Atom("a"), f))
    return f


def test_criterion_7_linearity_and_single_pass_cost():
    depths = (5, 10, 20, 40)
    counts = {n: len(compile_formula(chain_formula(n)).eval_rules) for n in depths}
    alpha = (counts[10] - counts[5]) / 5
    beta = counts[5] - alpha * 5
    linear = all(counts[n] == alpha * n + beta for n in depths)

    system = compile_formula(to_nnf(parse_formula("G a")))
    cell = frozenset({"a"})
    monitor = Monitor(system)
    sizes = set()
    started = time.time()
    for i in range(100_000):
        monitor.step(cell, is_last=(i == 99_999))
    elapsed = time.time() - started
    sizes.add(monitor.live_count())
    probe = Monitor(system)
    probe_sizes = set()
    for i in range(1000):
        probe.step(cell, is_last=False)
        probe_sizes.add(probe.live_count())
    ok = linear and elapsed < 2.0 and len(probe_sizes) == 1 and monitor.verdict is Verdict.SUCCESS
    report(
        7,
        ok,
        f"rule count fits {alpha:.0f}*n{beta:+.0f} exactly at n in {depths}; "
        f"100k-cell run in {elapsed:.2f} s with constant state size {probe_sizes}",
    )
    assert linear
    assert monitor.verdict is Verdict.SUCCESS
    assert elapsed < 2.0
    assert len(probe_sizes) == 1


def test_criterion_8_map_checker_property():
    rng = random.Random(60221023)
    core_ops = (Next, WeakNext, Or, And, Until)
    violations = []
    terminal_bad = []
    runs = 0
    while runs < 500:
        f = random_formula(3, list(ATOMS), rng, operators=core_ops)
        length = rng.randint(1, 5)
        cells = tuple(frozenset(a for a in ATOMS if rng.random() < 0.5) for _ in range(length))
        rep = check_run(f, Trace(cells))
        runs += 1
        if not rep.passed:
            violations.append(rep)
        if rep.skipped_from is None:
            last = rep.steps[-1]
            want = "⊤" if rep.verdict is Verdict.SUCCESS else "⊥"
            if last.judgement != want:
                terminal_bad.append(rep)
    ok = not violations and not terminal_bad
    report(8, ok, f"{runs} random core-grammar runs mapped with {len(violations)} violations")
    assert not violations
    assert not terminal_bad


def test_criterion_9_table_totality_and_duality():
    operand_classes = (TRUE, UND, FALSE)
    outputs = 0
    for op in BINARY_OPS:
        for mode in BINARY_MODES[op]:
            for left, right in itertools.product(operand_classes, repeat=2):
                value = eval_binary(op, mode, left, right)
                assert isinstance(value, TruthValue)
                assert value == eval_binary(op, mode, left, right)
                outputs += 1
    for op in UNARY_OPS:
        for mode in UNARY_MODES[op]:
            for sub in operand_classes:
                for at_end in (False, True):
                    value = eval_unary(op, mode, sub, at_end)
                    assert isinstance(value, TruthValue)
                    assert value == eval_unary(op, mode, sub, at_end)
                    outputs += 1

    def flip_kind(k):
        return {"T": "F", "F": "T"}.get(k, k)

    def flip_value(v):
        return (FALSE if v.is_true() else TRUE) if v.kind != "?" else v

    def swap_sides(v):
        mode = {EvalMode.L: EvalMode.R, EvalMode.R: EvalMode.L}.get(v.mode, v.mode)
        return TruthValue(v.kind, mode) if v.kind == "?" else v

    dual_plain = all(
        AND_B[(flip_kind(l), flip_kind(r))] == flip_value(out) for (l, r), out in OR_B.items()
    )
    dual_swapped = all(
        AND_B[(flip_kind(r), flip_kind(l))] == swap_sides(flip_value(out))
        for (l, r), out in OR_B.items()
    )
    ok = outputs == 126 and dual_plain and dual_swapped
    report(9, ok, f"{outputs} table cells each with exactly one defined output; or/and duality holds")
    assert dual_plain and dual_swapped
    assert outputs == 126
