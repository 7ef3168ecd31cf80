"""Translate monitor states into finite-trace judgements and check that the
judgement value is invariant along a run and equal to the final verdict.

A state is the monitor's live instance graph before a cell
(`Monitor.instances()`) plus the truth values the cell has computed so far.
Each instance maps to a judgement at the current cell by one rule per
operator kind, reading its operand instances: a formula progression in the
sense of Roşu and Havelund, with the unfoldings ``F g ≡ g ∨ X F g`` and
``G g ≡ g ∧ W G g``.  Operands carry smaller subformula ids than their
parents, so one forward pass over the graph maps every instance after its
operands, with no recursion.  The mapping covers the whole grammar,
including runs with several live epochs of one subformula and runs in which
instances were folded.  `check_run` maps and evaluates each state as
`Monitor.step` records it, so every step of every run is checked and no
state is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .engine import Monitor, Verdict, _eval_tokens, _rule_tokens
from .ltl import Formula, Next, WeakNext, _compose
from .oracle import BOTTOM, TOP, JAnd, JLeaf, JOr, Judgement, eval_judgement
from .rules import RuleSystem, compile_formula
from .traces import Trace, format_trace_inline
from .truth import EvalMode, TruthValue


def _unfolding(op: type, system: RuleSystem, fid: int, cell: int) -> JLeaf:
    """The leaf `op f` at `cell` for subformula `fid`, its text composed from f's."""
    g = op(system.index.formulas[fid])
    return JLeaf(g, cell, _compose(g, [system.index.text(fid)]))


def map_state(
    system: RuleSystem,
    cell: int,
    graph: tuple[tuple[int, int, EvalMode, tuple], ...],
    values: dict[tuple[int, int], TruthValue],
) -> Judgement:
    """The judgement the monitor state before cell `cell` stands for: the
    live instance graph `graph`, as `Monitor.instances()` gives it, with
    `values`, the values fired so far this cell by (fid, epoch).  Each
    instance is mapped once, after its operands; the root's judgement is the
    state's."""
    index = system.index
    nodes = system.nodes
    mapped: dict[tuple[int, int], Judgement] = {}
    for fid, epoch, mode, ops in graph:
        value = values.get((fid, epoch))
        kind = nodes[fid].kind
        if value is not None and value.kind != "?":
            judgement = TOP if value.kind == "T" else BOTTOM
        elif kind in ("true", "atom", "negatom") or (kind in ("next", "weaknext") and mode is not EvalMode.M):
            # mirroring is a property of the activation, not of the ?M value
            judgement = JLeaf(index.formulas[fid], cell, index.text(fid))
        else:
            subs = [(TOP if op.kind == "T" else BOTTOM) if isinstance(op, TruthValue) else mapped[op] for op in ops]
            if value is not None:
                mode = value.mode
            if kind in ("next", "weaknext"):
                judgement = subs[0]
            elif kind == "eventually":
                judgement = reduce(JOr, subs + [_unfolding(Next, system, fid, cell)])
            elif kind == "always":
                judgement = reduce(JAnd, subs + [_unfolding(WeakNext, system, fid, cell)])
            elif kind != "until":
                if mode is EvalMode.L:
                    judgement = subs[0]
                elif mode is EvalMode.R:
                    judgement = subs[-1]
                else:
                    judgement = JOr(subs[0], subs[1]) if kind == "or" else JAnd(subs[0], subs[1])
            else:
                # until over its (operand one, operand two) pairs, oldest
                # first: a witness at pair j needs operand one at every
                # earlier pair, and the unfolding term stands for witnesses
                # after this cell
                terms = [reduce(JAnd, [r] + subs[0 : 2 * j : 2]) for j, r in enumerate(subs[1::2])]
                if value is not None and mode is EvalMode.B:  # operand two failed this cell
                    terms.pop()
                if mode is not EvalMode.L and mode is not EvalMode.R:  # else no later cell can witness it
                    terms.append(reduce(JAnd, subs[0::2] + [_unfolding(Next, system, fid, cell)]))
                judgement = reduce(JOr, terms)
        mapped[fid, epoch] = judgement
    return mapped[system.root, 0]


@dataclass(frozen=True)
class CheckStep:
    number: int
    index: int
    state: str
    judgement: str
    value: bool


@dataclass(frozen=True)
class CheckReport:
    formula: str
    trace: str
    verdict: Verdict
    steps: list[CheckStep]
    violation_at: int | None
    skipped_from: int | None

    @property
    def passed(self) -> bool:
        return self.violation_at is None

    def render(self) -> str:
        lines = [f"formula {self.formula} over {self.trace}: verdict {self.verdict}"]
        for step in self.steps:
            lines.append(f"  step {step.number} (cell {step.index}): {step.judgement} = {step.value}")
        lines.append("  PASS" if self.passed else f"  VIOLATION at step {self.violation_at}")
        return "\n".join(lines)


def check_run(f: Formula, u: Trace) -> CheckReport:
    """Run the monitor over the trace, map every intermediate state to a
    judgement as the monitor reaches it, and require a constant judgement
    value equal to the verdict.

    The states are the base state, then per cell the state with the cell's
    observations added, one state per evaluation, and the reactivated state
    or, once a verdict is reached, the terminal one.  A formula not in NNF
    raises `NnfError`, from `compile_formula`."""
    system = compile_formula(f)
    monitor = Monitor(system)
    steps: list[CheckStep] = []

    def record(cell: int, state: str, judgement: Judgement) -> None:
        steps.append(CheckStep(len(steps), cell, state, str(judgement), eval_judgement(judgement, u)))

    graph = monitor.instances()
    record(0, ", ".join(_rule_tokens(system, monitor.active())), map_state(system, 0, graph, {}))
    last = len(u) - 1
    for i, cell in enumerate(u.cells):
        outcome = monitor.step(cell, is_last=(i == last))
        state = ", ".join(_rule_tokens(system, outcome.state_before) + list(outcome.observations))
        values: dict[tuple[int, int], TruthValue] = {}
        record(i, state, map_state(system, i, graph, values))
        evaluations = outcome.evaluations
        for (fid, epoch, value), token in zip(evaluations, _eval_tokens(system, evaluations)):
            values[fid, epoch] = value
            state += ", " + token
            record(i, state, map_state(system, i, graph, values))
        if monitor.finished:
            record(i, str(monitor.verdict), TOP if monitor.verdict is Verdict.SUCCESS else BOTTOM)
            break
        graph = monitor.instances()
        record(i + 1, ", ".join(_rule_tokens(system, outcome.state_after)), map_state(system, i + 1, graph, {}))
    expected = monitor.verdict is Verdict.SUCCESS
    return CheckReport(
        formula=system.index.text(system.root),
        trace=format_trace_inline(u),
        verdict=monitor.verdict,
        steps=steps,
        violation_at=next((step.number for step in steps if step.value != expected), None),
        # always None, as every run is mapped in full; kept because the bench
        # harness (bench/workloads.py, bench/tracing.py) and criterion 8 read it
        skipped_from=None,
    )
