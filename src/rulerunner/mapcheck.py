"""Translate monitor states into finite-trace judgements and check that the
judgement value is invariant along a run and equal to the final verdict.

A state is the monitor's live instance graph before a cell
(`Monitor.instances()`) plus the truth values the cell has computed so far.
Each instance maps to a judgement at the current cell by one rule per
operator kind, reading its operand instances: a formula progression in the
sense of Roşu and Havelund, with the unfoldings ``F g ≡ g ∨ X F g`` and
``G g ≡ g ∧ W G g``.  The mapping covers the whole grammar, including runs
with several live epochs of one subformula and runs in which instances were
folded, so every step of every run is checked.
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


@dataclass(frozen=True)
class CheckState:
    """One intermediate monitor state: the live instance graph before cell
    `index` and the cell's evaluations made so far, in firing order."""

    index: int
    graph: tuple[tuple[int, int, EvalMode, tuple], ...]
    evaluations: tuple[tuple[int, int, TruthValue], ...]
    tokens: tuple[str, ...]
    terminal: Verdict | None = None

    def render(self) -> str:
        if self.terminal is not None:
            return str(self.terminal)
        return ", ".join(self.tokens)


def map_state(system: RuleSystem, state: CheckState) -> Judgement:
    """The judgement a monitor state stands for, read off the root instance
    through the operand instances each live instance holds."""
    if state.terminal is not None:
        return TOP if state.terminal is Verdict.SUCCESS else BOTTOM
    n = state.index
    graph = {(fid, epoch): (mode, ops) for fid, epoch, mode, ops in state.graph}
    values = {(fid, epoch): value for fid, epoch, value in state.evaluations}
    index = system.index

    def unfolding(op: type, fid: int) -> JLeaf:
        """The leaf `op f` at this cell for subformula `fid`, its text composed from f's."""
        g = op(index.formulas[fid])
        return JLeaf(g, n, _compose(g, [index.text(fid)]))

    def mapx(x) -> Judgement:
        value = x if isinstance(x, TruthValue) else values.get(x)
        if value is not None and value.kind != "?":
            return TOP if value.kind == "T" else BOTTOM
        fid = x[0]
        mode, ops = graph[x]
        kind = system.nodes[fid].kind
        formula = index.formulas[fid]
        if kind in ("next", "weaknext"):
            # mirroring is a property of the activation, not of the ?M value
            return mapx(ops[0]) if mode is EvalMode.M else JLeaf(formula, n, index.text(fid))
        if kind in ("true", "atom", "negatom"):
            return JLeaf(formula, n, index.text(fid))
        subs = [mapx(op) for op in ops]
        if kind == "eventually":
            return reduce(JOr, subs + [unfolding(Next, fid)])
        if kind == "always":
            return reduce(JAnd, subs + [unfolding(WeakNext, fid)])
        if value is not None:
            mode = value.mode
        if kind != "until":
            if mode is EvalMode.L:
                return subs[0]
            if mode is EvalMode.R:
                return subs[-1]
            return JOr(subs[0], subs[1]) if kind == "or" else JAnd(subs[0], subs[1])
        # until over its (operand one, operand two) pairs, oldest first: a
        # witness at pair j needs operand one at every earlier pair, and the
        # unfolding term stands for witnesses after this cell
        terms = [reduce(JAnd, [r] + subs[0 : 2 * j : 2]) for j, r in enumerate(subs[1::2])]
        if value is not None and mode is EvalMode.B:  # operand two failed this cell
            terms.pop()
        if mode is not EvalMode.L and mode is not EvalMode.R:  # else no later cell can witness it
            terms.append(reduce(JAnd, subs[0::2] + [unfolding(Next, fid)]))
        return reduce(JOr, terms)

    return mapx(next((fid, epoch) for fid, epoch, _, _ in state.graph if fid == system.root))


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
    judgement, and require a constant judgement value equal to the verdict.

    The states are the base state, then per cell the state with the cell's
    observations added, one state per evaluation, and the reactivated state
    or, once a verdict is reached, the terminal one.  A formula not in NNF
    raises `NnfError`, from `compile_formula`."""
    system = compile_formula(f)
    monitor = Monitor(system)
    graph = monitor.instances()
    states = [CheckState(0, graph, (), tuple(_rule_tokens(system, monitor.active())))]
    last = len(u) - 1
    for i, cell in enumerate(u.cells):
        outcome = monitor.step(cell, is_last=(i == last))
        tokens = tuple(_rule_tokens(system, outcome.state_before)) + outcome.observations
        evaluations = outcome.evaluations
        eval_tokens = tuple(_eval_tokens(system, evaluations))
        for k in range(len(evaluations) + 1):
            states.append(CheckState(i, graph, evaluations[:k], tokens + eval_tokens[:k]))
        if monitor.finished:
            states.append(CheckState(i, (), (), (), terminal=monitor.verdict))
            break
        graph = monitor.instances()
        states.append(CheckState(i + 1, graph, (), tuple(_rule_tokens(system, outcome.state_after))))
    expected = monitor.verdict is Verdict.SUCCESS

    steps: list[CheckStep] = []
    violation_at = None
    for number, state in enumerate(states):
        judgement = map_state(system, state)
        value = eval_judgement(judgement, u)
        steps.append(CheckStep(number, state.index, state.render(), str(judgement), value))
        if value != expected and violation_at is None:
            violation_at = number
    return CheckReport(
        formula=system.index.text(system.root),
        trace=format_trace_inline(u),
        verdict=monitor.verdict,
        steps=steps,
        violation_at=violation_at,
        # always None, as every run is mapped in full; kept because the bench
        # harness (bench/workloads.py, bench/tracing.py) and criterion 8 read it
        skipped_from=None,
    )
