"""Translate monitor states into finite-trace judgements and check that the
judgement value is invariant along a run and equal to the final verdict.

The translation covers the core grammar only (no eventually/always, which
are derived operators).  Runs in which several epochs of one subformula are
live at once fall outside the flat-state reading, and so do runs in which
the monitor folded equivalent instances of one subformula into one (the
survivor then stands for obligations spawned at several cells); both are
reported as skipped from the first such step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import RunResult, StepOutcome, Verdict, run_trace
from .ltl import (
    Always,
    And,
    Eventually,
    Formula,
    Next,
    NnfError,
    Not,
    Or,
    Until,
    WeakNext,
    format_formula,
    is_nnf,
)
from .oracle import BOTTOM, TOP, JAnd, JLeaf, JOr, Judgement, eval_judgement
from .rules import RuleName, RuleSystem, compile_formula
from .traces import Trace, format_trace_inline
from .truth import EvalMode, TruthValue


class UnsupportedFormulaError(ValueError):
    """Raised when a formula contains the derived operators F/G."""


def _reject_derived(f: Formula) -> None:
    if isinstance(f, (Eventually, Always)):
        raise UnsupportedFormulaError("state mapping does not cover the derived operators F and G")
    if isinstance(f, (Or, And, Until)):
        _reject_derived(f.left)
        _reject_derived(f.right)
    elif isinstance(f, (Next, WeakNext, Not)):
        _reject_derived(f.sub)


@dataclass(frozen=True)
class CheckState:
    """One intermediate monitor state, flattened to one instance per formula."""

    index: int
    active: dict[int, EvalMode]
    values: dict[int, TruthValue]
    tokens: tuple[str, ...]
    terminal: Verdict | None = None

    def render(self) -> str:
        if self.terminal is not None:
            return str(self.terminal)
        return ", ".join(self.tokens)


def map_state(system: RuleSystem, state: CheckState) -> Judgement:
    """The judgement a monitor state stands for, read off bottom-up from the
    recorded truth values and activation modes."""
    if state.terminal is not None:
        return TOP if state.terminal is Verdict.SUCCESS else BOTTOM

    def mapf(fid: int) -> Judgement:
        node = system.nodes[fid]
        value = state.values.get(fid)
        if value is not None and value.kind == "T":
            return TOP
        if value is not None and value.kind == "F":
            return BOTTOM
        kind = node.kind
        formula = system.index.formulas[fid]
        if kind in ("true", "atom", "negatom"):
            return JLeaf(formula, state.index)
        if kind in ("next", "weaknext"):
            # mirroring is a property of the activation, not of the ?M value
            if state.active.get(fid) is EvalMode.M:
                return mapf(node.left)
            return JLeaf(formula, state.index)
        if kind in ("eventually", "always"):
            raise UnsupportedFormulaError("state mapping does not cover the derived operators F and G")
        aux = value.mode if value is not None else state.active.get(fid, EvalMode.B if kind != "until" else EvalMode.A)
        if aux is EvalMode.L:
            return mapf(node.left)
        if aux is EvalMode.R:
            return mapf(node.right)
        if kind == "or":
            return JOr(mapf(node.left), mapf(node.right))
        if kind == "and":
            return JAnd(mapf(node.left), mapf(node.right))
        unfold_next = JLeaf(Next(formula), state.index)
        if aux is EvalMode.B:
            return JAnd(mapf(node.left), unfold_next)
        return JOr(mapf(node.right), JAnd(mapf(node.left), unfold_next))

    return mapf(system.root)


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
        if self.skipped_from is not None:
            lines.append(f"  mapping skipped from step {self.skipped_from}: concurrent instances of one subformula")
        lines.append("  PASS" if self.passed else f"  VIOLATION at step {self.violation_at}")
        return "\n".join(lines)


def _micro_states(system: RuleSystem, outcomes: list[StepOutcome]) -> tuple[list[CheckState], int | None]:
    """Expand run outcomes to the per-addition state granularity: base state,
    after observations, after each evaluation, then reactivation result or
    the terminal state.  Returns (states, skipped_from)."""
    states: list[CheckState] = []
    skipped_from = None

    def rule_tokens(entries) -> list[str]:
        return [RuleName(fid, mode).render(system.index) for fid, _, mode in entries]

    def push(index, active, values, tokens, terminal=None) -> bool:
        states.append(CheckState(index, dict(active), dict(values), tuple(tokens), terminal))
        return True

    def single_epoch(entries) -> bool:
        fids = [fid for fid, _, _ in entries]
        return len(fids) == len(set(fids))

    first = outcomes[0]
    if not single_epoch(first.state_before):
        return states, 0
    base_active = {fid: mode for fid, _, mode in first.state_before}
    push(0, base_active, {}, rule_tokens(first.state_before))

    for outcome in outcomes:
        if not single_epoch(outcome.state_before) or not single_epoch(outcome.evaluations):
            skipped_from = len(states)
            break
        cell = outcome.cell
        active = {fid: mode for fid, _, mode in outcome.state_before}
        tokens = rule_tokens(outcome.state_before) + list(outcome.observations)
        values: dict[int, TruthValue] = {}
        push(cell, active, values, tokens)
        for fid, _, value in outcome.evaluations:
            values[fid] = value
            tokens = tokens + [f"[{system.formula_text(fid)}]{value}"]
            push(cell, active, values, tokens)
        if outcome.verdict is not Verdict.UNDECIDED:
            push(cell, {}, {}, (), terminal=outcome.verdict)
        else:
            if outcome.folded or not single_epoch(outcome.state_after):
                skipped_from = len(states)
                break
            push(cell + 1, {fid: mode for fid, _, mode in outcome.state_after}, {}, rule_tokens(outcome.state_after))
    return states, skipped_from


def check_run(f: Formula, u: Trace) -> CheckReport:
    """Run the monitor over the trace, map every intermediate state to a
    judgement, and require a constant judgement value equal to the verdict."""
    if not is_nnf(f):
        raise NnfError("check_run requires an NNF formula")
    _reject_derived(f)
    system = compile_formula(f)
    result: RunResult = run_trace(system, u)
    states, skipped_from = _micro_states(system, result.outcomes)
    expected = result.verdict is Verdict.SUCCESS

    steps: list[CheckStep] = []
    violation_at = None
    for number, state in enumerate(states):
        judgement = map_state(system, state)
        value = eval_judgement(judgement, u)
        steps.append(CheckStep(number, state.index, state.render(), str(judgement), value))
        if value != expected and violation_at is None:
            violation_at = number
    return CheckReport(
        formula=format_formula(f),
        trace=format_trace_inline(u),
        verdict=result.verdict,
        steps=steps,
        violation_at=violation_at,
        skipped_from=skipped_from,
    )
