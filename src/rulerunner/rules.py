"""Compilation of an NNF formula into the paper's rule system.

`compile_formula` builds only what the engine steps from: the subformula
index, one `NodeInfo` per subformula (operator kind, its dispatch code
`code`, atom and operand ids) and `init_sets`, the rule names each
subformula activates when it is spawned (the root's set is the initial
state).  The engine steps a monitor from those nodes and initial sets,
dispatching on `NodeInfo.code` and evaluating through the `truth` tables.

The evaluation and reactivation rules are a view derived from the same
facts, built on the first read of `RuleSystem.eval_rules` or `react_rules`
and cached.  Every subformula contributes the rules of its main operator's
evaluation table (plus end-of-trace rules for the temporal operators) and a
reactivation rule binding each undecided value to the rule names active in
the next cell; the root additionally gains the two terminal rules.  The
listing renders what the engine computes and is not executed.  For until in
particular, the mode-A and mode-B rules (`truth.UNTIL_A`, `truth.UNTIL_B`)
render the operator's table over the current operand values, while the
engine decides an until from the operand outcomes it keeps for every cell
that can still witness it (`engine._decide_until`), which refines them.
In modes L (a witness waits on a pending chain) and R (the chain broke) no
later cell can witness an until, so its reactivation there spawns no
operand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from . import truth
from .ltl import (
    Always,
    And,
    Atom,
    Eventually,
    Formula,
    NegAtom,
    Next,
    Or,
    SubformulaIndex,
    TrueConst,
    Until,
    WeakNext,
)
from .truth import FALSE, TRUE, UND, UND_A, UND_B, UND_L, UND_M, UND_R, EvalMode, TruthValue

_CLASSES = ("T", "?", "F")
_REP = {"T": TRUE, "?": UND, "F": FALSE}

# Node kinds, leaves first; a node's dispatch code is its kind's index here.
KINDS = ("atom", "negatom", "true", "or", "and", "next", "weaknext", "eventually", "always", "until")
K_ATOM, K_NEGATOM, K_TRUE, K_OR, K_AND, K_NEXT, K_WEAKNEXT, K_EVENTUALLY, K_ALWAYS, K_UNTIL = range(len(KINDS))
_CODE_OF = {
    TrueConst: K_TRUE,
    Atom: K_ATOM,
    NegAtom: K_NEGATOM,
    Or: K_OR,
    And: K_AND,
    Until: K_UNTIL,
    Next: K_NEXT,
    WeakNext: K_WEAKNEXT,
    Eventually: K_EVENTUALLY,
    Always: K_ALWAYS,
}


@dataclass(frozen=True, slots=True)
class RuleName:
    fid: int
    mode: EvalMode = EvalMode.PLAIN

    def render(self, index: SubformulaIndex) -> str:
        return f"R[{index.text(self.fid)}]{self.mode.value}"


@dataclass(frozen=True)
class ValueCond:
    """Antecedent literal [f]T / [f]F / [f]?; a ``?`` condition matches an
    undecided value regardless of its annotation."""

    fid: int
    klass: str


@dataclass(frozen=True)
class ObsCond:
    atom: str
    present: bool


@dataclass(frozen=True)
class EndCond:
    pass


Condition = ValueCond | ObsCond | EndCond


@dataclass(frozen=True)
class EvaluationRule:
    guard: RuleName | None
    conditions: tuple[Condition, ...]
    output_fid: int | None = None
    output_value: TruthValue | None = None
    terminal: str | None = None  # "SUCCESS" | "FAILURE"

    def render(self, index: SubformulaIndex) -> str:
        parts = []
        if self.guard is not None:
            parts.append(self.guard.render(index))
        for cond in self.conditions:
            if isinstance(cond, ValueCond):
                parts.append(f"[{index.text(cond.fid)}]{cond.klass}")
            elif isinstance(cond, ObsCond):
                parts.append(f"{cond.atom} observed" if cond.present else f"{cond.atom} not observed")
            else:
                parts.append("[END]")
        rhs = self.terminal if self.terminal else f"[{index.text(self.output_fid)}]{self.output_value}"
        return ", ".join(parts) + " -> " + rhs


@dataclass(frozen=True)
class ReactivationRule:
    trigger_fid: int
    trigger_value: TruthValue
    consequents: tuple[RuleName, ...]

    def render(self, index: SubformulaIndex) -> str:
        lhs = f"[{index.text(self.trigger_fid)}]{self.trigger_value}"
        return lhs + " -> " + ", ".join(r.render(index) for r in self.consequents)


@dataclass(frozen=True, slots=True)
class NodeInfo:
    kind: str
    code: int  # dispatch code, the index of `kind` in KINDS
    atom: str | None = None
    left: int | None = None
    right: int | None = None


@dataclass(frozen=True)
class RuleSystem:
    """The fields are what the engine steps from; `eval_rules` and
    `react_rules` are the rule listing, built on first read and cached."""

    index: SubformulaIndex
    nodes: tuple[NodeInfo, ...]
    init_sets: tuple[tuple[RuleName, ...], ...]  # Algorithm-level S per subformula
    root: int

    @property
    def initial(self) -> tuple[RuleName, ...]:
        return self.init_sets[self.root]

    def formula_text(self, fid: int) -> str:
        return self.index.text(fid)

    @property
    def eval_rules(self) -> tuple[EvaluationRule, ...]:
        return self._listing[0]

    @property
    def react_rules(self) -> tuple[ReactivationRule, ...]:
        return self._listing[1]

    @cached_property
    def _listing(self) -> tuple[tuple[EvaluationRule, ...], tuple[ReactivationRule, ...]]:
        return _build_listing(self)


def _merge(*name_groups: tuple[RuleName, ...]) -> tuple[RuleName, ...]:
    seen: dict[RuleName, None] = {}
    for group in name_groups:
        for name in group:
            seen.setdefault(name)
    return tuple(sorted(seen, key=lambda r: (r.fid, r.mode.value)))


def _node_info(f: Formula, index: SubformulaIndex) -> NodeInfo:
    code = _CODE_OF[type(f)]
    kind = KINDS[code]
    if isinstance(f, (Atom, NegAtom)):
        return NodeInfo(kind, code, atom=f.name)
    if isinstance(f, (Or, And, Until)):
        return NodeInfo(kind, code, left=index.id_of(f.left), right=index.id_of(f.right))
    if isinstance(f, (Next, WeakNext, Eventually, Always)):
        return NodeInfo(kind, code, left=index.id_of(f.sub))
    return NodeInfo(kind, code)


def _binary_rules(op: str, fid: int, left: int, right: int) -> list[EvaluationRule]:
    rules = []
    if op == "until":
        guard_a = RuleName(fid, EvalMode.A)
        rules.append(EvaluationRule(guard_a, (ValueCond(right, "T"),), fid, TRUE))
        for lk, rk in (("T", "?"), ("T", "F"), ("?", "?"), ("?", "F"), ("F", "?"), ("F", "F")):
            out = truth.eval_binary(op, EvalMode.A, _REP[lk], _REP[rk])
            rules.append(EvaluationRule(guard_a, (ValueCond(left, lk), ValueCond(right, rk)), fid, out))
        guard_b = RuleName(fid, EvalMode.B)
        for lk in _CLASSES:
            out = truth.eval_binary(op, EvalMode.B, _REP[lk], None)
            rules.append(EvaluationRule(guard_b, (ValueCond(left, lk),), fid, out))
    else:
        guard_b = RuleName(fid, EvalMode.B)
        for lk in _CLASSES:
            for rk in _CLASSES:
                out = truth.eval_binary(op, EvalMode.B, _REP[lk], _REP[rk])
                rules.append(EvaluationRule(guard_b, (ValueCond(left, lk), ValueCond(right, rk)), fid, out))
    for mode, operand in ((EvalMode.L, left), (EvalMode.R, right)):
        guard = RuleName(fid, mode)
        for k in _CLASSES:
            args = (_REP[k], None) if mode is EvalMode.L else (None, _REP[k])
            out = truth.eval_binary(op, mode, *args)
            rules.append(EvaluationRule(guard, (ValueCond(operand, k),), fid, out))
    return rules


def _unary_rules(op: str, fid: int, sub: int) -> list[EvaluationRule]:
    rules = []
    guard = RuleName(fid)
    if op in ("eventually", "always"):
        for k in _CLASSES:
            out = truth.eval_unary(op, EvalMode.PLAIN, _REP[k], at_end=False)
            rules.append(EvaluationRule(guard, (ValueCond(sub, k),), fid, out))
        forced = truth.eval_unary(op, EvalMode.PLAIN, UND, at_end=True)
        rules.append(EvaluationRule(None, (ValueCond(fid, "?"), EndCond()), fid, forced))
    else:
        rules.append(EvaluationRule(guard, (), fid, truth.eval_unary(op, EvalMode.PLAIN, UND, at_end=False)))
        forced = truth.eval_unary(op, EvalMode.PLAIN, UND, at_end=True)
        rules.append(EvaluationRule(None, (ValueCond(fid, "?"), EndCond()), fid, forced))
        guard_m = RuleName(fid, EvalMode.M)
        for k in _CLASSES:
            out = truth.eval_unary(op, EvalMode.M, _REP[k], at_end=False)
            rules.append(EvaluationRule(guard_m, (ValueCond(sub, k),), fid, out))
    return rules


def compile_formula(f: Formula) -> RuleSystem:
    """Build the rule system for an NNF formula: its node table and the
    initial rule names of every subformula."""
    index = SubformulaIndex(f)
    nodes = tuple(_node_info(g, index) for g in index.formulas)
    init_sets: list[tuple[RuleName, ...]] = []
    for fid, node in enumerate(nodes):
        if node.kind in ("or", "and"):
            init_sets.append(_merge(init_sets[node.left], init_sets[node.right], (RuleName(fid, EvalMode.B),)))
        elif node.kind == "until":
            init_sets.append(_merge(init_sets[node.left], init_sets[node.right], (RuleName(fid, EvalMode.A),)))
        elif node.kind in ("eventually", "always"):
            init_sets.append(_merge(init_sets[node.left], (RuleName(fid),)))
        else:  # true, atoms, and next/weaknext, whose operand starts in the next cell
            init_sets.append((RuleName(fid),))
    return RuleSystem(index, nodes, tuple(init_sets), index.root)


def _build_listing(sys: RuleSystem) -> tuple[tuple[EvaluationRule, ...], tuple[ReactivationRule, ...]]:
    """Evaluation rules in firing order and reactivation rules of a compiled
    system, derived from its nodes, initial sets and the truth tables."""
    init_sets = sys.init_sets
    eval_rules: list[EvaluationRule] = []
    react_rules: list[ReactivationRule] = []
    for fid, node in enumerate(sys.nodes):
        own = RuleName(fid)
        if node.kind == "true":
            eval_rules.append(EvaluationRule(own, (), fid, TRUE))
        elif node.kind in ("atom", "negatom"):
            observed = TRUE if node.kind == "atom" else FALSE
            missing = FALSE if node.kind == "atom" else TRUE
            eval_rules.append(EvaluationRule(own, (ObsCond(node.atom, True),), fid, observed))
            eval_rules.append(EvaluationRule(own, (ObsCond(node.atom, False),), fid, missing))
        elif node.kind in ("or", "and"):
            eval_rules.extend(_binary_rules(node.kind, fid, node.left, node.right))
            for und in (UND_B, UND_L, UND_R):
                react_rules.append(ReactivationRule(fid, und, (RuleName(fid, und.mode),)))
        elif node.kind == "until":
            eval_rules.extend(_binary_rules(node.kind, fid, node.left, node.right))
            respawn = _merge(init_sets[node.left], init_sets[node.right])
            for und in (UND_A, UND_B):
                react_rules.append(ReactivationRule(fid, und, _merge(respawn, (RuleName(fid, und.mode),))))
            # in modes L and R no later cell can witness the until, so nothing is respawned
            for und in (UND_L, UND_R):
                react_rules.append(ReactivationRule(fid, und, (RuleName(fid, und.mode),)))
        elif node.kind in ("eventually", "always"):
            eval_rules.extend(_unary_rules(node.kind, fid, node.left))
            react_rules.append(ReactivationRule(fid, UND, init_sets[fid]))
        else:  # next / weaknext
            eval_rules.extend(_unary_rules(node.kind, fid, node.left))
            cont = (RuleName(fid, EvalMode.M),)
            react_rules.append(ReactivationRule(fid, UND, _merge(init_sets[node.left], cont)))
            react_rules.append(ReactivationRule(fid, UND_M, cont))
    eval_rules.append(EvaluationRule(None, (ValueCond(sys.root, "T"),), terminal="SUCCESS"))
    eval_rules.append(EvaluationRule(None, (ValueCond(sys.root, "F"),), terminal="FAILURE"))
    return tuple(eval_rules), tuple(react_rules)


def rule_count_bound(f: Formula) -> int:
    """Upper bound on evaluation-rule count: 16 per distinct subformula
    (the until worst case) plus the two terminal rules."""
    return 16 * len(SubformulaIndex(f)) + 2


def dump_rules(sys: RuleSystem) -> str:
    """Deterministic text listing: evaluation rules in firing order, then
    reactivation rules, then the initial state."""
    lines = ["EVALUATION RULES"]
    lines.extend("  " + r.render(sys.index) for r in sys.eval_rules)
    lines.append("REACTIVATION RULES")
    lines.extend("  " + r.render(sys.index) for r in sys.react_rules)
    lines.append("INITIAL STATE")
    lines.append("  " + ", ".join(r.render(sys.index) for r in sys.initial))
    return "\n".join(lines)


def dump_rules_json(sys: RuleSystem) -> str:
    """Machine-readable listing with stable field order."""

    def cond_dict(cond: Condition) -> dict:
        if isinstance(cond, ValueCond):
            return {"type": "value", "formula": sys.formula_text(cond.fid), "value": cond.klass}
        if isinstance(cond, ObsCond):
            return {"type": "observation", "atom": cond.atom, "present": cond.present}
        return {"type": "end"}

    rules = []
    for rule in sys.eval_rules:
        record = {
            "guard": rule.guard.render(sys.index) if rule.guard else None,
            "conditions": [cond_dict(c) for c in rule.conditions],
        }
        if rule.terminal:
            record["output"] = {"terminal": rule.terminal}
        else:
            record["output"] = {"formula": sys.formula_text(rule.output_fid), "value": str(rule.output_value)}
        rules.append(record)
    reacts = [
        {
            "trigger": {"formula": sys.formula_text(r.trigger_fid), "value": str(r.trigger_value)},
            "activates": [name.render(sys.index) for name in r.consequents],
        }
        for r in sys.react_rules
    ]
    doc = {
        "formula": sys.formula_text(sys.root),
        "rules": rules,
        "reactivations": reacts,
        "initial": [name.render(sys.index) for name in sys.initial],
    }
    return json.dumps(doc, indent=2)
