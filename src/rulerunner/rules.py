"""Compilation of an NNF formula into the paper's rule system.

`compile_formula` builds only what the engine steps from: the subformula
index, one `NodeInfo` per subformula (its dispatch code `code`, an index
into `KINDS`, a leaf's atom, its operand ids `kids`, and `spawn_ops`, the
operands an instance holds from its spawn cell on: all of them, but none
for a next or weak next) and `init_sets`, the rule names each subformula
activates when it is spawned, its own and those of its `spawn_ops` (the
root's set is the initial state; an operator starts in the first mode of
its `truth.TABLES` entry).  It
reads the index's post-order ids and each subformula's operand ids
(`SubformulaIndex.kids`) and formats and hashes no formula: each fid's
initial `RuleName` is made once, and an initial set, kept sorted by fid, is
its operands' sets merged by fid (`_merge`, which concatenates when the
operands' subtrees share no subformula) followed by its own name.

The evaluation and reactivation rules are a view built on the first read of
`RuleSystem.eval_rules` or `react_rules` and cached, by walking the same
`truth.TABLES` and `truth.END` the engine indexes: each entry of an
operator's table for a mode renders as one evaluation rule guarded by that
mode, a temporal operator's `END` value as one end-of-trace rule after its
initial mode's, and each mode as one reactivation rule binding its
undecided value to the rule names active in the next cell; the root adds
the two terminal rules.  Only `tests/test_rules.py` executes the listing.
For until, the mode-A and mode-B rules render the operator's table over the
current operand values, while the engine decides an until from the operand
outcomes it keeps for every cell that can still witness it
(`engine._decide_until`), which refines them.
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
from .truth import FALSE, TRUE, EvalMode, TruthValue

# Node kinds, leaves first, and their formula classes; a node's dispatch code is its kind's index here.
KINDS = ("atom", "negatom", "true", "or", "and", "next", "weaknext", "eventually", "always", "until")
K_ATOM, K_NEGATOM, K_TRUE, K_OR, K_AND, K_NEXT, K_WEAKNEXT, K_EVENTUALLY, K_ALWAYS, K_UNTIL = range(len(KINDS))
_CODE_OF = {
    cls: code
    for code, cls in enumerate((Atom, NegAtom, TrueConst, Or, And, Next, WeakNext, Eventually, Always, Until))
}


@dataclass(slots=True, unsafe_hash=True)
class RuleName:
    """A rule's name: subformula `fid` in `mode`.  A compile record, equal
    and hashed by value and read-only by convention.  It is not frozen: a
    frozen dataclass sets each field through `object.__setattr__`, which
    made building these records most of the cost of compiling."""

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


@dataclass(slots=True)
class NodeInfo:
    """One subformula as the engine steps it, each fact once: its operator
    is `KINDS[code]`.  A compile record, read-only by convention (see
    `RuleName`); the engine reads its fields by slot."""

    code: int  # dispatch code, an index into KINDS
    atom: str | None  # a leaf's atom name; None for `true` and every operator
    kids: tuple[int, ...]  # the operand ids, left first: `SubformulaIndex.kids`
    spawn_ops: tuple[int, ...]  # the operand ids an instance holds from its spawn cell on


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

    def __repr__(self) -> str:
        return f"RuleSystem({self.formula_text(self.root)!r})"

    @property
    def eval_rules(self) -> tuple[EvaluationRule, ...]:
        return self._listing[0]

    @property
    def react_rules(self) -> tuple[ReactivationRule, ...]:
        return self._listing[1]

    @cached_property
    def _listing(self) -> tuple[tuple[EvaluationRule, ...], tuple[ReactivationRule, ...]]:
        return _build_listing(self)


def _merge(a: tuple[RuleName, ...], b: tuple[RuleName, ...]) -> tuple[RuleName, ...]:
    """The union of two initial sets, each sorted by fid with one name per fid."""
    if a[-1].fid < b[0].fid:  # every fid of b is above a's, as when the operands share no subformula
        return a + b
    by_fid = {name.fid: name for name in a}
    by_fid.update((name.fid, name) for name in b)
    return tuple(by_fid[fid] for fid in sorted(by_fid))


# the mode a node starts in, by node code: an operator its table's first mode, a leaf plain
_FIRST_MODE = tuple(next(iter(truth.TABLES.get(kind, (EvalMode.PLAIN,)))) for kind in KINDS)


def compile_formula(f: Formula) -> RuleSystem:
    """Build the rule system for an NNF formula: its node table and the
    initial rule names of every subformula."""
    index = SubformulaIndex(f)
    nodes: list[NodeInfo] = []
    init_sets: list[tuple[RuleName, ...]] = []
    for fid, (g, kids) in enumerate(zip(index.formulas, index.kids)):
        code = _CODE_OF[g.__class__]
        # a next holds its operand only from the next cell
        spawn_ops = () if code == K_NEXT or code == K_WEAKNEXT else kids
        nodes.append(NodeInfo(code, g.name if code <= K_NEGATOM else None, kids, spawn_ops))
        own = (RuleName(fid, _FIRST_MODE[code]),)
        if len(spawn_ops) == 2:
            own = _merge(init_sets[kids[0]], init_sets[kids[1]]) + own  # operand fids are below fid
        elif spawn_ops:
            own = init_sets[kids[0]] + own
        init_sets.append(own)
    return RuleSystem(index, tuple(nodes), tuple(init_sets), index.root)


def _build_listing(sys: RuleSystem) -> tuple[tuple[EvaluationRule, ...], tuple[ReactivationRule, ...]]:
    """Evaluation rules in firing order and reactivation rules of a compiled
    system, derived from its nodes, initial sets and the truth tables."""
    eval_rules: list[EvaluationRule] = []
    react_rules: list[ReactivationRule] = []
    for fid, node in enumerate(sys.nodes):
        own = RuleName(fid)
        if node.code == K_TRUE:
            eval_rules.append(EvaluationRule(own, (), fid, TRUE))
        elif node.code <= K_NEGATOM:
            observed = TRUE if node.code == K_ATOM else FALSE
            missing = FALSE if node.code == K_ATOM else TRUE
            eval_rules.append(EvaluationRule(own, (ObsCond(node.atom, True),), fid, observed))
            eval_rules.append(EvaluationRule(own, (ObsCond(node.atom, False),), fid, missing))
        else:
            _walk_tables(sys, fid, node, eval_rules, react_rules)
    eval_rules.append(EvaluationRule(None, (ValueCond(sys.root, "T"),), terminal="SUCCESS"))
    eval_rules.append(EvaluationRule(None, (ValueCond(sys.root, "F"),), terminal="FAILURE"))
    return tuple(eval_rules), tuple(react_rules)


def _walk_tables(sys: RuleSystem, fid: int, node: NodeInfo, eval_rules: list, react_rules: list) -> None:
    """Append an operator's evaluation rules, one per `truth.TABLES` entry
    and its `truth.END` rule, and its reactivation rules, one per mode."""
    kind = KINDS[node.code]
    modes = truth.TABLES[kind]
    initial = next(iter(modes))
    end = truth.END.get(kind)
    next_op = node.code == K_NEXT or node.code == K_WEAKNEXT
    for mode, table in modes.items():
        guard = RuleName(fid, mode)
        for kinds, out in table.items():
            conds = tuple(map(ValueCond, truth.reads(mode, len(kinds), node.kids), kinds))
            if mode is EvalMode.A and kinds[1] == "T":  # the right operand holding decides an until outright,
                if kinds[0] != "T":  # so its three cells render as one rule
                    continue
                conds = conds[1:]
            eval_rules.append(EvaluationRule(guard, conds, fid, out))
        if mode is initial and end is not None:
            eval_rules.append(EvaluationRule(None, (ValueCond(fid, "?"), EndCond()), fid, end))
        # in modes L and R no later cell can witness an until, and in mode M a
        # next already holds its operand, so nothing is respawned
        nxt = (RuleName(fid, EvalMode.M if next_op else mode),)
        if node.code >= K_NEXT and mode not in (EvalMode.L, EvalMode.R, EvalMode.M):
            # a node's own name ends its initial set, and a next's set holds none of its operand's
            nxt = (sys.init_sets[node.kids[0]] if next_op else sys.init_sets[fid][:-1]) + nxt
        react_rules.append(ReactivationRule(fid, TruthValue("?", mode), nxt))


def rule_count_bound(f: Formula) -> int:
    """Upper bound on evaluation-rule count: 17 per distinct subformula (an
    until's 16 table rules and its end rule) plus the two terminal rules."""
    return 17 * len(SubformulaIndex(f)) + 2


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
