"""Per-cell monitoring cycle over a compiled rule system.

Each activation is an instance ``(formula id, epoch)`` where the epoch is
the cell at which that monitor instance was spawned.  Epochs disambiguate
re-spawned temporal subformulae that are still mid-flight (for example the
operand of an eventually that is itself a next); for formulae whose
temporal operators have purely propositional operands at most one epoch
per subformula is ever live and the flat rule-set behaviour is recovered
exactly.

A cell is processed in three phases, firing each active instance at most
once, in compiled (post-order) rule order: observations are added, truth
values are computed bottom-up, then undecided evaluations reactivate their
rule names for the next cell.  Operand values are read per instance;
eventually/always aggregate over all sub-instances they have spawned, and
until consults a per-instance ledger of operand outcomes per spawn cell.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from . import truth
from .rules import RuleName, RuleSystem
from .traces import Trace
from .truth import FALSE, TRUE, UND, EvalMode, TruthValue


class Verdict(enum.Enum):
    SUCCESS = "SUCCESS"
    FAILURE = "FAILURE"
    UNDECIDED = "UNDECIDED"

    def __str__(self) -> str:
        return self.value


class MonitorError(RuntimeError):
    pass


class UntilLedger:
    """Per-instance outcome ledger for an until: for every cell since the
    anchor, the tri-state results of the two operand instances spawned
    there (True / False / None while pending).  Resolved entries never
    change; a settled prefix (operand one true, operand two false) is
    skipped during scans but kept, so entries exist for every cell from
    the anchor to the current one."""

    __slots__ = ("anchor", "left", "right", "settled")

    def __init__(self, anchor: int):
        self.anchor = anchor
        self.left: list[bool | None] = []
        self.right: list[bool | None] = []
        self.settled = 0

    def extend_to(self, cell: int) -> None:
        while self.anchor + len(self.left) <= cell:
            self.left.append(None)
            self.right.append(None)


@dataclass(slots=True)
class _Instance:
    fid: int
    epoch: int
    mode: EvalMode
    value: TruthValue | None = None
    resolved: bool = False
    watch: list[int] | None = None  # eventually/always: pending operand epochs
    ledger: UntilLedger | None = None


@dataclass(frozen=True)
class StepOutcome:
    """Everything observable about one monitoring cell."""

    system: RuleSystem = field(repr=False)
    cell: int
    verdict: Verdict
    root_value: TruthValue | None
    state_before: tuple[tuple[int, int, EvalMode], ...]
    observations: tuple[str, ...]
    evaluations: tuple[tuple[int, int, TruthValue], ...]
    state_after: tuple[tuple[int, int, EvalMode], ...] | None

    def rows(self) -> str:
        return _render_block(self)

    def to_dict(self) -> dict:
        return {
            "cell": self.cell,
            "verdict": str(self.verdict),
            "observations": list(self.observations),
            "evaluations": [
                {"formula": self.system.formula_text(fid), "epoch": epoch, "value": str(value)}
                for fid, epoch, value in self.evaluations
            ],
            "active": None
            if self.state_after is None
            else [
                {"rule": RuleName(fid, mode).render(self.system.index), "epoch": epoch}
                for fid, epoch, mode in self.state_after
            ],
        }


@dataclass(frozen=True)
class RunResult:
    verdict: Verdict
    deciding_cell: int
    outcomes: list[StepOutcome]


class Monitor:
    """Stateful online monitor; one instance per trace under scrutiny."""

    def __init__(self, system: RuleSystem):
        self.system = system
        self.cell = 0
        self.verdict = Verdict.UNDECIDED
        self._live: list[dict[int, _Instance]] = [dict() for _ in system.nodes]  # fid -> epoch -> instance
        self._spawn(system.initial, 0)
        self._state = self.active()  # the next cell's state_before

    # -- state inspection ---------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.verdict is not Verdict.UNDECIDED

    def active(self) -> tuple[tuple[int, int, EvalMode], ...]:
        out = []
        for fid, insts in enumerate(self._live):
            for epoch, inst in insts.items():
                out.append((fid, epoch, inst.mode))
        return tuple(out)

    def live_count(self) -> int:
        return sum(len(insts) for insts in self._live)

    # -- lifecycle ----------------------------------------------------------

    def _spawn(self, names: tuple[RuleName, ...], epoch: int) -> None:
        nodes = self.system.nodes
        for name in names:
            live = self._live[name.fid]
            if epoch in live:
                continue
            kind = nodes[name.fid].kind
            inst = _Instance(name.fid, epoch, name.mode)
            if kind == "eventually" or kind == "always":
                inst.watch = [epoch]
            elif kind == "until":
                inst.ledger = UntilLedger(epoch)
            live[epoch] = inst

    def step(self, observations, is_last: bool = False) -> StepOutcome:
        """Process one trace cell.  `is_last` puts the end-of-trace marker
        in effect, forcing the temporal operators to their final values."""
        if self.finished:
            raise MonitorError("monitor already produced a verdict; the trace beyond it is ignored")
        obs = frozenset(observations)
        cell = self.cell
        state_before = self._state

        evaluations: list[tuple[int, int, TruthValue]] = []
        for fid, insts in enumerate(self._live):
            if not insts:
                continue
            for epoch, inst in insts.items():
                value = self._evaluate(inst, obs, cell, is_last)
                inst.value = value
                if value.kind != "?":
                    inst.resolved = True
                evaluations.append((fid, epoch, value))

        root_inst = self._live[self.system.root].get(0)
        root_value = root_inst.value if root_inst is not None else None
        if root_value is not None and root_value.kind == "T":
            self.verdict = Verdict.SUCCESS
        elif root_value is not None and root_value.kind == "F":
            self.verdict = Verdict.FAILURE

        state_after = None
        if not self.finished:
            self._reactivate(cell)
            self._prune()
            state_after = self._state = self.active()
        self.cell = cell + 1
        return StepOutcome(
            system=self.system,
            cell=cell,
            verdict=self.verdict,
            root_value=root_value,
            state_before=state_before,
            observations=tuple(sorted(obs)),
            evaluations=tuple(evaluations),
            state_after=state_after,
        )

    # -- evaluation ---------------------------------------------------------

    def _operand(self, fid: int, epoch: int) -> TruthValue:
        inst = self._live[fid].get(epoch)
        if inst is None or inst.value is None:
            raise MonitorError(f"operand instance ({fid}@{epoch}) has no value yet")
        return inst.value

    def _evaluate(self, inst: _Instance, obs: frozenset[str], cell: int, at_end: bool) -> TruthValue:
        node = self.system.nodes[inst.fid]
        kind = node.kind
        if kind == "atom":
            return TRUE if node.atom in obs else FALSE
        if kind == "negatom":
            return FALSE if node.atom in obs else TRUE
        if kind == "true":
            return TRUE
        if kind == "or" or kind == "and":
            mode = inst.mode
            left = self._operand(node.left, inst.epoch) if mode is not EvalMode.R else None
            right = self._operand(node.right, inst.epoch) if mode is not EvalMode.L else None
            return truth.eval_binary(kind, mode, left, right)
        if kind == "eventually" or kind == "always":
            return truth.eval_unary(kind, EvalMode.PLAIN, self._aggregate(node, inst), at_end)
        if kind == "next" or kind == "weaknext":
            if inst.mode is EvalMode.PLAIN:
                return truth.eval_unary(kind, EvalMode.PLAIN, UND, at_end)
            return truth.eval_unary(kind, EvalMode.M, self._operand(node.left, inst.epoch + 1), at_end)
        return self._evaluate_until(inst, node, cell, at_end)

    def _aggregate(self, node, inst: _Instance) -> TruthValue:
        """Combined operand view of an eventually/always across the
        instances it has spawned: one resolved witness decides, otherwise
        undecided while anything is pending."""
        want = node.kind == "eventually"  # witness polarity: T for eventually, F for always
        pending: list[int] = []
        hit = False
        subs = self._live[node.left]
        for epoch in inst.watch:
            sub = subs[epoch]
            if sub.resolved:
                if sub.value.is_true() == want:
                    hit = True
            else:
                pending.append(epoch)
        inst.watch[:] = pending
        if hit:
            return TRUE if want else FALSE
        if pending:
            return UND
        return FALSE if want else TRUE

    def _evaluate_until(self, inst: _Instance, node, cell: int, at_end: bool) -> TruthValue:
        ledger = inst.ledger
        ledger.extend_to(cell)
        left, right = ledger.left, ledger.right
        lefts, rights = self._live[node.left], self._live[node.right]
        for idx in range(ledger.settled, len(left)):
            j = ledger.anchor + idx
            if left[idx] is None:
                sub = lefts.get(j)
                if sub is not None and sub.resolved:
                    left[idx] = sub.value.is_true()
            if right[idx] is None:
                sub = rights.get(j)
                if sub is not None and sub.resolved:
                    right[idx] = sub.value.is_true()
        while ledger.settled < len(left) and left[ledger.settled] is True and right[ledger.settled] is False:
            ledger.settled += 1

        chain_broken = False
        chain_pending = False
        live = False
        blocked_witness = False
        for idx in range(ledger.settled, len(left)):
            l, r = left[idx], right[idx]
            if r is True and not chain_broken:
                if not chain_pending:
                    return TRUE  # confirmed witness with a fully true chain
                blocked_witness = True
                live = True
            elif r is None and not chain_broken:
                live = True
            if l is False:
                chain_broken = True
            elif l is None:
                chain_pending = True
        future_possible = not at_end and not chain_broken
        if not live and not future_possible:
            return FALSE
        if blocked_witness:
            return truth.UND_L
        if chain_broken:
            return truth.UND_R
        if right[-1] is False and left[-1] is None:
            return truth.UND_B
        return truth.UND_A

    # -- reactivation ---------------------------------------------------------

    def _reactivate(self, cell: int) -> None:
        nxt = cell + 1
        init_sets = self.system.init_sets
        nodes = self.system.nodes
        undecided = [
            inst
            for insts in self._live
            for inst in insts.values()
            if not inst.resolved
        ]
        for inst in undecided:
            node = nodes[inst.fid]
            kind = node.kind
            if kind == "or" or kind == "and":
                inst.mode = inst.value.mode
            elif kind == "until":
                inst.mode = inst.value.mode
                self._spawn(init_sets[node.left], nxt)
                self._spawn(init_sets[node.right], nxt)
                inst.ledger.extend_to(nxt)
            elif kind == "eventually" or kind == "always":
                self._spawn(init_sets[node.left], nxt)
                inst.watch.append(nxt)
            elif kind == "next" or kind == "weaknext":
                if inst.mode is EvalMode.PLAIN:
                    inst.mode = EvalMode.M
                    self._spawn(init_sets[node.left], nxt)

    def _prune(self) -> None:
        for insts in self._live:
            dead = [epoch for epoch, inst in insts.items() if inst.resolved]
            for epoch in dead:
                del insts[epoch]


def run_trace(system: RuleSystem, trace: Trace) -> RunResult:
    """Monitor a whole trace; trailing cells after an early verdict are not
    consumed.  The verdict is binary once the final cell is processed."""
    if len(trace) == 0:
        raise MonitorError("cannot monitor an empty trace")
    monitor = Monitor(system)
    outcomes = []
    last = len(trace) - 1
    for i, cell in enumerate(trace.cells):
        outcome = monitor.step(cell, is_last=(i == last))
        outcomes.append(outcome)
        if outcome.verdict is not Verdict.UNDECIDED:
            break
    return RunResult(monitor.verdict, outcomes[-1].cell, outcomes)


# ---------------------------------------------------------------------------
# rendering


def _tagged_fids(entries) -> set[int]:
    epochs_by_fid: dict[int, set[int]] = {}
    for fid, epoch, _ in entries:
        epochs_by_fid.setdefault(fid, set()).add(epoch)
    return {fid for fid, epochs in epochs_by_fid.items() if len(epochs) > 1}


def _rule_row(system: RuleSystem, entries) -> str:
    # a formula gets @epoch tags only in rows holding several of its instances
    tagged = _tagged_fids(entries)
    tokens = []
    for fid, epoch, mode in entries:
        tok = RuleName(fid, mode).render(system.index)
        tokens.append(f"{tok}@{epoch}" if fid in tagged else tok)
    return ", ".join(tokens)


def _eval_row(system: RuleSystem, entries) -> str:
    tagged = _tagged_fids(entries)
    tokens = []
    for fid, epoch, value in entries:
        tok = f"[{system.formula_text(fid)}]{value}"
        tokens.append(f"{tok}@{epoch}" if fid in tagged else tok)
    return ", ".join(tokens)


def _render_block(outcome: StepOutcome) -> str:
    system = outcome.system
    state = _rule_row(system, outcome.state_before)
    obs_row = state + ("".join(", " + a for a in outcome.observations))
    eval_row = _eval_row(system, outcome.evaluations)
    lines = [f"state : {state}", f"+ obs : {obs_row}"]
    if outcome.verdict is Verdict.UNDECIDED:
        lines.append(f"eval  : {eval_row}")
        lines.append(f"react : {_rule_row(system, outcome.state_after)}")
    else:
        lines.append(f"eval  : {eval_row}, {outcome.verdict}")
        stopped = "PROPERTY SATISFIED" if outcome.verdict is Verdict.SUCCESS else "PROPERTY FALSIFIED"
        lines.append(f"STOP  : {stopped}")
    return "\n".join(lines)


def explain(run: RunResult | list[StepOutcome]) -> str:
    """Render the evolution as one state/+obs/eval/react block per cell."""
    outcomes = run.outcomes if isinstance(run, RunResult) else run
    return "\n\n".join(outcome.rows() for outcome in outcomes)
