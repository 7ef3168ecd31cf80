"""Per-cell monitoring cycle over a compiled rule system.

A `Monitor` steps from the system's own `nodes` and `init_sets` and the
`truth` tables: it dispatches on each node's `NodeInfo.code`, spawns a
subformula by activating the rule names of its initial set, and passes the
node's `kind` to `truth.eval_binary`/`eval_unary`.  It reads no other copy
of the formula and never the rule listing.

Each activation is an instance of one subformula that holds the operand
instances it reads, by reference, in one list: an and/or the operands its
mode reads, a next or weak next the operand instance it spawned for the
following cell, an eventually or always the operand instances it still
waits on, and an until the operand pair of every cell that can still
witness it, a resolved operand replaced by a shared settled stand-in.
An instance's epoch names the oldest spawn cell of the class of equivalent
instances it stands for; instances of one subformula are listed, fired
and rendered in epoch order, and tagged ``@epoch`` when several are live.

A cell is processed in four phases, firing each live instance once in
compiled (post-order) order.  Observations are added and truth values are
computed bottom-up.  Instances that resolved, and instances no live parent
holds any more, are dropped, parents first, so an instance nobody reads
is never stepped again.  Undecided instances reactivate for the next
cell, spawning fresh operand instances, except an until that no later
cell can witness (mode L or R).  Last, instances of one subformula whose
futures are identical -- same mode and the same operand list -- are
folded into the oldest one, so `explain` and `StepOutcome.to_dict()` show
one row per class.  With operand instances folded bottom-up, the live
state is bounded by the formula alone, whatever the trace length; for
formulae whose temporal operators have purely propositional operands at
most one instance per subformula is ever live and the flat rule-set
behaviour is recovered exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from . import truth
from .rules import K_ALWAYS, K_AND, K_ATOM, K_EVENTUALLY, K_NEGATOM, K_NEXT, K_OR, K_TRUE, K_UNTIL, K_WEAKNEXT
from .rules import NodeInfo, RuleName, RuleSystem
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


_PLAIN, _L, _R, _M = EvalMode.PLAIN, EvalMode.L, EvalMode.R, EvalMode.M


class _Instance:
    """One live activation of a subformula.

    `epoch` is the oldest spawn cell of the equivalent instances it stands
    for.  `ops` holds, by reference, the operand instances it reads: for an
    and/or, the operands its mode reads; for a next or weak next, nothing
    until it mirrors (mode M) and then its operand; for an eventually or
    always, the operand instances it still waits on; for an until, the
    (operand one, operand two) pair of every cell that can still witness
    it, flattened, oldest first, with `_T`/`_F` in place of an operand that
    resolved.  `refs` counts the references held on this instance by live
    parents, plus the monitor's on the root; `forward` names the survivor
    once this instance has been folded into an equivalent one."""

    __slots__ = ("epoch", "code", "mode", "value", "resolved", "refs", "ops", "forward")

    def __init__(self, epoch: int, code: int, mode: EvalMode):
        self.epoch = epoch
        self.code = code
        self.mode = mode
        self.value: TruthValue | None = None
        self.resolved = False
        self.refs = 0
        self.ops: list[_Instance] | tuple = ()
        self.forward: _Instance | None = None

    def key(self):
        """Equal keys among instances of one subformula mean identical
        futures: the same mode reading the same operand instances (for an
        eventually or always, the same set of them).  Leaves never have two
        live instances, as each resolves in its spawn cell."""
        if self.code == K_EVENTUALLY or self.code == K_ALWAYS:
            return frozenset(self.ops)
        return self.mode, tuple(self.ops)

    def release(self) -> None:
        """Drop the references this instance holds on its operands."""
        for sub in self.ops:
            sub.refs -= 1

    def follow(self) -> None:
        """Point references at folded operand instances to their survivors."""
        self.ops = [sub.forward or sub for sub in self.ops]


def _settled(value: TruthValue) -> _Instance:
    inst = _Instance(-1, K_TRUE, _PLAIN)
    inst.value = value
    inst.resolved = True
    return inst


# Shared stand-ins for an until operand that resolved; their `refs` is never read.
_T = _settled(TRUE)
_F = _settled(FALSE)


def _decide_until(inst: _Instance, at_end: bool) -> TruthValue:
    """The until's value this cell, from its operands' values this cell.

    Deletes the entries of `inst.ops` that can no longer change it: a
    settled cell (operand one true, operand two false), a repeat of an
    earlier entry (which can witness only where the earlier one already
    does), and every cell after the first whose operand one failed."""
    pairs = iter(inst.ops)
    kept: list[_Instance] = []
    entries: list[tuple[_Instance, _Instance]] = []
    dropped: list[_Instance] = []
    chain_broken = False
    chain_pending = False
    live = False
    blocked_witness = False
    for left, right in zip(pairs, pairs):
        if left.resolved:
            left = _T if left.value.kind == "T" else _F
        if right.resolved:
            right = _T if right.value.kind == "T" else _F
        entry = (left, right)
        if chain_broken or (left is _T and right is _F) or entry in entries:
            dropped += entry
            continue
        entries.append(entry)
        kept += entry
        if right is _T:
            if not chain_pending:
                # confirmed witness with a fully true chain; `ops` stays
                # whole, so pruning the until releases every reference
                return TRUE
            blocked_witness = True
            live = True
        elif right is not _F:
            live = True
        if left is _F:
            chain_broken = True
        elif left is not _T:
            chain_pending = True
    # in modes A and B the last entry read is the current cell's
    current_open = right is _F and not left.resolved
    inst.ops = kept
    for sub in dropped:
        sub.refs -= 1
    if not live and (at_end or chain_broken):
        return FALSE
    if blocked_witness:
        return truth.UND_L
    if chain_broken:
        return truth.UND_R
    if current_open:
        return truth.UND_B
    return truth.UND_A


@dataclass(frozen=True)
class StepOutcome:
    """Everything observable about one monitoring cell."""

    system: RuleSystem = field(repr=False)
    cell: int
    verdict: Verdict
    state_before: tuple[tuple[int, int, EvalMode], ...]
    observations: tuple[str, ...]
    evaluations: tuple[tuple[int, int, TruthValue], ...]
    state_after: tuple[tuple[int, int, EvalMode], ...] | None
    # (fid, epoch) of the instances folded into an older equivalent one
    # on the way to state_after
    folded: tuple[tuple[int, int], ...] = ()

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
        self._nodes = system.nodes
        self._init_sets = system.init_sets
        self._live: list[dict[int, _Instance]] = [{} for _ in system.nodes]  # fid -> epoch -> instance
        self._crowded = False  # some subformula may have two live instances
        self._root = self._spawn(system.root, 0)
        self._root.refs += 1
        self._state = self.active()  # the next cell's state_before

    # -- state inspection ---------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.verdict is not Verdict.UNDECIDED

    def active(self) -> tuple[tuple[int, int, EvalMode], ...]:
        return tuple(
            [(fid, epoch, inst.mode) for fid, insts in enumerate(self._live) for epoch, inst in insts.items()]
        )

    def live_count(self) -> int:
        return sum(len(insts) for insts in self._live)

    def instances(self) -> tuple[tuple[int, int, EvalMode, tuple], ...]:
        """Read-only view of the live instance graph between cells: one
        (fid, epoch, mode, ops) per live instance, in `active()` order, each
        operand named by its (fid, epoch), or by its `TruthValue` if it is
        a settled stand-in."""
        names = {inst: (fid, epoch) for fid, insts in enumerate(self._live) for epoch, inst in insts.items()}
        return tuple(
            (fid, epoch, inst.mode, tuple(sub.value if sub is _T or sub is _F else names[sub] for sub in inst.ops))
            for inst, (fid, epoch) in names.items()
        )

    # -- lifecycle ----------------------------------------------------------

    def _spawn(self, fid: int, epoch: int) -> _Instance:
        """Activate a subformula's initial set at `epoch`, reusing instances
        already spawned there, and return the subformula's instance."""
        live = self._live
        nodes = self._nodes
        for name in self._init_sets[fid]:
            sub_fid = name.fid
            insts = live[sub_fid]
            if epoch in insts:
                continue
            if insts:
                self._crowded = True
            sub = nodes[sub_fid]
            code = sub.code
            inst = insts[epoch] = _Instance(epoch, code, name.mode)
            if code >= K_OR and code != K_NEXT and code != K_WEAKNEXT:  # a next reads from the next cell on
                ops = inst.ops = [live[sub.left][epoch]]
                if sub.right is not None:
                    ops.append(live[sub.right][epoch])
                for op in ops:
                    op.refs += 1
        return live[fid][epoch]

    def step(self, observations, is_last: bool = False) -> StepOutcome:
        """Process one trace cell.  `is_last` puts the end-of-trace marker
        in effect, forcing the temporal operators to their final values."""
        if self.finished:
            raise MonitorError("monitor already produced a verdict; the trace beyond it is ignored")
        obs = frozenset(observations)
        cell = self.cell
        state_before = self._state

        evaluations: list[tuple[int, int, TruthValue]] = []
        append = evaluations.append
        evaluate = self._evaluate
        nodes = self._nodes
        for fid, insts in enumerate(self._live):
            if not insts:
                continue
            node = nodes[fid]
            code = node.code
            if code <= K_TRUE:  # a leaf: one instance, spawned for this cell
                if code == K_ATOM:
                    value = TRUE if node.atom in obs else FALSE
                elif code == K_NEGATOM:
                    value = FALSE if node.atom in obs else TRUE
                else:
                    value = TRUE
                for epoch, inst in insts.items():
                    inst.value = value
                    inst.resolved = True
                    append((fid, epoch, value))
                continue
            for epoch, inst in insts.items():
                value = evaluate(node, inst, is_last)
                inst.value = value
                if value.kind != "?":
                    inst.resolved = True
                append((fid, epoch, value))

        root_value = self._root.value
        if root_value.kind == "T":
            self.verdict = Verdict.SUCCESS
        elif root_value.kind == "F":
            self.verdict = Verdict.FAILURE

        state_after = None
        folded = ()
        if not self.finished:
            self._prune()
            self._reactivate(cell + 1)
            if self._crowded:
                folded = self._merge()
            state_after = self._state = self.active()
        self.cell = cell + 1
        return StepOutcome(
            system=self.system,
            cell=cell,
            verdict=self.verdict,
            state_before=state_before,
            observations=tuple(sorted(obs)),
            evaluations=tuple(evaluations),
            state_after=state_after,
            folded=folded,
        )

    # -- evaluation ---------------------------------------------------------

    @staticmethod
    def _evaluate(node: NodeInfo, inst: _Instance, at_end: bool) -> TruthValue:
        """Value of a non-leaf instance from its operands' values this cell."""
        code = node.code
        ops = inst.ops
        if code == K_OR or code == K_AND:
            mode = inst.mode
            if mode is _L:
                return truth.eval_binary(node.kind, mode, ops[0].value, None)
            if mode is _R:
                return truth.eval_binary(node.kind, mode, None, ops[0].value)
            return truth.eval_binary(node.kind, mode, ops[0].value, ops[1].value)
        if code == K_UNTIL:
            return _decide_until(inst, at_end)
        if code == K_NEXT or code == K_WEAKNEXT:
            if inst.mode is _PLAIN:
                return truth.eval_unary(node.kind, _PLAIN, UND, at_end)
            return truth.eval_unary(node.kind, _M, ops[0].value, at_end)
        return truth.eval_unary(node.kind, _PLAIN, _aggregate(inst, code == K_EVENTUALLY), at_end)

    # -- between cells ---------------------------------------------------------

    def _prune(self) -> None:
        """Drop resolved instances and those no live parent holds, parents
        first, so that operands orphaned on the way go in the same pass."""
        crowded = False
        for insts in reversed(self._live):
            if insts:
                dead = [epoch for epoch, inst in insts.items() if inst.resolved or not inst.refs]
                for epoch in dead:
                    insts.pop(epoch).release()
                if len(insts) > 1:
                    crowded = True
        self._crowded = crowded

    def _reactivate(self, nxt: int) -> None:
        # children carry smaller ids, so instances spawned here land in
        # maps already passed and are not reactivated themselves
        spawn = self._spawn
        nodes = self._nodes
        for node, insts in zip(nodes, self._live):
            if not insts:
                continue
            code = node.code
            if code == K_OR or code == K_AND:
                for inst in insts.values():
                    mode = inst.value.mode
                    if mode is not inst.mode:  # to L or R: stop reading the decided operand
                        inst.mode = mode
                        inst.ops.pop(1 if mode is _L else 0).refs -= 1
            elif code == K_UNTIL:
                left, right = node.left, node.right
                for inst in insts.values():
                    mode = inst.mode = inst.value.mode
                    if mode is not _L and mode is not _R:  # in L and R no later cell can witness it
                        sub_l = spawn(left, nxt)
                        sub_r = spawn(right, nxt)
                        sub_l.refs += 1
                        sub_r.refs += 1
                        inst.ops += (sub_l, sub_r)
            elif code == K_EVENTUALLY or code == K_ALWAYS:
                operand = node.left
                for inst in insts.values():
                    sub = spawn(operand, nxt)
                    sub.refs += 1
                    inst.ops.append(sub)
            elif code == K_NEXT or code == K_WEAKNEXT:  # leaves never outlive their cell
                operand = node.left
                for inst in insts.values():
                    if inst.mode is _PLAIN:
                        inst.mode = _M
                        sub = spawn(operand, nxt)
                        sub.refs += 1
                        inst.ops = [sub]

    def _merge(self) -> tuple[tuple[int, int], ...]:
        """Fold instances of one subformula with equal keys into the oldest,
        bottom-up, so that parents compare their operands' survivors;
        returns the (fid, epoch) of the folded instances."""
        folded: set[int] = set()
        gone: list[tuple[int, int]] = []
        for fid, (node, insts) in enumerate(zip(self._nodes, self._live)):
            if not insts:
                continue
            if folded and (node.left in folded or node.right in folded):
                for inst in insts.values():
                    inst.follow()
            if len(insts) < 2:
                continue
            survivors: dict = {}
            for epoch, inst in list(insts.items()):
                survivor = survivors.setdefault(inst.key(), inst)
                if survivor is not inst:
                    survivor.refs += inst.refs
                    inst.forward = survivor
                    inst.release()
                    del insts[epoch]
                    folded.add(fid)
                    gone.append((fid, epoch))
        return tuple(gone)


def _aggregate(inst: _Instance, want: bool) -> TruthValue:
    """Combined operand view of an eventually (`want` True) or always across
    the operand instances it waits on: one resolved witness decides,
    otherwise undecided while anything is pending."""
    pending: list[_Instance] = []
    for sub in inst.ops:
        if not sub.resolved:
            if sub in pending:  # two operands folded into one
                sub.refs -= 1
            else:
                pending.append(sub)
        elif (sub.value.kind == "T") is want:
            return TRUE if want else FALSE
    inst.ops = pending
    if pending:
        return UND
    return FALSE if want else TRUE


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


def _tokens(entries, render) -> list[str]:
    # a formula gets @epoch tags only in rows holding several of its instances
    tagged = _tagged_fids(entries)
    return [f"{render(fid, x)}@{epoch}" if fid in tagged else render(fid, x) for fid, epoch, x in entries]


def _rule_tokens(system: RuleSystem, entries) -> list[str]:
    return _tokens(entries, lambda fid, mode: RuleName(fid, mode).render(system.index))


def _eval_tokens(system: RuleSystem, entries) -> list[str]:
    return _tokens(entries, lambda fid, value: f"[{system.formula_text(fid)}]{value}")


def _render_block(outcome: StepOutcome) -> str:
    system = outcome.system
    state = ", ".join(_rule_tokens(system, outcome.state_before))
    obs_row = state + ("".join(", " + a for a in outcome.observations))
    eval_row = ", ".join(_eval_tokens(system, outcome.evaluations))
    lines = [f"state : {state}", f"+ obs : {obs_row}"]
    if outcome.verdict is Verdict.UNDECIDED:
        lines.append(f"eval  : {eval_row}")
        lines.append(f"react : {', '.join(_rule_tokens(system, outcome.state_after))}")
    else:
        lines.append(f"eval  : {eval_row}, {outcome.verdict}")
        stopped = "PROPERTY SATISFIED" if outcome.verdict is Verdict.SUCCESS else "PROPERTY FALSIFIED"
        lines.append(f"STOP  : {stopped}")
    return "\n".join(lines)


def explain(run: RunResult | list[StepOutcome]) -> str:
    """Render the evolution as one state/+obs/eval/react block per cell."""
    outcomes = run.outcomes if isinstance(run, RunResult) else run
    return "\n\n".join(outcome.rows() for outcome in outcomes)
