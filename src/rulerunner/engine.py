"""Per-cell monitoring cycle over a compiled rule system.

A `Monitor` steps from the system's own `nodes` and `init_sets`,
`truth.TABLES` and `truth.END`: it dispatches on each node's `NodeInfo.code`,
spawns a subformula by activating the rule names of its initial set, and
reads each value off its operator's table for the instance's mode (at the
last cell, an undecided one off `truth.END`).  It reads no other copy of the
formula and never the rule listing.

Each activation is an instance of one subformula that holds the operand
instances it reads, by reference, in one list: an and/or the operands its
mode reads, a next or weak next the operand instance it spawned for the
following cell, an eventually or always the operand instances it still
waits on, and an until the operand pair of every cell that can still
witness it, a decided operand replaced by a shared settled stand-in.
Operands carry smaller subformula ids than their parents, so the instance
graph is acyclic.  An instance's epoch, its key in the monitor's map for
its subformula, names the oldest spawn cell of the class of equivalent
instances it stands for; instances of one subformula are listed, fired
and rendered in epoch order, and tagged ``@epoch`` when several are live.

A cell is processed in three passes.  Firing gives each live instance its
value once, in compiled (post-order) order, from the observations up.  One
sweep from the root down then drops each instance that is decided or that
the root no longer reaches through undecided ones, so it is never stepped
again, and reactivates each kept one for the next cell by one rule, the
paper's ``[f]?X -> R[f]X``: the annotation of its undecided value is its
next mode.  An and/or then lets go of the operand that mode does not read,
and a temporal operator spawns fresh operand instances, except in mode L or
R (no later cell can witness an until) or when it already mirrors (mode M).
Last, instances of one subformula with identical futures -- same mode, same
operand list -- are folded into the oldest one, so `explain` and
`StepOutcome.to_dict()` show one row per class.  With operand instances
folded bottom-up, the live state is bounded by the formula alone, whatever
the trace length; for formulae whose temporal operators have purely
propositional operands at most one instance per subformula is ever live and
the flat rule-set behaviour is recovered exactly.

`Monitor.step` records each cell as a read-only `StepOutcome` (for
`explain`, `to_dict` and `mapcheck`): the state before and after it and the
fired instances' values, from which `evaluations` pairs each value with its
instance; `Monitor.advance` runs the same passes and records nothing.
`Monitor.clone` copies the live state between cells, and `Monitor.peek`
returns the verdict `advance` would, firing without pruning and settling
nothing, so the state stays as it was.  Since the live state is bounded
and folded, a formula's monitor has few distinct states: `CachedMonitor`
builds the finite automaton over them lazily, one transition per (state,
letter), and steps by table lookup after that.  A state is its
representative monitor, which the cache only peeks at and clones: a
transition that decides is read off it by a peek, and only one to an
undecided state clones it and advances the clone.  It keeps at most
`NODE_CAP` states; one found past the cap is handed out without being kept.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from . import truth
from .rules import K_ALWAYS, K_AND, K_ATOM, K_EVENTUALLY, K_NEGATOM, K_NEXT, K_OR, K_TRUE, K_UNTIL, K_WEAKNEXT, KINDS
from .rules import RuleName, RuleSystem
from .traces import Trace
from .truth import FALSE, TRUE, EvalMode, TruthValue


class Verdict(enum.Enum):
    SUCCESS = "SUCCESS"
    FAILURE = "FAILURE"
    UNDECIDED = "UNDECIDED"

    def __str__(self) -> str:
        return self.value


class MonitorError(RuntimeError):
    pass


_UNDECIDED = Verdict.UNDECIDED
# the verdict a root value's kind stands for
_VERDICT = {"T": Verdict.SUCCESS, "F": Verdict.FAILURE, "?": _UNDECIDED}
_PLAIN, _L, _R, _M = EvalMode.PLAIN, EvalMode.L, EvalMode.R, EvalMode.M
# each node code's tables, in `truth.TABLES` order (initial mode first)
_TABLES = [tuple(truth.TABLES.get(kind, {}).values()) for kind in KINDS]


class _Instance:
    """One live activation of a subformula; its epoch is its key in the
    monitor's `_live` map for the subformula.

    `ops` holds, by reference, the operand instances it reads: for an
    and/or, the operands its mode reads; for a next or weak next, nothing
    until it mirrors (mode M) and then its operand; for an eventually or
    always, the operand instances it still waits on; for an until, the
    (operand one, operand two) pair of every cell that can still witness
    it, flattened, oldest first, with `_T`/`_F` in place of an operand that
    is decided."""

    __slots__ = ("mode", "value", "ops")

    def __init__(self, mode: EvalMode, ops: list[_Instance] | tuple):
        self.mode = mode
        self.value: TruthValue | None = None
        self.ops = ops


def _settled(value: TruthValue) -> _Instance:
    inst = _Instance(_PLAIN, ())
    inst.value = value
    return inst


# Shared stand-ins for a decided until operand; never live themselves.
_T = _settled(TRUE)
_F = _settled(FALSE)


def _decide_until(inst: _Instance, prune: bool) -> TruthValue:
    """The until's value this cell, from its operands' values this cell.

    With `prune`, deletes the entries of `inst.ops` that can no longer
    change it: a settled cell (operand one true, operand two false), a
    repeat of an earlier entry (which can witness only where the earlier one
    already does), and every cell after the first whose operand one failed."""
    pairs = iter(inst.ops)
    kept: list[_Instance] = []
    seen: set[tuple[_Instance, _Instance]] = set()
    chain_pending = False
    live = False
    blocked_witness = False
    for left, right in zip(pairs, pairs):
        kind = left.value.kind
        if kind != "?":
            left = _T if kind == "T" else _F
        kind = right.value.kind
        if kind != "?":
            right = _T if kind == "T" else _F
        entry = (left, right)
        if (left is _T and right is _F) or entry in seen:
            continue
        seen.add(entry)
        kept += entry
        if right is _T:
            if not chain_pending:
                # confirmed witness with a fully true chain; the until is
                # pruned, and with it whatever only it reached
                return TRUE
            blocked_witness = True
            live = True
        elif right is not _F:
            live = True
        if left is _F:  # the chain broke, so no later cell can witness it
            if prune:
                inst.ops = kept
            return (truth.UND_L if blocked_witness else truth.UND_R) if live else FALSE
        if left is not _T:
            chain_pending = True
    if prune:
        inst.ops = kept
    if blocked_witness:
        return truth.UND_L
    if right is _F and left.value.kind == "?":  # the last entry read is the current cell's
        return truth.UND_B
    return truth.UND_A


class StepOutcome(NamedTuple):
    """Everything observable about one monitoring cell; read-only.

    `values` holds each live instance's value this cell in `state_before`
    order, as firing spawns and drops nothing; `evaluations` pairs them."""

    system: RuleSystem
    cell: int
    verdict: Verdict
    state_before: tuple[tuple[int, int, EvalMode], ...]
    observations: tuple[str, ...]
    values: tuple[TruthValue, ...]
    state_after: tuple[tuple[int, int, EvalMode], ...] | None
    # (fid, epoch) of the instances folded into an older equivalent one
    # on the way to state_after
    folded: tuple[tuple[int, int], ...] = ()

    @property
    def evaluations(self) -> tuple[tuple[int, int, TruthValue], ...]:
        return tuple([(fid, epoch, value) for (fid, epoch, _), value in zip(self.state_before, self.values)])

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
        self._root = self._spawn(system.root, 0)
        self._state: tuple | None = None  # the next cell's state_before, if `step` made this state

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
            insts = live[name.fid]
            if epoch not in insts:
                ops = []
                for x in nodes[name.fid].spawn_ops:  # a loop costs less than a comprehension here on 3.11
                    ops.append(live[x][epoch])
                insts[epoch] = _Instance(name.mode, ops)
        return live[fid][epoch]

    def clone(self) -> Monitor:
        """An independent copy of this monitor between cells: the live
        instance graph with its modes and sharing, the shared `_T`/`_F`
        stand-ins and the same `RuleSystem`.  Values are not copied, as the
        next cell computes each before it is read.  Stepping either one
        leaves the other as it was."""
        twin = object.__new__(Monitor)
        twin.system = self.system
        twin.cell = self.cell
        twin.verdict = self.verdict
        twin._nodes = self._nodes
        twin._init_sets = self._init_sets
        twin._state = self._state
        copies: dict[_Instance, _Instance] = {_T: _T, _F: _F}
        live = twin._live = []
        for insts in self._live:  # operands carry smaller ids, so they are copied first
            mine = {}
            for epoch, inst in insts.items():
                copies[inst] = mine[epoch] = _Instance(inst.mode, [copies[sub] for sub in inst.ops])
            live.append(mine)
        twin._root = copies[self._root]
        return twin

    def advance(self, observations, is_last: bool = False) -> Verdict:
        """Process one trace cell as `step` does, recording nothing; returns
        the verdict so far."""
        if self.verdict is not _UNDECIDED:
            raise MonitorError("monitor already produced a verdict; the trace beyond it is ignored")
        self._fire(frozenset(observations), is_last)
        self._settle()
        self._state = None
        return self.verdict

    def peek(self, observations, is_last: bool = False) -> Verdict:
        """The verdict `advance` would return on this cell, leaving the
        monitor's state as it was: modes, operands, cell, verdict.  It
        writes each instance's value, which the next cell recomputes before
        reading."""
        if self.verdict is not _UNDECIDED:
            raise MonitorError("monitor already produced a verdict; the trace beyond it is ignored")
        self._fire(frozenset(observations), is_last, False)
        return _VERDICT[self._root.value.kind]

    def step(self, observations, is_last: bool = False) -> StepOutcome:
        """Process one trace cell.  `is_last` puts the end-of-trace marker
        in effect, forcing the temporal operators to their final values."""
        if self.verdict is not _UNDECIDED:
            raise MonitorError("monitor already produced a verdict; the trace beyond it is ignored")
        obs = frozenset(observations)
        cell = self.cell
        state_before = self._state or self.active()
        self._fire(obs, is_last)
        values = tuple([inst.value for insts in self._live for inst in insts.values()])
        folded = self._settle()
        state_after = self._state = None if self.verdict is not _UNDECIDED else self.active()
        return StepOutcome(
            self.system, cell, self.verdict, state_before, tuple(sorted(obs)) if obs else (), values, state_after, folded
        )

    def _fire(self, obs: frozenset[str], is_last: bool, prune: bool = True) -> None:
        """Give every live instance its value this cell, operands first; an
        instance that is not a leaf or an until reads it from its mode's
        `truth.TABLES` table by `is` tests (an `EvalMode` hashes in Python).
        At the last cell an undecided value takes its operator's `truth.END`
        value; operands are decided there, so an and/or never is undecided.
        Without `prune`, an until, eventually or always keeps the operands
        it no longer needs, so values are all a fire writes; they are the
        same either way."""
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
                for inst in insts.values():
                    inst.value = value
                continue
            tables = _TABLES[code]
            for inst in insts.values():
                ops = inst.ops
                mode = inst.mode
                if code == K_OR or code == K_AND:  # modes B, L, R
                    if mode is _L:
                        value = tables[1][(ops[0].value.kind,)]
                    elif mode is _R:
                        value = tables[2][(ops[0].value.kind,)]
                    else:
                        value = tables[0][(ops[0].value.kind, ops[1].value.kind)]
                elif code == K_NEXT or code == K_WEAKNEXT:  # modes PLAIN, M
                    value = tables[0][()] if mode is _PLAIN else tables[1][(ops[0].value.kind,)]
                elif code == K_UNTIL:
                    value = _decide_until(inst, prune)
                else:
                    value = tables[0][(_aggregate(inst, code == K_EVENTUALLY, prune),)]
                if is_last and value.kind == "?":  # the paper's end-of-trace rule
                    value = truth.END[KINDS[code]]
                inst.value = value

    def _settle(self) -> tuple[tuple[int, int], ...]:
        """Take the verdict from the root's value and, while undecided, make
        the next cell's state; returns the (fid, epoch) of folded instances."""
        self.cell += 1
        self.verdict = _VERDICT[self._root.value.kind]
        if self.verdict is _UNDECIDED:
            self._reactivate(self.cell)
            return self._merge()
        return ()

    # -- between cells ---------------------------------------------------------

    def _reactivate(self, nxt: int) -> None:
        """Make the next cell's state from the undecided instances the root
        reaches through undecided ones, dropping the rest.  Each kept one
        takes its value's annotation as its next mode; then an and/or lets
        go of the operand that mode does not read, and a temporal operator
        spawns its operands at `nxt` again unless that mode is L or R or it
        already mirrors (M).  Operands carry smaller ids than their parents,
        so one sweep from the root's id down sees every parent first, and a
        subformula's map grows only while its parents are swept; the sweep
        passes over the instances it spawned, the only ones with epoch `nxt`."""
        spawn = self._spawn
        held = {self._root}
        for node, insts in zip(reversed(self._nodes), reversed(self._live)):
            if not insts:
                continue
            code = node.code
            dropped = []
            for epoch, inst in insts.items():
                if epoch == nxt:
                    continue
                value = inst.value
                if value.kind != "?" or inst not in held:  # leaves never outlive their cell
                    dropped.append(epoch)
                    continue
                mode = value.mode
                ops = inst.ops
                if code <= K_AND:  # an and/or
                    if mode is not inst.mode:
                        ops.pop(1 if mode is _L else 0)
                elif mode is not _L and mode is not _R and inst.mode is not _M:
                    for x in node.kids:
                        ops.append(spawn(x, nxt))
                inst.mode = mode
                held.update(ops)
            for epoch in dropped:
                del insts[epoch]

    def _merge(self) -> tuple[tuple[int, int], ...]:
        """Fold instances of one subformula with identical futures into the
        oldest, bottom-up, so that parents compare their operands' survivors;
        returns the (fid, epoch) of the folded instances.

        Identical futures means the same mode reading the same operand
        instances (for an eventually or always, the same set of them).
        Leaves never have two live instances, as each resolves in its spawn
        cell."""
        forward: dict[_Instance, _Instance] | None = None  # folded instance -> its survivor, once one folds
        live = self._live
        for fid, node in enumerate(self._nodes):
            insts = live[fid]
            if not insts:
                continue
            if forward and not folded.isdisjoint(node.kids):
                for inst in insts.values():
                    inst.ops = [forward.get(sub, sub) for sub in inst.ops]
            if len(insts) < 2:
                continue
            as_set = node.code == K_EVENTUALLY or node.code == K_ALWAYS
            survivors: dict = {}
            for epoch, inst in list(insts.items()):
                key = frozenset(inst.ops) if as_set else (inst.mode, tuple(inst.ops))
                survivor = survivors.setdefault(key, inst)
                if survivor is not inst:
                    if forward is None:
                        forward, folded, gone = {}, set(), []
                    forward[inst] = survivor
                    del insts[epoch]
                    folded.add(fid)
                    gone.append((fid, epoch))
        return () if forward is None else tuple(gone)


def _aggregate(inst: _Instance, want: bool, prune: bool) -> str:
    """Kind of the combined operand view of an eventually (`want` True) or
    always across the operand instances it waits on: one decided witness
    decides, otherwise undecided while anything is pending.  With `prune`,
    `inst.ops` keeps only the pending ones."""
    pending: list[_Instance] = []
    for sub in inst.ops:
        kind = sub.value.kind
        if kind == "?":
            if sub not in pending:  # two operands may have folded into one
                pending.append(sub)
        elif (kind == "T") is want:
            return "T" if want else "F"
    if prune:
        inst.ops = pending
    if pending:
        return "?"
    return "F" if want else "T"


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
# verdict cache


# Most states a CachedMonitor keeps; a state found past it is handed out
# without being kept.
NODE_CAP = 1024


def _state_key(monitor: Monitor) -> tuple:
    """Canonical form of a monitor's state between cells: its live instances
    fid by fid, in epoch order, each as (fid, mode, the positions of its
    operands in that numbering), `_T`/`_F` written as -1/-2.  Epochs only
    order and render, and values are recomputed before they are read, so
    monitors with equal keys give the same verdicts on every continuation."""
    number: dict[_Instance, int] = {_T: -1, _F: -2}
    key = []
    for fid, insts in enumerate(monitor._live):
        for inst in insts.values():
            key.append((fid, inst.mode, tuple([number[sub] for sub in inst.ops])))
            number[inst] = len(key) - 1
    return tuple(key)


class CachedMonitor:
    """Verdict-only monitor over a finite automaton built lazily from the
    rule monitor (Bauer, Leucker & Schallhart, TOSEM 2011).

    A state is its representative monitor, in a canonical state (see
    `_state_key`), which the cache only peeks at and clones and never
    advances; a caller must not step it either.  A letter is a cell
    intersected with the formula's atoms.  A transition not yet known is
    found by peeking at the state, and only when that leaves it undecided by
    cloning it and advancing the clone one cell, so every verdict comes from
    the rule monitor itself and a transition that decides costs no clone.
    Past `NODE_CAP` states, a new state is handed out without being kept,
    and transitions are recorded only from a kept state, to a kept state or
    a verdict, so memory stays bounded; a walk through unkept states goes
    back onto the kept ones as soon as it reaches one of them.  `next` and
    `end` never change the state they are given, so a caller may keep an
    earlier one.  A peek writes scratch values into the state, so a
    `CachedMonitor` serves one thread at a time.  No state refers to
    another, so a dropped cache is freed by reference counting.

    `atoms` is the formula's atom set, which every letter is a subset of.
    `table[letter][state]` is a kept state's known transition on the letter:
    the state after it, or the verdict reached there.  A row exists only for
    a letter with a recorded transition, and only `_miss` writes one, end
    transitions into a private table of the same shape.  `table.get(letter)`
    and then the row is the one documented fast-path read: a caller that
    holds letters may read it and call `next` on a miss, as `stream` does."""

    def __init__(self, system: RuleSystem):
        self.atoms = frozenset(node.atom for node in system.nodes if node.atom is not None)
        self.initial = Monitor(system)
        self.table: dict[frozenset[str], dict[Monitor, Monitor | Verdict]] = {}
        self._ends: dict[frozenset[str], dict[Monitor, Verdict]] = {}  # verdict of a trace ending on the letter
        self._states = {_state_key(self.initial): self.initial}  # the kept states by key
        self._kept = {self.initial}

    def __len__(self) -> int:
        """The number of states kept so far."""
        return len(self._kept)

    def next(self, state: Monitor, cell) -> Monitor | Verdict:
        """The state after `cell` when more cells follow, or the verdict
        reached there."""
        letter = self.atoms.intersection(cell)
        row = self.table.get(letter)
        return row and row.get(state) or self._miss(state, letter)

    def end(self, state: Monitor, cell) -> Verdict:
        """The verdict of a trace that ends with `cell` after `state`."""
        letter = self.atoms.intersection(cell)
        row = self._ends.get(letter)
        return row and row.get(state) or self._miss(state, letter, True)

    def run(self, cells) -> tuple[Verdict, int]:
        """Verdict and deciding cell of a whole trace, as `run_trace` gives them."""
        if len(cells) == 0:
            raise MonitorError("cannot monitor an empty trace")
        last = len(cells) - 1
        atoms = self.atoms
        table = self.table
        state = self.initial
        for i in range(last):  # `next`, inlined
            letter = atoms.intersection(cells[i])
            row = table.get(letter)
            state = row and row.get(state) or self._miss(state, letter)
            if state.__class__ is Verdict:
                return state, i
        letter = atoms.intersection(cells[last])  # `end`, inlined
        row = self._ends.get(letter)
        return row and row.get(state) or self._miss(state, letter, True), last

    def _miss(self, state: Monitor, letter: frozenset[str], is_last: bool = False) -> Monitor | Verdict:
        target = state.peek(letter, is_last)
        if target is _UNDECIDED:  # a peek at the last cell always decides
            monitor = state.clone()
            monitor.advance(letter)
            key = _state_key(monitor)
            target = self._states.get(key)
            if target is None:
                if len(self._kept) >= NODE_CAP:
                    return monitor
                target = self._states[key] = monitor
                self._kept.add(monitor)
        if state in self._kept:
            (self._ends if is_last else self.table).setdefault(letter, {})[state] = target
        return target


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
