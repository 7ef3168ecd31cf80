"""Annotated three-valued truth domain and the operator evaluation tables.

Truth values are T, F, or undecided with an annotation recording which
operand(s) can still decide the formula: ?L / ?R / ?B (left, right, both),
?A (until, all routes open), ?M (next/weak-next mirroring its operand).

`TABLES` is the one statement of every operator: one table per legal
activation mode, the initial mode first, entries in rule-listing order.
`END` is the one statement of the end of the trace: the value each temporal
operator takes when it is still undecided at the last cell.  The engine
indexes both and the rule listing walks both; the mode and operator names
are derived from `TABLES`, and `eval_binary`/`eval_unary` look entries up.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class EvalMode(enum.Enum):
    """Activation variant carried by a rule name (R[f]B, R[f]L, ...)."""

    PLAIN = ""
    L = "L"
    R = "R"
    B = "B"
    A = "A"
    M = "M"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class TruthValue:
    kind: str  # "T", "F" or "?"
    mode: EvalMode = EvalMode.PLAIN

    def is_true(self) -> bool:
        return self.kind == "T"

    def is_false(self) -> bool:
        return self.kind == "F"

    def __str__(self) -> str:
        if self.kind == "?":
            return "?" + self.mode.value
        return self.kind


TRUE = TruthValue("T")
FALSE = TruthValue("F")
UND = TruthValue("?")
UND_L = TruthValue("?", EvalMode.L)
UND_R = TruthValue("?", EvalMode.R)
UND_B = TruthValue("?", EvalMode.B)
UND_A = TruthValue("?", EvalMode.A)
UND_M = TruthValue("?", EvalMode.M)

# Tables keyed by the kinds ("T", "?" or "F") of the operands a mode reads;
# annotations on undecided operands never influence a lookup.

OR_B = {
    ("T", "T"): TRUE,
    ("T", "?"): TRUE,
    ("T", "F"): TRUE,
    ("?", "T"): TRUE,
    ("?", "?"): UND_B,
    ("?", "F"): UND_L,
    ("F", "T"): TRUE,
    ("F", "?"): UND_R,
    ("F", "F"): FALSE,
}

AND_B = {
    ("T", "T"): TRUE,
    ("T", "?"): UND_R,
    ("T", "F"): FALSE,
    ("?", "T"): UND_L,
    ("?", "?"): UND_B,
    ("?", "F"): FALSE,
    ("F", "T"): FALSE,
    ("F", "?"): FALSE,
    ("F", "F"): FALSE,
}

# Until in its initial/anchored mode.  A right operand that holds now decides
# the formula outright, so those three cells, listed first, render as one
# wildcard rule.
UNTIL_A = {
    ("T", "T"): TRUE,
    ("?", "T"): TRUE,
    ("F", "T"): TRUE,
    ("T", "?"): UND_A,
    ("T", "F"): UND_A,
    ("?", "?"): UND_A,
    ("?", "F"): UND_B,
    ("F", "?"): UND_R,
    ("F", "F"): FALSE,
}

# Until after the current-cell witness failed: only the left-operand chain
# keeps the formula alive; branch bookkeeping in the engine refines this.
UNTIL_B = {("T",): UND_B, ("?",): UND_B, ("F",): FALSE}

# Modes L and R read the one operand that can still decide the formula.
SIDE_L = {("T",): TRUE, ("?",): UND_L, ("F",): FALSE}
SIDE_R = {("T",): TRUE, ("?",): UND_R, ("F",): FALSE}

# An eventually or always reads the combined value of the operand instances
# it waits on; a next or weak next reads nothing in its spawn cell and then
# mirrors its operand (mode M).
EVENTUALLY = {("T",): TRUE, ("?",): UND, ("F",): UND}
ALWAYS = {("T",): UND, ("?",): UND, ("F",): FALSE}
NEXT = {(): UND_M}
MIRROR = {("T",): TRUE, ("?",): UND_M, ("F",): FALSE}

# The value a temporal operator still undecided at the last cell takes: the
# paper's end-of-trace rule [f]?, [END] -> [f]X.  Its operands are decided
# there, so an and/or never is undecided at the last cell.
END = {"eventually": FALSE, "always": TRUE, "next": FALSE, "weaknext": TRUE, "until": FALSE}

_BINARY = {
    "or": {EvalMode.B: OR_B, EvalMode.L: SIDE_L, EvalMode.R: SIDE_R},
    "and": {EvalMode.B: AND_B, EvalMode.L: SIDE_L, EvalMode.R: SIDE_R},
    "until": {EvalMode.A: UNTIL_A, EvalMode.B: UNTIL_B, EvalMode.L: SIDE_L, EvalMode.R: SIDE_R},
}
_UNARY = {
    "eventually": {EvalMode.PLAIN: EVENTUALLY},
    "always": {EvalMode.PLAIN: ALWAYS},
    "next": {EvalMode.PLAIN: NEXT, EvalMode.M: MIRROR},
    "weaknext": {EvalMode.PLAIN: NEXT, EvalMode.M: MIRROR},
}
TABLES = {**_BINARY, **_UNARY}

BINARY_MODES = {op: tuple(tables) for op, tables in _BINARY.items()}
UNARY_MODES = {op: tuple(tables) for op, tables in _UNARY.items()}
BINARY_OPS = tuple(BINARY_MODES)
UNARY_OPS = tuple(UNARY_MODES)


class IllegalModeError(ValueError):
    """Raised for an (operator, mode) pairing outside the rule grammar."""


def reads(mode: EvalMode, n: int, left, right) -> tuple:
    """The `n` operands a table of `mode` is keyed by, of an operator's `left`
    and `right` (a unary one's is `left`): mode R reads the right one only."""
    return (right,) if mode is EvalMode.R else (left, right)[:n]


def _table(tables: dict, op: str, mode: EvalMode) -> dict:
    table = tables.get(op, {}).get(mode)
    if table is None:
        raise IllegalModeError(f"mode {mode.name} is not legal for operator {op!r}")
    return table


def eval_binary(op: str, mode: EvalMode, left: TruthValue | None, right: TruthValue | None) -> TruthValue:
    """Evaluation-table lookup for or/and/until under the given activation mode.

    A mode that reads one operand (L and until's B the left, R the right)
    may be passed None for the other."""
    table = _table(_BINARY, op, mode)
    operands = reads(mode, len(next(iter(table))), left, right)
    if any(x is None for x in operands):
        raise ValueError(f"mode {mode.name} of {op!r} reads an operand passed as None")
    return table[tuple(x.kind for x in operands)]


def eval_unary(op: str, mode: EvalMode, sub: TruthValue, at_end: bool) -> TruthValue:
    """Evaluation-table lookup for eventually/always/next/weaknext; at the
    end of the trace an undecided value becomes the operator's `END` value.

    For eventually/always, `sub` is the aggregated operand value across the
    instances spawned so far (T if any witness, F if all refuted, ? otherwise).
    For next/weaknext in PLAIN mode the operand is not monitored yet and `sub`
    is ignored; in M mode the operand value is mirrored.
    """
    table = _table(_UNARY, op, mode)
    value = table[tuple(x.kind for x in reads(mode, len(next(iter(table))), sub, None))]
    return END[op] if at_end and value.kind == "?" else value
