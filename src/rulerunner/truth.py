"""Annotated three-valued truth domain and the operator evaluation tables.

Truth values are T, F, or undecided with an annotation recording which
operand(s) can still decide the formula: ?L / ?R / ?B (left, right, both),
?A (until, all routes open), ?M (next/weak-next mirroring its operand).
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

BINARY_OPS = ("or", "and", "until")
UNARY_OPS = ("eventually", "always", "next", "weaknext")

BINARY_MODES = {
    "or": (EvalMode.B, EvalMode.L, EvalMode.R),
    "and": (EvalMode.B, EvalMode.L, EvalMode.R),
    "until": (EvalMode.A, EvalMode.B, EvalMode.L, EvalMode.R),
}
UNARY_MODES = {
    "eventually": (EvalMode.PLAIN,),
    "always": (EvalMode.PLAIN,),
    "next": (EvalMode.PLAIN, EvalMode.M),
    "weaknext": (EvalMode.PLAIN, EvalMode.M),
}

# Tables keyed by the undecidedness class of each operand ("T", "F", "?").
# Annotations on undecided operands never influence table lookups.

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
# the formula outright, so those three cells collapse into one wildcard rule.
UNTIL_A = {
    ("T", "T"): TRUE,
    ("?", "T"): TRUE,
    ("F", "T"): TRUE,
    ("T", "?"): UND_A,
    ("?", "?"): UND_A,
    ("F", "?"): UND_R,
    ("T", "F"): UND_A,
    ("?", "F"): UND_B,
    ("F", "F"): FALSE,
}

# Until after the current-cell witness failed: only the left-operand chain
# keeps the formula alive; branch bookkeeping in the engine refines this.
UNTIL_B = {
    "T": UND_B,
    "?": UND_B,
    "F": FALSE,
}

_UNARY_SIDE = {
    EvalMode.L: UND_L,
    EvalMode.R: UND_R,
}


class IllegalModeError(ValueError):
    """Raised for an (operator, mode) pairing outside the rule grammar."""


def _check_binary(op: str, mode: EvalMode) -> None:
    if op not in BINARY_MODES or mode not in BINARY_MODES[op]:
        raise IllegalModeError(f"mode {mode.name} is not legal for operator {op!r}")


def eval_binary(op: str, mode: EvalMode, left: TruthValue | None, right: TruthValue | None) -> TruthValue:
    """Evaluation-table lookup for or/and/until under the given activation mode.

    Modes L and R are unary: the other operand may be passed as None.
    """
    _check_binary(op, mode)
    if mode is EvalMode.L or mode is EvalMode.R:
        operand = left if mode is EvalMode.L else right
        if operand is None:
            side = "left" if mode is EvalMode.L else "right"
            raise ValueError(f"mode {mode.name} requires the {side} operand")
        if operand.kind == "T":
            return TRUE
        if operand.kind == "F":
            return FALSE
        return _UNARY_SIDE[mode]
    if mode is EvalMode.B and op == "until":
        if left is None:
            raise ValueError("until mode B reads the left operand")
        return UNTIL_B[left.kind]
    if left is None or right is None:
        raise ValueError(f"mode {mode.name} requires both operands")
    key = (left.kind, right.kind)
    if op == "or":
        return OR_B[key]
    if op == "and":
        return AND_B[key]
    return UNTIL_A[key]


def eval_unary(op: str, mode: EvalMode, sub: TruthValue, at_end: bool) -> TruthValue:
    """Evaluation-table lookup for eventually/always/next/weaknext.

    For eventually/always, `sub` is the aggregated operand value across the
    instances spawned so far (T if any witness, F if all refuted, ? otherwise).
    For next/weaknext in PLAIN mode the operand is not monitored yet and `sub`
    is ignored; in M mode the operand value is mirrored.
    """
    if op not in UNARY_MODES or mode not in UNARY_MODES[op]:
        raise IllegalModeError(f"mode {mode.name} is not legal for operator {op!r}")
    if op == "eventually":
        if sub.kind == "T":
            return TRUE
        return FALSE if at_end else UND
    if op == "always":
        if sub.kind == "F":
            return FALSE
        return TRUE if at_end else UND
    # next / weaknext
    if mode is EvalMode.PLAIN:
        if at_end:
            return FALSE if op == "next" else TRUE
        return UND_M
    if sub.kind == "T":
        return TRUE
    if sub.kind == "F":
        return FALSE
    return UND_M
