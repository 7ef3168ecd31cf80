import itertools

import pytest

from rulerunner import Trace, Verdict, compile_formula, engine, truth
from rulerunner.engine import run_trace
from rulerunner.ltl import format_formula, parse_formula, to_nnf
from rulerunner.oracle import enumerate_formulas, oracle_eval
from rulerunner.truth import (
    AND_B,
    FALSE,
    OR_B,
    TRUE,
    UND,
    UND_A,
    UND_B,
    UND_L,
    UND_M,
    UND_R,
    BINARY_MODES,
    BINARY_OPS,
    UNARY_MODES,
    UNARY_OPS,
    EvalMode,
    IllegalModeError,
    TruthValue,
    eval_binary,
    eval_unary,
)

VALUES = (TRUE, FALSE, UND, UND_L, UND_R, UND_B, UND_A, UND_M)


def test_rendering():
    assert [str(v) for v in VALUES] == ["T", "F", "?", "?L", "?R", "?B", "?A", "?M"]


def test_undecided_never_equals_decided():
    for v in (UND, UND_L, UND_R, UND_B, UND_A, UND_M):
        assert v != TRUE and v != FALSE


def test_or_table_cells_from_rule_listing():
    # the disjunction rows of the worked example's rule listing
    assert eval_binary("or", EvalMode.B, FALSE, UND) == UND_R
    assert eval_binary("or", EvalMode.B, TRUE, TRUE) == TRUE
    assert eval_binary("or", EvalMode.B, UND, FALSE) == UND_L
    assert eval_binary("or", EvalMode.B, UND, UND) == UND_B
    assert eval_binary("or", EvalMode.B, FALSE, FALSE) == FALSE


def test_and_table():
    assert eval_binary("and", EvalMode.B, FALSE, TRUE) == FALSE
    assert eval_binary("and", EvalMode.B, TRUE, UND) == UND_R
    assert eval_binary("and", EvalMode.B, UND, TRUE) == UND_L
    assert eval_binary("and", EvalMode.B, TRUE, TRUE) == TRUE


def test_until_anchor_mode_cells():
    assert eval_binary("until", EvalMode.A, FALSE, UND) == UND_R
    assert eval_binary("until", EvalMode.A, UND, FALSE) == UND_B
    assert eval_binary("until", EvalMode.A, TRUE, FALSE) == UND_A
    assert eval_binary("until", EvalMode.A, FALSE, FALSE) == FALSE
    for left in (TRUE, FALSE, UND):
        assert eval_binary("until", EvalMode.A, left, TRUE) == TRUE


def test_until_branch_mode_reads_left_only():
    assert eval_binary("until", EvalMode.B, FALSE, None) == FALSE
    assert eval_binary("until", EvalMode.B, TRUE, None) == UND_B
    assert eval_binary("until", EvalMode.B, UND, None) == UND_B


def test_side_modes_are_unary():
    for op in BINARY_OPS:
        assert eval_binary(op, EvalMode.L, TRUE, None) == TRUE
        assert eval_binary(op, EvalMode.L, FALSE, None) == FALSE
        assert eval_binary(op, EvalMode.L, UND_B, None) == UND_L
        assert eval_binary(op, EvalMode.R, None, UND) == UND_R


def test_eventually_rules():
    assert eval_unary("eventually", EvalMode.PLAIN, FALSE, at_end=False) == UND
    assert eval_unary("eventually", EvalMode.PLAIN, UND, at_end=True) == FALSE
    assert eval_unary("eventually", EvalMode.PLAIN, TRUE, at_end=False) == TRUE


def test_always_rules():
    assert eval_unary("always", EvalMode.PLAIN, FALSE, at_end=False) == FALSE
    assert eval_unary("always", EvalMode.PLAIN, UND, at_end=True) == TRUE
    assert eval_unary("always", EvalMode.PLAIN, TRUE, at_end=False) == UND


def test_next_weaknext_end_forcing():
    assert eval_unary("next", EvalMode.PLAIN, UND, at_end=True) == FALSE
    assert eval_unary("weaknext", EvalMode.PLAIN, UND, at_end=True) == TRUE
    assert eval_unary("next", EvalMode.PLAIN, UND, at_end=False) == UND_M
    assert eval_unary("weaknext", EvalMode.PLAIN, TRUE, at_end=False) == UND_M


def test_mirror_mode_reflects_operand():
    assert eval_unary("next", EvalMode.M, TRUE, at_end=False) == TRUE
    assert eval_unary("next", EvalMode.M, FALSE, at_end=False) == FALSE
    assert eval_unary("weaknext", EvalMode.M, UND_A, at_end=False) == UND_M


def test_illegal_pairings_raise():
    with pytest.raises(IllegalModeError):
        eval_binary("or", EvalMode.A, TRUE, TRUE)
    with pytest.raises(IllegalModeError):
        eval_binary("and", EvalMode.M, TRUE, TRUE)
    with pytest.raises(IllegalModeError):
        eval_unary("eventually", EvalMode.M, TRUE, at_end=False)
    with pytest.raises(IllegalModeError):
        eval_unary("next", EvalMode.B, TRUE, at_end=False)
    with pytest.raises(IllegalModeError):
        eval_binary("nope", EvalMode.B, TRUE, TRUE)


def test_operand_passed_as_none_that_the_mode_reads_raises():
    with pytest.raises(ValueError, match="reads an operand passed as None"):
        eval_binary("or", EvalMode.L, None, TRUE)


def test_totality_and_determinism():
    """Every legal (op, mode, operands, at_end) combination has exactly one
    defined output, stable across calls."""
    operand_classes = (TRUE, UND, FALSE)
    for op in BINARY_OPS:
        for mode in BINARY_MODES[op]:
            for left, right in itertools.product(operand_classes, repeat=2):
                first = eval_binary(op, mode, left, right)
                assert first == eval_binary(op, mode, left, right)
                assert isinstance(first, TruthValue)
    for op in UNARY_OPS:
        for mode in UNARY_MODES[op]:
            for sub in operand_classes:
                for at_end in (False, True):
                    first = eval_unary(op, mode, sub, at_end)
                    assert first == eval_unary(op, mode, sub, at_end)
                    assert isinstance(first, TruthValue)


def _flip_kind(k: str) -> str:
    return {"T": "F", "F": "T"}.get(k, k)


def _flip_value(v: TruthValue) -> TruthValue:
    if v.kind != "?":
        return FALSE if v.is_true() else TRUE
    return v


def _swap_sides(v: TruthValue) -> TruthValue:
    mode = {EvalMode.L: EvalMode.R, EvalMode.R: EvalMode.L}.get(v.mode, v.mode)
    return TruthValue(v.kind, mode) if v.kind == "?" else v


def test_or_and_de_morgan_duality():
    """The conjunction table is the disjunction table under negation.

    Two equivalent phrasings hold: flipping T<->F in operands and output
    (annotations track which side decides, and sides do not move under
    negation), or additionally transposing the operands and then swapping
    the L/R annotations.
    """
    for (lk, rk), out in OR_B.items():
        assert AND_B[(_flip_kind(lk), _flip_kind(rk))] == _flip_value(out)
        assert AND_B[(_flip_kind(rk), _flip_kind(lk))] == _swap_sides(_flip_value(out))


def test_strengthening():
    """Resolving one operand from undecided to T or F never flips a decided
    output to the opposite verdict."""
    operand_classes = (TRUE, UND, FALSE)
    for op in BINARY_OPS:
        for mode in BINARY_MODES[op]:
            for left, right in itertools.product(operand_classes, repeat=2):
                base = eval_binary(op, mode, left, right)
                refinements = []
                if left == UND:
                    refinements += [(fix, right) for fix in (TRUE, FALSE)]
                if right == UND:
                    refinements += [(left, fix) for fix in (TRUE, FALSE)]
                for l2, r2 in refinements:
                    refined = eval_binary(op, mode, l2, r2)
                    assert not (base.is_true() and refined.is_false())
                    assert not (base.is_false() and refined.is_true())


# -- every table entry the engine reads matters (mutation analysis) ----------

# An entry is named by its table's name in `truth`; the side-mode tables that
# or, and and until share are one table, so one set of entries.
_NAMES = {id(table): name for name, table in vars(truth).items() if isinstance(table, dict)}
_ENTRIES = {(_NAMES[id(table)], key) for tables in truth.TABLES.values() for table in tables.values() for key in table}

# Built for coverage, not sampled: the depth-1 formulae over a, b, then every
# operator over a leaf, `true` and one formula of each temporal operator (an
# always reads `("?",)` only over an operand that stays undecided for a cell).
_OPERANDS = ["a", "!b", "true", "F a", "G b", "X a", "W b", "a U b"]
_CORPUS = (
    [format_formula(f) for f in enumerate_formulas(1, ["a", "b"])]
    + [f"{op} ({x})" for op in ("F", "G", "X", "W") for x in _OPERANDS]
    + [f"({x}) {op} ({y})" for op in ("&", "|", "U") for x in _OPERANDS for y in _OPERANDS]
)
_LETTERS = [frozenset(), frozenset("a"), frozenset("b"), frozenset("ab")]
_TRACES = [Trace(cells) for n in (1, 2, 3) for cells in itertools.product(_LETTERS, repeat=n)]


# Mutants no trace can tell apart: a mode-B and/or over an operand already
# decided reads it as the side mode would, since a decided operand keeps its
# value, so these change the mode annotation and nothing the monitor reports.
_EQUIVALENT = [
    "AND_B[('?', 'T')] = ?B",
    "AND_B[('T', '?')] = ?B",
    "OR_B[('?', 'F')] = ?B",
    "OR_B[('F', '?')] = ?B",
]


class _RecordingTable(dict):
    """A copy of a `truth` table that notes each entry read."""

    def __init__(self, table: dict, reads: set):
        super().__init__(table)
        self.name, self.reads = _NAMES[id(table)], reads

    def __getitem__(self, key):
        self.reads.add((self.name, key))
        return dict.__getitem__(self, key)


def _killed(formula, system, trace, cell: int) -> bool:
    """The monitor gives a verdict unlike the reference semantics, decides
    at another cell than `cell`, leaves the trace undecided, or raises (an
    and/or left undecided at the last cell has no `END` value)."""
    try:
        result = run_trace(system, trace)
    except Exception:
        return True
    verdict = result.verdict
    if verdict is Verdict.UNDECIDED or result.deciding_cell != cell:
        return True
    return (verdict is Verdict.SUCCESS) != oracle_eval(formula, trace, 0)


def test_every_table_entry_the_engine_reads_matters(monkeypatch):
    """Record which `truth.TABLES` entries `Monitor` reads over the corpus and
    every trace of 1-3 cells over {a, b}; only the 12 until entries go
    unread, since `engine._decide_until` computes the until.  Then every
    single-entry mutant of a read entry (each other value its table holds,
    and T and F) but the pinned equivalent ones is killed by a pair that
    reads the entry, and every flip of one `truth.END` value by some pair.
    Eight of the killed mutants only delay a decided value, so only the
    deciding cell, which the unmutated run gives, shows them.  The engine
    reads both tables live, so a mutant is an in-place edit.  About 1 s on
    a 2-core machine with Python 3.11."""
    readers: dict[tuple, list] = {}
    pairs = []
    with monkeypatch.context() as m:
        reads: set = set()
        m.setattr(engine, "_TABLES", [tuple(_RecordingTable(t, reads) for t in ts) for ts in engine._TABLES])
        for text in _CORPUS:
            f = to_nnf(parse_formula(text))
            system = compile_formula(f)
            for u in _TRACES:
                reads.clear()
                pair = f, system, u, run_trace(system, u).deciding_cell
                pairs.append(pair)
                for entry in reads:
                    readers.setdefault(entry, []).append(pair)
    until = {("UNTIL_A", key) for key in truth.UNTIL_A} | {("UNTIL_B", key) for key in truth.UNTIL_B}
    assert _ENTRIES - readers.keys() == until
    assert len(readers) == 34

    tables = {name: getattr(truth, name) for name, _ in readers}
    survivors = []
    for name, key in sorted(readers, key=str):
        table = tables[name]
        for value in sorted({*table.values(), TRUE, FALSE} - {table[key]}, key=str):
            with monkeypatch.context() as m:
                m.setitem(table, key, value)
                if not any(_killed(*pair) for pair in readers[name, key]):
                    survivors.append(f"{name}[{key}] = {value}")
    for op, value in truth.END.items():
        with monkeypatch.context() as m:
            m.setitem(truth.END, op, FALSE if value == TRUE else TRUE)
            if not any(_killed(*pair) for pair in pairs):
                survivors.append(f"END[{op}] flipped")
    assert survivors == _EQUIVALENT
