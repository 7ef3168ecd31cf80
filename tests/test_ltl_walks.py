"""NNF, printing and subformula indexing walk with explicit stacks: a deep
formula, negation-free subtrees kept as they are, and subformula texts
composed from their operands' texts."""

from hypothesis import given, settings

from rulerunner import (
    And,
    Atom,
    Eventually,
    NegAtom,
    Next,
    NnfError,
    Not,
    Or,
    SubformulaIndex,
    WeakNext,
    format_formula,
    is_nnf,
    parse_formula,
    to_nnf,
)
from test_ltl import negation_formulas

a, b = Atom("a"), Atom("b")


def test_negation_free_subtrees_kept_as_they_are():
    f = parse_formula("a U (b & X !c)")
    assert to_nnf(f) is f
    g = And(Not(Or(a, b)), f)
    assert to_nnf(g).right is f


def test_deep_negation_chain_needs_no_recursion():
    f = a
    for k in range(3000):
        f = Not(Next(f)) if k % 2 else Not(Eventually(f))
    nnf = to_nnf(f)
    assert is_nnf(nnf) and not is_nnf(f)
    depth = 0
    while not isinstance(nnf, (Atom, NegAtom)):
        assert isinstance(nnf, WeakNext if depth % 2 == 0 else Eventually)  # a negation cancels every other level
        nnf, depth = nnf.sub, depth + 1
    assert depth == 3000 and nnf == a


def test_kids_hold_operand_ids():
    idx = SubformulaIndex(parse_formula("a | F b"))
    assert idx.kids == [(), (), (1,), (0, 2)]


@given(negation_formulas(max_leaves=12))
@settings(max_examples=200)
def test_composed_texts_match_format(f):
    try:
        f = to_nnf(f)
    except NnfError:
        return
    idx = SubformulaIndex(f)
    assert idx.text(idx.root) == format_formula(f)  # composes every text, from the root down
    assert [idx.text(fid) for fid in range(len(idx))] == list(map(format_formula, idx.formulas))

