"""NNF, printing and subformula indexing walk with explicit stacks: a deep
formula, negation-free subtrees kept as they are, and subformula texts
composed from their operands' texts by the one composer the printer uses,
or else printed."""

import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    TrueConst,
    Until,
    WeakNext,
    check_run,
    cli,
    compile_formula,
    dump_rules,
    dump_rules_json,
    explain,
    format_formula,
    is_nnf,
    ltl,
    oracle,
    parse_formula,
    parse_trace_inline,
    run_trace,
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


@given(negation_formulas(max_leaves=12), st.data())
@settings(max_examples=200)
def test_composed_texts_match_format(f, data):
    """An index text is printed when an operand's text is unread (the root
    read first) and composed when every one is (ids in ascending order);
    a drawn order mixes the two."""
    try:
        f = to_nnf(f)
    except NnfError:
        return
    idx = SubformulaIndex(f)
    assert idx.text(idx.root) == format_formula(f)
    assert [idx.text(fid) for fid in range(len(idx))] == list(map(format_formula, idx.formulas))
    idx = SubformulaIndex(f)
    for fid in data.draw(st.permutations(range(len(idx)))):
        assert idx.text(fid) == format_formula(idx.formulas[fid])


def test_no_path_formats_a_formula(monkeypatch):
    """Checking, explaining, listing and the differential run print no
    formula outside `SubformulaIndex.text`, also for `true`, `a` and `!a`,
    and no index builds a text twice, so no path prints a formula on every
    read.  An index prints a text with `format_formula` when an operand's
    text is unread: at cell 0 of ``a U (!a & X true)`` the state names
    ``X true`` but not ``true``."""
    built = set()  # (index, fid) per text an index built
    printed = []  # the formulae an index printed

    def caller_index():
        frame = sys._getframe(2)
        if frame.f_code is not SubformulaIndex.text.__code__:
            return None
        key = idx, fid = frame.f_locals["self"], frame.f_locals["fid"]
        assert key not in built, f"text {idx.formulas[fid]} built twice"
        built.add(key)
        return idx

    def only_from_text(f):
        assert caller_index() is not None, "format_formula called outside SubformulaIndex.text"
        printed.append(f)
        return format_formula(f)

    def record_compose(f, texts):
        caller_index()
        return ltl_compose(f, texts)

    def refuse(f):
        raise AssertionError("format_formula called")

    ltl_compose = ltl._compose
    monkeypatch.setattr(ltl, "format_formula", only_from_text)
    monkeypatch.setattr(ltl, "_compose", record_compose)
    for module in (oracle, cli):
        monkeypatch.setattr(module, "format_formula", refuse)
    formulas = [to_nnf(parse_formula(text)) for text in ("true", "a", "!a", "a U (!a & X true)", "G (!a | F a)")]
    traces = [parse_trace_inline(text) for text in ("[a]", "[- a - a]", "[a - - a]")]
    for f in formulas:
        system = compile_formula(f)
        for u in traces:
            report = check_run(f, u)
            assert report.passed, report.render()
            explain(run_trace(system, u))
        dump_rules(system)
        dump_rules_json(system)
    assert cli.run_differential(formulas, traces) == (len(formulas) * len(traces), [])
    assert Next(TrueConst()) in printed and len(built) > len(printed)


def _chain(op, depth: int):
    f = a
    for k in range(depth):
        f = op(k, f)
    return f


SPEC = " & ".join(f"G (!p{i} | F q{i})" for i in range(1000))
# (formula, its text); texts are compared, never formulae, as a dataclass `==` recurses on depth
DEEP_CHAINS = {
    "10,000 nested X": (lambda: _chain(lambda k, f: Next(f), 10_000), "X " * 10_000 + "a"),
    "3,000-deep right-nested U": (lambda: _chain(lambda k, f: Until(a, f), 3000), " U ".join(["a"] * 3001)),
    "1,000-conjunct spec": (lambda: parse_formula(SPEC), SPEC),
    "3,000-deep !X/!F": (
        lambda: _chain(lambda k, f: Not(Next(f)) if k % 2 else Not(Eventually(f)), 3000),
        "!X !F " * 1500 + "a",
    ),
    "3,000-deep W F, its NNF": (
        lambda: to_nnf(_chain(lambda k, f: Not(Next(f)) if k % 2 else Not(Eventually(f)), 3000)),
        "W F " * 1500 + "a",
    ),
}


@pytest.mark.parametrize("name", DEEP_CHAINS)
def test_deep_chains_print_without_recursion(name):
    build, want = DEEP_CHAINS[name]
    f = build()
    text = format_formula(f)
    assert text == want
    assert format_formula(parse_formula(text)) == text
    if is_nnf(f):
        idx = SubformulaIndex(f)
        assert idx.text(idx.root) == text


def test_root_text_of_a_deep_chain_keeps_no_operand_text():
    """Reading only the root text of 10,000 nested X keeps that one text,
    not the 10,000 operand texts below it (about 100 MB in all)."""
    idx = SubformulaIndex(_chain(lambda k, f: Next(f), 10_000))
    tracemalloc.start()
    try:
        text = idx.text(idx.root)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "X " * 10_000 + "a"
    assert peak < 2 * 2**20, peak
