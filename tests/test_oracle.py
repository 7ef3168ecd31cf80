import functools
import itertools
import random

import pytest

from rulerunner import (
    Atom,
    NegAtom,
    Not,
    Or,
    And,
    Until,
    Next,
    WeakNext,
    Eventually,
    Always,
    Trace,
    TrueConst,
    enumerate_formulas,
    is_nnf,
    oracle_eval,
    parse_formula,
    parse_trace_inline,
    random_formula,
    to_nnf,
)
from rulerunner.oracle import BOTTOM, TOP, JAnd, JLeaf, JOr, eval_judgement


def ev(formula: str, trace: str, i: int = 0) -> bool:
    return oracle_eval(to_nnf(parse_formula(formula)), parse_trace_inline(trace), i)


def test_worked_example_is_satisfied():
    assert ev("a | F b", "[c - a - b,d - b]") is True


def test_strong_next_fails_at_last_cell():
    assert ev("X a", "[a]") is False


def test_weak_next_holds_at_last_cell():
    assert ev("W a", "[b]") is True


def test_until_direct_expansion():
    assert ev("a U b", "[a - a - b]") is True
    assert ev("a U b", "[a - c - b]") is False
    assert ev("a U b", "[b]") is True
    assert ev("a U b", "[a - a]") is False


def test_positions_other_than_zero():
    u = parse_trace_inline("[a - b - c]")
    assert oracle_eval(parse_formula("b"), u, 1) is True
    assert oracle_eval(parse_formula("F c"), u, 1) is True
    assert oracle_eval(parse_formula("G a"), u, 1) is False


def test_position_out_of_range():
    u = parse_trace_inline("[a]")
    with pytest.raises(IndexError):
        oracle_eval(parse_formula("a"), u, 1)
    with pytest.raises(IndexError):
        oracle_eval(parse_formula("a"), u, -1)


def test_negation_is_boolean_complement():
    u = parse_trace_inline("[a - b]")
    f = parse_formula("!(a U b)")
    assert oracle_eval(f, u, 0) is not oracle_eval(f.sub, u, 0)


def all_traces(atoms, max_len):
    cells = [frozenset(a for i, a in enumerate(atoms) if mask >> i & 1) for mask in range(2 ** len(atoms))]
    out = []
    for n in range(1, max_len + 1):
        out.extend(Trace(tuple(c)) for c in itertools.product(cells, repeat=n))
    return out


def textbook(f, u: Trace) -> list[bool]:
    """The FLTL clauses transcribed literally, position by position, with
    loops over the later cells k for F, G and U; cached per (subformula,
    position) only to keep the test fast."""
    n = len(u)

    @functools.cache
    def holds(g, j: int) -> bool:
        if isinstance(g, TrueConst):
            return True
        if isinstance(g, Atom):
            return g.name in u[j]
        if isinstance(g, NegAtom):
            return g.name not in u[j]
        if isinstance(g, Not):
            return not holds(g.sub, j)
        if isinstance(g, Or):
            return holds(g.left, j) or holds(g.right, j)
        if isinstance(g, And):
            return holds(g.left, j) and holds(g.right, j)
        if isinstance(g, Next):
            return j + 1 < n and holds(g.sub, j + 1)
        if isinstance(g, WeakNext):
            return j + 1 == n or holds(g.sub, j + 1)
        if isinstance(g, Eventually):
            return any(holds(g.sub, k) for k in range(j, n))
        if isinstance(g, Always):
            return all(holds(g.sub, k) for k in range(j, n))
        assert isinstance(g, Until)
        return any(holds(g.right, k) and all(holds(g.left, m) for m in range(j, k)) for k in range(j, n))

    return [holds(f, j) for j in range(n)]


def assert_matches_textbook(formulas, traces):
    for f in formulas:
        for u in traces:
            assert [oracle_eval(f, u, i) for i in range(len(u))] == textbook(f, u), (f, u)


# every trace of up to 4 cells over a, b, and over cells that also hold an off-alphabet c
SHORT_TRACES = [
    Trace(c)
    for n in range(1, 5)
    for c in itertools.product([frozenset(x) for x in ("", "a", "b", "ab", "c", "ac")], repeat=n)
]


def a_runs(rng: random.Random, n: int) -> Trace:
    """n cells in runs of up to 40: long stretches of a, with b and c rare."""
    cells = []
    while len(cells) < n:
        base = {"a"} if rng.random() < 0.7 else set()
        for _ in range(rng.randint(1, 40)):
            cells.append(frozenset(base | {x for x in "bc" if rng.random() < 0.04}))
    return Trace(tuple(cells[:n]))


def test_depth_one_corpus_matches_textbook_on_short_traces():
    assert_matches_textbook(enumerate_formulas(1, ["a", "b"]), SHORT_TRACES)


def test_deep_formulas_match_textbook():
    rng = random.Random(8)
    formulas = []
    for k in range(600):
        f = random_formula(3 + k % 2, ["a", "b", "c"], rng)
        formulas.append(Not(f) if k % 4 == 0 else f)
    for f in formulas:
        assert_matches_textbook([f], rng.sample(SHORT_TRACES, 20))


def test_long_a_runs_match_textbook():
    """Until over runs far longer than one doubling round reaches."""
    rng = random.Random(3)
    traces = [a_runs(rng, rng.randint(30, 200)) for _ in range(12)]
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    formulas = [Until(a, b), Until(a, c), Until(a, Until(a, b)), Until(Or(a, c), And(b, Next(a))),
                Always(Until(a, NegAtom("a"))), Not(Until(TrueConst(), b))]
    formulas += [random_formula(2, ["a", "b", "c"], rng, (Until, Or, And, Next, WeakNext)) for _ in range(10)]
    formulas += [random_formula(2, ["a", "b"], rng) for _ in range(10)]
    assert_matches_textbook(formulas, traces)


def test_until_unfolding_identity():
    """f U g agrees with its one-step unfolding on every small trace."""
    rng = random.Random(5)
    traces = all_traces(["a", "b"], 4)
    for _ in range(60):
        f = random_formula(2, ["a", "b"], rng)
        g = random_formula(2, ["a", "b"], rng)
        until = Until(f, g)
        for u in random.Random(1).sample(traces, 40):
            for i in range(len(u)):
                direct = oracle_eval(until, u, i)
                unfolded = oracle_eval(g, u, i) or (
                    oracle_eval(f, u, i) and i + 1 < len(u) and oracle_eval(until, u, i + 1)
                )
                assert direct == unfolded


def test_eventually_always_are_derived_operators():
    rng = random.Random(11)
    traces = all_traces(["a", "b"], 4)
    for _ in range(120):
        f = random_formula(2, ["a", "b"], rng)
        u = rng.choice(traces)
        assert oracle_eval(Eventually(f), u, 0) == oracle_eval(Until(TrueConst(), f), u, 0)
        assert oracle_eval(Always(f), u, 0) == oracle_eval(Not(Eventually(Not(f))), u, 0)


def test_judgement_evaluation():
    u = parse_trace_inline("[b - b]")
    j = JOr(JLeaf(Atom("a"), 0), JLeaf(Next(Atom("b")), 0))
    assert eval_judgement(j, u) is True
    assert eval_judgement(JOr(BOTTOM, TOP), u) is True
    assert eval_judgement(JAnd(BOTTOM, TOP), u) is False
    assert eval_judgement(JLeaf(Atom("b"), 1), u) is True


def test_judgement_index_must_be_valid():
    u = parse_trace_inline("[b]")
    with pytest.raises(IndexError):
        eval_judgement(JLeaf(Atom("b"), 3), u)


def test_enumerate_depth_zero():
    assert enumerate_formulas(0, ["a"]) == [TrueConst(), Atom("a"), NegAtom("a")]


def test_enumerate_depth_one_members():
    got = set(enumerate_formulas(1, ["a"]))
    a = Atom("a")
    for f in (Next(a), WeakNext(a), Eventually(a), Always(a), Until(a, a), Or(a, NegAtom("a")), a, TrueConst()):
        assert f in got


def test_enumerate_counts_match_recurrence():
    """|F(d)| = leaves + 4*|F(d-1)| + 3*|F(d-1)|^2 (generation never collides)."""
    leaves = 5  # true, a, b, !a, !b
    f1 = len(enumerate_formulas(1, ["a", "b"]))
    assert f1 == leaves + 4 * leaves + 3 * leaves**2
    f2 = len(enumerate_formulas(2, ["a", "b"]))
    assert f2 == leaves + 4 * f1 + 3 * f1**2


def test_enumerate_is_deterministic_and_distinct():
    xs = enumerate_formulas(1, ["a", "b"])
    ys = enumerate_formulas(1, ["a", "b"])
    assert xs == ys
    assert len(set(xs)) == len(xs)


def test_random_formula_deterministic_under_seed():
    f = random_formula(3, ["a", "b"], 123)
    g = random_formula(3, ["a", "b"], 123)
    assert f == g
    assert any(random_formula(3, ["a", "b"], seed) != f for seed in range(124, 134))


def test_random_formula_depth_zero_is_leaf():
    assert random_formula(0, ["a"], 5) in set(enumerate_formulas(0, ["a"]))


def test_random_formulas_are_nnf():
    rng = random.Random(0)
    for _ in range(1000):
        assert is_nnf(random_formula(4, ["a", "b"], rng))


class TestEvaluatorMemo:
    """`oracle_eval` keeps the closures of the last formula object it saw,
    keyed by identity: a memo that answered for the wrong formula would show
    here as a value that differs from the textbook's."""

    TRACES = [parse_trace_inline(t) for t in ("[a - b - a]", "[b - . - a,b]", "[a]", "[. - b]")]

    def test_alternating_formulas_match_fresh_calls(self):
        f, g = to_nnf(parse_formula("a U X b")), to_nnf(parse_formula("G (a | F b)"))
        twin = to_nnf(parse_formula("a U X b"))  # equal to f, another object
        assert twin == f and twin is not f
        want = {id(h): [textbook(h, u) for u in self.TRACES] for h in (f, g, twin)}
        for _ in range(3):
            for h in (f, g, twin, f, twin, g, g):
                assert [[oracle_eval(h, u, i) for i in range(len(u))] for u in self.TRACES] == want[id(h)]

    def test_interleaved_calls_match_grouped_calls(self):
        rng = random.Random(19)
        formulas = [random_formula(3, ["a", "b"], rng) for _ in range(40)]
        formulas += [to_nnf(parse_formula(text)) for text in ("a U b", "a U b", "X a", "X a")]
        traces = rng.sample(SHORT_TRACES, 12)
        grouped = {id(f): [oracle_eval(f, u, 0) for u in traces] for f in formulas}
        for k, u in enumerate(traces):
            for f in formulas:
                assert oracle_eval(f, u, 0) == grouped[id(f)][k]

    def test_fresh_objects_each_call(self):
        u = parse_trace_inline("[a - b]")
        for _ in range(50):
            assert oracle_eval(Atom("a"), u, 0) is True
            assert oracle_eval(NegAtom("a"), u, 0) is False
            assert oracle_eval(Next(Atom("b")), u, 0) is True

    def test_not_is_complement_after_its_operand(self):
        u = parse_trace_inline("[a - b]")
        f = parse_formula("a U b")
        for _ in range(2):
            assert oracle_eval(f, u, 0) is True
            assert oracle_eval(Not(f), u, 0) is False
            assert oracle_eval(Not(Not(f)), u, 1) is True

    def test_index_error_before_and_after_a_cached_formula(self):
        u = parse_trace_inline("[a - b]")
        f = parse_formula("F b")
        with pytest.raises(IndexError):
            oracle_eval(f, u, 2)
        assert oracle_eval(f, u, 0) is True
        for i in (2, -1):
            with pytest.raises(IndexError):
                oracle_eval(f, u, i)
        with pytest.raises(IndexError):  # the position is checked before the formula is read
            oracle_eval(object(), u, 5)
        assert oracle_eval(f, u, 1) is True

    def test_non_formula_node_raises_type_error(self):
        u = parse_trace_inline("[a]")
        bad = Or(Atom("a"), "b")
        for _ in range(2):  # a failed build is not kept
            with pytest.raises(TypeError, match="not a formula node"):
                oracle_eval(bad, u, 0)
        assert oracle_eval(Atom("a"), u, 0) is True
        with pytest.raises(TypeError):
            oracle_eval(Next("a"), u, 0)
