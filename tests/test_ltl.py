import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulerunner import (
    Always,
    And,
    Atom,
    Eventually,
    NegAtom,
    Next,
    NnfError,
    Not,
    Or,
    ParseError,
    SubformulaIndex,
    Trace,
    TrueConst,
    Until,
    WeakNext,
    format_formula,
    is_nnf,
    oracle_eval,
    parse_formula,
    random_formula,
    to_nnf,
)

a, b, c = Atom("a"), Atom("b"), Atom("c")


class TestParsing:
    def test_worked_example(self):
        assert parse_formula("a | F b") == Or(a, Eventually(b))

    def test_true_terminal(self):
        assert parse_formula("true") == TrueConst()

    def test_precedence_with_parens(self):
        assert parse_formula("a U (b & X c)") == Until(a, And(b, Next(c)))

    def test_until_binds_tighter_than_and(self):
        assert parse_formula("a U b & X c") == And(Until(a, b), Next(c))

    def test_and_binds_tighter_than_or(self):
        assert parse_formula("a | b & c") == Or(a, And(b, c))

    def test_until_right_associative(self):
        assert parse_formula("a U b U c") == Until(a, Until(b, c))

    def test_or_left_associative(self):
        assert parse_formula("a | b | c") == Or(Or(a, b), c)

    def test_negated_atom(self):
        assert parse_formula("!a") == NegAtom("a")

    def test_general_negation_kept_for_normalisation(self):
        assert parse_formula("!(a | b)") == Not(Or(a, b))
        assert parse_formula("!!a") == Not(NegAtom("a"))

    def test_aliases(self):
        assert parse_formula("<> a") == Eventually(a)
        assert parse_formula("[] a") == Always(a)

    def test_atom_lexical_rule(self):
        assert parse_formula("foo_9") == Atom("foo_9")
        # uppercase letters are operators, so this is F applied to 'oo'
        assert parse_formula("Foo") == Eventually(Atom("oo"))
        with pytest.raises(ParseError):
            parse_formula("Zoo")

    def test_errors_carry_positions(self):
        with pytest.raises(ParseError) as err:
            parse_formula("a U")
        assert err.value.position == 3
        with pytest.raises(ParseError):
            parse_formula("")
        with pytest.raises(ParseError):
            parse_formula("a b")
        with pytest.raises(ParseError):
            parse_formula("(a | b")
        with pytest.raises(ParseError):
            parse_formula("a @ b")


class TestNnf:
    def test_de_morgan(self):
        assert to_nnf(parse_formula("!(a | b)")) == And(NegAtom("a"), NegAtom("b"))
        assert to_nnf(parse_formula("!(a & b)")) == Or(NegAtom("a"), NegAtom("b"))

    def test_next_dualises_to_weak_next(self):
        assert to_nnf(parse_formula("!(X a)")) == WeakNext(NegAtom("a"))
        assert to_nnf(parse_formula("!(W a)")) == Next(NegAtom("a"))

    def test_eventually_always_dual(self):
        assert to_nnf(parse_formula("!(F a)")) == Always(NegAtom("a"))
        assert to_nnf(parse_formula("!(G a)")) == Eventually(NegAtom("a"))

    def test_double_negation_cancels(self):
        assert to_nnf(parse_formula("!!a")) == a
        assert to_nnf(parse_formula("!!!!b")) == b

    def test_negated_until_rejected(self):
        with pytest.raises(NnfError):
            to_nnf(parse_formula("!(a U b)"))

    def test_negated_true_rejected(self):
        with pytest.raises(NnfError):
            to_nnf(parse_formula("!true"))

    def test_idempotent_on_nnf(self):
        f = parse_formula("a U (b & X !c)")
        assert to_nnf(f) == f

    def test_nnf_preserves_semantics(self):
        """to_nnf(g) and g have the same value on every small trace, where
        general negation is read as the boolean complement."""
        rng = random.Random(3)
        cells = [frozenset(), frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"})]
        traces = [
            Trace(tuple(combo))
            for n in (1, 2, 3, 4)
            for combo in itertools.product(cells, repeat=n)
        ]
        checked = 0
        for _ in range(300):
            g = random_formula(3, ["a", "b"], rng)
            spot = rng.randrange(3)
            if spot == 0:
                g = Not(g)
            elif spot == 1 and isinstance(g, (Or, And)):
                g = type(g)(Not(g.left), g.right)
            try:
                nnf = to_nnf(g)
            except NnfError:
                continue  # negated until has no NNF form
            assert is_nnf(nnf)
            for u in rng.sample(traces, 12):
                assert oracle_eval(nnf, u, 0) == oracle_eval(g, u, 0)
                checked += 1
        assert checked > 2000


class TestFormatting:
    @pytest.mark.parametrize(
        "f,text",
        [
            (Or(a, Eventually(b)), "a | F b"),
            (TrueConst(), "true"),
            (Until(a, b), "a U b"),
            (Until(a, And(b, Next(c))), "a U (b & X c)"),
            (And(Until(a, b), Next(c)), "a U b & X c"),
            (Or(a, Or(b, c)), "a | (b | c)"),
            (Until(Until(a, b), c), "(a U b) U c"),
            (Next(Next(a)), "X X a"),
            (Always(Or(a, b)), "G (a | b)"),
            (Not(And(a, Next(b))), "!(a & X b)"),
            (Next(Not(Or(a, b))), "X !(a | b)"),
            (Not(Until(a, b)), "!(a U b)"),
            (Until(Not(Next(a)), b), "!X a U b"),
            (Not(Not(Or(a, b))), "!!(a | b)"),
        ],
    )
    def test_examples(self, f, text):
        assert format_formula(f) == text
        assert parse_formula(text) == f


def nnf_formulas(max_leaves=6):
    leaves = st.one_of(
        st.just(TrueConst()),
        st.sampled_from([a, b, c]),
        st.sampled_from([NegAtom("a"), NegAtom("b"), NegAtom("c")]),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(Next, children),
            st.builds(WeakNext, children),
            st.builds(Eventually, children),
            st.builds(Always, children),
            st.builds(Or, children, children),
            st.builds(And, children, children),
            st.builds(Until, children, children),
        ),
        max_leaves=max_leaves,
    )


@given(nnf_formulas())
@settings(max_examples=300)
def test_format_parse_round_trip(f):
    assert parse_formula(format_formula(f)) == f


def negation_formulas(max_leaves=8):
    """Formulae that may hold `Not` over any operand but a bare atom: `!a`
    parses back as a NegAtom."""
    return st.recursive(
        nnf_formulas(2),
        lambda children: st.one_of(
            st.builds(Not, children.filter(lambda g: not isinstance(g, Atom))),
            *(st.builds(op, children) for op in (Next, WeakNext, Eventually, Always)),
            *(st.builds(op, children, children) for op in (Or, And, Until)),
        ),
        max_leaves=max_leaves,
    )


@given(negation_formulas())
@settings(max_examples=300)
def test_format_parse_round_trip_with_negation(f):
    assert parse_formula(format_formula(f)) == f


class TestSubformulas:
    def test_worked_example_order(self):
        idx = SubformulaIndex(parse_formula("a | F b"))
        assert idx.formulas == [a, b, Eventually(b), Or(a, Eventually(b))]

    def test_single_atom(self):
        assert SubformulaIndex(a).formulas == [a]

    def test_duplicates_share_one_entry(self):
        idx = SubformulaIndex(And(a, a))
        assert idx.formulas == [a, And(a, a)]

    def test_post_order_ids(self):
        idx = SubformulaIndex(parse_formula("(a U b) | X (a U b)"))
        for f in idx.formulas:
            fid = idx.id_of(f)
            kids = []
            if isinstance(f, (Or, And, Until)):
                kids = [f.left, f.right]
            elif isinstance(f, (Next, WeakNext, Eventually, Always)):
                kids = [f.sub]
            for kid in kids:
                assert idx.id_of(kid) < fid

    def test_root_has_largest_id(self):
        f = parse_formula("a U (b & X c)")
        idx = SubformulaIndex(f)
        assert idx.root == len(idx) - 1
        assert idx.formulas[idx.root] == f

    def test_requires_nnf(self):
        with pytest.raises(NnfError):
            SubformulaIndex(Not(a))


@given(nnf_formulas())
@settings(max_examples=200)
def test_subformula_children_precede_parents(f):
    idx = SubformulaIndex(f)
    ids = [idx.id_of(g) for g in idx.formulas]
    assert ids == sorted(ids)
