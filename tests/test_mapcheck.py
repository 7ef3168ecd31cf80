import random

import pytest

from rulerunner import (
    NnfError,
    Trace,
    Verdict,
    check_run,
    compile_formula,
    explain,
    parse_formula,
    parse_trace_inline,
    random_formula,
    run_trace,
    to_nnf,
    truth,
)
from rulerunner.ltl import And, Next, Or, Until, WeakNext
from rulerunner.truth import TRUE


def check(text: str, trace: str):
    return check_run(to_nnf(parse_formula(text)), parse_trace_inline(trace))


# The eleven-step state/judgement evolution of `a | X b` over [b - b]:
# base state, observation, three evaluations, reactivation, observation,
# three evaluations, terminal.
GOLDEN_SEQUENCE = [
    ("R[a], R[X b], R[a | X b]B", "[u,0 ⊨ a] ⊔ [u,0 ⊨ X b]", 0),
    ("R[a], R[X b], R[a | X b]B, b", "[u,0 ⊨ a] ⊔ [u,0 ⊨ X b]", 0),
    ("R[a], R[X b], R[a | X b]B, b, [a]F", "⊥ ⊔ [u,0 ⊨ X b]", 0),
    ("R[a], R[X b], R[a | X b]B, b, [a]F, [X b]?M", "⊥ ⊔ [u,0 ⊨ X b]", 0),
    ("R[a], R[X b], R[a | X b]B, b, [a]F, [X b]?M, [a | X b]?R", "[u,0 ⊨ X b]", 0),
    ("R[b], R[X b]M, R[a | X b]R", "[u,1 ⊨ b]", 1),
    ("R[b], R[X b]M, R[a | X b]R, b", "[u,1 ⊨ b]", 1),
    ("R[b], R[X b]M, R[a | X b]R, b, [b]T", "⊤", 1),
    ("R[b], R[X b]M, R[a | X b]R, b, [b]T, [X b]T", "⊤", 1),
    ("R[b], R[X b]M, R[a | X b]R, b, [b]T, [X b]T, [a | X b]T", "⊤", 1),
    ("SUCCESS", "⊤", 1),
]


class TestGoldenSequence:
    def test_eleven_steps(self):
        report = check("a | X b", "[b - b]")
        assert report.passed
        assert report.verdict is Verdict.SUCCESS
        assert len(report.steps) == 11
        got = [(s.state, s.judgement, s.index) for s in report.steps]
        assert got == GOLDEN_SEQUENCE

    def test_all_values_constant_true(self):
        report = check("a | X b", "[b - b]")
        assert all(s.value is True for s in report.steps)


class TestSimpleRuns:
    def test_single_atom(self):
        report = check("a", "[a]")
        assert report.passed
        assert [s.judgement for s in report.steps] == ["[u,0 ⊨ a]", "[u,0 ⊨ a]", "⊤", "⊤"]

    def test_failing_atom(self):
        report = check("a", "[b]")
        assert report.passed
        assert report.verdict is Verdict.FAILURE
        assert report.steps[-1].judgement == "⊥"
        assert all(s.value is False for s in report.steps)

    def test_weak_next_judgement_uses_weak_leaf(self):
        report = check("W a", "[b]")
        assert report.passed
        assert report.steps[0].judgement == "[u,0 ⊨ W a]"
        assert report.verdict is Verdict.SUCCESS

    def test_until_unfolding_judgement(self):
        report = check("a U b", "[a - b]")
        assert report.passed
        assert report.steps[0].judgement == ("[u,0 ⊨ b] ⊔ [u,0 ⊨ a] ⊓ [u,0 ⊨ X (a U b)]")

    def test_until_right_projection(self):
        # left operand fails immediately: ?R projects onto the right operand
        report = check("a U (X b)", "[c - b]")
        assert report.passed
        judgements = [s.judgement for s in report.steps]
        assert "[u,0 ⊨ X b]" in judgements

    def test_render_mentions_every_step(self):
        report = check("a", "[a]")
        text = report.render()
        assert "PASS" in text
        assert text.count("step") == len(report.steps)


def assert_mapped_in_full(report):
    assert report.skipped_from is None
    assert report.passed, report.render()
    assert report.steps[-1].judgement == ("⊤" if report.verdict is Verdict.SUCCESS else "⊥")


class TestFullGrammar:
    """Runs outside a flat one-row-per-subformula reading of the state:
    eventually/always, several live epochs of one subformula, and folded
    instances.  Every step of each is mapped and checked."""

    def test_eventually_and_always_mapped(self):
        report = check("F a", "[a]")
        assert_mapped_in_full(report)
        assert report.steps[0].judgement == "[u,0 ⊨ a] ⊔ [u,0 ⊨ X F a]"
        report = check("a | G b", "[a]")
        assert_mapped_in_full(report)
        assert report.steps[0].judgement == "[u,0 ⊨ a] ⊔ [u,0 ⊨ b] ⊓ [u,0 ⊨ W G b]"

    def test_multi_epoch_run_mapped(self):
        # (X a) U b keeps an X a pending across the reactivation that spawns
        # the next X a: two live instances of one subformula
        report = check("(X a) U b", "[. - . - a,b]")
        assert_mapped_in_full(report)
        assert report.verdict is Verdict.FAILURE

    def test_folded_run_mapped(self):
        # the a U b spawned for cell 2 is folded into the one spawned for
        # cell 1: one live instance that stands for the obligations of two
        f = to_nnf(parse_formula("W ((a U b) U b)"))
        u = parse_trace_inline("[a - a - a,b - .]")
        assert any(outcome.folded for outcome in run_trace(compile_formula(f), u).outcomes)
        report = check_run(f, u)
        assert_mapped_in_full(report)
        assert report.verdict is Verdict.SUCCESS

    def test_multi_epoch_states_render_as_in_explain(self):
        f = to_nnf(parse_formula("(X a) U b"))
        u = parse_trace_inline("[. - . - a,b]")
        report = check_run(f, u)
        blocks = explain(run_trace(compile_formula(f), u)).split("\n\n")
        cell_states = {}
        for step in report.steps:
            cell_states.setdefault(step.index, step.state)
        assert [f"state : {state}" for state in cell_states.values()] == [block.splitlines()[0] for block in blocks]
        assert cell_states == {0: "R[X a], R[b], R[X a U b]A", 1: "R[a], R[X a]M@0, R[X a]@1, R[b], R[X a U b]B"}
        assert any(step.state.endswith("[X a]F@0, [X a]?M@1") for step in report.steps)


class TestRandomRuns:
    def test_random_core_formulas_pass(self):
        """Seeded random F/G-free formulae and traces: the mapped judgement
        value stays constant and equals the verdict on every checked step."""
        rng = random.Random(2718)
        ops = (Next, WeakNext, Or, And, Until)
        checked = 0
        for _ in range(150):
            f = random_formula(3, ["a", "b"], rng, operators=ops)
            length = rng.randint(1, 5)
            cells = tuple(
                frozenset(x for x in ("a", "b") if rng.random() < 0.5) for _ in range(length)
            )
            report = check_run(f, Trace(cells))
            assert report.passed, report.render()
            checked += 1
        assert checked == 150

    def test_terminal_states_map_to_verdict(self):
        rng = random.Random(3141)
        ops = (Next, WeakNext, Or, And, Until)
        for _ in range(100):
            f = random_formula(2, ["a", "b"], rng, operators=ops)
            cells = tuple(
                frozenset(x for x in ("a", "b") if rng.random() < 0.5)
                for _ in range(rng.randint(1, 4))
            )
            report = check_run(f, Trace(cells))
            last = report.steps[-1]
            assert last.state in ("SUCCESS", "FAILURE")
            assert last.judgement == ("⊤" if report.verdict is Verdict.SUCCESS else "⊥")

    def test_full_grammar_runs_pass(self):
        """Seeded random formulae over every operator, with an observation
        outside the formulae's alphabet: every run is mapped in full, and
        some hold several live epochs of one subformula."""
        rng = random.Random(1618)
        multi_epoch = 0
        for _ in range(500):
            f = random_formula(rng.randint(0, 4), ["a", "b"], rng)
            cells = tuple(
                frozenset(x for x in ("a", "b", "c") if rng.random() < 0.5)
                for _ in range(rng.randint(1, 8))
            )
            report = check_run(f, Trace(cells))
            assert_mapped_in_full(report)
            multi_epoch += any("@" in s.state for s in report.steps)
        assert multi_epoch >= 50

    def test_wrong_end_rule_is_a_violation(self, monkeypatch):
        """Fault injection: an eventually that wrongly holds at the end of
        the trace gives a SUCCESS that the mapped judgements contradict."""
        monkeypatch.setitem(truth.END, "eventually", TRUE)
        report = check("F a", "[b - b]")
        assert report.verdict is Verdict.SUCCESS
        assert not report.passed
        assert report.violation_at == 0


def test_deep_next_chain_maps_without_deep_recursion():
    # every judgement leaf is read by `oracle_eval`, which hashes no formula
    report = check("X " * 600 + "a", "[a - a]")
    assert report.passed and report.verdict is Verdict.FAILURE


def test_formula_not_in_nnf_rejected():
    """`check_run` takes an NNF formula; one not normalised is refused."""
    with pytest.raises(NnfError):
        check_run(parse_formula("!(a | b)"), parse_trace_inline("[a]"))
