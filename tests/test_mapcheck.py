import random

import pytest

from rulerunner import (
    Trace,
    Verdict,
    check_run,
    compile_formula,
    parse_formula,
    parse_trace_inline,
    random_formula,
    run_trace,
    to_nnf,
)
from rulerunner.ltl import And, Next, Or, Until, WeakNext
from rulerunner.mapcheck import UnsupportedFormulaError


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


class TestExclusions:
    def test_eventually_rejected(self):
        with pytest.raises(UnsupportedFormulaError):
            check("F a", "[a]")
        with pytest.raises(UnsupportedFormulaError):
            check("a | G b", "[a]")

    def test_multi_epoch_runs_skipped_not_failed(self):
        # (X a) U b keeps an X a pending across the reactivation that spawns
        # the next X a: two live instances, outside the flat-state model
        report = check("(X a) U b", "[. - . - a,b]")
        assert report.skipped_from is not None
        assert report.passed

    def test_folded_runs_skipped_not_failed(self):
        # the a U b spawned for cell 2 is folded into the one spawned for
        # cell 1: one live instance, but it stands for the obligations of two
        f = to_nnf(parse_formula("W ((a U b) U b)"))
        u = parse_trace_inline("[a - a - a,b - .]")
        outcomes = run_trace(compile_formula(f), u).outcomes
        assert any(outcome.folded for outcome in outcomes)
        for outcome in outcomes:
            fids = [fid for fid, _, _ in outcome.state_before]
            assert len(fids) == len(set(fids))
        report = check_run(f, u)
        assert report.skipped_from is not None
        assert report.passed

    def test_steps_before_skip_are_checked(self):
        report = check("(X a) U b", "[. - . - a,b]")
        assert len(report.steps) == report.skipped_from


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
            if report.skipped_from is None:
                last = report.steps[-1]
                assert last.state in ("SUCCESS", "FAILURE")
                assert last.judgement == ("⊤" if report.verdict is Verdict.SUCCESS else "⊥")
