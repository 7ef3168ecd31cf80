import collections
import itertools
import random
import tracemalloc

import pytest

from rulerunner import (
    EvalMode,
    Monitor,
    MonitorError,
    RuleName,
    Trace,
    Verdict,
    compile_formula,
    explain,
    oracle_eval,
    parse_formula,
    parse_trace_inline,
    random_formula,
    run_trace,
    to_nnf,
)
from rulerunner.truth import FALSE, TRUE


def system_for(text: str):
    return compile_formula(to_nnf(parse_formula(text)))


def run(text: str, trace: str):
    return run_trace(system_for(text), parse_trace_inline(trace))


def verdict_of(text: str, trace: str) -> Verdict:
    return run(text, trace).verdict


class TestInitialState:
    def test_worked_example(self):
        monitor = Monitor(system_for("a | F b"))
        state = monitor.active()
        rendered = ", ".join(
            RuleName(fid, mode).render(monitor.system.index) for fid, _, mode in state
        )
        assert rendered == "R[a], R[b], R[F b], R[a | F b]B"
        assert all(epoch == 0 for _, epoch, _ in state)

    def test_true(self):
        monitor = Monitor(system_for("true"))
        assert [monitor.system.formula_text(fid) for fid, _, _ in monitor.active()] == ["true"]

    def test_next_holds_back_operand(self):
        monitor = Monitor(system_for("X a"))
        assert [monitor.system.formula_text(fid) for fid, _, _ in monitor.active()] == ["X a"]


class TestWorkedExampleEvolution:
    """The three-block evolution of `a | F b` over [c - a - b,d - b]."""

    def test_blocks(self):
        result = run("a | F b", "[c - a - b,d - b]")
        blocks = [o.rows() for o in result.outcomes]
        assert blocks[0] == (
            "state : R[a], R[b], R[F b], R[a | F b]B\n"
            "+ obs : R[a], R[b], R[F b], R[a | F b]B, c\n"
            "eval  : [a]F, [b]F, [F b]?, [a | F b]?R\n"
            "react : R[b], R[F b], R[a | F b]R"
        )
        assert blocks[1] == (
            "state : R[b], R[F b], R[a | F b]R\n"
            "+ obs : R[b], R[F b], R[a | F b]R, a\n"
            "eval  : [b]F, [F b]?, [a | F b]?R\n"
            "react : R[b], R[F b], R[a | F b]R"
        )
        assert blocks[2] == (
            "state : R[b], R[F b], R[a | F b]R\n"
            "+ obs : R[b], R[F b], R[a | F b]R, b, d\n"
            "eval  : [b]T, [F b]T, [a | F b]T, SUCCESS\n"
            "STOP  : PROPERTY SATISFIED"
        )

    def test_stops_at_cell_two_without_reading_on(self):
        result = run("a | F b", "[c - a - b,d - b]")
        assert result.verdict is Verdict.SUCCESS
        assert result.deciding_cell == 2
        assert len(result.outcomes) == 3  # the fourth cell is never consumed

    def test_off_alphabet_observations_ignored(self):
        assert verdict_of("a | F b", "[c - a - b,d - b]") is verdict_of("a | F b", "[. - a - b - b]")


class TestStateHandOff:
    def test_state_before_is_previous_state_after(self):
        rng = random.Random(2718)
        formulas = [random_formula(3, ["a", "b"], rng) for _ in range(300)]
        formulas += [to_nnf(parse_formula(t)) for t in ("G F X a", "G F a", "(X a) U b")]
        multi_epoch = 0
        for f in formulas:
            system = compile_formula(f)
            initial = Monitor(system).active()
            for _ in range(4):
                length = rng.randint(1, 8)
                cells = tuple(frozenset(x for x in "ab" if rng.random() < 0.3) for _ in range(length))
                outcomes = run_trace(system, Trace(cells)).outcomes
                assert outcomes[0].state_before == initial
                for prev, cur in zip(outcomes, outcomes[1:]):
                    assert cur.state_before == prev.state_after
                    fids = [fid for fid, _, _ in cur.state_before]
                    multi_epoch += len(fids) != len(set(fids))
        assert multi_epoch > 0  # the hand-off was exercised with several epochs of one formula live


class TestStepExamples:
    def test_atom_unobserved_fails_at_once(self):
        monitor = Monitor(system_for("a"))
        outcome = monitor.step(set(), is_last=True)
        assert outcome.verdict is Verdict.FAILURE

    def test_step_after_verdict_rejected(self):
        monitor = Monitor(system_for("a"))
        monitor.step({"a"}, is_last=False)
        assert monitor.finished
        with pytest.raises(MonitorError):
            monitor.step({"a"}, is_last=True)

    def test_cross_epoch_until(self):
        # the only witness requires X a at cells 0 and 1; a is absent at cell 2
        assert verdict_of("(X a) U b", "[. - a - b]") is Verdict.FAILURE
        # here the witness at cell 2 sees both X a obligations satisfied
        assert verdict_of("(X a) U b", "[. - a - a,b]") is Verdict.SUCCESS

    def test_disjunction_with_next(self):
        result = run("a | X b", "[b - b]")
        assert result.verdict is Verdict.SUCCESS
        assert result.deciding_cell == 1

    def test_always_survives_to_end(self):
        assert verdict_of("G a", "[a - a - a]") is Verdict.SUCCESS
        assert verdict_of("G a", "[a - b - a]") is Verdict.FAILURE

    def test_true_succeeds_immediately(self):
        result = run("true", "[.]")
        assert result.verdict is Verdict.SUCCESS and result.deciding_cell == 0

    def test_weak_next_variants(self):
        assert verdict_of("W a", "[b]") is Verdict.SUCCESS  # no next cell
        assert verdict_of("W a", "[b - a]") is Verdict.SUCCESS
        assert verdict_of("W a", "[b - b]") is Verdict.FAILURE

    def test_until_resolves_at_end_marker(self):
        # undecided up to the last cell, forced binary there
        assert verdict_of("a U b", "[a - a - a]") is Verdict.FAILURE
        assert verdict_of("a U b", "[a - a - b]") is Verdict.SUCCESS


class TestRunTrace:
    def test_empty_trace_rejected(self):
        with pytest.raises(Exception):
            run_trace(system_for("a"), Trace(()))

    def test_verdict_binary_at_end_smoke(self):
        rng = random.Random(77)
        for _ in range(200):
            f = random_formula(3, ["a", "b"], rng)
            cells = tuple(
                frozenset(x for x in ("a", "b") if rng.random() < 0.5)
                for _ in range(rng.randint(1, 5))
            )
            result = run_trace(compile_formula(f), Trace(cells))
            assert result.verdict in (Verdict.SUCCESS, Verdict.FAILURE)


class TestExplain:
    def test_single_cell_success(self):
        text = explain(run("a", "[a]"))
        assert text.endswith("STOP  : PROPERTY SATISFIED")
        assert "eval  : [a]T, SUCCESS" in text

    def test_failure_rendering(self):
        text = explain(run("a", "[b]"))
        assert "eval  : [a]F, FAILURE" in text
        assert text.endswith("STOP  : PROPERTY FALSIFIED")

    def test_next_two_phase_rendering(self):
        result = run("X a", "[a - a]")
        first = result.outcomes[0].rows()
        assert "eval  : [X a]?M" in first
        assert "react : R[a], R[X a]M" in first
        second = result.outcomes[1].rows()
        assert "state : R[a], R[X a]M" in second
        assert "eval  : [a]T, [X a]T, SUCCESS" in second

    def test_epoch_tags_appear_only_under_concurrency(self):
        # F (X a): a fresh X a instance is spawned every cell, so two live
        # instances of X a coexist and get @cell tags
        result = run("F (X a)", "[b - b - a]")
        middle = result.outcomes[1].rows()
        assert "R[X a]M@0" in middle and "R[X a]@1" in middle

    def test_folded_instances_leave_the_state(self):
        # G F a: the F a spawned at cell 1 waits on the same a as the one
        # spawned at cell 0, so it is folded into it and F a keeps epoch 0
        system = system_for("G F a")
        eventually = system.index.id_of(to_nnf(parse_formula("F a")))
        outcomes = run_trace(system, parse_trace_inline("[. - . - .]")).outcomes
        for outcome in outcomes[:-1]:
            assert outcome.folded == ((eventually, outcome.cell + 1),)
            assert [epoch for fid, epoch, _ in outcome.state_after if fid == eventually] == [0]
        assert "@" not in explain(outcomes)

    def test_until_with_broken_chain_spawns_no_operands(self):
        # a fails at cell 0, so no later cell can witness a U (F b): the
        # until stays in mode R and a is not spawned again
        result = run("a U (F b)", "[. - . - . - b]")
        assert result.verdict is Verdict.SUCCESS
        outcomes = result.outcomes
        assert outcomes[0].state_after[-1][2] is EvalMode.R
        assert "R[a]" in outcomes[0].rows()
        for outcome in outcomes[1:]:
            assert "R[a]" not in outcome.rows()

    def test_empty_cell_row(self):
        result = run("a", "[.]")
        rows = result.outcomes[0].rows()
        assert "+ obs : R[a]\n" in rows


class TestMachineSnapshot:
    def test_to_dict_stable(self):
        result = run("a | F b", "[c - a]")
        d = result.outcomes[0].to_dict()
        assert d["cell"] == 0
        assert d["verdict"] == "UNDECIDED"
        assert d["observations"] == ["c"]
        assert d["evaluations"][0] == {"formula": "a", "epoch": 0, "value": "F"}
        assert {"rule": "R[a | F b]R", "epoch": 0} in d["active"]


class TestInvariants:
    def test_single_pass_per_instance(self):
        rng = random.Random(13)
        for _ in range(100):
            f = random_formula(3, ["a", "b"], rng)
            system = compile_formula(f)
            monitor = Monitor(system)
            length = rng.randint(1, 5)
            for i in range(length):
                obs = frozenset(x for x in ("a", "b") if rng.random() < 0.5)
                outcome = monitor.step(obs, is_last=(i == length - 1))
                fired = [(fid, epoch) for fid, epoch, _ in outcome.evaluations]
                assert len(fired) == len(set(fired))
                if outcome.verdict is not Verdict.UNDECIDED:
                    break

    def test_operands_evaluate_before_parents(self):
        # firing order is the compiled post-order: children carry smaller ids
        result = run("(a U b) | G (a & X b)", "[a - a,b]")
        for outcome in result.outcomes:
            order = [fid for fid, _, _ in outcome.evaluations]
            assert order == sorted(order)

    def test_terminal_freezes_state(self):
        monitor = Monitor(system_for("F a"))
        monitor.step({"a"}, is_last=False)
        assert monitor.finished and monitor.verdict is Verdict.SUCCESS
        frozen = monitor.active()
        with pytest.raises(MonitorError):
            monitor.step(set(), is_last=False)
        assert monitor.active() == frozen

    def test_degeneration_single_epoch_for_propositional_operands(self):
        """Temporal operators over propositional operands never hold two
        live instances of any subformula, matching the flat-state model."""
        formulas = ["G a", "F (a & b)", "a U b", "G (a | !b)", "(a U b) | F a", "a U (b & !a)"]
        rng = random.Random(5)
        for text in formulas:
            system = system_for(text)
            for _ in range(20):
                monitor = Monitor(system)
                length = rng.randint(1, 6)
                for i in range(length):
                    obs = frozenset(x for x in ("a", "b") if rng.random() < 0.4)
                    outcome = monitor.step(obs, is_last=(i == length - 1))
                    for entries in (outcome.state_before, outcome.evaluations, outcome.state_after or ()):
                        fids = [fid for fid, _, _ in entries]
                        assert len(fids) == len(set(fids))
                    if outcome.verdict is not Verdict.UNDECIDED:
                        break

    def test_reference_counts_match_holders(self):
        """After every step, a live instance's `refs` is the number of
        references to it in live instances' operand lists, plus the
        monitor's one on the root."""
        rng = random.Random(6170)
        checks = 0
        kinds = set()
        for k in range(300):
            system = compile_formula(random_formula(3 + k % 2, ["a", "b"], rng))
            for _ in range(4):
                monitor = Monitor(system)
                density = rng.choice((0.05, 0.3, 0.7))
                for _ in range(rng.randint(10, 60)):
                    monitor.step(frozenset(x for x in ("a", "b") if rng.random() < density))
                    if monitor.finished:
                        break
                    live = [(fid, inst) for fid, insts in enumerate(monitor._live) for inst in insts.values()]
                    held = collections.Counter(id(sub) for _, inst in live for sub in inst.ops)
                    held[id(monitor._root)] += 1
                    # the read-only view names every operand inside itself or as T/F
                    view = monitor.instances()
                    assert [(fid, epoch, mode) for fid, epoch, mode, _ in view] == list(monitor.active())
                    names = {(fid, epoch) for fid, epoch, _, _ in view}
                    assert all(op in names or op in (TRUE, FALSE) for _, _, _, ops in view for op in ops)
                    for fid, inst in live:
                        assert inst.refs == held[id(inst)], (system.formula_text(fid), inst.refs, held[id(inst)])
                        if inst.ops:
                            kinds.add(system.nodes[fid].kind)
                        checks += 1
        assert {"eventually", "always", "until"} <= kinds
        assert checks > 30_000

    def test_early_verdict_is_stable_under_extension(self):
        rng = random.Random(101)
        checked = 0
        while checked < 300:
            f = random_formula(2, ["a", "b"], rng)
            length = rng.randint(2, 5)
            cells = tuple(
                frozenset(x for x in ("a", "b") if rng.random() < 0.5) for _ in range(length)
            )
            result = run_trace(compile_formula(f), Trace(cells))
            if len(result.outcomes) == length:
                continue  # not an early verdict
            suffix = tuple(
                frozenset(x for x in ("a", "b") if rng.random() < 0.5) for _ in range(3)
            )
            extended = Trace(cells[: len(result.outcomes)] + suffix)
            assert oracle_eval(f, extended, 0) == (result.verdict is Verdict.SUCCESS)
            checked += 1


class TestDifferentialSmoke:
    def test_exhaustive_small_formulas_all_traces(self):
        from rulerunner.cli import run_differential
        from rulerunner.oracle import enumerate_formulas

        cells = [frozenset(), frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"})]
        traces = [
            Trace(tuple(combo))
            for n in (1, 2, 3)
            for combo in itertools.product(cells, repeat=n)
        ]
        comparisons, mismatches = run_differential(enumerate_formulas(1, ["a", "b"]), traces)
        assert comparisons == 100 * 84
        assert mismatches == []

    def test_random_deep_formulas(self):
        from rulerunner.cli import run_differential, _diff_traces

        rng = random.Random(3)
        formulas = [random_formula(4, ["a", "b"], rng) for _ in range(300)]
        traces = _diff_traces(("a", "b"), 25, 6, 11)
        _, mismatches = run_differential(formulas, traces)
        assert mismatches == []

    def test_long_random_traces(self):
        """Criterion 4's traces have at most 6 cells, too few for instances
        of one subformula to fold often; these are 10-60 cells long."""
        rng = random.Random(20261018)
        runs = 0
        mismatches = []
        for k in range(1500):
            f = random_formula(3 + k % 2, ["a", "b"], rng)
            system = compile_formula(f)
            for _ in range(4):
                density = rng.choice((0.05, 0.3, 0.7))
                cells = tuple(
                    frozenset(x for x in ("a", "b") if rng.random() < density)
                    for _ in range(rng.randint(10, 60))
                )
                trace = Trace(cells)
                verdict = run_trace(system, trace).verdict
                runs += 1
                if verdict is Verdict.UNDECIDED or (verdict is Verdict.SUCCESS) != oracle_eval(f, trace, 0):
                    mismatches.append((f, cells, verdict))
        assert runs == 6000
        assert mismatches == []


class TestStateSize:
    def test_always_monitor_state_constant(self):
        system = system_for("G a")
        monitor = Monitor(system)
        sizes = set()
        for i in range(5000):
            monitor.step({"a"}, is_last=False)
            sizes.add(monitor.live_count())
        assert len(sizes) == 1

    # formula, and the observations its undecided trace repeats
    PROBES = [
        ("G a", [{"a"}]),
        ("a U b", [{"a"}]),
        ("G F a", [()]),
        ("G F X a", [()]),
        ("G (!a | F b)", [{"a"}]),
        ("G (a U b)", [{"a"}]),
        ("G (a | X b)", [(), {"a", "b"}]),
    ]

    @pytest.mark.parametrize("text, pattern", PROBES, ids=[text for text, _ in PROBES])
    def test_live_instances_bounded_on_long_traces(self, text, pattern):
        """Live state depends on the formula, not on the trace length: the
        bound holds after every one of 100k undecided cells."""
        system = system_for(text)
        monitor = Monitor(system)
        bound = 2 * len(system.nodes)
        for i in range(100_000):
            monitor.step(pattern[i % len(pattern)])
            assert monitor.live_count() <= bound, f"{text}: {monitor.live_count()} live after cell {i}"
        assert not monitor.finished

    def test_until_keeps_no_settled_cells(self):
        """`a U b` with `a` held settles every cell; none of them stays in
        the until's ledger, so memory does not grow with the trace."""
        monitor = Monitor(system_for("a U b"))
        tracemalloc.start()
        try:
            for _ in range(1000):
                monitor.step({"a"})
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(9000):
                monitor.step({"a"})
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert not monitor.finished
        assert grown < 4096
