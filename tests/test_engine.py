import argparse
import collections
import gc
import hashlib
import io
import itertools
import json
import random
import tracemalloc

import pytest

from rulerunner import cli, engine
from rulerunner import (
    CachedMonitor,
    EvalMode,
    Monitor,
    MonitorError,
    RuleName,
    Trace,
    Verdict,
    compile_formula,
    enumerate_formulas,
    explain,
    oracle_eval,
    parse_formula,
    parse_trace_inline,
    random_formula,
    run_trace,
    to_nnf,
)
from rulerunner.rules import K_ATOM, K_NEGATOM, K_TRUE, KINDS
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


class TestRecordedCell:
    """`step` records a cell in the passes that make it; these check the
    record against the live state and the cell, not against itself."""

    def test_state_after_is_the_live_state(self):
        rng = random.Random(2718)
        formulas = [random_formula(3, ["a", "b"], rng) for _ in range(300)]
        formulas += [to_nnf(parse_formula(t)) for t in ("G F X a", "G F a", "(X a) U b")]
        undecided = decided = multi_epoch = 0
        for f in formulas:
            system = compile_formula(f)
            for _ in range(4):
                length = rng.randint(1, 8)
                cells = tuple(frozenset(x for x in "ab" if rng.random() < 0.3) for _ in range(length))
                monitor = Monitor(system)
                for i, cell in enumerate(cells):
                    outcome = monitor.step(cell, is_last=(i == length - 1))
                    if outcome.verdict is not Verdict.UNDECIDED:
                        assert outcome.state_after is None
                        decided += 1
                        break
                    assert outcome.state_after == monitor.active()
                    undecided += 1
                    fids = [fid for fid, _, _ in outcome.state_after]
                    multi_epoch += len(fids) != len(set(fids))
        assert decided == 1212 and undecided > 1000 and multi_epoch > 0

    def test_values_line_up_with_state_before(self):
        """Each leaf's recorded value is its truth on the cell, and the
        root's is the verdict's, read by position in `state_before`."""
        rng = random.Random(1618)
        leaves = {K_ATOM: 0, K_NEGATOM: 0, K_TRUE: 0}
        for _ in range(300):
            system = compile_formula(random_formula(3, ["a", "b"], rng))
            cells = tuple(frozenset(x for x in "abc" if rng.random() < 0.4) for _ in range(rng.randint(1, 8)))
            for outcome in run_trace(system, Trace(cells)).outcomes:
                cell = cells[outcome.cell]
                assert len(outcome.values) == len(outcome.state_before)
                for (fid, _, _), value in zip(outcome.state_before, outcome.values):
                    node = system.nodes[fid]
                    if node.code in leaves:
                        holds = node.code == K_TRUE or (node.atom in cell) is (node.code == K_ATOM)
                        assert value == (TRUE if holds else FALSE)
                        leaves[node.code] += 1
                root = [(fid, epoch) for fid, epoch, _ in outcome.state_before].index((system.root, 0))
                kind = outcome.values[root].kind
                assert {"T": Verdict.SUCCESS, "F": Verdict.FAILURE, "?": Verdict.UNDECIDED}[kind] is outcome.verdict
        assert min(leaves.values()) > 0

    @staticmethod
    def folds(text: str, trace: str, verdict: Verdict, cell: int) -> tuple[list, set[int]]:
        """Each cell's `folded`, after checking the run's end, and how many
        instances each folded subformula held before its fold."""
        result = run(text, trace)
        assert (result.verdict, result.deciding_cell) == (verdict, cell)
        held = set()
        for outcome in result.outcomes:
            for fid in {fid for fid, _ in outcome.folded}:
                held.add(sum(f == fid for f, _, _ in outcome.state_after) + sum(f == fid for f, _ in outcome.folded))
        return [outcome.folded for outcome in result.outcomes], held

    def test_fold_of_two_instances(self):
        """`F a` and `F F a` hold two instances before each fold, with
        operand lists equal only as sets, so they fold as sets."""
        folded, held = self.folds("F F F a", "[. - . - a]", Verdict.SUCCESS, 2)
        assert folded == [((1, 1), (2, 1)), ((1, 2), (2, 2)), ()]
        assert held == {2}

    def test_fold_of_three_instances(self):
        """`F X a` holds three instances before each fold; one folds."""
        folded, held = self.folds("G F X a", "[. - . - . - .]", Verdict.FAILURE, 3)
        assert folded == [(), ((2, 1),), ((2, 2),), ()]
        assert held == {3}


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

    def test_advance_after_verdict_rejected(self):
        monitor = Monitor(system_for("a"))
        assert monitor.advance({"a"}) is Verdict.SUCCESS
        with pytest.raises(MonitorError, match="already produced a verdict"):
            monitor.advance({"a"}, is_last=True)

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

    # an until root's value at every cell it fires: every annotation an
    # until can answer, and both verdicts
    UNTIL_RUNS = [
        ("(F a) U b", "[. - b - .]", ["?B", "?L", "F"]),  # b witnesses at cell 1, F a never holds
        ("(F a) U b", "[. - b - a]", ["?B", "?L", "T"]),  # ... and a confirms the witness at cell 2
        ("a U (F b)", "[. - . - b]", ["?R", "?R", "T"]),  # a failed at cell 0, only F b can decide
        ("a U b", "[a - c - a]", ["?A", "F"]),  # the chain breaks at cell 1 with no witness
        ("a U b", "[a - b - a]", ["?A", "T"]),
    ]

    @pytest.mark.parametrize("text, trace, values", UNTIL_RUNS, ids=[f"{t} over {u}" for t, u, _ in UNTIL_RUNS])
    def test_until_value_per_cell(self, text, trace, values):
        system = system_for(text)
        outcomes = run_trace(system, parse_trace_inline(trace)).outcomes
        assert [str(value) for o in outcomes for fid, _, value in o.evaluations if fid == system.root] == values


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
        eventually = system.index.formulas.index(to_nnf(parse_formula("F a")))
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

    def test_to_dict_pins_an_until_run(self):
        """Both cells of `a U b` over `[a - b]`, whole: the until waits in
        mode A, then the verdict leaves no active rules."""
        dicts = [outcome.to_dict() for outcome in run("a U b", "[a - b]").outcomes]
        assert dicts == [
            {
                "cell": 0,
                "verdict": "UNDECIDED",
                "observations": ["a"],
                "evaluations": [
                    {"formula": "a", "epoch": 0, "value": "T"},
                    {"formula": "b", "epoch": 0, "value": "F"},
                    {"formula": "a U b", "epoch": 0, "value": "?A"},
                ],
                "active": [
                    {"rule": "R[a]", "epoch": 1},
                    {"rule": "R[b]", "epoch": 1},
                    {"rule": "R[a U b]A", "epoch": 0},
                ],
            },
            {
                "cell": 1,
                "verdict": "SUCCESS",
                "observations": ["b"],
                "evaluations": [
                    {"formula": "a", "epoch": 1, "value": "F"},
                    {"formula": "b", "epoch": 1, "value": "T"},
                    {"formula": "a U b", "epoch": 0, "value": "T"},
                ],
                "active": None,
            },
        ]
        assert all(json.loads(json.dumps(d)) == d for d in dicts)

    def test_to_dict_lists_every_epoch_of_a_rule(self):
        """`G F X a` over `[. - . - a]` keeps two epochs of `F X a` after
        cell 1, and the active list names each one."""
        dicts = [outcome.to_dict() for outcome in run("G F X a", "[. - . - a]").outcomes]
        assert [d["verdict"] for d in dicts] == ["UNDECIDED", "UNDECIDED", "FAILURE"]
        assert dicts[1]["active"] == [
            {"rule": "R[a]", "epoch": 2},
            {"rule": "R[X a]M", "epoch": 1},
            {"rule": "R[X a]", "epoch": 2},
            {"rule": "R[F X a]", "epoch": 0},
            {"rule": "R[F X a]", "epoch": 2},
            {"rule": "R[G F X a]", "epoch": 0},
        ]
        assert all(json.loads(json.dumps(d)) == d for d in dicts)

    def test_outcome_repr_names_the_formula_not_the_system(self):
        spec = " & ".join(f"G (!p{i} | F q{i})" for i in range(20))
        for text in ("G F a", spec):
            system = system_for(text)
            outcome = Monitor(system).step({"p0"})
            assert repr(system) == f"RuleSystem({system.formula_text(system.root)!r})"
            assert "NodeInfo" not in repr(outcome)
            assert len(repr(outcome)) == len(repr(outcome._replace(system=None))) - len("None") + len(repr(system))

    def test_outcome_contract(self):
        """Over seeded depth-3 runs, an outcome is read-only, its
        evaluations fire exactly the state_before instances in order, its
        observations are sorted and its dict keeps its keys."""
        rng = random.Random(1618)
        fields = ("system", "cell", "verdict", "state_before", "observations", "values", "state_after", "folded")
        fields += ("evaluations",)
        outcomes = 0
        for _ in range(300):
            system = compile_formula(random_formula(3, ["a", "b"], rng))
            cells = tuple(frozenset(x for x in "abc" if rng.random() < 0.4) for _ in range(rng.randint(1, 8)))
            for outcome in run_trace(system, Trace(cells)).outcomes:
                outcomes += 1
                for name in fields:
                    with pytest.raises(AttributeError):
                        setattr(outcome, name, None)
                assert [(fid, epoch) for fid, epoch, _ in outcome.evaluations] == [
                    (fid, epoch) for fid, epoch, _ in outcome.state_before
                ]
                assert [value for _, _, value in outcome.evaluations] == list(outcome.values)
                assert list(outcome.observations) == sorted(cells[outcome.cell])
                d = outcome.to_dict()
                assert list(d) == ["cell", "verdict", "observations", "evaluations", "active"]
                assert all(list(e) == ["formula", "epoch", "value"] for e in d["evaluations"])
                assert all(list(e) == ["rule", "epoch"] for e in d["active"] or ())
        assert outcomes > 600


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

    def test_live_instances_are_those_the_root_reaches(self):
        """After every undecided step, the live instances are exactly those
        reachable from the root through operand lists: nothing unreachable
        is kept, and no operand held by a live instance was dropped."""
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
                    live = {inst: fid for fid, insts in enumerate(monitor._live) for inst in insts.values()}
                    reached = set()
                    todo = [monitor._root]
                    while todo:
                        inst = todo.pop()
                        if inst not in reached and inst is not engine._T and inst is not engine._F:
                            reached.add(inst)
                            todo.extend(inst.ops)
                    assert reached == live.keys(), (
                        system.formula_text(system.root),
                        f"{len(live.keys() - reached)} live but unreachable",
                        f"{len(reached - live.keys())} reachable but not live",
                    )
                    # the read-only view names every operand inside itself or as T/F
                    view = monitor.instances()
                    assert [(fid, epoch, mode) for fid, epoch, mode, _ in view] == list(monitor.active())
                    names = {(fid, epoch) for fid, epoch, _, _ in view}
                    assert all(op in names or op in (TRUE, FALSE) for _, _, _, ops in view for op in ops)
                    kinds.update(KINDS[system.nodes[fid].code] for inst, fid in live.items() if inst.ops)
                    checks += 1
        assert {"eventually", "always", "until"} <= kinds
        assert checks > 8_000

    def test_kept_undecided_instance_takes_its_annotation_as_mode(self):
        """The reactivation rule: every instance that stays live undecided
        is monitored in the next cell in the mode its value names."""
        rng = random.Random(1729)
        checks = 0
        for _ in range(600):
            system = compile_formula(random_formula(3, ["a", "b"], rng))
            for _ in range(4):
                _, cells = random_run(rng, 0, rng.randint(1, 10))
                for outcome in run_trace(system, Trace(cells)).outcomes:
                    if outcome.state_after is None:
                        break
                    modes = {(fid, epoch): mode for fid, epoch, mode in outcome.state_after}
                    for fid, epoch, value in outcome.evaluations:
                        if value.kind == "?" and (fid, epoch) in modes:
                            assert modes[fid, epoch] is value.mode, (system.formula_text(system.root), cells)
                            checks += 1
        assert checks > 8_000

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
        cache_mismatches = []
        for k in range(1500):
            f = random_formula(3 + k % 2, ["a", "b"], rng)
            system = compile_formula(f)
            cache = CachedMonitor(system)
            for _ in range(4):
                density = rng.choice((0.05, 0.3, 0.7))
                cells = tuple(
                    frozenset(x for x in ("a", "b") if rng.random() < density)
                    for _ in range(rng.randint(10, 60))
                )
                trace = Trace(cells)
                result = run_trace(system, trace)
                verdict = result.verdict
                runs += 1
                if verdict is Verdict.UNDECIDED or (verdict is Verdict.SUCCESS) != oracle_eval(f, trace, 0):
                    mismatches.append((f, cells, verdict))
                if cache.run(cells) != (verdict, result.deciding_cell):
                    cache_mismatches.append((f, cells, cache.run(cells), verdict, result.deciding_cell))
            assert len(cache) <= engine.NODE_CAP
        assert runs == 6000
        assert mismatches == []
        assert cache_mismatches == []


def random_run(rng, depth: int, length: int, atoms: str = "ab"):
    f = random_formula(depth, ["a", "b"], rng)
    density = rng.choice((0.05, 0.3, 0.7))
    cells = tuple(frozenset(x for x in atoms if rng.random() < density) for _ in range(length))
    return f, cells


class TestClone:
    def test_clone_resumed_at_any_cell_ends_like_the_original(self):
        rng = random.Random(4242)
        resumed = crowded = 0
        for k in range(600):
            f, cells = random_run(rng, 3 + k % 2, rng.randint(2, 16), "abc")
            system = compile_formula(f)
            whole = run_trace(system, Trace(cells))
            monitor = Monitor(system)
            last = len(cells) - 1
            for i in range(len(whole.outcomes)):
                twin = monitor.clone()
                tail = []
                for j in range(i, len(cells)):
                    tail.append(twin.step(cells[j], is_last=(j == last)))
                    if twin.finished:
                        break
                assert twin.verdict is whole.verdict
                assert tail[-1].cell == whole.deciding_cell
                assert explain(tail) == explain(whole.outcomes[i:])
                resumed += 1
                crowded += "@" in tail[0].rows()  # resumed with several epochs of one subformula live
                monitor.step(cells[i], is_last=(i == last))
        assert resumed > 2000 and crowded > 50

    def test_stepping_a_clone_leaves_the_original_unchanged(self):
        rng = random.Random(99)
        for k in range(200):
            f, cells = random_run(rng, 3 + k % 2, 12)
            monitor = Monitor(compile_formula(f))
            for cell in cells:
                view = monitor.instances()
                twin = monitor.clone()
                assert twin.instances() == view
                if k % 2:
                    twin.advance(cell)
                else:
                    twin.step(cell, is_last=True)
                assert monitor.instances() == view
                if monitor.advance(cell) is not Verdict.UNDECIDED:
                    break


def letters_of(system) -> list[frozenset[str]]:
    """Every letter over the formula's atoms, and one off-alphabet cell."""
    atoms = sorted({node.atom for node in system.nodes if node.atom is not None})
    letters = [frozenset(c) for r in range(len(atoms) + 1) for c in itertools.combinations(atoms, r)]
    return letters + [frozenset({"z"})]


class TestPeek:
    def test_peek_answers_as_an_advanced_clone_and_leaves_the_state(self):
        """On every state of seeded runs, `peek` returns what
        `clone().advance` returns for every letter, before the last cell and
        at it, and leaves the instance graph, its size and its cache key as
        they were; the peeked monitor then steps as an unpeeked one does."""
        rng = random.Random(2021)
        peeks = decided = 0
        for k in range(1000):
            f, cells = random_run(rng, 2 + k % 3, rng.randint(1, 10), "abc")
            system = compile_formula(f)
            letters = letters_of(system)
            monitor = Monitor(system)
            outcomes = []
            last = len(cells) - 1
            for i, cell in enumerate(cells):
                view, count, key = monitor.instances(), monitor.live_count(), engine._state_key(monitor)
                for letter in letters:
                    for is_last in (False, True):
                        want = monitor.clone().advance(letter, is_last)
                        assert monitor.peek(letter, is_last) is want, (f, cells[:i], letter, is_last)
                        peeks += 1
                        decided += want is not Verdict.UNDECIDED
                assert monitor.instances() == view
                assert monitor.live_count() == count
                assert engine._state_key(monitor) == key
                outcomes.append(monitor.step(cell, is_last=(i == last)))
                if monitor.finished:
                    break
            assert explain(outcomes) == explain(run_trace(system, Trace(cells)))
        assert peeks > 15_000 and 0.2 < decided / peeks < 0.9

    def test_peek_on_a_finished_monitor_raises(self):
        monitor = Monitor(system_for("a"))
        assert monitor.advance({"a"}) is Verdict.SUCCESS
        with pytest.raises(MonitorError):
            monitor.peek({"a"})
        with pytest.raises(MonitorError):
            monitor.peek(set(), is_last=True)


class TestCachedMonitor:
    @pytest.mark.parametrize("cap", [1, 3])
    def test_small_cap_hands_out_more_states_than_it_keeps(self, monkeypatch, cap):
        """Past the cap, states are handed out without being kept, and the
        verdicts stay those of `run_trace`."""
        monkeypatch.setattr(engine, "NODE_CAP", cap)
        rng = random.Random(cap)
        beyond = 0
        for k in range(150):
            f = random_formula(3 + k % 2, ["a", "b"], rng)
            system = compile_formula(f)
            cache = CachedMonitor(system)
            handed_out = {cache.initial}
            for _ in range(4):
                _, cells = random_run(rng, 0, rng.randint(1, 40), "abc")
                result = run_trace(system, Trace(cells))
                assert cache.run(cells) == (result.verdict, result.deciding_cell), (f, cells)
                assert len(cache) <= cap
                state = cache.initial
                for cell in cells[:-1]:
                    state = cache.next(state, cell)
                    if isinstance(state, Verdict):
                        break
                    handed_out.add(state)
            beyond += len(handed_out) > cap
            kept = cache._kept
            for row in cache.table.values():  # no kept state leads to an unkept one
                assert all(state in kept for state in row)
                assert all(target in kept or isinstance(target, Verdict) for target in row.values())
        assert beyond > 20  # walks went past the cap

    def test_walk_past_the_cap_reenters_kept_states(self, monkeypatch):
        monkeypatch.setattr(engine, "NODE_CAP", 1)
        cache = CachedMonitor(system_for("G (a | X b)"))
        assert cache.next(cache.next(cache.initial, set()), {"a", "b"}) is cache.initial
        assert len(cache) == 1

    def test_unkept_states_add_no_rows(self, monkeypatch):
        """A walk through states past the cap records nothing, not even an
        empty row for a letter it reads."""
        monkeypatch.setattr(engine, "NODE_CAP", 1)
        cache = CachedMonitor(system_for("G (a | X b)"))
        after = cache.next(cache.initial, set())
        assert cache.next(after, {"a"}) is Verdict.FAILURE
        assert cache.end(after, {"a", "b"}) is Verdict.SUCCESS
        assert cache.table == {} and cache._ends == {}

    def test_states_are_never_stepped(self):
        """`next` and `end` leave the state they are given as it was."""
        cache = CachedMonitor(system_for("G (a | X b)"))
        state = cache.initial
        view = state.instances()
        assert cache.end(state, {"a"}) is Verdict.SUCCESS
        assert cache.end(state, set()) is Verdict.FAILURE
        after = cache.next(state, set())
        assert cache.end(after, set()) is Verdict.FAILURE
        assert cache.next(after, set()) is Verdict.FAILURE
        assert cache.next(after, {"a", "b"}) is state
        assert state.instances() == view
        assert len(cache) == 2

    def test_clones_only_for_a_transition_to_a_state(self, monkeypatch):
        """A cold cache clones once per transition to a state, the
        non-verdict entries of its transition `table`, and `end` over every
        kept state and letter clones nothing and answers as an advanced
        clone does."""
        clones = []
        clone = Monitor.clone
        monkeypatch.setattr(Monitor, "clone", lambda self: clones.append(self) or clone(self))
        rng = random.Random(1121)
        for k in range(150):
            f = random_formula(2 + k % 3, ["a", "b"], rng)
            system = compile_formula(f)
            cache = CachedMonitor(system)
            for _ in range(6):
                _, cells = random_run(rng, 0, rng.randint(1, 12), "abc")
                cache.run(cells)
            assert len(cache) < engine.NODE_CAP
            kept = cache._kept
            targets = [t for row in cache.table.values() for t in row.values()]
            assert len(clones) == sum(not isinstance(t, Verdict) for t in targets), f
            del clones[:]
            ends = {(state, letter): cache.end(state, letter) for state in kept for letter in letters_of(system)}
            assert clones == []
            for (state, letter), verdict in ends.items():
                assert verdict is clone(state).advance(letter, is_last=True)

    def test_no_cyclic_garbage(self, monkeypatch):
        """The differential, a cache walk and `stream` build no reference
        cycle, so whatever they drop is freed by reference counting and the
        cyclic collector finds nothing.  `cmd_stream` is called directly, as
        `main`'s argument parser is itself cyclic garbage."""
        formulas = [to_nnf(parse_formula(t)) for t in ("(!b & b) | (!a U !b)", "G F X a", "(X a) U b", "G (!a | F b)")]
        traces = [parse_trace_inline(t) for t in ("[a]", "[. - b]", "[a - a - b]", "[b - a - . - a]")]
        monkeypatch.setattr("sys.stdin", io.StringIO("a\n9bad\n# note\n.\nb\na,b\n$end\n"))
        monkeypatch.setattr("sys.stdout", io.StringIO())
        flags = gc.get_debug()
        gc.collect()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert cli.run_differential(formulas, traces) == (16, [])
            cache = CachedMonitor(system_for("G (a | X b)"))
            state = cache.initial
            for cell in ({"a"}, set(), {"a", "b"}, {"a"}):
                cache.end(state, cell)
                state = cache.next(state, cell)
            del cache, state
            assert cli.cmd_stream(argparse.Namespace(formula="G (!a | F b)")) == 0
            gc.collect()
            garbage = sorted({type(obj).__name__ for obj in gc.garbage})
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert garbage == []

    def test_rule_system_holds_no_cache(self):
        system = system_for("G F X a")
        CachedMonitor(system).run([frozenset(), frozenset({"a"})] * 10)
        assert set(vars(system)) == {"index", "nodes", "init_sets", "root"}

    def test_empty_trace_rejected(self):
        with pytest.raises(MonitorError):
            CachedMonitor(system_for("a")).run(())


def criterion4_runs() -> tuple:
    """Criterion-4-style traces (9 per length 1-6 and density), some of them
    twice, and prefixes of some, each of which ends where the run it cuts
    goes on; shuffled, so a part's runs are not adjacent."""
    rng = random.Random(404)
    runs = [
        tuple(frozenset(x for x in "ab" if rng.random() < density) for _ in range(length))
        for length in range(1, 7)
        for density in (0.0, 0.3, 0.7, 1.0)
        for _ in range(9)
    ]
    runs += runs[::7]
    runs += [cells[:k] for cells in runs[::5] for k in range(1, len(cells))]
    rng.shuffle(runs)
    return tuple(runs)


def run_family(rng) -> tuple:
    """A 10-60-cell trace, traces that branch off it, a prefix of it and a
    repeat of one of them."""
    density = rng.choice((0.05, 0.3, 0.7))

    def cells(n):
        return tuple(frozenset(x for x in "abc" if rng.random() < density) for _ in range(n))

    base = cells(rng.randint(10, 60))
    runs = [base]
    for _ in range(5):
        cut = rng.randrange(len(base))
        runs.append(base[:cut] + cells(rng.randint(max(1, 10 - cut), 60 - cut)))
    runs.append(base[: rng.randint(1, len(base))])
    runs.append(runs[rng.randrange(len(runs))])
    return tuple(runs)


def deep_families(count: int = 300):
    rng = random.Random(3303)
    return [(random_formula(3 + k % 2, ["a", "b"], rng), run_family(rng)) for k in range(count)]


class TestRunMany:
    def test_criterion4_runs_match_run(self):
        runs = criterion4_runs()
        assert len(set(runs)) < len(runs)
        for f in enumerate_formulas(2, ["a", "b"])[::10]:
            system = compile_formula(f)
            run = CachedMonitor(system).run
            assert CachedMonitor(system).run_many(runs) == [run(cells) for cells in runs], f

    @pytest.mark.parametrize("cap", [None, 1])
    def test_shared_prefix_families_match_run(self, monkeypatch, cap):
        """With a cap of 1, every state found past the initial one is handed
        out unkept, so parts walk on states that remember nothing."""
        if cap is not None:
            monkeypatch.setattr(engine, "NODE_CAP", cap)
        for f, runs in deep_families():
            system = compile_formula(f)
            cache = CachedMonitor(system)
            want = [cache.run(cells) for cells in runs]
            assert CachedMonitor(system).run_many(runs) == want, (f, runs)
            assert cache.run_many(runs) == want  # warm

    def test_each_transition_is_missed_as_per_run(self):
        """On fresh caches, `run_many` misses each (state, letter, is_last)
        exactly as often as `run` over each run does: no transition is
        fired twice or skipped."""

        def recorded(cache):
            calls = []
            miss = cache._miss
            cache._miss = lambda state, letter, is_last=False: (
                calls.append((engine._state_key(state), letter, is_last)) or miss(state, letter, is_last)
            )
            return calls

        pairs = [(f, criterion4_runs()) for f in enumerate_formulas(2, ["a", "b"])[::97]] + deep_families(100)
        for f, runs in pairs:
            system = compile_formula(f)
            together, alone = CachedMonitor(system), CachedMonitor(system)
            calls_together, calls_alone = recorded(together), recorded(alone)
            together.run_many(runs)
            for cells in runs:
                alone.run(cells)
            assert calls_together and collections.Counter(calls_together) == collections.Counter(calls_alone), f

    def test_no_runs_and_an_empty_run(self):
        cache = CachedMonitor(system_for("G (a | X b)"))
        assert cache.run_many(()) == []
        with pytest.raises(MonitorError, match="cannot monitor an empty trace"):
            cache.run_many(((frozenset({"a"}),), ()))


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

    @pytest.mark.parametrize("text, pattern", PROBES, ids=[text for text, _ in PROBES])
    def test_live_instances_bounded_on_clones(self, text, pattern):
        system = system_for(text)
        monitor = Monitor(system)
        bound = 2 * len(system.nodes)
        for i in range(5000):
            if i % 500 == 0:
                twin = monitor.clone()
                assert twin.live_count() == monitor.live_count()
                for j in range(i, i + 500):
                    twin.step(pattern[j % len(pattern)])
                    assert twin.live_count() <= bound, f"{text}: {twin.live_count()} live on a clone"
            monitor.step(pattern[i % len(pattern)])

    # formula, its node count and the most live instances it keeps
    ABOVE_TWICE_NODES = [("G (true U X X X true)", 6, 15), ("G (true U X X X a)", 7, 16)]

    @pytest.mark.parametrize("text, nodes, peak", ABOVE_TWICE_NODES, ids=[t for t, _, _ in ABOVE_TWICE_NODES])
    @pytest.mark.parametrize("cells", ["empty", "random"])
    def test_live_state_above_twice_nodes_is_flat(self, text, nodes, peak, cells):
        """`2 × nodes` bounds the seven probes above, not every formula: an
        until over a chain of nexts keeps each pending epoch's chain of
        mirroring next instances, more than twice its nodes.  That state is
        still bounded by the formula: its peak over cells 1,000–20,000
        equals its peak over the first 1,000."""
        system = system_for(text)
        assert len(system.nodes) == nodes
        rng = random.Random(30)
        monitor = Monitor(system)
        first = later = 0
        for i in range(20_000):
            monitor.advance(() if cells == "empty" else [x for x in "ab" if rng.random() < 0.5])
            if i < 1000:
                first = max(first, monitor.live_count())
            else:
                later = max(later, monitor.live_count())
        assert not monitor.finished
        assert first == later == peak > 2 * nodes

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


# sha256 of the rendered runs below; a change to it means `explain`,
# `to_dict` or `folded` changed on some run
RENDERED_RUNS_DIGEST = "56c5cf5a1a9bef64b81b252717c38bdfd3d53d1fa08662e2545d6e9b87b4aad0"


def test_rendered_runs_match_pinned_digest():
    """A refactor of the engine leaves every per-cell view byte-identical:
    `explain`, each outcome's `to_dict()` and `folded`, over 3,000 seeded
    runs of depth-2 to depth-4 formulae."""
    rng = random.Random(20261018)
    digest = hashlib.sha256()
    for k in range(1000):
        system = compile_formula(random_formula(2 + k % 3, ["a", "b"], rng))
        for _ in range(3):
            density = rng.choice((0.05, 0.3, 0.7))
            cells = [frozenset(x for x in "abc" if rng.random() < density) for _ in range(rng.randint(1, 40))]
            result = run_trace(system, Trace(tuple(cells)))
            digest.update(explain(result).encode())
            for outcome in result.outcomes:
                digest.update(json.dumps(outcome.to_dict()).encode())
                digest.update(repr(outcome.folded).encode())
    assert digest.hexdigest() == RENDERED_RUNS_DIGEST


# sha256 of the instance graphs and cache states below; a change to it means
# `instances()`, `live_count()`, a cached verdict or a cache's size changed
INSTANCE_GRAPHS_DIGEST = "07b4712142ea6dafb7d0269fb71f12d2c13c5feab4cf6a0a42516fb8ae278a12"


def test_instance_graphs_and_cache_states_match_pinned_digest():
    """A refactor of the engine leaves the state between cells as it was:
    the live instance graph and count after every `advance`, and each run's
    cached verdict and the number of states its `CachedMonitor` keeps after
    it, forwards and reversed, over 3,000 seeded runs of depth-2 to depth-4
    formulae."""
    rng = random.Random(20261019)
    digest = hashlib.sha256()
    for k in range(1000):
        system = compile_formula(random_formula(2 + k % 3, ["a", "b"], rng))
        cache = CachedMonitor(system)
        for _ in range(3):
            _, cells = random_run(rng, 0, rng.randint(1, 30), "abc")
            monitor = Monitor(system)
            for i, cell in enumerate(cells):
                verdict = monitor.advance(cell, is_last=(i == len(cells) - 1))
                graph = [
                    [fid, epoch, mode.name, [op if isinstance(op, tuple) else str(op) for op in ops]]
                    for fid, epoch, mode, ops in monitor.instances()
                ]
                digest.update(json.dumps([str(verdict), monitor.live_count(), graph]).encode())
                if verdict is not Verdict.UNDECIDED:
                    break
            for walk in (cells, cells[::-1]):
                verdict, cell = cache.run(walk)
                digest.update(f"{verdict} {cell} {len(cache)};".encode())
    assert digest.hexdigest() == INSTANCE_GRAPHS_DIGEST
