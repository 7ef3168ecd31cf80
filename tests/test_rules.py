import hashlib
import json
import multiprocessing
import random

import pytest

from rulerunner import (
    Always,
    And,
    Atom,
    EvalMode,
    Eventually,
    NegAtom,
    Next,
    NnfError,
    Not,
    Or,
    TrueConst,
    Until,
    WeakNext,
    compile_formula,
    dump_rules,
    dump_rules_json,
    enumerate_formulas,
    format_formula,
    is_nnf,
    parse_formula,
    parse_trace_inline,
    random_formula,
    rule_count_bound,
    run_trace,
    to_nnf,
)
from rulerunner.rules import EvaluationRule, ObsCond, RuleName, ValueCond
from rulerunner.truth import FALSE, TRUE


def compile_text(text: str):
    return compile_formula(to_nnf(parse_formula(text)))


def rendered_rules(system):
    return [r.render(system.index) for r in system.eval_rules]


def _assert_exclusive(rules) -> None:
    """Raise unless the rules sharing a guard are pairwise exclusive: no
    cell satisfies the conditions of two of them."""
    by_guard: dict[RuleName, list[EvaluationRule]] = {}
    for rule in rules:
        if rule.guard is not None:
            by_guard.setdefault(rule.guard, []).append(rule)
    for guard, group in by_guard.items():
        maps = [_cond_map(rule) for rule in group]
        for i, conds_a in enumerate(maps):
            if conds_a is None:
                continue
            for conds_b in maps[i + 1 :]:
                if conds_b is None:
                    continue
                # two rules overlap iff every condition they share agrees
                if all(conds_a[k] == conds_b[k] for k in conds_a.keys() & conds_b.keys()):
                    raise AssertionError(f"rules for guard {guard} are not mutually exclusive")


def _cond_map(rule: EvaluationRule) -> dict[object, object] | None:
    """Condition set as requirement map; None when the rule is unsatisfiable
    (duplicate operands demanding different values, e.g. within `a U a`)."""
    out: dict[object, object] = {}
    for cond in rule.conditions:
        if isinstance(cond, ValueCond):
            key, req = ("value", cond.fid), cond.klass
        elif isinstance(cond, ObsCond):
            key, req = ("obs", cond.atom), cond.present
        else:
            continue
        if key in out and out[key] != req:
            return None
        out[key] = req
    return out


def _check_exclusive(formulas) -> int:
    """Pool worker: the exclusivity check over one batch of formulae."""
    for f in formulas:
        _assert_exclusive(compile_formula(f).eval_rules)
    return len(formulas)


# The complete listing for `a | F b`: the four atom rules, the three
# eventually rules plus its end-of-trace rule, the nine mode-B disjunction
# rules, three mode-L, three mode-R, and the two terminal rules.
WORKED_EXAMPLE_LISTING = [
    "R[a], a observed -> [a]T",
    "R[a], a not observed -> [a]F",
    "R[b], b observed -> [b]T",
    "R[b], b not observed -> [b]F",
    "R[F b], [b]T -> [F b]T",
    "R[F b], [b]? -> [F b]?",
    "R[F b], [b]F -> [F b]?",
    "[F b]?, [END] -> [F b]F",
    "R[a | F b]B, [a]T, [F b]T -> [a | F b]T",
    "R[a | F b]B, [a]T, [F b]? -> [a | F b]T",
    "R[a | F b]B, [a]T, [F b]F -> [a | F b]T",
    "R[a | F b]B, [a]?, [F b]T -> [a | F b]T",
    "R[a | F b]B, [a]?, [F b]? -> [a | F b]?B",
    "R[a | F b]B, [a]?, [F b]F -> [a | F b]?L",
    "R[a | F b]B, [a]F, [F b]T -> [a | F b]T",
    "R[a | F b]B, [a]F, [F b]? -> [a | F b]?R",
    "R[a | F b]B, [a]F, [F b]F -> [a | F b]F",
    "R[a | F b]L, [a]T -> [a | F b]T",
    "R[a | F b]L, [a]? -> [a | F b]?L",
    "R[a | F b]L, [a]F -> [a | F b]F",
    "R[a | F b]R, [F b]T -> [a | F b]T",
    "R[a | F b]R, [F b]? -> [a | F b]?R",
    "R[a | F b]R, [F b]F -> [a | F b]F",
    "[a | F b]T -> SUCCESS",
    "[a | F b]F -> FAILURE",
]

WORKED_EXAMPLE_REACTIVATIONS = [
    "[F b]? -> R[b], R[F b]",
    "[a | F b]?B -> R[a | F b]B",
    "[a | F b]?L -> R[a | F b]L",
    "[a | F b]?R -> R[a | F b]R",
]


class TestWorkedExample:
    def test_rule_counts(self):
        system = compile_text("a | F b")
        assert len(system.eval_rules) == 25
        assert len(system.react_rules) == 4

    def test_complete_listing(self):
        system = compile_text("a | F b")
        assert rendered_rules(system) == WORKED_EXAMPLE_LISTING
        assert [r.render(system.index) for r in system.react_rules] == WORKED_EXAMPLE_REACTIVATIONS

    def test_initial_state(self):
        system = compile_text("a | F b")
        names = [r.render(system.index) for r in system.initial]
        assert names == ["R[a]", "R[b]", "R[F b]", "R[a | F b]B"]

    def test_dump_contains_listing(self):
        dump = dump_rules(compile_text("a | F b"))
        for line in WORKED_EXAMPLE_LISTING + WORKED_EXAMPLE_REACTIVATIONS:
            assert line in dump
        assert "INITIAL STATE" in dump
        assert "R[a], R[b], R[F b], R[a | F b]B" in dump


class TestBaseCases:
    def test_single_atom(self):
        system = compile_text("a")
        assert rendered_rules(system) == [
            "R[a], a observed -> [a]T",
            "R[a], a not observed -> [a]F",
            "[a]T -> SUCCESS",
            "[a]F -> FAILURE",
        ]
        assert system.react_rules == ()
        assert system.initial == (RuleName(0, EvalMode.PLAIN),)

    def test_negated_atom(self):
        system = compile_text("!a")
        assert rendered_rules(system)[:2] == [
            "R[!a], a observed -> [!a]F",
            "R[!a], a not observed -> [!a]T",
        ]

    def test_true(self):
        system = compile_text("true")
        assert rendered_rules(system)[0] == "R[true] -> [true]T"
        assert [r.render(system.index) for r in system.initial] == ["R[true]"]

    def test_next_subformula_not_initially_active(self):
        system = compile_text("X a")
        assert [r.render(system.index) for r in system.initial] == ["R[X a]"]

    def test_next_rules(self):
        system = compile_text("X a")
        assert rendered_rules(system) == [
            "R[a], a observed -> [a]T",
            "R[a], a not observed -> [a]F",
            "R[X a] -> [X a]?M",
            "[X a]?, [END] -> [X a]F",
            "R[X a]M, [a]T -> [X a]T",
            "R[X a]M, [a]? -> [X a]?M",
            "R[X a]M, [a]F -> [X a]F",
            "[X a]T -> SUCCESS",
            "[X a]F -> FAILURE",
        ]
        assert [r.render(system.index) for r in system.react_rules] == [
            "[X a]? -> R[a], R[X a]M",
            "[X a]?M -> R[X a]M",
        ]

    def test_weaknext_forces_true_at_end(self):
        system = compile_text("W a")
        assert "[W a]?, [END] -> [W a]T" in rendered_rules(system)

    def test_always_rules_dual_to_eventually(self):
        system = compile_text("G a")
        assert rendered_rules(system) == [
            "R[a], a observed -> [a]T",
            "R[a], a not observed -> [a]F",
            "R[G a], [a]T -> [G a]?",
            "R[G a], [a]? -> [G a]?",
            "R[G a], [a]F -> [G a]F",
            "[G a]?, [END] -> [G a]T",
            "[G a]T -> SUCCESS",
            "[G a]F -> FAILURE",
        ]
        assert [r.render(system.index) for r in system.react_rules] == ["[G a]? -> R[a], R[G a]"]
        assert [r.render(system.index) for r in system.initial] == ["R[a]", "R[G a]"]

    def test_until_rules(self):
        system = compile_text("a U b")
        rules = rendered_rules(system)
        assert "R[a U b]A, [b]T -> [a U b]T" in rules  # right-true wildcard
        assert "R[a U b]A, [?]" not in rules
        assert "R[a U b]A, [a]?, [b]F -> [a U b]?B" in rules
        assert "R[a U b]A, [a]F, [b]? -> [a U b]?R" in rules
        assert "R[a U b]A, [a]F, [b]F -> [a U b]F" in rules
        assert "R[a U b]B, [a]F -> [a U b]F" in rules
        assert [r.render(system.index) for r in system.react_rules] == [
            "[a U b]?A -> R[a], R[b], R[a U b]A",
            "[a U b]?B -> R[a], R[b], R[a U b]B",
            "[a U b]?L -> R[a U b]L",
            "[a U b]?R -> R[a U b]R",
        ]
        assert [r.render(system.index) for r in system.initial] == ["R[a]", "R[b]", "R[a U b]A"]

    def test_until_initial_state_spans_operands(self):
        system = compile_text("(X a) U b")
        assert [r.render(system.index) for r in system.initial] == ["R[X a]", "R[b]", "R[X a U b]A"]


class TestCountsAndBound:
    def test_bound_values(self):
        assert rule_count_bound(to_nnf(parse_formula("a | F b"))) == 66
        assert rule_count_bound(parse_formula("a")) == 18

    def test_actual_counts_within_bound(self):
        rng = random.Random(9)
        for _ in range(100):
            f = random_formula(3, ["a", "b"], rng)
            system = compile_formula(f)
            assert len(system.eval_rules) <= rule_count_bound(f)

    def test_nested_chain_grows_linearly(self):
        def chain(n):
            f = parse_formula("G a")
            for _ in range(n - 1):
                from rulerunner import Always, And, Atom

                f = Always(And(Atom("a"), f))
            return f

        counts = [len(compile_formula(chain(n)).eval_rules) for n in range(1, 21)]
        diffs = {b - a for a, b in zip(counts, counts[1:])}
        assert len(diffs) == 1  # constant first difference: linear in depth

    def test_root_rule_count_independent_of_operand_size(self):
        rng = random.Random(17)

        def root_rules(system):
            return [
                r
                for r in system.eval_rules
                if (r.guard is not None and r.guard.fid == system.root) or r.terminal
            ]

        sizes = set()
        for _ in range(20):
            left = random_formula(rng.randrange(4), ["a", "b"], rng)
            right = random_formula(rng.randrange(4), ["a", "b"], rng)
            from rulerunner import Or

            system = compile_formula(Or(left, right))
            if system.nodes[system.root].kind != "or":  # dedup may collapse
                continue
            sizes.add(len(root_rules(system)))
        assert sizes == {17}  # 15 table rules + SUCCESS + FAILURE


class TestStructuralProperties:
    def test_requires_nnf(self):
        with pytest.raises(NnfError):
            compile_formula(parse_formula("!(a | b)"))

    def test_preemption_order(self):
        """Operand conditions only ever reference smaller formula ids."""
        rng = random.Random(23)
        for _ in range(50):
            system = compile_formula(random_formula(3, ["a", "b"], rng))
            for rule in system.eval_rules:
                if rule.guard is None:
                    continue
                for cond in rule.conditions:
                    if isinstance(cond, ValueCond):
                        assert cond.fid < rule.guard.fid
            ids = [r.guard.fid for r in system.eval_rules if r.guard is not None]
            assert ids == sorted(ids)

    def test_terminal_rules_last(self):
        system = compile_text("a U (b | X a)")
        assert system.eval_rules[-2].terminal == "SUCCESS"
        assert system.eval_rules[-1].terminal == "FAILURE"

    def test_closure_every_consequent_is_guarded(self):
        rng = random.Random(31)
        for _ in range(50):
            system = compile_formula(random_formula(3, ["a", "b"], rng))
            guarded = {r.guard for r in system.eval_rules if r.guard is not None}
            # end-of-trace rules guard the plain activation of their formula
            for rule in system.eval_rules:
                if rule.guard is None and not rule.terminal:
                    guarded.add(RuleName(rule.output_fid, EvalMode.PLAIN))
            for react in system.react_rules:
                for name in react.consequents:
                    assert name in guarded
            for name in system.initial:
                assert name in guarded

    def test_compile_is_deterministic(self):
        f = to_nnf(parse_formula("(a U b) | G (a & X b)"))
        assert dump_rules(compile_formula(f)) == dump_rules(compile_formula(f))

    def test_compile_and_run_build_no_listing(self):
        system = compile_text("(a U b) | G F X a")
        run_trace(system, parse_trace_inline("[a - . - b - a]"))
        assert "eval_rules" not in vars(system) and "react_rules" not in vars(system)
        assert set(vars(system)) == {"index", "nodes", "init_sets", "root"}
        dump_rules(system)
        assert system.eval_rules is system.eval_rules
        assert system.react_rules is system.react_rules

    def test_duplicate_subformulas_compile_once(self):
        system = compile_text("(F a) | (F a)")
        texts = [system.formula_text(i) for i in range(len(system.nodes))]
        assert texts.count("F a") == 1

    def test_compile_hashes_and_compares_no_formula(self, monkeypatch):
        formulas = [to_nnf(parse_formula(t)) for t in ("(a U b) | X (a U b)", "G (!p | F q) & G (!p | F q)")]
        formulas += enumerate_formulas(1, ["a", "b"])
        listings = [dump_rules(compile_formula(f)) for f in formulas]

        def refuse(*args):
            raise AssertionError("a formula was hashed or compared")

        for cls in (TrueConst, Atom, NegAtom, Or, And, Until, Next, WeakNext, Eventually, Always):
            monkeypatch.setattr(cls, "__hash__", refuse)
            monkeypatch.setattr(cls, "__eq__", refuse)
        assert [dump_rules(compile_formula(f)) for f in formulas] == listings

    def test_wide_spec_compiles_and_prints(self):
        text = wide_spec(1000)
        f = parse_formula(text)
        assert is_nnf(f) and to_nnf(f) is f
        assert format_formula(f) == text  # as `diff` prints a mismatch
        system = compile_formula(f)
        assert repr(system) == f"RuleSystem({text!r})"
        assert [name.fid for name in system.initial] == list(range(6 * 1000 - 1))  # no next defers a subformula


class TestExclusivity:
    def test_guarded_rules_exclusive_on_sweep_corpus(self):
        # the differential sweep's formulae: every depth-2 formula over {a, b}
        # plus the 3,000 seeded depth-3 ones
        formulas = enumerate_formulas(2, ["a", "b"])
        rng = random.Random(1234321)
        formulas += [random_formula(3, ["a", "b"], rng) for _ in range(3000)]
        batches = [formulas[lo : lo + 1000] for lo in range(0, len(formulas), 1000)]
        with multiprocessing.get_context("spawn").Pool(2) as pool:
            checked = sum(pool.imap_unordered(_check_exclusive, batches))
        assert checked == len(formulas) == 33405

    def test_overlapping_rules_raise(self):
        guard = RuleName(2, EvalMode.B)
        left_true = EvaluationRule(guard, (ValueCond(0, "T"),), 2, TRUE)
        overlapping = EvaluationRule(guard, (ValueCond(0, "T"), ValueCond(1, "F")), 2, FALSE)
        with pytest.raises(AssertionError, match="not mutually exclusive"):
            _assert_exclusive([left_true, overlapping])
        _assert_exclusive([left_true, EvaluationRule(guard, (ValueCond(0, "F"),), 2, FALSE)])


class TestMachineDump:
    def test_json_shape_and_stability(self):
        system = compile_text("a | F b")
        doc = json.loads(dump_rules_json(system))
        assert doc["formula"] == "a | F b"
        assert len(doc["rules"]) == 25
        assert len(doc["reactivations"]) == 4
        assert doc["initial"] == ["R[a]", "R[b]", "R[F b]", "R[a | F b]B"]
        first = doc["rules"][0]
        assert list(first) == ["guard", "conditions", "output"]
        assert first == {
            "guard": "R[a]",
            "conditions": [{"type": "observation", "atom": "a", "present": True}],
            "output": {"formula": "a", "value": "T"},
        }
        assert dump_rules_json(system) == dump_rules_json(compile_text("a | F b"))

    def test_end_rule_record(self):
        system = compile_text("F b")
        doc = json.loads(dump_rules_json(system))
        end_rules = [r for r in doc["rules"] if {"type": "end"} in r["conditions"]]
        assert end_rules == [
            {
                "guard": None,
                "conditions": [
                    {"type": "value", "formula": "F b", "value": "?"},
                    {"type": "end"},
                ],
                "output": {"formula": "F b", "value": "F"},
            }
        ]


def wide_spec(n: int) -> str:
    """A conjunction of n response properties."""
    return " & ".join(f"G (!p{i} | F q{i})" for i in range(n))


def compile_record(text: str) -> str:
    """Everything parsing, printing, NNF and compile make of one formula text."""
    parsed = parse_formula(text)
    try:
        negated = repr(to_nnf(Not(parsed)))
    except NnfError as exc:
        negated = str(exc)
    system = compile_formula(to_nnf(parsed))
    index = system.index
    return "\n".join(
        [
            repr(parsed),
            str(format_formula(parsed) == text),
            repr(to_nnf(parsed)),
            negated,
            repr(index.formulas),
            repr([index.text(fid) for fid in range(len(index))]),
            repr(system.nodes),
            repr(system.init_sets),
            dump_rules_json(system),
        ]
    )


# sha256 of the compile records below; a change to it means parsing, printing,
# NNF, the subformula index, the node table, the initial sets or the listing changed
COMPILE_DIGEST = "3b91fb8b95db6a42226464630a3e3615a174893c85e95c36fd3c29a5e1ebdb21"


def test_compile_artefacts_match_pinned_digest():
    """A refactor of parsing or compile leaves its artefacts byte-identical,
    over every 10th depth-2 formula, 1,000 seeded depth-3 and depth-4
    formulae and the wide specification at n = 1, 5 and 20."""
    rng = random.Random(20261020)
    formulas = enumerate_formulas(2, ["a", "b"])[::10]
    formulas += [random_formula(3 + k % 2, ["a", "b", "c"], rng) for k in range(1000)]
    texts = [format_formula(f) for f in formulas] + [wide_spec(n) for n in (1, 5, 20)]
    digest = hashlib.sha256()
    for text in texts:
        digest.update(compile_record(text).encode())
    assert digest.hexdigest() == COMPILE_DIGEST
