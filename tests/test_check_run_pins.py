"""`check_run` pinned over a seeded sample of runs, and `map_state` on the
initial state of formulae deeper than Python's recursion limit."""

import hashlib
import random

from rulerunner import (
    Always,
    And,
    Atom,
    Monitor,
    Trace,
    Until,
    check_run,
    compile_formula,
    map_state,
    parse_formula,
    random_formula,
    run_trace,
    to_nnf,
)
from rulerunner.oracle import JAnd, JLeaf, JOr

# sha256 of the reports below; a change to it means a step's state text,
# judgement or value, a verdict or a violation changed on some run
CHECK_RUN_DIGEST = "3aba44c6948a670c1d62a37a94b3bd4f263406b0570580f57db6974e226e9aa7"


def test_check_runs_match_pinned_digest():
    """Every step's (number, cell, state, judgement, value) and each run's
    verdict and violation, over 400 seeded runs of formulae up to depth 4
    over a and b on traces of 1 to 6 cells.  The sample holds a run with a
    folded instance and one with several live epochs of a subformula."""
    rng = random.Random(20261020)
    digest = hashlib.sha256()
    folded = multi_epoch = 0
    for _ in range(400):
        f = random_formula(rng.randint(0, 4), ["a", "b"], rng)
        u = Trace(tuple(frozenset(x for x in "ab" if rng.random() < 0.5) for _ in range(rng.randint(1, 6))))
        report = check_run(f, u)
        for step in report.steps:
            digest.update(repr((step.number, step.index, step.state, step.judgement, step.value)).encode())
        digest.update(f"{report.verdict} {report.violation_at};".encode())
        folded += any(outcome.folded for outcome in run_trace(compile_formula(f), u).outcomes)
        multi_epoch += any("@" in step.state for step in report.steps)
    assert folded and multi_epoch
    assert digest.hexdigest() == CHECK_RUN_DIGEST


def _deep_formulae():
    a, b = Atom("a"), Atom("b")
    until = conj = b
    always = a
    for _ in range(3000):
        until = Until(a, until)
        always = Always(always)
        conj = And(a, conj)
    spec = to_nnf(parse_formula(" & ".join(f"G (!p{i} | F q{i})" for i in range(1000))))
    return [spec, until, always, conj]


def test_deep_initial_states_map_without_recursion():
    """The judgement of each deep formula's initial state is built by one
    forward pass over the instance graph.  Neither `str()` nor
    `eval_judgement` is called on it, as both recurse on its depth."""
    for f in _deep_formulae():
        system = compile_formula(f)
        judgement = map_state(system, 0, Monitor(system).instances(), {})
        assert isinstance(judgement, (JAnd, JOr, JLeaf))
