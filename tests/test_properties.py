"""Property test: every way to a verdict agrees, and agrees with the oracle.

`run_trace`, the cached monitor and `rulerunner stream` must give the same
verdict on every trace, and the same deciding cell; the verdict must be the
brute-force semantics'.  Hypothesis draws formulae of depth <= 4 over a, b
and traces of up to 60 cells that may hold an off-alphabet `c`, and shrinks
a failure to a minimal counterexample.  The examples are derandomized and
their number fixed, so the test is deterministic; it takes about 10 s on a 2-core machine.
"""

import io
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from rulerunner import (
    Always,
    And,
    Atom,
    CachedMonitor,
    Eventually,
    NegAtom,
    Next,
    Or,
    Trace,
    TrueConst,
    Until,
    Verdict,
    WeakNext,
    compile_formula,
    format_formula,
    oracle_eval,
    run_trace,
)
from rulerunner.cli import main

LEAVES = st.sampled_from([TrueConst(), Atom("a"), Atom("b"), NegAtom("a"), NegAtom("b")])


def formulas(depth: int):
    if depth == 0:
        return LEAVES
    sub = formulas(depth - 1)
    return st.one_of(
        LEAVES,
        *(st.builds(op, sub) for op in (Next, WeakNext, Eventually, Always)),
        *(st.builds(op, sub, sub) for op in (Or, And, Until)),
    )


# a drawn length, as plain lists of up to 60 cells are mostly a few cells long
CELLS = st.integers(1, 60).flatmap(
    lambda n: st.lists(st.frozensets(st.sampled_from("abc")), min_size=n, max_size=n)
)


def stream(formula: str, cells, close: str) -> tuple[Verdict, int]:
    """Verdict and deciding cell of `rulerunner stream` fed `cells`, then `close`."""
    lines = "".join((",".join(sorted(cell)) or ".") + "\n" for cell in cells) + close
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(lines), io.StringIO()
    try:
        code = main(["stream", formula])
        out = sys.stdout.getvalue().splitlines()
    finally:
        sys.stdin, sys.stdout = saved
    verdict = Verdict(out[-1])
    assert out[:-1] == ["?"] * (len(out) - 1)
    assert code == (0 if verdict is Verdict.SUCCESS else 1)
    # decided online at the cell of its line, or by the close after the last cell
    return verdict, min(len(out), len(cells)) - 1


@settings(derandomize=True, max_examples=600, deadline=None)
@given(formulas(4), CELLS, st.sampled_from(["$end\n", ""]))
def test_every_verdict_path_agrees_with_the_oracle(f, cells, close):
    system = compile_formula(f)
    result = run_trace(system, Trace(tuple(cells)))
    expected = (result.verdict, result.deciding_cell)
    assert CachedMonitor(system).run(cells) == expected
    assert stream(format_formula(f), cells, close) == expected
    assert (result.verdict is Verdict.SUCCESS) == oracle_eval(f, Trace(tuple(cells)), 0)
