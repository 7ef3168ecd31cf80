"""Property tests: every way to a verdict agrees, and agrees with the oracle;
`rulerunner stream` survives malformed input.

`run_trace`, `Monitor.advance`, a `Monitor.clone()` taken at a drawn cell
and resumed with `advance`, the cached monitor and `rulerunner stream` must
give the same verdict on every trace, and the same deciding cell; the
verdict must be the finite-trace semantics', an early verdict must not
change when the trace goes on past it, and after every cell no two of the
monitor's live instances of one subformula have the same future.
Hypothesis draws formulae of depth <= 4 over a, b, c and traces of up to
60 cells that may hold an off-alphabet `d`, and shrinks a failure to a
minimal counterexample.  The examples are derandomized and their number
fixed, so the tests are deterministic; together they take about 18 s on a
2-core machine.
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
    Monitor,
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
    format_trace_inline,
    oracle_eval,
    run_trace,
)
from rulerunner.cli import main

LEAVES = st.sampled_from([TrueConst(), *(op(x) for x in "abc" for op in (Atom, NegAtom))])


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
    lambda n: st.lists(st.frozensets(st.sampled_from("abcd")), min_size=n, max_size=n)
)


def assert_folded(monitor: Monitor) -> None:
    """No two live instances share a key -- subformula, mode and operands,
    the operands of an eventually or always as a set: equal keys mean
    identical futures, and the monitor folds them into one."""
    keys = set()
    for fid, _, mode, ops in monitor.instances():
        kind = monitor.system.nodes[fid].kind
        key = (fid, frozenset(ops)) if kind in ("eventually", "always") else (fid, mode, ops)
        assert key not in keys, f"two live instances of node {fid} ({kind}) with key {key}"
        keys.add(key)


def advance(system, cells, clone_at: int = -1) -> tuple[Verdict, int]:
    """Verdict and deciding cell of a `Monitor` fed `cells` by `advance`,
    going on from a clone of it before cell `clone_at`; checks after every
    undecided cell that equivalent instances were folded, which bounds the
    live state by the formula alone."""
    monitor = Monitor(system)
    for i, cell in enumerate(cells):
        if i == clone_at:
            monitor = monitor.clone()
        verdict = monitor.advance(cell, is_last=i == len(cells) - 1)
        if verdict is not Verdict.UNDECIDED:
            return verdict, i
        assert_folded(monitor)
    raise AssertionError("no verdict after the last cell")


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
@given(formulas(4), CELLS, st.sampled_from(["$end\n", ""]), st.integers(0, 59), CELLS)
def test_every_verdict_path_agrees_with_the_oracle(f, cells, close, clone_at, suffix):
    system = compile_formula(f)
    result = run_trace(system, Trace(tuple(cells)))
    expected = (result.verdict, result.deciding_cell)
    assert advance(system, cells) == expected
    assert advance(system, cells, clone_at % (result.deciding_cell + 1)) == expected
    assert CachedMonitor(system).run(cells) == expected
    assert stream(format_formula(f), cells, close) == expected
    assert (result.verdict is Verdict.SUCCESS) == oracle_eval(f, Trace(tuple(cells)), 0)
    decided = result.deciding_cell
    if decided < len(cells) - 1:  # an early verdict holds whatever follows its cell
        extended = run_trace(system, Trace(tuple(cells[: decided + 1] + suffix)))
        assert (extended.verdict, extended.deciding_cell) == expected


# stream lines: a well-formed line is one cell in trace-file syntax; a
# malformed one holds a name the cell syntax rejects; a comment starts with
# `#`, as in trace files, and is skipped silently
NAMES = st.sampled_from(["a", "b", "c", "x_1"])
BAD_NAMES = st.sampled_from(["END", "1a", "A", "a-b", "$end2", "#", "é", "a;b"])
SEPARATORS = st.sampled_from([",", " ", " , ", "\t"])
WELL_FORMED = st.one_of(
    st.sampled_from(["", ".", "  ", " . "]),
    st.tuples(st.lists(NAMES, min_size=1, max_size=3), SEPARATORS).map(lambda t: t[1].join(t[0])),
)
MALFORMED = st.tuples(st.lists(NAMES, max_size=2), BAD_NAMES, SEPARATORS).map(
    lambda t: t[2].join(t[0] + [t[1]])
).filter(lambda line: not line.lstrip().startswith("#"))
COMMENTS = st.tuples(st.sampled_from(["", " ", "\t"]), st.sampled_from(["#", "# a", "#$end", "#END, 1a - b"])).map(
    "".join
)
END = st.tuples(st.sampled_from(["", " ", "\t"]), st.sampled_from(["", " ", " \t"])).map(lambda t: t[0] + "$end" + t[1])
LINE = st.one_of(
    WELL_FORMED.map(lambda s: (s, True)),
    MALFORMED.map(lambda s: (s, False)),
    COMMENTS.map(lambda s: (s, None)),
    END.map(lambda s: (s, "$end")),
)


def with_repeats(items: list) -> list:
    """The drawn lines, each integer among them replaced by a repeat of a
    line drawn before it (and dropped at the start)."""
    lines = []
    for item in items:
        if not isinstance(item, int):
            lines.append(item)
        elif lines:
            lines.append(lines[item % len(lines)])
    return lines


# about half the lines repeat an earlier one, so that the stream's parse
# memo is hit by well-formed, malformed, comment and `$end` lines alike
LINES = st.lists(st.one_of(LINE, st.integers(0, 29)), max_size=30).map(with_repeats)


def cells_of(lines: list[str]) -> list[frozenset[str]]:
    return [frozenset(line.replace(",", " ").split()) - {"."} for line in lines]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(formulas(3), LINES, st.sampled_from(["$end\n", ""]))
def test_stream_skips_each_malformed_line_once(f, lines, close):
    text = format_formula(f)
    ends = [i for i, (_, kind) in enumerate(lines) if kind == "$end"]
    closed = lines[: ends[0]] if ends else lines  # the first `$end` line closes the trace
    good = [line for line, ok in closed if ok is True]
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.StringIO("".join(line + "\n" for line, _ in lines) + close)
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        code = main(["stream", text])
        out, err = sys.stdout.getvalue().splitlines(), sys.stderr.getvalue().splitlines()
        sys.stdout = io.StringIO()
        run_code = main(["run", text, "--trace", format_trace_inline(Trace(tuple(cells_of(good) or [frozenset()])))])
        run_out = sys.stdout.getvalue().splitlines()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    assert code in (0, 1)
    # `run` prints "<verdict> at cell <k>"; the stream's last line is the verdict
    assert out[-1] == run_out[-1].split()[0] and code == run_code
    # an online verdict ends the stream at its cell's line; the rest is unread
    read = len(closed)
    if len(out) <= len(good):
        read = [i for i, (_, ok) in enumerate(closed) if ok is True][len(out) - 1] + 1
    # each occurrence of a malformed line, repeated or not, is reported with its own number
    malformed = [i + 1 for i, (_, ok) in enumerate(closed[:read]) if ok is False]
    assert len(err) == len(malformed)
    for line, lineno in zip(err, malformed):
        assert line.startswith(f"skipped malformed cell: line {lineno}: ")
