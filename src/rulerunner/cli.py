"""Command-line front end: compile, run, stream, gen and diff workflows.

Exit codes: 0 for a SUCCESS verdict (or a completed command), 1 for a
FAILURE verdict, 2 for usage/parse errors, 3 for internal errors or
differential mismatches.  `main` may be called many times in one process:
it builds its parser once and finds the `cmd_*` to run at each call.
"""

from __future__ import annotations

import argparse
import codecs
import functools
import io
import random
import sys

from .engine import CachedMonitor, Verdict, explain, run_trace
from .ltl import Formula, NnfError, ParseError, format_formula, parse_formula, to_nnf
from .oracle import enumerate_formulas, formula_space_size, oracle_eval, random_formula
from .rules import compile_formula, dump_rules, dump_rules_json
from .traces import (
    GenParams,
    Trace,
    TraceError,
    cell_parser,
    check_alphabet,
    format_trace_file,
    format_trace_inline,
    gen_traces,
    parse_trace_inline,
    read_trace_file,
)

EXIT_SUCCESS = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _parse_nnf(text: str) -> Formula:
    return to_nnf(parse_formula(text))


def _load_trace(args) -> Trace:
    if args.trace is not None:
        return parse_trace_inline(args.trace)
    try:
        return read_trace_file(args.trace_file)
    except OSError as exc:  # missing, a directory, unreadable
        raise TraceError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise TraceError(f"{args.trace_file}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _atom_names(text: str) -> tuple[str, ...]:
    """The names of a comma-separated `--atoms` alphabet, not yet checked."""
    return tuple(a.strip() for a in text.split(",") if a.strip())


def cmd_compile(args) -> int:
    system = compile_formula(_parse_nnf(args.formula))
    print(dump_rules_json(system) if args.json else dump_rules(system))
    return EXIT_SUCCESS


def cmd_run(args) -> int:
    system = compile_formula(_parse_nnf(args.formula))
    trace = _load_trace(args)
    if args.explain:
        result = run_trace(system, trace)
        print(explain(result))
        print()
        verdict, cell = result.verdict, result.deciding_cell
    else:
        verdict, cell = CachedMonitor(system).run(trace.cells)
    print(f"{verdict} at cell {cell}")
    return EXIT_SUCCESS if verdict is Verdict.SUCCESS else EXIT_FAILURE


def cmd_stream(args) -> int:
    """One cell per stdin line, in trace-file cell syntax: a ``#`` line is a
    comment, and a line that is not exactly one cell is skipped with a
    diagnostic.  `$end` announces that the trace is over (an online monitor
    cannot see the last cell coming, so the event source must say so).  EOF
    counts as `$end`.  A trace closed before any cell is monitored as one
    empty cell, so `G a` fails and `W a` succeeds on empty input.

    Each cell read gets one output line, `?` while undecided, written and
    flushed before the next input line is read; the verdict line is the last.

    The monitor walks a `CachedMonitor` and keeps the state (a monitor it
    never steps) before the latest cell, so the end verdict is that state's
    transition on the latest cell with the end-of-trace marker: one step,
    no replay.  Each line text is read into its letter, the cell intersected
    with the formula's atoms, and `cell_parser` keeps it in `letters` within
    the memo's bounds; a line met before whose transition is known costs a
    lookup there, `table.get(letter)` and one in the row, with no call.  A
    UTF-8 input may open with a byte-order mark, which is dropped; a stdin
    read before the call (by an earlier session, say) keeps its decoding.  A
    line that is not UTF-8 is then skipped as malformed only if that
    decoding escapes it: from a stdin that decodes strictly, the first such
    line past the chunk already read ends the session with exit 3."""
    cache = CachedMonitor(compile_formula(_parse_nnf(args.formula)))
    table = cache.table
    state = before = cache.initial
    last: frozenset[str] = frozenset()
    letters: dict[str, frozenset[str]] = {}
    parse = cell_parser(cache.atoms, letters)
    write, flush = sys.stdout.write, sys.stdout.flush
    if hasattr(sys.stdin, "reconfigure"):  # a line that is not UTF-8 is a malformed cell, not a crash
        utf8 = codecs.lookup(sys.stdin.encoding).name == "utf-8"
        if utf8 or sys.stdin.errors != "surrogateescape":  # else an earlier session set it up
            try:
                sys.stdin.reconfigure(encoding="utf-8-sig" if utf8 else None, errors="surrogateescape")
            except io.UnsupportedOperation:  # read from already: it keeps its decoding
                pass
    for lineno, line in enumerate(sys.stdin, start=1):
        letter = letters.get(line)
        if letter is None:
            try:
                letter = parse(line)
            except TraceError as exc:  # `$end` and a comment fail the cell syntax too
                if line.strip() == "$end":
                    break
                if not line.lstrip().startswith("#"):  # a comment, as in trace files; never a cell
                    print(f"skipped malformed cell: line {lineno}: {exc}", file=sys.stderr)
                continue
        before, last = state, letter
        row = table.get(letter)
        state = row and row.get(state) or cache.next(state, letter)
        if state.__class__ is Verdict:
            break
        write("?\n")
        flush()
    if state.__class__ is not Verdict:
        state = cache.end(before, last)
    write(str(state) + "\n")
    flush()
    return EXIT_SUCCESS if state is Verdict.SUCCESS else EXIT_FAILURE


def cmd_gen(args) -> int:
    atoms = _atom_names(args.atoms)
    try:
        params = GenParams(atoms=atoms, length=args.length, density=args.density, seed=args.seed, count=args.count)
    except ValueError as exc:
        print(f"invalid generator parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    chunks = [format_trace_file(t) for t in gen_traces(params)]
    print("---\n".join(chunks), end="")
    return EXIT_SUCCESS


def _diff_traces(atoms: tuple[str, ...], count: int, max_length: int, seed: int) -> list[Trace]:
    rng = random.Random(seed)
    densities = (0.0, 0.3, 0.7, 1.0)
    out = []
    for i in range(count):
        length = rng.randint(1, max_length)
        p = densities[i % len(densities)]
        cells = tuple(frozenset(a for a in atoms if rng.random() < p) for _ in range(length))
        out.append(Trace(cells))
    return out


def run_differential(
    formulas: list[Formula],
    traces: list[Trace],
) -> tuple[int, list[tuple[Formula, Trace, Verdict, bool]]]:
    """Compare the engine verdict against the reference semantics on every
    (formula, trace) pair; returns (comparisons, mismatches).

    Traces with equal cells get equal answers from both sides, so each
    distinct trace is run and evaluated once per formula.  Every pair is
    still counted and compared, and a mismatch is listed once per pair, in
    formula order and then trace order."""
    distinct: dict[tuple[frozenset[str], ...], Trace] = {}
    for u in traces:
        distinct.setdefault(u.cells, u)
    mismatches = []
    success = Verdict.SUCCESS
    for f in formulas:
        run = CachedMonitor(compile_formula(f)).run
        wrong = {}
        for cells, u in distinct.items():
            got = run(cells)[0]
            want = oracle_eval(f, u, 0)
            if (got is success) != want:
                wrong[cells] = got, want
        if wrong:
            for u in traces:
                if u.cells in wrong:
                    mismatches.append((f, u, *wrong[u.cells]))
    return len(formulas) * len(traces), mismatches


# Most formulae `diff` enumerates; past it, `diff` samples `--limit` of them.
ENUMERATION_CAP = 200_000


def cmd_diff(args) -> int:
    for flag, value, least in (
        ("--max-depth", args.max_depth, 0),
        ("--traces", args.traces, 1),
        ("--max-length", args.max_length, 1),
        ("--limit", args.limit, 1),
    ):
        if value is not None and value < least:
            print(f"invalid diff parameters: {flag} must be >= {least}", file=sys.stderr)
            return EXIT_USAGE
    atoms = check_alphabet(_atom_names(args.atoms))
    if formula_space_size(args.max_depth, list(atoms), ENUMERATION_CAP) > ENUMERATION_CAP:
        # full enumeration is out of reach; fall back to seeded sampling
        if args.limit is None:
            print(
                f"error: more than {ENUMERATION_CAP} distinct formulae at depth {args.max_depth};"
                " pass --limit to sample",
                file=sys.stderr,
            )
            return EXIT_USAGE
        rng = random.Random(args.seed)
        formulas = [random_formula(args.max_depth, list(atoms), rng) for _ in range(args.limit)]
    else:
        formulas = enumerate_formulas(args.max_depth, list(atoms))
        if args.limit is not None and args.limit < len(formulas):
            formulas = random.Random(args.seed).sample(formulas, args.limit)
    traces = _diff_traces(atoms, args.traces, args.max_length, args.seed)
    comparisons, mismatches = run_differential(formulas, traces)
    print(f"formulas: {len(formulas)}")
    print(f"traces per formula: {len(traces)}")
    print(f"comparisons: {comparisons}")
    print(f"mismatches: {len(mismatches)}")
    for f, u, got, want in mismatches[:5]:
        expected = "SUCCESS" if want else "FAILURE"
        print(f"MISMATCH {format_formula(f)} over {format_trace_inline(u)}: engine {got}, oracle {expected}")
    return EXIT_SUCCESS if not mismatches else EXIT_INTERNAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rulerunner", description="Rule-based LTL monitoring over finite traces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="print the rule system compiled from a formula")
    p.add_argument("formula")
    p.add_argument("--json", action="store_true", help="machine-readable listing")

    p = sub.add_parser("run", help="monitor a complete trace")
    p.add_argument("formula")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--trace", help="inline trace, e.g. '[c - a - b,d - b]'")
    src.add_argument("--trace-file", help="trace file, one cell per line")
    p.add_argument("--explain", action="store_true", help="print the per-cell evolution")

    p = sub.add_parser("stream", help="monitor cells read from stdin; '$end' closes the trace")
    p.add_argument("formula")

    p = sub.add_parser("gen", help="generate seeded random traces")
    p.add_argument("--atoms", required=True, help="comma-separated alphabet")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)

    p = sub.add_parser("diff", help="differential check of the engine against the reference semantics")
    p.add_argument("--max-depth", type=int, default=2)
    p.add_argument("--atoms", default="a,b")
    p.add_argument("--traces", type=int, default=50)
    p.add_argument("--max-length", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", type=int, default=None, help="sample at most this many formulas")
    return parser


_main_parser = functools.cache(build_parser)  # built by the first `main` call, then reused


def main(argv: list[str] | None = None) -> int:
    args = _main_parser().parse_args(argv)
    # looked up per call, so a `cmd_*` rebound later (a monkeypatch, a tracer's wrapper) is the one run
    command = {"compile": cmd_compile, "run": cmd_run, "stream": cmd_stream, "gen": cmd_gen, "diff": cmd_diff}
    try:
        return command[args.command](args)
    except (ParseError, NnfError, TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
