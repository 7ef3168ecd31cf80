import io
import os
import queue
import random
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

from rulerunner import CachedMonitor, Trace, Verdict, cli, compile_formula, enumerate_formulas, truth
from rulerunner.cli import ENUMERATION_CAP, _diff_traces, _formula_space_size, main, run_differential
from rulerunner.traces import MEMO_CELLS, MEMO_LINE_CHARS
from rulerunner.truth import FALSE, TRUE


def run_cli(*argv, stdin: str | None = None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    return main(list(argv))


class TestCompile:
    def test_worked_example_counts(self, capsys):
        assert main(["compile", "a | F b"]) == 0
        out = capsys.readouterr().out
        eval_section = out.split("REACTIVATION RULES")[0]
        assert eval_section.count("->") == 25
        react_section = out.split("REACTIVATION RULES")[1].split("INITIAL STATE")[0]
        assert react_section.count("->") == 4
        assert "R[a], R[b], R[F b], R[a | F b]B" in out

    def test_atom(self, capsys):
        assert main(["compile", "a"]) == 0
        assert capsys.readouterr().out.count("->") == 4

    def test_parse_error_exits_2(self, capsys):
        assert main(["compile", "a U"]) == 2
        err = capsys.readouterr().err
        assert "position 3" in err

    def test_negated_until_rejected(self, capsys):
        assert main(["compile", "!(a U b)"]) == 2

    def test_json_listing(self, capsys):
        import json

        assert main(["compile", "--json", "a"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["rules"]) == 4


class TestRun:
    def test_success_with_cell_index(self, capsys):
        assert main(["run", "a | F b", "--trace", "[c - a - b,d - b]"]) == 0
        assert capsys.readouterr().out.strip() == "SUCCESS at cell 2"

    def test_failure_exit_code(self, capsys):
        assert main(["run", "a", "--trace", "[b]"]) == 1
        assert capsys.readouterr().out.strip() == "FAILURE at cell 0"

    def test_explain_shows_state_evolution(self, capsys):
        assert main(["run", "a | X b", "--trace", "[b - b]", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "state : R[a], R[X b], R[a | X b]B" in out
        assert "state : R[b], R[X b]M, R[a | X b]R" in out
        assert "STOP  : PROPERTY SATISFIED" in out

    def test_trace_file(self, tmp_path, capsys):
        p = tmp_path / "u.trace"
        p.write_text("c\na\nb,d\nb\n")
        assert main(["run", "a | F b", "--trace-file", str(p)]) == 0
        assert "SUCCESS at cell 2" in capsys.readouterr().out

    def test_missing_file_exits_2(self, capsys):
        assert main(["run", "a", "--trace-file", "/nonexistent"]) == 2

    def test_directory_as_trace_file_exits_2(self, tmp_path, capsys):
        assert main(["run", "a", "--trace-file", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "directory" in err

    def test_non_utf8_trace_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "latin1.trace"
        p.write_bytes(b"a\n\xe9t\xe9\n")
        assert main(["run", "a", "--trace-file", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not UTF-8" in err

    @pytest.mark.parametrize("text", ["a\nb\n", "# note\na\nb\n"], ids=["cell", "comment"])
    def test_byte_order_mark_is_ignored(self, tmp_path, capsys, text):
        """A trace file that opens with a UTF-8 byte-order mark, as Windows
        editors write it, reads as the same file without the mark."""
        p = tmp_path / "bom.trace"
        p.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert main(["run", "a U b", "--trace-file", str(p)]) == 0
        assert capsys.readouterr().out == "SUCCESS at cell 1\n"

    def test_bad_trace_exits_2(self, capsys):
        assert main(["run", "a", "--trace", "[a - END]"]) == 2

    def test_binary_output_is_single_line(self, capsys):
        main(["run", "G a", "--trace", "[a - a]"])
        assert len(capsys.readouterr().out.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "formula,trace,verdict",
        [
            ("(" * 10_000 + "a" + ")" * 10_000, "b", "FAILURE at cell 0"),
            ("X " * 10_000 + "a", "[a - b]", "FAILURE at cell 1"),
            ("!" * 10_000 + "a", "a", "SUCCESS at cell 0"),
            (" U ".join(["a"] * 3_000 + ["b"]), "[a - b]", "SUCCESS at cell 1"),
        ],
        ids=["parentheses", "next", "negation", "until"],
    )
    def test_deeply_nested_formula_runs(self, capsys, formula, trace, verdict):
        assert main(["run", formula, "--trace", trace]) == (0 if verdict.startswith("SUCCESS") else 1)
        assert capsys.readouterr().out == verdict + "\n"

    def test_recursion_past_the_limit_exits_2(self, capsys, monkeypatch):
        """The reference semantics still recurses once per formula level."""

        def too_deep(*args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "oracle_eval", too_deep)
        assert main(["diff", "--max-depth", "1", "--traces", "1", "--max-length", "1"]) == 2
        assert capsys.readouterr().err == "error: formula nested too deeply\n"

    def test_long_next_chain_runs(self, capsys):
        assert main(["run", "X " * 700 + "a", "--trace", "a"]) == 1
        assert capsys.readouterr().out == "FAILURE at cell 0\n"

    def test_thousand_conjunct_spec_runs(self, capsys):
        spec = " & ".join(f"G (!p{i} | F q{i})" for i in range(1000))
        assert main(["run", spec, "--trace", "[p0 - q0]"]) == 0
        assert capsys.readouterr().out == "SUCCESS at cell 1\n"


class TestStream:
    def test_evolving_verdicts(self, capsys, monkeypatch):
        code = run_cli("stream", "a | F b", stdin="c\na\nb,d\n", monkeypatch=monkeypatch)
        assert code == 0
        assert capsys.readouterr().out == "?\n?\nSUCCESS\n"

    def test_immediate_end_fails_eventually(self, capsys, monkeypatch):
        code = run_cli("stream", "F a", stdin="$end\n", monkeypatch=monkeypatch)
        assert code == 1
        assert capsys.readouterr().out.splitlines() == ["FAILURE"]

    def test_end_marker_forces_always_true(self, capsys, monkeypatch):
        code = run_cli("stream", "G a", stdin="a\n$end\n", monkeypatch=monkeypatch)
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["?", "SUCCESS"]

    def test_malformed_line_skipped_with_diagnostic(self, capsys, monkeypatch):
        code = run_cli("stream", "F b", stdin="9bad\nb\n", monkeypatch=monkeypatch)
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "SUCCESS\n"
        assert captured.err.startswith("skipped malformed cell: line 1: ")

    def test_eof_counts_as_end(self, capsys, monkeypatch):
        code = run_cli("stream", "G a", stdin="a\na\n", monkeypatch=monkeypatch)
        assert code == 0
        assert capsys.readouterr().out == "?\n?\nSUCCESS\n"

    def test_line_holding_several_cells_is_skipped(self, capsys, monkeypatch):
        # a stream line is exactly one cell; `a - b` is not monitored as {a}
        code = run_cli("stream", "F b", stdin="a - b\n$end\n", monkeypatch=monkeypatch)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "FAILURE\n"
        assert captured.err.startswith("skipped malformed cell: line 1: ")

    def test_line_not_utf8_is_skipped(self, capsys, monkeypatch):
        # stdin decoded strictly, as under PYTHONIOENCODING=utf-8 or a UTF-8 locale
        stdin = io.TextIOWrapper(io.BytesIO(b"a\n\xff\na\n$end\n"), encoding="utf-8", errors="strict")
        monkeypatch.setattr("sys.stdin", stdin)
        code = main(["stream", "G a"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "?\n?\nSUCCESS\n"
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("skipped malformed cell: line 2: ")

    def test_byte_order_mark_is_ignored(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xef\xbb\xbfa\nb\n"), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        code = main(["stream", "a U b"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "?\nSUCCESS\n"
        assert captured.err == ""

    @pytest.mark.parametrize("formula, verdict, exit_code", [("G a", "FAILURE", 1), ("W a", "SUCCESS", 0)])
    def test_empty_input_is_one_empty_cell(self, capsys, monkeypatch, formula, verdict, exit_code):
        code = run_cli("stream", formula, stdin="", monkeypatch=monkeypatch)
        assert code == exit_code
        assert capsys.readouterr().out == verdict + "\n"


class TestStreamOnPipes:
    def test_each_reply_arrives_before_the_next_line_is_sent(self):
        """`stream` in its own process on real pipes: the reply to a cell
        must arrive while the monitor waits for the next line, so a reply
        left in the output buffer fails the read after a few seconds."""
        src = Path(__file__).resolve().parent.parent / "src"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # the flush under test
        env["PYTHONPATH"] = str(src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "rulerunner", "stream", "G a"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        replies: queue.Queue[bytes] = queue.Queue()

        def read_replies():
            for reply in proc.stdout:
                replies.put(reply)

        reader = threading.Thread(target=read_replies, daemon=True)
        reader.start()
        try:
            for line, want in ((b"a\n", b"?\n"), (b"a\n", b"?\n"), (b"$end\n", b"SUCCESS\n")):
                proc.stdin.write(line)
                proc.stdin.flush()
                try:
                    assert replies.get(timeout=5) == want, line
                except queue.Empty:
                    pytest.fail(f"no reply within 5 s to {line!r}")
            assert proc.wait(timeout=10) == 0
            reader.join(timeout=5)
            assert not reader.is_alive() and replies.empty()  # no line after the verdict
            assert proc.stderr.read() == b""
        finally:
            proc.kill()
            proc.wait()
            reader.join(timeout=5)
            for pipe in (proc.stdin, proc.stdout, proc.stderr):
                pipe.close()


class TestStreamPastNodeCap:
    def test_verdicts_match_run_with_a_cap_of_one(self, capsys, monkeypatch):
        """With room for one automaton state, `stream` walks states the
        cache does not keep and still ends with the verdict `run` gives."""
        from rulerunner import engine

        monkeypatch.setattr(engine, "NODE_CAP", 1)
        cells = [".", "b", ".", "a", "b", ".", "."]
        for formula in ("G F X a", "G (!a | F b)", "(X a) U b"):
            for n in range(1, len(cells) + 1):
                assert main(["run", formula, "--trace", " - ".join(cells[:n]), "--explain"]) in (0, 1)
                want = capsys.readouterr().out.strip().splitlines()[-1].split()[0]
                run_cli("stream", formula, stdin="\n".join(cells[:n]) + "\n", monkeypatch=monkeypatch)
                assert capsys.readouterr().out.splitlines()[-1] == want, (formula, cells[:n])


class _CountingSink:
    """stdout stand-in that keeps only the number of lines written."""

    def __init__(self):
        self.lines = 0

    def write(self, text: str) -> int:
        self.lines += text.count("\n")
        return len(text)

    def flush(self) -> None:
        pass


class TestStreamMemory:
    def test_memory_does_not_grow_with_the_stream(self, monkeypatch):
        """`G (a | X b)` never decides on cells alternating between empty
        and {a, b}; from 10k to 100k cells the stream keeps no more memory."""
        marks = {}

        def lines():
            for i in range(100_000):
                if i in (10_000, 99_999):
                    marks[i] = tracemalloc.get_traced_memory()[0]
                yield "a,b\n" if i % 2 else ".\n"

        sink = _CountingSink()
        monkeypatch.setattr("sys.stdin", lines())
        monkeypatch.setattr("sys.stdout", sink)
        tracemalloc.start()
        try:
            code = main(["stream", "G (a | X b)"])
        finally:
            tracemalloc.stop()
        assert code == 0 and sink.lines == 100_001
        assert marks[99_999] - marks[10_000] < 4096

    def test_parse_memo_stops_growing_at_its_cap(self, monkeypatch):
        """20k distinct lines, each as long as the parse memo holds: past
        its cap of entries the memo keeps no more, so neither does the stream."""
        marks = {}

        def lines():
            for i in range(20_000):
                if i in (2 * MEMO_CELLS, 19_999):
                    marks[i] = tracemalloc.get_traced_memory()[0]
                yield f"a,x{i:0{MEMO_LINE_CHARS - 4}d}\n"

        sink = _CountingSink()
        monkeypatch.setattr("sys.stdin", lines())
        monkeypatch.setattr("sys.stdout", sink)
        tracemalloc.start()
        try:
            code = main(["stream", "G a"])
        finally:
            tracemalloc.stop()
        assert code == 0 and sink.lines == 20_001
        assert marks[19_999] - marks[2 * MEMO_CELLS] < 4096


MALFORMED_LINES = ("a - b", "9bad", "END", " c, END ", "A")
# well-formed lines: atoms of the formulae, off-alphabet atoms, blank and
# padded lines, and two lines past the memo's length bound
WELL_FORMED_LINES = (
    "a", "b", "c", "a,b", "b , c", "a c", ".", "", "   ", "z", "x_1,a", "b,z,c",
    "a " * MEMO_LINE_CHARS, "z\t" * MEMO_LINE_CHARS + "b",
)


def _stream_lines(rng) -> list[str]:
    """A seeded stream: mostly repeated well-formed lines, with comments,
    malformed lines and more distinct lines than the parse memo keeps."""
    lines = [rng.choice(WELL_FORMED_LINES) for _ in range(900)]
    lines += [f"{rng.choice('abc')},d{i}" for i in range(MEMO_CELLS + 60)]
    lines += [rng.choice(MALFORMED_LINES) for _ in range(25)]
    lines += ["# a note", "  #a - b"]
    rng.shuffle(lines)
    return lines


def _run_verdict(capsys, tmp_path, formula: str, cells: list[str]) -> tuple[str, int, int]:
    """`run --trace-file` on the given cell lines: verdict, deciding cell, exit code."""
    path = tmp_path / "cells.trace"
    path.write_text("".join(line + "\n" for line in cells))
    code = main(["run", formula, "--trace-file", str(path)])
    verdict, _, _, cell = capsys.readouterr().out.split()
    return verdict, int(cell), code


class TestStreamAgainstRun:
    FORMULAS = ("G (!a | F b)", "G F (a & c)", "F G (a | b)", "G (a | X (b | c))", "a U b", "(X a) U (b | !c)")

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_stream_answers_as_run_on_its_well_formed_cells(self, capsys, monkeypatch, tmp_path, seed):
        """Each stream's `?` count, last line and exit code are those of
        `run --trace-file` on the stream's well-formed lines up to `$end`,
        and each malformed line the stream reads is reported on its own,
        with its line number, however often it repeats."""
        rng = random.Random(seed)
        for formula in self.FORMULAS:
            lines = _stream_lines(rng)
            end = rng.randrange(len(lines) // 2, len(lines)) if rng.random() < 0.5 else None
            if end is not None:
                lines.insert(end, "$end")
            code = run_cli("stream", formula, stdin="".join(line + "\n" for line in lines), monkeypatch=monkeypatch)
            captured = capsys.readouterr()
            out, err = captured.out.splitlines(), captured.err.splitlines()

            read = lines if end is None else lines[:end]
            cell_lines = [
                n for n, line in enumerate(read, start=1) if not line.lstrip().startswith("#") and line not in MALFORMED_LINES
            ]
            cells = [read[n - 1] for n in cell_lines] or ["."]
            verdict, _, run_code = _run_verdict(capsys, tmp_path, formula, cells)
            # the verdict without the end marker comes at a cell of the trace extended by one
            _, online, _ = _run_verdict(capsys, tmp_path, formula, cells + ["."])
            questions = min(online, len(cell_lines))
            assert out == ["?"] * questions + [verdict], (formula, seed)
            assert code == run_code

            # lines read: up to the deciding cell's line, else all up to `$end` or EOF
            last_read = cell_lines[online] if online < len(cell_lines) else len(read)
            malformed = [n for n, line in enumerate(read[:last_read], start=1) if line in MALFORMED_LINES]
            assert [line.split(":")[0] for line in err] == ["skipped malformed cell"] * len(err)
            assert [int(line.split(":")[1].split()[1]) for line in err] == malformed, (formula, seed)

    def test_a_line_seen_before_is_parsed_once_and_a_known_transition_is_not_stepped(self, capsys, monkeypatch):
        """10k cells from k distinct lines: the cell parser runs at most k
        times, and `CachedMonitor.next` only for a transition the stream has
        not met, so at most once per kept state and letter."""
        from rulerunner import traces

        lines = ["a", "b", "a,b", ".", "", "c", "a,c", " b , c ", "x_1,a", "z", "b,z", "a " * 60]
        parsed, stepped = [], []
        parse_cell, step = traces._parse_cell, CachedMonitor.next
        monkeypatch.setattr(traces, "_parse_cell", lambda text: parsed.append(text) or parse_cell(text))
        monkeypatch.setattr(
            CachedMonitor, "next", lambda cache, state, cell: stepped.append(cache) or step(cache, state, cell)
        )
        rng = random.Random(4)
        stream = [rng.choice(lines) for _ in range(10_000)]
        sink = _CountingSink()
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(line + "\n" for line in stream)))
        monkeypatch.setattr("sys.stdout", sink)
        code = main(["stream", "G (!a | F b)"])
        assert sink.lines == 10_001
        assert len(parsed) <= len(lines)
        cache = stepped[0]
        letters = {frozenset("ab").intersection(parse_cell(line)) for line in lines}  # over the formula's atoms
        assert all(c is cache for c in stepped)
        assert 0 < len(stepped) <= len(cache) * len(letters)
        monkeypatch.undo()
        assert main(["run", "G (!a | F b)", "--trace", " - ".join(line.strip() or "." for line in stream)]) == code
        assert capsys.readouterr().out.split()[0] == ("SUCCESS" if code == 0 else "FAILURE")


class TestGen:
    def test_deterministic(self, capsys):
        main(["gen", "--atoms", "a,b", "--length", "6", "--density", "0.5", "--seed", "9", "--count", "3"])
        first = capsys.readouterr().out
        main(["gen", "--atoms", "a,b", "--length", "6", "--density", "0.5", "--seed", "9", "--count", "3"])
        assert capsys.readouterr().out == first
        assert first.count("---") == 2

    def test_degenerate_densities(self, capsys):
        main(["gen", "--atoms", "a,b", "--length", "4", "--density", "0", "--seed", "1"])
        assert capsys.readouterr().out == "\n\n\n\n"
        main(["gen", "--atoms", "a,b", "--length", "2", "--density", "1", "--seed", "1"])
        assert capsys.readouterr().out == "a,b\na,b\n"

    def test_output_is_valid_file_format(self, capsys, tmp_path):
        from rulerunner import read_trace_file

        main(["gen", "--atoms", "a,b,c", "--length", "5", "--density", "0.4", "--seed", "4"])
        out = capsys.readouterr().out
        p = tmp_path / "g.trace"
        p.write_text(out)
        assert len(read_trace_file(str(p))) == 5

    def test_invalid_density_exits_2(self, capsys):
        assert main(["gen", "--atoms", "a", "--length", "3", "--density", "1.5", "--seed", "0"]) == 2

    @pytest.mark.parametrize(
        "atoms, error",
        [
            pytest.param("a,a", "atom name 'a' given more than once", id="a,a"),
            pytest.param("a,b, a", "atom name 'a' given more than once", id="a,b, a"),
            pytest.param("true", "'true' is the constant", id="true"),
            pytest.param("a,true", "'true' is the constant", id="a,true"),
        ],
    )
    def test_repeated_atom_exits_2(self, capsys, atoms, error):
        """A repeated name would get a draw per copy, raising its density;
        `true` is the constant, so traces over it would serve no formula."""
        assert main(["gen", "--atoms", atoms, "--length", "3", "--density", "0.3", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert f"alphabet: {error}" in captured.err
        assert captured.out == ""


class TestDiff:
    def test_clean_small_sweep(self, capsys):
        code = main(
            ["diff", "--max-depth", "1", "--atoms", "a,b", "--traces", "25", "--max-length", "4", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "mismatches: 0" in out
        assert "formulas: 100" in out

    def test_depth_zero_trivial(self, capsys):
        code = main(["diff", "--max-depth", "0", "--atoms", "a", "--traces", "5", "--max-length", "3"])
        assert code == 0
        assert "mismatches: 0" in capsys.readouterr().out

    def test_limit_samples_formulas(self, capsys):
        code = main(
            ["diff", "--max-depth", "2", "--atoms", "a,b", "--traces", "4", "--max-length", "3", "--limit", "40"]
        )
        assert code == 0
        assert "formulas: 40" in capsys.readouterr().out

    def test_huge_depth_requires_limit(self, capsys):
        assert main(["diff", "--max-depth", "3", "--atoms", "a,b", "--traces", "2"]) == 2
        assert "--limit" in capsys.readouterr().err
        code = main(
            ["diff", "--max-depth", "3", "--atoms", "a,b", "--traces", "3", "--max-length", "4", "--limit", "30"]
        )
        assert code == 0
        assert "mismatches: 0" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value", [("--max-depth", "-1"), ("--traces", "0"), ("--max-length", "0"), ("--limit", "0")]
    )
    def test_out_of_range_arguments_rejected(self, capsys, flag, value):
        assert main(["diff", "--max-depth", "1", "--traces", "3", flag, value]) == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert "comparisons" not in captured.out

    def test_large_depth_samples_without_counting_every_formula(self, capsys):
        assert _formula_space_size(10**6, 2) > ENUMERATION_CAP
        assert main(["diff", "--max-depth", "30", "--limit", "2", "--traces", "2"]) == 0
        assert "mismatches: 0" in capsys.readouterr().out

    def test_deep_sample_stays_within_the_node_budget(self, capsys):
        """At depth 500 a sampled formula would have about 1.14^500 nodes;
        `random_formula`'s node budget keeps it small."""
        assert main(["diff", "--max-depth", "500", "--limit", "2", "--traces", "2", "--max-length", "2"]) == 0
        assert "mismatches: 0" in capsys.readouterr().out

    @pytest.mark.parametrize("atoms", ["A,b", ",", "END", "a,a", "a,b,a", "true", "a,true"])
    def test_invalid_alphabet_rejected(self, capsys, atoms):
        assert main(["diff", "--max-depth", "1", "--traces", "2", "--atoms", atoms]) == 2
        captured = capsys.readouterr()
        assert "alphabet" in captured.err
        assert "comparisons" not in captured.out

    def test_corrupted_table_is_caught(self, capsys, monkeypatch):
        """Fault injection: poisoning one disjunction cell must surface as
        mismatches and exit code 3."""
        monkeypatch.setitem(truth.OR_B, ("F", "T"), FALSE)
        code = main(["diff", "--max-depth", "1", "--atoms", "a,b", "--traces", "10", "--max-length", "3"])
        out = capsys.readouterr().out
        assert code == 3
        assert "mismatches: 0" not in out
        assert "MISMATCH" in out

    def test_corrupted_end_rule_is_caught(self, capsys, monkeypatch):
        """Fault injection: poisoning the eventually's end-of-trace value
        must surface as exit code 3, and the rule listing, which reads the
        same table as the engine, shows the poisoned entry."""
        monkeypatch.setitem(truth.END, "eventually", TRUE)  # wrong: an unsatisfied eventually must fail at the end
        assert main(["compile", "F a"]) == 0
        assert "[F a]?, [END] -> [F a]T" in capsys.readouterr().out
        code = main(["diff", "--max-depth", "1", "--atoms", "a", "--traces", "10", "--max-length", "3"])
        assert code == 3

    def test_corrupted_until_end_rule_is_caught(self, capsys, monkeypatch):
        """Fault injection: an until that wrongly holds at the end of the
        trace shows in its listing and surfaces as exit code 3."""
        monkeypatch.setitem(truth.END, "until", TRUE)
        assert main(["compile", "a U b"]) == 0
        assert "[a U b]?, [END] -> [a U b]T" in capsys.readouterr().out
        code = main(["diff", "--max-depth", "1", "--atoms", "a", "--traces", "10", "--max-length", "3"])
        assert code == 3
        assert "MISMATCH" in capsys.readouterr().out


def pairwise_mismatches(formulas, traces):
    """The mismatch list of the plain loop over every (formula, trace) pair."""
    mismatches = []
    for f in formulas:
        cache = CachedMonitor(compile_formula(f))
        for u in traces:
            got = cache.run(u.cells)[0]
            want = cli.oracle_eval(f, u, 0)
            if (got is Verdict.SUCCESS) != want:
                mismatches.append((f, u, got, want))
    return mismatches


class TestDifferentialContract:
    """`run_differential` runs each distinct trace once per formula, yet
    counts and compares every pair, as the bench self-test's negated oracle
    relies on."""

    @staticmethod
    def repeated_traces():
        traces = _diff_traces(("a", "b"), 30, 4, 5)
        traces += [Trace(u.cells) for u in traces[:6]]  # equal cells, other objects
        assert len({u.cells for u in traces}) < len(traces)
        return traces

    @pytest.mark.parametrize("lie", ["everywhere", "on two-cell traces"])
    def test_every_pair_is_counted_and_listed_in_order(self, monkeypatch, lie):
        original = cli.oracle_eval
        if lie == "everywhere":
            monkeypatch.setattr(cli, "oracle_eval", lambda f, u, i: not original(f, u, i))
        else:
            monkeypatch.setattr(cli, "oracle_eval", lambda f, u, i: original(f, u, i) ^ (len(u.cells) == 2))
        formulas = enumerate_formulas(1, ["a", "b"])[::7]
        traces = self.repeated_traces()
        comparisons, mismatches = run_differential(formulas, traces)
        assert comparisons == len(formulas) * len(traces)
        expected = pairwise_mismatches(formulas, traces)
        assert 0 < len(expected) <= comparisons
        assert len(mismatches) == len(expected)
        for got, want in zip(mismatches, expected):
            assert got[0] is want[0] and got[1] is want[1]  # the given formula and trace objects
            assert got[2:] == want[2:]

    def test_each_distinct_trace_is_evaluated_once_per_formula(self, monkeypatch):
        original = cli.oracle_eval
        calls = []
        monkeypatch.setattr(cli, "oracle_eval", lambda f, u, i: calls.append(u.cells) or original(f, u, i))
        formulas = enumerate_formulas(1, ["a"])
        traces = self.repeated_traces()
        comparisons, mismatches = run_differential(formulas, traces)
        distinct = {u.cells for u in traces}
        assert (comparisons, mismatches) == (len(formulas) * len(traces), [])
        assert len(calls) == len(formulas) * len(distinct)
        assert set(calls) == distinct


# `diff` output for one seed and --limit with the oracle negated, captured
# when every pair was still run and evaluated on its own
PINNED_NEGATED_DIFF = """\
formulas: 3
traces per formula: 12
comparisons: 36
mismatches: 36
MISMATCH b & X a over [. - .]: engine FAILURE, oracle SUCCESS
MISMATCH b & X a over [b]: engine FAILURE, oracle SUCCESS
MISMATCH b & X a over [a,b - a,b - a,b]: engine SUCCESS, oracle FAILURE
MISMATCH b & X a over [a,b - a,b - a,b]: engine SUCCESS, oracle FAILURE
MISMATCH b & X a over [.]: engine FAILURE, oracle SUCCESS
"""


def test_diff_output_is_pinned(capsys, monkeypatch):
    argv = ["diff", "--max-depth", "2", "--traces", "12", "--max-length", "3", "--seed", "7", "--limit", "3"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "formulas: 3\ntraces per formula: 12\ncomparisons: 36\nmismatches: 0\n"
    original = cli.oracle_eval
    monkeypatch.setattr(cli, "oracle_eval", lambda f, u, i: not original(f, u, i))
    assert main(argv) == 3
    assert capsys.readouterr().out == PINNED_NEGATED_DIFF


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["bogus"])
        assert err.value.code == 2

    def test_missing_trace_source(self):
        with pytest.raises(SystemExit) as err:
            main(["run", "a"])
        assert err.value.code == 2


class TestModuleEntry:
    @pytest.mark.parametrize("module", ["rulerunner", "rulerunner.cli"])
    def test_python_m_runs_the_cli(self, module):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", module, "run", "a", "--trace", "[a]"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "SUCCESS at cell 0"
