import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rulerunner import truth
from rulerunner.cli import main
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

    def test_bad_trace_exits_2(self, capsys):
        assert main(["run", "a", "--trace", "[a - END]"]) == 2

    def test_binary_output_is_single_line(self, capsys):
        main(["run", "G a", "--trace", "[a - a]"])
        assert len(capsys.readouterr().out.strip().splitlines()) == 1


class TestStream:
    def test_evolving_verdicts(self, capsys, monkeypatch):
        code = run_cli("stream", "a | F b", stdin="c\na\nb,d\n", monkeypatch=monkeypatch)
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["?", "?", "SUCCESS"]

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
        assert captured.out.splitlines() == ["SUCCESS"]
        assert "skipped" in captured.err

    def test_eof_counts_as_end(self, capsys, monkeypatch):
        code = run_cli("stream", "G a", stdin="a\na\n", monkeypatch=monkeypatch)
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["?", "?", "SUCCESS"]

    def test_line_holding_several_cells_is_skipped(self, capsys, monkeypatch):
        # a stream line is exactly one cell; `a - b` is not monitored as {a}
        code = run_cli("stream", "F b", stdin="a - b\n$end\n", monkeypatch=monkeypatch)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.splitlines() == ["FAILURE"]
        assert "skipped" in captured.err

    @pytest.mark.parametrize("formula, verdict, exit_code", [("G a", "FAILURE", 1), ("W a", "SUCCESS", 0)])
    def test_empty_input_is_one_empty_cell(self, capsys, monkeypatch, formula, verdict, exit_code):
        code = run_cli("stream", formula, stdin="", monkeypatch=monkeypatch)
        assert code == exit_code
        assert capsys.readouterr().out.splitlines() == [verdict]


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

    @pytest.mark.parametrize("atoms", ["A,b", ",", "END"])
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
        original = truth.eval_unary

        def poisoned(op, mode, sub, at_end):
            if op == "eventually" and at_end and sub.kind != "T":
                return TRUE  # wrong: an unsatisfied eventually must fail at the end
            return original(op, mode, sub, at_end)

        monkeypatch.setattr(truth, "eval_unary", poisoned)
        monkeypatch.setattr("rulerunner.engine.truth.eval_unary", poisoned)
        code = main(["diff", "--max-depth", "1", "--atoms", "a", "--traces", "10", "--max-length", "3"])
        assert code == 3


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
