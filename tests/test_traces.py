import random

import pytest

from rulerunner import (
    GenParams,
    Trace,
    TraceError,
    format_trace_file,
    format_trace_inline,
    gen_traces,
    parse_trace_inline,
    read_trace_file,
)
from rulerunner.traces import MEMO_CELLS, MEMO_LINE_CHARS, _parse_cell


class TestInlineFormat:
    def test_worked_example(self):
        t = parse_trace_inline("[c - a - b,d - b]")
        assert t.cells == (frozenset({"c"}), frozenset({"a"}), frozenset({"b", "d"}), frozenset({"b"}))

    def test_two_cell_trace(self):
        assert parse_trace_inline("[b - b]").cells == (frozenset({"b"}),) * 2

    def test_empty_cell_dot(self):
        assert parse_trace_inline(". - a").cells == (frozenset(), frozenset({"a"}))

    def test_brackets_optional_and_whitespace_tolerated(self):
        assert parse_trace_inline("  c-a -  b , d-b ") == parse_trace_inline("[c - a - b,d - b]")

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceError):
            parse_trace_inline("")
        with pytest.raises(TraceError):
            parse_trace_inline("[]")

    def test_bad_observation_name(self):
        with pytest.raises(TraceError):
            parse_trace_inline("[a - 9x]")

    def test_end_token_rejected_as_atom(self):
        with pytest.raises(TraceError):
            parse_trace_inline("[a - END]")

    def test_round_trip(self):
        rng = random.Random(2)
        for params in (GenParams(("a", "b", "c"), 5, 0.4, seed, count=3) for seed in range(10)):
            for t in gen_traces(params):
                assert parse_trace_inline(format_trace_inline(t)) == t
        assert format_trace_inline(parse_trace_inline("[. - a,b]")) == "[. - a,b]"


class TestFileFormat:
    def test_worked_example_file(self, tmp_path):
        p = tmp_path / "t.trace"
        p.write_text("c\na\nb,d\nb\n")
        assert read_trace_file(str(p)) == parse_trace_inline("[c - a - b,d - b]")

    def test_single_cell(self, tmp_path):
        p = tmp_path / "t.trace"
        p.write_text("a\n")
        assert read_trace_file(str(p)).cells == (frozenset({"a"}),)

    def test_comments_skipped(self, tmp_path):
        p = tmp_path / "t.trace"
        p.write_text("# a comment\na\n# another\nb\n")
        assert read_trace_file(str(p)) == parse_trace_inline("[a - b]")

    def test_blank_line_is_empty_cell(self, tmp_path):
        p = tmp_path / "t.trace"
        p.write_text("a\n\nb\n")
        assert read_trace_file(str(p)) == parse_trace_inline("[a - . - b]")

    def test_whitespace_or_commas_separate(self, tmp_path):
        p = tmp_path / "t.trace"
        p.write_text("a b\nb,c\n")
        assert read_trace_file(str(p)) == parse_trace_inline("[a,b - b,c]")

    def test_error_carries_line_number(self, tmp_path):
        p = tmp_path / "t.trace"
        p.write_text("a\nEND\n")
        with pytest.raises(TraceError) as err:
            read_trace_file(str(p))
        assert ":2:" in str(err.value)

    def test_memo_gives_the_cells_of_each_line_alone(self, tmp_path):
        """A file and an inline trace of repeated, distinct past the memo's
        cap, over-long, blank and comment lines with \\r\\n endings read as
        `_parse_cell` gives their cells line by line."""
        rng = random.Random(5)
        pool = ["a", "b,c", " a  b ", ".", "", "c\t,a", "x_1", "a " * MEMO_LINE_CHARS, "# note", "  #a, END"]
        distinct = [f"d{i}" for i in range(MEMO_CELLS + 50)]
        lines = [rng.choice(pool) for _ in range(2000)] + distinct + distinct[-100:]
        rng.shuffle(lines)
        p = tmp_path / "t.trace"
        p.write_bytes("".join(line + "\r\n" for line in lines).encode())
        kept = [line for line in lines if not line.lstrip().startswith("#")]
        want = Trace(tuple(_parse_cell(line) for line in kept))
        assert read_trace_file(str(p)) == want
        assert parse_trace_inline("[" + "-".join(line + "\r" for line in kept) + "]") == want

    def test_file_round_trip(self, tmp_path):
        t = parse_trace_inline("[a,b - . - c]")
        p = tmp_path / "t.trace"
        p.write_text(format_trace_file(t))
        assert read_trace_file(str(p)) == t


class TestGenerator:
    def test_zero_density_gives_empty_cells(self):
        (t,) = gen_traces(GenParams(("a", "b"), 20, 0.0, 1))
        assert all(cell == frozenset() for cell in t.cells)

    def test_full_density_gives_full_cells(self):
        (t,) = gen_traces(GenParams(("a", "b"), 20, 1.0, 1))
        assert all(cell == frozenset({"a", "b"}) for cell in t.cells)

    def test_deterministic_under_seed(self):
        params = GenParams(("a", "b", "c"), 50, 0.5, 42, count=5)
        assert gen_traces(params) == gen_traces(params)

    def test_shape(self):
        traces = gen_traces(GenParams(("a",), 7, 0.5, 3, count=4))
        assert len(traces) == 4
        assert all(len(t) == 7 for t in traces)

    def test_frequency_within_three_sigma(self):
        n = 10_000
        p = 0.3
        (t,) = gen_traces(GenParams(("a",), n, p, 2024))
        freq = sum(1 for cell in t.cells if "a" in cell) / n
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(freq - p) <= 3 * sigma

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(atoms=(), length=3, density=0.5, seed=0),
            dict(atoms=("a",), length=0, density=0.5, seed=0),
            dict(atoms=("a",), length=3, density=1.5, seed=0),
            dict(atoms=("a",), length=3, density=-0.1, seed=0),
            dict(atoms=("a",), length=3, density=0.5, seed=0, count=0),
            dict(atoms=("END",), length=3, density=0.5, seed=0),
            dict(atoms=("a", "a"), length=3, density=0.5, seed=0),
            dict(atoms=("a", "b", "a"), length=3, density=0.5, seed=0),
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            GenParams(**kwargs)

    def test_alphabet_errors_are_the_cli_messages(self):
        with pytest.raises(TraceError, match="alphabet: atom name 'a' given more than once"):
            GenParams(("a", "b", "a"), 3, 0.5, 0)
        with pytest.raises(TraceError, match="alphabet: no atom names given"):
            GenParams((), 3, 0.5, 0)


def test_trace_must_be_nonempty():
    with pytest.raises(TraceError):
        Trace(())
