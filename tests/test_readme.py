"""The README's "Library use" code runs as written and gives the results its
comments state."""

import ast
import contextlib
import io
import pathlib
import re

from rulerunner import Verdict

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_use_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)


def test_library_use_blocks_run_as_documented():
    blocks = library_use_blocks()
    assert len(blocks) == 2
    namespace: dict = {}
    values = {}  # each expression statement's source -> its value
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:  # one namespace: the second block reads the first one's names
            for stmt in ast.parse(block).body:
                source = ast.get_source_segment(block, stmt)
                if isinstance(stmt, ast.Expr):
                    values[source] = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
                else:
                    exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert out.getvalue().split("\n")[0] == "SUCCESS 2"
    assert values["oracle_eval(f, u, 0)"] is True
    assert values['check_run(to_nnf(parse_formula("a | X b")), parse_trace_inline("[b - b]")).passed'] is True
    assert values["cache.run(u.cells)"] == (Verdict.SUCCESS, 2)
    assert values["cache.run_many([u.cells, u.cells[:2]])"] == [(Verdict.SUCCESS, 2), (Verdict.FAILURE, 1)]
