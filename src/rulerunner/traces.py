"""Finite traces of observation sets, inline/file formats, random generation.

Inline syntax follows the bracketed dash notation, e.g. ``[c - a - b,d - b]``;
``.`` writes an empty cell.  The last cell of a trace implicitly carries the
end-of-input marker; the marker is positional, so ``END`` is rejected as an
observation name.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

from .ltl import ATOM_RE


class TraceError(ValueError):
    pass


@dataclass(frozen=True)
class Trace:
    cells: tuple[frozenset[str], ...]

    def __post_init__(self) -> None:
        if not self.cells:
            raise TraceError("a trace must contain at least one cell")

    def __len__(self) -> int:
        return len(self.cells)

    def __getitem__(self, i: int) -> frozenset[str]:
        return self.cells[i]

    @cached_property
    def positions(self) -> dict[str, int]:
        """Each observed name mapped to the bit set of the cells holding it
        (bit j for cell j), built on first read and kept with the trace."""
        out: dict[str, int] = {}
        for j, cell in enumerate(self.cells):
            bit = 1 << j
            for name in cell:
                out[name] = out.get(name, 0) | bit
        return out


def _check_atom(name: str) -> str:
    # the error says what is wrong, and each caller adds where
    if name == "END":
        raise TraceError("'END' is reserved for the end-of-trace marker")
    if not ATOM_RE.fullmatch(name):
        raise TraceError(f"invalid observation name {name!r}")
    return name


def check_alphabet(atoms: tuple[str, ...]) -> tuple[str, ...]:
    """An atom alphabet as given: nonempty, each name a valid observation
    name other than the constant `true`, given once."""
    for a in atoms:
        try:
            if _check_atom(a) == "true":
                raise TraceError("'true' is the constant, not an atom name")
        except TraceError as exc:
            raise TraceError(f"alphabet: {exc}") from None
    if not atoms:
        raise TraceError("alphabet: no atom names given")
    for i, a in enumerate(atoms):
        if a in atoms[:i]:
            raise TraceError(f"alphabet: atom name {a!r} given more than once")
    return atoms


def _parse_cell(text: str) -> frozenset[str]:
    text = text.strip()
    if text == "." or not text:
        return frozenset()
    return frozenset(map(_check_atom, text.replace(",", " ").split()))


# A `cell_parser` memo holds at most this many line texts, each at most this
# long.  Once full it evicts nothing, so a line it does not hold stays cheap.
MEMO_CELLS = 1024
MEMO_LINE_CHARS = 128


def cell_parser(
    atoms: frozenset[str] | None = None,
    memo: dict[str, frozenset[str]] | None = None,
) -> Callable[[str], frozenset[str]]:
    """`_parse_cell` for one input, intersected with `atoms` when they are
    given: a well-formed line text within the memo's bounds is parsed once,
    a malformed one raises its `TraceError` each time.  A caller that passes
    its own `memo` may look a line text up there with no call, and call the
    parser only for a text the memo does not hold."""
    if memo is None:
        memo = {}

    def parse(text: str) -> frozenset[str]:
        cell = memo.get(text)
        if cell is None:
            cell = _parse_cell(text)
            if atoms is not None:
                cell = atoms.intersection(cell)
            if len(memo) < MEMO_CELLS and len(text) <= MEMO_LINE_CHARS:
                memo[text] = cell
        return cell

    return parse


def parse_trace_inline(text: str) -> Trace:
    """Parse the inline dash notation; brackets and whitespace are optional."""
    stripped = text.strip()
    if stripped.startswith("[") and stripped.endswith("]"):
        stripped = stripped[1:-1]
    if not stripped.strip():
        raise TraceError("empty trace")
    cells = []
    parse = cell_parser()
    for i, chunk in enumerate(stripped.split("-")):
        try:
            cells.append(parse(chunk))
        except TraceError as exc:
            raise TraceError(f"cell {i}: {exc}") from None
    return Trace(tuple(cells))


def format_trace_inline(t: Trace) -> str:
    rendered = [",".join(sorted(cell)) if cell else "." for cell in t.cells]
    return "[" + " - ".join(rendered) + "]"


def read_trace_file(path: str) -> Trace:
    """One cell per line; ``#`` lines are comments, blank lines empty cells,
    and a leading byte-order mark is dropped."""
    with open(path, encoding="utf-8-sig") as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()  # trailing newline does not open a cell
    cells = []
    parse = cell_parser()
    for lineno, raw in enumerate(lines, start=1):
        try:
            cells.append(parse(raw))
        except TraceError as exc:  # a comment fails the cell syntax too
            if not raw.lstrip().startswith("#"):
                raise TraceError(f"{path}:{lineno}: line: {exc}") from None
    if not cells:
        raise TraceError(f"{path}: empty trace")
    return Trace(tuple(cells))


def format_trace_file(t: Trace) -> str:
    return "\n".join(",".join(sorted(cell)) for cell in t.cells) + "\n"


@dataclass(frozen=True)
class GenParams:
    atoms: tuple[str, ...]
    length: int
    density: float
    seed: int
    count: int = 1

    def __post_init__(self) -> None:
        check_alphabet(self.atoms)
        if self.length < 1:
            raise ValueError("trace length must be >= 1")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError("density must lie in [0, 1]")
        if self.count < 1:
            raise ValueError("count must be >= 1")


def gen_traces(params: GenParams) -> list[Trace]:
    """Seeded random traces: each atom appears in each cell independently
    with probability `density`."""
    rng = random.Random(params.seed)
    out = []
    for _ in range(params.count):
        cells = tuple(
            frozenset(a for a in params.atoms if rng.random() < params.density)
            for _ in range(params.length)
        )
        out.append(Trace(cells))
    return out
