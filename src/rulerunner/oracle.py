"""Finite-trace LTL semantics, used as ground truth.

Deliberately independent of the rule engine and its evaluation tables.
Each subformula is evaluated once over the whole trace, bottom-up (the
dynamic programme of Havelund & Roşu, *Synthesizing Monitors for Safety
Properties*, TACAS 2002), as an int whose bit j is its value at cell j.
Strong next is false and weak next true when no next cell exists;
eventually and always read the highest cell where their operand holds or
fails (not via until), and until is the least fixpoint of its one-step
unfolding.

Each formula is built once into a tree of closures, one per node, and
`oracle_eval` keeps the last one it built: consecutive calls on the same
formula object reuse its closures and walk no formula.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field

from .ltl import (
    Always,
    And,
    Atom,
    Binary,
    Eventually,
    Formula,
    NegAtom,
    Next,
    Not,
    Or,
    TrueConst,
    Until,
    WeakNext,
    format_formula,
)
from .traces import Trace


def oracle_eval(f: Formula, u: Trace, i: int) -> bool:
    """FLTL value of f at position i of u.  Not nodes are evaluated as the
    boolean complement of their operand.  The last formula evaluated keeps
    its closures, so a run of calls on one formula object builds them once."""
    global _last
    n = len(u.cells)
    if not 0 <= i < n:
        raise IndexError(f"position {i} outside trace of length {n}")
    last, bits = _last
    if last is not f:  # identity, not equality: no formula is hashed or compared
        bits = _build(f)
        _last = (f, bits)
    return bool(bits(u.positions, (1 << n) - 1) >> i & 1)


# the formula last given to `oracle_eval` and its evaluator, as one tuple so
# that no reader, in any thread, pairs one formula with another's evaluator
_last: tuple[Formula | None, Callable[[dict[str, int], int], int] | None] = (None, None)


def _build(g: Formula) -> Callable[[dict[str, int], int], int]:
    """One closure per node of g: given `pos`, which maps each observed name
    to its cells, and `full`, which has one bit per cell, it returns the
    cells of the trace where its node holds, as a bit set."""
    kind = type(g)
    if kind is Atom:
        name = g.name
        return lambda pos, full: pos.get(name, 0)
    if kind is NegAtom:
        name = g.name
        return lambda pos, full: full ^ pos.get(name, 0)
    if kind is TrueConst:
        return lambda pos, full: full
    if kind is Or:
        left, right = _build(g.left), _build(g.right)
        return lambda pos, full: left(pos, full) | right(pos, full)
    if kind is And:
        left, right = _build(g.left), _build(g.right)
        return lambda pos, full: left(pos, full) & right(pos, full)
    if kind is Next:
        sub = _build(g.sub)
        return lambda pos, full: sub(pos, full) >> 1
    if kind is WeakNext:
        sub = _build(g.sub)
        return lambda pos, full: sub(pos, full) >> 1 | (full + 1) >> 1  # the last cell's bit
    if kind is Eventually:
        sub = _build(g.sub)
        return lambda pos, full: (1 << sub(pos, full).bit_length()) - 1
    if kind is Always:
        sub = _build(g.sub)
        return lambda pos, full: full ^ ((1 << (full ^ sub(pos, full)).bit_length()) - 1)
    if kind is Until:
        left, right = _build(g.left), _build(g.right)
        return lambda pos, full: _until(left(pos, full), right(pos, full))
    if kind is Not:
        sub = _build(g.sub)
        return lambda pos, full: full ^ sub(pos, full)
    raise TypeError(f"not a formula node: {g!r}")


def _until(f: int, g: int) -> int:
    """Least fixpoint of v = g | f & v >> 1, by doubling: after the round
    with shift s, v holds where g is reached within 2s cells through f, and
    p where f holds over the next 2s cells.  A round that adds nothing
    means no longer reach can add anything either."""
    v, p, s = g, f, 1
    while True:
        w = v | p & (v >> s)
        if w == v:
            return v
        v, p, s = w, p & (p >> s), s << 1


# ---------------------------------------------------------------------------
# judgements: the shape a monitor state maps onto


@dataclass(frozen=True)
class Judgement:
    pass


@dataclass(frozen=True)
class JTop(Judgement):
    def __str__(self) -> str:
        return "⊤"


@dataclass(frozen=True)
class JBottom(Judgement):
    def __str__(self) -> str:
        return "⊥"


@dataclass(frozen=True)
class JLeaf(Judgement):
    formula: Formula
    index: int
    # the formula's text, when the caller already holds it; else formatted when printed
    text: str | None = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        text = format_formula(self.formula) if self.text is None else self.text
        return f"[u,{self.index} ⊨ {text}]"


@dataclass(frozen=True)
class JOr(Judgement):
    left: Judgement
    right: Judgement

    def __str__(self) -> str:
        return f"{self.left} ⊔ {self.right}"


@dataclass(frozen=True)
class JAnd(Judgement):
    left: Judgement
    right: Judgement

    def __str__(self) -> str:
        def wrap(j: Judgement) -> str:
            return f"({j})" if isinstance(j, JOr) else str(j)

        return f"{wrap(self.left)} ⊓ {wrap(self.right)}"


TOP = JTop()
BOTTOM = JBottom()


def eval_judgement(j: Judgement, u: Trace) -> bool:
    if isinstance(j, JTop):
        return True
    if isinstance(j, JBottom):
        return False
    if isinstance(j, JLeaf):
        if not 0 <= j.index < len(u):
            raise IndexError(f"judgement index {j.index} outside trace of length {len(u)}")
        return oracle_eval(j.formula, u, j.index)
    if isinstance(j, JOr):
        return eval_judgement(j.left, u) or eval_judgement(j.right, u)
    assert isinstance(j, JAnd)
    return eval_judgement(j.left, u) and eval_judgement(j.right, u)


# ---------------------------------------------------------------------------
# formula corpora for differential testing

_UNARY_CTORS = (Next, WeakNext, Eventually, Always)
_BINARY_CTORS = (Or, And, Until)


def leaf_formulas(atoms: list[str]) -> list[Formula]:
    out: list[Formula] = [TrueConst()]
    out.extend(Atom(a) for a in atoms)
    out.extend(NegAtom(a) for a in atoms)
    return out


def enumerate_formulas(max_depth: int, atoms: list[str]) -> list[Formula]:
    """All structurally distinct NNF formulae up to the given operator
    nesting depth, in a deterministic order."""
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    layer = leaf_formulas(atoms)
    for _ in range(max_depth):
        nxt = list(leaf_formulas(atoms))
        for ctor in _UNARY_CTORS:
            nxt.extend(ctor(f) for f in layer)
        for ctor in _BINARY_CTORS:
            nxt.extend(ctor(f, g) for f in layer for g in layer)
        layer = list(dict.fromkeys(nxt))
    return layer


def random_formula(
    max_depth: int,
    atoms: list[str],
    seed: int | random.Random,
    operators: tuple[type, ...] = _UNARY_CTORS + _BINARY_CTORS,
) -> Formula:
    """Seeded random NNF formula with operator nesting depth <= max_depth."""
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    leaves = leaf_formulas(atoms)

    def gen(depth: int) -> Formula:
        if depth == 0 or rng.random() < 0.2:
            return rng.choice(leaves)
        ctor = rng.choice(operators)
        if issubclass(ctor, Binary):
            return ctor(gen(depth - 1), gen(depth - 1))
        return ctor(gen(depth - 1))

    return gen(max_depth)
