"""Finite-trace LTL semantics, used as ground truth.

Deliberately independent of the rule engine and its evaluation tables.
Each subformula is evaluated once over the whole trace, bottom-up (the
dynamic programme of Havelund & Roşu, *Synthesizing Monitors for Safety
Properties*, TACAS 2002), as an int whose bit j is its value at cell j.
Strong next is false and weak next true when no next cell exists;
eventually and always read the highest cell where their operand holds or
fails (not via until), and until is the least fixpoint of its one-step
unfolding.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

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
    boolean complement of their operand."""
    n = len(u)
    if not 0 <= i < n:
        raise IndexError(f"position {i} outside trace of length {n}")
    return bool(_bits(f, u.positions, (1 << n) - 1) >> i & 1)


def _bits(g: Formula, pos: dict[str, int], full: int) -> int:
    """The cells of the trace where g holds, as a bit set; `pos` maps each
    observed name to its cells and `full` has one bit per cell."""
    kind = type(g)
    if kind is Atom:
        return pos.get(g.name, 0)
    if kind is NegAtom:
        return full ^ pos.get(g.name, 0)
    if kind is TrueConst:
        return full
    if kind is Or:
        return _bits(g.left, pos, full) | _bits(g.right, pos, full)
    if kind is And:
        return _bits(g.left, pos, full) & _bits(g.right, pos, full)
    if kind is Next:
        return _bits(g.sub, pos, full) >> 1
    if kind is WeakNext:
        return _bits(g.sub, pos, full) >> 1 | (full + 1) >> 1  # the last cell's bit
    if kind is Eventually:
        return (1 << _bits(g.sub, pos, full).bit_length()) - 1
    if kind is Always:
        return full ^ ((1 << (full ^ _bits(g.sub, pos, full)).bit_length()) - 1)
    if kind is Until:
        return _until(_bits(g.left, pos, full), _bits(g.right, pos, full))
    if kind is Not:
        return full ^ _bits(g.sub, pos, full)
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

    def __str__(self) -> str:
        return f"[u,{self.index} ⊨ {format_formula(self.formula)}]"


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
