"""LTL abstract syntax, concrete syntax parser, NNF normalisation and printing.

Concrete syntax tokens: ``! & | U X W F G true ( )`` with ``<>`` accepted as
an alias for ``F`` and ``[]`` for ``G``.  Precedence, tightest first:
``{!, X, W, F, G} > U > & > |``; ``U`` is right-associative, ``&`` and ``|``
left-associative.  Atom names match ``ATOM_RE``, ``[a-z][a-z0-9_]*``.

Each operator class states its shape by deriving from `Unary` or `Binary`
and carries its concrete ``symbol`` and, if binary, its precedence
``level``; the negation duals `to_nnf` applies are the table `_DUAL`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class TrueConst(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class NegAtom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    """General negation; only present before NNF normalisation.  It is
    neither `Unary` nor `Binary`, so no shape test admits it."""

    symbol = "!"
    sub: Formula


@dataclass(frozen=True)
class Unary(Formula):
    """A temporal operator over one operand; subclasses add no fields."""

    sub: Formula


@dataclass(frozen=True)
class Binary(Formula):
    """An operator over two operands; subclasses add no fields."""

    left: Formula
    right: Formula


class Or(Binary):
    symbol = "|"
    level = 1


class And(Binary):
    symbol = "&"
    level = 2


class Until(Binary):
    symbol = "U"
    level = 3


class Next(Unary):
    symbol = "X"


class WeakNext(Unary):
    symbol = "W"


class Eventually(Unary):
    symbol = "F"


class Always(Unary):
    symbol = "G"


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NnfError(ValueError):
    """Raised when a negated formula has no NNF form in this grammar."""


ATOM_RE = re.compile(r"[a-z][a-z0-9_]*")

_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<atom>{ATOM_RE.pattern})|(?P<ev><>)|(?P<alw>\[\])|(?P<sym>[!&|UXWFG()]))"
)

_OPERATORS = {cls.symbol: cls for cls in (Not, Next, WeakNext, Eventually, Always, Or, And, Until)}

# prefix operators bind tighter than any Binary.level, so never need parentheses
_LEVEL_UNARY = 4


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        if m.group("atom"):
            word = m.group("atom")
            kind = "true" if word == "true" else "atom"
            tokens.append((kind, word, m.start("atom")))
        elif m.group("ev"):
            tokens.append(("op", "F", m.start("ev")))
        elif m.group("alw"):
            tokens.append(("op", "G", m.start("alw")))
        else:
            tokens.append(("op", m.group("sym"), m.start("sym")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, sym: str) -> None:
        kind, val, pos = self.peek()
        if kind != "op" or val != sym:
            raise ParseError(f"expected {sym!r}", pos)
        self.advance()

    def parse(self) -> Formula:
        kind, _, pos = self.peek()
        if kind == "end":
            raise ParseError("empty formula", pos)
        f = self.binary_expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", pos)
        return f

    def operator(self) -> type[Formula] | None:
        kind, val, _ = self.tokens[self.i]
        return _OPERATORS.get(val) if kind == "op" else None

    def binary_expr(self, level: int = Or.level) -> Formula:
        """A formula whose binary operators outside parentheses have at least
        this precedence level."""
        if level == _LEVEL_UNARY:
            return self.unary_expr()
        f = self.binary_expr(level + 1)
        op = self.operator()
        while op is not None and issubclass(op, Binary) and op.level == level:
            self.advance()
            if op is Until:  # U groups to the right, & and | to the left
                return Until(f, self.binary_expr(level))
            f = op(f, self.binary_expr(level + 1))
            op = self.operator()
        return f

    def unary_expr(self) -> Formula:
        op = self.operator()
        if op is None or issubclass(op, Binary):
            return self.primary()
        self.advance()
        sub = self.unary_expr()
        if op is Not and isinstance(sub, Atom):
            return NegAtom(sub.name)
        return op(sub)

    def primary(self) -> Formula:
        kind, val, pos = self.advance()
        if kind == "true":
            return TrueConst()
        if kind == "atom":
            return Atom(val)
        if kind == "op" and val == "(":
            f = self.binary_expr()
            self.expect_op(")")
            return f
        raise ParseError(f"expected a formula, got {val!r}" if val else "unexpected end of input", pos)


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax.  Negation of compound formulae is accepted and
    left as a Not node for `to_nnf` to eliminate."""
    return _Parser(text).parse()


# the operator a negation turns each operator into (negated until has none)
_DUAL = {Or: And, And: Or, Next: WeakNext, WeakNext: Next, Eventually: Always, Always: Eventually}


def to_nnf(f: Formula) -> Formula:
    """Push negations down to the literals and cancel double negations.

    Rejects negated until (the grammar has no release operator) and negated
    `true` (there is no false literal).
    """
    if isinstance(f, Binary):
        return type(f)(to_nnf(f.left), to_nnf(f.right))
    if isinstance(f, Unary):
        return type(f)(to_nnf(f.sub))
    if not isinstance(f, Not):
        return f  # true or a literal
    g = f.sub
    if isinstance(g, TrueConst):
        raise NnfError("!true has no NNF form: the grammar has no false literal")
    if isinstance(g, Atom):
        return NegAtom(g.name)
    if isinstance(g, NegAtom):
        return Atom(g.name)
    if isinstance(g, Not):
        return to_nnf(g.sub)
    if isinstance(g, Until):
        raise NnfError("negated until has no NNF form: the grammar has no release operator")
    if isinstance(g, Binary):
        return _DUAL[type(g)](to_nnf(Not(g.left)), to_nnf(Not(g.right)))
    return _DUAL[type(g)](to_nnf(Not(g.sub)))


def is_nnf(f: Formula) -> bool:
    if isinstance(f, Binary):
        return is_nnf(f.left) and is_nnf(f.right)
    if isinstance(f, Unary):
        return is_nnf(f.sub)
    return not isinstance(f, Not)


def _fmt(f: Formula, ctx: int) -> str:
    if isinstance(f, Binary):
        level = f.level
        right = isinstance(f, Until)  # U groups to the right, & and | to the left
        text = _fmt(f.left, level + right) + f" {f.symbol} " + _fmt(f.right, level + 1 - right)
        return f"({text})" if level < ctx else text
    if isinstance(f, Unary):
        return f.symbol + " " + _fmt(f.sub, _LEVEL_UNARY)
    if isinstance(f, Not):
        return f.symbol + _fmt(f.sub, _LEVEL_UNARY)
    if isinstance(f, NegAtom):
        return "!" + f.name
    if isinstance(f, Atom):
        return f.name
    assert isinstance(f, TrueConst)
    return "true"


def format_formula(f: Formula) -> str:
    """Render with minimal parentheses; inverse of parse_formula."""
    return _fmt(f, 0)


class SubformulaIndex:
    """Distinct subformulae in post-order; children receive smaller ids."""

    def __init__(self, root: Formula):
        self.formulas: list[Formula] = []
        self.ids: dict[Formula, int] = {}
        self._texts: list[str] = []
        self._collect(root)
        self.root = self.ids[root]

    def _collect(self, f: Formula) -> None:
        if f in self.ids:
            return
        if isinstance(f, Binary):
            self._collect(f.left)
            self._collect(f.right)
        elif isinstance(f, Unary):
            self._collect(f.sub)
        elif isinstance(f, Not):
            raise NnfError("subformula indexing requires NNF input")
        self.ids[f] = len(self.formulas)
        self.formulas.append(f)
        self._texts.append(format_formula(f))

    def __len__(self) -> int:
        return len(self.formulas)

    def id_of(self, f: Formula) -> int:
        return self.ids[f]

    def text(self, fid: int) -> str:
        return self._texts[fid]

