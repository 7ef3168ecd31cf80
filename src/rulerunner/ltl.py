"""LTL abstract syntax, concrete syntax parser, NNF normalisation and printing.

Concrete syntax tokens: ``! & | U X W F G true ( )`` with ``<>`` accepted as
an alias for ``F`` and ``[]`` for ``G``.  Precedence, tightest first:
``{!, X, W, F, G} > U > & > |``; ``U`` is right-associative, ``&`` and ``|``
left-associative.  Atom names match ``[a-z][a-z0-9_]*``.
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
    """General negation; only present before NNF normalisation."""

    sub: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    sub: Formula


@dataclass(frozen=True)
class WeakNext(Formula):
    sub: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    sub: Formula


@dataclass(frozen=True)
class Always(Formula):
    sub: Formula


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NnfError(ValueError):
    """Raised when a negated formula has no NNF form in this grammar."""


ATOM_RE = re.compile(r"[a-z][a-z0-9_]*")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<atom>[a-z][a-z0-9_]*)|(?P<ev><>)|(?P<alw>\[\])|(?P<sym>[!&|UXWFG()]))"
)

_UNARY_TOKENS = {"!", "X", "W", "F", "G"}


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
        f = self.or_expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", pos)
        return f

    def or_expr(self) -> Formula:
        f = self.and_expr()
        while self.peek()[:2] == ("op", "|"):
            self.advance()
            f = Or(f, self.and_expr())
        return f

    def and_expr(self) -> Formula:
        f = self.until_expr()
        while self.peek()[:2] == ("op", "&"):
            self.advance()
            f = And(f, self.until_expr())
        return f

    def until_expr(self) -> Formula:
        f = self.unary_expr()
        if self.peek()[:2] == ("op", "U"):
            self.advance()
            return Until(f, self.until_expr())
        return f

    def unary_expr(self) -> Formula:
        kind, val, pos = self.peek()
        if kind == "op" and val in _UNARY_TOKENS:
            self.advance()
            sub = self.unary_expr()
            if val == "!":
                if isinstance(sub, Atom):
                    return NegAtom(sub.name)
                return Not(sub)
            ctor = {"X": Next, "W": WeakNext, "F": Eventually, "G": Always}[val]
            return ctor(sub)
        return self.primary()

    def primary(self) -> Formula:
        kind, val, pos = self.advance()
        if kind == "true":
            return TrueConst()
        if kind == "atom":
            return Atom(val)
        if kind == "op" and val == "(":
            f = self.or_expr()
            self.expect_op(")")
            return f
        raise ParseError(f"expected a formula, got {val!r}" if val else "unexpected end of input", pos)


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax.  Negation of compound formulae is accepted and
    left as a Not node for `to_nnf` to eliminate."""
    return _Parser(text).parse()


def to_nnf(f: Formula) -> Formula:
    """Push negations down to the literals and cancel double negations.

    Rejects negated until (the grammar has no release operator) and negated
    `true` (there is no false literal).
    """
    if isinstance(f, (TrueConst, Atom, NegAtom)):
        return f
    if isinstance(f, Or):
        return Or(to_nnf(f.left), to_nnf(f.right))
    if isinstance(f, And):
        return And(to_nnf(f.left), to_nnf(f.right))
    if isinstance(f, Until):
        return Until(to_nnf(f.left), to_nnf(f.right))
    if isinstance(f, Next):
        return Next(to_nnf(f.sub))
    if isinstance(f, WeakNext):
        return WeakNext(to_nnf(f.sub))
    if isinstance(f, Eventually):
        return Eventually(to_nnf(f.sub))
    if isinstance(f, Always):
        return Always(to_nnf(f.sub))
    assert isinstance(f, Not)
    g = f.sub
    if isinstance(g, TrueConst):
        raise NnfError("!true has no NNF form: the grammar has no false literal")
    if isinstance(g, Atom):
        return NegAtom(g.name)
    if isinstance(g, NegAtom):
        return Atom(g.name)
    if isinstance(g, Not):
        return to_nnf(g.sub)
    if isinstance(g, Or):
        return And(to_nnf(Not(g.left)), to_nnf(Not(g.right)))
    if isinstance(g, And):
        return Or(to_nnf(Not(g.left)), to_nnf(Not(g.right)))
    if isinstance(g, Next):
        return WeakNext(to_nnf(Not(g.sub)))
    if isinstance(g, WeakNext):
        return Next(to_nnf(Not(g.sub)))
    if isinstance(g, Eventually):
        return Always(to_nnf(Not(g.sub)))
    if isinstance(g, Always):
        return Eventually(to_nnf(Not(g.sub)))
    assert isinstance(g, Until)
    raise NnfError("negated until has no NNF form: the grammar has no release operator")


def is_nnf(f: Formula) -> bool:
    if isinstance(f, Not):
        return False
    if isinstance(f, (Or, And, Until)):
        return is_nnf(f.left) and is_nnf(f.right)
    if isinstance(f, (Next, WeakNext, Eventually, Always)):
        return is_nnf(f.sub)
    return True


# precedence levels for minimal-parenthesis printing
_LEVEL_OR = 1
_LEVEL_AND = 2
_LEVEL_UNTIL = 3
_LEVEL_UNARY = 4
_LEVEL_LEAF = 5

_UNARY_SYMBOL = {Next: "X", WeakNext: "W", Eventually: "F", Always: "G"}


def _fmt(f: Formula, ctx: int) -> str:
    if isinstance(f, TrueConst):
        return "true"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, NegAtom):
        return "!" + f.name
    if isinstance(f, Not):
        return "!" + _fmt(f.sub, _LEVEL_UNARY)
    if isinstance(f, (Next, WeakNext, Eventually, Always)):
        text = _UNARY_SYMBOL[type(f)] + " " + _fmt(f.sub, _LEVEL_UNARY)
        return f"({text})" if _LEVEL_UNARY < ctx else text
    if isinstance(f, Until):
        text = _fmt(f.left, _LEVEL_UNTIL + 1) + " U " + _fmt(f.right, _LEVEL_UNTIL)
        return f"({text})" if _LEVEL_UNTIL < ctx else text
    if isinstance(f, And):
        text = _fmt(f.left, _LEVEL_AND) + " & " + _fmt(f.right, _LEVEL_AND + 1)
        return f"({text})" if _LEVEL_AND < ctx else text
    assert isinstance(f, Or)
    text = _fmt(f.left, _LEVEL_OR) + " | " + _fmt(f.right, _LEVEL_OR + 1)
    return f"({text})" if _LEVEL_OR < ctx else text


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
        if isinstance(f, Not):
            raise NnfError("subformula indexing requires NNF input")
        if isinstance(f, (Or, And, Until)):
            self._collect(f.left)
            self._collect(f.right)
        elif isinstance(f, (Next, WeakNext, Eventually, Always)):
            self._collect(f.sub)
        self.ids[f] = len(self.formulas)
        self.formulas.append(f)
        self._texts.append(format_formula(f))

    def __len__(self) -> int:
        return len(self.formulas)

    def id_of(self, f: Formula) -> int:
        return self.ids[f]

    def text(self, fid: int) -> str:
        return self._texts[fid]

