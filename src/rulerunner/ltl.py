"""LTL abstract syntax, concrete syntax parser, NNF normalisation and printing.

Concrete syntax tokens: ``! & | U X W F G true ( )`` with ``<>`` accepted as
an alias for ``F`` and ``[]`` for ``G``.  Precedence, tightest first:
``{!, X, W, F, G} > U > & > |``; ``U`` is right-associative, ``&`` and ``|``
left-associative.  Atom names match ``ATOM_RE``, ``[a-z][a-z0-9_]*``.

Each operator class states its shape by deriving from `Unary` or `Binary`
and carries its concrete ``symbol`` and, if binary, its precedence
``level``; the negation duals `to_nnf` applies are the table `_DUAL`.

The parser climbs the binary precedence levels in one loop over the table
`_BINARY_OPS`, so its recursion nests only along a right-nested ``U``
chain, prefix operators and parentheses.  `to_nnf`, `is_nnf`, `format_formula` and
`SubformulaIndex` walk with explicit stacks, so a wide formula such as a
1,000-conjunct ``&`` chain needs no deep recursion.  `SubformulaIndex`
numbers the distinct subformulae in one post-order walk that knows a node
by its class and its operands' ids (a leaf by its class and name), never by
hashing or comparing a formula, and composes a subformula's text from its
operands' texts on first read; `id_of` finds a formula's id by the same
walk.  The tables `_BINARY_TEXT`, `_PREFIX_TEXT` and `_LEVEL` state how
each operator prints and when an operand takes parentheses, once, for those
texts and for `format_formula`, which emits its text left to right.
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

_PREFIX_OPS = {cls.symbol: cls for cls in (Not, Next, WeakNext, Eventually, Always)}
_BINARY_OPS = {cls.symbol: cls for cls in (Or, And, Until)}
_ALIASES = {"<>": "F", "[]": "G"}

_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<atom>{ATOM_RE.pattern})"
    rf"|(?P<sym>{'|'.join(map(re.escape, _ALIASES))}|[{re.escape(''.join([*_PREFIX_OPS, *_BINARY_OPS, '(', ')']))}]))"
)

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
        else:
            sym = m.group("sym")
            tokens.append(("op", _ALIASES.get(sym, sym), m.start("sym")))
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

    def binary_expr(self, level: int = Or.level) -> Formula:
        """A formula whose binary operators outside parentheses have at least
        this precedence level.  Each such operator in turn takes the formula
        built so far and, as its right operand, the formula that follows at
        its own level (U, grouping to the right) or one tighter (& and |,
        grouping to the left)."""
        f = self.unary_expr()
        tokens = self.tokens
        while True:
            kind, val, _ = tokens[self.i]
            op = _BINARY_OPS.get(val) if kind == "op" else None
            if op is None or op.level < level:
                return f
            self.i += 1
            f = op(f, self.binary_expr(op.level if op is Until else op.level + 1))

    def unary_expr(self) -> Formula:
        kind, val, _ = self.tokens[self.i]
        op = _PREFIX_OPS.get(val) if kind == "op" else None
        if op is None:
            return self.primary()
        self.i += 1
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
    `true` (there is no false literal).  Walks with an explicit stack, left
    operand first, and hands back a negation-free subtree as it is.  A
    formula already in NNF, as every negation-free text parses to, comes
    back after the cheaper `is_nnf` walk alone.
    """
    if is_nnf(f):
        return f
    done: list[Formula] = []  # normalised operands, awaiting their operator
    todo: list[tuple[Formula, bool, bool]] = [(f, False, False)]  # (formula, negated, operands done)
    while todo:
        g, negated, ready = todo.pop()
        while isinstance(g, Not):
            g, negated = g.sub, not negated
        cls = g.__class__
        if ready:
            op = _DUAL[cls] if negated else cls
            if issubclass(cls, Binary):
                right = done.pop()
                left = done[-1]
                done[-1] = g if op is cls and left is g.left and right is g.right else op(left, right)
            else:
                sub = done[-1]
                done[-1] = g if op is cls and sub is g.sub else op(sub)
        elif issubclass(cls, Binary):
            if negated and cls is Until:
                raise NnfError("negated until has no NNF form: the grammar has no release operator")
            todo += ((g, negated, True), (g.right, negated, False), (g.left, negated, False))
        elif issubclass(cls, Unary):
            todo += ((g, negated, True), (g.sub, negated, False))
        elif not negated:
            done.append(g)  # true or a literal
        elif cls is TrueConst:
            raise NnfError("!true has no NNF form: the grammar has no false literal")
        else:
            done.append(NegAtom(g.name) if cls is Atom else Atom(g.name))
    return done[0]


def is_nnf(f: Formula) -> bool:
    todo = [f]
    while todo:
        g = todo.pop()
        if isinstance(g, Binary):
            todo += (g.right, g.left)
        elif isinstance(g, Unary):
            todo.append(g.sub)
        elif isinstance(g, Not):
            return False
    return True


# how each binary operator prints: (the place of its left operand, its infix,
# the place of its right operand); U groups to the right, & and | to the left,
# so the grouping side's place is the operator's own level
_BINARY_TEXT = {
    cls: (cls.level + (cls is Until), f" {cls.symbol} ", cls.level + (cls is not Until)) for cls in _BINARY_OPS.values()
}
_PREFIX_TEXT = {cls: cls.symbol + ("" if cls is Not else " ") for cls in _PREFIX_OPS.values()}
# how tightly each class binds: an operand prints in parentheses when this is
# below its place
_LEVEL = dict.fromkeys((TrueConst, Atom, NegAtom, *_PREFIX_OPS.values()), _LEVEL_UNARY) | {
    cls: cls.level for cls in _BINARY_OPS.values()
}


def _wrap(operand: Formula, text: str, place: int) -> str:
    return f"({text})" if _LEVEL[operand.__class__] < place else text


def _compose(f: Formula, texts: list[str]) -> str:
    """The text of `f` from its operands' texts."""
    cls = f.__class__
    if cls in _BINARY_TEXT:
        left, infix, right = _BINARY_TEXT[cls]
        return _wrap(f.left, texts[0], left) + infix + _wrap(f.right, texts[1], right)
    if cls in _PREFIX_TEXT:
        return _PREFIX_TEXT[cls] + _wrap(f.sub, texts[0], _LEVEL_UNARY)
    return format_formula(f)  # a leaf


def format_formula(f: Formula) -> str:
    """Render with minimal parentheses; inverse of parse_formula.

    Emits the text left to right: it follows each left operand or prefix
    operand down at once and stacks what prints after it (a closing
    parenthesis, an operator, a right operand)."""
    text = ""
    todo: list[Formula | str] = [f]
    while todo:
        g = todo.pop()
        cls = g.__class__
        if cls is str:
            text += g
            continue
        while True:  # down the left spine, as the left or prefix operand prints next
            if cls is Atom:
                text += g.name
                break
            binary = _BINARY_TEXT.get(cls)
            if binary is not None:
                place, infix, right_place = binary
                right = g.right
                if _LEVEL[right.__class__] < right_place:
                    todo += (")", right, "(")
                else:
                    todo.append(right)
                todo.append(infix)
                g = g.left
            elif cls is NegAtom:
                text += "!" + g.name
                break
            elif cls is TrueConst:
                text += "true"
                break
            else:
                text += _PREFIX_TEXT[cls]
                g, place = g.sub, _LEVEL_UNARY
            cls = g.__class__
            if _LEVEL[cls] < place:
                text += "("
                todo.append(")")
    return text


class SubformulaIndex:
    """Distinct subformulae in post-order; children receive smaller ids.

    One explicit-stack walk numbers them: a node is known by its class and
    its operands' ids (an atom by its class and name), so structurally equal
    subformulae share an id without hashing or comparing formulae, and a
    node object met again is found by its `id()`.  `kids[fid]` holds the
    operand ids of subformula `fid`; its text is composed from theirs on
    first read.  `id_of` looks a formula up by the same walk.
    """

    def __init__(self, root: Formula):
        self.formulas: list[Formula] = []
        self.kids: list[tuple[int, ...]] = []
        self._keys: dict[tuple, int] = {}
        self.root = self._walk(root, add=True)
        self._texts: list[str | None] = [None] * len(self.formulas)

    def _walk(self, root: Formula, add: bool) -> int:
        """The id of `root`, numbering each subformula not met before if
        `add`, else raising KeyError for it."""
        keys, formulas, kids = self._keys, self.formulas, self.kids
        seen: dict[int, int] = {}  # id() of a numbered node -> its fid; `root` keeps every node alive
        todo = [root]
        while todo:
            f = todo[-1]
            cls = f.__class__
            if issubclass(cls, Binary):
                left, right = seen.get(id(f.left)), seen.get(id(f.right))
                if left is None or right is None:  # number the left operand's subtree, then the right one's
                    if right is None:
                        todo.append(f.right)
                    if left is None:
                        todo.append(f.left)
                    continue
                operands = (left, right)
            elif issubclass(cls, Unary):
                sub = seen.get(id(f.sub))
                if sub is None:
                    todo.append(f.sub)
                    continue
                operands = (sub,)
            elif cls is Not:
                raise NnfError("subformula indexing requires NNF input")
            else:
                operands = ()
            todo.pop()
            key = (cls, operands) if operands else (cls, getattr(f, "name", None))  # a leaf is known by its name
            fid = keys.get(key)
            if fid is None:
                if not add:
                    raise KeyError(f"no subformula {format_formula(f)}")
                fid = keys[key] = len(formulas)
                formulas.append(f)
                kids.append(operands)
            seen[id(f)] = fid
        return seen[id(root)]

    def __len__(self) -> int:
        return len(self.formulas)

    def id_of(self, f: Formula) -> int:
        """The id of the subformula structurally equal to `f`."""
        return self._walk(f, add=False)

    def text(self, fid: int) -> str:
        text = self._texts[fid]
        return self._compose_texts(fid) if text is None else text

    def _compose_texts(self, fid: int) -> str:
        """Compose the text of `fid` and of each operand below it that has none yet, operands first."""
        texts, kids = self._texts, self.kids
        todo = [fid]
        while todo:
            g = todo[-1]
            if texts[g] is not None:  # an operand pushed twice
                todo.pop()
                continue
            missing = [k for k in kids[g] if texts[k] is None]
            if missing:
                todo += missing
                continue
            todo.pop()
            texts[g] = _compose(self.formulas[g], [texts[k] for k in kids[g]])
        return texts[fid]
