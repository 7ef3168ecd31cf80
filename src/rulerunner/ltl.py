"""LTL abstract syntax, concrete syntax parser, NNF normalisation and printing.

Concrete syntax tokens: ``! & | U X W F G true ( )`` with ``<>`` accepted as
an alias for ``F`` and ``[]`` for ``G``.  Precedence, tightest first:
``{!, X, W, F, G} > U > & > |``; ``U`` is right-associative, ``&`` and ``|``
left-associative.  Atom names match ``ATOM_RE``, ``[a-z][a-z0-9_]*``.

Each operator class states its shape by deriving from `Unary` or `Binary`
and carries its concrete ``symbol`` and, if binary, its precedence
``level``; the negation duals `to_nnf` applies are the table `_DUAL`.

The parser reads the text as one list of token strings and climbs the
precedence levels with an explicit stack of pending operators, so no
nesting of parentheses, prefix operators or ``U`` makes it recurse.
`to_nnf`, `is_nnf`, `format_formula` and `SubformulaIndex` walk with
explicit stacks too, so a formula nested 10,000 levels deep, or a wide
one such as a 1,000-conjunct ``&`` chain, needs no deep recursion.  `SubformulaIndex`
numbers the distinct subformulae in one post-order walk that knows a node
by its class and its operands' ids (a leaf by its class and name), never by
hashing or comparing a formula, and composes a subformula's text from its
operands' texts on first read.  The tables `_BINARY_TEXT`, `_PREFIX_TEXT`
and `_LEVEL` state how each operator prints and when an operand takes
parentheses, once, for those texts and for `format_formula`, which emits
its text left to right.
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
_PREFIX_BY_TEXT = _PREFIX_OPS | {alias: _PREFIX_OPS[symbol] for alias, symbol in _ALIASES.items()}
_SYMBOLS = {*_PREFIX_BY_TEXT, *_BINARY_OPS, "(", ")"}

# one token per match; a non-space character that starts no atom or symbol
# is a token of its own, which the parser rejects
_TOKEN_RE = re.compile(
    rf"{ATOM_RE.pattern}|{'|'.join(map(re.escape, _ALIASES))}"
    rf"|[{re.escape(''.join([*_PREFIX_OPS, *_BINARY_OPS, '(', ')']))}]|\S"
)

# prefix operators bind tighter than any Binary.level, so never need parentheses
_LEVEL_UNARY = 4


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax.  Negation of compound formulae is accepted and
    left as a Not node for `to_nnf` to eliminate.

    Precedence is climbed with an explicit stack of operators that wait for
    their operand, one frame ``(level, class, left operand)`` each: a prefix
    operator at `_LEVEL_UNARY`, a binary one at its ``level`` with its left
    operand, an open parenthesis at 0 with no class.  Before an operator
    with level ``n`` takes the formula read so far as its left operand,
    every frame at level ``n`` or above takes it as its operand in turn
    (above ``n`` only, for the right-associative ``U``); a closing
    parenthesis or the end of the text closes every frame above 0."""
    tokens = _TOKEN_RE.findall(text)
    if not tokens:
        raise ParseError("empty formula", len(text))
    tokens.append("")  # the end of the text
    stack: list[tuple[int, type | None, Formula | None]] = [(-1, None, None)]
    f = None  # the formula just read, while it waits for the token after it
    for i, token in enumerate(tokens):
        if f is None:  # an operand is due
            op = _PREFIX_BY_TEXT.get(token)
            if op is not None:
                stack.append((_LEVEL_UNARY, op, None))
            elif token == "(":
                stack.append((0, None, None))
            elif token == "true":
                f = TrueConst()
            elif "a" <= token[:1] <= "z":  # the pattern tries an atom first
                f = Atom(token)
            else:
                raise _error(text, i, f"expected a formula, got {token!r}" if token else "unexpected end of input")
            continue
        op = _BINARY_OPS.get(token)
        level = 1 if op is None else op.level + (op is Until)
        while stack[-1][0] >= level:
            _, cls, left = stack.pop()
            if left is not None:
                f = cls(left, f)
            elif cls is Not and f.__class__ is Atom:
                f = NegAtom(f.name)
            else:
                f = cls(f)
        if op is not None:
            stack.append((op.level, op, f))
            f = None
        elif stack[-1][0] == 0:  # inside parentheses
            if token != ")":
                raise _error(text, i, "expected ')'")
            stack.pop()
        elif not token:
            return f
        else:
            raise _error(text, i, f"unexpected token {_ALIASES.get(token, token)!r}")


def _error(text: str, index: int, message: str) -> ParseError:
    """The error for `message` at token `index`, or at the end of the text
    for the end token, unless a character in the text starts no token: then
    the first such character is the error, wherever it is.  Only an error
    needs token positions, so they are found here, by matching again."""
    starts = []
    for m in _TOKEN_RE.finditer(text):
        token = m.group()
        if token not in _SYMBOLS and not ATOM_RE.match(token):
            return ParseError(f"unexpected character {token!r}", m.start())
        starts.append(m.start())
    return ParseError(message, starts[index] if index < len(starts) else len(text))


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
    first read.
    """

    def __init__(self, root: Formula):
        self.formulas: list[Formula] = []
        self.kids: list[tuple[int, ...]] = []
        self._keys: dict[tuple, int] = {}
        self.root = self._walk(root)
        self._texts: list[str | None] = [None] * len(self.formulas)

    def _walk(self, root: Formula) -> int:
        """The id of `root`, numbering each subformula not met before."""
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
                fid = keys[key] = len(formulas)
                formulas.append(f)
                kids.append(operands)
            seen[id(f)] = fid
        return seen[id(root)]

    def __len__(self) -> int:
        return len(self.formulas)

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
