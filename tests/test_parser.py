"""The parser's contract: every `ParseError` message at its position, the
outcome of seeded random token strings, and formulae nested far past
Python's recursion limit."""

import hashlib
import random
import re

import pytest

from rulerunner import Atom, NegAtom, Next, Not, ParseError, Until, format_formula, parse_formula

PINNED_ERRORS = [
    ("", "empty formula", 0),
    ("   ", "empty formula", 3),
    ("a b", "unexpected token 'b'", 2),
    ("a )", "unexpected token ')'", 2),
    ("(a))", "unexpected token ')'", 3),
    ("F a X b", "unexpected token 'X'", 4),
    ("a <> b", "unexpected token 'F'", 2),  # an alias is reported as its operator
    ("a true", "unexpected token 'true'", 2),
    ("a | b (c)", "unexpected token '('", 6),
    ("(a | b", "expected ')'", 6),
    ("(a b)", "expected ')'", 3),
    ("X (a U (b", "expected ')'", 9),
    ("((a) (b))", "expected ')'", 5),
    ("(a !b)", "expected ')'", 3),
    ("a | )", "expected a formula, got ')'", 4),
    ("a & | b", "expected a formula, got '|'", 4),
    ("U a", "expected a formula, got 'U'", 0),
    ("()", "expected a formula, got ')'", 1),
    ("! & a", "expected a formula, got '&'", 2),
    ("a U", "unexpected end of input", 3),
    ("!", "unexpected end of input", 1),
    ("(a & ", "unexpected end of input", 5),
    ("X X  ", "unexpected end of input", 5),
    ("a @ b", "unexpected character '@'", 2),
    ("Zoo", "unexpected character 'Z'", 0),
    ("a b @", "unexpected character '@'", 4),  # the whole text is tokenized before it is parsed
    ("(a |  <", "unexpected character '<'", 6),
    ("a\té", "unexpected character 'é'", 2),
]


@pytest.mark.parametrize("text,message,position", PINNED_ERRORS)
def test_pinned_error(text, message, position):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


DEPTH = 10_000


def test_deep_parentheses_parse():
    assert parse_formula("(" * DEPTH + "a" + ")" * DEPTH) == Atom("a")


def test_deep_prefix_chains_parse():
    f = parse_formula("X " * DEPTH + "a")
    for _ in range(DEPTH):
        assert f.__class__ is Next
        f = f.sub
    assert f == Atom("a")
    f = parse_formula("!" * DEPTH + "a")
    for _ in range(DEPTH - 1):
        assert f.__class__ is Not
        f = f.sub
    assert f == NegAtom("a")


def test_deep_until_chain_parses_right_nested():
    f = parse_formula(" U ".join(f"p{i}" for i in range(DEPTH + 1)))
    for i in range(DEPTH):
        assert f.__class__ is Until and f.left == Atom(f"p{i}")
        f = f.right
    assert f == Atom(f"p{DEPTH}")


PREFIX = ("!", "X", "W", "F", "G", "<>", "[]")
BINARY = ("&", "|", "U")
VOCAB = ("a", "b", "true", *PREFIX, *BINARY, "(", ")", "@", "Z", "<", "]", "é")
SEPARATORS = (" ", " ", "", "  ", "\t", "\n")
ALIAS_TEXT = {"F": "<>", "G": "[]"}


def _formula_tokens(rng: random.Random, depth: int) -> list[str]:
    if depth == 0 or rng.random() < 0.25:
        tokens = [rng.choice(("a", "b", "c_1", "true"))]
    elif rng.random() < 0.4:
        tokens = [rng.choice(PREFIX), *_formula_tokens(rng, depth - 1)]
    else:
        tokens = [*_formula_tokens(rng, depth - 1), rng.choice(BINARY), *_formula_tokens(rng, depth - 1)]
    return ["(", *tokens, ")"] if rng.random() < 0.2 else tokens


def random_token_text(rng: random.Random) -> str:
    """The tokens of a random formula, perhaps with a token deleted,
    inserted or replaced, joined by random white space (or none)."""
    tokens = _formula_tokens(rng, 4)
    for _ in range(rng.choice((0, 0, 1, 2))):
        i, edit = rng.randrange(len(tokens) + 1), rng.randrange(3)
        if edit == 0 and i < len(tokens):
            del tokens[i]
        elif edit == 1:
            tokens.insert(i, rng.choice(VOCAB))
        elif i < len(tokens):
            tokens[i] = rng.choice(VOCAB)
    return "".join(token + rng.choice(SEPARATORS) for token in tokens)


def check_pinned_error(text: str, err: ParseError) -> None:
    """`err` is one of the pinned messages, and its position is where the
    message says the parse failed."""
    message, position = re.fullmatch(r"(.*) \(at position (\d+)\)", str(err), re.S).groups()
    assert int(position) == err.position
    rest = text[err.position :]
    if message == "empty formula":
        assert not text.strip() and err.position == len(text)
    elif message == "unexpected end of input":
        assert err.position == len(text)
    elif message == "expected ')'":
        assert err.position == len(text) or (rest[:1].strip() and rest[0] != ")")
    else:
        named = re.fullmatch(r"(unexpected token|expected a formula, got|unexpected character) '(.+)'", message)
        assert named is not None, message
        token = named[2]
        assert rest.startswith(token) or rest.startswith(ALIAS_TEXT.get(token, token))


def outcome(text: str) -> str:
    try:
        return repr(parse_formula(text))
    except ParseError as err:
        return str(err)


def test_random_token_strings_round_trip_or_raise_a_pinned_error():
    rng = random.Random(7)
    parsed = failed = 0
    for _ in range(3000):
        text = random_token_text(rng)
        try:
            f = parse_formula(text)
        except ParseError as err:
            check_pinned_error(text, err)
            failed += 1
            continue
        assert parse_formula(format_formula(f)) == f
        parsed += 1
    assert parsed > 1000 and failed > 500


def test_random_token_string_outcomes_are_pinned():
    """The AST or the error of each of 3,000 seeded random token strings,
    digested: a parser that builds another tree, or reports another
    message or position, changes it."""
    rng = random.Random(11)
    lines = "\n".join(outcome(random_token_text(rng)) for _ in range(3000))
    assert hashlib.sha256(lines.encode()).hexdigest() == OUTCOME_DIGEST


OUTCOME_DIGEST = "6d968f7d5ec1c7187db8d8e64ff0922d4d0d056b4860077dd001d89ec5e330e8"
