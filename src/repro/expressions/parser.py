"""Tokenizer and Pratt parser for the expression language."""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple, Union

from repro.expressions.ast import (
    BinaryOp,
    Call,
    Expression,
    ExpressionError,
    Number,
    UnaryOp,
    Variable,
)


class Token(NamedTuple):
    kind: str  # NUMBER | NAME | OP | LPAREN | RPAREN | COMMA | END
    text: str
    position: int


_TOKEN_RE = re.compile(
    r"""
    (?P<NUMBER>(\d+\.\d*|\.\d+|\d+)([eE][-+]?\d+)?)
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP><=|>=|==|!=|//|[-+*/%^<>])
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<COMMA>,)
  | (?P<WS>\s+)
    """,
    re.VERBOSE,
)


def tokenize(source: str) -> Iterator[Token]:
    """Yield tokens; raises ExpressionError on unexpected characters."""
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise ExpressionError(
                f"Unexpected character {source[pos]!r} at position {pos} in {source!r}"
            )
        kind = match.lastgroup
        text = match.group()
        pos = match.end()
        if kind == "WS":
            continue
        yield Token(kind, text, match.start())
    yield Token("END", "", len(source))


# Binding powers: higher binds tighter.  '^' is right-associative.
_BINDING_POWER = {
    "<": 5, "<=": 5, ">": 5, ">=": 5, "==": 5, "!=": 5,
    "+": 10, "-": 10,
    "*": 20, "/": 20, "//": 20, "%": 20,
    "^": 30,
}
_RIGHT_ASSOC = {"^"}
_UNARY_POWER = 25  # binds tighter than * but looser than ^

#: Tallest tree the parser builds, root to leaf (``1+1+…`` grows one level per
#: term).  Brackets, signs and calls may open inside one another twice as
#: deep, because the serializer brackets every operator it writes.  The
#: parser spends three Python frames per opening, and ``evaluate()`` /
#: ``variables()`` / the serializer at most two per level, so everything the
#: parser accepts stays well inside the interpreter's own recursion limit.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, source: str) -> None:
        self.source = source
        self.tokens = list(tokenize(source))
        self.index = 0
        self.open = 0  # parse_expression calls in progress
        self.height = 0  # of the tree parse_expression returned last

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str) -> Token:
        if self.current.kind != kind:
            raise ExpressionError(
                f"Expected {kind} at position {self.current.position} "
                f"in {self.source!r}, found {self.current.text!r}"
            )
        return self.advance()

    def parse(self) -> Expression:
        expr = self.parse_expression(0)
        if self.current.kind != "END":
            raise ExpressionError(
                f"Trailing input at position {self.current.position} "
                f"in {self.source!r}: {self.current.text!r}"
            )
        return expr

    def parse_expression(self, min_power: int) -> Expression:
        self.open += 1
        if self.open > 2 * MAX_DEPTH:
            raise self.too_deep()
        left = self.parse_prefix()
        height = self.height
        while True:
            token = self.current
            if token.kind != "OP" or token.text not in _BINDING_POWER:
                break
            power = _BINDING_POWER[token.text]
            if power < min_power:
                break
            self.advance()
            next_min = power if token.text in _RIGHT_ASSOC else power + 1
            right = self.parse_expression(next_min)
            height = max(height, self.height) + 1
            left = BinaryOp(token.text, left, right)
        if height > MAX_DEPTH:
            raise self.too_deep()
        self.open -= 1
        self.height = height
        return left

    def too_deep(self) -> ExpressionError:
        return ExpressionError(
            f"Expression is more than {MAX_DEPTH} levels deep: "
            f"{self.source[:40]!r}..."
        )

    def parse_prefix(self) -> Expression:
        token = self.advance()
        self.height = 1
        if token.kind == "NUMBER":
            text = token.text
            if any(c in text for c in ".eE"):
                return Number(float(text))
            return Number(int(text))
        if token.kind == "NAME":
            if self.current.kind == "LPAREN":
                self.advance()
                args = self.parse_arguments()
                self.expect("RPAREN")
                self.height += 1
                return Call(token.text, args)
            return Variable(token.text)
        if token.kind == "LPAREN":
            expr = self.parse_expression(0)
            self.expect("RPAREN")
            return expr
        if token.kind == "OP" and token.text in ("-", "+"):
            operand = self.parse_expression(_UNARY_POWER)
            self.height += 1
            return UnaryOp(token.text, operand)
        raise ExpressionError(
            f"Unexpected token {token.text!r} at position {token.position} "
            f"in {self.source!r}"
        )

    def parse_arguments(self) -> list[Expression]:
        if self.current.kind == "RPAREN":
            return []
        args = [self.parse_expression(0)]
        height = self.height
        while self.current.kind == "COMMA":
            self.advance()
            args.append(self.parse_expression(0))
            height = max(height, self.height)
        self.height = height
        return args


def parse(source: str) -> Expression:
    """Parse ``source`` into an :class:`Expression` AST."""
    if not isinstance(source, str):
        raise ExpressionError(f"Expected a string, got {type(source).__name__}")
    if not source.strip():
        raise ExpressionError("Empty expression")
    return _Parser(source).parse()


def compile_expression(value: Union[str, int, float, Expression]) -> Expression:
    """Coerce a JSON scalar or string into a compiled expression.

    Application-model JSON allows plain numbers (``1e12``) wherever an
    expression string is accepted; both compile to the same AST type.
    """
    if isinstance(value, Expression):
        return value
    if isinstance(value, bool):
        raise ExpressionError("Booleans are not valid task magnitudes")
    if isinstance(value, (int, float)):
        return Number(value)
    return parse(value)
