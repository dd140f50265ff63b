"""AST node types and evaluation for the expression language."""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence, Union

from repro._input import InputError

Numeric = Union[int, float]


class ExpressionError(InputError):
    """Raised on parse errors or evaluation failures (e.g. unknown names)."""


class Expression:
    """Base class of all AST nodes."""

    __slots__ = ()

    def evaluate(self, variables: Mapping[str, Numeric]) -> Numeric:
        """Evaluate against variable bindings; raises ExpressionError."""
        raise NotImplementedError

    def variables(self) -> set[str]:
        """The set of free variable names referenced by the expression."""
        raise NotImplementedError

    def __call__(self, **variables: Numeric) -> Numeric:
        return self.evaluate(variables)


class Number(Expression):
    """A literal number."""

    __slots__ = ("value",)

    def __init__(self, value: Numeric) -> None:
        self.value = value

    def evaluate(self, variables: Mapping[str, Numeric]) -> Numeric:
        return self.value

    def variables(self) -> set[str]:
        return set()

    def __repr__(self) -> str:
        return f"Number({self.value!r})"


class Variable(Expression):
    """A named variable resolved at evaluation time."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def evaluate(self, variables: Mapping[str, Numeric]) -> Numeric:
        try:
            return variables[self.name]
        except KeyError:
            raise ExpressionError(
                f"Unknown variable {self.name!r}; available: {sorted(variables)}"
            ) from None

    def variables(self) -> set[str]:
        return {self.name}

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


def _safe_div(a: Numeric, b: Numeric) -> Numeric:
    if b == 0:
        raise ExpressionError("Division by zero")
    return a / b


def _safe_floordiv(a: Numeric, b: Numeric) -> Numeric:
    if b == 0:
        raise ExpressionError("Division by zero")
    return a // b


def _safe_mod(a: Numeric, b: Numeric) -> Numeric:
    if b == 0:
        raise ExpressionError("Modulo by zero")
    return a % b


def _safe_pow(a: Numeric, b: Numeric) -> Numeric:
    """Exponentiation in float space.

    Task magnitudes are physical quantities (flops, bytes, seconds), so the
    tiny precision loss of float ``**`` is irrelevant — while integer ``**``
    can materialize million-digit numbers that stall the simulator.
    """
    try:
        result = float(a) ** float(b)
    except (OverflowError, ZeroDivisionError, TypeError) as exc:
        raise ExpressionError(f"pow({a!r}, {b!r}) failed: {exc}") from exc
    if isinstance(result, complex):
        # Negative base with fractional exponent: Python's ** goes complex.
        raise ExpressionError(f"pow({a!r}, {b!r}) is not a real number")
    if result != result or result in (float("inf"), float("-inf")):
        raise ExpressionError(f"pow({a!r}, {b!r}) is not finite")
    return result


_BINARY_OPS: dict[str, Callable[[Numeric, Numeric], Numeric]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _safe_div,
    "//": _safe_floordiv,
    "%": _safe_mod,
    "^": _safe_pow,
    "<": lambda a, b: float(a < b),
    "<=": lambda a, b: float(a <= b),
    ">": lambda a, b: float(a > b),
    ">=": lambda a, b: float(a >= b),
    "==": lambda a, b: float(a == b),
    "!=": lambda a, b: float(a != b),
}


class BinaryOp(Expression):
    """A binary arithmetic or comparison operation."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _BINARY_OPS:
            raise ExpressionError(f"Unknown operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, variables: Mapping[str, Numeric]) -> Numeric:
        left = self.left.evaluate(variables)
        right = self.right.evaluate(variables)
        try:
            return _BINARY_OPS[self.op](left, right)
        except OverflowError as exc:
            raise ExpressionError(
                f"Overflow evaluating {left!r} {self.op} {right!r}"
            ) from exc

    def variables(self) -> set[str]:
        return self.left.variables() | self.right.variables()

    def __repr__(self) -> str:
        return f"BinaryOp({self.op!r}, {self.left!r}, {self.right!r})"


class UnaryOp(Expression):
    """Unary minus/plus."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expression) -> None:
        if op not in ("-", "+"):
            raise ExpressionError(f"Unknown unary operator {op!r}")
        self.op = op
        self.operand = operand

    def evaluate(self, variables: Mapping[str, Numeric]) -> Numeric:
        value = self.operand.evaluate(variables)
        return -value if self.op == "-" else value

    def variables(self) -> set[str]:
        return self.operand.variables()

    def __repr__(self) -> str:
        return f"UnaryOp({self.op!r}, {self.operand!r})"


def _fn_if(cond: Numeric, then: Numeric, otherwise: Numeric) -> Numeric:
    return then if cond else otherwise


def _safe_sqrt(x: Numeric) -> float:
    if x < 0:
        raise ExpressionError(f"sqrt of negative value {x}")
    return math.sqrt(x)


def _safe_log(x: Numeric) -> float:
    if x <= 0:
        raise ExpressionError(f"log of non-positive value {x}")
    return math.log(x)


def _safe_log2(x: Numeric) -> float:
    if x <= 0:
        raise ExpressionError(f"log2 of non-positive value {x}")
    return math.log2(x)


_FUNCTIONS: dict[str, tuple[Callable[..., Numeric], int]] = {
    # name -> (callable, arity); arity -1 means variadic (>= 1)
    "min": (min, -1),
    "max": (max, -1),
    "ceil": (math.ceil, 1),
    "floor": (math.floor, 1),
    "round": (round, 1),
    "abs": (abs, 1),
    "sqrt": (_safe_sqrt, 1),
    "log": (_safe_log, 1),
    "log2": (_safe_log2, 1),
    "exp": (math.exp, 1),
    "pow": (_safe_pow, 2),
    "if": (_fn_if, 3),
}


class Call(Expression):
    """A call to one of the built-in functions."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Expression]) -> None:
        if name not in _FUNCTIONS:
            raise ExpressionError(
                f"Unknown function {name!r}; available: {sorted(_FUNCTIONS)}"
            )
        _, arity = _FUNCTIONS[name]
        if arity == -1:
            if not args:
                raise ExpressionError(f"{name}() needs at least one argument")
        elif len(args) != arity:
            raise ExpressionError(
                f"{name}() takes {arity} argument(s), got {len(args)}"
            )
        self.name = name
        self.args = list(args)

    def evaluate(self, variables: Mapping[str, Numeric]) -> Numeric:
        fn, _ = _FUNCTIONS[self.name]
        values = [arg.evaluate(variables) for arg in self.args]
        try:
            return fn(*values)
        except (ValueError, OverflowError) as exc:
            raise ExpressionError(f"{self.name}({values}) failed: {exc}") from exc

    def variables(self) -> set[str]:
        names: set[str] = set()
        for arg in self.args:
            names |= arg.variables()
        return names

    def __repr__(self) -> str:
        return f"Call({self.name!r}, {self.args!r})"
