"""Arithmetic expression language for task magnitudes.

ElastiSim application models specify task sizes as strings evaluated against
the job's *current* allocation — e.g. ``"1e12 / num_nodes"`` for weak-scaled
compute or ``"8e6 * (num_nodes - 1)"`` for halo exchanges.  This package
provides a small, safe (no ``eval``) expression language:

* numbers (int/float/scientific), identifiers, ``+ - * / // % ^``
* parentheses, unary minus
* functions: ``min max ceil floor round abs sqrt log log2 exp pow``
* comparison and ternary-style helpers: ``if(cond, a, b)``, ``< <= > >= == !=``

Expressions parse once (at model load) into an AST evaluated per task
instantiation with the variable bindings of the moment (``num_nodes``,
user-provided job arguments, phase iteration counters) by one tree-walking
interpreter, ``Expression.evaluate``.  The hot path wraps the AST:
:func:`compiled_expression` folds a literal-only expression to a constant,
memoizes any other by the values of its free variables and interns equal
sources (see :mod:`repro.expressions.compiler`) — the same evaluator, called
less often.
"""

from repro.expressions.ast import (
    BinaryOp,
    Call,
    Expression,
    ExpressionError,
    Number,
    UnaryOp,
    Variable,
)
from repro.expressions.compiler import (
    STATS,
    CompiledExpression,
    ExpressionStats,
    compiled_expression,
)
from repro.expressions.parser import compile_expression, parse

__all__ = [
    "BinaryOp",
    "Call",
    "CompiledExpression",
    "Expression",
    "ExpressionError",
    "ExpressionStats",
    "Number",
    "STATS",
    "UnaryOp",
    "Variable",
    "compile_expression",
    "compiled_expression",
    "parse",
]
