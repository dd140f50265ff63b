"""Compilation of expression ASTs into plain Python functions.

The tree-walking interpreter in :mod:`repro.expressions.ast` is the
semantic reference, but it pays a Python-level dispatch per AST node per
evaluation — and the engine evaluates the same task magnitudes once per
phase iteration.  This module removes both costs:

* :class:`CompiledExpression` wraps a parsed AST in a ``compile()``-built
  Python function (one code object per expression, built once at load
  time) that reproduces the interpreter's results *and* its
  ``ExpressionError`` messages exactly — division/modulo by zero, unknown
  variables, non-finite ``pow`` — by routing every operator and function
  application through the same callables the interpreter uses.
* Literal-only expressions are constant-folded at construction, so a
  ``"1e12"`` flops magnitude costs an attribute read per evaluation.
* Each compiled expression memoizes results keyed by the values of its
  *free variables only* (binding-keyed memo).  An expression that does not
  mention ``iteration`` hits the memo even though the executor passes a
  fresh ``iteration`` binding every loop.  Errors are never cached: the
  unknown-variable message embeds the full binding set, which may differ
  between calls that share a key.

Determinism: a compiled function executes the same float operations in the
same order as the interpreter, so results are bit-identical — asserted by
the property tests in ``tests/expressions/test_compiler.py``, which hold
every compiled function to the interpreter on random ASTs and bindings.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Union

from repro.expressions.ast import (
    _BINARY_OPS,
    _FUNCTIONS,
    BinaryOp,
    Call,
    Expression,
    ExpressionError,
    Number,
    Numeric,
    UnaryOp,
    Variable,
)
from repro.expressions.parser import compile_expression

__all__ = [
    "CompiledExpression",
    "ExpressionStats",
    "STATS",
    "compiled_expression",
]


class ExpressionStats:
    """Engine-level counters for the compiled-expression pipeline.

    A single module-level instance (:data:`STATS`) accumulates across every
    expression in the process; ``Simulation.run`` snapshots it before and
    after a run and attaches the delta to the monitor (these counters differ
    between the compiled and interpreted modes, so they deliberately stay
    out of ``Monitor.run_record()`` to keep campaign fingerprints
    mode-independent).
    """

    __slots__ = ("compiles", "evaluations", "memo_hits", "constant_hits")

    def __init__(
        self,
        compiles: int = 0,
        evaluations: int = 0,
        memo_hits: int = 0,
        constant_hits: int = 0,
    ) -> None:
        self.compiles = compiles
        self.evaluations = evaluations
        self.memo_hits = memo_hits
        self.constant_hits = constant_hits

    def snapshot(self) -> "ExpressionStats":
        return ExpressionStats(
            self.compiles, self.evaluations, self.memo_hits, self.constant_hits
        )

    def since(self, start: "ExpressionStats") -> "ExpressionStats":
        """Delta between this snapshot and an earlier one."""
        return ExpressionStats(
            self.compiles - start.compiles,
            self.evaluations - start.evaluations,
            self.memo_hits - start.memo_hits,
            self.constant_hits - start.constant_hits,
        )

    @property
    def hit_rate(self) -> float:
        """Fraction of evaluations served from the memo or a folded constant."""
        if not self.evaluations:
            return 0.0
        return (self.memo_hits + self.constant_hits) / self.evaluations

    def as_dict(self) -> dict:
        return {
            "compiles": self.compiles,
            "evaluations": self.evaluations,
            "memo_hits": self.memo_hits,
            "constant_hits": self.constant_hits,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:
        return (
            f"<ExpressionStats compiles={self.compiles} "
            f"evaluations={self.evaluations} memo_hits={self.memo_hits} "
            f"constant_hits={self.constant_hits}>"
        )


#: Process-wide counters; see :class:`ExpressionStats`.
STATS = ExpressionStats()


def _bin_apply(fn, op, left, right):
    """Apply a binary operator with the interpreter's overflow wrapping."""
    try:
        return fn(left, right)
    except OverflowError as exc:
        raise ExpressionError(
            f"Overflow evaluating {left!r} {op} {right!r}"
        ) from exc


def _call_apply(fn, name, *values):
    """Apply a built-in function with the interpreter's error wrapping."""
    try:
        return fn(*values)
    except (ValueError, OverflowError) as exc:
        raise ExpressionError(f"{name}({list(values)}) failed: {exc}") from exc


def _unknown_var(name, variables):
    """Build the interpreter's exact unknown-variable error."""
    return ExpressionError(
        f"Unknown variable {name!r}; available: {sorted(variables)}"
    )


def _codegen(ast: Expression) -> Callable[[Mapping[str, Numeric]], Numeric]:
    """Translate an AST into one Python function via ``compile()``.

    Every operator/function application routes through the same callables
    the interpreter dispatches to (via closure constants), so results and
    error messages are bit-identical.  Only ``_v[name]`` lookups can raise
    ``KeyError``, which the wrapper converts into the interpreter's
    unknown-variable ``ExpressionError``.
    """
    ns: dict = {
        "_bin": _bin_apply,
        "_call": _call_apply,
        "_unk": _unknown_var,
        # Generated code needs nothing from builtins except the KeyError
        # type in its except clause.
        "__builtins__": {"KeyError": KeyError},
    }

    def emit(node: Expression) -> str:
        if isinstance(node, CompiledExpression):
            node = node.ast
        if isinstance(node, Number):
            name = f"_k{len(ns)}"
            ns[name] = node.value
            return name
        if isinstance(node, Variable):
            return f"_v[{node.name!r}]"
        if isinstance(node, UnaryOp):
            inner = emit(node.operand)
            return f"(-{inner})" if node.op == "-" else f"({inner})"
        if isinstance(node, BinaryOp):
            name = f"_k{len(ns)}"
            ns[name] = _BINARY_OPS[node.op]
            left = emit(node.left)
            right = emit(node.right)
            return f"_bin({name}, {node.op!r}, {left}, {right})"
        if isinstance(node, Call):
            name = f"_k{len(ns)}"
            ns[name] = _FUNCTIONS[node.name][0]
            args = ", ".join(emit(arg) for arg in node.args)
            return f"_call({name}, {node.name!r}, {args})"
        raise ExpressionError(f"Cannot compile expression node {node!r}")

    body = emit(ast)
    source = (
        "def _expr(_v):\n"
        "    try:\n"
        f"        return {body}\n"
        "    except KeyError as _key:\n"
        "        raise _unk(_key.args[0], _v) from None\n"
    )
    code = compile(source, "<expression-compiler>", "exec")
    exec(code, ns)
    return ns["_expr"]


_MISSING = object()

#: Per-expression memo size cap; bindings beyond it evaluate uncached.
_MEMO_CAP = 4096


class CompiledExpression(Expression):
    """An ``Expression`` backed by a compiled function with a result memo.

    Subclasses :class:`Expression`, so it is a drop-in anywhere the parsed
    AST flows today (``isinstance`` checks, ``variables()``, ``__call__``).
    The original AST stays on ``.ast`` for serialization and for the
    interpreted reference path.
    """

    __slots__ = ("ast", "names", "_fn", "_memo", "_const_value", "_const_error")

    def __init__(self, ast: Expression) -> None:
        if isinstance(ast, CompiledExpression):
            ast = ast.ast
        self.ast = ast
        #: Free variable names, sorted — the memo key schema.
        self.names = tuple(sorted(ast.variables()))
        self._memo: dict = {}
        self._const_value: Optional[Numeric] = None
        self._const_error: Optional[ExpressionError] = None
        self._fn: Optional[Callable[[Mapping[str, Numeric]], Numeric]] = None
        STATS.compiles += 1
        if not self.names:
            # Constant fold.  A literal-only expression that *fails* (e.g.
            # "1/0") must keep failing at evaluation time, not at load
            # time, so the error is captured and re-raised per evaluate.
            try:
                self._const_value = ast.evaluate({})
            except ExpressionError as exc:
                self._const_error = exc
            return
        try:
            self._fn = _codegen(ast)
        except (ExpressionError, RecursionError, SyntaxError, MemoryError):
            # Exotic/oversized ASTs fall back to the interpreter; the memo
            # still applies on top.
            self._fn = ast.evaluate

    def evaluate(self, variables: Mapping[str, Numeric]) -> Numeric:
        stats = STATS
        stats.evaluations += 1
        fn = self._fn
        if fn is None:
            stats.constant_hits += 1
            err = self._const_error
            if err is not None:
                raise ExpressionError(*err.args)
            return self._const_value  # type: ignore[return-value]
        try:
            key = tuple(map(variables.__getitem__, self.names))
            cached = self._memo.get(key, _MISSING)
        except (KeyError, TypeError):
            # Missing variable (proper error raised by fn) or unhashable
            # binding values: evaluate uncached.
            return fn(variables)
        if cached is not _MISSING:
            stats.memo_hits += 1
            return cached
        value = fn(variables)
        memo = self._memo
        if len(memo) < _MEMO_CAP:
            memo[key] = value
        return value

    def variables(self) -> set[str]:
        return self.ast.variables()

    def __repr__(self) -> str:
        return f"CompiledExpression({self.ast!r})"


#: Source-string intern cache: identical sources across tasks/jobs share one
#: compiled function *and* one memo, multiplying hit rates across a workload.
_SOURCE_CACHE: dict[str, CompiledExpression] = {}
_SOURCE_CACHE_CAP = 4096

ExprLike = Union[str, int, float, Expression]


def compiled_expression(value: ExprLike) -> CompiledExpression:
    """Parse-and-compile ``value`` (str, number, or parsed Expression).

    The compiled counterpart of :func:`repro.expressions.compile_expression`;
    accepts the same inputs and raises the same parse errors.  String
    sources are interned so equal sources share a compiled function and
    memo.
    """
    if isinstance(value, CompiledExpression):
        return value
    if isinstance(value, str):
        cached = _SOURCE_CACHE.get(value)
        if cached is not None:
            return cached
        compiled = CompiledExpression(compile_expression(value))
        if len(_SOURCE_CACHE) < _SOURCE_CACHE_CAP:
            _SOURCE_CACHE[value] = compiled
        return compiled
    return CompiledExpression(compile_expression(value))
