"""The evaluation wrapper: fold, memo and intern over the one interpreter.

Every expression is evaluated by the tree-walking interpreter in
:mod:`repro.expressions.ast`.  The engine evaluates the same task
magnitudes once per phase iteration, so :class:`CompiledExpression` puts
three caches in front of it:

* Literal-only expressions are constant-folded at construction, so a
  ``"1e12"`` flops magnitude costs an attribute read per evaluation.
* Each wrapper memoizes results keyed by the values of its *free variables
  only* (binding-keyed memo).  An expression that does not mention
  ``iteration`` hits the memo even though the executor passes a fresh
  ``iteration`` binding every loop.  Errors are never cached: the
  unknown-variable message embeds the full binding set, which may differ
  between calls that share a key.
* :func:`compiled_expression` interns by source string, so equal sources
  across tasks and jobs share one wrapper and one memo.

A memo miss is one ``ast.evaluate`` call — a Python-level dispatch per AST
node — so the wrapper is transparent by construction: same value, type,
error class and message as the bare AST, which
``tests/expressions/test_compiler.py`` asserts on random ASTs and bindings.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Union

from repro.expressions.ast import Expression, ExpressionError, Numeric
from repro.expressions.parser import compile_expression

__all__ = [
    "CompiledExpression",
    "ExpressionStats",
    "STATS",
    "compiled_expression",
]


class ExpressionStats:
    """Engine-level counters for the expression wrapper.

    A single module-level instance (:data:`STATS`) accumulates across every
    expression in the process; ``Simulation.run`` snapshots it before and
    after a run and attaches the delta to the monitor (how often a source
    is compiled depends on what the intern cache already holds, so the
    counters stay out of ``Monitor.run_record()`` and campaign
    fingerprints).
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


_MISSING = object()

#: Per-expression memo size cap; bindings beyond it evaluate uncached.
_MEMO_CAP = 4096


class CompiledExpression(Expression):
    """An ``Expression`` that folds a constant AST and memoizes any other.

    Subclasses :class:`Expression`, so it is a drop-in anywhere the parsed
    AST flows today (``isinstance`` checks, ``variables()``, ``__call__``).
    The AST it evaluates through stays on ``.ast`` (serialization reads it).
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
        #: What a memo miss calls; ``None`` marks a folded constant.
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
#: wrapper *and* one memo, multiplying hit rates across a workload.
_SOURCE_CACHE: dict[str, CompiledExpression] = {}
_SOURCE_CACHE_CAP = 4096

ExprLike = Union[str, int, float, Expression]


def compiled_expression(value: ExprLike) -> CompiledExpression:
    """Parse ``value`` (str, number, or parsed Expression) and wrap it.

    The wrapping counterpart of :func:`repro.expressions.compile_expression`;
    accepts the same inputs and raises the same parse errors.  String
    sources are interned so equal sources share a wrapper and its memo.
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
