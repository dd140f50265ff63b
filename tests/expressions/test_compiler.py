"""The evaluation wrapper is transparent over the interpreter it calls.

``CompiledExpression`` (``repro.expressions.compiler``) folds constants,
memoizes by free-variable values and interns by source; under all three
sits ``Expression.evaluate``, the one evaluator.  The property test below
generates random ASTs (including division by zero, overflowing powers, and
unknown variables) and asserts that the wrapper changes nothing: same
value, type, error class and message on the first call and on the memo
hit, and an error is never served from the memo.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.expressions import (
    CompiledExpression,
    ExpressionError,
    STATS,
    compile_expression,
    compiled_expression,
)
from repro.expressions.ast import (
    _BINARY_OPS,
    BinaryOp,
    Call,
    Number,
    UnaryOp,
    Variable,
)

VAR_NAMES = ("num_nodes", "iteration", "x")

_numbers = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.floats(
        min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False
    ),
)

_leaves = st.one_of(
    st.builds(Number, _numbers),
    st.builds(Variable, st.sampled_from(VAR_NAMES)),
)


def _composites(children):
    binary = st.builds(
        BinaryOp, st.sampled_from(sorted(_BINARY_OPS)), children, children
    )
    unary = st.builds(UnaryOp, st.sampled_from(["-", "+"]), children)
    fixed_call = st.one_of(
        st.builds(lambda a: Call("abs", [a]), children),
        st.builds(lambda a: Call("sqrt", [a]), children),
        st.builds(lambda a: Call("ceil", [a]), children),
        st.builds(lambda a: Call("log", [a]), children),
        st.builds(lambda a, b: Call("pow", [a, b]), children, children),
        st.builds(lambda a, b, c: Call("if", [a, b, c]), children, children, children),
        # min/max with a single argument raise a bare TypeError (Python's
        # min(5)) in both paths; keep >= 2 args so outcomes stay within the
        # ExpressionError contract this test asserts on.
        st.builds(
            lambda args: Call("min", args), st.lists(children, min_size=2, max_size=3)
        ),
        st.builds(
            lambda args: Call("max", args), st.lists(children, min_size=2, max_size=3)
        ),
    )
    return st.one_of(binary, unary, fixed_call)


_asts = st.recursive(_leaves, _composites, max_leaves=12)

_bindings = st.fixed_dictionaries(
    {},
    optional={
        name: st.one_of(
            st.integers(min_value=-20, max_value=20),
            st.floats(
                min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
            ),
        )
        for name in VAR_NAMES
    },
)


def _outcome(fn, variables):
    """What evaluating gives: ("value", type, repr) or ("error", type, args)."""
    try:
        value = fn(variables)
    except Exception as exc:  # the min(5) TypeError included: also transparent
        return "error", type(exc), exc.args
    # repr: bit-identical, int stays int, signed zero kept.
    return "value", type(value), repr(value)


@settings(max_examples=300, deadline=None)
@given(ast=_asts, variables=_bindings, extra=st.integers())
def test_wrapper_is_transparent(ast, variables, extra):
    wrapped = CompiledExpression(ast)
    expected = _outcome(ast.evaluate, variables)
    start = STATS.snapshot()
    assert _outcome(wrapped.evaluate, variables) == expected  # fold or miss
    assert _outcome(wrapped.evaluate, variables) == expected  # fold or memo hit
    delta = STATS.since(start)
    assert delta.evaluations == 2
    if not wrapped.names:
        assert delta.constant_hits == 2 and delta.memo_hits == 0
    else:
        # A value is memoized by the first call; an error never is.
        assert delta.constant_hits == 0
        assert delta.memo_hits == (1 if expected[0] == "value" else 0)
    # A binding the expression does not mention changes the memo key of
    # nothing, yet an unknown-variable message must list it: errors are
    # evaluated afresh, values come from the memo.
    wider = {**variables, "unmentioned": extra}
    assert _outcome(wrapped.evaluate, wider) == _outcome(ast.evaluate, wider)


def test_memo_hit_counted_and_value_stable():
    expr = compiled_expression(compile_expression("num_nodes * 2 + 1"))
    first = expr.evaluate({"num_nodes": 21})
    before = STATS.snapshot()
    again = expr.evaluate({"num_nodes": 21})
    delta = STATS.since(before)
    assert again == first == 43
    assert delta.memo_hits == 1 and delta.evaluations == 1


def test_memo_ignores_irrelevant_bindings():
    # `iteration` is not free in the expression, so changing it must not
    # miss the memo — this is what makes per-iteration evaluation cheap.
    expr = compiled_expression(compile_expression("num_nodes * 3"))
    expr.evaluate({"num_nodes": 4, "iteration": 0})
    before = STATS.snapshot()
    assert expr.evaluate({"num_nodes": 4, "iteration": 17}) == 12
    assert STATS.since(before).memo_hits == 1


def test_constant_folding_counts_and_defers_errors():
    const = compiled_expression("2 ^ 10")
    before = STATS.snapshot()
    assert const.evaluate({}) == 1024
    assert STATS.since(before).constant_hits == 1

    # A failing literal expression must fail at evaluate(), not at load.
    failing = CompiledExpression(compile_expression("1 / 0"))
    with pytest.raises(ExpressionError, match="Division by zero"):
        failing.evaluate({})
    # ... and keep failing identically on the second call.
    with pytest.raises(ExpressionError, match="Division by zero"):
        failing.evaluate({})


def test_error_messages_not_cached_across_binding_sets():
    # The unknown-variable message embeds the *full* binding set, which can
    # differ between calls sharing a memo key — errors must never be memoised.
    compiled = CompiledExpression(compile_expression("a + b"))
    with pytest.raises(ExpressionError) as first:
        compiled.evaluate({"a": 1})
    with pytest.raises(ExpressionError) as second:
        compiled.evaluate({"a": 1, "extra": 9})
    assert "extra" in str(second.value)
    assert "extra" not in str(first.value)


def test_source_interning_shares_compiled_object():
    assert compiled_expression("num_nodes + 40") is compiled_expression(
        "num_nodes + 40"
    )


def test_compiled_expression_is_an_expression():
    expr = compiled_expression("sqrt(num_nodes)")
    assert expr.variables() == {"num_nodes"}
    assert expr.evaluate({"num_nodes": 9}) == math.sqrt(9)
