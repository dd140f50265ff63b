"""Tests for the expression tokenizer, parser, and evaluator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.application import expression_to_source
from repro.expressions import ExpressionError, compile_expression, compiled_expression, parse
from repro.expressions.parser import MAX_DEPTH


def ev(source, **variables):
    return parse(source).evaluate(variables)


class TestLiterals:
    def test_integer(self):
        assert ev("42") == 42

    def test_float(self):
        assert ev("3.25") == 3.25

    def test_leading_dot(self):
        assert ev(".5") == 0.5

    def test_scientific(self):
        assert ev("1e12") == 1e12
        assert ev("2.5E-3") == 2.5e-3

    def test_int_stays_int(self):
        assert isinstance(ev("7"), int)


class TestArithmetic:
    @pytest.mark.parametrize(
        "source, expected",
        [
            ("1 + 2", 3),
            ("10 - 4", 6),
            ("6 * 7", 42),
            ("10 / 4", 2.5),
            ("10 // 4", 2),
            ("10 % 3", 1),
            ("2 ^ 10", 1024),
        ],
    )
    def test_binary_ops(self, source, expected):
        assert ev(source) == expected

    def test_precedence_mul_over_add(self):
        assert ev("2 + 3 * 4") == 14

    def test_precedence_pow_over_mul(self):
        assert ev("2 * 3 ^ 2") == 18

    def test_pow_right_associative(self):
        assert ev("2 ^ 3 ^ 2") == 512

    def test_parentheses_override(self):
        assert ev("(2 + 3) * 4") == 20

    def test_unary_minus(self):
        assert ev("-5 + 3") == -2

    def test_unary_minus_binds_tighter_than_mul(self):
        assert ev("-2 * 3") == -6

    def test_double_unary(self):
        assert ev("--5") == 5

    def test_unary_on_parenthesized(self):
        assert ev("-(2 + 3)") == -5

    def test_division_by_zero_raises(self):
        with pytest.raises(ExpressionError, match="zero"):
            ev("1 / 0")
        with pytest.raises(ExpressionError, match="zero"):
            ev("1 // 0")
        with pytest.raises(ExpressionError, match="zero"):
            ev("1 % 0")


class TestVariables:
    def test_simple_variable(self):
        assert ev("num_nodes", num_nodes=16) == 16

    def test_weak_scaling_expression(self):
        assert ev("1e12 / num_nodes", num_nodes=8) == 1.25e11

    def test_unknown_variable_raises_with_available(self):
        with pytest.raises(ExpressionError, match="num_nodes"):
            ev("missing_name", num_nodes=4)

    def test_variables_reported(self):
        expr = parse("a * b + min(c, 2)")
        assert expr.variables() == {"a", "b", "c"}


class TestFunctions:
    def test_min_max_variadic(self):
        assert ev("min(3, 1, 2)") == 1
        assert ev("max(3, 1, 2)") == 3

    def test_ceil_floor_round_abs(self):
        assert ev("ceil(1.2)") == 2
        assert ev("floor(1.8)") == 1
        assert ev("round(2.5)") == 2  # banker's rounding
        assert ev("abs(-4)") == 4

    def test_sqrt_log_exp(self):
        assert ev("sqrt(16)") == 4
        assert ev("log2(8)") == 3
        assert ev("log(exp(1))") == pytest.approx(1.0)

    def test_pow_two_args(self):
        assert ev("pow(2, 8)") == 256

    def test_if_function(self):
        assert ev("if(num_nodes > 4, 100, 200)", num_nodes=8) == 100
        assert ev("if(num_nodes > 4, 100, 200)", num_nodes=2) == 200

    def test_comparison_yields_float_bool(self):
        assert ev("3 > 2") == 1.0
        assert ev("3 < 2") == 0.0
        assert ev("2 == 2") == 1.0
        assert ev("2 != 2") == 0.0

    def test_unknown_function_raises(self):
        with pytest.raises(ExpressionError, match="Unknown function"):
            parse("frobnicate(1)")

    def test_wrong_arity_raises(self):
        with pytest.raises(ExpressionError, match="argument"):
            parse("pow(1)")
        with pytest.raises(ExpressionError, match="argument"):
            parse("sqrt(1, 2)")
        with pytest.raises(ExpressionError, match="at least one"):
            parse("min()")

    def test_sqrt_negative_raises(self):
        with pytest.raises(ExpressionError):
            ev("sqrt(-1)")

    def test_log_nonpositive_raises(self):
        with pytest.raises(ExpressionError):
            ev("log(0)")


class TestErrors:
    @pytest.mark.parametrize(
        "source",
        ["", "   ", "1 +", "* 3", "(1 + 2", "1 + 2)", "1 2", "min(1,", "@", "a b"],
    )
    def test_malformed_expressions(self, source):
        with pytest.raises(ExpressionError):
            parse(source)

    def test_non_string_rejected_by_parse(self):
        with pytest.raises(ExpressionError):
            parse(None)  # type: ignore[arg-type]


#: Each shape as a function of how many levels tall its tree is.
_DEEP = {
    "sum": lambda n: "+".join(["x"] * n),
    "right-nested sum": lambda n: "x+(" * (n - 1) + "x" + ")" * (n - 1),
    "power tower": lambda n: "^".join(["x"] * n),
    "signs": lambda n: "-" * (n - 1) + "x",
    "calls": lambda n: "abs(" * (n - 1) + "x" + ")" * (n - 1),
    "two-argument calls": lambda n: "min(1," * (n - 1) + "x" + ")" * (n - 1),
    # Brackets build no node; the serializer writes two per level.
    "brackets": lambda n: "(" * (2 * n - 1) + "x" + ")" * (2 * n - 1),
}


class TestDepthLimit:
    @pytest.mark.parametrize("shape", sorted(_DEEP))
    def test_everything_works_at_the_limit(self, shape):
        expr = parse(_DEEP[shape](MAX_DEPTH))
        assert expr.variables() == {"x"}
        expr.evaluate({"x": 1})
        compiled_expression(expr).evaluate({"x": 1})
        source = expression_to_source(expr)
        assert expression_to_source(parse(source)) == source  # still loads

    @pytest.mark.parametrize("shape", sorted(_DEEP))
    def test_one_past_the_limit_is_refused(self, shape):
        with pytest.raises(ExpressionError, match=f"more than {MAX_DEPTH} levels deep"):
            parse(_DEEP[shape](MAX_DEPTH + 1))

    @pytest.mark.parametrize("shape", sorted(_DEEP))
    def test_far_past_the_limit_is_refused_not_a_recursion_error(self, shape):
        with pytest.raises(ExpressionError, match="levels deep: '.{40}'\\.\\.\\.$"):
            parse(_DEEP[shape](5000))


class TestCompileExpression:
    def test_number_passthrough(self):
        assert compile_expression(5).evaluate({}) == 5
        assert compile_expression(2.5).evaluate({}) == 2.5

    def test_string_parsed(self):
        assert compile_expression("2 * 3").evaluate({}) == 6

    def test_expression_passthrough(self):
        expr = parse("1 + 1")
        assert compile_expression(expr) is expr

    def test_bool_rejected(self):
        with pytest.raises(ExpressionError):
            compile_expression(True)


class TestRealWorldExpressions:
    """Shapes that actual application models use."""

    def test_strong_scaled_compute(self):
        assert ev("2e13 / num_nodes", num_nodes=32) == 6.25e11

    def test_alltoall_message_volume(self):
        got = ev("1e6 * num_nodes * (num_nodes - 1)", num_nodes=4)
        assert got == 12e6

    def test_checkpoint_every_k_iterations(self):
        assert ev("if(iteration % 10 == 0, 1e9, 0)", iteration=20) == 1e9
        assert ev("if(iteration % 10 == 0, 1e9, 0)", iteration=21) == 0

    def test_job_argument_reference(self):
        assert ev("grid_x * grid_y * 8", grid_x=100, grid_y=200) == 160000


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------

@given(st.integers(min_value=-10**6, max_value=10**6))
def test_property_integer_literal_roundtrip(n):
    if n < 0:
        assert ev(str(n)) == n
    else:
        assert ev(str(n)) == n


@given(
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=-1000, max_value=1000),
)
def test_property_addition_matches_python(a, b):
    assert ev(f"({a}) + ({b})") == a + b


@given(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.floats(min_value=0.001, max_value=1e6, allow_nan=False),
)
def test_property_division_matches_python(a, b):
    assert ev(f"({a!r}) / ({b!r})") == pytest.approx(a / b)


@given(st.text(alphabet="abcdefgh_", min_size=1, max_size=10))
@settings(max_examples=50)
def test_property_identifier_resolution(name):
    assert ev(name, **{name: 3.5}) == 3.5


_expr_leaf = st.one_of(
    st.integers(min_value=0, max_value=100).map(str),
    st.sampled_from(["x", "y"]),
)


@st.composite
def _rand_exprs(draw, depth=3):
    if depth == 0:
        return draw(_expr_leaf)
    kind = draw(st.integers(min_value=0, max_value=3))
    if kind == 0:
        return draw(_expr_leaf)
    if kind == 1:
        op = draw(st.sampled_from(["+", "-", "*"]))
        left = draw(_rand_exprs(depth=depth - 1))
        right = draw(_rand_exprs(depth=depth - 1))
        return f"({left} {op} {right})"
    if kind == 2:
        inner = draw(_rand_exprs(depth=depth - 1))
        return f"-({inner})"
    fn = draw(st.sampled_from(["min", "max"]))
    left = draw(_rand_exprs(depth=depth - 1))
    right = draw(_rand_exprs(depth=depth - 1))
    return f"{fn}({left}, {right})"


@given(_rand_exprs())
@settings(max_examples=200, deadline=None)
def test_property_random_expressions_match_python_eval(source):
    """Our evaluator agrees with Python's own eval on the shared subset."""
    ours = ev(source, x=7, y=13)
    theirs = eval(source, {"__builtins__": {}}, {"x": 7, "y": 13, "min": min, "max": max})
    assert ours == theirs
