"""Property tests: slot-compiled expressions agree with dict-context evaluation.

Every expression shape the SQL front-end can produce — comparisons,
arithmetic, boolean combinations, IS NULL, IN (including parameters
inside the list), BETWEEN, LIKE and bare parameters — must evaluate to
exactly the same value through the compiled slot closure as through the
original ``Expression.evaluate`` over the dict row context.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra.expressions import (
    ExpressionError,
    And,
    Arithmetic,
    Between,
    ColumnRef,
    Comparison,
    InList,
    IsNull,
    Like,
    Literal,
    Or,
    col,
    lit,
    negate,
)
from repro.algebra.parameters import ParameterRef, bind_parameters
from repro.exec import RowSchema, compile_expression, slot_resolver
from repro.relational.types import NULL

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SCHEMA = RowSchema(["t.a", "t.b", "t.s"])

values = st.one_of(st.integers(-5, 5), st.just(NULL))
strings = st.sampled_from(["alpha", "beta", "gamma", "alp", ""])
rows = st.tuples(values, values, strings)


def both_ways(expression, row):
    compiled = compile_expression(
        expression, slot_resolver(SCHEMA), SCHEMA.context_builder()
    )
    context = SCHEMA.to_dict(row)
    return compiled(row), expression.evaluate(context)


@SETTINGS
@given(row=rows, op=st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
def test_comparisons_agree(row, op):
    expression = Comparison(op, col("t.a"), col("t.b"))
    got, expected = both_ways(expression, row)
    assert got == expected


@SETTINGS
@given(row=rows, op=st.sampled_from(["+", "-", "*"]))
def test_arithmetic_agrees(row, op):
    expression = Comparison(">", Arithmetic(op, col("t.a"), lit(2)), col("t.b"))
    got, expected = both_ways(expression, row)
    assert got == expected


@SETTINGS
@given(row=rows)
def test_boolean_combinations_agree(row):
    expression = Or(
        [
            And([Comparison(">", col("t.a"), lit(0)), negate(IsNull(col("t.b")))]),
            IsNull(col("t.a")),
        ]
    )
    got, expected = both_ways(expression, row)
    assert got == expected


@SETTINGS
@given(row=rows, members=st.lists(st.integers(-5, 5), max_size=4), negated=st.booleans())
def test_in_list_agrees(row, members, negated):
    expression = InList(col("t.a"), members, negated=negated)
    got, expected = both_ways(expression, row)
    assert got == expected


@SETTINGS
@given(row=rows, low=st.integers(-5, 5), span=st.integers(0, 5))
def test_between_agrees(row, low, span):
    expression = Between(col("t.a"), lit(low), lit(low + span))
    got, expected = both_ways(expression, row)
    assert got == expected


@SETTINGS
@given(row=rows, pattern=st.sampled_from(["alp%", "%a", "a_pha", "%", "gamma"]))
def test_like_agrees(row, pattern):
    expression = Like(col("t.s"), pattern)
    got, expected = both_ways(expression, row)
    assert got == expected


@SETTINGS
@given(row=rows, bound=st.integers(-5, 5))
def test_parameter_reference_agrees(row, bound):
    expression = Comparison(">=", col("t.a"), ParameterRef("threshold"))
    with bind_parameters({"threshold": bound}):
        got, expected = both_ways(expression, row)
    assert got == expected


@SETTINGS
@given(row=rows, first=st.integers(-5, 5), second=st.integers(-5, 5))
def test_parameter_inside_in_list_rebinds(row, first, second):
    """One compiled closure, two bindings: the plan-cache reuse contract."""
    expression = InList(col("t.a"), [Literal(99), ParameterRef("p")])
    compiled = compile_expression(
        expression, slot_resolver(SCHEMA), SCHEMA.context_builder()
    )
    context = SCHEMA.to_dict(row)
    with bind_parameters({"p": first}):
        assert compiled(row) == expression.evaluate(context)
    with bind_parameters({"p": second}):
        assert compiled(row) == expression.evaluate(context)


@SETTINGS
@given(row=rows)
def test_unresolvable_reference_falls_back_to_context(row):
    """Unknown columns compile to the dict fallback and raise the same error."""
    expression = Comparison("=", ColumnRef("missing", "t"), lit(1))
    compiled = compile_expression(
        expression, slot_resolver(SCHEMA), SCHEMA.context_builder()
    )
    with pytest.raises(ExpressionError):
        compiled(row)
    with pytest.raises(ExpressionError):
        expression.evaluate(SCHEMA.to_dict(row))
