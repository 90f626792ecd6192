"""Slot-compiling expression evaluator.

``compile_expression`` specialises one :class:`~repro.algebra.expressions.Expression`
tree into a closure over a *slotted row* (a plain tuple): column references
are resolved to slot indices once, LIKE patterns become precompiled
regexes, IN-lists over plain literals become frozenset membership tests,
and parameters keep their execution-time contextvar lookup so a compiled
predicate stays parameter-generic (one plan, many bindings — exactly like
the plan-cache fingerprints).

The compiler is *total*: expression kinds it cannot specialise — opaque
:class:`~repro.core.operations.CallablePredicate` closures, third-party
``Expression`` subclasses, references it cannot resolve at compile time —
fall back to rebuilding the dict row context and calling the expression's
own ``evaluate``, preserving exact dict-path semantics (including which
errors are raised, and when).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence

from ..algebra.expressions import (
    _ARITHMETIC,
    _COMPARISONS,
    And,
    Arithmetic,
    Between,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    IsNull,
    Like,
    Literal,
    Or,
    like_regex,
)
from ..algebra.parameters import ParameterRef
from ..relational.types import NULL
from ..storage.rewrite import DecodeExpr, DictionaryPredicate
from .schema import RowSchema, SlotError

#: evaluation context handed to context-free expressions (parameters read
#: their value from the contextvar, not from the row context)
_EMPTY_CONTEXT: Dict[str, Any] = {}

Row = Any  # a slotted tuple, or whatever the resolver's accessors index into
Resolver = Callable[[ColumnRef], Callable[[Row], Any]]
ContextBuilder = Callable[[Row], Dict[str, Any]]
Compiled = Callable[[Row], Any]


def compile_expression(
    expression: Expression,
    resolve: Resolver,
    context_of: ContextBuilder,
) -> Compiled:
    """Compile ``expression`` into a closure over one row representation.

    Args:
        expression: the expression tree to specialise.
        resolve: maps a :class:`ColumnRef` to an accessor closure; raises
            :class:`~repro.exec.schema.SlotError` when the reference cannot
            be bound at compile time.
        context_of: rebuilds the dict row context for the fallback path.

    Never raises for unsupported shapes — unresolvable or unknown nodes
    compile to a dict-context fallback instead, so compilation cannot
    reject a query the dict path would have accepted.
    """
    try:
        return _compile(expression, resolve, context_of)
    except SlotError:
        return _fallback(expression, context_of)


def _fallback(expression: Expression, context_of: ContextBuilder) -> Compiled:
    evaluate = expression.evaluate
    return lambda row: evaluate(context_of(row))


def _compile(expression: Expression, resolve: Resolver, context_of: ContextBuilder) -> Compiled:
    if isinstance(expression, Literal):
        value = expression.value
        return lambda row: value

    if isinstance(expression, ColumnRef):
        return resolve(expression)

    if isinstance(expression, ParameterRef):
        # the binding lives in a contextvar read per evaluation, so one
        # compiled plan serves every execution of a prepared statement
        evaluate = expression.evaluate
        return lambda row: evaluate(_EMPTY_CONTEXT)

    if isinstance(expression, Comparison):
        left = _compile(expression.left, resolve, context_of)
        right = _compile(expression.right, resolve, context_of)
        operate = _COMPARISONS[expression.op]

        def compare(row: Row) -> bool:
            left_value = left(row)
            right_value = right(row)
            if left_value is NULL or right_value is NULL:
                return False
            return operate(left_value, right_value)

        return compare

    if isinstance(expression, Arithmetic):
        left = _compile(expression.left, resolve, context_of)
        right = _compile(expression.right, resolve, context_of)
        operate = _ARITHMETIC[expression.op]

        def arithmetic(row: Row) -> Any:
            left_value = left(row)
            right_value = right(row)
            if left_value is NULL or right_value is NULL:
                return NULL
            return operate(left_value, right_value)

        return arithmetic

    if isinstance(expression, And):
        operands = tuple(_compile(op, resolve, context_of) for op in expression.operands)
        return lambda row: all(operand(row) for operand in operands)

    if isinstance(expression, Or):
        operands = tuple(_compile(op, resolve, context_of) for op in expression.operands)
        return lambda row: any(operand(row) for operand in operands)

    if isinstance(expression, IsNull):
        operand = _compile(expression.operand, resolve, context_of)
        if expression.negated:
            return lambda row: operand(row) is not NULL
        return lambda row: operand(row) is NULL

    if isinstance(expression, InList):
        return _compile_in_list(expression, resolve, context_of)

    if isinstance(expression, Between):
        operand = _compile(expression.operand, resolve, context_of)
        low = _compile(expression.low, resolve, context_of)
        high = _compile(expression.high, resolve, context_of)

        def between(row: Row) -> bool:
            value = operand(row)
            low_value = low(row)
            high_value = high(row)
            if value is NULL or low_value is NULL or high_value is NULL:
                return False
            return low_value <= value <= high_value

        return between

    if isinstance(expression, Like):
        operand = _compile(expression.operand, resolve, context_of)
        pattern = like_regex(expression.pattern)
        negated = expression.negated

        def like(row: Row) -> bool:
            value = operand(row)
            if value is NULL:
                return False
            matched = pattern.fullmatch(str(value)) is not None
            return not matched if negated else matched

        return like

    if isinstance(expression, DecodeExpr):
        operand = _compile(expression.operand, resolve, context_of)
        decode = expression.codec.decode
        return lambda row: decode(operand(row))

    if isinstance(expression, DictionaryPredicate):
        # dictionary side-table lookup: the operand stays an int32 code,
        # the precomputed bool table answers range/LIKE in O(1) per row
        operand = _compile(expression.operand, resolve, context_of)
        test = expression.table.test
        return lambda row: test(operand(row))

    # CallablePredicate, third-party subclasses: evaluate via the rebuilt
    # dict context — correctness over speed for the extensible tail
    return _fallback(expression, context_of)


def _compile_in_list(expression: InList, resolve: Resolver, context_of: ContextBuilder) -> Compiled:
    operand = _compile(expression.operand, resolve, context_of)
    negated = expression.negated
    if not any(isinstance(item, Expression) for item in expression.values):
        try:
            members = frozenset(expression.values)
        except TypeError:
            members = None
        if members is not None:

            def in_set(row: Row) -> bool:
                value = operand(row)
                if value is NULL:
                    return False
                return (value not in members) if negated else (value in members)

            return in_set

    items = tuple(
        _compile(item, resolve, context_of) if isinstance(item, Expression) else None
        for item in expression.values
    )
    plain = tuple(expression.values)

    def in_list(row: Row) -> bool:
        value = operand(row)
        if value is NULL:
            return False
        result = any(
            value == (compiled(row) if compiled is not None else plain[index])
            for index, compiled in enumerate(items)
        )
        return not result if negated else result

    return in_list


# ----------------------------------------------------------------------
# resolvers: how a ColumnRef binds to a row representation
# ----------------------------------------------------------------------
def slot_resolver(schema: RowSchema) -> Resolver:
    """Bind column references to slots of a :class:`RowSchema` tuple row."""

    def resolve(ref: ColumnRef) -> Compiled:
        slot = schema.resolve(ref.column, ref.table)
        return lambda row: row[slot]

    return resolve


def compile_predicates(
    predicates: Sequence[Expression],
    resolve: Resolver,
    context_of: ContextBuilder,
) -> Optional[Compiled]:
    """AND-compile a predicate list into one boolean closure (None if empty)."""
    if not predicates:
        return None
    compiled = [compile_expression(predicate, resolve, context_of) for predicate in predicates]
    if len(compiled) == 1:
        return compiled[0]
    compiled_tuple = tuple(compiled)
    return lambda row: all(predicate(row) for predicate in compiled_tuple)
