"""Batch-compiling expression evaluator: whole-column closures over batches.

``compile_batch_expression`` specialises an
:class:`~repro.algebra.expressions.Expression` tree into a closure taking a
:class:`~repro.exec.vectorized.batch.ColumnBatch` and returning either a
numpy array (one value per row) or a Python scalar (for row-independent
subtrees such as literals and parameters).  Predicates additionally pass
through :func:`as_mask`, which broadcasts scalars and coerces to a boolean
mask.

NULL semantics mirror the scalar evaluator exactly:

* a comparison with NULL on either side is **False** — on object columns
  every comparison therefore computes a validity mask first and only
  compares the valid subset (``!=`` and ``==`` against NULL would
  otherwise leak three-valued weirdness);
* arithmetic with NULL yields NULL — the valid subset is computed, the
  rest stays None;
* incomparable non-NULL values raise ``TypeError``, exactly as the
  dict-context evaluator would on the first offending row.

Expression kinds the compiler cannot specialise (opaque
``CallablePredicate`` closures, third-party subclasses, unresolvable
references) fall back to evaluating the scalar slot-compiled closure once
per row of the batch — dict-path semantics at dict-path speed, for the
extensible tail only.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Union

import numpy as np

from ...algebra.expressions import (
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
from ...algebra.parameters import ParameterRef
from ...relational.types import NULL
from ...storage.rewrite import DecodeExpr, DictionaryPredicate
from ..expr import compile_expression, slot_resolver
from ..schema import RowSchema, SlotError
from .batch import ColumnBatch, is_null_mask

#: evaluation context for context-free scalar expressions (parameters)
_EMPTY_CONTEXT: dict = {}

BatchValue = Union["np.ndarray", Any]  # a column, or a row-independent scalar
BatchCompiled = Callable[[ColumnBatch], BatchValue]

_COMPARISON_UFUNCS = {
    "=": np.equal,
    "!=": np.not_equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}
_ARITHMETIC_UFUNCS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.true_divide,
    # the sign follows the divisor, as with the row evaluators' operator.mod
    "%": np.remainder,
}


def as_mask(value: BatchValue, batch: ColumnBatch) -> "np.ndarray":
    """Coerce a compiled predicate's result to one boolean per row."""
    if isinstance(value, np.ndarray):
        return value if value.dtype == np.bool_ else value.astype(np.bool_)
    return np.full(batch.length, bool(value), dtype=np.bool_)


def _valid_mask(value: BatchValue) -> Optional["np.ndarray"]:
    """Non-NULL positions of a batch value; None means "all valid"."""
    if isinstance(value, np.ndarray):
        nulls = is_null_mask(value)
        if nulls is None or not nulls.any():
            return None
        return ~nulls
    return None  # scalar NULL is handled separately by each operator


def _and_valid(
    left: Optional["np.ndarray"], right: Optional["np.ndarray"]
) -> Optional["np.ndarray"]:
    if left is None:
        return right
    if right is None:
        return left
    return left & right


def _compress(value: BatchValue, valid: "np.ndarray") -> BatchValue:
    return value[valid] if isinstance(value, np.ndarray) else value


def compile_batch_expression(
    expression: Expression, schema: RowSchema
) -> BatchCompiled:
    """Compile ``expression`` into a whole-batch closure over ``schema``."""
    try:
        return _compile(expression, schema)
    except SlotError:
        return _row_fallback(expression, schema)


def _row_fallback(expression: Expression, schema: RowSchema) -> BatchCompiled:
    """Evaluate the scalar slot-compiled closure once per row of the batch."""
    scalar = compile_expression(
        expression, slot_resolver(schema), schema.context_builder()
    )

    def evaluate(batch: ColumnBatch) -> "np.ndarray":
        out = np.empty(batch.length, dtype=object)
        out[:] = [scalar(row) for row in batch.to_tuples()]
        return out

    return evaluate


def _compile(expression: Expression, schema: RowSchema) -> BatchCompiled:
    if isinstance(expression, Literal):
        value = expression.value
        return lambda batch: value

    if isinstance(expression, ColumnRef):
        slot = schema.resolve(expression.column, expression.table)
        return lambda batch: batch.arrays[slot]

    if isinstance(expression, ParameterRef):
        # read the contextvar binding once per *batch*, not once per row
        evaluate = expression.evaluate
        return lambda batch: evaluate(_EMPTY_CONTEXT)

    if isinstance(expression, Comparison):
        return _compile_comparison(expression, schema)

    if isinstance(expression, Arithmetic):
        return _compile_arithmetic(expression, schema)

    if isinstance(expression, And):
        operands = tuple(_compile(op, schema) for op in expression.operands)
        return lambda batch: _combine(operands, batch, np.logical_and)

    if isinstance(expression, Or):
        operands = tuple(_compile(op, schema) for op in expression.operands)
        return lambda batch: _combine(operands, batch, np.logical_or)

    if isinstance(expression, IsNull):
        return _compile_is_null(expression, schema)

    if isinstance(expression, InList):
        return _compile_in_list(expression, schema)

    if isinstance(expression, Between):
        low = Comparison("<=", expression.low, expression.operand)
        high = Comparison("<=", expression.operand, expression.high)
        low_mask = _compile_comparison(low, schema)
        high_mask = _compile_comparison(high, schema)
        return lambda batch: as_mask(low_mask(batch), batch) & as_mask(
            high_mask(batch), batch
        )

    if isinstance(expression, Like):
        operand = _compile(expression.operand, schema)
        pattern = like_regex(expression.pattern)
        negated = expression.negated

        def like(batch: ColumnBatch) -> "np.ndarray":
            value = operand(batch)
            if not isinstance(value, np.ndarray):
                if value is NULL:
                    return np.zeros(batch.length, dtype=np.bool_)
                matched = pattern.fullmatch(str(value)) is not None
                return np.full(batch.length, matched != negated, dtype=np.bool_)
            out = np.fromiter(
                (
                    False
                    if item is NULL
                    else (pattern.fullmatch(str(item)) is not None) != negated
                    for item in value.tolist()
                ),
                dtype=np.bool_,
                count=len(value),
            )
            return out

        return like

    if isinstance(expression, DecodeExpr):
        operand = _compile(expression.operand, schema)
        decode = expression.codec.decode

        def decoded(batch: ColumnBatch) -> BatchValue:
            value = operand(batch)
            if not isinstance(value, np.ndarray):
                return decode(value)
            out = np.empty(len(value), dtype=object)
            out[:] = [decode(item) for item in value.tolist()]
            return out

        return decoded

    if isinstance(expression, DictionaryPredicate):
        # whole-column dictionary side-table lookup: one fancy-index over
        # the precomputed bool table answers range/LIKE for the batch
        operand = _compile(expression.operand, schema)
        table = expression.table

        def dictionary_mask(batch: ColumnBatch) -> "np.ndarray":
            value = operand(batch)
            if not isinstance(value, np.ndarray):
                return np.full(batch.length, table.test(value), dtype=np.bool_)
            return table.mask(value)

        return dictionary_mask

    # CallablePredicate / third-party Expression subclasses
    return _row_fallback(expression, schema)


def _combine(
    operands: Sequence[BatchCompiled], batch: ColumnBatch, op: Any
) -> "np.ndarray":
    result = as_mask(operands[0](batch), batch)
    for operand in operands[1:]:
        result = op(result, as_mask(operand(batch), batch))
    return result


def _elementwise_compare(
    operate: Any, left: BatchValue, right: BatchValue, length: int
) -> "np.ndarray":
    """Per-element Python comparison: the semantics ufuncs cannot express.

    numpy refuses some cross-dtype pairs outright (``np.equal(int64_col,
    'x')`` raises UFuncTypeError) where Python's ``==`` quietly returns
    False; this fallback reproduces the scalar evaluator exactly —
    including *raising* for ordering operators on incomparable types,
    which the dict path does too.
    """
    left_values = left.tolist() if isinstance(left, np.ndarray) else (left,) * length
    right_values = (
        right.tolist() if isinstance(right, np.ndarray) else (right,) * length
    )
    return np.fromiter(
        (
            bool(operate(left_item, right_item))
            for left_item, right_item in zip(left_values, right_values)
        ),
        dtype=np.bool_,
        count=length,
    )


def _compile_comparison(expression: Comparison, schema: RowSchema) -> BatchCompiled:
    left = _compile(expression.left, schema)
    right = _compile(expression.right, schema)
    ufunc = _COMPARISON_UFUNCS[expression.op]
    operate = _COMPARISONS[expression.op]

    def compare(batch: ColumnBatch) -> "np.ndarray":
        left_value = left(batch)
        right_value = right(batch)
        if not isinstance(left_value, np.ndarray) and not isinstance(
            right_value, np.ndarray
        ):
            if left_value is NULL or right_value is NULL:
                return np.zeros(batch.length, dtype=np.bool_)
            return np.full(
                batch.length, bool(operate(left_value, right_value)), dtype=np.bool_
            )
        if left_value is NULL or right_value is NULL:  # scalar NULL side
            return np.zeros(batch.length, dtype=np.bool_)
        valid = _and_valid(_valid_mask(left_value), _valid_mask(right_value))
        if valid is None:
            try:
                return as_mask(ufunc(left_value, right_value), batch)
            except TypeError:  # incl. UFuncTypeError: no loop for this dtype pair
                return _elementwise_compare(
                    operate, left_value, right_value, batch.length
                )
        out = np.zeros(batch.length, dtype=np.bool_)
        compressed_left = _compress(left_value, valid)
        compressed_right = _compress(right_value, valid)
        try:
            out[valid] = as_mask_compressed(ufunc(compressed_left, compressed_right))
        except TypeError:
            out[valid] = _elementwise_compare(
                operate, compressed_left, compressed_right, int(np.count_nonzero(valid))
            )
        return out

    return compare


def as_mask_compressed(value: Any) -> "np.ndarray":
    """Boolean view of a compressed (already length-matched) comparison result."""
    if isinstance(value, np.ndarray):
        return value if value.dtype == np.bool_ else value.astype(np.bool_)
    return np.asarray(value, dtype=np.bool_)


def _compile_arithmetic(expression: Arithmetic, schema: RowSchema) -> BatchCompiled:
    left = _compile(expression.left, schema)
    right = _compile(expression.right, schema)
    ufunc = _ARITHMETIC_UFUNCS[expression.op]
    operate = _ARITHMETIC[expression.op]

    def arithmetic(batch: ColumnBatch) -> BatchValue:
        left_value = left(batch)
        right_value = right(batch)
        if not isinstance(left_value, np.ndarray) and not isinstance(
            right_value, np.ndarray
        ):
            if left_value is NULL or right_value is NULL:
                return NULL
            return operate(left_value, right_value)
        if left_value is NULL or right_value is NULL:  # scalar NULL side
            return np.full(batch.length, None, dtype=object)
        valid = _and_valid(_valid_mask(left_value), _valid_mask(right_value))
        if valid is None:
            return ufunc(left_value, right_value)
        out = np.full(batch.length, None, dtype=object)
        out[valid] = ufunc(_compress(left_value, valid), _compress(right_value, valid))
        return out

    return arithmetic


def _compile_is_null(expression: IsNull, schema: RowSchema) -> BatchCompiled:
    operand = _compile(expression.operand, schema)
    negated = expression.negated

    def check(batch: ColumnBatch) -> "np.ndarray":
        value = operand(batch)
        if not isinstance(value, np.ndarray):
            result = (value is not NULL) if negated else (value is NULL)
            return np.full(batch.length, result, dtype=np.bool_)
        nulls = is_null_mask(value)
        if nulls is None:
            nulls = np.zeros(len(value), dtype=np.bool_)
        return ~nulls if negated else nulls

    return check


def _compile_in_list(expression: InList, schema: RowSchema) -> BatchCompiled:
    operand = _compile(expression.operand, schema)
    negated = expression.negated

    if not any(isinstance(item, Expression) for item in expression.values):
        try:
            members = frozenset(expression.values)
        except TypeError:
            members = None
        if members is not None:

            # a native-dtype column can only ever equal numeric members, so
            # np.isin runs over those alone — feeding it the full mixed
            # member list would let numpy promote everything to strings
            # and silently match nothing
            numeric_members = [
                member for member in members if type(member) in (bool, int, float)
            ]

            def in_set(batch: ColumnBatch) -> "np.ndarray":
                value = operand(batch)
                if not isinstance(value, np.ndarray):
                    if value is NULL:
                        return np.zeros(batch.length, dtype=np.bool_)
                    return np.full(
                        batch.length, (value in members) != negated, dtype=np.bool_
                    )
                if value.dtype.kind in "biuf":
                    matched = None
                    if numeric_members:
                        try:
                            matched = np.isin(value, numeric_members)
                        except (TypeError, OverflowError):
                            matched = None
                        if matched is None:  # e.g. an out-of-range int member
                            member_set = frozenset(numeric_members)
                            matched = np.fromiter(
                                (item in member_set for item in value.tolist()),
                                dtype=np.bool_,
                                count=len(value),
                            )
                    else:
                        matched = np.zeros(len(value), dtype=np.bool_)
                    return ~matched if negated else matched
                out = np.fromiter(
                    (
                        False if item is NULL else (item in members) != negated
                        for item in value.tolist()
                    ),
                    dtype=np.bool_,
                    count=len(value),
                )
                return out

            return in_set

    # value list contains expressions (e.g. parameters): evaluate each once
    # per batch, then compare column-wise with NULL-safe equality
    items = tuple(
        _compile(item, schema) if isinstance(item, Expression) else None
        for item in expression.values
    )
    plain = tuple(expression.values)

    def in_list(batch: ColumnBatch) -> "np.ndarray":
        value = operand(batch)
        matched = np.zeros(batch.length, dtype=np.bool_)
        candidates = [
            compiled(batch) if compiled is not None else plain[index]
            for index, compiled in enumerate(items)
        ]
        if not isinstance(value, np.ndarray):
            if value is NULL:
                return matched
            hit = any(
                candidate is not NULL
                and not isinstance(candidate, np.ndarray)
                and value == candidate
                for candidate in candidates
            )
            return np.full(batch.length, hit != negated, dtype=np.bool_)
        valid = _valid_mask(value)
        for candidate in candidates:
            if candidate is NULL:
                continue
            try:
                matched |= as_mask(np.equal(value, candidate), batch)
            except TypeError:
                # no equality loop for this dtype pair (native column vs a
                # string, say): Python == is simply False everywhere, so
                # the candidate contributes no matches
                continue
        result = ~matched if negated else matched
        if valid is not None:
            # a NULL operand is False regardless of negation (dict-path rule)
            result &= valid
        return result

    return in_list


def compile_batch_predicates(
    predicates: Sequence[Expression], schema: RowSchema
) -> Optional[Callable[[ColumnBatch], "np.ndarray"]]:
    """AND-compile predicates into one batch -> boolean-mask closure."""
    if not predicates:
        return None
    compiled = tuple(
        compile_batch_expression(predicate, schema) for predicate in predicates
    )

    def evaluate(batch: ColumnBatch) -> "np.ndarray":
        mask = as_mask(compiled[0](batch), batch)
        for predicate in compiled[1:]:
            if not mask.any():
                return mask
            mask &= as_mask(predicate(batch), batch)
        return mask

    return evaluate


def broadcast_column(value: BatchValue, batch: ColumnBatch) -> "np.ndarray":
    """Materialise a compiled output expression as one column of the batch."""
    if isinstance(value, np.ndarray):
        return value
    from .batch import full_column

    return full_column(batch.length, value)


def compile_batch_outputs(
    output_columns: Sequence[Any], schema: RowSchema
) -> Callable[[ColumnBatch], List["np.ndarray"]]:
    """Compile a SELECT list into a batch -> output-columns closure.

    The all-plain-columns common case compiles to slot picks (no compute,
    no copies); expression outputs evaluate vectorized, with the usual
    per-row fallback for opaque expressions.
    """
    if all(isinstance(column.expression, ColumnRef) for column in output_columns):
        try:
            slots = [
                schema.resolve(column.expression.column, column.expression.table)
                for column in output_columns
            ]
        except SlotError:
            slots = None
        if slots is not None:
            return lambda batch: [batch.arrays[slot] for slot in slots]

    compiled = tuple(
        compile_batch_expression(column.expression, schema)
        for column in output_columns
    )
    return lambda batch: [
        broadcast_column(expression(batch), batch) for expression in compiled
    ]
