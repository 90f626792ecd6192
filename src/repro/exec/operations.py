"""Slotted counterparts of :mod:`repro.core.operations`.

Where the dict path re-resolves aggregate arguments, output expressions
and GROUP BY keys by name for every row, these helpers compile each of
them once per fragment into slot-index closures.  Partial aggregates are
plain lists indexed by aggregate position (instead of dicts keyed by
alias), and a vertex's local accumulation mutates its own partial in
place — only cross-vertex merges (which the BSP aggregator must keep
associative and side-effect free) allocate.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, List, Optional, Sequence, Set, Tuple

from ..algebra.expressions import ColumnRef, Expression
from ..algebra.logical import AggFunc, AggregateSpec, OutputColumn
from ..relational.types import NULL
from .expr import Compiled, compile_expression, slot_resolver
from .schema import RowSchema, SlotError, SlottedRow

Partial = List[Any]


class SlottedAggregates:
    """Aggregate machinery compiled against one row schema.

    Partial payloads are lists with one slot per aggregate spec, in spec
    order; the representations per function mirror the dict path exactly
    (``(sum, count)`` for AVG, a value set for COUNT DISTINCT — mutable
    here, since a partial is owned by exactly one accumulator until it is
    merged).
    """

    __slots__ = ("specs", "_arguments", "_functions")

    def __init__(self, aggregates: Sequence[AggregateSpec], schema: RowSchema) -> None:
        self.specs: Tuple[AggregateSpec, ...] = tuple(aggregates)
        resolve = slot_resolver(schema)
        context_of = schema.context_builder()
        self._arguments: Tuple[Optional[Compiled], ...] = tuple(
            compile_expression(spec.argument, resolve, context_of)
            if spec.argument is not None
            else None
            for spec in self.specs
        )
        self._functions: Tuple[AggFunc, ...] = tuple(spec.function for spec in self.specs)

    # ------------------------------------------------------------------
    def empty(self) -> Partial:
        partial: Partial = []
        for function in self._functions:
            if function in (AggFunc.COUNT, AggFunc.SUM):
                partial.append(0)
            elif function is AggFunc.AVG:
                partial.append((0, 0))
            elif function in (AggFunc.MIN, AggFunc.MAX):
                partial.append(None)
            elif function is AggFunc.COUNT_DISTINCT:
                partial.append(set())
            else:  # pragma: no cover - exhaustive over AggFunc
                raise ValueError(f"unsupported aggregate {function}")
        return partial

    def accumulate(self, partial: Partial, row: SlottedRow) -> None:
        """Fold one row into ``partial`` **in place** (the caller owns it)."""
        for index, function in enumerate(self._functions):
            argument = self._arguments[index]
            if argument is None:
                if function is AggFunc.COUNT:
                    partial[index] += 1
                continue
            value = argument(row)
            if value is NULL:
                continue
            if function is AggFunc.COUNT:
                partial[index] += 1
            elif function is AggFunc.SUM:
                partial[index] += value
            elif function is AggFunc.AVG:
                total, count = partial[index]
                partial[index] = (total + value, count + 1)
            elif function is AggFunc.MIN:
                current = partial[index]
                if current is None or value < current:
                    partial[index] = value
            elif function is AggFunc.MAX:
                current = partial[index]
                if current is None or value > current:
                    partial[index] = value
            elif function is AggFunc.COUNT_DISTINCT:
                partial[index].add(value)

    def merge(self, left: Partial, right: Partial) -> Partial:
        """Combine two partials into a fresh one (associative, no mutation)."""
        merged: Partial = []
        for index, function in enumerate(self._functions):
            left_value, right_value = left[index], right[index]
            if function in (AggFunc.COUNT, AggFunc.SUM):
                merged.append(left_value + right_value)
            elif function is AggFunc.AVG:
                merged.append(
                    (left_value[0] + right_value[0], left_value[1] + right_value[1])
                )
            elif function in (AggFunc.MIN, AggFunc.MAX):
                candidates = [v for v in (left_value, right_value) if v is not None]
                if not candidates:
                    merged.append(None)
                elif function is AggFunc.MIN:
                    merged.append(min(candidates))
                else:
                    merged.append(max(candidates))
            elif function is AggFunc.COUNT_DISTINCT:
                merged.append(left_value | right_value)
        return merged

    def finalize(self, partial: Partial) -> Tuple[Any, ...]:
        """Final aggregate values, in spec order."""
        final: List[Any] = []
        for index, function in enumerate(self._functions):
            value = partial[index]
            if function is AggFunc.AVG:
                total, count = value
                final.append(total / count if count else NULL)
            elif function is AggFunc.COUNT_DISTINCT:
                final.append(len(value))
            elif function in (AggFunc.MIN, AggFunc.MAX):
                final.append(value if value is not None else NULL)
            else:
                final.append(value)
        return tuple(final)

    @property
    def aliases(self) -> Tuple[str, ...]:
        return tuple(spec.alias for spec in self.specs)


# ----------------------------------------------------------------------
# outputs, group keys, residuals
# ----------------------------------------------------------------------
def compile_output(
    output_columns: Sequence[OutputColumn], schema: RowSchema
) -> Callable[[SlottedRow], Tuple[Any, ...]]:
    """Compile a SELECT list into one row -> output-tuple closure.

    The common all-plain-columns case collapses into a single
    ``operator.itemgetter`` call — one C-level slot gather per row.
    """
    if not output_columns:
        return lambda row: ()
    if all(isinstance(column.expression, ColumnRef) for column in output_columns):
        try:
            slots = [
                schema.resolve(column.expression.column, column.expression.table)
                for column in output_columns
            ]
        except SlotError:
            slots = None
        if slots is not None:
            if len(slots) == 1:
                getter = itemgetter(slots[0])
                return lambda row: (getter(row),)
            return itemgetter(*slots)

    resolve = slot_resolver(schema)
    context_of = schema.context_builder()
    compiled = tuple(
        compile_expression(column.expression, resolve, context_of)
        for column in output_columns
    )
    return lambda row: tuple(expression(row) for expression in compiled)


def compile_group_key(
    group_columns: Sequence[str], schema: RowSchema
) -> Callable[[SlottedRow], Tuple[Any, ...]]:
    """Compile qualified GROUP BY column names into a key extractor.

    Mirrors ``ops.group_key`` (``row.get(column)``): a column missing from
    the schema contributes a constant None, never an error.
    """
    if not group_columns:
        return lambda row: ()
    slots = [schema.slot_or_none(column) for column in group_columns]
    if all(slot is not None for slot in slots):
        if len(slots) == 1:
            getter = itemgetter(slots[0])
            return lambda row: (getter(row),)
        return itemgetter(*slots)
    slot_tuple = tuple(slots)
    return lambda row: tuple(
        row[slot] if slot is not None else None for slot in slot_tuple
    )


def compile_residual(
    predicates: Sequence[Expression], schema: RowSchema
) -> Optional[Callable[[SlottedRow], bool]]:
    """AND-compile residual predicates against a row schema (None: no predicates)."""
    if not predicates:
        return None
    resolve = slot_resolver(schema)
    context_of = schema.context_builder()
    compiled = tuple(
        compile_expression(predicate, resolve, context_of) for predicate in predicates
    )
    if len(compiled) == 1:
        return compiled[0]
    return lambda row: all(predicate(row) for predicate in compiled)


def deduplicate_rows(rows: Sequence[SlottedRow]) -> List[SlottedRow]:
    """SELECT DISTINCT over slotted rows: tuples are their own hash keys."""
    seen: Set[SlottedRow] = set()
    unique: List[SlottedRow] = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            unique.append(row)
    return unique
