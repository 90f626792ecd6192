"""Vectorized aggregates, GROUP BY factorization and group keys.

Per-vertex aggregation folds a whole :class:`ColumnBatch` at once: every
aggregate argument is evaluated column-wise exactly once per batch, groups
are factorized with ``np.unique`` (native single-column keys) or one hash
pass (everything else), and each group's reduction runs over an index
gather of the argument column.

The *partial* payload format is exactly
:class:`~repro.exec.operations.SlottedAggregates`' — a list with one entry
per aggregate spec — so cross-vertex merging and finalisation reuse the
slotted machinery unchanged, and the global-aggregator protocol is
identical across both compiled representations.

Determinism note: SUM/AVG accumulate with a *sequential left-to-right*
Python ``sum`` over the gathered values (a single C-level loop), not
``np.sum`` — numpy's pairwise summation would differ from the row-at-a-time
paths in the last float ulps, and the differential harness asserts exact
equality between the TAG representations.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from ...algebra.logical import AggFunc, AggregateSpec
from ...relational.types import NULL
from ..operations import Partial, SlottedAggregates
from ..schema import RowSchema, SlottedRow
from .batch import ColumnBatch
from .expr import BatchCompiled, BatchValue, compile_batch_expression


def factorize_groups(
    key_columns: Sequence["np.ndarray"], length: int
) -> List[Tuple[Tuple[Any, ...], "np.ndarray"]]:
    """Split a batch into groups: ``[(key_tuple, row_indices), ...]``.

    Single native-dtype keys factorize entirely inside numpy
    (``np.unique(return_inverse=True)`` + a stable argsort of the inverse);
    object or multi-column keys fall back to one hash pass over the zipped
    key values.  Row indices always come back in row order, so the first
    index of each group is the group's first-occurrence sample — the same
    sample the row-at-a-time paths pick.
    """
    if not key_columns:
        return [((), np.arange(length))]
    if len(key_columns) == 1 and key_columns[0].dtype.kind in "biuf":
        column = key_columns[0]
        uniques, inverse = np.unique(column, return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        boundaries = np.searchsorted(inverse[order], np.arange(len(uniques)))
        splits = np.split(order, boundaries[1:])
        keys = uniques.tolist()
        return [((key,), indices) for key, indices in zip(keys, splits)]
    by_key: dict = {}
    for index, key in enumerate(zip(*[column.tolist() for column in key_columns])):
        bucket = by_key.get(key)
        if bucket is None:
            by_key[key] = bucket = []
        bucket.append(index)
    return [
        (key, np.asarray(indices, dtype=np.intp)) for key, indices in by_key.items()
    ]


def compile_batch_group_key(
    group_columns: Sequence[str], schema: RowSchema
) -> Callable[[ColumnBatch], List["np.ndarray"]]:
    """Compile qualified GROUP BY names into a batch -> key-columns closure.

    Mirrors the slotted rule (``row.get``): a column missing from the
    schema contributes a constant-None key column, never an error.
    """
    slots = [schema.slot_or_none(column) for column in group_columns]

    def key_columns(batch: ColumnBatch) -> List["np.ndarray"]:
        columns: List["np.ndarray"] = []
        for slot in slots:
            if slot is None:
                columns.append(np.full(batch.length, None, dtype=object))
            else:
                columns.append(batch.arrays[slot])
        return columns

    return key_columns


class VectorizedAggregates:
    """Whole-batch aggregate evaluation producing slotted-compatible partials."""

    __slots__ = ("slotted", "_arguments", "_functions")

    def __init__(
        self, aggregates: Sequence[AggregateSpec], schema: RowSchema, slotted: SlottedAggregates
    ) -> None:
        self.slotted = slotted  # merge/finalize/aliases delegate here
        self._functions: Tuple[AggFunc, ...] = tuple(
            spec.function for spec in aggregates
        )
        self._arguments: Tuple[Optional[BatchCompiled], ...] = tuple(
            compile_batch_expression(spec.argument, schema)
            if spec.argument is not None
            else None
            for spec in aggregates
        )

    # ------------------------------------------------------------------
    def argument_columns(self, batch: ColumnBatch) -> List[BatchValue]:
        """Evaluate every aggregate argument once over the whole batch.

        Each entry is the argument's column (a numpy array in row order)
        or its row-independent scalar; argument-less COUNT(*) specs get
        ``None``, which :meth:`partial_for` never reads.
        """
        return [
            None if argument is None else argument(batch) for argument in self._arguments
        ]

    def partial_for(self, indices: "np.ndarray", columns: Sequence[BatchValue]) -> Partial:
        """One group's partial payload, gathered from the argument columns."""
        return self._partial(columns, indices, len(indices))

    def batch_partial(self, batch: ColumnBatch) -> Partial:
        """The whole batch folded into one partial (LOCAL aggregation)."""
        return self._partial(self.argument_columns(batch), None, batch.length)

    def _partial(
        self, columns: Sequence[BatchValue], indices: Optional["np.ndarray"], count: int
    ) -> Partial:
        """Fold ``count`` rows (``indices``, or the whole batch for None)."""
        partial: Partial = []
        for position, function in enumerate(self._functions):
            if self._arguments[position] is None:  # COUNT(*), the one argument-less spec
                partial.append(count)
                continue
            values = _non_null_values(columns[position], indices, count)
            if function is AggFunc.COUNT:
                partial.append(len(values))
            elif function is AggFunc.SUM:
                partial.append(sum(values))
            elif function is AggFunc.AVG:
                partial.append((sum(values), len(values)))
            elif function is AggFunc.MIN:
                partial.append(min(values) if values else None)
            elif function is AggFunc.MAX:
                partial.append(max(values) if values else None)
            elif function is AggFunc.COUNT_DISTINCT:
                partial.append(set(values))
            else:  # pragma: no cover - exhaustive over AggFunc
                raise ValueError(f"unsupported aggregate {function}")
        return partial

    # slotted-compatible surface --------------------------------------
    def merge(self, left: Partial, right: Partial) -> Partial:
        return self.slotted.merge(left, right)

    def finalize(self, partial: Partial) -> Tuple[Any, ...]:
        return self.slotted.finalize(partial)

    @property
    def aliases(self) -> Tuple[str, ...]:
        return self.slotted.aliases


def _non_null_values(
    column: BatchValue, indices: Optional["np.ndarray"], count: int
) -> List[Any]:
    """One group's non-NULL argument values as Python objects, in row order.

    A column is gathered with one fancy index and unboxed with one
    ``tolist``; only a non-native column can hold NULL, so only that one
    is filtered.  A scalar argument stands for ``count`` equal values.
    """
    if not isinstance(column, np.ndarray):
        return [] if column is NULL else [column] * count
    values = (column if indices is None else column[indices]).tolist()
    if column.dtype.kind in "biuf":
        return values
    return [value for value in values if value is not NULL]


def first_row_output(
    output_slots: Optional[Sequence[int]],
    output: Callable[[SlottedRow], Tuple[Any, ...]],
    batch: ColumnBatch,
    index: int,
) -> Tuple[Any, ...]:
    """Evaluate the output list on one row of a batch (LOCAL group heads)."""
    row = batch.row(index)
    if output_slots is not None:
        return tuple(row[slot] for slot in output_slots)
    return output(row)
