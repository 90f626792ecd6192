"""Compile the batch-level execution plan of one TAG-join fragment.

A :class:`VectorizedFragment` is the columnar twin of a
:class:`~repro.exec.fragment.SlottedFragment` and is derived *from* one:
the slotted compiler already fixed every intermediate table's
:class:`~repro.exec.schema.RowSchema` and every collection step's merge
recipe, so all that is left here is compiling the row operators — the
residual conditions checked after each collection merge, the SELECT list,
the GROUP BY key and the aggregates — into whole-batch closures.

The per-step collection behaviour needs no separate compilation: the
program applies the same :class:`~repro.exec.fragment.CollectAction` to a
table in either form (a provenance mask, or the own row appended as
broadcast columns), which guarantees the two forms can never disagree
about the shape of a step.

Like the slotted plan, the compiled result rides inside the cached
:class:`~repro.core.compiler.CompiledFragment`, so a plan-cache hit hands
back ready-to-run batch closures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ...algebra.expressions import ColumnRef
from ..fragment import SlottedFragment
from ..schema import SlotError
from .batch import ColumnBatch
from .expr import compile_batch_outputs, compile_batch_predicates
from .operations import VectorizedAggregates, compile_batch_group_key


@dataclass
class VectorizedFragment:
    """Batch-level operators of one fragment, compiled once per plan."""

    #: schedule index -> AND of the residual conditions placed at that
    #: collection step, as one batch -> bool-mask closure over its table
    checks: Dict[int, Callable[[ColumnBatch], Any]]
    #: SELECT list as a batch -> output-columns closure
    outputs: Callable[[ColumnBatch], List[Any]]
    #: output slots when every output is a plain column pick (else None);
    #: used to evaluate the output list on single sample rows cheaply
    output_slots: Optional[Tuple[int, ...]]
    #: GROUP BY key columns of a batch
    group_key_columns: Callable[[ColumnBatch], List[Any]]
    #: whole-batch aggregate evaluation (slotted-compatible partials)
    aggregates: Optional[VectorizedAggregates]


def compile_vectorized_fragment(config: Any, slotted: SlottedFragment) -> VectorizedFragment:
    """Derive the columnar execution plan from a compiled slotted fragment."""
    root_schema = slotted.root_schema
    checks = {
        index: compile_batch_predicates(predicates, slotted.step_schemas[index])
        for index, predicates in config.step_residuals.items()
    }
    outputs = compile_batch_outputs(config.output_columns, root_schema)

    output_slots: Optional[Tuple[int, ...]] = None
    if all(
        isinstance(column.expression, ColumnRef) for column in config.output_columns
    ):
        try:
            output_slots = tuple(
                root_schema.resolve(column.expression.column, column.expression.table)
                for column in config.output_columns
            )
        except SlotError:
            output_slots = None

    group_key_columns = compile_batch_group_key(config.group_by_columns, root_schema)
    aggregates = (
        VectorizedAggregates(config.aggregates, root_schema, slotted.aggregates)
        if config.aggregates
        else None
    )
    return VectorizedFragment(
        checks=checks,
        outputs=outputs,
        output_slots=output_slots,
        group_key_columns=group_key_columns,
        aggregates=aggregates,
    )
