"""Columnar (struct-of-arrays) tables and their whole-batch operators.

The above-threshold form of a TAG-join intermediate table (see
:mod:`repro.exec.program` for when a table takes it):

* :mod:`repro.exec.vectorized.batch` — :class:`ColumnBatch`, one numpy
  array per slot with an object-dtype fallback for opaque values;
* :mod:`repro.exec.vectorized.expr` — whole-batch expression compiler
  (filters as boolean masks, NULL-aware);
* :mod:`repro.exec.vectorized.operations` — ``np.unique``-based GROUP BY
  factorization and aggregate reductions with slotted-compatible partials;
* :mod:`repro.exec.vectorized.fragment` — per-plan compilation riding in
  :class:`~repro.core.compiler.CompiledFragment`.
"""

from .batch import ColumnBatch, column_array, concat_columns, full_column
from .expr import (
    as_mask,
    compile_batch_expression,
    compile_batch_outputs,
    compile_batch_predicates,
)
from .fragment import VectorizedFragment, compile_vectorized_fragment
from .operations import VectorizedAggregates, compile_batch_group_key, factorize_groups

__all__ = [
    "ColumnBatch",
    "VectorizedAggregates",
    "VectorizedFragment",
    "as_mask",
    "column_array",
    "compile_batch_expression",
    "compile_batch_group_key",
    "compile_batch_outputs",
    "compile_batch_predicates",
    "concat_columns",
    "compile_vectorized_fragment",
    "factorize_groups",
    "full_column",
]
