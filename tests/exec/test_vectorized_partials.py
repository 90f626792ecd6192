"""Vectorized aggregate partials equal the slotted row-at-a-time fold exactly.

``VectorizedAggregates`` gathers each group's argument values out of the
evaluated numpy columns; ``SlottedAggregates.accumulate`` folds the same
rows one tuple at a time.  The two must produce the same partial payload —
the same values summed left to right in the same order — so floats are
compared with ``==``, not approximately.
"""

import pytest

import numpy as np

from repro.algebra.expressions import ColumnRef, Literal
from repro.algebra.logical import AggFunc, AggregateSpec
from repro.exec.operations import SlottedAggregates
from repro.exec.schema import RowSchema
from repro.exec.vectorized.batch import ColumnBatch
from repro.exec.vectorized.operations import VectorizedAggregates
from repro.relational.types import NULL

SCHEMA = RowSchema(["t.o", "t.i", "t.f"])

# t.o: floats with NULLs (an object column); t.i / t.f: native int / float
ROWS = [
    (
        NULL if row % 4 == 1 else 0.1 * row + 0.7,
        (row * 7919) % 23 - 11,
        0.3 * ((row * 31) % 17) - 1.1,
    )
    for row in range(40)
]

ARGUMENTS = {
    "object_with_nulls": ColumnRef("o", "t"),
    "native_int": ColumnRef("i", "t"),
    "native_float": ColumnRef("f", "t"),
    "constant": Literal(0.1),
    "constant_null": Literal(NULL),
}

FUNCTIONS = [
    AggFunc.COUNT,
    AggFunc.SUM,
    AggFunc.AVG,
    AggFunc.MIN,
    AggFunc.MAX,
    AggFunc.COUNT_DISTINCT,
]

SPECS = [AggregateSpec(AggFunc.COUNT, None, "count_star")] + [
    AggregateSpec(function, argument, f"{function.value}_{name}")
    for name, argument in ARGUMENTS.items()
    for function in FUNCTIONS
]

INDEX_SETS = {
    "scattered": [0, 3, 4, 9, 17, 18, 22, 31, 38],
    "only_nulls_in_object": [1, 5, 13, 37],
    "single_row": [21],
    "every_third": list(range(2, 40, 3)),
}


@pytest.fixture(scope="module")
def aggregates():
    slotted = SlottedAggregates(SPECS, SCHEMA)
    return slotted, VectorizedAggregates(SPECS, SCHEMA, slotted)


@pytest.fixture(scope="module")
def batch():
    batch = ColumnBatch.from_rows(ROWS)
    assert [column.dtype.kind for column in batch.arrays] == ["O", "i", "f"]
    return batch


def slotted_fold(slotted, indices):
    partial = slotted.empty()
    for index in indices:
        slotted.accumulate(partial, ROWS[index])
    return partial


@pytest.mark.parametrize("name", sorted(INDEX_SETS))
def test_partial_for_equals_slotted_fold(aggregates, batch, name):
    slotted, vectorized = aggregates
    indices = INDEX_SETS[name]
    columns = vectorized.argument_columns(batch)
    gathered = vectorized.partial_for(np.asarray(indices, dtype=np.intp), columns)
    assert gathered == slotted_fold(slotted, indices)


def test_batch_partial_equals_slotted_fold(aggregates, batch):
    slotted, vectorized = aggregates
    expected = slotted_fold(slotted, range(len(ROWS)))
    assert vectorized.batch_partial(batch) == expected
    # the same fold through the gather path, over every row
    columns = vectorized.argument_columns(batch)
    assert vectorized.partial_for(np.arange(len(ROWS)), columns) == expected


def test_partials_hold_python_values(aggregates, batch):
    """Native columns are unboxed: no numpy scalar reaches a partial."""
    _, vectorized = aggregates
    partial = vectorized.batch_partial(batch)
    for value in partial:
        items = value if isinstance(value, (tuple, set)) else (value,)
        assert not any(isinstance(item, np.generic) for item in items)
