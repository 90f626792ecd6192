"""Struct-of-arrays row batches: the columnar counterpart of ``List[SlottedRow]``.

A :class:`ColumnBatch` holds one intermediate TAG-join result table as one
numpy array per slot of its :class:`~repro.exec.schema.RowSchema`.  Columns
whose values are homogeneous ints / floats / bools get native dtypes, so
filters and arithmetic run as real vectorized kernels; everything else
(strings, dates, NULLs, mixed types, arbitrary objects) falls back to
``dtype=object`` arrays, where numpy still drives concatenation, gathers
and masking through C loops over object pointers — far cheaper than a
Python-level loop per row, just without the native-math fast path.

Two invariants keep the columnar path byte-equal to the tuple path:

* **purity** — an ``object`` column only ever contains the original Python
  values.  Mixing a native column into an object column (which would box
  numpy scalars) is prevented at the single place it could happen,
  :func:`concat_columns`, by round-tripping native parts through
  ``tolist()`` first.
* **boundary conversion** — :meth:`ColumnBatch.to_tuples` uses
  ``ndarray.tolist`` per column, which converts native values back into
  plain Python ``int``/``float``/``bool``.  Rows leaving a batch are
  therefore indistinguishable from rows the tuple form built.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..schema import SlottedRow

#: dtype kinds considered "native" (vectorizable maths, NULL-free)
_NATIVE_KINDS = frozenset("biuf")

#: observability for the encode-once contract: every call to
#: :func:`column_array` records whether the column materialised native or
#: fell back to ``dtype=object``.  With dictionary/sentinel encoding on,
#: string- and date-backed slots arrive as int codes and must stay native;
#: the hot-path guard test resets these counters, runs a TPC-H q1-like
#: plan fully columnar and asserts zero object fallbacks.
OBJECT_COLUMN_STATS = {"object_columns": 0, "object_values": 0, "native_columns": 0}


def reset_object_column_stats() -> None:
    OBJECT_COLUMN_STATS["object_columns"] = 0
    OBJECT_COLUMN_STATS["object_values"] = 0
    OBJECT_COLUMN_STATS["native_columns"] = 0


_NATIVE_DTYPES = {int: np.int64, float: np.float64, bool: np.bool_}


def full_column(length: int, value: Any) -> "np.ndarray":
    """A constant column of ``length`` copies of one Python value.

    This is the ``repeat`` side of the kernel's gather/repeat merges: a
    vertex's own value is broadcast against the n incoming rows it joins
    with.  Ints/floats/bools get native dtypes; every other value —
    including None (SQL NULL) — is stored as itself in an object column.
    """
    dtype = _NATIVE_DTYPES.get(type(value))
    if dtype is not None:
        try:
            column = np.empty(length, dtype=dtype)
            column.fill(value)
            return column
        except OverflowError:
            pass
    column = np.empty(length, dtype=object)
    column.fill(value)
    return column


def column_array(values: Sequence[Any]) -> "np.ndarray":
    """Build one column from Python values (native dtype when clean).

    The dtype is guessed from the first value and the conversion happens
    in one C pass; any value that does not fit the guess (a NULL, a
    column with genuinely mixed types) aborts it and the column falls
    back to object dtype.  Within one slot, values all originate from a
    single relation column (which the catalog coerced to one Python type
    at load time) plus None for NULL — so the sample guess is exact,
    never lossy.
    """
    if not values:
        return np.empty(0, dtype=object)
    first = type(values[0])
    if first is int:
        # int64 conversion raises on None and on overflow — safe blind
        try:
            column = np.asarray(values, dtype=np.int64)
            OBJECT_COLUMN_STATS["native_columns"] += 1
            return column
        except (TypeError, ValueError, OverflowError):
            pass
    elif first is float:
        # float64 conversion maps None -> nan silently; a nan in the
        # result means a NULL (or a genuine nan, which must also stay an
        # exact Python object) slipped in — fall back to object then
        try:
            column = np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError):
            column = None
        if column is not None and not np.isnan(column).any():
            OBJECT_COLUMN_STATS["native_columns"] += 1
            return column
    elif first is bool and all(type(value) is bool for value in values):
        # bool_ conversion truthifies anything (None -> False): scan first
        OBJECT_COLUMN_STATS["native_columns"] += 1
        return np.asarray(values, dtype=np.bool_)
    OBJECT_COLUMN_STATS["object_columns"] += 1
    OBJECT_COLUMN_STATS["object_values"] += len(values)
    column = np.empty(len(values), dtype=object)
    column[:] = values
    return column


def concat_columns(columns: Sequence["np.ndarray"]) -> "np.ndarray":
    """Concatenate one slot's column across sibling batches.

    When dtypes agree this is a single C-level copy.  When a native column
    meets an object column, the native values are unboxed via ``tolist``
    before concatenation so the result column stays *pure* (no numpy
    scalars hiding inside an object array).
    """
    if len(columns) == 1:
        return columns[0]
    dtypes = {column.dtype for column in columns}
    if len(dtypes) == 1:
        return np.concatenate(columns)
    if all(column.dtype.kind in _NATIVE_KINDS for column in columns):
        return np.concatenate(columns)  # numeric promotion (e.g. int64 + float64)
    merged: List[Any] = []
    for column in columns:
        merged.extend(column.tolist())
    out = np.empty(len(merged), dtype=object)
    out[:] = merged
    return out


class ColumnBatch:
    """One intermediate result table as a tuple of per-slot columns."""

    __slots__ = ("arrays", "length")

    def __init__(self, arrays: Sequence["np.ndarray"], length: int) -> None:
        self.arrays: Tuple["np.ndarray", ...] = tuple(arrays)
        self.length = length

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, rows: Sequence[SlottedRow]) -> "ColumnBatch":
        """Columnarise a (usually tiny) list of slotted tuple rows."""
        if not rows:
            return cls((), 0)
        return cls(
            [column_array(column) for column in zip(*rows)],
            len(rows),
        )

    @classmethod
    def from_row(cls, row: SlottedRow) -> "ColumnBatch":
        """A single-row batch (a relation vertex's own row entering the flow)."""
        return cls([full_column(1, value) for value in row], 1)

    @classmethod
    def concat(cls, batches: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """Stack sibling batches (the union side of the topology join)."""
        batches = [batch for batch in batches if batch.length]
        if not batches:
            return cls((), 0)
        if len(batches) == 1:
            return batches[0]
        width = len(batches[0].arrays)
        return cls(
            [
                concat_columns([batch.arrays[slot] for batch in batches])
                for slot in range(width)
            ],
            sum(batch.length for batch in batches),
        )

    # ------------------------------------------------------------------
    # columnar operators
    # ------------------------------------------------------------------
    def mask(self, keep: "np.ndarray") -> "ColumnBatch":
        """Boolean-mask every column (compiled filters, provenance checks)."""
        if keep.all():
            return self
        kept = int(np.count_nonzero(keep))
        if kept == 0:
            return ColumnBatch((), 0)
        return ColumnBatch([column[keep] for column in self.arrays], kept)

    def with_appended(self, columns: Sequence["np.ndarray"]) -> "ColumnBatch":
        """The concat-merge fast path: incoming columns + broadcast own columns."""
        return ColumnBatch(self.arrays + tuple(columns), self.length)

    # ------------------------------------------------------------------
    # boundary conversion
    # ------------------------------------------------------------------
    def to_tuples(self) -> List[SlottedRow]:
        """Rows as plain Python tuples (native columns unboxed by tolist)."""
        if self.length == 0:
            return []
        if not self.arrays:  # zero-width table: n empty tuples
            return [()] * self.length
        return list(zip(*[column.tolist() for column in self.arrays]))

    def column_list(self, slot: int) -> List[Any]:
        """One column as a plain Python list."""
        return self.arrays[slot].tolist()

    def row(self, index: int) -> SlottedRow:
        """One row as a pure-Python tuple (group samples, LOCAL outputs)."""
        values: List[Any] = []
        for column in self.arrays:
            value = column[index]
            values.append(value.item() if isinstance(value, np.generic) else value)
        return tuple(values)

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.length

    def __bool__(self) -> bool:
        return self.length > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dtypes = ", ".join(column.dtype.str for column in self.arrays)
        return f"ColumnBatch({self.length} rows x {len(self.arrays)} cols [{dtypes}])"


def is_null_mask(column: "np.ndarray") -> Optional["np.ndarray"]:
    """Positions holding SQL NULL, or None when the dtype cannot hold one."""
    if column.dtype.kind in _NATIVE_KINDS:
        return None
    return np.equal(column, None)
