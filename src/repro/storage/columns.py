"""Per-relation encoded column store.

Each encoded column keeps a packed ``int32`` code array plus a validity
bitmap, appended to in lockstep with the relation's row list.  The store
is the source of exact NDV and NULL counts for *every* column — live
occurrences are refcounted per distinct code (encoded columns) or per
distinct value (raw int/float/bool columns), so both counts are O(1)
after any insert, tombstone or restore — and of the encoded byte
accounting that
replaces the object-size estimate in
:func:`repro.relational.types.value_size_bytes`.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Hashable, Optional, Sequence

from ..relational.types import NULL
from .encoding import RelationCodec


def _release(counts: Dict[Hashable, int], key: Hashable) -> None:
    """Drop one live occurrence of ``key``; the entry leaves with the last."""
    remaining = counts[key] - 1
    if remaining:
        counts[key] = remaining
    else:
        del counts[key]


class EncodedColumn:
    """One column's encoded values: int32 codes + validity bitmap.

    Deletes are *tombstones*: :meth:`mark_deleted` clears the row's
    validity bit and drops its code from the live refcounts without
    rewriting the code array, so every surviving row keeps its physical
    index.  After a delete the bitmap therefore reads "live AND non-NULL"
    (a dead slot looks like NULL); :attr:`null_count` counts live NULLs
    only, and :attr:`ndv` stays exact because distinct codes are
    refcounted, not set-membership.
    """

    __slots__ = ("name", "codec", "codes", "_validity", "_distinct", "_null_count")

    def __init__(self, name: str, codec: Any) -> None:
        self.name = name
        self.codec = codec
        #: one int32 code per physical row slot, dead slots included
        #: (read-only for callers; a rebuild replaces the array)
        self.codes = array("i")
        self._validity = bytearray()
        #: live occurrences per distinct code (exact NDV under deletion)
        self._distinct: Dict[int, int] = {}
        self._null_count = 0

    def __len__(self) -> int:
        return len(self.codes)

    def append(self, value: Any) -> int:
        """Encode and append one coerced value; returns its byte footprint."""
        encoded, nbytes = self.codec.encode_with_bytes(value)
        index = len(self.codes)
        self.codes.append(encoded)
        byte_index, bit = divmod(index, 8)
        if byte_index >= len(self._validity):
            self._validity.append(0)
        if value is NULL:
            self._null_count += 1
        else:
            self._validity[byte_index] |= 1 << bit
            self._distinct[encoded] = self._distinct.get(encoded, 0) + 1
        return nbytes

    def mark_deleted(self, index: int, value: Any) -> int:
        """Tombstone one slot; returns the encoded bytes it gave back.

        The code stays in the array (positions must not shift); only the
        accounting — validity bit, live NULL count, distinct refcount —
        moves.  Dictionary entries are catalog-global and never freed, so
        the byte credit is the slot width, not the amortised growth.
        """
        byte_index, bit = divmod(index, 8)
        if value is NULL:
            self._null_count -= 1
        else:
            self._validity[byte_index] &= ~(1 << bit)
            _release(self._distinct, self.codes[index])
        return self.codec.slot_bytes(value)

    def restore(self, index: int, value: Any) -> int:
        """Undo :meth:`mark_deleted` (delete rollback); returns slot bytes."""
        byte_index, bit = divmod(index, 8)
        if value is NULL:
            self._null_count += 1
        else:
            self._validity[byte_index] |= 1 << bit
            code = self.codes[index]
            self._distinct[code] = self._distinct.get(code, 0) + 1
        return self.codec.slot_bytes(value)

    @property
    def null_count(self) -> int:
        return self._null_count

    @property
    def ndv(self) -> int:
        """Exact number of distinct live non-NULL values (distinct codes)."""
        return len(self._distinct)

    @property
    def validity_bitmap(self) -> bytes:
        return bytes(self._validity)


class RelationEncodedStore:
    """Columnar encoded backing for one relation.

    Maintained by :class:`repro.relational.relation.Relation` at its
    mutation chokepoints (``insert``/``extend``, ``delete_positions``,
    ``restore_positions``), so the row list, the code arrays and the live
    value refcounts can never drift apart.  Byte totals cover *all*
    columns — raw columns at their native width, encoded columns at 4
    bytes per slot plus the amortised dictionary growth they caused.
    """

    __slots__ = (
        "schema",
        "codec",
        "columns",
        "_raw_counts",
        "_slots",
        "_row_count",
        "_total_bytes",
    )

    def __init__(self, schema: Any, codec: RelationCodec) -> None:
        self.schema = schema
        self.codec = codec
        self.rebuild(())

    def __len__(self) -> int:
        return self._row_count

    def delete_row(self, position: int, row: Sequence[Any]) -> int:
        """Tombstone one physical row slot; returns the bytes given back.

        The code arrays keep the dead slot (positions must not shift);
        NDV refcounts, NULL counts, validity bits and the byte total all
        fold the delete exactly.
        """
        freed = 0
        for (codec, column, counts), value in zip(self._slots, row):
            if column is not None:
                freed += column.mark_deleted(position, value)
            else:
                freed += codec.slot_bytes(value)
                _release(counts, value)
        self._total_bytes -= freed
        return freed

    def restore_row(self, position: int, row: Sequence[Any]) -> int:
        """Undo :meth:`delete_row` (delete rollback)."""
        added = 0
        for (codec, column, counts), value in zip(self._slots, row):
            if column is not None:
                added += column.restore(position, value)
            else:
                added += codec.slot_bytes(value)
                counts[value] = counts.get(value, 0) + 1
        self._total_bytes += added
        return added

    @property
    def total_bytes(self) -> int:
        return self._total_bytes

    def append_row(self, row: Sequence[Any]) -> int:
        """Account one coerced row; returns its encoded byte footprint."""
        row_bytes = 0
        for (codec, column, counts), value in zip(self._slots, row):
            if column is not None:
                row_bytes += column.append(value)
            else:
                row_bytes += codec.slot_bytes(value)
                counts[value] = counts.get(value, 0) + 1
        self._row_count += 1
        self._total_bytes += row_bytes
        return row_bytes

    def rebuild(self, rows: Sequence[Sequence[Any]]) -> None:
        """Re-encode from scratch (deletes rewrite the backing row list)."""
        self.columns: Dict[str, EncodedColumn] = {
            name: EncodedColumn(name, self.codec.by_name[name])
            for name in self.codec.encoded_columns
        }
        #: raw column -> live occurrences per distinct value, NULL included
        #: (under its own key, so NDV leaves it out and the NULL count reads it)
        self._raw_counts: Dict[str, Dict[Any, int]] = {
            column.name: {}
            for column in self.schema.columns
            if column.name not in self.columns
        }
        # per schema column: (codec, encoded column or None, raw refcounts or None)
        self._slots = tuple(
            (codec, self.columns.get(column.name), self._raw_counts.get(column.name))
            for column, codec in zip(self.schema.columns, self.codec.codecs)
        )
        self._row_count = 0
        self._total_bytes = 0
        for row in rows:
            self.append_row(row)

    def column(self, name: str) -> Optional[EncodedColumn]:
        return self.columns.get(name)

    def ndv(self, name: str) -> int:
        """Exact number of distinct live non-NULL values of any column."""
        column = self.columns.get(name)
        if column is not None:
            return column.ndv
        counts = self._raw_counts[name]
        return len(counts) - (NULL in counts)

    def null_count(self, name: str) -> int:
        """Exact number of live NULLs in any column."""
        column = self.columns.get(name)
        if column is not None:
            return column.null_count
        return self._raw_counts[name].get(NULL, 0)


__all__ = ["EncodedColumn", "RelationEncodedStore"]
