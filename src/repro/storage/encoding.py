"""Column codecs: native-dtype encodings for strings, dates and NULLs.

The encode-once/decode-once contract of the storage layer:

* **strings / text** become ``int32`` codes into the catalog-global
  :class:`~repro.storage.dictionary.StringDictionary`
  (NULL -> :data:`~repro.storage.dictionary.NULL_CODE`);
* **dates** become days-since-1970-01-01 ``int32``
  (NULL -> :data:`DATE_NULL_SENTINEL`), matching the days-since-epoch
  convention :func:`repro.relational.types.coerce_date` already accepts;
* **ints / floats / bools** stay raw (they are native dtypes already).

Values are encoded once at ingest and decoded once at the public result
boundary; everything in between — filters, joins, group-bys, the TAG
graph's tuple payloads — operates on the integer codes.
"""

from __future__ import annotations

import datetime as _dt
import operator as _operator
from typing import Any, Dict, Optional, Sequence, Tuple

from ..relational.types import NULL, DataType, value_size_bytes
from .dictionary import MISSING_CODE, NULL_CODE, StringDictionary

#: In-band sentinel for NULL in epoch-day encoded date columns.  Any real
#: date is within a few hundred thousand days of the epoch, so INT32_MIN
#: never collides and orders before every valid day.
DATE_NULL_SENTINEL = -(2**31)

_EPOCH_ORDINAL = _dt.date(1970, 1, 1).toordinal()

#: Column encoding kinds.
RAW = "raw"
CODE = "code"  # dictionary-encoded strings
EPOCH_DAY = "epoch_day"  # sentinel-encoded dates

#: Fixed per-value footprint of an encoded slot (int32 code / epoch day).
CODE_BYTES = 4


def kind_of(dtype: DataType) -> str:
    """The encoding kind used for a relational domain."""
    if dtype in (DataType.STRING, DataType.TEXT):
        return CODE
    if dtype is DataType.DATE:
        return EPOCH_DAY
    return RAW


def date_to_epoch_day(value: _dt.date) -> int:
    return value.toordinal() - _EPOCH_ORDINAL


def epoch_day_to_date(days: int) -> _dt.date:
    return _dt.date.fromordinal(days + _EPOCH_ORDINAL)


def _as_int(value: Any) -> Optional[int]:
    """``value`` as a plain int when it is integral (incl. numpy ints)."""
    if isinstance(value, bool):
        return None
    try:
        return _operator.index(value)
    except TypeError:
        return None


class ColumnCodec:
    """Encode/decode one column's values per its :func:`kind_of` kind."""

    __slots__ = ("kind", "dtype", "dictionary")

    def __init__(self, dtype: DataType, dictionary: StringDictionary) -> None:
        self.dtype = dtype
        self.kind = kind_of(dtype)
        self.dictionary = dictionary

    @property
    def is_encoded(self) -> bool:
        return self.kind != RAW

    @property
    def null_sentinel(self) -> Optional[int]:
        if self.kind == CODE:
            return NULL_CODE
        if self.kind == EPOCH_DAY:
            return DATE_NULL_SENTINEL
        return None

    def encode(self, value: Any) -> Any:
        """Encoded representation of a coerced value (get-or-add)."""
        if self.kind == CODE:
            if value is NULL:
                return NULL_CODE
            return self.dictionary.code_for(value if isinstance(value, str) else str(value))
        if self.kind == EPOCH_DAY:
            if value is NULL:
                return DATE_NULL_SENTINEL
            return date_to_epoch_day(value)
        return value

    def encode_with_bytes(self, value: Any) -> Tuple[Any, int]:
        """Encode plus the value's encoded storage footprint in bytes.

        Encoded kinds cost a fixed 4-byte slot plus — on the *global* first
        occurrence of a string — the dictionary entry itself (amortised:
        later occurrences anywhere in the catalog cost the slot only).
        Raw kinds keep the legacy :func:`value_size_bytes` accounting.
        """
        if self.kind == CODE:
            if value is NULL:
                return NULL_CODE, CODE_BYTES
            code, added = self.dictionary.intern(
                value if isinstance(value, str) else str(value)
            )
            return code, CODE_BYTES + added
        if self.kind == EPOCH_DAY:
            if value is NULL:
                return DATE_NULL_SENTINEL, CODE_BYTES
            return date_to_epoch_day(value), CODE_BYTES
        return value, value_size_bytes(value, self.dtype)

    def slot_bytes(self, value: Any) -> int:
        """The storage a value's slot occupies, excluding amortised
        dictionary growth.  This is the byte credit a tombstone delete
        gives back: dictionary entries are catalog-global and never freed,
        so only the per-slot footprint returns."""
        if self.is_encoded:
            return CODE_BYTES
        return value_size_bytes(value, self.dtype)

    def encode_lookup(self, value: Any) -> Any:
        """Encode without growing the dictionary; unseen strings map to
        :data:`~repro.storage.dictionary.MISSING_CODE` (matches nothing)."""
        if self.kind == CODE:
            if value is NULL:
                return NULL_CODE
            return self.dictionary.code_of(value if isinstance(value, str) else str(value))
        if self.kind == EPOCH_DAY:
            if value is NULL:
                return DATE_NULL_SENTINEL
            return date_to_epoch_day(value)
        return value

    def decode(self, value: Any) -> Any:
        """Decoded value; tolerant of ``None`` (outer-join padding) and of
        already-decoded values so boundary decoding is idempotent."""
        if self.kind == RAW or value is NULL:
            return value
        code = _as_int(value)
        if code is None:
            return value
        if self.kind == CODE:
            if code < 0:
                return NULL
            return self.dictionary.value(code)
        if code == DATE_NULL_SENTINEL:
            return NULL
        return epoch_day_to_date(code)


class RelationCodec:
    """Per-schema bundle of column codecs."""

    __slots__ = ("schema", "codecs", "by_name", "encoded_columns")

    def __init__(self, schema: Any, dictionary: StringDictionary) -> None:
        self.schema = schema
        self.codecs = tuple(ColumnCodec(column.dtype, dictionary) for column in schema.columns)
        self.by_name: Dict[str, ColumnCodec] = {
            column.name: codec for column, codec in zip(schema.columns, self.codecs)
        }
        self.encoded_columns = tuple(
            column.name
            for column, codec in zip(schema.columns, self.codecs)
            if codec.is_encoded
        )

    @property
    def has_encoded(self) -> bool:
        return bool(self.encoded_columns)

    def codec_for(self, column: str) -> Optional[ColumnCodec]:
        return self.by_name.get(column)

    def decode_values(self, values: Dict[str, Any]) -> Dict[str, Any]:
        if not self.encoded_columns:
            return dict(values)
        decoded = dict(values)
        for name in self.encoded_columns:
            if name in decoded:
                decoded[name] = self.by_name[name].decode(decoded[name])
        return decoded

    def decode_row(self, row: Sequence[Any]) -> Tuple[Any, ...]:
        return tuple(codec.decode(value) for codec, value in zip(self.codecs, row))


class CatalogEncoding:
    """The catalog's encoding state: one global dictionary + schema codecs.

    Owned by :class:`~repro.relational.catalog.Catalog`; every relation
    added to the catalog binds an encoded column store against this object
    so codes agree across relations (shared TAG attribute vertices).
    """

    def __init__(self) -> None:
        self.dictionary = StringDictionary()
        # keyed by id(schema); the strong schema reference keeps the id valid
        self._codecs: Dict[int, Tuple[Any, RelationCodec]] = {}

    def codec_for(self, schema: Any) -> RelationCodec:
        entry = self._codecs.get(id(schema))
        if entry is not None and entry[0] is schema:
            return entry[1]
        codec = RelationCodec(schema, self.dictionary)
        self._codecs[id(schema)] = (schema, codec)
        return codec

    def stats(self) -> Dict[str, int]:
        return {
            "dictionary_entries": len(self.dictionary),
            "dictionary_bytes": self.dictionary.size_bytes,
        }


__all__ = [
    "CODE",
    "CODE_BYTES",
    "DATE_NULL_SENTINEL",
    "EPOCH_DAY",
    "MISSING_CODE",
    "NULL_CODE",
    "RAW",
    "CatalogEncoding",
    "ColumnCodec",
    "RelationCodec",
    "date_to_epoch_day",
    "epoch_day_to_date",
    "kind_of",
]
