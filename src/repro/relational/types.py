"""Value domains of the relational model.

The paper's TAG encoding labels every attribute vertex with the
*domain/type* of the value it represents (Section 3, step 2).  This module
defines those domains, value coercion into them, and the notion of
"materialisable" domains: the paper deliberately avoids materialising
attribute vertices for floats and long free-text values because they are
either tricky to compare with equality or never used as join keys
(Section 3, discussion after Example 3.1).
"""

from __future__ import annotations

import datetime as _dt
import enum
from typing import Any, Optional


class DataType(enum.Enum):
    """Domain of an attribute value.

    The members mirror the types used by the TPC benchmarks and are the
    labels attached to TAG attribute vertices.
    """

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    DATE = "date"
    BOOL = "bool"
    TEXT = "text"  # long free-form strings (comments); never a join key

    @property
    def is_materialisable(self) -> bool:
        """Whether attribute vertices should be created for this domain.

        Floats are excluded because equality on floats is unreliable as a
        join condition; TEXT is excluded because comments/descriptions are
        never join keys.  Both follow the paper's loading policy
        (Section 8.2).
        """
        return self not in (DataType.FLOAT, DataType.TEXT)


#: Sentinel used for SQL NULL.  ``None`` is used directly; this alias makes
#: intent explicit at call sites.
NULL = None


class TypeError_(TypeError):
    """Raised when a value cannot be coerced into a :class:`DataType`."""


def coerce(value: Any, dtype: DataType) -> Any:
    """Coerce ``value`` into the Python representation of ``dtype``.

    ``None`` (SQL NULL) passes through unchanged.  Dates accept ISO-format
    strings and ``datetime.date``/``datetime.datetime`` instances.

    Raises:
        TypeError_: if the value cannot be represented in the domain.
    """
    if value is NULL:
        return NULL
    try:
        if dtype is DataType.INT:
            if isinstance(value, bool):
                return int(value)
            return int(value)
        if dtype is DataType.FLOAT:
            return float(value)
        if dtype in (DataType.STRING, DataType.TEXT):
            return str(value)
        if dtype is DataType.BOOL:
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("true", "t", "1", "yes"):
                    return True
                if lowered in ("false", "f", "0", "no"):
                    return False
                raise TypeError_(f"cannot parse boolean from {value!r}")
            return bool(value)
        if dtype is DataType.DATE:
            return coerce_date(value)
    except TypeError_:
        raise
    except (ValueError, TypeError) as exc:
        raise TypeError_(f"cannot coerce {value!r} to {dtype.value}") from exc
    raise TypeError_(f"unknown data type {dtype!r}")


def coerce_date(value: Any) -> _dt.date:
    """Coerce ``value`` to a ``datetime.date``.

    Accepts ``date``, ``datetime`` (truncated) and ISO ``YYYY-MM-DD``
    strings.
    """
    if isinstance(value, _dt.datetime):
        return value.date()
    if isinstance(value, _dt.date):
        return value
    if isinstance(value, str):
        return _dt.date.fromisoformat(value.strip())
    if isinstance(value, int):
        # days-since-epoch convenience used by the synthetic generators
        return _dt.date(1970, 1, 1) + _dt.timedelta(days=value)
    raise TypeError_(f"cannot coerce {value!r} to date")


def infer_type(value: Any) -> DataType:
    """Infer the :class:`DataType` of a Python value.

    Used by the CSV loader and by ad-hoc relation construction in tests.
    """
    if isinstance(value, bool):
        return DataType.BOOL
    if isinstance(value, int):
        return DataType.INT
    if isinstance(value, float):
        return DataType.FLOAT
    if isinstance(value, (_dt.date, _dt.datetime)):
        return DataType.DATE
    if isinstance(value, str):
        return DataType.STRING
    raise TypeError_(f"cannot infer relational type of {value!r}")


def value_size_bytes(value: Any, dtype: Optional[DataType] = None) -> int:
    """Approximate storage footprint of a value in bytes.

    This is the accounting used to reproduce Figure 14 (loaded data sizes):
    fixed 8 bytes for numerics and dates, string length for character data,
    1 byte for booleans and 1 byte for NULLs (null bitmap entry).
    """
    if value is NULL:
        return 1
    if dtype is None:
        dtype = infer_type(value)
    if dtype in (DataType.INT, DataType.FLOAT, DataType.DATE):
        return 8
    if dtype is DataType.BOOL:
        return 1
    return len(str(value))


def comparable(left: Any, right: Any) -> bool:
    """Whether two non-null values belong to mutually comparable domains."""
    if left is NULL or right is NULL:
        return False
    numeric = (int, float)
    if isinstance(left, numeric) and isinstance(right, numeric):
        return True
    return type(left) is type(right)
