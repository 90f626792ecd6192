"""Relation schemas, primary keys and foreign keys.

The snowflake / 3NF structure of the TPC benchmarks is what makes
PK-FK joins "the comfort zone" of RDBMSs (paper Section 1); schemas here
carry enough key metadata for the planner, the index builder and the
TAG encoder to recognise PK-FK joins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .types import DataType


class SchemaError(ValueError):
    """Raised for malformed schemas or unknown attribute references."""


@dataclass(frozen=True)
class Column:
    """A named, typed attribute of a relation.

    Attributes:
        name: attribute name, unique within its schema.
        dtype: value domain.
        nullable: whether SQL NULL is allowed (TPC-DS allows NULLs in every
            non-key column; TPC-H does not).
        materialise: whether the TAG encoder should create attribute
            vertices for this column.  Defaults to the domain's policy but
            can be overridden per column (e.g. comment strings).
    """

    name: str
    dtype: DataType
    nullable: bool = True
    materialise: Optional[bool] = None

    @property
    def materialise_as_vertex(self) -> bool:
        if self.materialise is not None:
            return self.materialise
        return self.dtype.is_materialisable

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Column({self.name}:{self.dtype.value})"


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key constraint ``columns -> referenced_table.referenced_columns``."""

    columns: Tuple[str, ...]
    referenced_table: str
    referenced_columns: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.referenced_columns):
            raise SchemaError(
                "foreign key column count mismatch: "
                f"{self.columns} vs {self.referenced_columns}"
            )


class Schema:
    """Ordered collection of :class:`Column` plus key constraints."""

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Sequence[str] = (),
        foreign_keys: Sequence[ForeignKey] = (),
    ) -> None:
        if not columns:
            raise SchemaError(f"relation {name!r} must have at least one column")
        self.name = name
        self.columns: Tuple[Column, ...] = tuple(columns)
        self._index: Dict[str, int] = {}
        for position, column in enumerate(self.columns):
            if column.name in self._index:
                raise SchemaError(
                    f"duplicate column {column.name!r} in relation {name!r}"
                )
            self._index[column.name] = position
        for key_column in primary_key:
            if key_column not in self._index:
                raise SchemaError(
                    f"primary key column {key_column!r} not in relation {name!r}"
                )
        self.primary_key: Tuple[str, ...] = tuple(primary_key)
        for fk in foreign_keys:
            for fk_column in fk.columns:
                if fk_column not in self._index:
                    raise SchemaError(
                        f"foreign key column {fk_column!r} not in relation {name!r}"
                    )
        self.foreign_keys: Tuple[ForeignKey, ...] = tuple(foreign_keys)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    @property
    def column_names(self) -> List[str]:
        return [column.name for column in self.columns]

    @property
    def arity(self) -> int:
        return len(self.columns)

    def __len__(self) -> int:
        return len(self.columns)

    def __contains__(self, column_name: str) -> bool:
        return column_name in self._index

    def __iter__(self):
        return iter(self.columns)

    def column(self, name: str) -> Column:
        try:
            return self.columns[self._index[name]]
        except KeyError:
            raise SchemaError(
                f"relation {self.name!r} has no column {name!r}"
            ) from None

    def position(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(
                f"relation {self.name!r} has no column {name!r}"
            ) from None

    def dtype(self, name: str) -> DataType:
        return self.column(name).dtype

    def is_primary_key(self, column_name: str) -> bool:
        """Whether ``column_name`` is the (single-attribute) primary key."""
        return self.primary_key == (column_name,)

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def project(self, column_names: Iterable[str], name: Optional[str] = None) -> "Schema":
        """Schema of the projection on ``column_names`` (order preserved as given)."""
        columns = [self.column(column_name) for column_name in column_names]
        return Schema(name or self.name, columns)

    def rename(self, name: str) -> "Schema":
        return Schema(name, self.columns, self.primary_key, self.foreign_keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(f"{c.name}:{c.dtype.value}" for c in self.columns)
        return f"Schema({self.name}: {cols})"
