"""Relational substrate: types, schemas, relations, catalogs and CSV I/O."""

from .catalog import Catalog, CatalogError
from .csvio import (
    read_catalog_csv,
    read_relation_csv,
    write_catalog_csv,
    write_relation_csv,
)
from .relation import Relation, Row, rows_to_multiset
from .schema import Column, ForeignKey, Schema, SchemaError
from .types import NULL, DataType, coerce, coerce_date, infer_type, value_size_bytes

__all__ = [
    "Catalog",
    "CatalogError",
    "Column",
    "DataType",
    "ForeignKey",
    "NULL",
    "Relation",
    "Row",
    "Schema",
    "SchemaError",
    "coerce",
    "coerce_date",
    "infer_type",
    "read_catalog_csv",
    "read_relation_csv",
    "rows_to_multiset",
    "value_size_bytes",
    "write_catalog_csv",
    "write_relation_csv",
]
