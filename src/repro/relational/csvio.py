r"""CSV import/export for relations and catalogs.

The TPC tools emit ``|``-separated flat files; the loaders here accept any
delimiter and coerce values through the schema, mirroring the "bulk data
load" step measured in Tables 1 and 2 of the paper.

NULL is written as ``\N`` and an empty string as an empty cell, so the two
stay distinct through a round trip.  On reading, ``\N`` is NULL and an
empty cell is ``''`` in a string column and NULL in any other.  A string
made of one or more backslashes and a final ``N`` (``\N`` itself, say) is
written with one more leading backslash, which reading takes off again.
"""

from __future__ import annotations

import csv
import os
from typing import Dict, Iterable, Optional

from .catalog import Catalog
from .relation import Relation
from .schema import Schema
from .types import NULL, DataType


def write_relation_csv(relation: Relation, path: str, delimiter: str = ",") -> None:
    """Write a relation to ``path`` with a header row."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(relation.schema.column_names)
        for row in relation:
            writer.writerow([_format(value) for value in row])


def read_relation_csv(
    schema: Schema, path: str, delimiter: str = ",", has_header: bool = True
) -> Relation:
    """Load a relation from ``path`` using ``schema`` for name/type coercion."""
    relation = Relation(schema)
    with open(path, newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        rows = iter(reader)
        if has_header:
            next(rows, None)
        strings = [column.dtype in (DataType.STRING, DataType.TEXT) for column in schema.columns]
        for raw in rows:
            if not raw:
                continue
            values = [_parse(cell, string) for cell, string in zip(raw, strings)]
            # cells past the schema's arity stay, so insert rejects the row
            relation.insert(values + raw[len(strings):])
    return relation


def write_catalog_csv(catalog: Catalog, directory: str, delimiter: str = ",") -> Dict[str, str]:
    """Dump every relation of ``catalog`` as ``<directory>/<name>.csv``."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for relation in catalog:
        path = os.path.join(directory, f"{relation.name}.csv")
        write_relation_csv(relation, path, delimiter)
        paths[relation.name] = path
    return paths


def read_catalog_csv(
    schemas: Iterable[Schema],
    directory: str,
    delimiter: str = ",",
    name: Optional[str] = None,
) -> Catalog:
    """Load a catalog whose relations live as ``<directory>/<name>.csv``."""
    catalog = Catalog(name or os.path.basename(directory.rstrip("/")) or "db")
    for schema in schemas:
        path = os.path.join(directory, f"{schema.name}.csv")
        catalog.add(read_relation_csv(schema, path, delimiter))
    return catalog


def _looks_like_null(text: str) -> bool:
    """Whether ``text`` is backslashes then ``N`` — the NULL cell or an escape of one."""
    return len(text) > 1 and text[-1] == "N" and not text[:-1].strip("\\")


def _format(value) -> str:
    if value is NULL:
        return "\\N"
    if isinstance(value, str):
        return "\\" + value if _looks_like_null(value) else value
    return value.isoformat() if hasattr(value, "isoformat") else str(value)


def _parse(cell: str, string: bool):
    if cell == "\\N" or (cell == "" and not string):
        return NULL
    return cell[1:] if _looks_like_null(cell) else cell
