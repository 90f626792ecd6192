"""Stdlib ``sqlite3`` as the reference answer for the SQL-semantics tests.

:func:`sqlite_ids` loads one table into an in-memory sqlite database,
typed from the repro :class:`~repro.relational.Schema`, and returns the
sorted first column of a query's answer.  Dates are stored as ISO text,
and the query's ``DATE '…'`` literals become the same text, so date
comparisons order as in the engines.  LIKE is case-sensitive, as here.
"""

import datetime
import sqlite3

from repro.relational import DataType

_SQLITE_TYPES = {
    DataType.INT: "INTEGER",
    DataType.FLOAT: "REAL",
    DataType.STRING: "TEXT",
    DataType.DATE: "TEXT",
    DataType.BOOL: "INTEGER",
}


def _stored(value):
    return value.isoformat() if isinstance(value, datetime.date) else value


def sqlite_ids(schema, rows, sql, parameters=()):
    """The sorted first column of ``sql`` over ``rows`` loaded as ``schema``."""
    connection = sqlite3.connect(":memory:")
    try:
        connection.execute("PRAGMA case_sensitive_like=ON")
        columns = ", ".join(
            f"{column.name} {_SQLITE_TYPES[column.dtype]}" for column in schema.columns
        )
        connection.execute(f"CREATE TABLE {schema.name} ({columns})")
        marks = ", ".join("?" for _ in schema.columns)
        connection.executemany(
            f"INSERT INTO {schema.name} VALUES ({marks})",
            [[_stored(value) for value in row] for row in rows],
        )
        answer = connection.execute(sql.replace("DATE '", "'"), parameters)
        return sorted(row[0] for row in answer)
    finally:
        connection.close()
