"""LIKE wildcards match a newline on every engine, as in SQL.

``%`` is any run of characters and ``_`` any one character, line breaks
included; stdlib ``sqlite3`` (case-sensitive, as here) is the reference.
The pattern translation is shared by the interpreted, slot-compiled,
column-batch and dictionary side-table paths, so one table of strings
with embedded newlines covers all of them — and a delta-mode view that
folds the rows in as they are written.
"""

import pytest
from sqlite_reference import sqlite_ids

from repro.api import Database
from repro.relational import Catalog, Column, DataType, Relation, Schema

ENGINES = ("tag", "tag_dict", "rdbms", "spark")

ROWS = [
    (1, "a\nb"),
    (2, "ab"),
    (3, "a\n"),
    (4, "\nb"),
    (5, "x"),
    (6, None),
    (7, "a_b"),
    (8, "A\nB"),
    (9, "a\n\nb"),
    (10, "\n"),
]
LATER = [(11, "a\nzb"), (12, "\na\nb\n")]

PATTERNS = ["a%", "a_b", "%b", "a%b", "_", "%", "a_", "_b", "%\n%"]


def schema():
    return Schema(
        "T",
        [Column("ID", DataType.INT, nullable=False), Column("S", DataType.STRING)],
        primary_key=["ID"],
    )


def sql_for(pattern, negated=False):
    literal = pattern.replace("'", "''")
    return f"SELECT t.ID AS id FROM T t WHERE t.S {'NOT ' if negated else ''}LIKE '{literal}'"


@pytest.fixture(scope="module")
def database():
    catalog = Catalog("like_newlines")
    catalog.add(Relation(schema(), ROWS))
    return Database(catalog)


@pytest.mark.parametrize("negated", [False, True])
@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("engine", ENGINES)
def test_like_matches_sqlite(database, engine, pattern, negated):
    sql = sql_for(pattern, negated)
    rows = database.connect(engine=engine).sql(sql).rows
    assert sorted(row["id"] for row in rows) == sqlite_ids(schema(), ROWS, sql)


def test_newline_matches_in_a_delta_view():
    catalog = Catalog("like_view")
    catalog.add(Relation(schema(), ROWS))
    db = Database(catalog, engine="tag")
    modes = {
        db.materialize(sql_for(pattern), name=f"v{i}")["mode"]
        for i, pattern in enumerate(PATTERNS)
    }
    assert modes == {"delta"}
    db.load_rows("T", LATER)
    db.delete_rows("T", [ROWS[0]])
    live = ROWS[1:] + LATER
    for i, pattern in enumerate(PATTERNS):
        served = sorted(row["id"] for row in db.query_view(f"v{i}").rows)
        assert served == sqlite_ids(schema(), live, sql_for(pattern)), pattern
