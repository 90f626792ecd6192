"""NOT over NULL drops the row on every engine, as in SQL.

``NOT p`` is UNKNOWN when ``p`` is, and a WHERE clause keeps a row only
when its predicate is TRUE.  The binder rewrites every NOT to negation
normal form (``repro.algebra.expressions.negate``): De Morgan over
AND/OR, the complementary comparison, the negated IN/LIKE/IS NULL, and
``x < low OR x > high`` for NOT BETWEEN.  Every atom is False on NULL,
so the rewritten predicate keeps exactly SQL's rows.  Stdlib ``sqlite3``
is the reference.  The string column is dictionary-encoded and the date
column stored as day numbers, so the complemented comparisons also run
through the code-space rewrites.
"""

import datetime

import pytest
from sqlite_reference import sqlite_ids

from repro.api import Database
from repro.relational import Catalog, Column, DataType, Relation, Schema

ENGINES = ("tag", "tag_dict", "rdbms", "spark")


def schema():
    return Schema(
        "T",
        [
            Column("ID", DataType.INT, nullable=False),
            Column("X", DataType.INT),
            Column("S", DataType.STRING),
            Column("F", DataType.FLOAT),
            Column("B", DataType.BOOL),
            Column("D", DataType.DATE),
        ],
        primary_key=["ID"],
    )


ROWS = [
    (1, 5, "apple", 1.5, True, datetime.date(2020, 1, 1)),
    (2, 3, "mango", 2.5, False, datetime.date(2021, 6, 1)),
    (3, None, "zebra", None, None, None),
    (4, 7, None, 0.5, True, datetime.date(2019, 3, 3)),
    (5, None, None, None, None, None),
    (6, 5, "kiwi", 9.0, False, datetime.date(2022, 2, 2)),
]
LATER = [
    (7, None, "apple", None, None, datetime.date(2020, 1, 1)),
    (8, 4, None, 3.0, None, None),
    (9, None, None, None, None, None),
]

#: (WHERE clause, parameters)
CASES = [
    ("NOT (t.X = 5)", {}),
    ("NOT (t.X = 5 OR t.S = 'kiwi')", {}),
    ("NOT (t.X = 5 AND t.S = 'kiwi')", {}),
    ("NOT (t.X <> 5 OR t.F > 2)", {}),
    ("NOT (t.X IN (3, 7))", {}),
    ("NOT (t.S NOT IN ('apple', 'kiwi'))", {}),
    ("NOT (t.S LIKE 'm%')", {}),
    ("NOT (t.S NOT LIKE '%e%')", {}),
    ("t.X NOT BETWEEN 4 AND 6", {}),
    ("NOT (t.X NOT BETWEEN 4 AND 6)", {}),
    ("t.S NOT BETWEEN 'b' AND 'n'", {}),
    ("t.D NOT BETWEEN DATE '2020-01-01' AND DATE '2021-12-31'", {}),
    ("NOT t.B", {}),
    ("NOT (t.B = TRUE)", {}),
    ("NOT TRUE", {}),
    ("NOT FALSE", {}),
    ("NOT NULL", {}),
    ("NOT (NOT (t.X > 4))", {}),
    ("NOT (t.X IS NULL)", {}),
    ("NOT (t.S < 'm')", {}),
    ("NOT (t.S >= 'kiwi')", {}),
    ("NOT (t.D < DATE '2021-01-01')", {}),
    ("NOT (t.F <= 1.5)", {}),
    ("NOT (t.X = :p)", {"p": 5}),
    ("NOT (t.S > :s OR t.X < :p)", {"s": "l", "p": 4}),
]
IDS = [where for where, _ in CASES]


def sql_for(where):
    return f"SELECT t.ID AS id FROM T t WHERE {where}"


def ids(database, engine, sql, parameters):
    result = database.connect(engine=engine).sql(sql, parameters)
    return sorted(row[0] for row in result.to_tuples())


@pytest.fixture(scope="module")
def database():
    catalog = Catalog("not_nulls")
    catalog.add(Relation(schema(), ROWS))
    return Database(catalog)


@pytest.mark.parametrize("where, parameters", CASES, ids=IDS)
@pytest.mark.parametrize("engine", ENGINES)
def test_not_matches_sqlite(database, engine, where, parameters):
    sql = sql_for(where)
    assert ids(database, engine, sql, parameters) == sqlite_ids(schema(), ROWS, sql, parameters)


@pytest.mark.parametrize("where, parameters", CASES, ids=IDS)
def test_not_matches_sqlite_in_every_kernel_regime(database, kernel_regime, where, parameters):
    sql = sql_for(where)
    assert ids(database, "tag", sql, parameters) == sqlite_ids(schema(), ROWS, sql, parameters)


def test_not_in_a_delta_view_folds_null_rows():
    catalog = Catalog("not_view")
    catalog.add(Relation(schema(), ROWS))
    db = Database(catalog, engine="tag")
    plain = [(index, where) for index, (where, parameters) in enumerate(CASES) if not parameters]
    modes = {db.materialize(sql_for(where), name=f"v{index}")["mode"] for index, where in plain}
    assert modes == {"delta"}
    db.load_rows("T", LATER)
    db.delete_rows("T", [ROWS[0]])
    live = ROWS[1:] + LATER
    for index, where in plain:
        served = sorted(row["id"] for row in db.query_view(f"v{index}").rows)
        assert served == sqlite_ids(schema(), live, sql_for(where)), where


@pytest.mark.parametrize("engine", ENGINES)
def test_stored_nan_is_a_float_value(kernel_regime, engine):
    """A stored NaN is an IEEE value here, not NULL: it is unordered, so
    ``NOT (f < c)`` drops it exactly as ``f >= c`` does, and ``f <> c``
    keeps it.  sqlite stores NaN as NULL and would drop it from ``<>``
    as well; that one answer is a dialect difference, not a bug."""
    catalog = Catalog("nan")
    float_schema = Schema(
        "T", [Column("ID", DataType.INT, nullable=False), Column("F", DataType.FLOAT)]
    )
    catalog.add(Relation(float_schema, [(1, 0.5), (2, 2.0), (3, float("nan")), (4, None)]))
    database = Database(catalog)
    assert ids(database, engine, sql_for("NOT (t.F < 1.0)"), {}) == [2]
    assert ids(database, engine, sql_for("t.F >= 1.0"), {}) == [2]
    assert ids(database, engine, sql_for("t.F NOT BETWEEN 0 AND 1"), {}) == [2]
    assert ids(database, engine, sql_for("t.F <> 1.0"), {}) == [1, 2, 3]
