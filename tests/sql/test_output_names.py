"""Output column names are unique: a repeated name is a bind error.

Result rows are keyed by column name, so ``SELECT a.V, b.V`` used to come
back with one ``V`` per row on every engine -- whichever value was written
last.  The binder now rejects it and asks for ``AS``; ``SELECT *``
qualifies its names (``a.K``, ``b.K``) and is unaffected.
"""

import pytest

from repro.api import Database
from repro.relational import Catalog, Column, DataType, Relation, Schema
from repro.sql import SqlBindError

ENGINES = ("tag", "tag_dict", "rdbms", "spark")


@pytest.fixture(scope="module")
def database():
    catalog = Catalog("output_names")
    for name, rows in (("A", [[1, 10], [2, 20]]), ("B", [[1, 100], [2, 200], [3, 300]])):
        schema = Schema(
            name,
            [Column("K", DataType.INT, nullable=False), Column("V", DataType.INT)],
            primary_key=["K"],
        )
        catalog.add(Relation(schema, rows))
    return Database(catalog)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "sql, name",
    [
        ("SELECT a.V, b.V FROM A a, B b WHERE a.K = b.K", "V"),
        ("SELECT a.V, b.K AS V FROM A a, B b WHERE a.K = b.K", "V"),
        ("SELECT a.K, COUNT(*) AS K FROM A a GROUP BY a.K", "K"),
        ("SELECT SUM(a.V) AS s, MAX(a.V) AS s FROM A a", "s"),
    ],
)
def test_duplicate_output_name_is_rejected(database, engine, sql, name):
    with pytest.raises(SqlBindError, match=rf"'{name}'.*AS"):
        database.connect(engine=engine).sql(sql)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "sql, columns, rows",
    [
        (
            "SELECT a.K, a.V AS av, b.V AS bv FROM A a, B b WHERE a.K = b.K",
            ["K", "av", "bv"],
            [(1, 10, 100), (2, 20, 200)],
        ),
        (
            "SELECT * FROM A a, B b WHERE a.K = b.K",
            ["a.K", "a.V", "b.K", "b.V"],
            [(1, 10, 1, 100), (2, 20, 2, 200)],
        ),
    ],
)
def test_distinct_names_keep_every_column(database, engine, sql, columns, rows):
    result = database.connect(engine=engine).sql(sql)
    assert result.columns == columns
    assert sorted(result.to_tuples()) == rows
