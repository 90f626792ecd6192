"""Outer joins are refused, never run as inner joins.

No engine here evaluates an outer join.  ``rdbms`` and ``spark``
used to drop the join type and answer ``A LEFT JOIN B`` as the inner join,
losing the NULL-padded row; every engine now raises ``ExecutionError``
the way ``tag`` always did.
"""

import pytest

from repro.api import Database
from repro.core.executor import ExecutionError
from repro.relational import Catalog, Column, DataType, Relation, Schema

ENGINES = ("tag", "tag_dict", "rdbms", "spark")


@pytest.fixture(scope="module")
def database():
    catalog = Catalog("outer_joins")
    for name, columns, rows in (
        ("A", ("ID", "X"), [[1, 1], [2, 2], [3, 3]]),
        ("B", ("BID", "K"), [[10, 1], [11, 2]]),
    ):
        schema = Schema(
            name,
            [Column(columns[0], DataType.INT, nullable=False), Column(columns[1], DataType.INT)],
            primary_key=[columns[0]],
        )
        catalog.add(Relation(schema, rows))
    return Database(catalog)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("kind", ["LEFT", "RIGHT", "FULL"])
def test_outer_join_is_refused(database, engine, kind):
    session = database.connect(engine=engine)
    with pytest.raises(ExecutionError, match="outer join"):
        session.sql(f"SELECT a.ID, b.BID FROM A a {kind} JOIN B b ON a.X = b.K")
    # the inner join over the same tables still answers
    inner = session.sql("SELECT a.ID, b.BID FROM A a JOIN B b ON a.X = b.K")
    assert sorted(inner.to_tuples()) == [(1, 10), (2, 11)]
