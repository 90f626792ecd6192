"""``x NOT IN (subquery)`` is three-valued on every engine.

SQL keeps a row only when its predicate is TRUE.  ``x NOT IN S`` is TRUE
when ``S`` is empty, whatever ``x`` is; otherwise a NULL probe or a NULL
member of ``S`` makes it UNKNOWN unless ``x`` is found (then it is FALSE),
so the row is dropped.  ``x IN S`` is TRUE only for a non-NULL member.
A NULL correlation key matches no inner row: its subquery is empty.
The subquery checks are compiled once (``core/subquery.py``) and shared
by all four engines.
"""

import pytest

from repro.api import Database
from repro.relational import Catalog, Column, DataType, Relation, Schema

ENGINES = ("tag", "tag_dict", "rdbms", "spark")


@pytest.fixture(scope="module")
def database():
    catalog = Catalog("not_in_nulls")
    outer = Schema(
        "A",
        [Column("ID", DataType.INT, nullable=False), Column("X", DataType.INT)],
        primary_key=["ID"],
    )
    inner = Schema(
        "B",
        [
            Column("BID", DataType.INT, nullable=False),
            Column("K", DataType.INT, nullable=False),
            Column("Y", DataType.INT),
        ],
        primary_key=["BID"],
    )
    # A: probes 1, 2, 3 and a NULL probe (ID 4)
    catalog.add(Relation(outer, [[1, 1], [2, 2], [3, 3], [4, None]]))
    # B: key 1 holds {1, NULL}, key 2 holds {1}, key 3 nothing, key 4 {NULL}
    catalog.add(Relation(inner, [[10, 1, 1], [11, 1, None], [12, 2, 1], [13, 4, None]]))
    return Database(catalog)


CASES = [
    # the subquery yields a NULL: no probe is TRUE
    ("SELECT a.ID FROM A a WHERE a.X NOT IN (SELECT b.Y FROM B b)", []),
    # no NULL member: the NULL probe is UNKNOWN, the others decide
    (
        "SELECT a.ID FROM A a WHERE a.X NOT IN (SELECT b.Y FROM B b WHERE b.Y IS NOT NULL)",
        [2, 3],
    ),
    # an empty subquery keeps every row, the NULL probe included
    (
        "SELECT a.ID FROM A a WHERE a.X NOT IN (SELECT b.Y FROM B b WHERE b.BID > 99)",
        [1, 2, 3, 4],
    ),
    # correlated: key 1's set holds a NULL, key 2's holds 1 (ID 2 probes 2),
    # key 3's is empty (kept), key 4's is non-empty and ID 4 probes NULL
    (
        "SELECT a.ID FROM A a WHERE a.X NOT IN (SELECT b.Y FROM B b WHERE b.K = a.ID)",
        [2, 3],
    ),
    # a NULL correlation key matches no inner row, so its subquery is empty
    (
        "SELECT a.ID FROM A a WHERE a.ID NOT IN (SELECT b.K FROM B b WHERE b.Y = a.X)",
        [2, 3, 4],
    ),
    # IN: only a non-NULL member is TRUE, and a NULL correlation key
    # (ID 4's X) must not pick up the inner rows whose Y is NULL
    ("SELECT a.ID FROM A a WHERE a.X IN (SELECT b.Y FROM B b)", [1]),
    ("SELECT a.ID FROM A a WHERE a.X IN (SELECT b.Y FROM B b WHERE b.K = a.ID)", [1]),
    ("SELECT a.ID FROM A a WHERE a.ID IN (SELECT b.K FROM B b WHERE b.Y = a.X)", [1]),
]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("sql, expected", CASES)
def test_not_in_is_three_valued(database, engine, sql, expected):
    result = database.connect(engine=engine).sql(sql)
    assert sorted(row[0] for row in result.to_tuples()) == expected
