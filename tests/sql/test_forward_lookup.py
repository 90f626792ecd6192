"""Correlated subqueries answer as in SQL with and without the forward lookup.

A correlated inner block runs only over the inner tuples that the outer
alias's kept correlation values reach (``repro.core.subquery``).  That
must never change an answer: the restriction only drops keys no outer row
can probe.  The queries are self-correlated over one table, so stdlib
``sqlite3`` answers them from the same rows (``sqlite_reference``).  A
self-correlated lookup never pays by the cost rule (its outer scan alone
visits the whole inner relation), so the ``forced`` mode replaces
``lookup_pays`` to take every lookup that can be taken, and EXPLAIN
ANALYZE shows it was; ``chosen`` leaves the rule as it is.  The cases
cover every subquery kind, NULL correlation keys on both sides, an outer
filter with a parameter, a float correlation column (no attribute
vertices: the inner block runs in full) and a two-column correlation.
"""

import pytest
from sqlite_reference import sqlite_ids

from repro.api import Database
from repro.core import subquery
from repro.relational import Catalog, Column, DataType, Relation, Schema

ENGINES = ("tag", "tag_dict", "rdbms")


def schema():
    return Schema(
        "T",
        [
            Column("ID", DataType.INT, nullable=False),
            Column("K", DataType.INT),
            Column("K2", DataType.INT),
            Column("V", DataType.INT),
            Column("W", DataType.INT),
            Column("F", DataType.FLOAT),
        ],
        primary_key=["ID"],
    )


# K groups rows 1-4, 5-7, 8-9 and 10; rows 11-12 have a NULL key.  V and W
# carry NULLs inside groups, so IN / NOT IN and the aggregates meet them.
ROWS = [
    (1, 1, 1, 5, 5, 0.5),
    (2, 1, 1, 3, None, 0.5),
    (3, 1, 2, 7, 3, 1.5),
    (4, 1, 2, None, 7, 1.5),
    (5, 2, 1, 2, 2, 2.5),
    (6, 2, 1, 9, 4, 2.5),
    (7, 2, 2, 4, 9, None),
    (8, 3, 1, 6, 6, 3.5),
    (9, 3, 1, 1, None, 3.5),
    (10, 4, 2, 8, 8, 4.5),
    (11, None, 1, 5, 5, 0.5),
    (12, None, 2, 2, 1, None),
]

INNER = "SELECT {select} FROM T u WHERE u.K = t.K"

#: (name, WHERE clause of the outer block, parameters, the column the lookup
#: follows or None where it cannot be taken)
CASES = [
    ("exists", f"t.V > 3 AND EXISTS ({INNER.format(select='u.ID')} AND u.W < 4)", {}, "u.K"),
    (
        "not_exists",
        f"t.ID > 2 AND NOT EXISTS ({INNER.format(select='u.ID')} AND u.V > 8)",
        {},
        "u.K",
    ),
    ("in", f"t.ID < 11 AND t.V IN ({INNER.format(select='u.W')})", {}, "u.K"),
    ("not_in", f"t.W > 1 AND t.V NOT IN ({INNER.format(select='u.W')})", {}, "u.K"),
    (
        "scalar_greater",
        f"t.ID >= 3 AND t.V > ({INNER.format(select='AVG(u.V)')})",
        {},
        "u.K",
    ),
    (
        "scalar_at_most",
        f"t.W < 9 AND t.V <= ({INNER.format(select='MIN(u.W)')} AND u.ID <> 2)",
        {},
        "u.K",
    ),
    ("null_outer_keys", f"t.W > 1 AND EXISTS ({INNER.format(select='u.ID')})", {}, "u.K"),
    (
        "only_null_outer_keys",
        f"t.K IS NULL AND NOT EXISTS ({INNER.format(select='u.ID')})",
        {},
        "u.K",
    ),
    (
        "parameter",
        f"t.V > :low AND EXISTS ({INNER.format(select='u.ID')} AND u.V < :high)",
        {"low": 4, "high": 3},
        "u.K",
    ),
    (
        "float_key",
        "t.ID > 3 AND EXISTS (SELECT u.ID FROM T u WHERE u.F = t.F AND u.V > 4)",
        {},
        None,
    ),
    (
        "two_columns",
        "t.V > 2 AND EXISTS (SELECT u.ID FROM T u WHERE u.K = t.K AND u.K2 = t.K2 "
        "AND u.ID <> 3 AND u.W > 2)",
        {},
        "u.K",
    ),
    (
        "two_columns_scalar",
        "t.ID > 1 AND t.W >= (SELECT MAX(u.V) FROM T u WHERE u.K2 = t.K2 AND u.K = t.K)",
        {},
        "u.K2",
    ),
]
IDS = [name for name, *_ in CASES]


def sql_for(where):
    return f"SELECT t.ID FROM T t WHERE {where}"


@pytest.fixture(scope="module")
def database():
    catalog = Catalog("forward_lookup")
    catalog.add(Relation(schema(), ROWS))
    return Database(catalog)


@pytest.fixture(params=["forced", "chosen"])
def lookup_mode(request, monkeypatch):
    if request.param == "forced":
        monkeypatch.setattr(subquery, "lookup_pays", lambda *_: True)
    return request.param


@pytest.mark.parametrize("name, where, parameters, followed", CASES, ids=IDS)
@pytest.mark.parametrize("engine", ENGINES)
def test_matches_sqlite(database, lookup_mode, engine, name, where, parameters, followed):
    sql = sql_for(where)
    result = database.connect(engine=engine).sql(sql, parameters)
    answer = sorted(row[0] for row in result.to_tuples())
    assert answer == sqlite_ids(schema(), ROWS, sql, parameters)


@pytest.mark.parametrize("name, where, parameters, followed", CASES, ids=IDS)
def test_the_forced_lookup_restricts_the_inner_block(
    database, monkeypatch, name, where, parameters, followed
):
    monkeypatch.setattr(subquery, "lookup_pays", lambda *_: True)
    plan = database.connect(engine="tag").explain(sql_for(where), parameters, analyze=True)
    if followed is not None:
        assert f"    forward lookup on {followed}: " in plan
    else:
        assert "    u.F: inner block runs in full (T.F has no attribute vertices)" in plan


def test_a_self_correlated_lookup_does_not_pay(database):
    where = CASES[0][1]
    plan = database.connect(engine="tag").explain(sql_for(where), analyze=True)
    assert "    u.K: inner block runs in full (estimated to reach " in plan
