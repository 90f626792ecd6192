"""Regression: ``''``, NULL, and the in-band sentinels must never conflate.

Dictionary encoding stores the empty string as a real code (>= 0) and SQL
NULL as ``NULL_CODE`` (-1); epoch-day encoding stores NULL dates as
``DATE_NULL_SENTINEL`` (INT32_MIN).  These tests drive the same queries
through every execution path — the dict-row TAG reference, the TAG kernel
with its tables as tuples and as column batches, the rdbms baseline and
the spark-like baseline — and assert the three
representations stay distinct through encode -> execute -> decode:

* ``= ''`` matches only genuine empty strings, never NULL;
* ``IS NULL`` matches only NULL, never ``''``;
* string/date range predicates never leak the (very negative) sentinel in;
* projected values decode back to exactly ``''`` / ``None``.
"""

from __future__ import annotations

import datetime as dt

import pytest

from repro.api import Database
from repro.exec import program as kernel_program
from repro.relational import Catalog, Column, DataType, Relation, Schema

#: six rows never reach the kernel's columnar threshold, so ``tag`` runs
#: them as tuples; ``tag@columnar`` is the same engine with the threshold
#: pinned to 0
ENGINES = ("tag_dict", "tag", "tag@columnar", "rdbms", "spark")

ROWS = [
    [1, "", dt.date(2021, 1, 1)],
    [2, None, None],
    [3, "alpha", dt.date(2021, 6, 15)],
    [4, "", None],
    [5, "beta", dt.date(2020, 12, 31)],
    [6, " ", dt.date(2021, 1, 1)],
]


def build_database() -> Database:
    notes = Relation(
        Schema(
            "NOTES",
            [
                Column("ID", DataType.INT, nullable=False),
                Column("S", DataType.STRING),  # nullable, holds '' and NULL
                Column("D", DataType.DATE),  # nullable
            ],
            primary_key=["ID"],
        ),
        ROWS,
    )
    catalog = Catalog("distinctness")
    catalog.add(notes)
    return Database(catalog)


@pytest.fixture(scope="module")
def database() -> Database:
    return build_database()


@pytest.fixture
def engine(request, monkeypatch) -> str:
    """The registry engine behind one ``ENGINES`` entry, regime pinned."""
    name, _, regime = request.param.partition("@")
    if regime == "columnar":
        monkeypatch.setattr(kernel_program, "COLUMNAR_THRESHOLD", 0)
    return name


def ids(database: Database, engine: str, where: str) -> list:
    result = database.connect(engine=engine).sql(
        f"SELECT n.ID AS id FROM NOTES n WHERE {where}"
    )
    return sorted(row["id"] for row in result.rows)


CASES = [
    ("n.S = ''", [1, 4]),
    ("n.S != ''", [3, 5, 6]),  # NULL fails every comparison
    ("n.S IS NULL", [2]),
    ("n.S IS NOT NULL", [1, 3, 4, 5, 6]),
    ("n.S IN ('', 'beta')", [1, 4, 5]),
    ("n.S LIKE '%'", [1, 3, 4, 5, 6]),  # LIKE '%' matches '', not NULL
    # NULL_CODE (-1) orders below every real code; the guarded range
    # rewrite must still exclude it
    ("n.S < 'b'", [1, 3, 4, 6]),
    ("n.D IS NULL", [2, 4]),
    ("n.D = DATE '2021-01-01'", [1, 6]),
    # DATE_NULL_SENTINEL is INT32_MIN: any unguarded <= would leak it in
    ("n.D <= DATE '2021-06-15'", [1, 3, 5, 6]),
    ("n.D BETWEEN DATE '2020-01-01' AND DATE '2021-12-31'", [1, 3, 5, 6]),
]


@pytest.mark.parametrize("engine", ENGINES, indirect=True)
@pytest.mark.parametrize("where,expected", CASES, ids=[case[0] for case in CASES])
def test_predicates_keep_empty_and_null_distinct(database, engine, where, expected):
    assert ids(database, engine, where) == expected


@pytest.mark.parametrize("engine", ENGINES, indirect=True)
def test_projection_decodes_exactly_once(database, engine):
    result = database.connect(engine=engine).sql(
        "SELECT n.ID AS id, n.S AS s, n.D AS d FROM NOTES n"
    )
    by_id = {row["id"]: row for row in result.rows}
    assert len(by_id) == len(ROWS)
    assert by_id[1]["s"] == "" and isinstance(by_id[1]["s"], str)
    assert by_id[2]["s"] is None
    assert by_id[2]["d"] is None
    assert by_id[4]["s"] == ""
    assert by_id[4]["d"] is None
    assert by_id[6]["s"] == " "  # whitespace is not empty is not NULL
    assert by_id[3]["d"] == dt.date(2021, 6, 15)
    assert isinstance(by_id[3]["d"], dt.date)


@pytest.mark.parametrize("engine", ENGINES, indirect=True)
def test_aggregates_see_null_not_sentinel(database, engine):
    connection = build_database().connect(engine=engine)
    counts = connection.sql(
        "SELECT COUNT(*) AS total, COUNT(n.S) AS non_null FROM NOTES n"
    ).rows[0]
    assert counts["total"] == 6
    assert counts["non_null"] == 5  # '' counts, NULL does not


@pytest.mark.parametrize("engine", ENGINES, indirect=True)
def test_group_by_separates_empty_from_null(database, engine):
    """GROUP BY on a code column must key '' apart from NULL.

    (Whether a NULL *group* is emitted at all differs by engine family —
    the TAG engines follow the paper's loading policy and materialise no
    attribute vertex for NULL, so they omit the NULL-keyed group, while
    the rdbms/spark baselines emit it.  That pre-dates the encoding and
    is why the differential harness only groups by non-null columns.
    What encoding must never change: the non-NULL groups, and '' keying
    its own group rather than merging into NULL's.)
    """
    result = database.connect(engine=engine).sql(
        "SELECT n.S AS s, COUNT(*) AS n FROM NOTES n GROUP BY n.S"
    )
    groups = {row["s"]: row["n"] for row in result.rows}
    non_null = {key: count for key, count in groups.items() if key is not None}
    assert non_null == {"": 2, " ": 1, "alpha": 1, "beta": 1}
    if None in groups:  # baselines that do emit the NULL group
        assert groups[None] == 1
