"""The ``tag`` kernel reads rows through readers bound at run start.

A tuple vertex holds only its index; its values live in the relation's
row list and in the int32 code arrays of its encoded store.  Both
``truncate`` (a write rolled back mid-apply), ``delete_where`` (an
out-of-band delete that compacts positions) and ``note_data_change``
(which re-encodes rows edited in place) swap in fresh code arrays, so
a compiled plan — which outlives them in the plan cache — must never hold
a reader.  Each case runs the query once to cache its plan, changes the
arrays under it, and runs it again: filtered and projected string and
date columns must answer like ``rdbms``.
"""

import datetime

import pytest

from repro.api import Database
from repro.durability.failpoints import FaultInjected, clear, install
from repro.relational import Catalog, Column, DataType, Relation, Schema

SQL = (
    "SELECT e.ID AS id, e.KIND AS kind, e.DAY AS day, k.LABEL AS label "
    "FROM EVENTS e, KINDS k "
    "WHERE e.KIND = k.KIND AND e.DAY >= DATE '2024-01-03' AND k.LABEL LIKE 'l%'"
)


def day(n):
    return datetime.date(2024, 1, n)


def make_database():
    catalog = Catalog("readers")
    events = Schema(
        "EVENTS",
        [
            Column("ID", DataType.INT, nullable=False),
            Column("KIND", DataType.STRING),
            Column("DAY", DataType.DATE),
        ],
        primary_key=["ID"],
    )
    kinds = Schema(
        "KINDS",
        [Column("KIND", DataType.STRING, nullable=False), Column("LABEL", DataType.STRING)],
        primary_key=["KIND"],
    )
    catalog.add(
        Relation(
            events,
            [[i, ("alpha", "beta", "gamma")[i % 3], day(i)] for i in range(1, 10)],
        )
    )
    catalog.add(
        Relation(kinds, [["alpha", "l-one"], ["beta", "l-two"], ["gamma", "skip"], ["zeta", "l-z"]])
    )
    return Database(catalog)


@pytest.fixture(autouse=True)
def disarm_after():
    yield
    clear()


def answers(db, engine):
    return sorted(db.connect(engine=engine).sql(SQL).to_tuples(["id", "kind", "day", "label"]))


def assert_tag_answers_like_rdbms(db):
    expected = answers(db, "rdbms")
    assert answers(db, "tag") == expected
    return expected


def test_after_a_rolled_back_write_truncates_the_code_arrays():
    db = make_database()
    assert_tag_answers_like_rdbms(db)  # caches the plan
    install("delta.apply.after_apply=raise@1")
    with pytest.raises(FaultInjected):
        db.load_rows("EVENTS", [[100, "zeta", day(20)]])
    clear()
    # the rolled-back row's slot now holds another row, in rebuilt arrays
    db.load_rows("EVENTS", [[101, "alpha", day(21)]])
    rows = assert_tag_answers_like_rdbms(db)
    assert (101, "alpha", day(21), "l-one") in rows
    assert not any(row[0] == 100 for row in rows)


def test_after_delete_where_compacts_positions():
    db = make_database()
    assert_tag_answers_like_rdbms(db)  # caches the plan
    db.catalog.relation("EVENTS").delete_where(lambda row: row[0] in (3, 4))
    db.note_data_change()
    rows = assert_tag_answers_like_rdbms(db)
    assert [row[0] for row in rows] == [6, 7, 9]


def test_after_in_place_edits_of_string_and_date_columns():
    """An edit through ``Relation.rows`` is out of band: the encoded store
    still holds the old codes until ``note_data_change`` re-encodes every
    relation.  Filters, projections and a prepared statement whose cached
    plan filters on the edited columns then read the new values."""
    db = make_database()
    prepared = db.connect(engine="tag").prepare(
        "SELECT e.ID AS id FROM EVENTS e WHERE e.KIND = :kind AND e.DAY <= :day"
    )
    by_kind = "SELECT e.ID AS id FROM EVENTS e WHERE e.KIND = 'beta'"
    params = {"kind": "beta", "day": day(5)}
    for engine in ("tag", "tag_dict"):
        assert sorted(db.connect(engine=engine).sql(by_kind).to_tuples()) == [(1,), (4,), (7,)]
    assert sorted(prepared.execute(params).to_tuples()) == [(1,), (4,)]
    assert_tag_answers_like_rdbms(db)

    events = db.catalog.relation("EVENTS")
    events.rows[2] = (3, "beta", day(1))  # was ("alpha", day(3))
    events.rows[3] = (4, "beta", day(20))  # was day(4)
    db.note_data_change()

    for engine in ("tag", "tag_dict", "rdbms"):
        got = sorted(db.connect(engine=engine).sql(by_kind).to_tuples())
        assert got == [(1,), (3,), (4,), (7,)], engine
    assert sorted(prepared.execute(params).to_tuples()) == [(1,), (3,)]
    rows = assert_tag_answers_like_rdbms(db)
    assert (4, "beta", day(20), "l-two") in rows  # projected from the new codes
