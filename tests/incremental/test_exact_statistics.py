"""Folded statistics are exact: after any write script they equal a recollect.

Every count the planners read — rows, bytes, NULLs and the NDV of every
column, raw (int/float) and encoded (string/date) alike — is folded in
O(rows written) on each ``load_rows`` / ``delete_rows`` / ``update_rows``.
Because the relation's column store refcounts live values, the fold is not
an estimate: the statistics object the database patched in place must
equal ``CatalogStatistics.collect`` field for field, whatever ran before.
"""

import datetime as dt
import random
from collections import Counter

import pytest

from repro.api import Database
from repro.durability.failpoints import FaultInjected, clear, install
from repro.tag import encode_catalog
from repro.tag.statistics import CatalogStatistics, RelationStatistics
from repro.workloads import generate_tpch
from tests.conftest import assert_graphs_equal, make_mini_catalog


@pytest.fixture(autouse=True)
def disarm_after():
    yield
    clear()


def assert_statistics_equal_recollect(db: Database) -> None:
    folded = db.statistics
    fresh = CatalogStatistics.collect(db.catalog)
    assert folded.catalog_version == fresh.catalog_version
    # RelationStatistics/ColumnStatistics are dataclasses: == is field for field
    for name, expected in fresh.relations.items():
        got = folded.relations[name]
        assert (got.rows, got.bytes) == (expected.rows, expected.bytes), name
        for column, column_expected in expected.columns.items():
            assert got.columns[column] == column_expected, (name, column)
    assert folded.relations == fresh.relations


def random_order(rng: random.Random, key: int, customers: int):
    """An ORDERS row with NULLs, repeated and fresh values in every column kind."""
    return [
        key,
        rng.choice([None, rng.randint(1, customers), 7]),
        rng.choice([None, "O", "F", f"S{rng.randrange(40)}"]),
        rng.choice([None, 100.0, round(rng.uniform(1.0, 9.0), 1)]),
        rng.choice([None, dt.date(1995, 1, 1) + dt.timedelta(days=rng.randrange(30))]),
        rng.choice([None, "1-URGENT", f"P{rng.randrange(6)}"]),
        rng.choice([None, 0, 1]),
    ]


def test_seeded_write_script_keeps_statistics_equal_to_recollect():
    rng = random.Random(20260925)
    db = Database(generate_tpch(scale=0.02, seed=3), engine="tag")
    db.engine("tag")
    db.engine("rdbms")
    customers = len(db.catalog.relation("CUSTOMER"))
    stats = db.statistics
    live = []  # rows this script inserted and has not deleted, as inserted
    next_key = 10_000_000
    folded_in_place = rollbacks = 0
    for step in range(300):
        kind = rng.choice(["insert", "insert", "batch", "update", "delete", "rollback"])
        if kind in ("update", "delete") and not live:
            kind = "insert"
        if kind == "insert":
            row = random_order(rng, next_key, customers)
            next_key += 1
            db.load_rows("ORDERS", [row])
            live.append(row)
        elif kind == "batch":
            rows = [random_order(rng, next_key + i, customers) for i in range(rng.randint(2, 6))]
            next_key += len(rows)
            # a duplicate inside the batch: bag semantics all the way down
            rows.append(list(rows[0]))
            db.load_rows("ORDERS", rows)
            live.extend(rows)
        elif kind == "update":
            old = live.pop(rng.randrange(len(live)))
            new = random_order(rng, old[0], customers)
            assert db.update_rows("ORDERS", [old], [new]) == 1
            live.append(new)
        elif kind == "delete":
            victims = [live.pop(rng.randrange(len(live))) for _ in range(min(len(live), 3))]
            assert db.delete_rows("ORDERS", victims) == len(victims)
        else:
            # a write that fails mid-apply rolls back; statistics recollect
            # once and folding resumes from there
            failing_delete = bool(live) and rng.random() < 0.5
            install("delta.apply.after_apply=raise@1")
            with pytest.raises(FaultInjected):
                if failing_delete:
                    db.delete_rows("ORDERS", [live[0]])
                else:
                    db.load_rows("ORDERS", [random_order(rng, next_key, customers)])
            clear()
            rollbacks += 1
            db.engine("tag")  # re-encode now, so the next write is a delta again
            db.engine("rdbms")
        folded_in_place += db.statistics is stats
        stats = db.statistics
        if step % 25 == 0:
            assert_statistics_equal_recollect(db)
    assert_statistics_equal_recollect(db)
    assert rollbacks > 10
    # every step that was not a rollback patched the one statistics object
    assert folded_in_place == 300 - rollbacks
    assert db.maintenance.full_rebuilds == rollbacks
    # the same script leaves the patched graph equal to a cold re-encode:
    # single-row deletes unhook hot attribute vertices by bisection
    assert_graphs_equal(db.tag_graph(), encode_catalog(db.catalog))
    assert Counter(map(tuple, live)) == Counter(
        row for row in db.catalog.relation("ORDERS") if row[0] >= 10_000_000
    )


def test_insert_fold_matches_recollect_on_bytes_too():
    """The insert fold used to add object-size bytes to an encoded total."""
    db = Database(make_mini_catalog(), engine="tag")
    stats = db.statistics
    db.load_rows("ORDERS", [[900, 10, 1.5, "A-BRAND-NEW-PRIORITY"], [901, None, None, None]])
    assert db.statistics is stats
    assert_statistics_equal_recollect(db)


def test_underflow_raises_instead_of_clamping():
    db = Database(make_mini_catalog(), engine="tag")
    orders = db.catalog.relation("ORDERS")
    stats = RelationStatistics.of(orders)
    too_many = [(1, 10, 1.0, "LOW")] * (len(orders) + 1)
    with pytest.raises(ValueError, match="row count"):
        stats.with_removals(orders, too_many)
    # no ORDERS row carries a NULL priority, so removing one cannot balance
    with pytest.raises(ValueError, match="null count"):
        stats.with_removals(orders, [(100, 10, 50.0, None)])


def test_fold_that_raises_rolls_the_delete_back(monkeypatch):
    db = Database(make_mini_catalog(), engine="tag")
    before = sorted(db.catalog.relation("ORDERS"))
    db.statistics  # collected, so the delete folds

    def broken(self, relation, removed_rows):
        raise ValueError("bookkeeping bug")

    monkeypatch.setattr(RelationStatistics, "with_removals", broken)
    with pytest.raises(ValueError, match="bookkeeping bug"):
        db.delete_rows("ORDERS", [[100, 10, 50.0, "HIGH"]])
    monkeypatch.undo()
    assert sorted(db.catalog.relation("ORDERS")) == before
    assert db.maintenance.full_rebuilds == 1
    assert_statistics_equal_recollect(db)
    assert db.delete_rows("ORDERS", [[100, 10, 50.0, "HIGH"]]) == 1
    assert_statistics_equal_recollect(db)
