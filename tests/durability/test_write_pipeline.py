"""The one write pipeline: an update is one delta end to end.

Insert, delete and update each become one ``Delta`` that is logged as one
WAL record, applied once and — on a failure mid-apply — rolled back
once.  These tests pin the consequences: a torn update leaves memory, a
retry and recovery in agreement; a recompute-mode view is rebuilt once
per update, not once per half, and an aggregate view folds the update
and rolls back with it; and the WAL still writes (and recovery still
reads) exactly the ``load`` / ``delete`` / ``update`` record shapes it
always has.
"""

import os

import pytest

from repro.api import Database
from repro.durability.failpoints import FaultInjected, clear, install
from repro.durability.manager import WAL_FILENAME
from repro.durability.wal import WriteAheadLog
from tests.conftest import make_mini_catalog

OLD = [100, 10, 50.0, "HIGH"]
NEW = [100, 10, 75.0, "HIGH"]

#: (victims, replacements) in both update forms: by value, and a
#: predicate plus a ``column -> value`` mapping
UPDATE_FORMS = {
    "by_value": ([OLD], [NEW]),
    "predicate_mapping": (lambda row: row[0] == 100, {"O_TOTAL": 75.0}),
}


@pytest.fixture(autouse=True)
def disarm_after():
    yield
    clear()


def orders(db: Database):
    return sorted(tuple(row) for row in db.catalog.relation("ORDERS"))


def order_totals(db: Database, engine: str = "tag"):
    result = db.connect(engine=engine).sql(
        "SELECT o.O_ORDERKEY AS k, o.O_TOTAL AS t FROM ORDERS o"
    )
    return sorted(result.to_tuples())


class TestTornUpdate:
    @pytest.mark.parametrize(
        "failpoint", ["delta.apply.before_graph_patch", "delta.apply.after_apply"]
    )
    @pytest.mark.parametrize("form", sorted(UPDATE_FORMS))
    def test_memory_retry_and_recovery_agree(self, tmp_path, failpoint, form):
        victims, replacements = UPDATE_FORMS[form]
        data_dir = str(tmp_path / "d")
        db = Database(make_mini_catalog(), data_dir=data_dir)
        before = orders(db)
        totals_before = order_totals(db)

        install(f"{failpoint}=raise@1")
        with pytest.raises(FaultInjected):
            db.apply_update("ORDERS", victims, replacements, request_id="up-1")
        clear()
        # both halves rolled back: row 100 is still there, at 50.0
        assert orders(db) == before
        assert order_totals(db) == totals_before
        assert order_totals(db, engine="rdbms") == totals_before

        # the retry applies exactly once
        retry = db.apply_update("ORDERS", victims, replacements, request_id="up-1")
        assert (retry["deleted"], retry["inserted"], retry["deduplicated"]) == (1, 1, False)
        after = orders(db)
        assert tuple(NEW) in after and tuple(OLD) not in after
        assert len(after) == len(before)
        again = db.apply_update("ORDERS", victims, replacements, request_id="up-1")
        assert again["deduplicated"] is True
        assert orders(db) == after

        # recovery replays the failed attempt's record once and skips the
        # retry's: it lands exactly where memory is
        db._durability.wal.sync()
        recovered = Database(make_mini_catalog(), data_dir=data_dir)
        assert orders(recovered) == after
        assert order_totals(recovered) == order_totals(db)
        assert recovered.apply_update(
            "ORDERS", victims, replacements, request_id="up-1"
        )["deduplicated"] is True
        db.close()
        recovered.close()


class TestOneRecomputePerUpdate:
    #: the subquery keeps the view in recompute mode
    VIEW_SQL = (
        "SELECT o.O_CUSTKEY AS c, COUNT(*) AS n, SUM(o.O_TOTAL) AS s "
        "FROM ORDERS o WHERE o.O_CUSTKEY IN "
        "(SELECT c.C_CUSTKEY FROM CUSTOMER c WHERE c.C_ACCTBAL > 60) "
        "GROUP BY o.O_CUSTKEY"
    )

    def test_update_recomputes_an_aggregate_view_once(self):
        db = Database(make_mini_catalog())
        db.materialize(self.VIEW_SQL, name="spend")
        assert db.views()[0]["mode"] == "recompute"
        recomputed = db.maintenance.views_recomputed
        assert db.update_rows("ORDERS", [OLD], [NEW]) == 1
        assert db.maintenance.views_recomputed == recomputed + 1
        cold = db.connect().sql(self.VIEW_SQL).to_tuples()
        assert sorted(db.query_view("spend").to_tuples()) == sorted(cold)


class TestAggregateViewWrites:
    """An aggregate view folds each write once, rolls back with it, and
    comes back bit-identical from disk (its float sums are exact)."""

    VIEW_SQL = (
        "SELECT o.O_PRIORITY AS p, COUNT(*) AS n, SUM(o.O_TOTAL) AS s, "
        "AVG(o.O_TOTAL) AS a, MIN(o.O_TOTAL) AS lo, MAX(o.O_TOTAL) AS hi "
        "FROM ORDERS o GROUP BY o.O_PRIORITY"
    )

    def served(self, db):
        return db.query_view("agg").to_tuples()

    def test_update_folds_once_without_recompute(self):
        db = Database(make_mini_catalog())
        db.materialize(self.VIEW_SQL, name="agg")
        assert db.views()[0]["mode"] == "aggregate"
        assert db.update_rows("ORDERS", [OLD], [NEW]) == 1
        assert db.maintenance.views_recomputed == 0
        assert db.views()[0]["refresh_count"] == 2  # the delete terms, then the insert terms
        assert self.served(db) == db.connect(engine="rdbms").sql(self.VIEW_SQL).to_tuples()

    @pytest.mark.parametrize(
        "write",
        [
            lambda db: db.apply_write("ORDERS", [[106, 11, 0.1, "HIGH"]]),
            lambda db: db.apply_delete("ORDERS", [OLD]),
            lambda db: db.apply_update("ORDERS", [OLD], [NEW]),
        ],
        ids=["insert", "delete", "update"],
    )
    def test_failure_after_apply_leaves_the_view_as_before(self, write):
        db = Database(make_mini_catalog())
        db.materialize(self.VIEW_SQL, name="agg")
        before = self.served(db)
        install("delta.apply.after_apply=raise@1")
        with pytest.raises(FaultInjected):
            write(db)
        clear()
        assert self.served(db) == before

    def test_reopened_database_serves_bit_identical_rows(self, tmp_path):
        data_dir = str(tmp_path / "d")
        db = Database(make_mini_catalog(), data_dir=data_dir)
        db.materialize(self.VIEW_SQL, name="agg")
        db.load_rows("ORDERS", [[106, 11, 0.1, "HIGH"], [107, 12, 0.2, "HIGH"]])
        db.checkpoint()
        db.load_rows("ORDERS", [[108, 13, 1e16, "LOW"], [109, 13, 0.3, "LOW"]])
        db.update_rows("ORDERS", [OLD], [NEW])
        db.delete_rows("ORDERS", [[108, 13, 1e16, "LOW"]])
        before = self.served(db)
        db.close()
        reopened = Database(make_mini_catalog(), data_dir=data_dir)
        assert reopened.recovery_report["views_restored"] == 1
        assert self.served(reopened) == before  # exact, floats included
        reopened.close()


class TestWalFormatPinned:
    """Today's record shapes, written literally, recover to golden rows."""

    RECORDS = [
        {"type": "load", "relation": "ORDERS", "rows": [[900, 11, 1.5, "LOW"]],
         "request_id": "w-load"},
        {"type": "load", "relation": "ORDERS", "rows": [[901, 12, 2.5, None]]},
        {"type": "delete", "relation": "ORDERS", "rows": [[101, 10, 20.0, "LOW"]],
         "request_id": "w-delete"},
        {"type": "delete", "relation": "ORDERS", "rows": [[103, 13, 10.0, "LOW"]]},
        {"type": "update", "relation": "ORDERS", "deleted": [[100, 10, 50.0, "HIGH"]],
         "inserted": [[100, 10, 75.0, "HIGH"]], "request_id": "w-update"},
        {"type": "update", "relation": "ORDERS", "deleted": [[102, 12, 30.0, "HIGH"]],
         "inserted": [[102, 12, 33.0, "MID"]]},
    ]

    GOLDEN = [
        (100, 10, 75.0, "HIGH"),
        (102, 12, 33.0, "MID"),
        (104, 14, 5.0, "HIGH"),
        (105, 99, 7.0, "LOW"),
        (900, 11, 1.5, "LOW"),
        (901, 12, 2.5, None),
    ]

    def test_literal_records_recover_to_golden_rows(self, tmp_path):
        data_dir = str(tmp_path / "d")
        os.makedirs(data_dir)
        wal = WriteAheadLog(os.path.join(data_dir, WAL_FILENAME))
        for record in self.RECORDS:
            wal.append(record)
        wal.close()

        db = Database(make_mini_catalog(), data_dir=data_dir)
        assert db.recovery_report["wal_records_replayed"] == len(self.RECORDS)
        assert orders(db) == self.GOLDEN
        assert db.connect().sql("SELECT COUNT(*) AS n FROM ORDERS o").single_value() == 6
        # the logged request ids are in the rebuilt dedup table
        assert db.apply_write("ORDERS", [[999, 10, 1.0, "X"]], request_id="w-load")[
            "deduplicated"
        ]
        assert db.apply_delete("ORDERS", [OLD], request_id="w-delete")["deduplicated"]
        assert db.apply_update("ORDERS", [OLD], [NEW], request_id="w-update")["deduplicated"]
        assert orders(db) == self.GOLDEN
        db.close()

    def test_fresh_writes_log_the_three_record_shapes(self, tmp_path):
        db = Database(make_mini_catalog(), data_dir=str(tmp_path / "d"))
        wal = db._durability.wal
        start = wal.last_lsn
        db.apply_write("ORDERS", [[900, 11, 1.5, "LOW"]], request_id="a")
        db.apply_delete("ORDERS", [[101, 10, 20.0, "LOW"]])
        receipt = db.apply_update("ORDERS", [OLD], [NEW], request_id="c")
        # an update is one record, one LSN
        assert wal.last_lsn == start + 3 == receipt["lsn"]
        logged = [
            {key: value for key, value in record.items() if key != "lsn"}
            for record in wal.records_scanned
            if record["lsn"] > start
        ]
        assert logged == [
            {"type": "load", "relation": "ORDERS", "rows": [[900, 11, 1.5, "LOW"]],
             "request_id": "a"},
            {"type": "delete", "relation": "ORDERS", "rows": [[101, 10, 20.0, "LOW"]]},
            {"type": "update", "relation": "ORDERS", "deleted": [OLD], "inserted": [NEW],
             "request_id": "c"},
        ]
        db.close()
