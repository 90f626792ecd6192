"""Exactly-once under live (no-crash) apply failures.

A write that fails *mid-apply* — after rows hit the relation but before
the graph/engines/views were patched — must roll back, so a retry of the
same logical write applies once instead of stacking a second copy on the
torn state.  And when the retry re-logs the write (the first attempt's
WAL record is still there), recovery must replay only one of the two
records.
"""

import pytest

from repro.api import Database
from repro.durability.failpoints import FaultInjected, clear, install
from tests.conftest import make_mini_catalog

ROW = [[9001, 10, 42.5, "HIGH"]]

COUNT_SQL = "SELECT COUNT(*) AS n FROM ORDERS o WHERE o.O_ORDERKEY = :k"


@pytest.fixture(autouse=True)
def disarm_after():
    yield
    clear()


def count_9001(db: Database) -> int:
    return db.connect().sql(COUNT_SQL, params={"k": 9001}).single_value()


class TestLiveRollback:
    @pytest.mark.parametrize(
        "failpoint", ["delta.apply.before_graph_patch", "delta.apply.after_apply"]
    )
    def test_durable_retry_after_mid_apply_fault_applies_once(self, tmp_path, failpoint):
        db = Database(make_mini_catalog(), data_dir=str(tmp_path / "d"))
        install(f"{failpoint}=raise@1")
        with pytest.raises(FaultInjected):
            db.apply_write("ORDERS", ROW, request_id="req-1")
        clear()
        # the failed write rolled back: it is not visible...
        assert count_9001(db) == 0
        # ...and the retry applies exactly once, not on top of a torn copy
        retry = db.apply_write("ORDERS", ROW, request_id="req-1")
        assert retry["appended"] == 1 or retry["deduplicated"]
        assert count_9001(db) == 1
        db.close()

    def test_memory_only_retry_after_mid_apply_fault_applies_once(self):
        db = Database(make_mini_catalog())
        install("delta.apply.before_graph_patch=raise@1")
        with pytest.raises(FaultInjected):
            db.apply_write("ORDERS", ROW, request_id="req-1")
        clear()
        assert count_9001(db) == 0
        assert db.apply_write("ORDERS", ROW, request_id="req-1")["appended"] == 1
        assert count_9001(db) == 1

    def test_rollback_keeps_engines_consistent(self, tmp_path):
        db = Database(make_mini_catalog(), data_dir=str(tmp_path / "d"))
        install("delta.apply.after_apply=raise@1")
        with pytest.raises(FaultInjected):
            db.apply_write("ORDERS", ROW, request_id="req-1")
        clear()
        db.apply_write("ORDERS", ROW, request_id="req-1")
        counts = {
            name: db.connect(engine=name).sql(COUNT_SQL, params={"k": 9001}).single_value()
            for name in ("tag", "tag_dict", "rdbms", "spark")
        }
        assert set(counts.values()) == {1}, counts
        db.close()


class TestReplayDedup:
    def test_recovery_replays_relogged_write_once(self, tmp_path):
        data_dir = str(tmp_path / "d")
        db = Database(make_mini_catalog(), data_dir=data_dir, wal_fsync=False)
        install("delta.apply.before_graph_patch=raise@1")
        with pytest.raises(FaultInjected):
            db.apply_write("ORDERS", ROW, request_id="req-1")
        clear()
        db.apply_write("ORDERS", ROW, request_id="req-1")
        live = count_9001(db)
        # the WAL now holds two records for req-1 (the rolled-back attempt
        # and the retry); recovery must apply only the first
        db._durability.wal.sync()

        recovered = Database(make_mini_catalog(), data_dir=data_dir)
        assert recovered.durability_stats()["replay_dedup_skips"] == 1
        assert count_9001(recovered) == live == 1
        # and the id is in the rebuilt dedup table
        again = recovered.apply_write("ORDERS", ROW, request_id="req-1")
        assert again["deduplicated"] is True
        db.close()
        recovered.close()

    def test_records_without_request_id_always_replay(self, tmp_path):
        data_dir = str(tmp_path / "d")
        db = Database(make_mini_catalog(), data_dir=data_dir, wal_fsync=False)
        db.apply_write("ORDERS", [[9001, 10, 1.0, "HIGH"]])
        db.apply_write("ORDERS", [[9002, 10, 2.0, "LOW"]])
        db._durability.wal.sync()
        recovered = Database(make_mini_catalog(), data_dir=data_dir)
        assert recovered.recovery_report["rows_replayed"] == 2
        assert recovered.durability_stats()["replay_dedup_skips"] == 0
        db.close()
        recovered.close()


class TestRelationTruncate:
    def test_truncate_drops_tail_and_encoded_store(self):
        catalog = make_mini_catalog()
        orders = catalog.relation("ORDERS")
        before = len(orders)
        orders.extend(orders.validate_rows(ROW), validated=True)
        assert orders.truncate(before) == 1
        assert len(orders) == before
        store = orders.encoded_store
        if store is not None:
            assert len(store) == before
        # a no-op when nothing was appended past count
        assert orders.truncate(before) == 0
