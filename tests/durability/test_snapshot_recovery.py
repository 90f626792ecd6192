"""Snapshot integrity and end-to-end recovery equivalence.

The acceptance property: a recovered database answers queries identically
to a clean from-scratch load of the same acknowledged rows — snapshots,
WAL suffix replay, view re-materialization and plan warm start included.
"""

import json
import os

import pytest

from repro.api import Database
from repro.durability.manager import DurabilityError
from repro.durability.failpoints import FaultInjected, clear, install
from repro.durability.snapshot import (
    SnapshotError,
    SnapshotFormatError,
    list_snapshots,
    load_latest_snapshot,
    prune_snapshots,
    read_manifest,
    read_snapshot,
    snapshot_filename,
    write_manifest,
    write_segment,
)

from tests.conftest import make_mini_catalog

JOIN_SQL = (
    "SELECT n.N_NAME FROM NATION n, CUSTOMER c, ORDERS o "
    "WHERE n.N_NATIONKEY = c.C_NATIONKEY AND c.C_CUSTKEY = o.O_CUSTKEY"
)
COUNT_SQL = "SELECT COUNT(*) AS n FROM ORDERS o"
VIEW_SQL = "SELECT o.O_ORDERKEY AS k FROM ORDERS o WHERE o.O_TOTAL > :v"

NEW_ORDERS = [
    [9001, 10, 42.5, "HIGH"],
    [9002, 11, 13.0, "LOW"],
    [9003, 12, 77.25, "HIGH"],
]


def golden(database: Database) -> dict:
    session = database.connect()
    return {
        "join": sorted(r["N_NAME"] for r in session.sql(JOIN_SQL).rows),
        "count": session.sql(COUNT_SQL).single_value(),
    }


def write_state(directory: str, lsn: int, rows=(), **extra) -> str:
    """A one-relation snapshot at ``lsn``: its segments, then its manifest."""
    state = {
        "wal_lsn": lsn,
        "relations": {"T": write_segment(directory, list(rows))},
        "dictionary": write_segment(directory, ["a"]),
        **extra,
    }
    return write_manifest(directory, state)


class TestSnapshotFiles:
    def test_write_read_round_trip(self, tmp_path):
        path = write_state(str(tmp_path), 7, rows=[[1, "x"], [2, None]], payload=[1, 2, 3])
        assert os.path.basename(path) == snapshot_filename(7)
        state = read_snapshot(path)
        assert state["format_version"] == 2
        assert state["relations"] == {"T": [[1, "x"], [2, None]]}
        assert state["dictionary"] == ["a"]
        assert state["payload"] == [1, 2, 3]

    def test_corrupt_snapshot_rejected(self, tmp_path):
        path = write_state(str(tmp_path), 1)
        data = json.loads(open(path).read())
        data["state"]["wal_lsn"] = 99  # state no longer matches its sha256
        with open(path, "w") as handle:
            json.dump(data, handle, separators=(",", ":"))
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_loader_skips_corrupt_newest(self, tmp_path):
        write_state(str(tmp_path), 1, v="old")
        newest = write_state(str(tmp_path), 2, v="new")
        with open(newest, "w") as handle:
            handle.write("{ half a json")
        # the WAL still holds record 2, which only the corrupt snapshot covered
        state, path = load_latest_snapshot(str(tmp_path), wal_lsns=[2, 3])
        assert state["v"] == "old"
        assert os.path.basename(path) == snapshot_filename(1)
        # ... and once it is compacted away, skipping would lose record 2
        with pytest.raises(SnapshotError):
            load_latest_snapshot(str(tmp_path), wal_lsns=[3])

    def test_loader_refuses_another_format_version(self, tmp_path):
        write_state(str(tmp_path), 1)
        write_state(str(tmp_path), 2, format_version=99)
        with pytest.raises(SnapshotFormatError):
            load_latest_snapshot(str(tmp_path), wal_lsns=[2])

    def test_prune_keeps_newest(self, tmp_path):
        for lsn in (1, 2, 3, 4):
            write_state(str(tmp_path), lsn, rows=[[lsn]])
        prune_snapshots(str(tmp_path), keep=2)
        kept = [os.path.basename(p) for _, p in list_snapshots(str(tmp_path))]
        assert kept == [snapshot_filename(4), snapshot_filename(3)]
        # the segments only the pruned manifests named went with them
        segments = [name for name in os.listdir(tmp_path) if name.startswith("segment-")]
        assert len(segments) == 3  # T at LSN 3 and 4, and the shared dictionary


class TestRecoveryEquivalence:
    def test_wal_only_recovery_matches_clean_load(self, tmp_path):
        data_dir = str(tmp_path / "d")
        db = Database(make_mini_catalog(), data_dir=data_dir)
        db.load_rows("ORDERS", NEW_ORDERS)
        expected = golden(db)
        # abandon without close(): the WAL alone must carry the delta
        db._durability.wal.sync()

        recovered = Database(make_mini_catalog(), data_dir=data_dir)
        assert recovered.recovery_report["rows_replayed"] == len(NEW_ORDERS)
        assert golden(recovered) == expected

        clean = Database(make_mini_catalog())
        clean.load_rows("ORDERS", NEW_ORDERS)
        assert golden(recovered) == golden(clean)

    def test_snapshot_plus_wal_suffix(self, tmp_path):
        data_dir = str(tmp_path / "d")
        db = Database(make_mini_catalog(), data_dir=data_dir)
        db.load_rows("ORDERS", NEW_ORDERS[:2])
        db.checkpoint()  # snapshot covers the first two deltas
        db.load_rows("ORDERS", NEW_ORDERS[2:])  # WAL suffix past the snapshot
        expected = golden(db)

        recovered = Database(make_mini_catalog(), data_dir=data_dir)
        report = recovered.recovery_report
        assert report["snapshot"] is not None
        assert report["rows_replayed"] == 1
        assert golden(recovered) == expected

    def test_views_restored_and_live(self, tmp_path):
        data_dir = str(tmp_path / "d")
        db = Database(make_mini_catalog(), data_dir=data_dir)
        db.materialize(VIEW_SQL.replace(":v", "15.0"), name="big_orders")
        db.load_rows("ORDERS", NEW_ORDERS)
        before = sorted(r["k"] for r in db.query_view("big_orders").rows)
        db._durability.wal.sync()

        recovered = Database(make_mini_catalog(), data_dir=data_dir)
        assert recovered.recovery_report["views_restored"] == 1
        assert sorted(r["k"] for r in recovered.query_view("big_orders").rows) == before
        # the restored view still maintains incrementally
        recovered.load_rows("ORDERS", [[9100, 13, 500.0, "HIGH"]])
        after = sorted(r["k"] for r in recovered.query_view("big_orders").rows)
        assert len(after) == len(before) + 1

    def test_dropped_view_stays_dropped(self, tmp_path):
        data_dir = str(tmp_path / "d")
        db = Database(make_mini_catalog(), data_dir=data_dir)
        db.materialize(VIEW_SQL.replace(":v", "15.0"), name="doomed")
        db.drop_view("doomed")
        db._durability.wal.sync()
        recovered = Database(make_mini_catalog(), data_dir=data_dir)
        assert recovered.recovery_report["views_restored"] == 0

    def test_lsn_continues_past_snapshot_after_recovery(self, tmp_path):
        """Regression: after recovering from a snapshot whose WAL was
        compacted empty, fresh appends must get LSNs past the snapshot —
        otherwise the next recovery's LSN filter silently drops them."""
        data_dir = str(tmp_path / "d")
        db = Database(make_mini_catalog(), data_dir=data_dir)
        db.load_rows("ORDERS", NEW_ORDERS[:1])
        db.close()  # snapshots + compacts the WAL to empty

        second = Database(make_mini_catalog(), data_dir=data_dir)
        snapshot_lsn = second.recovery_report["snapshot_lsn"]
        receipt = second.apply_write("ORDERS", NEW_ORDERS[1:2])
        assert receipt["lsn"] > snapshot_lsn
        expected = golden(second)
        second._durability.wal.sync()

        third = Database(make_mini_catalog(), data_dir=data_dir)
        assert golden(third) == expected

    def test_schema_mismatch_refused(self, tmp_path):
        from repro.relational import Catalog, Column, DataType, Relation, Schema

        data_dir = str(tmp_path / "d")
        db = Database(make_mini_catalog(), data_dir=data_dir)
        db.load_rows("ORDERS", NEW_ORDERS[:1])
        db.close()

        other = Catalog("mini")
        other.add(
            Relation(
                Schema("ORDERS", [Column("O_ORDERKEY", DataType.INT, nullable=False)]),
                [],
            )
        )
        with pytest.raises(DurabilityError):
            Database(other, data_dir=data_dir)

    def test_plan_manifest_warm_start_survives_recovery(self, tmp_path):
        data_dir = str(tmp_path / "d")
        db = Database(make_mini_catalog(), data_dir=data_dir)
        db.load_rows("ORDERS", NEW_ORDERS)
        db.connect().sql(JOIN_SQL)  # compile + record in the manifest
        db.close()

        recovered = Database(make_mini_catalog(), data_dir=data_dir)
        report = recovered.warm_start_report
        assert report is not None and report.get("warmed", 0) >= 1

    def test_crash_during_recovery_recovers_again(self, tmp_path):
        data_dir = str(tmp_path / "d")
        db = Database(make_mini_catalog(), data_dir=data_dir)
        db.load_rows("ORDERS", NEW_ORDERS)
        expected = golden(db)
        db._durability.wal.sync()

        install("recovery.before_replay=raise")
        try:
            with pytest.raises(FaultInjected):
                Database(make_mini_catalog(), data_dir=data_dir)
        finally:
            clear()
        # recovery is read-only until replay completes: a second attempt
        # starts from the same durable state and succeeds
        recovered = Database(make_mini_catalog(), data_dir=data_dir)
        assert golden(recovered) == expected


def _orders_keys(database: Database) -> list:
    return sorted(
        row["k"] for row in database.connect().sql("SELECT o.O_ORDERKEY AS k FROM ORDERS o").rows
    )


def _files(directory: str) -> dict:
    contents = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            contents[name] = handle.read()
    return contents


class TestRecoveryRefusesWhatItCannotRebuild:
    """Rows 9001 and 9002 are written with a checkpoint between them and a
    clean close after: snapshots at LSN 1 and 2, and a WAL compacted empty.
    Only the newest snapshot holds row 9002, so recovery must not fall back
    past it."""

    def _closed_store(self, tmp_path) -> str:
        data_dir = str(tmp_path / "d")
        db = Database(make_mini_catalog(), data_dir=data_dir)
        db.load_rows("ORDERS", NEW_ORDERS[:1])
        db.checkpoint()
        db.load_rows("ORDERS", NEW_ORDERS[1:2])
        db.close()
        assert [lsn for lsn, _ in list_snapshots(data_dir)] == [2, 1]
        return data_dir

    def _assert_refused(self, data_dir: str) -> None:
        before = _files(data_dir)
        with pytest.raises(DurabilityError):
            Database(make_mini_catalog(), data_dir=data_dir)
        assert _files(data_dir) == before

    def test_other_format_version_is_refused(self, tmp_path):
        data_dir = self._closed_store(tmp_path)
        path = os.path.join(data_dir, snapshot_filename(2))
        state = read_manifest(path)
        state["format_version"] += 1
        os.remove(path)
        write_manifest(data_dir, state)  # checksum-valid, another version
        self._assert_refused(data_dir)

    def test_corrupt_newest_is_refused_once_the_wal_is_compacted(self, tmp_path):
        data_dir = self._closed_store(tmp_path)
        with open(os.path.join(data_dir, snapshot_filename(2)), "r+b") as handle:
            handle.seek(40)
            handle.write(b"#")
        self._assert_refused(data_dir)

    def test_corrupt_newest_falls_back_while_the_wal_covers_it(self, tmp_path):
        data_dir = str(tmp_path / "d")
        db = Database(make_mini_catalog(), data_dir=data_dir)
        db.load_rows("ORDERS", NEW_ORDERS[:1])
        db.checkpoint()
        db.load_rows("ORDERS", NEW_ORDERS[1:2])
        expected = _orders_keys(db)
        # a snapshot renamed into place, then a crash before compaction
        install("wal.compact.before_swap=raise")
        try:
            with pytest.raises(FaultInjected):
                db.checkpoint()
        finally:
            clear()
        newest = os.path.join(data_dir, snapshot_filename(2))
        db._durability.wal.sync()
        with open(newest, "r+b") as handle:
            handle.seek(40)
            handle.write(b"#")

        recovered = Database(make_mini_catalog(), data_dir=data_dir)
        assert recovered.recovery_report["snapshot_lsn"] == 1
        assert recovered.recovery_report["rows_replayed"] == 1
        assert _orders_keys(recovered) == expected
