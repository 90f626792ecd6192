"""Checkpoints as a manifest plus per-relation segments.

A checkpoint rewrites only the segments whose relation changed since the
last one; the new manifest names the unchanged segments the previous one
already did.  These tests pin what that buys and what it must not cost:
clean relations' files stay untouched, recovery from a manifest mixing
segment generations equals a clean load, a bad shared segment follows the
corrupt-snapshot rules, orphans from a crash between the segment and the
manifest writes are pruned, a version-1 single-file snapshot is refused,
the idempotency window keeps its LRU order, and an automatic checkpoint
that fails never fails the write that triggered it.
"""

import hashlib
import json
import os

import pytest

from repro.api import Database
from repro.durability.failpoints import FaultInjected, clear, install
from repro.durability.manager import DurabilityError
from repro.durability.snapshot import (
    SnapshotFormatError,
    list_snapshots,
    load_latest_snapshot,
    read_manifest,
    segment_filename,
    snapshot_filename,
)

from tests.conftest import make_mini_catalog

ROWS = [[9001, 10, 42.5, "HIGH"], [9002, 11, 13.0, "LOW"], [9003, 12, 77.25, "HIGH"]]


@pytest.fixture(autouse=True)
def _disarm():
    yield
    clear()


def manifest(data_dir: str, lsn: int) -> dict:
    return read_manifest(os.path.join(data_dir, snapshot_filename(lsn)))


def segment_path(data_dir: str, digest: str) -> str:
    return os.path.join(data_dir, segment_filename(digest))


def segment_names(data_dir: str) -> set:
    return {name for name in os.listdir(data_dir) if name.startswith("segment-")}


def named_segments(data_dir: str) -> set:
    names = set()
    for _, path in list_snapshots(data_dir):
        state = read_manifest(path)
        names.update(segment_filename(d) for d in state["relations"].values())
        names.add(segment_filename(state["dictionary"]))
    return names


def contents(database: Database) -> dict:
    return {
        relation.name: sorted(relation.rows, key=repr)
        for relation in database.catalog.relations()
    }


def checkpoint_without_compaction(database: Database) -> None:
    """A manifest renamed into place, then a failure before WAL compaction."""
    install("wal.compact.before_swap=raise")
    try:
        with pytest.raises(FaultInjected):
            database.checkpoint()
    finally:
        clear()


def corrupt(path: str) -> None:
    with open(path, "r+b") as handle:
        handle.seek(3)
        handle.write(b"#")


class TestDirtySegments:
    def test_checkpoint_rewrites_only_the_written_relation(self, tmp_path):
        data_dir = str(tmp_path / "d")
        db = Database(make_mini_catalog(), data_dir=data_dir)
        first = db.checkpoint()
        assert first["segments_dirty"] == 4  # the first after open writes all
        before = manifest(data_dir, first["wal_lsn"])
        stats = {
            name: os.stat(segment_path(data_dir, digest))
            for name, digest in before["relations"].items()
        }

        db.load_rows("ORDERS", ROWS)
        second = db.checkpoint()
        assert second["segments_dirty"] == 1
        after = manifest(data_dir, second["wal_lsn"])
        assert after["relations"]["ORDERS"] != before["relations"]["ORDERS"]
        assert os.path.exists(segment_path(data_dir, after["relations"]["ORDERS"]))
        for name in ("NATION", "CUSTOMER"):
            assert after["relations"][name] == before["relations"][name]
            now = os.stat(segment_path(data_dir, after["relations"][name]))
            assert (now.st_ino, now.st_mtime_ns) == (
                stats[name].st_ino,
                stats[name].st_mtime_ns,
            )
        assert after["dictionary"] == before["dictionary"]  # no new strings

        # nothing changed: a checkpoint writes only a manifest
        db.load_rows("ORDERS", [])
        assert db.checkpoint()["segments_dirty"] == 0

    def test_recovery_from_mixed_generations_equals_clean_load(self, tmp_path):
        data_dir = str(tmp_path / "d")
        db = Database(make_mini_catalog(), data_dir=data_dir)
        db.load_rows("CUSTOMER", [[15, 3, 9.5]])
        first = db.checkpoint()
        db.load_rows("ORDERS", ROWS)
        db.delete_rows("ORDERS", [[101, 10, 20.0, "LOW"]])
        second = db.checkpoint()
        older = manifest(data_dir, first["wal_lsn"])
        newest = manifest(data_dir, second["wal_lsn"])
        assert newest["relations"]["CUSTOMER"] == older["relations"]["CUSTOMER"]
        assert newest["relations"]["ORDERS"] != older["relations"]["ORDERS"]
        db.close()

        recovered = Database(make_mini_catalog(), data_dir=data_dir)
        assert recovered.recovery_report["snapshot_lsn"] == second["wal_lsn"]
        assert recovered.recovery_report["wal_records_replayed"] == 0

        clean = Database(make_mini_catalog())
        clean.load_rows("CUSTOMER", [[15, 3, 9.5]])
        clean.load_rows("ORDERS", ROWS)
        clean.delete_rows("ORDERS", [[101, 10, 20.0, "LOW"]])
        assert contents(recovered) == contents(clean)
        assert (
            recovered.catalog.encoding.dictionary.values_snapshot()
            == db.catalog.encoding.dictionary.values_snapshot()
        )


class TestSharedSegmentCorruption:
    """Two kept manifests (LSN 1 and 2) both name NATION's one segment."""

    def _store(self, tmp_path, compact: bool):
        data_dir = str(tmp_path / "d")
        db = Database(make_mini_catalog(), data_dir=data_dir)
        for row in ROWS[:2]:
            db.load_rows("ORDERS", [row])
            if compact:
                db.checkpoint()
            else:
                checkpoint_without_compaction(db)
        expected = contents(db)
        db._durability.wal.sync()
        assert [lsn for lsn, _ in list_snapshots(data_dir)] == [2, 1]
        shared = manifest(data_dir, 1)["relations"]["NATION"]
        assert manifest(data_dir, 2)["relations"]["NATION"] == shared
        corrupt(segment_path(data_dir, shared))
        return data_dir, expected

    def test_refused_once_the_wal_is_compacted(self, tmp_path):
        data_dir, _ = self._store(tmp_path, compact=True)
        before = {name: open(os.path.join(data_dir, name), "rb").read()
                  for name in os.listdir(data_dir)}
        with pytest.raises(DurabilityError):
            Database(make_mini_catalog(), data_dir=data_dir)
        after = {name: open(os.path.join(data_dir, name), "rb").read()
                 for name in os.listdir(data_dir)}
        assert after == before

    def test_falls_back_to_the_wal_while_it_covers_both(self, tmp_path):
        data_dir, expected = self._store(tmp_path, compact=False)
        recovered = Database(make_mini_catalog(), data_dir=data_dir)
        report = recovered.recovery_report
        assert report["snapshot"] is None
        assert report["rows_replayed"] == 2
        assert contents(recovered) == expected


class TestPruning:
    def test_orphan_segments_are_gone_after_the_next_checkpoint(self, tmp_path):
        data_dir = str(tmp_path / "d")
        db = Database(make_mini_catalog(), data_dir=data_dir)
        db.checkpoint()
        db.load_rows("ORDERS", ROWS[:1])
        # segments renamed into place, then a failure before the manifest
        install("snapshot.after_segments=raise")
        with pytest.raises(FaultInjected):
            db.checkpoint()
        clear()
        orphans = segment_names(data_dir) - named_segments(data_dir)
        assert len(orphans) == 1
        stray = segment_filename("0" * 64) + ".tmp"  # a crash mid segment write
        open(os.path.join(data_dir, stray), "wb").close()

        db.load_rows("ORDERS", ROWS[1:2])
        db.checkpoint()
        remaining = segment_names(data_dir)
        assert not remaining & orphans
        assert not os.path.exists(os.path.join(data_dir, stray))
        assert remaining == named_segments(data_dir)


class TestFormatVersion:
    def test_version_1_snapshot_is_refused(self, tmp_path):
        data_dir = str(tmp_path / "d")
        os.makedirs(data_dir)
        # the single-file layout of format version 1, digest and all
        state = {
            "format_version": 1,
            "catalog": "mini",
            "wal_lsn": 1,
            "relations": {"ORDERS": [[9001, 10, 42.5, "HIGH"]]},
            "dictionary": [],
            "views": [],
            "applied_request_ids": {},
        }
        canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
        document = {"sha256": hashlib.sha256(canonical.encode()).hexdigest(), "state": state}
        path = os.path.join(data_dir, snapshot_filename(1))
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))
        written = open(path, "rb").read()

        with pytest.raises(SnapshotFormatError):
            load_latest_snapshot(data_dir, wal_lsns=[1])
        with pytest.raises(DurabilityError):
            Database(make_mini_catalog(), data_dir=data_dir)
        assert open(path, "rb").read() == written


class TestIdempotencyWindow:
    def test_request_id_lru_order_survives_checkpoint_and_recovery(self, tmp_path):
        data_dir = str(tmp_path / "d")
        db = Database(make_mini_catalog(), data_dir=data_dir)
        for request_id, row in zip(("m", "a", "z"), ROWS):
            db.apply_write("ORDERS", [row], request_id=request_id)
        assert db.apply_write("ORDERS", ROWS[1:2], request_id="a")["deduplicated"]
        assert list(db._durability.applied_request_ids) == ["m", "z", "a"]
        db.checkpoint()
        db._durability.wal.sync()

        recovered = Database(make_mini_catalog(), data_dir=data_dir)
        assert recovered.recovery_report["wal_records_replayed"] == 0
        assert list(recovered._durability.applied_request_ids) == ["m", "z", "a"]


class TestAutomaticCheckpointFailure:
    def test_failed_automatic_checkpoint_keeps_the_write_acknowledged(self, tmp_path):
        data_dir = str(tmp_path / "d")
        db = Database(make_mini_catalog(), data_dir=data_dir, snapshot_every=2)
        install("snapshot.before_write=raisex0")  # every hit
        db.load_rows("ORDERS", ROWS[:1])
        receipt = db.apply_write("ORDERS", ROWS[1:2], request_id="r2")  # triggers it
        assert receipt["appended"] == 1 and not receipt["deduplicated"]
        stats = db.durability_stats()
        assert stats["snapshot_failures"] == 1
        assert stats["snapshots_written"] == 0
        assert stats["wal_lag_records"] == 2
        # a retry dedups: the write was applied exactly once
        assert db.apply_write("ORDERS", ROWS[1:2], request_id="r2")["deduplicated"]

        # explicit checkpoints still raise
        with pytest.raises(FaultInjected):
            db.checkpoint()
        with pytest.raises(FaultInjected):
            db.note_data_change()
        clear()

        db.load_rows("ORDERS", ROWS[2:])  # the next write takes the checkpoint
        stats = db.durability_stats()
        assert stats["snapshots_written"] == 1
        assert stats["wal_lag_records"] == 0
        expected = contents(db)
        db._durability.wal.sync()
        assert contents(Database(make_mini_catalog(), data_dir=data_dir)) == expected
