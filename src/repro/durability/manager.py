"""The durability manager: WAL + snapshots + idempotency for one Database.

One :class:`DurabilityManager` owns the on-disk state under a database's
``data_dir``::

    data_dir/
        wal.log                  append-only delta log (wal.py framing)
        snapshot-<lsn>.json      checkpoint manifests: WAL LSN, request ids,
                                 views, each segment's sha256 (snapshot.py)
        segment-<sha256>.json    one relation's live rows, or the string
                                 dictionary, named by the digest of its bytes
        plan_manifest.json       warm-start plan manifest (planner.persist)

and enforces the two orderings every crash-safety argument here rests on:

* **log before apply** — every write (one
  :class:`~repro.incremental.delta.Delta`, whether it came from
  ``load_rows``, ``delete_rows`` or ``update_rows``) is framed, written
  and fsync'd to the WAL as one record *before* any in-memory state
  changes.  An acknowledged write is therefore always in the WAL, so
  recovery replays it; an unacknowledged write either never reached the
  WAL (the client retries and it applies once) or reached it without the
  ack (recovery replays it, and the client's retry dedups against the
  applied-id table the replay rebuilt).  Exactly-once, both directions.
* **snapshot covers a prefix** — a snapshot records the ``wal_lsn`` up to
  which its contents are complete; recovery loads the newest valid
  snapshot and replays only records past that LSN, and compaction only
  drops records a durable snapshot covers.  A crash anywhere between
  "snapshot renamed" and "WAL compacted" is safe: replaying covered
  records is prevented by the LSN filter, not by the compaction.

A checkpoint costs O(dirty), not O(catalog): it serialises only the
segments whose relation changed since that segment was last written (or
the dictionary, once it has grown), and the new manifest names the
unchanged segments the previous one already did.

Recovery (:meth:`DurabilityManager.recover`) proceeds dictionary → rows →
WAL replay → one catalog version bump → view re-materialization, and the
result is asserted (in tests, at every chaos-matrix crash point) equal to
a clean from-scratch load of the same acknowledged rows.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

from ..core.wire import decode_row, iter_encoded_rows
from ..incremental.delta import Delta, resolve_delta
from .failpoints import maybe_fire
from .snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotError,
    load_latest_snapshot,
    prune_snapshots,
    write_manifest,
    write_segment,
)
from .wal import WriteAheadLog

WAL_FILENAME = "wal.log"
PLAN_MANIFEST_FILENAME = "plan_manifest.json"

#: retry-window size: how many distinct write request ids the server
#: remembers for dedup.  Retries older than the window re-apply; the
#: client contract (serve/client.py) retries within seconds, not days.
APPLIED_IDS_LIMIT = 8192


#: WAL record type of a write -> (key of its deleted rows, key of its
#: inserted rows); ``None`` where that half is empty by construction
DELTA_RECORD_KEYS: Dict[str, Tuple[Optional[str], Optional[str]]] = {
    "load": (None, "rows"),
    "delete": ("rows", None),
    "update": ("deleted", "inserted"),
}


def replay_delta(relation: Any, record: Dict[str, Any]) -> Delta:
    """The :class:`Delta` a logged ``load`` / ``delete`` / ``update`` record
    describes, resolved against ``relation``'s current live rows.

    Deleted rows match by value, first live match per row (bag
    semantics): positions don't survive snapshot compaction, but WAL
    order is total so the match is deterministic.
    """
    # a ``None`` key is absent from every record: that half reads empty
    deleted_key, inserted_key = DELTA_RECORD_KEYS[record["type"]]
    deleted = [decode_row(row) for row in record.get(deleted_key, [])]
    inserted = [decode_row(row) for row in record.get(inserted_key, [])]
    return resolve_delta(relation, deleted, inserted)


class DurabilityError(RuntimeError):
    """The durable state on disk cannot be reconciled with the catalog."""


class DurabilityManager:
    """Owns a database's WAL, snapshots and applied-request-id table.

    Thread-safety: every mutating call happens under the owning
    database's writer lock (the write path) or during single-threaded
    recovery, so the manager itself needs no locking.
    """

    def __init__(
        self,
        data_dir: str,
        fsync: bool = True,
        snapshot_every: int = 256,
        snapshots_kept: int = 2,
    ) -> None:
        self.data_dir = data_dir
        self.snapshot_every = max(int(snapshot_every), 1)
        self.snapshots_kept = max(int(snapshots_kept), 1)
        os.makedirs(data_dir, exist_ok=True)
        self.wal = WriteAheadLog(os.path.join(data_dir, WAL_FILENAME), fsync=fsync)
        #: LSN the newest durable snapshot covers (0 = no snapshot)
        self.snapshot_lsn = 0
        #: request_id -> rows appended, bounded LRU (the idempotency window)
        self.applied_request_ids: "OrderedDict[str, int]" = OrderedDict()
        self.records_since_snapshot = 0
        #: segment key (relation name, or ``None`` for the dictionary) ->
        #: (stamp when its segment was last written, that segment's digest);
        #: empty until the first checkpoint after open, which writes all
        self._segments: Dict[Optional[str], Tuple[Tuple[Any, ...], str]] = {}
        self.counters: Dict[str, int] = {
            "wal_appends": 0,
            "wal_records_replayed": 0,
            "snapshots_written": 0,
            "snapshot_failures": 0,
            "snapshots_loaded": 0,
            "dedup_hits": 0,
            "replay_dedup_skips": 0,
            "torn_tail_dropped": int(self.wal.torn_tail_dropped),
            "recovery_view_skips": 0,
        }
        self.last_recovery_report: Optional[Dict[str, Any]] = None

    @property
    def plan_manifest_path(self) -> str:
        return os.path.join(self.data_dir, PLAN_MANIFEST_FILENAME)

    # ------------------------------------------------------------------
    # idempotency table
    # ------------------------------------------------------------------
    def applied(self, request_id: Optional[str]) -> Optional[int]:
        """Rows appended by a previously applied write, or ``None``."""
        if request_id is None:
            return None
        count = self.applied_request_ids.get(request_id)
        if count is not None:
            self.applied_request_ids.move_to_end(request_id)
            self.counters["dedup_hits"] += 1
        return count

    def note_applied(self, request_id: Optional[str], appended: int) -> None:
        if request_id is None:
            return
        table = self.applied_request_ids
        table[request_id] = appended
        table.move_to_end(request_id)
        while len(table) > APPLIED_IDS_LIMIT:
            table.popitem(last=False)

    # ------------------------------------------------------------------
    # logging (call BEFORE applying, under the writer lock)
    # ------------------------------------------------------------------
    def log_delta(self, delta: Any, request_id: Optional[str] = None) -> int:
        """Durably log one write :class:`~repro.incremental.delta.Delta`;
        returns its LSN.

        One record per write, shaped by which halves are non-empty: an
        insert is a ``load`` record, a delete a ``delete`` record, an
        update one ``update`` record carrying both halves under one
        request id, so it replays atomically — both halves or (when
        deduplicated) neither.  Deleted rows are logged *by value*, not by
        position: snapshot compaction rewrites relations from live rows
        only, so physical positions do not survive a snapshot boundary
        while row values do.  Inserted rows must already be
        schema-validated (the delta's contract) so a logged record can
        never fail to replay.
        """
        deleted_key, inserted_key = DELTA_RECORD_KEYS[delta.kind]
        record: Dict[str, Any] = {"type": delta.kind, "relation": delta.relation}
        if deleted_key is not None:
            record[deleted_key] = iter_encoded_rows(delta.deleted_rows)
        if inserted_key is not None:
            record[inserted_key] = iter_encoded_rows(delta.inserted_rows)
        if request_id is not None:
            record["request_id"] = request_id
        lsn = self.wal.append(record)
        self.counters["wal_appends"] += 1
        self.records_since_snapshot += 1
        return lsn

    def log_materialize(self, name: str, sql: str) -> int:
        lsn = self.wal.append({"type": "view", "name": name, "sql": sql})
        self.counters["wal_appends"] += 1
        self.records_since_snapshot += 1
        return lsn

    def log_drop_view(self, name: str) -> int:
        lsn = self.wal.append({"type": "drop_view", "name": name})
        self.counters["wal_appends"] += 1
        self.records_since_snapshot += 1
        return lsn

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def _segment(
        self,
        key: Optional[str],
        stamp: Tuple[Any, ...],
        payload: Callable[[], Any],
        written: Dict[Optional[str], Tuple[Tuple[Any, ...], str]],
    ) -> str:
        """The digest of ``key``'s segment, written now unless ``stamp``
        equals the stamp it was last written at."""
        held = self._segments.get(key)
        if held is not None and held[0] == stamp:
            return held[1]
        digest = write_segment(self.data_dir, payload())
        written[key] = (stamp, digest)
        return digest

    def snapshot(self, database: Any, rewrite_all: bool = False) -> Dict[str, Any]:
        """Checkpoint now (caller holds the write lock), then compact the
        WAL prefix it covers and prune what no kept manifest names.

        Writes the segment of every relation whose stamp — the relation
        object, its mutation counter and its physical row count — moved
        since its segment was last written, the dictionary's once it has
        grown, then the manifest.  ``rewrite_all`` writes every segment:
        an out-of-band change may have edited rows without moving a stamp.
        """
        started = time.perf_counter()
        if rewrite_all:
            self._segments.clear()
        maybe_fire("snapshot.before_write")
        catalog = database.catalog
        written: Dict[Optional[str], Tuple[Tuple[Any, ...], str]] = {}
        relations = {
            relation.name: self._segment(
                relation.name,
                (relation, relation.mutation_count, relation.physical_count),
                lambda relation=relation: iter_encoded_rows(relation.rows),
                written,
            )
            for relation in catalog.relations()
        }
        dictionary = catalog.encoding.dictionary
        dictionary_digest = self._segment(
            None, (dictionary, len(dictionary)), dictionary.values_snapshot, written
        )
        maybe_fire("snapshot.after_segments")
        covered = self.wal.last_lsn
        path = write_manifest(
            self.data_dir,
            {
                "format_version": SNAPSHOT_FORMAT_VERSION,
                "catalog": catalog.name,
                "schema_fingerprint": catalog.schema_fingerprint(),
                "wal_lsn": covered,
                "relations": relations,
                "dictionary": dictionary_digest,
                "views": [
                    {"name": view.name, "sql": view.sql}
                    for view in database._views.values()
                ],
                "applied_request_ids": [
                    [request_id, count]
                    for request_id, count in self.applied_request_ids.items()
                ],
            },
        )
        self._segments.update(written)
        self.snapshot_lsn = covered
        kept = self.wal.compact(covered)
        prune_snapshots(self.data_dir, keep=self.snapshots_kept)
        self.records_since_snapshot = 0
        self.counters["snapshots_written"] += 1
        return {
            "path": path,
            "wal_lsn": covered,
            "wal_records_kept": kept,
            "segments_dirty": len(written),
            "seconds": time.perf_counter() - started,
        }

    def maybe_snapshot(self, database: Any) -> Optional[Dict[str, Any]]:
        """The automatic checkpoint every ``snapshot_every`` records.

        The write that triggers it is already logged and applied, so a
        failed checkpoint must not fail that write: it is counted in
        ``snapshot_failures`` and, with ``records_since_snapshot`` left
        as it was, retried by the next write.
        """
        if self.records_since_snapshot < self.snapshot_every:
            return None
        try:
            return self.snapshot(database)
        except Exception:
            self.counters["snapshot_failures"] += 1
            return None

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(self, database: Any) -> Dict[str, Any]:
        """Restore durable state into ``database`` (called from its init).

        Order matters: the dictionary is re-interned first so string
        codes come out deterministic across restarts, relation rows are
        *replaced* (never appended — a pre-populated catalog must not
        double-count), the WAL suffix replays raw row appends, the
        catalog version bumps exactly once, and views re-materialize
        last against the now-final data (view contents are a pure
        function of the data, so re-running their SQL is the recovery).
        """
        report: Dict[str, Any] = {
            "snapshot": None,
            "snapshot_lsn": 0,
            "wal_records_replayed": 0,
            "rows_replayed": 0,
            "views_restored": 0,
            "recovered": False,
        }
        catalog = database.catalog
        state = None
        try:
            loaded = load_latest_snapshot(
                self.data_dir, (int(record.get("lsn", 0)) for record in self.wal.records())
            )
        except SnapshotError as exc:
            # raised before anything is written: the files stay as found
            raise DurabilityError(f"refusing to recover {self.data_dir!r}: {exc}") from exc
        if loaded is not None:
            state, path = loaded
            fingerprint = state.get("schema_fingerprint")
            if fingerprint != catalog.schema_fingerprint():
                raise DurabilityError(
                    f"snapshot {path!r} was taken against a different schema "
                    f"(fingerprint {fingerprint!r}); refusing to recover into "
                    f"catalog {catalog.name!r}"
                )
            self.counters["snapshots_loaded"] += 1
            report["snapshot"] = path

        view_defs: "OrderedDict[str, str]" = OrderedDict()
        touched = False

        if state is not None:
            for value in state.get("dictionary", []):
                catalog.encoding.dictionary.intern(value)
            for name, encoded_rows in state.get("relations", {}).items():
                relation = catalog.relation(name)
                relation.delete_where(lambda row: True)
                relation.extend(decode_row(row) for row in encoded_rows)
            for entry in state.get("views", []):
                view_defs[entry["name"]] = entry["sql"]
            for request_id, count in state.get("applied_request_ids", []):
                self.note_applied(request_id, int(count))
            self.snapshot_lsn = int(state.get("wal_lsn", 0))
            report["snapshot_lsn"] = self.snapshot_lsn
            # the WAL may have been compacted empty after this snapshot;
            # the LSN sequence must continue past what the snapshot covers
            # or fresh appends would be filtered out of the next replay
            self.wal.last_lsn = max(self.wal.last_lsn, self.snapshot_lsn)
            touched = True

        maybe_fire("recovery.before_replay")
        for record in self.wal.records(after_lsn=self.snapshot_lsn):
            kind = record.get("type")
            if kind in DELTA_RECORD_KEYS:
                request_id = record.get("request_id")
                if request_id is not None and request_id in self.applied_request_ids:
                    # a retry re-logged a write whose first attempt was
                    # rolled back mid-apply (or whose ack was lost);
                    # replaying both records would double-apply it
                    self.counters["replay_dedup_skips"] += 1
                else:
                    relation = catalog.relation(record["relation"])
                    delta = replay_delta(relation, record)
                    if delta.deleted_positions:
                        relation.delete_positions(delta.deleted_positions)
                    if delta.inserted_rows:
                        relation.extend(delta.inserted_rows, validated=True)
                    self.note_applied(request_id, delta.rows_changed)
                    report["rows_replayed"] += delta.rows_changed
                    touched = True
            elif kind == "view":
                view_defs[record["name"]] = record["sql"]
            elif kind == "drop_view":
                view_defs.pop(record["name"], None)
            self.counters["wal_records_replayed"] += 1
            report["wal_records_replayed"] += 1
        self.records_since_snapshot = report["wal_records_replayed"]

        if touched:
            # one version bump: the TAG encoding and engines lazily
            # rebuild against the recovered data
            catalog.note_data_change()

        for name, sql in view_defs.items():
            try:
                database.materialize(sql, name=name, _durable_log=False)
                report["views_restored"] += 1
            except Exception:
                # views are derived state; a definition that no longer
                # compiles (schema drift) must not block data recovery
                self.counters["recovery_view_skips"] += 1

        report["recovered"] = touched or bool(view_defs)
        self.last_recovery_report = report
        return report

    # ------------------------------------------------------------------
    # observability / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        return {
            "data_dir": self.data_dir,
            "wal_lsn": self.wal.last_lsn,
            "wal_size_bytes": self.wal.size_bytes,
            "wal_fsync": self.wal.fsync,
            "snapshot_lsn": self.snapshot_lsn,
            "wal_lag_records": self.records_since_snapshot,
            "snapshot_every": self.snapshot_every,
            "applied_request_ids": len(self.applied_request_ids),
            **self.counters,
        }

    def close(self) -> None:
        self.wal.close()


__all__ = [
    "APPLIED_IDS_LIMIT",
    "DurabilityError",
    "DurabilityManager",
    "PLAN_MANIFEST_FILENAME",
    "WAL_FILENAME",
]
