"""Durability and fault tolerance: WAL, snapshots, failpoints, recovery.

The subsystem behind ``Database(data_dir=...)``: an append-only
checksummed write-ahead log of ``load_rows`` deltas (:mod:`.wal`),
periodic atomic checkpoints — a manifest plus per-relation segments,
rewritten only where a relation changed (:mod:`.snapshot`) — the manager
that ties them to a database with exactly-once write semantics
(:mod:`.manager`), and the named-failpoint fault injector the chaos
suite drives (:mod:`.failpoints`).
"""

from .failpoints import (
    CRASH_EXIT_STATUS,
    FAILPOINTS,
    FAILPOINTS_ENV,
    FailpointError,
    FaultInjected,
    FaultInjector,
    clear,
    crashable_failpoints,
    injector,
    install,
    maybe_fire,
    seeded_crash_schedule,
)
from .manager import (
    APPLIED_IDS_LIMIT,
    DurabilityError,
    DurabilityManager,
    PLAN_MANIFEST_FILENAME,
    WAL_FILENAME,
)
from .snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotError,
    list_snapshots,
    load_latest_snapshot,
    prune_snapshots,
    read_manifest,
    read_segment,
    read_snapshot,
    segment_filename,
    snapshot_filename,
    write_manifest,
    write_segment,
)
from .wal import MAX_RECORD_BYTES, WalCorruption, WriteAheadLog

__all__ = [
    "APPLIED_IDS_LIMIT",
    "CRASH_EXIT_STATUS",
    "DurabilityError",
    "DurabilityManager",
    "FAILPOINTS",
    "FAILPOINTS_ENV",
    "FailpointError",
    "FaultInjected",
    "FaultInjector",
    "MAX_RECORD_BYTES",
    "PLAN_MANIFEST_FILENAME",
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotError",
    "WAL_FILENAME",
    "WalCorruption",
    "WriteAheadLog",
    "clear",
    "crashable_failpoints",
    "injector",
    "install",
    "list_snapshots",
    "load_latest_snapshot",
    "maybe_fire",
    "prune_snapshots",
    "read_manifest",
    "read_segment",
    "read_snapshot",
    "seeded_crash_schedule",
    "segment_filename",
    "snapshot_filename",
    "write_manifest",
    "write_segment",
]
