"""Checksummed, atomically-written catalog snapshots.

A snapshot is one JSON file holding everything a :class:`~repro.api.Database`
needs to reconstruct its durable state at a point in the WAL:

* every relation's rows, wire-encoded (:mod:`repro.core.wire`) so dates,
  NULLs and non-finite floats round-trip value-exactly;
* the catalog-global :class:`~repro.storage.dictionary.StringDictionary`
  values in code order — replaying them through ``intern`` reproduces the
  exact code assignment, which keeps persisted plan manifests and encoded
  column stores consistent with a recovered catalog;
* materialized-view definitions (name + SQL; view *contents* are a pure
  function of the data and are re-materialized after recovery);
* the applied-request-id table (idempotency window), so a client retry of
  a write acknowledged *before* the snapshot still dedups *after* it;
* ``wal_lsn``, the high-water mark the snapshot covers — recovery replays
  only WAL records past it, and compaction may drop records at or below.

The file layout is ``{"sha256": <hex>, "state": {...}}`` where the digest
covers the canonical (sorted-key, compact) JSON of ``state``.  Writes go
through a temp file + fsync + atomic rename + directory fsync, so a crash
at any point leaves either no new snapshot or a complete valid one —
never a half-written file the loader could mistake for truth.  The loader
tries snapshots newest-first and skips one that fails the checksum only
while the WAL still holds every record the skipped snapshot covered past
the older one, so the fallback plus a longer WAL replay rebuilds the same
state; otherwise, and for a snapshot of another format version, it
refuses rather than open with acknowledged writes missing.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from .failpoints import maybe_fire

#: bump when the state layout changes incompatibly
SNAPSHOT_FORMAT_VERSION = 1

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{12})\.json$")


class SnapshotError(RuntimeError):
    """A snapshot file is unreadable, corrupt, or from an unknown format."""


class SnapshotFormatError(SnapshotError):
    """A checksum-valid snapshot of another ``format_version``: intact data
    this code cannot read, never a corruption to skip."""


def snapshot_filename(wal_lsn: int) -> str:
    return f"snapshot-{wal_lsn:012d}.json"


def _canonical(state: Dict[str, Any]) -> bytes:
    return json.dumps(
        state, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def _fsync_dir(path: str) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_snapshot(directory: str, state: Dict[str, Any]) -> str:
    """Atomically persist ``state``; returns the snapshot path.

    ``state`` must carry ``wal_lsn`` (names the file) and should carry
    ``format_version`` (stamped if absent).
    """
    state = dict(state)
    state.setdefault("format_version", SNAPSHOT_FORMAT_VERSION)
    wal_lsn = int(state.get("wal_lsn", 0))
    maybe_fire("snapshot.before_write")
    body = _canonical(state)
    document = {"sha256": hashlib.sha256(body).hexdigest(), "state": state}
    path = os.path.join(directory, snapshot_filename(wal_lsn))
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, separators=(",", ":"), allow_nan=False)
        handle.flush()
        os.fsync(handle.fileno())
    maybe_fire("snapshot.after_tmp_write")
    os.replace(tmp_path, path)
    _fsync_dir(directory)
    maybe_fire("snapshot.after_rename")
    return path


def read_snapshot(path: str) -> Dict[str, Any]:
    """Load and checksum-verify one snapshot file; returns its state."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"unreadable snapshot {path!r}: {exc}") from exc
    if not isinstance(document, dict) or "state" not in document:
        raise SnapshotError(f"snapshot {path!r} missing state envelope")
    state = document["state"]
    if not isinstance(state, dict):
        raise SnapshotError(f"snapshot {path!r} state is not an object")
    digest = hashlib.sha256(_canonical(state)).hexdigest()
    if digest != document.get("sha256"):
        raise SnapshotError(f"snapshot {path!r} failed checksum verification")
    version = state.get("format_version")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotFormatError(
            f"snapshot {path!r} has format_version {version!r}, "
            f"expected {SNAPSHOT_FORMAT_VERSION}"
        )
    return state


def list_snapshots(directory: str) -> List[Tuple[int, str]]:
    """``(wal_lsn, path)`` for every snapshot file, newest (highest LSN) first."""
    found: List[Tuple[int, str]] = []
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    for name in names:
        match = _SNAPSHOT_RE.match(name)
        if match:
            found.append((int(match.group(1)), os.path.join(directory, name)))
    found.sort(reverse=True)
    return found


def load_latest_snapshot(
    directory: str, wal_lsns: Iterable[int]
) -> Optional[Tuple[Dict[str, Any], str]]:
    """The newest snapshot that passes verification, or ``None``.

    ``wal_lsns`` are the LSNs of the records the WAL still holds.  A
    corrupt or torn snapshot (a crash cannot produce one through the
    atomic-rename protocol, but disks can) is skipped only when those
    records cover everything it covered past the snapshot loaded instead
    (past LSN 0 when none is left): its LSN is in its file name, and a
    checkpoint may already have compacted that stretch of the WAL away.
    When they do not, :class:`SnapshotError` is raised.  A snapshot of
    another format version raises :class:`SnapshotFormatError` and is
    never skipped.
    """
    held = set(wal_lsns)
    skipped_lsn: Optional[int] = None
    for lsn, path in list_snapshots(directory):
        try:
            state = read_snapshot(path)
        except SnapshotFormatError:
            raise
        except SnapshotError:
            if skipped_lsn is None:
                skipped_lsn = lsn
            continue
        _check_replayable(held, lsn, skipped_lsn)
        return state, path
    _check_replayable(held, 0, skipped_lsn)
    return None


def _check_replayable(held: Set[int], from_lsn: int, skipped_lsn: Optional[int]) -> None:
    """Raise unless the WAL holds every record in ``(from_lsn, skipped_lsn]``."""
    if skipped_lsn is None:
        return
    missing = [lsn for lsn in range(from_lsn + 1, skipped_lsn + 1) if lsn not in held]
    if missing:
        raise SnapshotError(
            f"snapshot {snapshot_filename(skipped_lsn)} is unreadable and the WAL "
            f"no longer holds records {missing[0]}..{missing[-1]} it covered"
        )


def prune_snapshots(directory: str, keep: int = 2) -> List[str]:
    """Delete all but the ``keep`` newest snapshots; returns removed paths."""
    removed: List[str] = []
    for _, path in list_snapshots(directory)[max(keep, 1):]:
        try:
            os.remove(path)
            removed.append(path)
        except OSError:
            pass
    return removed


__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotError",
    "SnapshotFormatError",
    "list_snapshots",
    "load_latest_snapshot",
    "prune_snapshots",
    "read_snapshot",
    "snapshot_filename",
    "write_snapshot",
]
