"""Checksummed, atomically-written catalog snapshots: a manifest plus segments.

A snapshot is everything a :class:`~repro.api.Database` needs to
reconstruct its durable state at a point in the WAL, split into files so
that a checkpoint rewrites only what changed:

* one **segment** per relation — its live rows, wire-encoded
  (:mod:`repro.core.wire`) so dates, NULLs and non-finite floats
  round-trip value-exactly;
* one more segment for the catalog-global
  :class:`~repro.storage.dictionary.StringDictionary` values in code order
  — replaying them through ``intern`` reproduces the exact code
  assignment, which keeps persisted plan manifests and encoded column
  stores consistent with a recovered catalog;
* the **manifest** ``snapshot-<lsn>.json``: ``format_version``,
  ``wal_lsn`` (the high-water mark the snapshot covers — recovery replays
  only WAL records past it, and compaction may drop records at or below),
  the schema fingerprint, the sha256 of each relation's segment and of the
  dictionary's, the materialized-view definitions (name + SQL; view
  *contents* are a pure function of the data and are re-materialized
  after recovery) and the applied-request-id table as ordered
  ``[id, count]`` pairs, oldest first, so the idempotency window keeps
  its LRU order across a restart.

A segment is serialised once with :func:`json.dumps` and named after the
sha256 of exactly those bytes (``segment-<sha256>.json``), so a file name
always denotes one content: rewriting a segment never changes a file an
older manifest names, and two manifests share the segments of the
relations that did not change between them.  The manifest is the
envelope ``{"sha256": <hex>, "state": <body>}`` whose digest covers the
body's bytes as written; the loader hashes those bytes, never a
re-serialisation.

Every file goes through temp file + fsync + atomic rename.  Segments are
written first, the manifest last, then one directory fsync: the manifest
rename is the commit point, so a crash at any point leaves either the
previous snapshot (plus orphan segments the next checkpoint prunes) or a
complete new one.  The loader tries manifests newest-first and skips one
that fails verification — its own digest or any segment's — only while
the WAL still holds every record the skipped snapshot covered past the
older one, so the fallback plus a longer WAL replay rebuilds the same
state; otherwise, and for a manifest of another format version, it
refuses rather than open with acknowledged writes missing.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from .failpoints import maybe_fire

#: bump when the manifest or segment layout changes incompatibly
SNAPSHOT_FORMAT_VERSION = 2

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{12})\.json$")
_SEGMENT_RE = re.compile(r"^segment-([0-9a-f]{64})\.json$")
_TMP_RE = re.compile(r"^(snapshot|segment)-.*\.tmp$")

# the manifest envelope, byte for byte: the digest sits at a fixed offset
# and the body runs from _BODY_START to the closing brace
_ENVELOPE_HEAD = b'{"sha256":"'
_ENVELOPE_MID = b'","state":'
_BODY_START = len(_ENVELOPE_HEAD) + 64 + len(_ENVELOPE_MID)


class SnapshotError(RuntimeError):
    """A snapshot file is unreadable, corrupt, or from an unknown format."""


class SnapshotFormatError(SnapshotError):
    """A snapshot of another ``format_version``: intact data this code
    cannot read, never a corruption to skip."""


def snapshot_filename(wal_lsn: int) -> str:
    return f"snapshot-{wal_lsn:012d}.json"


def segment_filename(digest: str) -> str:
    return f"segment-{digest}.json"


def _dumps(value: Any) -> bytes:
    return json.dumps(value, separators=(",", ":"), allow_nan=False).encode("utf-8")


def _fsync_dir(path: str) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_tmp(path: str, data: bytes) -> str:
    """Write and fsync ``data`` beside ``path``; returns the temp path the
    caller renames into place."""
    tmp_path = path + ".tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    return tmp_path


def _holds(path: str, data: bytes) -> bool:
    try:
        with open(path, "rb") as handle:
            return handle.read() == data
    except OSError:
        return False


def write_segment(directory: str, payload: Any) -> str:
    """Atomically persist one segment; returns its sha256 (which names it).

    A file that already holds exactly these bytes — a relation back at
    the content an earlier segment captured — is left as it is.
    """
    data = _dumps(payload)
    digest = hashlib.sha256(data).hexdigest()
    path = os.path.join(directory, segment_filename(digest))
    if not _holds(path, data):
        os.replace(_write_tmp(path, data), path)
    return digest


def write_manifest(directory: str, state: Dict[str, Any]) -> str:
    """Atomically persist the manifest ``state`` — the commit point of a
    snapshot whose segments are already written; returns its path.

    ``state`` must carry ``wal_lsn`` (names the file) and should carry
    ``format_version`` (stamped if absent).
    """
    state = dict(state)
    state.setdefault("format_version", SNAPSHOT_FORMAT_VERSION)
    body = _dumps(state)
    digest = hashlib.sha256(body).hexdigest().encode("ascii")
    path = os.path.join(directory, snapshot_filename(int(state.get("wal_lsn", 0))))
    tmp_path = _write_tmp(path, _ENVELOPE_HEAD + digest + _ENVELOPE_MID + body + b"}")
    maybe_fire("snapshot.after_tmp_write")
    os.replace(tmp_path, path)
    _fsync_dir(directory)
    maybe_fire("snapshot.after_rename")
    return path


def read_manifest(path: str) -> Dict[str, Any]:
    """Load and checksum-verify one manifest; returns its state.

    The version is read before the digest is checked: a file of another
    version may lay its digest out differently, and must be refused as
    foreign, not skipped as corrupt.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        document = json.loads(data)
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"unreadable snapshot {path!r}: {exc}") from exc
    state = document.get("state") if isinstance(document, dict) else None
    if not isinstance(state, dict):
        raise SnapshotError(f"snapshot {path!r} missing state envelope")
    version = state.get("format_version")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotFormatError(
            f"snapshot {path!r} has format_version {version!r}, "
            f"expected {SNAPSHOT_FORMAT_VERSION}"
        )
    if hashlib.sha256(data[_BODY_START:-1]).hexdigest() != document.get("sha256"):
        raise SnapshotError(f"snapshot {path!r} failed checksum verification")
    return state


def read_segment(directory: str, digest: str) -> Any:
    """Load one segment, verified against the digest its manifest names."""
    path = os.path.join(directory, segment_filename(digest))
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise SnapshotError(f"unreadable segment {path!r}: {exc}") from exc
    if hashlib.sha256(data).hexdigest() != digest:
        raise SnapshotError(f"segment {path!r} failed checksum verification")
    return json.loads(data)


def read_snapshot(path: str) -> Dict[str, Any]:
    """Load a manifest and every segment it names, each verified.

    Returns the manifest state with ``relations`` resolved to
    ``{name: wire-encoded rows}`` and ``dictionary`` to its values.
    """
    state = read_manifest(path)
    directory = os.path.dirname(path)
    state["relations"] = {
        name: read_segment(directory, digest) for name, digest in state["relations"].items()
    }
    state["dictionary"] = read_segment(directory, state["dictionary"])
    return state


def list_snapshots(directory: str) -> List[Tuple[int, str]]:
    """``(wal_lsn, path)`` for every manifest, newest (highest LSN) first."""
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
    corrupt or torn snapshot — a bad manifest or any bad segment it names
    (a crash cannot produce one through the atomic-rename protocol, but
    disks can) — is skipped only when those records cover everything it
    covered past the snapshot loaded instead (past LSN 0 when none is
    left): its LSN is in its file name, and a checkpoint may already have
    compacted that stretch of the WAL away.  When they do not,
    :class:`SnapshotError` is raised.  A snapshot of another format
    version raises :class:`SnapshotFormatError` and is never skipped.
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
    """Delete all but the ``keep`` newest manifests, every segment none of
    those names and any temp file a crashed snapshot left; returns the
    removed paths.

    Segments are all kept when a kept manifest cannot be read: what it
    names is then unknown.
    """
    keep = max(keep, 1)
    manifests = list_snapshots(directory)
    names = os.listdir(directory)
    doomed = [path for _, path in manifests[keep:]]
    doomed += [os.path.join(directory, name) for name in names if _TMP_RE.match(name)]
    named: Set[str] = set()
    try:
        for _, path in manifests[:keep]:
            state = read_manifest(path)
            named.update(state["relations"].values(), [state["dictionary"]])
    except SnapshotError:
        pass
    else:
        doomed += [
            os.path.join(directory, name)
            for name in names
            if (match := _SEGMENT_RE.match(name)) and match.group(1) not in named
        ]
    removed: List[str] = []
    for path in doomed:
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
    "read_manifest",
    "read_segment",
    "read_snapshot",
    "segment_filename",
    "snapshot_filename",
    "write_manifest",
    "write_segment",
]
