"""The JSON-line wire protocol of the query server.

One request per line, one response per line, UTF-8 JSON either way.  A
connection may pipeline: requests carry a client-chosen ``id`` and the
matching response echoes it, so responses may return out of order (the
admission queue and worker pool reorder freely).

Request frames::

    {"id": 7, "op": "execute", "sql": "SELECT ...", "params": {...},
     "engine": "tag", "tenant": "default", "timeout_ms": 500,
     "use_cache": true}

Operations: ``execute``, ``prepare``, ``execute_prepared``, ``explain``,
``list_engines``, ``load_rows``, ``delete_rows``, ``update_rows``,
``materialize``, ``query_view``, ``stats``, ``ping``, ``health``.

Write frames (``load_rows``, ``delete_rows``, ``update_rows``) may carry
a client-generated ``request_id``
string — the idempotency key.  The server remembers applied ids in its
WAL-backed table, so a retry of an acknowledged write answers
``{"deduplicated": true}`` instead of applying twice; the client library
generates one automatically and reuses it across its retries.

Response frames — always one of::

    {"id": 7, "ok": true,  "result": {...}}
    {"id": 7, "ok": false, "error": {"code": "deadline_exceeded",
                                     "message": "...", ...}}

Admission control answers with frames, never connection drops: a full
queue produces ``queue_full``, an expired deadline ``deadline_exceeded``
(with ``"where"`` telling whether time ran out queued or executing).
Values inside ``params``, ``rows`` and result payloads use the
type-tagged scalar encoding of :mod:`repro.core.wire`.

:func:`validate_response_frame` is the schema contract: the client
library, the perf ledger's ``serve_mixed`` workload and the serving
tests all run every frame through it, and CI fails if any frame the
server emits does not satisfy it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

#: every operation the server answers
OPERATIONS = (
    "execute",
    "prepare",
    "execute_prepared",
    "explain",
    "list_engines",
    "load_rows",
    "delete_rows",
    "update_rows",
    "materialize",
    "query_view",
    "stats",
    "ping",
    "health",
)

#: error codes a client may safely retry (the request was never applied)
RETRYABLE_CODES = ("queue_full", "overloaded")

#: machine-readable error codes a response frame may carry
ERROR_CODES = (
    "parse_error",          # request line was not valid JSON
    "invalid_request",      # frame shape/field validation failed
    "unknown_op",           # op not in OPERATIONS
    "unknown_engine",       # engine name not in the registry
    "unknown_tenant",       # tenant not served by this server
    "unknown_statement",    # execute_prepared with a foreign statement id
    "queue_full",           # admission control rejected the request
    "overloaded",           # circuit breaker shed the request (retryable)
    "deadline_exceeded",    # per-request timeout expired (queued or running)
    "execution_error",      # the query raised while executing
    "server_closed",        # request arrived while the server was stopping
)


class ProtocolError(ValueError):
    """Raised when a frame does not follow the wire protocol."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


# ----------------------------------------------------------------------
# frame construction
# ----------------------------------------------------------------------
def ok_frame(request_id: Any, result: Dict[str, Any]) -> Dict[str, Any]:
    return {"id": request_id, "ok": True, "result": result}


def error_frame(
    request_id: Any, code: str, message: str, **extra: Any
) -> Dict[str, Any]:
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    error: Dict[str, Any] = {"code": code, "message": message}
    error.update(extra)
    return {"id": request_id, "ok": False, "error": error}


def encode_frame(frame: Dict[str, Any]) -> bytes:
    """One wire line: compact JSON plus the newline terminator."""
    return json.dumps(frame, separators=(",", ":"), allow_nan=False).encode("utf-8") + b"\n"


def decode_frame(line: bytes) -> Dict[str, Any]:
    """Parse one wire line into a frame dict.

    Raises :class:`ProtocolError` (``parse_error``) for malformed JSON and
    for frames that are not objects — the server answers those with an
    error frame instead of dropping the connection.
    """
    try:
        frame = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError("parse_error", f"malformed JSON frame: {exc}") from exc
    if not isinstance(frame, dict):
        raise ProtocolError("parse_error", "frame must be a JSON object")
    return frame


# ----------------------------------------------------------------------
# request validation
# ----------------------------------------------------------------------
def validate_request_frame(frame: Dict[str, Any]) -> Tuple[Any, str]:
    """Check the envelope of a request frame; returns ``(id, op)``.

    Field-level validation (sql present, rows well-formed, ...) happens at
    dispatch; this guards the common shape every operation shares.
    """
    request_id = frame.get("id")
    if request_id is not None and not isinstance(request_id, (int, str)):
        raise ProtocolError("invalid_request", "'id' must be an integer or string")
    op = frame.get("op")
    if not isinstance(op, str):
        raise ProtocolError("invalid_request", "request frame needs a string 'op'")
    if op not in OPERATIONS:
        raise ProtocolError(
            "unknown_op", f"unknown op {op!r}; supported: {', '.join(OPERATIONS)}"
        )
    timeout_ms = frame.get("timeout_ms")
    if timeout_ms is not None and (
        not isinstance(timeout_ms, (int, float)) or isinstance(timeout_ms, bool) or timeout_ms <= 0
    ):
        raise ProtocolError("invalid_request", "'timeout_ms' must be a positive number")
    for field, kind in (("tenant", str), ("engine", str), ("sql", str)):
        value = frame.get(field)
        if value is not None and not isinstance(value, kind):
            raise ProtocolError("invalid_request", f"{field!r} must be a {kind.__name__}")
    write_id = frame.get("request_id")
    if write_id is not None and (not isinstance(write_id, str) or not write_id):
        raise ProtocolError(
            "invalid_request", "'request_id' must be a non-empty string"
        )
    return request_id, op


# ----------------------------------------------------------------------
# response validation (the client/CI schema contract)
# ----------------------------------------------------------------------
def validate_response_frame(frame: Any) -> Optional[str]:
    """Return ``None`` for a well-formed response frame, else the defect.

    Used by the client library on every frame it reads and by the perf
    ledger's ``serve_mixed`` workload to fail a run when the server emits
    anything off-schema.
    """
    if not isinstance(frame, dict):
        return "response frame is not an object"
    if "id" not in frame:
        return "response frame has no 'id'"
    if not isinstance(frame.get("ok"), bool):
        return "response frame 'ok' is not a boolean"
    if frame["ok"]:
        result = frame.get("result")
        if not isinstance(result, dict):
            return "ok frame has no object 'result'"
        if "error" in frame:
            return "ok frame carries an 'error'"
        return None
    error = frame.get("error")
    if not isinstance(error, dict):
        return "error frame has no object 'error'"
    if error.get("code") not in ERROR_CODES:
        return f"error frame code {error.get('code')!r} is not a known code"
    if not isinstance(error.get("message"), str):
        return "error frame has no string 'message'"
    if "result" in frame:
        return "error frame carries a 'result'"
    return None
