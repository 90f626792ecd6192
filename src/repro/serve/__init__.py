"""repro.serve — the asyncio query-serving layer.

Everything the in-process :class:`repro.api.Database` facade cannot do
for "millions of users" lives here:

* :mod:`repro.serve.server` — :class:`QueryServer`: a JSON-line TCP
  server fronting per-tenant databases with a bounded admission queue,
  a sized worker pool, per-request deadlines, a result-set cache and
  warm-started plan caches.
* :mod:`repro.serve.protocol` — the wire format and the response-frame
  schema contract.
* :mod:`repro.serve.client` — ``await connect(host, port)`` and a
  pipelining :class:`ServeClient` with remote prepared statements.
"""

from .breaker import CircuitBreaker
from .cache import ResultCache
from .client import RemoteStatement, RetryPolicy, ServeClient, ServerError, connect
from .protocol import (
    ERROR_CODES,
    OPERATIONS,
    RETRYABLE_CODES,
    ProtocolError,
    validate_response_frame,
)
from .server import QueryServer, ServerConfig, ServerStats

__all__ = [
    "ERROR_CODES",
    "OPERATIONS",
    "ProtocolError",
    "QueryServer",
    "RemoteStatement",
    "ResultCache",
    "CircuitBreaker",
    "RETRYABLE_CODES",
    "RetryPolicy",
    "ServeClient",
    "ServerConfig",
    "ServerError",
    "ServerStats",
    "connect",
    "validate_response_frame",
]
