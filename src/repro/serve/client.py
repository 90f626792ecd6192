"""The asyncio client library for the JSON-line query server.

:func:`connect` opens a TCP connection and returns a
:class:`ServeClient`, which speaks the protocol of
:mod:`repro.serve.protocol` and converts result payloads back into
:class:`~repro.core.executor.QueryResult` objects via the shared wire
codec — a round trip is value-exact, including NULLs, dates and
non-finite floats::

    client = await connect("127.0.0.1", 7433)
    result = await client.execute(
        "SELECT COUNT(*) AS n FROM ORDERS o WHERE o.O_TOTALPRICE > :t",
        params={"t": 500.0})
    print(result.single_value())
    stmt = await client.prepare("SELECT ... WHERE o.O_TOTALPRICE > :t")
    await stmt.execute({"t": 100.0})      # plan + parse reused server-side
    await client.close()

Requests pipeline freely: every request gets a fresh ``id`` and a reader
task dispatches responses by id, so concurrent ``await``\\ s on one client
are safe.  Server-side failures surface as :class:`ServerError` with the
machine-readable ``code`` (``queue_full``, ``deadline_exceeded``, ...) so
callers — load generators above all — can count rejection classes
without string-matching messages.

**Retries are idempotent by construction.**  Every operation retries
transparently (exponential backoff plus jitter, :class:`RetryPolicy`) on
two failure classes: connection loss (the client reconnects to the same
address) and the server's *retryable* codes — ``queue_full`` and
``overloaded`` — where the protocol guarantees the request was never
applied.  Writes additionally carry a client-generated UUID
``request_id`` minted **once per logical write** and reused verbatim
across every retry of it, so a write whose ack was lost to a connection
drop is deduplicated server-side (``{"deduplicated": true}``) instead of
applied twice.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import uuid
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..core.executor import QueryResult
from .protocol import RETRYABLE_CODES, encode_frame, validate_response_frame


class ServerError(RuntimeError):
    """An error frame, as an exception: carries code, message and frame."""

    def __init__(self, code: str, message: str, frame: Dict[str, Any]) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message
        self.frame = frame

    @property
    def retryable(self) -> bool:
        """True when the server guarantees the request was never applied."""
        return self.code in RETRYABLE_CODES


@dataclass
class RetryPolicy:
    """Exponential backoff with jitter for connection loss and shed requests.

    Delay before attempt ``n`` (0-based) is
    ``min(max_delay, base_delay * 2**n) * (1 + jitter * random())`` —
    jitter desynchronizes a thundering herd of clients all shed by the
    same overloaded server.  ``max_attempts=1`` disables retries.
    """

    max_attempts: int = 5
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5

    def delay(self, attempt: int) -> float:
        bounded = min(self.max_delay, self.base_delay * (2 ** attempt))
        return bounded * (1.0 + self.jitter * random.random())


class ServeClient:
    """One connection to a :class:`~repro.serve.server.QueryServer`."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        address: Optional[tuple] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        #: (host, port) for reconnects; None disables reconnection
        self._address = address
        self.retry = retry or RetryPolicy()
        self._ids = itertools.count(1)
        self._pending: Dict[Any, "asyncio.Future[Dict[str, Any]]"] = {}
        self._reader_task = asyncio.create_task(self._read_loop(), name="serve-client-reader")
        self._closed = False
        #: frames that failed validate_response_frame (should stay empty)
        self.invalid_frames: List[str] = []
        #: retry observability, for load generators
        self.retries = 0
        self.reconnects = 0

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        import json

        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    frame = json.loads(line.decode("utf-8"))
                except ValueError:
                    self.invalid_frames.append("response line is not JSON")
                    continue
                defect = validate_response_frame(frame)
                if defect is not None:
                    self.invalid_frames.append(defect)
                future = self._pending.pop(frame.get("id") if isinstance(frame, dict) else None, None)
                if future is not None and not future.done():
                    future.set_result(frame)
        except (asyncio.CancelledError, ConnectionResetError):
            pass
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(ConnectionError("server connection closed"))
            self._pending.clear()

    async def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one frame and await its (validated) response frame."""
        if self._closed:
            raise ConnectionError("client is closed")
        request_id = next(self._ids)
        frame = {"id": request_id, "op": op}
        frame.update({k: v for k, v in fields.items() if v is not None})
        future: "asyncio.Future[Dict[str, Any]]" = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        self._writer.write(encode_frame(frame))
        await self._writer.drain()
        return await future

    async def _reconnect(self) -> None:
        """Replace the dead transport with a fresh one to the same address."""
        if self._address is None:
            raise ConnectionError("connection lost and no address to reconnect to")
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        host, port = self._address
        self._reader, self._writer = await asyncio.open_connection(host, port)
        self._reader_task = asyncio.create_task(
            self._read_loop(), name="serve-client-reader"
        )
        self.reconnects += 1

    async def request_retrying(self, op: str, **fields: Any) -> Dict[str, Any]:
        """:meth:`request` + :meth:`_unwrap` behind the retry policy.

        Retries (after backoff-with-jitter) on connection errors —
        reconnecting first — and on the server's retryable codes.  Safe
        for every operation the library exposes: reads are idempotent and
        writes carry a stable ``request_id`` the server dedups on.
        """
        policy = self.retry
        last_error: Optional[BaseException] = None
        for attempt in range(max(policy.max_attempts, 1)):
            if attempt:
                self.retries += 1
                await asyncio.sleep(policy.delay(attempt - 1))
            try:
                return self._unwrap(await self.request(op, **fields))
            except ServerError as exc:
                if not exc.retryable:
                    raise
                last_error = exc
            except (ConnectionError, BrokenPipeError, OSError) as exc:
                if self._closed:
                    raise
                last_error = exc
                try:
                    await self._reconnect()
                except (ConnectionError, OSError) as reconnect_exc:
                    last_error = reconnect_exc
        assert last_error is not None
        raise last_error

    @staticmethod
    def _unwrap(frame: Dict[str, Any]) -> Dict[str, Any]:
        if frame.get("ok"):
            return frame["result"]
        error = frame.get("error") or {}
        raise ServerError(
            str(error.get("code", "execution_error")),
            str(error.get("message", "server error")),
            frame,
        )

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    async def execute(
        self,
        sql: str,
        params: Any = None,
        engine: Optional[str] = None,
        tenant: Optional[str] = None,
        timeout_ms: Optional[float] = None,
        use_cache: bool = True,
    ) -> QueryResult:
        from ..core.wire import encode_params

        result = await self.request_retrying(
            "execute",
            sql=sql,
            params=encode_params(params),
            engine=engine,
            tenant=tenant,
            timeout_ms=timeout_ms,
            use_cache=use_cache,
        )
        return QueryResult.from_json(result["result_set"])

    async def prepare(
        self,
        sql: str,
        engine: Optional[str] = None,
        tenant: Optional[str] = None,
        timeout_ms: Optional[float] = None,
    ) -> "RemoteStatement":
        result = await self.request_retrying(
            "prepare", sql=sql, engine=engine, tenant=tenant, timeout_ms=timeout_ms
        )
        return RemoteStatement(
            client=self,
            statement_id=result["statement"],
            sql=sql,
            tenant=tenant,
            parameters=list(result.get("parameters", [])),
        )

    async def explain(
        self,
        sql: str,
        params: Any = None,
        analyze: bool = False,
        engine: Optional[str] = None,
        tenant: Optional[str] = None,
        timeout_ms: Optional[float] = None,
    ) -> str:
        from ..core.wire import encode_params

        result = await self.request_retrying(
            "explain",
            sql=sql,
            params=encode_params(params),
            analyze=analyze or None,
            engine=engine,
            tenant=tenant,
            timeout_ms=timeout_ms,
        )
        return result["plan"]

    async def list_engines(self) -> Dict[str, Any]:
        return await self.request_retrying("list_engines")

    async def load_rows(
        self,
        relation: str,
        rows: List[List[Any]],
        tenant: Optional[str] = None,
        timeout_ms: Optional[float] = None,
        request_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Append rows; exactly-once across retries via ``request_id``.

        The idempotency key is minted here (one UUID per *logical* write)
        and reused verbatim by every retry, so a write whose ack was lost
        answers ``{"deduplicated": true}`` on replay instead of applying
        twice.  Pass an explicit ``request_id`` to span retries across
        client instances (e.g. resuming after a process restart).
        """
        from ..core.wire import iter_encoded_rows

        if request_id is None:
            request_id = uuid.uuid4().hex
        return await self.request_retrying(
            "load_rows",
            relation=relation,
            rows=iter_encoded_rows(rows),
            tenant=tenant,
            timeout_ms=timeout_ms,
            request_id=request_id,
        )

    async def delete_rows(
        self,
        relation: str,
        rows: List[List[Any]],
        tenant: Optional[str] = None,
        timeout_ms: Optional[float] = None,
        request_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Delete rows by value (bag semantics); exactly-once like a write.

        Each row in ``rows`` removes one live occurrence server-side.  The
        idempotency contract mirrors :meth:`load_rows`: one UUID per
        logical delete, reused across retries, deduplicated server-side.
        """
        from ..core.wire import iter_encoded_rows

        if request_id is None:
            request_id = uuid.uuid4().hex
        return await self.request_retrying(
            "delete_rows",
            relation=relation,
            rows=iter_encoded_rows(rows),
            tenant=tenant,
            timeout_ms=timeout_ms,
            request_id=request_id,
        )

    async def update_rows(
        self,
        relation: str,
        rows: List[List[Any]],
        updates: List[List[Any]],
        tenant: Optional[str] = None,
        timeout_ms: Optional[float] = None,
        request_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Replace ``rows`` with ``updates`` atomically; exactly-once.

        The server applies delete + insert in one critical section under
        one WAL record, so no reader or crash observes half an update.
        """
        from ..core.wire import iter_encoded_rows

        if request_id is None:
            request_id = uuid.uuid4().hex
        return await self.request_retrying(
            "update_rows",
            relation=relation,
            rows=iter_encoded_rows(rows),
            updates=iter_encoded_rows(updates),
            tenant=tenant,
            timeout_ms=timeout_ms,
            request_id=request_id,
        )

    async def materialize(
        self,
        sql: str,
        view: Optional[str] = None,
        tenant: Optional[str] = None,
        timeout_ms: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Register ``sql`` as a server-maintained materialized view."""
        result = await self.request_retrying(
            "materialize", sql=sql, view=view, tenant=tenant, timeout_ms=timeout_ms
        )
        return result["view"]

    async def query_view(
        self,
        view: str,
        tenant: Optional[str] = None,
        timeout_ms: Optional[float] = None,
        use_cache: bool = True,
    ) -> QueryResult:
        """Serve a materialized view's current contents."""
        result = await self.request_retrying(
            "query_view",
            view=view,
            tenant=tenant,
            timeout_ms=timeout_ms,
            use_cache=use_cache,
        )
        return QueryResult.from_json(result["result_set"])

    async def stats(self) -> Dict[str, Any]:
        return await self.request_retrying("stats")

    async def health(self) -> Dict[str, Any]:
        """Queue depth, breaker state and per-tenant WAL lag, inline."""
        return await self.request_retrying("health")

    async def ping(self) -> bool:
        return bool((await self.request_retrying("ping")).get("pong"))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    async def __aenter__(self) -> "ServeClient":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()


class RemoteStatement:
    """A server-side prepared statement handle (one connection's scope)."""

    def __init__(
        self,
        client: ServeClient,
        statement_id: str,
        sql: str,
        tenant: Optional[str],
        parameters: List[str],
    ) -> None:
        self.client = client
        self.statement_id = statement_id
        self.sql = sql
        self.tenant = tenant
        self.parameters = parameters

    async def execute(
        self,
        params: Any = None,
        timeout_ms: Optional[float] = None,
        use_cache: bool = True,
    ) -> QueryResult:
        from ..core.wire import encode_params

        result = await self.client.request_retrying(
            "execute_prepared",
            statement=self.statement_id,
            params=encode_params(params),
            tenant=self.tenant,
            timeout_ms=timeout_ms,
            use_cache=use_cache,
        )
        return QueryResult.from_json(result["result_set"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteStatement({self.statement_id!r}, {self.sql[:40]!r}...)"


async def connect(
    host: str = "127.0.0.1",
    port: int = 7433,
    retry: Optional[RetryPolicy] = None,
) -> ServeClient:
    """Open a client connection to a running query server.

    The address is remembered so the retry layer can reconnect after a
    connection drop (e.g. a server crash-restart under fault injection).
    """
    reader, writer = await asyncio.open_connection(host, port)
    return ServeClient(reader, writer, address=(host, port), retry=retry)
