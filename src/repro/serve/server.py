"""The asyncio query server: per-tenant databases behind admission control.

:class:`QueryServer` turns the in-process :class:`repro.api.Database`
facade into a network service without giving up any of its guarantees:

* **per-tenant isolation** — each tenant name maps to its own
  ``Database`` (own catalog, statistics, plan cache); a request names its
  tenant and can never touch another's state.
* **admission control** — every query-shaped request passes through one
  bounded queue feeding a sized worker pool (the ``execute_many`` sizing
  model: a fixed ThreadPoolExecutor, one asyncio worker per thread).
  When the queue is full the server answers with a ``queue_full`` error
  frame immediately — clients get backpressure, never dropped
  connections.
* **deadlines** — each request carries (or inherits) a timeout covering
  queue wait *plus* execution.  Deadlines expiring in the queue cost
  nothing; deadlines expiring mid-execution abandon the worker future and
  answer ``deadline_exceeded`` (the abandoned thread finishes in the
  background and is counted, the dbgym-style timeout ledger).
* **result-set caching** — identical reads are answered from
  :class:`~repro.serve.cache.ResultCache` without touching the pool.  An
  entry is stamped with its statement's read set (every base relation the
  bound query reads, subqueries included) and is a hit only while those
  relations are unchanged; a write drops just the entries that read the
  written relation, so reads of other relations keep hitting.
* **warm starts** — at :meth:`start`, tenants with a configured
  ``plan_cache_path`` replay their persisted statement manifest through
  :meth:`~repro.api.Database.warm_plan_cache`, so the serving window
  begins with every known plan compiled; compile counters are snapshotted
  right after warming, which is what makes "zero compilations while
  serving" an assertable property.

The wire format is the JSON-line protocol of
:mod:`repro.serve.protocol`; :mod:`repro.serve.client` is the matching
client library.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, Mapping, Optional, Tuple, Union

from ..api import Database
from ..api.registry import EngineError, list_engines, resolve_engine_name
from ..core.cancellation import CancellationToken, QueryCancelled, cancel_scope
from ..core.wire import WireFormatError, decode_params, decode_row
from ..durability.failpoints import maybe_fire
from ..incremental.locks import LockTimeout
from .breaker import CircuitBreaker
from .cache import CacheKey, ResultCache
from .protocol import (
    ProtocolError,
    decode_frame,
    encode_frame,
    error_frame,
    ok_frame,
    validate_request_frame,
)

#: operations answered on the event loop without queueing: liveness and
#: observability must stay responsive even when the pool is saturated
INLINE_OPS = ("ping", "stats", "health")

#: operations the circuit breaker sheds first (they take the writer lock)
WRITE_OPS = ("load_rows", "delete_rows", "update_rows", "materialize")


@dataclass
class ServerConfig:
    """Admission-control and lifecycle knobs of a :class:`QueryServer`."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read QueryServer.port after start()
    #: bounded admission queue depth; full queue => queue_full error frames
    max_queue_depth: int = 64
    #: worker threads executing queries (and asyncio workers feeding them)
    pool_size: int = 4
    #: deadline applied when a request does not carry timeout_ms
    default_timeout_seconds: float = 10.0
    #: hard ceiling a request's own timeout_ms cannot exceed
    max_timeout_seconds: float = 60.0
    #: result-set cache capacity (encoded payloads); 0 disables the cache
    result_cache_entries: int = 256
    #: replay persisted plan manifests at start()
    warm_start: bool = True
    #: close tenant databases on stop() (flushes their plan manifests)
    close_databases_on_stop: bool = True
    #: circuit breaker: shed writes at this fraction of max_queue_depth
    breaker_shed_ratio: float = 0.75
    #: circuit breaker: close again below this fraction (hysteresis)
    breaker_recover_ratio: float = 0.5


@dataclass
class ServerStats:
    """Serving counters (wire-level; per-query detail lives in results)."""

    accepted: int = 0
    completed: int = 0
    rejected_queue_full: int = 0
    timeouts_queued: int = 0
    timeouts_running: int = 0
    errors: int = 0
    cache_hits: int = 0
    inline_requests: int = 0
    protocol_errors: int = 0
    abandoned_workers: int = 0
    #: gauge: deadline-exceeded requests whose worker thread is *still*
    #: running right now; with cooperative cancellation this returns to
    #: zero within one superstep/batch (asserted in tests)
    abandoned_running: int = 0
    #: abandoned workers whose thread has since finished and rejoined the
    #: pool (cancellation made it stop early instead of running to completion)
    workers_reclaimed: int = 0
    #: requests shed by the circuit breaker with the retryable `overloaded`
    rejected_overloaded: int = 0
    #: writes deduplicated via the idempotent request_id table
    deduplicated_writes: int = 0

    @property
    def timeouts(self) -> int:
        return self.timeouts_queued + self.timeouts_running

    def as_dict(self) -> Dict[str, Any]:
        return {
            "accepted": self.accepted,
            "completed": self.completed,
            "rejected_queue_full": self.rejected_queue_full,
            "timeouts": self.timeouts,
            "timeouts_queued": self.timeouts_queued,
            "timeouts_running": self.timeouts_running,
            "errors": self.errors,
            "cache_hits": self.cache_hits,
            "inline_requests": self.inline_requests,
            "protocol_errors": self.protocol_errors,
            "abandoned_workers": self.abandoned_workers,
            "abandoned_running": self.abandoned_running,
            "workers_reclaimed": self.workers_reclaimed,
            "rejected_overloaded": self.rejected_overloaded,
            "deduplicated_writes": self.deduplicated_writes,
        }


class _CachedResponse(Exception):
    """Control-flow signal: the request was answered from the result cache."""

    def __init__(self, payload: Dict[str, Any]) -> None:
        super().__init__("result-cache hit")
        self.payload = payload


@dataclass
class _CacheFill:
    """Where a cacheable read's result goes once it succeeds.

    The read's work sets ``tables`` and ``stamp`` on its worker thread
    before the statement runs (:meth:`take_stamp`).
    """

    key: CacheKey
    tables: Tuple[str, ...] = ()
    stamp: Any = None

    def take_stamp(self, database: Database, tables: Tuple[str, ...]) -> None:
        # Taken BEFORE the statement runs, never after: a stamp never
        # comes back once it moved, so a write landing between this line
        # and the store leaves the entry older than the rows it holds,
        # which is a miss at its next lookup and never a stale hit.
        self.tables = tables
        self.stamp = database.read_stamp(tables)


@dataclass
class _Admitted:
    """One queued unit of work: the closure plus its response plumbing."""

    request_id: Any
    work: Callable[[], Dict[str, Any]]
    respond: Callable[[Dict[str, Any]], Awaitable[None]]
    deadline: float
    #: result-cache fill on success, from the payload's ``result_set``
    #: (None = uncacheable/no-cache)
    cache_fill: Optional[_CacheFill] = None
    #: sheds first under breaker pressure (takes the writer lock)
    is_write: bool = False


@dataclass
class _PreparedEntry:
    """A server-side prepared statement (scoped to one connection)."""

    statement_id: str
    tenant: str
    engine: str
    sql: str
    prepared: Any  # repro.api.PreparedStatement
    parameter_names: Tuple[str, ...] = ()
    #: every base relation the statement reads (its cache entries' read set)
    read_set: Tuple[str, ...] = ()


class QueryServer:
    """Serve one or more :class:`~repro.api.Database` tenants over TCP.

    ``databases`` is either a single Database (served as tenant
    ``"default"``) or a mapping of tenant name to Database.  Typical use::

        server = QueryServer({"default": db}, ServerConfig(port=0))
        await server.start()
        ...                       # clients connect to server.host:server.port
        await server.stop()
    """

    def __init__(
        self,
        databases: Union[Database, Mapping[str, Database]],
        config: Optional[ServerConfig] = None,
    ) -> None:
        if isinstance(databases, Database):
            databases = {"default": databases}
        if not databases:
            raise ValueError("a QueryServer needs at least one tenant database")
        self.databases: Dict[str, Database] = dict(databases)
        self.config = config or ServerConfig()
        self.stats = ServerStats()
        self.result_cache: Optional[ResultCache] = (
            ResultCache(self.config.result_cache_entries)
            if self.config.result_cache_entries > 0
            else None
        )
        self.warm_reports: Dict[str, Dict[str, Any]] = {}
        self.breaker = CircuitBreaker(
            self.config.max_queue_depth,
            shed_ratio=self.config.breaker_shed_ratio,
            recover_ratio=self.config.breaker_recover_ratio,
        )
        self._compile_baseline: Dict[str, int] = {}
        self._queue: Optional["asyncio.Queue[_Admitted]"] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._workers: list = []
        self._connections: set = set()
        self._statement_ids = itertools.count(1)
        self._started = False
        self._closing = False
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "QueryServer":
        if self._started:
            raise RuntimeError("server already started")
        if self.config.warm_start:
            for tenant, database in self.databases.items():
                if database.plan_cache_path is not None:
                    self.warm_reports[tenant] = database.warm_plan_cache()
        # the serving-window compile baseline: everything stored before
        # this point (including warming itself) does not count as a
        # serving-time compilation
        self._compile_baseline = {
            tenant: database.plan_cache.stats.stores
            for tenant, database in self.databases.items()
        }
        self._queue = asyncio.Queue(maxsize=self.config.max_queue_depth)
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.pool_size, thread_name_prefix="repro-serve"
        )
        self._workers = [
            asyncio.create_task(self._worker_loop(), name=f"serve-worker-{i}")
            for i in range(self.config.pool_size)
        ]
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        self._started = True
        return self

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        """The bound port (resolves ephemeral port 0 after start())."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not listening")
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("call start() first")
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop listening, cancel in-flight work, flush tenant manifests."""
        if not self._started or self._closing:
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._connections):
            task.cancel()
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, *self._connections, return_exceptions=True)
        self._workers = []
        self._connections.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        if self.config.close_databases_on_stop:
            for database in self.databases.values():
                database.close()

    async def __aenter__(self) -> "QueryServer":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def plan_compilations(self) -> Dict[str, int]:
        """Per-tenant plan compilations since serving started.

        The warm-start acceptance metric: a warm-started server stays at
        zero for every query shape its manifest covered.
        """
        return {
            tenant: database.plan_cache.stats.stores
            - self._compile_baseline.get(tenant, 0)
            for tenant, database in self.databases.items()
        }

    def stats_payload(self) -> Dict[str, Any]:
        compile_counts = self.plan_compilations()
        payload: Dict[str, Any] = {
            "server": {
                **self.stats.as_dict(),
                "queue_depth": self._queue.qsize() if self._queue else 0,
                "max_queue_depth": self.config.max_queue_depth,
                "pool_size": self.config.pool_size,
                "plan_compilations_since_start": sum(compile_counts.values()),
            },
            "result_cache": (
                self.result_cache.stats.as_dict()
                if self.result_cache is not None
                else None
            ),
            "warm_start": self.warm_reports,
            "tenants": {
                tenant: {
                    "catalog": database.catalog.name,
                    "catalog_version": database.catalog.version,
                    "plan_compilations_since_start": compile_counts[tenant],
                    "plan_cache": database.cache_stats(),
                    "maintenance": database.maintenance.as_dict(),
                }
                for tenant, database in self.databases.items()
            },
        }
        return payload

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        write_lock = asyncio.Lock()
        statements: Dict[str, _PreparedEntry] = {}
        pending: set = set()

        async def respond(frame: Dict[str, Any]) -> None:
            async with write_lock:
                if writer.is_closing():
                    return
                writer.write(encode_frame(frame))
                await writer.drain()

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if line.strip() == b"":
                    continue
                try:
                    frame = decode_frame(line)
                    request_id, op = validate_request_frame(frame)
                except ProtocolError as exc:
                    with self._stats_lock:
                        self.stats.protocol_errors += 1
                    await respond(error_frame(None, exc.code, exc.message))
                    continue
                if self._closing:
                    await respond(
                        error_frame(request_id, "server_closed", "server is stopping")
                    )
                    continue
                if op in INLINE_OPS:
                    with self._stats_lock:
                        self.stats.inline_requests += 1
                    await respond(self._handle_inline(request_id, op))
                    continue
                admit_task = asyncio.create_task(
                    self._admit(frame, request_id, op, statements, respond)
                )
                pending.add(admit_task)
                admit_task.add_done_callback(pending.discard)
        except (asyncio.CancelledError, ConnectionResetError):
            pass
        finally:
            for admit_task in list(pending):
                admit_task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError, BrokenPipeError, OSError):
                # stop() may cancel this task while the transport drains;
                # the transport is already closing, so swallow and finish.
                pass
            if task is not None:
                self._connections.discard(task)

    def _handle_inline(self, request_id: Any, op: str) -> Dict[str, Any]:
        if op == "ping":
            return ok_frame(request_id, {"pong": True})
        if op == "health":
            return ok_frame(request_id, self.health_payload())
        return ok_frame(request_id, self.stats_payload())

    def health_payload(self) -> Dict[str, Any]:
        """The `health` op: load, durability lag and breaker state at a glance.

        Unlike `stats` (complete counters), `health` is the small payload a
        load balancer or retry loop polls: current queue depth, breaker
        state, the abandoned-worker gauge, and per-tenant WAL lag (records
        not yet covered by a snapshot; None for memory-only tenants).
        """
        depth = self._queue.qsize() if self._queue else 0
        with self._stats_lock:
            abandoned_running = self.stats.abandoned_running
        durability = {}
        for tenant, database in self.databases.items():
            stats = database.durability_stats()
            durability[tenant] = (
                None
                if stats is None
                else {
                    "wal_lsn": stats["wal_lsn"],
                    "wal_lag_records": stats["wal_lag_records"],
                    "wal_size_bytes": stats["wal_size_bytes"],
                    "snapshot_lsn": stats["snapshot_lsn"],
                }
            )
        return {
            "healthy": not self._closing,
            "queue_depth": depth,
            "max_queue_depth": self.config.max_queue_depth,
            "pool_size": self.config.pool_size,
            "abandoned_running": abandoned_running,
            "breaker": self.breaker.as_dict(),
            "durability": durability,
        }

    # ------------------------------------------------------------------
    # admission control
    # ------------------------------------------------------------------
    def _resolve_tenant(self, frame: Dict[str, Any]) -> Tuple[str, Database]:
        tenant = frame.get("tenant") or "default"
        database = self.databases.get(tenant)
        if database is None:
            raise ProtocolError(
                "unknown_tenant",
                f"unknown tenant {tenant!r}; served: {', '.join(sorted(self.databases))}",
            )
        return tenant, database

    def _resolve_engine(self, frame: Dict[str, Any], database: Database) -> str:
        name = frame.get("engine") or database.default_engine
        try:
            return resolve_engine_name(name)
        except EngineError as exc:
            raise ProtocolError("unknown_engine", str(exc)) from exc

    def _request_timeout(self, frame: Dict[str, Any]) -> float:
        timeout_ms = frame.get("timeout_ms")
        if timeout_ms is None:
            return self.config.default_timeout_seconds
        return min(float(timeout_ms) / 1000.0, self.config.max_timeout_seconds)

    async def _admit(
        self,
        frame: Dict[str, Any],
        request_id: Any,
        op: str,
        statements: Dict[str, _PreparedEntry],
        respond: Callable[[Dict[str, Any]], Awaitable[None]],
    ) -> None:
        """Validate, check the breaker, try the result cache, then enqueue."""
        assert self._queue is not None
        # the circuit breaker gates BEFORE any work: under pressure it
        # sheds writes first (they take the exclusive writer lock), then
        # everything pool-bound — both with the retryable `overloaded`.
        # Hard overflow stays `queue_full` (the put_nowait path below):
        # the breaker's job is shedding *before* the queue overflows and
        # holding there (hysteresis) while it drains.
        state = self.breaker.observe(self._queue.qsize())
        if not self._queue.full() and not self.breaker.allows(op in WRITE_OPS):
            self.breaker.note_shed()
            with self._stats_lock:
                self.stats.rejected_overloaded += 1
            await respond(
                error_frame(
                    request_id,
                    "overloaded",
                    f"circuit breaker is {state}; retry with backoff",
                    breaker_state=state,
                )
            )
            return
        try:
            admitted = self._build_request(frame, request_id, op, statements, respond)
        except _CachedResponse as hit:
            with self._stats_lock:
                self.stats.cache_hits += 1
                self.stats.completed += 1
            await respond(ok_frame(request_id, hit.payload))
            return
        except ProtocolError as exc:
            with self._stats_lock:
                self.stats.errors += 1
            await respond(error_frame(request_id, exc.code, exc.message))
            return
        try:
            self._queue.put_nowait(admitted)
            with self._stats_lock:
                self.stats.accepted += 1
        except asyncio.QueueFull:
            with self._stats_lock:
                self.stats.rejected_queue_full += 1
            await respond(
                error_frame(
                    request_id,
                    "queue_full",
                    f"admission queue is full ({self.config.max_queue_depth} waiting); "
                    "retry with backoff",
                    queue_depth=self.config.max_queue_depth,
                )
            )

    def _build_request(
        self,
        frame: Dict[str, Any],
        request_id: Any,
        op: str,
        statements: Dict[str, _PreparedEntry],
        respond: Callable[[Dict[str, Any]], Awaitable[None]],
    ) -> Optional[_Admitted]:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self._request_timeout(frame)
        tenant, database = self._resolve_tenant(frame)
        use_cache = bool(frame.get("use_cache", True)) and self.result_cache is not None

        if op == "list_engines":
            def work_engines() -> Dict[str, Any]:
                return {
                    "engines": list_engines(),
                    "default": database.default_engine,
                    "tenants": sorted(self.databases),
                }

            return _Admitted(request_id, work_engines, respond, deadline)

        if op == "materialize":
            sql = frame.get("sql")
            if not isinstance(sql, str) or not sql.strip():
                raise ProtocolError("invalid_request", "materialize needs non-empty 'sql'")
            view_name = frame.get("view")
            if view_name is not None and not isinstance(view_name, str):
                raise ProtocolError("invalid_request", "'view' must be a string")

            def work_materialize() -> Dict[str, Any]:
                from ..incremental.views import ViewError

                try:
                    info = database.materialize(sql, name=view_name)
                except ViewError as exc:
                    raise ProtocolError("invalid_request", str(exc)) from exc
                return {"view": info, "tenant": tenant}

            return _Admitted(
                request_id, work_materialize, respond, deadline, is_write=True
            )

        if op == "query_view":
            view_name = frame.get("view")
            if not isinstance(view_name, str) or not view_name:
                raise ProtocolError("invalid_request", "query_view needs a string 'view'")
            view_fill: Optional[_CacheFill] = None
            if use_cache:
                # views are engine-independent: key on a reserved engine slot
                view_fill = _CacheFill(
                    ResultCache.make_key(tenant, "__view__", view_name, None)
                )

                def view_stamp_now(_tables: Tuple[str, ...]) -> Any:
                    current = database.view_stamp(view_name)
                    return None if current is None else current[1]

                cached = self.result_cache.lookup(view_fill.key, view_stamp_now)
                if cached is not None:
                    raise _CachedResponse(
                        {"result_set": cached, "view": view_name, "cached": True}
                    )

            def work_view() -> Dict[str, Any]:
                from ..incremental.views import ViewError

                if view_fill is not None:
                    # before the read, as in _CacheFill.take_stamp; a view
                    # stamp also carries the view's generation
                    current = database.view_stamp(view_name)
                    if current is not None:
                        view_fill.tables, view_fill.stamp = current
                try:
                    result = database.query_view(view_name)
                except ViewError as exc:
                    raise ProtocolError("invalid_request", str(exc)) from exc
                return {"result_set": result.to_json(), "view": view_name, "cached": False}

            return _Admitted(request_id, work_view, respond, deadline, cache_fill=view_fill)

        engine = self._resolve_engine(frame, database)

        if op in ("load_rows", "delete_rows", "update_rows"):
            # one handler for the three write frames: each is one delta
            # through Database's one write pipeline
            relation = frame.get("relation")
            rows = frame.get("rows")
            updates = frame.get("updates") if op == "update_rows" else []
            if not isinstance(relation, str):
                raise ProtocolError("invalid_request", f"{op} needs a string 'relation'")
            if not _is_row_list(rows):
                raise ProtocolError(
                    "invalid_request", f"{op} needs 'rows' as a list of arrays"
                )
            if relation not in database.catalog:
                raise ProtocolError(
                    "invalid_request", f"tenant {tenant!r} has no relation {relation!r}"
                )
            if not _is_row_list(updates):
                raise ProtocolError(
                    "invalid_request", "update_rows needs 'updates' as a list of arrays"
                )

            write_id = frame.get("request_id")

            def work_write(_op: str = op, _updates: Any = updates) -> Dict[str, Any]:
                decoded = [decode_row(row) for row in rows]
                if _op == "load_rows":
                    receipt = database.apply_write(relation, decoded, request_id=write_id)
                elif _op == "delete_rows":
                    receipt = database.apply_delete(relation, decoded, request_id=write_id)
                else:
                    replacements = [decode_row(row) for row in _updates]
                    receipt = database.apply_update(
                        relation, decoded, replacements, request_id=write_id
                    )
                changed = sum(receipt.get(key, 0) for key in ("appended", "deleted", "inserted"))
                if receipt["deduplicated"]:
                    with self._stats_lock:
                        self.stats.deduplicated_writes += 1
                elif changed and self.result_cache is not None:
                    self.result_cache.invalidate_relation(tenant, relation)
                return {
                    **receipt,
                    "relation": relation,
                    "catalog_version": database.catalog.version,
                }

            return _Admitted(request_id, work_write, respond, deadline, is_write=True)

        if op == "prepare":
            sql = frame.get("sql")
            if not isinstance(sql, str) or not sql.strip():
                raise ProtocolError("invalid_request", "prepare needs non-empty 'sql'")
            statement_id = f"s{next(self._statement_ids)}"

            def work_prepare() -> Dict[str, Any]:
                prepared = database.connect(engine=engine).prepare(sql)
                statements[statement_id] = _PreparedEntry(
                    statement_id=statement_id,
                    tenant=tenant,
                    engine=engine,
                    sql=sql,
                    prepared=prepared,
                    parameter_names=tuple(prepared.parameter_names),
                    read_set=prepared.spec.read_set(),
                )
                return {
                    "statement": statement_id,
                    "engine": engine,
                    "parameters": list(prepared.parameter_names),
                    "parameter_types": dict(prepared.parameter_types),
                }

            return _Admitted(request_id, work_prepare, respond, deadline)

        if op == "explain":
            sql = frame.get("sql")
            if not isinstance(sql, str) or not sql.strip():
                raise ProtocolError("invalid_request", "explain needs non-empty 'sql'")
            params = decode_params(frame.get("params"))
            analyze = bool(frame.get("analyze", False))

            def work_explain() -> Dict[str, Any]:
                plan = database.connect(engine=engine).explain(
                    sql, params=params, analyze=analyze
                )
                return {"plan": plan, "engine": engine}

            return _Admitted(request_id, work_explain, respond, deadline)

        # execute / execute_prepared: the read path, result-cache aware
        if op == "execute":
            sql = frame.get("sql")
            if not isinstance(sql, str) or not sql.strip():
                raise ProtocolError("invalid_request", "execute needs non-empty 'sql'")

            def runner(params: Any, fill: Optional[_CacheFill], _sql: str = sql) -> Any:
                session = database.connect(engine=engine)
                # bind first: the read set comes from the bound statement
                spec = session.prepare(_sql, name="query").spec
                if fill is not None:
                    fill.take_stamp(database, spec.read_set())
                return session.execute(spec, params=params)

        else:  # execute_prepared
            statement_id = frame.get("statement")
            entry = statements.get(statement_id) if isinstance(statement_id, str) else None
            if entry is None:
                raise ProtocolError(
                    "unknown_statement",
                    f"unknown statement {statement_id!r} on this connection",
                )
            if entry.tenant != tenant:
                raise ProtocolError(
                    "invalid_request",
                    f"statement {statement_id!r} belongs to tenant {entry.tenant!r}",
                )
            sql = entry.sql
            engine = entry.engine

            def runner(
                params: Any, fill: Optional[_CacheFill], _entry: _PreparedEntry = entry
            ) -> Any:
                if fill is not None:
                    fill.take_stamp(database, _entry.read_set)
                return _entry.prepared.execute(params)

        try:
            params = decode_params(frame.get("params"))
        except WireFormatError as exc:
            raise ProtocolError("invalid_request", str(exc)) from exc

        fill: Optional[_CacheFill] = None
        if use_cache:
            fill = _CacheFill(ResultCache.make_key(tenant, engine, sql, params))
            cached = self.result_cache.lookup(fill.key, database.read_stamp)
            if cached is not None:
                raise _CachedResponse(
                    {"result_set": cached, "engine": engine, "cached": True}
                )

        def work_execute() -> Dict[str, Any]:
            result = runner(params, fill)
            return {
                "result_set": result.to_json(),
                "engine": engine,
                "cached": False,
            }

        return _Admitted(request_id, work_execute, respond, deadline, cache_fill=fill)

    # ------------------------------------------------------------------
    # the worker pool
    # ------------------------------------------------------------------
    def _reclaim_abandoned(self, future: Any) -> None:
        """Done-callback for an abandoned worker future.

        Cooperative cancellation means the thread notices its cancelled
        token at the next superstep/batch boundary and unwinds; this
        callback fires then, consumes the (expected) exception so it never
        logs as unretrieved, and returns the ``abandoned_running`` gauge
        toward zero — the property the leak-regression test asserts.
        """
        if not future.cancelled():
            future.exception()
        with self._stats_lock:
            self.stats.abandoned_running -= 1
            self.stats.workers_reclaimed += 1

    async def _worker_loop(self) -> None:
        assert self._queue is not None
        assert self._pool is not None
        loop = asyncio.get_running_loop()
        while True:
            request = await self._queue.get()
            try:
                maybe_fire("serve.dispatch")
                remaining = request.deadline - loop.time()
                if remaining <= 0:
                    with self._stats_lock:
                        self.stats.timeouts_queued += 1
                    await request.respond(
                        error_frame(
                            request.request_id,
                            "deadline_exceeded",
                            "deadline expired while queued",
                            where="queue",
                        )
                    )
                    continue
                # the token is the cooperative kill switch: it expires on
                # its own at the deadline (engines poll it at superstep /
                # batch boundaries) and is cancelled explicitly the moment
                # the event loop gives up waiting
                token = CancellationToken.with_timeout(
                    remaining, reason="deadline exceeded"
                )
                work = request.work

                def run_with_token(
                    _work: Callable[[], Dict[str, Any]] = work,
                    _token: CancellationToken = token,
                ) -> Dict[str, Any]:
                    with cancel_scope(_token):
                        return _work()

                future = self._pool.submit(run_with_token)
                try:
                    # shield: a wait_for timeout must abandon the thread,
                    # not cancel the wrapper and lose its eventual result
                    payload = await asyncio.wait_for(
                        asyncio.shield(asyncio.wrap_future(future)), remaining
                    )
                except QueryCancelled:
                    # the thread noticed its expired token before the event
                    # loop timed out: same outcome, nothing abandoned
                    with self._stats_lock:
                        self.stats.timeouts_running += 1
                    await request.respond(
                        error_frame(
                            request.request_id,
                            "deadline_exceeded",
                            "deadline expired during execution (cancelled)",
                            where="execute",
                        )
                    )
                    continue
                except LockTimeout as exc:
                    # a writer stuck behind a reader storm: the write was
                    # never applied, so the client may safely retry
                    with self._stats_lock:
                        self.stats.errors += 1
                    await request.respond(
                        error_frame(
                            request.request_id,
                            "overloaded",
                            str(exc),
                            waited_seconds=exc.waited_seconds,
                        )
                    )
                    continue
                except asyncio.TimeoutError:
                    # the thread cannot be interrupted pre-emptively: cancel
                    # its token, count it as abandoned-and-running, and let
                    # the done-callback reclaim it when cancellation lands
                    token.cancel("deadline exceeded")
                    with self._stats_lock:
                        self.stats.timeouts_running += 1
                        self.stats.abandoned_workers += 1
                        self.stats.abandoned_running += 1
                    future.add_done_callback(self._reclaim_abandoned)
                    await request.respond(
                        error_frame(
                            request.request_id,
                            "deadline_exceeded",
                            "deadline expired during execution",
                            where="execute",
                        )
                    )
                    continue
                except ProtocolError as exc:
                    with self._stats_lock:
                        self.stats.errors += 1
                    await request.respond(
                        error_frame(request.request_id, exc.code, exc.message)
                    )
                    continue
                except Exception as exc:  # noqa: BLE001 — boundary: errors become frames
                    with self._stats_lock:
                        self.stats.errors += 1
                    await request.respond(
                        error_frame(
                            request.request_id,
                            "execution_error",
                            f"{type(exc).__name__}: {exc}",
                            exception=type(exc).__name__,
                        )
                    )
                    continue
                fill = request.cache_fill
                if fill is not None and fill.stamp is not None:
                    self.result_cache.store(
                        fill.key, payload["result_set"], fill.tables, fill.stamp
                    )
                with self._stats_lock:
                    self.stats.completed += 1
                await request.respond(ok_frame(request.request_id, payload))
            except asyncio.CancelledError:
                raise
            except (ConnectionResetError, BrokenPipeError):
                continue  # client went away; nothing to answer
            finally:
                self._queue.task_done()


# ----------------------------------------------------------------------
# standalone entry point: serve the mini TPC-H workload
# ----------------------------------------------------------------------
def _is_row_list(value: Any) -> bool:
    """A write frame's ``rows`` / ``updates``: a list of arrays."""
    return isinstance(value, list) and all(isinstance(row, list) for row in value)


def main(argv: Optional[list] = None) -> int:
    """``python -m repro.serve.server`` — a TPC-H tenant on localhost."""
    import argparse

    from ..workloads import tpch_workload

    parser = argparse.ArgumentParser(description="repro JSON-line query server")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7433)
    parser.add_argument("--scale", type=float, default=0.05, help="TPC-H mini scale factor")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--engine", default="tag")
    parser.add_argument("--pool-size", type=int, default=4)
    parser.add_argument("--queue-depth", type=int, default=64)
    parser.add_argument("--plan-cache-path", default=None,
                        help="persist/warm the plan cache at this path")
    parser.add_argument("--data-dir", default=None,
                        help="durable data directory (WAL + snapshots); "
                             "recovers on start, plan manifest lives inside")
    parser.add_argument("--no-wal-fsync", action="store_true",
                        help="buffered WAL writes (benchmarks only; crash "
                             "durability is NOT guaranteed)")
    parser.add_argument("--failpoints", default=None,
                        help="fault-injection spec, e.g. "
                             "'wal.append.after_write=crash@3' "
                             "(also honours REPRO_FAILPOINTS)")
    args = parser.parse_args(argv)

    if args.failpoints:
        from ..durability.failpoints import install

        install(args.failpoints)

    workload = tpch_workload(scale=args.scale, seed=args.seed)
    database = Database.from_catalog(
        workload.catalog,
        engine=args.engine,
        plan_cache_path=args.plan_cache_path,
        data_dir=args.data_dir,
        wal_fsync=not args.no_wal_fsync,
    )
    config = ServerConfig(
        host=args.host,
        port=args.port,
        pool_size=args.pool_size,
        max_queue_depth=args.queue_depth,
    )

    async def run() -> None:
        server = QueryServer(database, config)
        await server.start()
        print(f"serving tpch@{args.scale} on {server.host}:{server.port}")
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover - manual entry point
    raise SystemExit(main())
