"""The session-oriented public API: ``Database`` -> ``Session`` -> results.

One :class:`Database` owns everything the paper builds *once per dataset*
— the query-independent TAG encoding and one shared
:class:`~repro.planner.cache.PlanCache` — and hands out lightweight
:class:`Session` objects that execute SQL (optionally parameterized),
prepare statements and render cross-engine EXPLAIN plans.  Every planner
prices plans from the same live statistics view of the catalog (exact
counts its column stores keep), and every executor created through the
facade shares the one plan cache, so plan reuse is automatic across
sessions and across parameter values:

    db = Database.from_catalog(catalog)            # wraps the catalog
    with db.connect() as session:
        hot = session.prepare(
            "SELECT COUNT(*) AS n FROM ORDERS o WHERE o.O_TOTAL > :t")
        hot.execute({"t": 50})                     # compiles (one cache miss)
        hot.execute({"t": 500})                    # warm: plan-cache hit
        print(session.explain(hot.sql))            # rooted join tree + costs

Writes — :meth:`Database.load_rows`, :meth:`~Database.delete_rows` and
:meth:`~Database.update_rows` — each become one
:class:`~repro.incremental.delta.Delta` (tombstoned rows plus appended
rows) and run one pipeline: dedup the request id, validate, log one WAL
record, then apply — the relation tombstones and appends (its column
store keeps the statistics exact, so there is nothing to fold), tuple
vertices leave and join the existing TAG encoding in place, executors are
patched through their one ``apply`` hook, delta-mode and aggregate
materialized views fold the bag delta of counting delete terms and
seminaïve insert terms over only the touched vertices (aggregate views
into per-group partial state), and recompute-mode views rebuild once.  A
failure mid-apply rolls the whole delta back.  Compiled plans survive
every data-only write (their cache keys depend only on the schema
version); only schema changes or an explicit out-of-band
:meth:`Database.note_data_change` fall back to the old scorched-earth
rebuild.  Writers serialize against in-flight readers on a
reader/writer lock, so sessions never observe a half-applied delta.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..algebra.expressions import Between, ColumnRef, Comparison, Expression, InList
from ..algebra.logical import QuerySpec
from ..algebra.parameters import (
    ParamsInput,
    bind_parameters,
    check_parameter_types,
    iter_subexpressions,
    normalize_parameters,
    spec_parameters,
)
from ..core.executor import QueryResult, StaleEngineError
from ..durability.failpoints import maybe_fire
from ..incremental.delta import Delta, patch_graph, resolve_delta
from ..incremental.locks import ReadWriteLock
from ..incremental.maintenance import MaintenanceCounters
from ..planner import PlanCache
from ..relational.catalog import Catalog
from ..tag.statistics import CatalogStatistics
from .registry import Engine, EngineContext, create_engine, resolve_engine_name

#: what :meth:`Database.read_stamp` returns: (schema version, out-of-band
#: changes, per-relation (mutation_count, physical_count) or None)
ReadStamp = Tuple[int, int, Tuple[Optional[Tuple[int, int]], ...]]

#: what the statement cache is keyed by: (engine, SQL text, spec name,
#: catalog schema version)
StatementKey = Tuple[str, str, str, int]


@dataclass(frozen=True)
class BoundStatement:
    """SQL text bound against one schema version: the spec plus its
    parameters' names and inferred types.  Shared by every session that
    prepares the same text, so nothing may write to it after binding."""

    spec: QuerySpec
    parameter_names: Tuple[str, ...]
    parameter_types: Mapping[str, str]


class Database:
    """A loaded database plus every engine that can query it.

    The database keeps no statistics of its own: :attr:`statistics` is a
    view over the catalog, read live by every planner.

    Args:
        catalog: the relational instance all engines share.
        engine: default engine name for new sessions (registry name/alias).
        num_workers: simulated worker count for the TAG/distributed engines.
        plan_cache: a shared compiled-plan cache; one is created when omitted.
        plan_cache_path: when set, :meth:`close` persists a statement
            manifest here and :meth:`warm_plan_cache` replays it at startup
            so a restarted process skips recompilation (the serving layer's
            warm start).
        engine_options: per-engine keyword overrides, e.g.
            ``{"tag": {"cross_check_plans": True}, "spark": {"num_partitions": 8}}``.
        data_dir: when set, the database is *durable*: every write
            delta (insert, delete or update) is written to an fsync'd
            write-ahead log under this directory before it applies,
            periodic snapshots bound replay time, and construction
            **recovers** — the latest valid snapshot is loaded, the WAL
            suffix replayed, registered views re-materialized, and the
            plan cache warmed from the persisted manifest (``plan_cache_path`` defaults to
            ``data_dir/plan_manifest.json``).  See
            :mod:`repro.durability`.
        wal_fsync: fsync the WAL on every append (the durability default);
            ``False`` trades machine-crash durability for write latency
            (process crashes still lose nothing).
        snapshot_every: WAL records between automatic snapshots.
    """

    #: bound statements retained for reuse and manifest persistence (LRU)
    _STATEMENT_LOG_ENTRIES = 512

    def __init__(
        self,
        catalog: Catalog,
        engine: str = "tag",
        num_workers: int = 1,
        plan_cache: Optional[PlanCache] = None,
        plan_cache_entries: int = 256,
        plan_cache_path: Optional[str] = None,
        engine_options: Optional[Dict[str, Dict[str, Any]]] = None,
        graph: Optional[Any] = None,
        data_dir: Optional[str] = None,
        wal_fsync: bool = True,
        snapshot_every: int = 256,
    ) -> None:
        self.catalog = catalog
        self.default_engine = resolve_engine_name(engine)
        self.num_workers = num_workers
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache(plan_cache_entries)
        self.plan_cache_path = plan_cache_path
        self.engine_options = {
            resolve_engine_name(name): dict(options)
            for name, options in (engine_options or {}).items()
        }
        # accept a pre-encoded TAG graph (bench harnesses encode once and
        # share it); it is still re-encoded if the data version moves on
        self._graph: Optional[Any] = graph
        self._graph_version: Optional[int] = catalog.version if graph is not None else None
        self._engines: Dict[str, Engine] = {}
        self._engine_versions: Dict[str, int] = {}
        #: the statement cache: every text Session.prepare bound, so the
        #: same text binds once per schema version, and close() persists a
        #: warm-start manifest of every query shape (see bind_statement)
        self._statement_log: "OrderedDict[StatementKey, BoundStatement]" = OrderedDict()
        self._closed = False
        self._lock = threading.RLock()
        #: readers (query executions) share; writers (delta application,
        #: view refresh) get exclusivity — see Session._run_rebinding
        self._rw_lock = ReadWriteLock()
        #: registered materialized views by name
        self._views: "OrderedDict[str, Any]" = OrderedDict()
        #: each materialized view draws its generation from here
        self._view_generations = itertools.count(1)
        #: moved only by note_data_change: rows edited behind the write
        #: pipeline move no relation's stamp, so read stamps carry this
        self._out_of_band_changes = 0
        #: what incremental maintenance did; mutated under _lock
        self.maintenance = MaintenanceCounters()
        #: durability: WAL + snapshots + idempotency (None = memory-only)
        self._durability = None
        self.recovery_report: Optional[Dict[str, Any]] = None
        self.warm_start_report: Optional[Dict[str, Any]] = None
        if data_dir is not None:
            from ..durability import DurabilityManager

            self._durability = DurabilityManager(
                data_dir, fsync=wal_fsync, snapshot_every=snapshot_every
            )
            if self.plan_cache_path is None:
                self.plan_cache_path = self._durability.plan_manifest_path
            # recover durable state (snapshot + WAL replay + views), then
            # layer the plan-manifest warm start on top of the recovered
            # catalog — the manifest matches by schema fingerprint, which
            # recovery cannot have changed
            self.recovery_report = self._durability.recover(self)
            self.warm_start_report = self.warm_plan_cache()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_catalog(cls, catalog: Catalog, **kwargs: Any) -> "Database":
        """The blessed constructor: wrap an already-populated catalog."""
        return cls(catalog, **kwargs)

    # ------------------------------------------------------------------
    # shared, invalidation-aware resources
    # ------------------------------------------------------------------
    def tag_graph(self) -> Any:
        """The TAG encoding of the catalog, built once and per data version."""
        from ..tag.encoder import encode_catalog

        with self._lock:
            if self._graph is None or self._graph_version != self.catalog.version:
                rebuilding = self._graph is not None
                started = time.perf_counter()
                self._graph = encode_catalog(self.catalog)
                self._graph_version = self.catalog.version
                if rebuilding:
                    elapsed = time.perf_counter() - started
                    self.maintenance.full_rebuild_seconds += elapsed
                    self.maintenance.last_rebuild_seconds = elapsed
            return self._graph

    @property
    def statistics(self) -> CatalogStatistics:
        """The live statistics view every planner reads (nothing cached)."""
        return CatalogStatistics(self.catalog)

    def engine(self, name: Optional[str] = None) -> Engine:
        """The (cached) engine instance registered under ``name``.

        Engines are rebuilt lazily after :meth:`note_data_change` so the
        TAG engine always queries the current encoding.
        """
        canonical = resolve_engine_name(name or self.default_engine)
        with self._lock:
            self._check_open()
            cached = self._engines.get(canonical)
            if (
                cached is not None
                and not getattr(cached, "retired", False)
                and self._engine_versions.get(canonical) == self.catalog.version
            ):
                return cached
            context = EngineContext(
                catalog=self.catalog,
                tag_graph=self.tag_graph,
                plan_cache=self.plan_cache,
                num_workers=self.num_workers,
                options=self.engine_options.get(canonical, {}),
            )
            engine = create_engine(canonical, context)
            self._engines[canonical] = engine
            self._engine_versions[canonical] = self.catalog.version
            return engine

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def connect(self, engine: Optional[str] = None) -> "Session":
        """Open a session (cheap; any number may be open concurrently)."""
        self._check_open()
        return Session(self, engine=engine or self.default_engine)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                f"Database({self.catalog.name!r}) is closed; create a new one "
                "to keep querying"
            )

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Database":
        self._check_open()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Retire every executor and flush the persisted plan-cache manifest.

        Idempotent.  When ``plan_cache_path`` is configured the statement
        manifest is written *before* the executors go away, so the next
        process can :meth:`warm_plan_cache` from it.  A durable database
        additionally takes a final snapshot (compacting the WAL), so the
        next open replays nothing.  After closing, new sessions/engines
        raise ``RuntimeError``; sessions already holding this database
        fail on their next engine resolution.
        """
        with self._lock:
            if self._closed:
                return
            if self.plan_cache_path is not None:
                try:
                    self.flush_plan_manifest()
                except OSError:
                    pass  # a read-only disk must not wedge shutdown
            if self._durability is not None:
                try:
                    if self._durability.records_since_snapshot:
                        self._durability.snapshot(self)
                except OSError:
                    pass  # clean-close snapshot is an optimization only
                self._durability.close()
            for engine in self._engines.values():
                retire = getattr(engine, "retire", None)
                if callable(retire):
                    retire(f"database {self.catalog.name!r} closed")
            self._engines.clear()
            self._engine_versions.clear()
            self._closed = True

    # ------------------------------------------------------------------
    # persisted plan cache (warm starts)
    # ------------------------------------------------------------------
    def bind_statement(self, engine_name: str, sql: str, name: str) -> BoundStatement:
        """``sql`` parsed and bound as the spec ``name``, through the statement cache.

        The cache holds the last 512 statements, keyed by engine, text,
        name and the catalog's schema version: binding reads only schemas,
        so a data-only write keeps every entry, and creating or dropping
        a relation rebinds.  It caches bindings, never results.  Two
        threads binding one new text at once may both parse it; the first
        to finish is kept, and both get that entry.
        """
        from ..sql import parse_and_bind

        key = (engine_name, sql, name, self.catalog.schema_version)
        with self._lock:
            bound = self._statement_log.get(key)
            if bound is not None:
                self._statement_log.move_to_end(key)
                return bound
        spec = parse_and_bind(sql, self.catalog, name=name)
        bound = BoundStatement(
            spec, tuple(spec_parameters(spec)), infer_parameter_types(spec, self.catalog)
        )
        with self._lock:
            bound = self._statement_log.setdefault(key, bound)
            self._statement_log.move_to_end(key)
            while len(self._statement_log) > self._STATEMENT_LOG_ENTRIES:
                self._statement_log.popitem(last=False)
        return bound

    def flush_plan_manifest(self, path: Optional[str] = None) -> Optional[str]:
        """Persist every recorded statement as a warm-start manifest.

        Returns the path written, or ``None`` when no path is configured.
        Fingerprints are computed at flush time against the *current*
        catalog version, so a manifest is always internally consistent
        even if statements were prepared before a data change.
        """
        from ..planner.persist import PlanManifest, PlanManifestEntry, save_manifest

        path = path if path is not None else self.plan_cache_path
        if path is None:
            return None
        with self._lock:
            recorded = list(self._statement_log.items())
        # one entry per (engine, text): the most recently bound spec
        latest = {(key[0], key[1]): bound.spec for key, bound in recorded}
        entries = []
        for (engine_name, sql), spec in latest.items():
            fingerprint = None
            try:
                fingerprinter = getattr(self.engine(engine_name), "fragment_fingerprint", None)
                if callable(fingerprinter):
                    fingerprint = fingerprinter(spec)
            except Exception:
                fingerprint = None  # unfingerprintable shapes still warm from SQL
            entries.append(PlanManifestEntry(engine=engine_name, sql=sql, fingerprint=fingerprint))
        manifest = PlanManifest.for_catalog(self.catalog, entries)
        return save_manifest(path, manifest)

    def warm_plan_cache(self, path: Optional[str] = None) -> Dict[str, Any]:
        """Replay a persisted manifest: parse, bind and compile every entry.

        Warming happens through each engine's ``prepare_plan`` hook, which
        stores compiled fragments in the shared plan cache without
        executing anything — afterwards the first live execution of every
        warmed shape is a cache hit (zero compilations).  Entries are
        skipped (never fatal) when the manifest is missing/corrupt, was
        recorded against a different catalog version, names an engine
        without a plan cache, or no longer parses.  Returns a report:
        ``{"path", "matched", "entries", "warmed", "skipped"}``.
        """
        from ..planner.persist import load_manifest

        path = path if path is not None else self.plan_cache_path
        report: Dict[str, Any] = {
            "path": path,
            "matched": False,
            "entries": 0,
            "warmed": 0,
            "skipped": 0,
        }
        if path is None:
            return report
        manifest = load_manifest(path)
        if manifest is None:
            return report
        report["entries"] = len(manifest.entries)
        if not manifest.matches_catalog(self.catalog):
            report["skipped"] = len(manifest.entries)
            return report
        report["matched"] = True
        for entry in manifest.entries:
            try:
                canonical = resolve_engine_name(entry.engine)
                prepare = getattr(self.engine(canonical), "prepare_plan", None)
                if not callable(prepare):
                    report["skipped"] += 1
                    continue
                # binding also keeps the recipe for the next close() to persist
                spec = self.bind_statement(canonical, entry.sql, "warm").spec
                if prepare(spec):
                    report["warmed"] += 1
                else:
                    report["skipped"] += 1
            except Exception:
                report["skipped"] += 1  # schema drift etc.; warm the rest
        return report

    # ------------------------------------------------------------------
    # batched concurrent execution
    # ------------------------------------------------------------------
    def execute_many(
        self,
        queries: Sequence[Union[str, QuerySpec, Tuple[Union[str, QuerySpec], ParamsInput]]],
        params: Optional[Sequence[ParamsInput]] = None,
        engine: Optional[str] = None,
        max_workers: Optional[int] = None,
        mode: str = "thread",
    ) -> List["QueryResult"]:
        """Execute a batch of queries concurrently; results in input order.

        Each entry of ``queries`` is SQL text, a bound :class:`QuerySpec`,
        or a ``(query, params)`` pair; alternatively ``params`` supplies one
        binding per query positionally.  Executions fan out over
        ``max_workers`` workers (default ``min(4, cpu_count, len(batch))``)
        against the one immutable encoded graph: per-run vertex state is
        run-scoped and parameter bindings are context-local, so no
        serialization happens anywhere on the query path and every worker's
        result is identical to what a serial loop would produce.

        ``mode`` selects the worker kind:

        * ``"thread"`` (default) — a thread pool.  Plan-cache and
          statistics counters accumulate normally; per-query wall time is
          unchanged, and throughput is bounded by the interpreter (the GIL
          serializes pure-Python compute even though nothing in this
          library does anymore).
        * ``"process"`` — fork-based worker processes (POSIX only; falls
          back to threads where ``fork`` is unavailable).  Children inherit
          the encoded graph, statistics and warm plan cache copy-on-write,
          so the batch runs with real hardware parallelism; cache/statistic
          counter updates made inside children are not reflected back.
          Queries and results must be picklable.  The known query-path
          locks are held across the fork, but forking while *other*
          threads are concurrently executing against or mutating this
          database is not supported (the usual ``fork``-plus-threads
          caveat); run process batches from a quiet point.

        The first failing query's exception is re-raised after the batch
        drains.
        """
        if mode not in ("thread", "process"):
            raise ValueError(f"unknown execute_many mode {mode!r} (thread or process)")
        queries = list(queries)  # accept any iterable; we traverse it twice
        if params is not None:
            params = list(params)
            if len(params) != len(queries):
                raise ValueError(
                    f"params supplies {len(params)} bindings for {len(queries)} queries"
                )
            if any(isinstance(query, tuple) for query in queries):
                raise ValueError(
                    "pass bindings either inline as (query, params) tuples or "
                    "positionally via params=, not both"
                )
            items: List[Tuple[Union[str, QuerySpec], ParamsInput]] = list(zip(queries, params))
        else:
            items = [
                item if isinstance(item, tuple) else (item, None)  # type: ignore[list-item]
                for item in queries
            ]
        if not items:
            return []
        session = self.connect(engine=engine)
        session.engine  # resolve (and lazily build) the engine once, up front
        if max_workers is None:
            max_workers = min(4, os.cpu_count() or 1)
        # never spawn more workers than there is work (also for explicit values)
        max_workers = max(1, min(max_workers, len(items)))

        def run_one(item: Tuple[Union[str, QuerySpec], ParamsInput]) -> "QueryResult":
            query, bindings = item
            if isinstance(query, QuerySpec):
                return session.execute(query, params=bindings)
            return session.sql(query, params=bindings)

        if max_workers == 1:
            return [run_one(item) for item in items]
        if mode == "process" and hasattr(os, "fork"):
            return self._execute_many_forked(items, session.engine_name, max_workers)
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            futures = [pool.submit(run_one, item) for item in items]
            return [future.result() for future in futures]

    def _execute_many_forked(
        self,
        items: List[Tuple[Union[str, QuerySpec], ParamsInput]],
        engine_name: str,
        max_workers: int,
    ) -> List["QueryResult"]:
        """Fan a batch out over forked worker processes.

        The workers are forked *after* the engine, graph, statistics and
        plan cache are warm, so they share the expensive read-only state
        with the parent copy-on-write.  The database reaches each worker
        through the pool's *initializer* — with the fork start method its
        arguments are inherited by reference, never pickled — so a worker
        respawned later (e.g. after an OOM kill) rebinds the right
        database too.  The locks every child query path acquires (this
        database's, the shared plan cache's, the engine registry's) are
        held across the initial fork; the forking thread survives into
        each child as its main thread and the locks are re-entrant or
        released, so children start with them in an acquirable state.
        """
        import multiprocessing

        from .registry import _REGISTRY_LOCK

        context = multiprocessing.get_context("fork")
        chunksize = max(1, len(items) // (max_workers * 4))
        with self._lock, self.plan_cache._lock, _REGISTRY_LOCK:
            pool = context.Pool(
                processes=max_workers,
                initializer=_forked_worker_init,
                initargs=(self, engine_name),
            )
        try:
            return pool.map(_forked_batch_worker, items, chunksize=chunksize)
        finally:
            pool.close()
            pool.join()

    # ------------------------------------------------------------------
    # data changes: one write pipeline
    # ------------------------------------------------------------------
    def load_rows(
        self,
        relation_name: str,
        rows: Iterable[Sequence[Any]],
        request_id: Optional[str] = None,
    ) -> int:
        """Bulk-append rows to a relation, maintaining dependent state in place.

        This is the incremental write path: when the TAG graph and the
        cached executors are current, the new rows are *applied as a
        delta* — appended to the relation (whose column store keeps the
        statistics exact), appended to the graph encoding, indexed by
        each engine's ``apply`` hook, and propagated into registered
        materialized views — instead of invalidating everything.
        Compiled plans are retained across the write because their cache
        keys depend only on the schema version.  An empty iterable is a
        complete no-op: no version bump, no cache activity, no engine
        churn.

        On a durable database (``data_dir=``) the delta is validated,
        written to the WAL and fsync'd *before* it applies, and
        ``request_id`` makes the write idempotent: a retry of an
        already-applied id is acknowledged without re-applying (see
        :meth:`apply_write` for the detailed receipt).

        Writers exclude in-flight readers via the database's
        reader/writer lock, so a concurrent session either sees the full
        pre-write state or the full post-write state, never a torn delta.
        """
        return int(self.apply_write(relation_name, rows, request_id=request_id)["appended"])

    def apply_write(
        self,
        relation_name: str,
        rows: Iterable[Sequence[Any]],
        request_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """:meth:`load_rows` returning a full receipt.

        Returns ``{"appended", "deduplicated", "lsn"}`` where ``lsn`` is
        the write-ahead-log sequence number that made the write durable
        (``None`` on a memory-only database) and ``deduplicated`` is True
        when ``request_id`` was already applied — the retry contract: the
        serving layer acknowledges the *original* application instead of
        applying twice (a deduplicated receipt adds ``first_applied``, the
        row count the original application changed).  The ordering
        guarantees are :meth:`_write`'s.
        """
        receipt = self._write(relation_name, None, rows, request_id)
        del receipt["deleted"]
        receipt["appended"] = receipt.pop("inserted")
        return receipt

    def delete_rows(
        self,
        relation_name: str,
        predicate_or_rows: Union[Any, Iterable[Sequence[Any]]],
        request_id: Optional[str] = None,
    ) -> int:
        """Delete rows, maintaining dependent state in place; returns count.

        ``predicate_or_rows`` selects the victims: a callable receives
        each live row (a value tuple) and returns truthiness, anything
        else is an iterable of row values deleted with bag semantics
        (each given row removes exactly one live occurrence; a row with
        no live match raises ``KeyError``).

        A delete is a delta with an empty plus half: rows are
        *tombstoned* (physical positions never shift), the matching tuple
        vertices leave the TAG graph with shared attribute vertices freed
        by refcount, the column store drops the rows from the exact
        counts the statistics read, engines patch through their
        ``apply`` hook, and delta-maintained views are
        counting-maintained by telescoped delete terms run against the
        pre-delete graph.  Compiled plans survive — cache keys depend
        only on the schema version, which a delete never moves.

        On a durable database the deleted row *values* are WAL-logged
        before anything applies, and ``request_id`` makes the delete
        idempotent exactly like a write.
        """
        receipt = self.apply_delete(relation_name, predicate_or_rows, request_id=request_id)
        return int(receipt["deleted"])

    def apply_delete(
        self,
        relation_name: str,
        predicate_or_rows: Union[Any, Iterable[Sequence[Any]]],
        request_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """:meth:`delete_rows` returning a full receipt: ``{"deleted",
        "deduplicated", "lsn"}`` with :meth:`apply_write`'s retry contract."""
        receipt = self._write(relation_name, predicate_or_rows, (), request_id)
        del receipt["inserted"]
        return receipt

    def update_rows(
        self,
        relation_name: str,
        predicate_or_rows: Union[Any, Iterable[Sequence[Any]]],
        updater_or_rows: Union[Any, Iterable[Sequence[Any]]],
        request_id: Optional[str] = None,
    ) -> int:
        """Update rows as one delete + insert delta; returns the number of
        rows replaced.

        ``predicate_or_rows`` selects the victims exactly as in
        :meth:`delete_rows`.  ``updater_or_rows`` produces the
        replacements: a callable maps each victim row (a value tuple) to
        its replacement — either a full row sequence or a
        ``column -> value`` mapping merged over the old values — a bare
        mapping is that same merge applied to every victim (the SQL
        ``UPDATE ... SET`` shape), and any other iterable is inserted as
        given (the two halves need not pair up; an update *is* a delete
        plus an insert).
        """
        return int(
            self.apply_update(
                relation_name, predicate_or_rows, updater_or_rows, request_id=request_id
            )["deleted"]
        )

    def apply_update(
        self,
        relation_name: str,
        predicate_or_rows: Union[Any, Iterable[Sequence[Any]]],
        updater_or_rows: Union[Any, Iterable[Sequence[Any]]],
        request_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """:meth:`update_rows` returning a full receipt.

        Returns ``{"deleted", "inserted", "deduplicated", "lsn"}``.  Both
        halves are one delta: one WAL record under one ``request_id``,
        one apply, one rollback.  Recovery replays delete-then-insert
        together or (on dedup) neither, a failure mid-apply undoes both,
        and no reader ever observes the delete without the insert.
        """
        return self._write(relation_name, predicate_or_rows, updater_or_rows, request_id)

    def _write(
        self,
        relation_name: str,
        victims: Any,
        inserts: Any,
        request_id: Optional[str],
    ) -> Dict[str, Any]:
        """The one write pipeline every insert, delete and update runs.

        Under the writer lock: a ``request_id`` already applied is
        acknowledged without re-applying (checked *before* resolution —
        a retried delete's victims are already gone); the victims and
        replacements resolve into one validated
        :class:`~repro.incremental.delta.Delta` (see
        :func:`~repro.incremental.delta.resolve_delta` for the shapes);
        a durable database logs it as one fsync'd WAL record (a record
        that cannot replay is never logged); :meth:`_apply` patches every
        derived structure or rolls the whole delta back; and only then is
        the id noted as applied and a snapshot considered (one that fails
        is retried by the next write, never failing this one).  An
        acknowledged write is therefore always recoverable, and an
        unacknowledged one either never hit the WAL (the retry applies it
        once) or hit it without the ack (recovery replays it and the
        retry dedups).  Returns ``{"deleted", "inserted",
        "deduplicated", "lsn"}`` (+ ``first_applied`` when deduplicated).
        """
        relation = self.catalog.relation(relation_name)  # raise before locking
        with self._rw_lock.write_locked(), self._lock:
            self._check_open()
            durability = self._durability
            already = durability.applied(request_id) if durability is not None else None
            if already is not None:
                return {
                    "deleted": 0,
                    "inserted": 0,
                    "deduplicated": True,
                    "lsn": durability.wal.last_lsn,
                    "first_applied": already,
                }
            delta = resolve_delta(relation, victims, inserts)
            if not delta.rows_changed:
                self.maintenance.empty_loads_ignored += 1
                return {"deleted": 0, "inserted": 0, "deduplicated": False, "lsn": None}
            lsn = durability.log_delta(delta, request_id) if durability is not None else None
            self._apply(relation, delta)
            if durability is not None:
                durability.note_applied(request_id, delta.rows_changed)
                durability.maybe_snapshot(self)
            return {
                "deleted": len(delta.deleted_rows),
                "inserted": len(delta.inserted_rows),
                "deduplicated": False,
                "lsn": lsn,
            }

    def _apply(self, relation: Any, delta: Delta) -> None:
        """Apply ``delta`` to the relation and every derived structure.

        Caller holds the write lock and ``_lock``.  The relation's own
        tombstone and append move every count the statistics view reads,
        so no statistics step follows; :meth:`_patch_derived` patches the
        graph, the engines and the views.  Freshness is checked
        *before* the catalog version bumps: a resource already stale (from
        an earlier out-of-band change) is left for its usual lazy rebuild
        rather than patched on top of missing history.  A failure
        anywhere (fault injection, a refcount underflow, an engine hook
        blowing up) rolls back *both* halves — appended rows truncated,
        tombstoned rows restored — and retires every derived structure,
        so memory equals the pre-write state and a retry of the same
        logical write applies exactly once against a clean rebuild.
        """
        started = time.perf_counter()
        version_before = self.catalog.version
        # physical, not live: tuple vertex indexes, index positions and
        # rollback truncation all live in physical-position space, which
        # tombstone deletes never compact
        before = relation.physical_count
        # validates every position before mutating anything, so a raise
        # from here leaves nothing to roll back
        relation.delete_positions(delta.deleted_positions)
        try:
            relation.extend(delta.inserted_rows, validated=True)
            self._patch_derived(relation, delta, version_before, before, started)
        except BaseException:
            relation.truncate(before)
            relation.restore_positions(delta.deleted_positions)
            self.catalog.note_data_change()
            self._retire_derived(f"write to {relation.name!r} rolled back mid-apply")
            raise

    def _patch_derived(
        self, relation: Any, delta: Delta, version_before: int, before: int, started: float
    ) -> None:
        """Graph, engines and views for a delta the relation already holds
        (the body of :meth:`_apply`)."""
        from ..incremental.views import refresh_view

        catalog = self.catalog
        graph_fresh = self._graph is not None and self._graph_version == version_before
        catalog.note_data_change()
        counters = self.maintenance

        maybe_fire("delta.apply.before_graph_patch")
        affected = [view for view in self._views.values() if relation.name in view.read_set]
        # with a stale graph the delta terms have no history to join
        # against, so every affected view rebuilds instead
        maintained = [view for view in affected if graph_fresh and view.incremental]

        def refresh_maintained(touched: Iterable[int], sign: int) -> None:
            for view in maintained:
                view_started = time.perf_counter()
                refresh_view(view, self._graph, catalog, {relation.name: touched}, sign)
                if sign < 0:
                    counters.views_delete_refreshed += 1
                else:
                    counters.views_refreshed += 1
                counters.view_refresh_seconds += time.perf_counter() - view_started

        if delta.deleted_positions:
            # the delete terms MUST see the pre-delete graph: they join the
            # deleted tuples against state that still contains them
            refresh_maintained([position + 1 for position in delta.deleted_positions], -1)
        if graph_fresh:
            patch_graph(self._graph, relation.schema, delta)
            self._graph_version = catalog.version

        patched = dropped = 0
        for name, engine in list(self._engines.items()):
            hook = getattr(engine, "apply", None)
            engine_current = self._engine_versions.get(name) == version_before
            # engines holding the shared graph (the TAG family) are only
            # patchable when that graph was just patched too; catalog-backed
            # engines (rdbms, spark) are graph-independent
            graph_ok = graph_fresh or getattr(engine, "graph", None) is None
            if callable(hook) and engine_current and graph_ok:
                hook(delta, catalog.version)
                self._engine_versions[name] = catalog.version
                patched += 1
            else:
                # no hook (or the graph itself needs a rebuild): drop the
                # executor for a lazy rebuild — but do NOT retire it, so a
                # session mid-query drains against a consistent snapshot
                self._engines.pop(name)
                self._engine_versions.pop(name, None)
                dropped += 1

        counters.rows_applied += len(delta.inserted_rows)
        counters.rows_deleted += len(delta.deleted_rows)
        if graph_fresh:
            counters.deltas_applied += bool(delta.inserted_rows)
            counters.delete_deltas_applied += bool(delta.deleted_rows)
        else:
            counters.full_rebuilds += 1  # stale graph: lazy re-encode ahead
        counters.engines_patched += patched
        counters.engines_dropped += dropped
        counters.plans_retained = len(self.plan_cache)
        elapsed = time.perf_counter() - started
        counters.delta_apply_seconds += elapsed
        counters.last_delta_seconds = elapsed

        if delta.inserted_rows:
            # the insert terms need the patched graph: the appended tuple
            # vertices, indexes before + 1 .. physical_count, exist only now
            refresh_maintained(range(before + 1, relation.physical_count + 1), 1)
        # recompute-mode views go last, once per write, after the graph
        # patch: their engine run must not trigger a stale-graph re-encode
        for view in affected:
            if not (graph_fresh and view.incremental):
                view_started = time.perf_counter()
                self._rebuild_view(view)
                counters.views_recomputed += 1
                counters.view_refresh_seconds += time.perf_counter() - view_started
        maybe_fire("delta.apply.after_apply")

    def _retire_derived(self, reason: str) -> None:
        """After the catalog version moved without a delta: retire every
        cached engine and recompute every view (caller holds the locks)."""
        for engine in self._engines.values():
            retire = getattr(engine, "retire", None)
            if callable(retire):
                retire(reason)
        self._engines.clear()
        self._engine_versions.clear()
        self.maintenance.full_rebuilds += 1
        self.maintenance.plans_retained = len(self.plan_cache)
        for view in self._views.values():
            self._rebuild_view(view)
            self.maintenance.views_recomputed += 1

    def note_data_change(self) -> None:
        """Record an *out-of-band* data mutation: re-encode every relation's
        columns, bump the catalog version so the TAG encoding refreshes,
        and eagerly retire every cached engine.

        This is the scorched-earth fallback for mutations that bypassed
        :meth:`load_rows` (direct writes to relation row lists), where no
        delta is known.  Retiring the engines matters for correctness, not
        just freshness: an executor built against the old encoding would
        otherwise keep serving the stale graph to sessions that captured a
        reference.  The next :meth:`engine` call builds a fresh executor
        bound to the re-encoded graph; retired executors refuse further
        queries with :class:`~repro.core.executor.StaleEngineError`.
        Compiled plans are *retained* — their cache keys depend only on
        the schema, which an out-of-band data write cannot have changed.
        Materialized views are recomputed from scratch on the spot.
        """
        with self._rw_lock.write_locked(), self._lock:
            # the edited rows' codes are stale too: re-encode every
            # relation, which also redraws its layout epoch (no filter
            # verdict memo survives)
            for relation in self.catalog:
                relation.bind_encoding(self.catalog.encoding)
            self.catalog.note_data_change()
            self._out_of_band_changes += 1
            self._retire_derived(
                f"catalog {self.catalog.name!r} re-encoded at version "
                f"{self.catalog.version}"
            )
            if self._durability is not None:
                # out-of-band mutations bypassed the WAL; the only way to
                # make them durable is to capture the rows wholesale now
                self._durability.snapshot(self, rewrite_all=True)

    # ------------------------------------------------------------------
    # read stamps: what a cached result depends on
    # ------------------------------------------------------------------
    def read_stamp(self, tables: Iterable[str]) -> ReadStamp:
        """A value that moves whenever a result reading ``tables`` may change.

        It holds the schema version (replacing or dropping a relation
        moves it), the out-of-band change counter (moved by
        :meth:`note_data_change`) and each named relation's
        ``(mutation_count, physical_count)``.  The versions and mutation
        counts only grow (a row count shrinks only with a mutation), so a
        stamp never comes back once it moved: one taken before a read
        starts equals a later one only if nothing the read could see
        changed in between.  Costs
        O(len(tables)) and takes no lock: an event loop checking a cache
        entry never waits on a writer.
        """
        catalog = self.catalog
        return (
            catalog.schema_version,
            self._out_of_band_changes,
            tuple(_relation_stamp(catalog, name) for name in tables),
        )

    def view_stamp(self, name: str) -> Optional[Tuple[Tuple[str, ...], ReadStamp]]:
        """``(read set, stamp)`` of the materialized view ``name``, or None
        when there is none.

        The stamp pairs the view's generation with the read stamp of the
        relations it reads, so a view dropped and created again under one
        name never matches what its predecessor served.  Lock-free like
        :meth:`read_stamp` (one dict lookup, atomic under the GIL).
        """
        view = self._views.get(name)
        if view is None:
            return None
        return view.read_set, (view.generation, self.read_stamp(view.read_set))

    # ------------------------------------------------------------------
    # materialized views
    # ------------------------------------------------------------------
    def materialize(
        self, sql: str, name: Optional[str] = None, _durable_log: bool = True
    ) -> Dict[str, Any]:
        """Register ``sql`` as a materialized view and populate it.

        Connected blocks without subqueries or outer joins are maintained
        on each write from the bag delta of counting delete terms and
        seminaïve insert terms over only the touched vertices: a plain
        join/filter/projection view folds it into a keyed bag, an
        aggregate view (``COUNT/SUM/AVG/MIN/MAX/COUNT DISTINCT``, grouped
        or global) into per-group partial state, re-finalizing only the
        touched groups (float sums are exact over the live rows; see
        :mod:`repro.incremental.views`).  Views with subqueries, outer
        joins or a disconnected join graph are recomputed, once per
        write.  Parameterized statements are rejected.  Returns the
        view's info dict.

        On a durable database the view *definition* is WAL-logged (after
        validation, before population) so recovery re-materializes it;
        contents are never persisted — they are a function of the data.
        ``_durable_log=False`` is recovery's own re-entry flag.
        """
        from ..incremental.views import MaterializedView, ViewError, view_refresh_mode
        from ..sql import parse_and_bind

        with self._rw_lock.write_locked(), self._lock:
            self._check_open()
            view_name = name or f"view_{len(self._views) + 1}"
            if view_name in self._views:
                raise ViewError(f"materialized view {view_name!r} already exists")
            spec = parse_and_bind(sql, self.catalog, name=view_name)
            mode = view_refresh_mode(spec)  # raises ViewError when ineligible
            if self._durability is not None and _durable_log:
                self._durability.log_materialize(view_name, sql)
            view = MaterializedView(
                name=view_name,
                sql=sql,
                spec=spec,
                columns=[],
                mode=mode,
                generation=next(self._view_generations),
            )
            self._rebuild_view(view)
            self._views[view_name] = view
            return view.info()

    def _rebuild_view(self, view: Any) -> None:
        """Populate a view from scratch, preserving its storage semantics.

        Incremental views fold one unrestricted run of their fragment
        (against the current, possibly freshly re-encoded graph) — the
        same bag their write deltas extend; recompute views go through
        the default engine.
        """
        from ..incremental.views import populate_view

        if view.incremental:
            populate_view(view, self.tag_graph(), self.catalog)
            return
        result = self.engine(self.default_engine).execute(view.spec)
        view.rows = [dict(row) for row in result.rows]
        view.columns = list(result.columns)
        view.recompute_count += 1

    def query_view(self, name: str) -> QueryResult:
        """Serve a materialized view's current contents (no recomputation)."""
        from ..bsp.metrics import RunMetrics
        from ..incremental.views import ViewError

        with self._rw_lock.read_locked(), self._lock:
            self._check_open()
            view = self._views.get(name)
            if view is None:
                raise ViewError(f"no materialized view named {name!r}")
            metrics = RunMetrics(label=f"view:{name}")
            return QueryResult(view.result_rows(), list(view.columns), metrics)

    def views(self) -> List[Dict[str, Any]]:
        """Info dicts for every registered materialized view."""
        with self._lock:
            return [view.info() for view in self._views.values()]

    def drop_view(self, name: str) -> None:
        from ..incremental.views import ViewError

        with self._rw_lock.write_locked(), self._lock:
            if name not in self._views:
                raise ViewError(f"no materialized view named {name!r}")
            if self._durability is not None:
                self._durability.log_drop_view(name)
            del self._views[name]

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    @property
    def durable(self) -> bool:
        return self._durability is not None

    def checkpoint(self) -> Optional[Dict[str, Any]]:
        """Snapshot now and compact the WAL (no-op on memory-only databases).

        Runs under the writer lock, so the snapshot is a consistent
        point-in-time image; returns the snapshot report.
        """
        if self._durability is None:
            return None
        with self._rw_lock.write_locked(), self._lock:
            self._check_open()
            return self._durability.snapshot(self)

    def durability_stats(self) -> Optional[Dict[str, Any]]:
        """WAL/snapshot/idempotency counters (None on memory-only databases)."""
        if self._durability is None:
            return None
        with self._lock:
            return self._durability.stats()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, Any]:
        """Aggregate plan-cache counters across every engine of this database."""
        with self._lock:
            return {
                "entries": len(self.plan_cache),
                "max_entries": self.plan_cache.max_entries,
                "shared": True,
                "engines": sorted(self._engines),
                "views": sorted(self._views),
                "maintenance": self.maintenance.as_dict(),
                **self.plan_cache.stats.as_dict(),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Database({self.catalog.name!r}, default_engine={self.default_engine!r}, "
            f"{len(self.catalog)} relations)"
        )


def _relation_stamp(catalog: Catalog, name: str) -> Optional[Tuple[int, int]]:
    """One relation's part of a read stamp (None once it is dropped)."""
    if name not in catalog:
        return None
    relation = catalog.relation(name)
    return relation.mutation_count, relation.physical_count


# ----------------------------------------------------------------------
# fork-mode plumbing for Database.execute_many(mode="process")
# ----------------------------------------------------------------------
#: set inside each forked worker by the pool initializer: the database and
#: engine name the worker serves (inherited memory, not a pickle round-trip)
_FORK_STATE: Optional[Tuple[Database, str]] = None


def _forked_worker_init(database: Database, engine_name: str) -> None:
    global _FORK_STATE
    # the parent's reader/writer lock state (reader counts, waiting writers)
    # is meaningless in the child — replace it so child queries never block
    # on readers that only exist in the parent
    database._rw_lock = ReadWriteLock()
    _FORK_STATE = (database, engine_name)


def _forked_batch_worker(item: Tuple[Union[str, QuerySpec], ParamsInput]) -> "QueryResult":
    database, engine_name = _FORK_STATE
    session = database.connect(engine=engine_name)
    query, bindings = item
    if isinstance(query, QuerySpec):
        return session.execute(query, params=bindings)
    return session.sql(query, params=bindings)


class Session:
    """One logical connection to a :class:`Database`.

    Sessions hold no mutable query state of their own — every execution
    resolves the engine through the database (so invalidation is
    transparent) and binds its parameters in a context variable (so
    concurrent sessions never observe each other's values).
    """

    def __init__(self, database: Database, engine: Optional[str] = None) -> None:
        self.database = database
        self.engine_name = resolve_engine_name(engine or database.default_engine)

    # -- context manager sugar -----------------------------------------
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Sessions are stateless; provided for API symmetry."""

    # ------------------------------------------------------------------
    @property
    def engine(self) -> Engine:
        return self.database.engine(self.engine_name)

    @property
    def catalog(self) -> Catalog:
        return self.database.catalog

    def _run_rebinding(self, call: Any) -> Any:
        """Run ``call(engine)``, re-resolving once if the engine was retired.

        A concurrent :meth:`Database.note_data_change` may retire the
        executor between this session resolving it and the query running;
        re-resolving picks up the fresh engine bound to the re-encoded
        graph, which is the transparent-rebind behaviour sessions promise.
        A second retirement mid-retry (a continuous writer) propagates.

        The whole execution runs under the database's read lock, so a
        concurrent :meth:`Database.load_rows` delta cannot land mid-query:
        readers drain first, the writer applies atomically, and the next
        execution sees the complete post-write state.
        """
        with self.database._rw_lock.read_locked():
            try:
                return call(self.engine)
            except StaleEngineError:
                return call(self.engine)

    # ------------------------------------------------------------------
    # executing
    # ------------------------------------------------------------------
    def sql(
        self,
        sql: str,
        params: ParamsInput = None,
        name: str = "query",
    ) -> QueryResult:
        """Parse, bind and execute SQL text, with optional parameters.

        Parameters appear in the text as ``:name`` or positional ``?`` and
        are supplied as a mapping / sequence respectively.  Repeated calls
        with different values share one compiled plan (the plan-cache
        fingerprint is parameter-generic).
        """
        return self.prepare(sql, name=name).execute(params)

    def execute(
        self,
        query: Union[str, QuerySpec],
        params: ParamsInput = None,
        name: str = "query",
    ) -> QueryResult:
        """Execute SQL text or an already-bound QuerySpec — one front door.

        Callers no longer pre-parse just to pick an entry point: text goes
        through parse/bind/prepare (sharing the parameter-generic plan
        cache), a :class:`~repro.algebra.logical.QuerySpec` executes
        directly.  ``Database.execute_many`` accepts the same union per
        batch item.
        """
        if isinstance(query, str):
            return self.prepare(query, name=name).execute(params)
        expected = spec_parameters(query)
        bound = normalize_parameters(params, expected)
        check_parameter_types(bound, infer_parameter_types(query, self.catalog))
        with bind_parameters(bound):
            return self._run_rebinding(lambda engine: engine.execute(query))

    def prepare(self, sql: str, name: str = "stmt") -> "PreparedStatement":
        """Parse + bind once; execute any number of times with new values.

        Binding goes through the database's statement cache
        (:meth:`Database.bind_statement`), so preparing a text this
        engine already bound under ``name`` parses nothing.
        """
        bound = self.database.bind_statement(self.engine_name, sql, name)
        return PreparedStatement(
            session=self,
            sql=sql,
            spec=bound.spec,
            parameter_names=list(bound.parameter_names),
            parameter_types=dict(bound.parameter_types),
        )

    # ------------------------------------------------------------------
    # explaining
    # ------------------------------------------------------------------
    def explain(
        self,
        query: Union[str, QuerySpec],
        params: ParamsInput = None,
        analyze: bool = False,
        name: str = "query",
    ) -> str:
        """Render this session's engine plan for ``query``.

        The TAG engine shows the chosen rooted join tree and its
        message-volume cost breakdown; the baselines show their operator
        trees.  ``analyze=True`` additionally runs the query (parameters
        required then, if the query has any) and appends actual totals.
        """
        if isinstance(query, str):
            spec = self.database.bind_statement(self.engine_name, query, name).spec
        else:
            spec = query
        expected = spec_parameters(spec)
        if params is not None or analyze:
            bound = normalize_parameters(params, expected)
            check_parameter_types(bound, infer_parameter_types(spec, self.catalog))
        else:
            bound = {}
        header = f"engine: {self.engine_name}"
        with bind_parameters(bound):
            rendered = self._run_rebinding(
                lambda engine: engine.explain(spec, analyze=analyze)
            )
        return header + "\n" + rendered

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Session({self.database.catalog.name!r}, engine={self.engine_name!r})"


class PreparedStatement:
    """A parsed, bound, plan-cache-friendly statement.

    The expensive work (parse, bind, and — on first execution — join-tree
    planning) happens once; each :meth:`execute` only validates and binds
    its parameter values.  All executions share one plan-cache entry
    because the fingerprint renders parameters by name, not by value.
    """

    def __init__(
        self,
        session: Session,
        sql: str,
        spec: QuerySpec,
        parameter_names: List[str],
        parameter_types: Dict[str, str],
    ) -> None:
        self.session = session
        self.sql = sql
        self.spec = spec
        self.parameter_names = parameter_names
        self.parameter_types = parameter_types

    def execute(self, params: ParamsInput = None) -> QueryResult:
        bound = normalize_parameters(params, self.parameter_names)
        check_parameter_types(bound, self.parameter_types)
        with bind_parameters(bound):
            return self.session._run_rebinding(lambda engine: engine.execute(self.spec))

    def explain(self, params: ParamsInput = None, analyze: bool = False) -> str:
        return self.session.explain(self.spec, params=params, analyze=analyze)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        placeholders = ", ".join(f":{name}" for name in self.parameter_names) or "none"
        return f"PreparedStatement({self.spec.name!r}, parameters: {placeholders})"


# ----------------------------------------------------------------------
# bind-time parameter typing
# ----------------------------------------------------------------------
def infer_parameter_types(spec: QuerySpec, catalog: Catalog) -> Dict[str, str]:
    """Map parameter names to the DataType value-name of the column each is
    compared against, where that is unambiguous.

    Drives the early ``ParameterError`` on type mismatches (e.g. a string
    bound to ``O_TOTAL > :t``).  Parameters compared against columns of
    conflicting types — or never compared against a column directly — are
    left untyped and validated only at evaluation time.
    """
    from ..algebra.parameters import ParameterRef

    inferred: Dict[str, str] = {}
    conflicted: set = set()

    def note(name: str, type_name: Optional[str]) -> None:
        if type_name is None or name in conflicted:
            return
        if name in inferred and inferred[name] != type_name:
            del inferred[name]
            conflicted.add(name)
            return
        inferred[name] = type_name

    def column_type(alias_map: Mapping[str, str], expression: Expression) -> Optional[str]:
        if not isinstance(expression, ColumnRef) or expression.table is None:
            return None
        table = alias_map.get(expression.table)
        if table is None or table not in catalog:
            return None
        schema = catalog.schema(table)
        if expression.column not in schema:
            return None
        return schema.dtype(expression.column).value

    def visit_expression(alias_map: Mapping[str, str], expression: Expression) -> None:
        for node in iter_subexpressions(expression):
            if isinstance(node, Comparison):
                if isinstance(node.left, ParameterRef):
                    note(node.left.name, column_type(alias_map, node.right))
                if isinstance(node.right, ParameterRef):
                    note(node.right.name, column_type(alias_map, node.left))
            elif isinstance(node, Between):
                operand_type = column_type(alias_map, node.operand)
                for bound in (node.low, node.high):
                    if isinstance(bound, ParameterRef):
                        note(bound.name, operand_type)
            elif isinstance(node, InList):
                operand_type = column_type(alias_map, node.operand)
                for item in node.values:
                    if isinstance(item, ParameterRef):
                        note(item.name, operand_type)

    def visit(block: QuerySpec) -> None:
        alias_map = block.alias_map()
        for alias_filters in block.filters.values():
            for predicate in alias_filters:
                visit_expression(alias_map, predicate)
        for predicate in block.residual_predicates:
            visit_expression(alias_map, predicate)
        for subquery in block.subqueries:
            if subquery.outer_expr is not None:
                visit_expression(alias_map, subquery.outer_expr)
            visit(subquery.query)

    visit(spec)
    return inferred
