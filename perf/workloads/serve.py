"""``serve_mixed``: a live ``QueryServer`` under mixed read/write traffic.

The server runs in its own process (``perf/serve_child.py``) over a
durable tenant; this process is the load generator: one asyncio loop,
two connections, closed loop (each connection sends its next request
only after the previous reply), unpaced.  Each connection follows its
own seed-generated script so that a delete only ever names rows the
same connection has already had acknowledged.

Reads never see the written rows — every statement over ORDERS stops at
``O_ORDERDATE < 1999`` and every written order is dated 1999 — so each
read has one right answer whatever the interleaving, and every response
is compared with the ``rdbms`` engine's answer on an in-process twin of
the tenant.  The writes still invalidate the result cache, take the
writer lock and patch the graph under the readers, which is what the
workload is for; that they landed is checked by the unfiltered
``COUNT(*)`` at the end and again after a server restart.
"""

from __future__ import annotations

import asyncio
import datetime as _dt
import json
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import Database, QueryResult
from repro.core.wire import canonical_params_key, encode_params, iter_encoded_rows
from repro.serve import RetryPolicy, connect, validate_response_frame
from repro.tag.statistics import CatalogStatistics
from repro.workloads import generate_tpch
from repro.workloads.tpch import MARKET_SEGMENTS, ORDER_PRIORITIES, ORDER_STATUSES

from harness import PERF_DIR, Tracer, canonical_rows, median, peak_rss_mb, rows_close

from .base import (
    Workload,
    decompose_reads,
    dictionary_entries,
    disk_bytes_written,
    rows_bytes,
    shuffled_catalog,
)

#: asyncio's default stream limit is 64 KiB per line and neither the
#: server nor the client raises it: a longer frame kills the connection
FRAME_LIMIT_BYTES = 48 * 1024

BEFORE_WRITES = "o.O_ORDERDATE < DATE '1999-01-01'"

#: the repeated SELECTs: result-cache hits until the next write invalidates
POOL_SQL = (
    "SELECT c.C_MKTSEGMENT, COUNT(*) AS n FROM CUSTOMER c GROUP BY c.C_MKTSEGMENT",
    "SELECT COUNT(*) AS n FROM CUSTOMER c, ORDERS o WHERE c.C_CUSTKEY = o.O_CUSTKEY "
    f"AND c.C_MKTSEGMENT = 'BUILDING' AND {BEFORE_WRITES}",
    "SELECT n.N_NAME, COUNT(*) AS suppliers FROM SUPPLIER s, NATION n "
    "WHERE s.S_NATIONKEY = n.N_NATIONKEY GROUP BY n.N_NAME",
    f"SELECT o.O_ORDERPRIORITY, COUNT(*) AS n FROM ORDERS o WHERE {BEFORE_WRITES} "
    "GROUP BY o.O_ORDERPRIORITY",
    "SELECT l.L_SHIPMODE, SUM(l.L_QUANTITY) AS qty FROM LINEITEM l GROUP BY l.L_SHIPMODE",
    "SELECT p.P_BRAND, COUNT(*) AS n FROM PART p WHERE p.P_SIZE > 25 GROUP BY p.P_BRAND",
)
#: server-side prepared statements (one handle per connection)
PREPARED_SQL = (
    f"SELECT COUNT(*) AS n FROM ORDERS o WHERE o.O_TOTALPRICE > :t AND {BEFORE_WRITES}",
    "SELECT o.O_ORDERPRIORITY, COUNT(*) AS n FROM ORDERS o, CUSTOMER c "
    f"WHERE o.O_CUSTKEY = c.C_CUSTKEY AND c.C_MKTSEGMENT = :segment AND {BEFORE_WRITES} "
    "GROUP BY o.O_ORDERPRIORITY",
    "SELECT COUNT(*) AS n, SUM(l.L_EXTENDEDPRICE) AS revenue FROM LINEITEM l "
    "WHERE l.L_QUANTITY < :q",
)
#: ad-hoc shapes; the literal is distinct per request, so each is a
#: plan-cache miss and a result-cache miss
ADHOC_SQL = (
    "SELECT COUNT(*) AS n FROM CUSTOMER c WHERE c.C_ACCTBAL > {v}",
    "SELECT COUNT(*) AS n FROM ORDERS o, CUSTOMER c WHERE o.O_CUSTKEY = c.C_CUSTKEY "
    "AND c.C_ACCTBAL > {v} AND " + BEFORE_WRITES,
    "SELECT p.P_TYPE, COUNT(*) AS n FROM PART p WHERE p.P_RETAILPRICE < 900.0 + {v} "
    "GROUP BY p.P_TYPE",
)
COUNT_ORDERS_SQL = "SELECT COUNT(*) AS n FROM ORDERS o"


@dataclass(frozen=True)
class Mix:
    """One connection's script for one pass: ``rounds`` rounds, each holding
    these reads in a seed-chosen order plus three ``load_rows`` (of 1, 2
    and 3 rows), one ``update_rows`` and one ``delete_rows`` of the six rows
    the round inserted — so every pass sends the same multiset of requests
    and a script deletes exactly what it inserted."""

    rounds: int
    cached: int
    prepared: int
    adhoc: int

    @property
    def round_requests(self) -> int:
        return self.cached + self.prepared + self.adhoc + 5

    @property
    def requests(self) -> int:
        return self.rounds * self.round_requests


#: (statement index, parameters) combinations the prepared reads cycle through
PREPARED_CALLS = tuple(
    (which, {name: value})
    for which, name, values in (
        (0, "t", (25000.0, 75000.0, 125000.0)),
        (1, "segment", MARKET_SEGMENTS[:3]),
        (2, "q", (10, 25, 40)),
    )
    for value in values
)


@dataclass
class Request:
    kind: str
    op: str
    fields: Dict[str, Any]
    #: reads: what to run on the twin for the expected answer and the probes
    sql: Optional[str] = None
    params: Optional[Dict[str, Any]] = None
    prepared: Optional[int] = None
    #: writes: user rows carried, an update's replacement included
    rows: List[List[Any]] = field(default_factory=list)


def _order_row(key: int, customers: int, rng: random.Random, slot: int) -> List[Any]:
    return [
        key,
        rng.randint(1, customers),
        ORDER_STATUSES[slot % len(ORDER_STATUSES)],
        round(20000.0 + 977.0 * (slot % 97), 2),
        _dt.date(1999, 1, 1) + _dt.timedelta(days=slot % 300),
        ORDER_PRIORITIES[slot % len(ORDER_PRIORITIES)],
        slot % 2,
    ]


def build_script(
    mix: Mix, seed: int, index: int, connection: int, first_key: int, customers: int
) -> List[Request]:
    """One connection's requests for pass ``index`` (pure function of its inputs)."""
    rng = random.Random(f"{seed}:{index}:{connection}")
    stream = index * 2 + connection  # numbers the (pass, connection) scripts of a run
    serial = stream * mix.rounds * mix.adhoc  # distinct literals across the run
    key = first_key + stream * mix.rounds * 6
    script: List[Request] = []

    def read(
        kind: str, sql: str, params: Optional[Dict[str, Any]], prepared: Optional[int]
    ) -> Request:
        if prepared is None:
            return Request(kind, "execute", {"sql": sql}, sql=sql)
        fields = {"params": encode_params(params)}
        return Request(kind, "execute_prepared", fields, sql=sql, params=params, prepared=prepared)

    def write(
        kind: str, rows: List[List[Any]], updates: Optional[List[List[Any]]] = None
    ) -> Request:
        fields = {"relation": "ORDERS", "rows": iter_encoded_rows(rows)}
        if updates is not None:
            fields["updates"] = iter_encoded_rows(updates)
        return Request(kind, kind, fields, rows=rows + (updates or []))

    for round_index in range(mix.rounds):
        turn = round_index + connection * mix.rounds
        # a round's repeated SELECTs come from a hot pair that rotates
        # through the pool, so some repeat before the next write invalidates
        reads = [
            read("cached_select", POOL_SQL[(turn * 2 + slot % 2) % len(POOL_SQL)], None, None)
            for slot in range(mix.cached)
        ]
        for slot in range(mix.prepared):
            which, params = PREPARED_CALLS[(turn * mix.prepared + slot) % len(PREPARED_CALLS)]
            reads.append(read("prepared_select", PREPARED_SQL[which], params, which))
        for _ in range(mix.adhoc):
            serial += 1
            literal = round(-900.0 + 0.61 * serial, 2)
            sql = ADHOC_SQL[serial % len(ADHOC_SQL)].format(v=literal)
            reads.append(read("adhoc_select", sql, None, None))
        # the round's six rows arrive as inserts of 1, 2 and 3; the update
        # follows the first insert and the delete the last
        live = [
            _order_row(key + round_index * 6 + slot, customers, rng, slot) for slot in range(6)
        ]
        steps: List[Any] = reads + ["insert", "insert", "insert"]
        rng.shuffle(steps)
        inserts = [position for position, step in enumerate(steps) if step == "insert"]
        steps.insert(rng.randint(inserts[0] + 1, len(steps)), "update")
        last_write = max(position for position, step in enumerate(steps) if isinstance(step, str))
        steps.insert(rng.randint(last_write + 1, len(steps)), "delete")
        arrived = 0
        for step in steps:
            if step == "insert":
                size = {0: 1, 1: 2, 3: 3}[arrived]
                script.append(write("load_rows", live[arrived : arrived + size]))
                arrived += size
            elif step == "update":
                slot = rng.randrange(arrived)
                old, new = live[slot], list(live[slot])
                new[3] = round(old[3] + 0.5, 2)
                live[slot] = new
                script.append(write("update_rows", [old], [new]))
            elif step == "delete":
                script.append(write("delete_rows", list(live)))
            else:
                script.append(step)
    return script


class ServeMixed(Workload):
    name = "serve_mixed"
    nominal_pass_s = 0.75
    SCALE = 0.2
    MIX = Mix(rounds=4, cached=7, prepared=5, adhoc=3)
    QUICK_SCALE = 0.05
    QUICK_MIX = Mix(rounds=1, cached=3, prepared=2, adhoc=1)
    CONNECTIONS = 2

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.mix = self.QUICK_MIX if self.quick else self.MIX
        self.scale = self.QUICK_SCALE if self.quick else self.SCALE
        self.data_dir = os.path.join(self.workdir, "tenant")
        self.loop = asyncio.new_event_loop()
        self.server: Optional[subprocess.Popen] = None
        #: (client, its prepared-statement ids) per connection to the measured server
        self.connections: List[Tuple[Any, List[str]]] = []
        self._scripts: List[List[Request]] = []
        self._records: List[Tuple[float, Any]] = []
        self._expected: Dict[Tuple[str, str], List[Tuple[Any, ...]]] = {}
        self._acked_inserted = self._acked_deleted = 0
        self._max_frame_bytes = 0
        self._stats: List[Dict[str, Any]] = []
        self._compile_s: List[float] = []
        self._uncached_reads: List[Request] = []
        self._uncached_latency_s = 0.0
        self._disk_seen: Dict[str, int] = {}
        self._disk_bytes = self._user_bytes = 0
        self._snapshots_seen: set = set()
        self._server_rss_mb = 0.0

    # -- the server process -----------------------------------------------
    def _spawn_server(self, memory_only: bool = False) -> Any:
        command = [
            sys.executable,
            os.path.join(PERF_DIR, "serve_child.py"),
            "--seed",
            str(self.seed),
            "--scale",
            str(self.scale),
            "--data-dir",
            self.data_dir,
        ]
        if memory_only:
            command.append("--memory-only")
        return subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )

    @staticmethod
    def _await_ready(process: Any) -> Dict[str, Any]:
        line = process.stdout.readline().decode("utf-8")
        if not line.startswith("READY "):
            raise RuntimeError(f"server child did not come up (said {line!r})")
        return json.loads(line[len("READY ") :])

    @staticmethod
    def _stop_server(process: Any) -> None:
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdin.close()
        process.stdout.close()

    def _connect(self, port: int) -> List[Tuple[Any, List[str]]]:
        async def open_all() -> List[Tuple[Any, List[str]]]:
            connections = []
            for _ in range(self.CONNECTIONS):
                # no retries: a refused or shed request is a failed operation
                client = await connect("127.0.0.1", port, retry=RetryPolicy(max_attempts=1))
                ids = []
                for sql in PREPARED_SQL:
                    frame = await client.request("prepare", sql=sql)
                    ids.append(frame["result"]["statement"])
                connections.append((client, ids))
            return connections

        return self.loop.run_until_complete(open_all())

    def _disconnect(self, connections: List[Tuple[Any, List[str]]]) -> None:
        async def close_all() -> None:
            for client, _ids in connections:
                await client.close()

        self.loop.run_until_complete(close_all())

    def _count_orders(self) -> int:
        client = self.connections[0][0]
        result = self.loop.run_until_complete(client.execute(COUNT_ORDERS_SQL, use_cache=False))
        return int(result.single_value())

    # -- set-up -----------------------------------------------------------
    def setup(self) -> None:
        # Server and load generator share ONE cpu (the server child inherits
        # the mask).  Measured on the 2-vCPU reference box, same seed, runs
        # back to back: free to use both, pass_s wandered 0.80-0.98 s; with
        # one cpu each 0.73-0.84 s; sharing one 0.75-0.80 s — steadier and
        # no slower, since the server's threads serialise on the GIL anyway.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        # the server builds its tenant while this process builds the twin
        launch = time.perf_counter()
        self.server = self._spawn_server()
        catalog, _ = shuffled_catalog(generate_tpch(self.scale), random.Random(self.seed))
        self.twin = Database(catalog, engine="tag")
        self._twin_rdbms = self.twin.connect(engine="rdbms")
        self._customers = len(catalog.relation("CUSTOMER"))
        self._first_key = 10 * max(row[0] for row in catalog.relation("ORDERS").rows)
        self._orders_at_start = len(catalog.relation("ORDERS"))
        info = self._await_ready(self.server)
        for key in ("storage.load_encode_s", "tag.encode_s", "tag.vertices", "tag.edges"):
            self.layer[key] = info[key]
        self.layer["serve.startup_s"] = time.perf_counter() - launch
        self.connections = self._connect(info["port"])
        self._scripts = self._build_scripts(0)
        self.kinds = [request.kind for script in self._scripts for request in script]
        self.warm_up()
        disk_bytes_written(self.data_dir, self._disk_seen)
        self._snapshots_before = self._snapshot_files()

    def _snapshot_files(self) -> set:
        return {name for name in os.listdir(self.data_dir) if name.startswith("snapshot-")}

    def _build_scripts(self, index: int) -> List[List[Request]]:
        return [
            build_script(self.mix, self.seed, index, connection, self._first_key, self._customers)
            for connection in range(self.CONNECTIONS)
        ]

    def _expect(self, request: Request) -> List[Tuple[Any, ...]]:
        """The right answer to a read: the rdbms engine on the in-process twin."""
        key = (request.sql, canonical_params_key(request.params))
        rows = self._expected.get(key)
        if rows is None:
            rows = canonical_rows(self._twin_rdbms.execute(request.sql, params=request.params))
            if request.kind != "adhoc_select":  # ad-hoc statements never repeat
                self._expected[key] = rows
        return rows

    # -- measuring --------------------------------------------------------
    def _run_scripts(
        self, scripts: List[List[Request]], connections: List[Tuple[Any, List[str]]]
    ) -> List[Tuple[float, Any]]:
        """Each connection follows its script, both at once; returns
        (latency, reply frame or the exception that lost it) per position."""
        records: List[Tuple[float, Any]] = [(0.0, None)] * sum(len(script) for script in scripts)
        clock = time.perf_counter
        tracer = self.tracer

        async def follow(script: List[Request], client: Any, ids: List[str], offset: int) -> None:
            for position, request in enumerate(script, start=offset):
                fields = request.fields
                if request.prepared is not None:
                    fields = {**fields, "statement": ids[request.prepared]}
                started = clock()
                try:
                    frame = await client.request(request.op, **fields)
                except (ConnectionError, OSError) as exc:
                    frame = exc
                finished = clock()
                records[position] = (finished - started, frame)
                if tracer.enabled:
                    tracer.add(f"serve.{request.kind}", position, started, finished)

        async def all_connections() -> None:
            offset = 0
            followers = []
            for script, (client, ids) in zip(scripts, connections):
                followers.append(follow(script, client, ids, offset))
                offset += len(script)
            await asyncio.gather(*followers)

        self.loop.run_until_complete(all_connections())
        return records

    def run_pass(self, index: int) -> List[float]:
        self._records = self._run_scripts(self._scripts, self.connections)
        return [latency for latency, _frame in self._records]

    def after_pass(self, index: int) -> None:
        requests = [request for script in self._scripts for request in script]
        compile_s = uncached_s = 0.0
        uncached: List[Request] = []
        for position, (request, (latency, frame)) in enumerate(zip(requests, self._records)):
            problem = self._judge(request, frame)
            if problem is not None:
                self.failed_ops += 1
                self.failures.append(f"pass {index} #{position} {request.kind}: {problem}")
                continue
            result = frame["result"]
            if request.sql is not None and not result["cached"]:
                compile_s += result["result_set"]["metrics"]["compile_seconds"]
                uncached.append(request)
                uncached_s += latency
        self._uncached_reads, self._uncached_latency_s = uncached, uncached_s
        client = self.connections[0][0]
        self._stats.append(self.loop.run_until_complete(client.request("stats"))["result"])
        self._snapshots_seen |= self._snapshot_files()
        if index > 0:
            self._compile_s.append(compile_s)
            self._disk_bytes += disk_bytes_written(self.data_dir, self._disk_seen)
            self._user_bytes += sum(rows_bytes(request.rows) for request in requests)
        self._scripts = self._build_scripts(index + 1)

    def _judge(self, request: Request, frame: Any) -> Optional[str]:
        """None when the reply is valid and right; else what is wrong with it."""
        if isinstance(frame, BaseException):
            return f"connection lost: {frame}"
        defect = validate_response_frame(frame)
        if defect is not None:
            return f"invalid frame: {defect}"
        self._max_frame_bytes = max(self._max_frame_bytes, len(json.dumps(frame)))
        if not frame["ok"]:
            return f"error frame: {frame['error']['code']}"
        result = frame["result"]
        if request.sql is not None:
            got = canonical_rows(QueryResult.from_json(result["result_set"]))
            return None if rows_close(got, self._expect(request)) else "wrong answer"
        if request.kind == "load_rows":
            self._acked_inserted += result["appended"]
            return None if result["appended"] == len(request.rows) else "rows not appended"
        if request.kind == "delete_rows":
            self._acked_deleted += result["deleted"]
            return None if result["deleted"] == len(request.rows) else "rows not deleted"
        ok = result["deleted"] == 1 and result["inserted"] == 1
        return None if ok else "row not updated"

    # -- layers -----------------------------------------------------------
    @staticmethod
    def _delta(stats: List[Dict[str, Any]], *path: str) -> List[float]:
        """Per-pass differences of one counter of the ``stats`` op."""

        def dig(payload: Dict[str, Any]) -> float:
            for key in path:
                payload = payload[key]
            return payload

        return [dig(after) - dig(before) for before, after in zip(stats, stats[1:])]

    def layers(self, passes: int) -> None:
        stats = self._stats  # one sample after the warm-up and after every pass
        tenant = ("tenants", "default")
        hits = sum(self._delta(stats, "result_cache", "hits"))
        misses = sum(self._delta(stats, "result_cache", "misses"))
        plan_hits = sum(self._delta(stats, *tenant, "plan_cache", "hits"))
        plan_misses = sum(self._delta(stats, *tenant, "plan_cache", "misses"))

        # what the uncached reads of the last traced pass cost in process:
        # warm the twin on the repeating statements first, as the server is
        warm = [(self.twin, sql, None) for sql in POOL_SQL] + [
            (self.twin, PREPARED_SQL[which], params) for which, params in PREPARED_CALLS
        ]
        decompose_reads(warm, Tracer())
        items = [(self.twin, request.sql, request.params) for request in self._uncached_reads]
        probe = decompose_reads(items, self.tracer, time_session=True)
        unprepared = sum(request.prepared is None for request in self._uncached_reads)
        started = time.perf_counter()
        CatalogStatistics.collect(self.twin.catalog)
        stats_seconds = time.perf_counter() - started

        pings: List[float] = []

        async def ping() -> None:
            for _ in range(50):
                begun = time.perf_counter()
                await self.connections[0][0].request("ping")
                pings.append(time.perf_counter() - begun)

        self.loop.run_until_complete(ping())

        with self.tracer.span("twin.memory_only"):
            memory_s = self._memory_only_pass_seconds(passes)
        durable_s = median(self.op_seconds[1 : passes + 1])
        reads = max(len(items), 1)
        self.layer.update(
            {
                "sql.parse_bind_ms": 1e3 * probe["parse_s"],
                "sql.statements": unprepared,
                "planner.compile_ms": 1e3 * median(self._compile_s),
                "planner.cache_hit_rate": plan_hits / max(plan_hits + plan_misses, 1),
                "planner.evictions": sum(self._delta(stats, *tenant, "plan_cache", "evictions")),
                "core.execute_ms": 1e3 * probe["execute_s"],
                "bsp.supersteps": probe["supersteps"],
                "bsp.messages": probe["messages"],
                "bsp.message_bytes": probe["message_bytes"],
                "bsp.compute_units": probe["compute_units"],
                "bsp.messages_per_result_row": probe["messages"] / max(probe["result_rows"], 1),
                "api.session_overhead_ms": 1e3 * probe["session_overhead_s"],
                "tag.stats_collect_s": stats_seconds,
                "storage.dictionary_entries": dictionary_entries(self.twin.catalog),
                "incremental.delta_apply_ms": 1e3
                * median(self._delta(stats, *tenant, "maintenance", "delta_apply_seconds")),
                "incremental.view_refresh_ms": 1e3
                * median(self._delta(stats, *tenant, "maintenance", "view_refresh_seconds")),
                "incremental.views_recomputed": median(
                    self._delta(stats, *tenant, "maintenance", "views_recomputed")
                ),
                "incremental.full_rebuilds": stats[-1]["tenants"]["default"]["maintenance"][
                    "full_rebuilds"
                ],
                "durability.write_ms": 1e3 * (durable_s - memory_s),
                "durability.snapshots": len(self._snapshots_seen - self._snapshots_before),
                "durability.disk_bytes_per_user_byte": self._disk_bytes / max(self._user_bytes, 1),
                "durability.max_stall_ms": 1e3 * self.max_latency,
                "serve.wire_ms": 1e3 * median(pings),
                # per uncached read: the reply's latency minus parsing,
                # planning and executing the same statement in this process
                "serve.overhead_ms": 1e3
                * (
                    self._uncached_latency_s
                    - probe["parse_s"]
                    - probe["compile_s"]
                    - probe["execute_s"]
                )
                / reads,
                "serve.result_cache_hit_rate": hits / max(hits + misses, 1),
                "serve.rejected": sum(self._delta(stats, "server", "rejected_queue_full"))
                + sum(self._delta(stats, "server", "rejected_overloaded")),
                "serve.timeouts": sum(self._delta(stats, "server", "timeouts")),
            }
        )

    def _memory_only_pass_seconds(self, passes: int) -> float:
        """The same scripts against a memory-only server: the WAL's share."""
        process = self._spawn_server(memory_only=True)
        try:
            connections = self._connect(self._await_ready(process)["port"])
            seconds = []
            for index in range(passes + 1):
                records = self._run_scripts(self._build_scripts(index), connections)
                seconds.append(sum(latency for latency, _frame in records))
            self._disconnect(connections)
        finally:
            self._stop_server(process)
        return median(seconds[1:])  # pass 0 is the twin's warm-up

    # -- checking ---------------------------------------------------------
    def check(self) -> None:
        expected = self._orders_at_start + self._acked_inserted - self._acked_deleted
        self.verdict(
            "orders_count_matches_acks",
            self._count_orders() == expected,
        )
        self.verdict("rows_pass_neutral", self._acked_inserted == self._acked_deleted)
        self.verdict(
            "client_saw_only_valid_frames",
            not any(client.invalid_frames for client, _ids in self.connections),
        )
        self.verdict("frames_under_48KiB", self._max_frame_bytes < FRAME_LIMIT_BYTES)
        self._disconnect(self.connections)
        self.connections = []
        self._stop_server(self.server)
        self._server_rss_mb = peak_rss_mb(resource.RUSAGE_CHILDREN)

        started = time.perf_counter()
        with self.tracer.span("durability.recover"):
            self.server = self._spawn_server()
            info = self._await_ready(self.server)
        self.layer["durability.recover_s"] = time.perf_counter() - started
        self.verdict("restart_recovered_from_disk", info["recovered"])
        self.connections = self._connect(info["port"])
        self.verdict("orders_count_after_restart", self._count_orders() == expected)

    def sizes(self) -> Dict[str, Any]:
        return {
            "requests_per_pass": len(self.kinds),
            "connections": self.CONNECTIONS,
            "rows": self.twin.catalog.total_rows(),
            "orders_at_start": self._orders_at_start,
            "rows_inserted_and_deleted": self._acked_inserted,
            "distinct_adhoc_statements": self.mix.rounds
            * self.mix.adhoc
            * self.CONNECTIONS
            * len(self._stats),
            "max_response_bytes": self._max_frame_bytes,
        }

    def peak_rss_mb(self) -> float:
        """The server's peak, not the load generator's."""
        return self._server_rss_mb

    def close(self) -> None:
        try:
            self._disconnect(self.connections)
        finally:
            if self.server is not None:
                self._stop_server(self.server)
            self.loop.close()
