"""The two in-process read workloads: ``tpc_warm`` and ``fanout_agg``.

Both run a fixed list of SQL statements through ``Session.sql`` on the
default ``tag`` engine with a warm plan cache; they differ in what the
statements make the kernel do (thousands of tiny per-vertex tables vs a
few huge ones), which is the point of having both.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro import Catalog, Database
from repro.relational import Column, DataType, ForeignKey, Schema
from repro.tag.statistics import CatalogStatistics
from repro.workloads import generate_tpcds, generate_tpch, tpcds_queries, tpch_queries

from harness import canonical_rows, median, rows_close, rows_digest

from .base import (
    Workload,
    bsp_totals,
    decompose_reads,
    dictionary_entries,
    shuffled_catalog,
    timed_encode,
)


@dataclass
class Statement:
    label: str
    sql: str
    db: Database
    session: Any
    #: known size of the join before residual predicates (0 = not tracked)
    joined_rows: int = 0


class AnalyticWorkload(Workload):
    """A shuffled statement list over one or more in-memory databases."""

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.rng = random.Random(self.seed)
        self.statements: List[Statement] = []
        self.databases: List[Database] = []
        self._results: List[Any] = []
        self._first_digests: List[str] = []
        self._first_totals: Dict[str, int] = {}
        self._timed_compile_s: List[float] = []
        self._cache_after_warmup: List[Dict[str, Any]] = []
        self.query_ms: Dict[str, float] = {}
        self.layer.update(
            {"storage.load_encode_s": 0.0, "tag.encode_s": 0.0, "tag.vertices": 0, "tag.edges": 0}
        )

    # -- building ---------------------------------------------------------
    def add_database(
        self, catalog: Catalog, load_seconds: float, statements: List[Tuple[str, str, int]]
    ) -> None:
        graph, encode_seconds = timed_encode(catalog)
        database = Database(catalog, engine="tag", graph=graph)
        session = database.connect()
        self.databases.append(database)
        self.layer["storage.load_encode_s"] += load_seconds
        self.layer["tag.encode_s"] += encode_seconds
        self.layer["tag.vertices"] += graph.vertex_count
        self.layer["tag.edges"] += graph.edge_count
        for label, sql, joined_rows in statements:
            self.statements.append(Statement(label, sql, database, session, joined_rows))

    def build(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        self.build()
        self.rng.shuffle(self.statements)
        self.kinds = [statement.label for statement in self.statements]
        # the warm-up pass compiles every plan; its compile time is the
        # planner's whole contribution to this workload
        self.warm_up()
        self.layer["planner.cold_compile_ms"] = 1e3 * sum(
            result.metrics.compile_seconds for result in self._results
        )
        self._cache_after_warmup = [db.cache_stats() for db in self.databases]

    # -- measuring --------------------------------------------------------
    def run_pass(self, index: int) -> List[float]:
        span = self.tracer.span
        clock = time.perf_counter
        latencies: List[float] = []
        results: List[Any] = []
        for position, statement in enumerate(self.statements):
            started = clock()
            with span("api.session_sql", position):
                result = statement.session.sql(statement.sql)
            latencies.append(clock() - started)
            results.append(result)
        self._results = results
        return latencies

    def after_pass(self, index: int) -> None:
        digests = [rows_digest(canonical_rows(result)) for result in self._results]
        totals = bsp_totals(self._results)
        if index == 0:
            self._first_digests, self._first_totals = digests, totals
            return
        self._timed_compile_s.append(
            sum(result.metrics.compile_seconds for result in self._results)
        )
        self.verdict("rows_identical_across_passes", digests == self._first_digests)
        self.verdict("bsp_counts_repeat_exactly", totals == self._first_totals)

    def layers(self, passes: int) -> None:
        """Decompose ``Session.sql`` into the calls it makes, from outside."""
        items = [(statement.db, statement.sql, None) for statement in self.statements]
        tracked = [bool(statement.joined_rows) for statement in self.statements]
        joined_rows = sum(statement.joined_rows for statement in self.statements)
        parse_s: List[float] = []
        execute_s: List[float] = []
        joined_execute_s: List[float] = []
        per_query: Dict[str, List[float]] = {}
        for _ in range(passes):
            probe = decompose_reads(items, self.tracer)
            parse_s.append(probe["parse_s"])
            execute_s.append(probe["execute_s"])
            joined_execute_s.append(
                sum(each for each, keep in zip(probe["execute_each_s"], tracked) if keep)
            )
            for statement, each in zip(self.statements, probe["execute_each_s"]):
                per_query.setdefault(statement.label, []).append(1e3 * each)
        stats_seconds = 0.0
        for database in self.databases:
            started = time.perf_counter()
            with self.tracer.span("tag.stats_collect"):
                CatalogStatistics.collect(database.catalog)
            stats_seconds += time.perf_counter() - started

        hits, misses, evictions = self._cache_deltas()
        totals = self._first_totals
        # Session.sql as timed by the traced passes, minus the calls it makes
        session_s = median(self.op_seconds[-passes:])
        self.query_ms = {label: median(values) for label, values in per_query.items()}
        self.layer.update(
            {
                "sql.parse_bind_ms": 1e3 * median(parse_s),
                "sql.statements": len(self.statements),
                "planner.compile_ms": 1e3 * median(self._timed_compile_s),
                "planner.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
                "planner.evictions": evictions,
                "core.execute_ms": 1e3 * median(execute_s),
                "bsp.supersteps": totals["supersteps"],
                "bsp.messages": totals["messages"],
                "bsp.message_bytes": totals["message_bytes"],
                "bsp.compute_units": totals["compute_units"],
                "bsp.messages_per_result_row": totals["messages"] / max(totals["result_rows"], 1),
                "exec.joined_rows_per_s": (
                    joined_rows / median(joined_execute_s) if joined_rows else 0.0
                ),
                "api.session_overhead_ms": 1e3
                * (session_s - median(parse_s) - median(execute_s)),
                "tag.stats_collect_s": stats_seconds,
                "storage.dictionary_entries": sum(
                    dictionary_entries(db.catalog) for db in self.databases
                ),
            }
        )

    def check(self) -> None:
        """The ``tag`` rows of the last pass equal the ``rdbms`` baseline's."""
        sessions = {id(db): db.connect(engine="rdbms") for db in self.databases}
        agree = True
        for statement, tag_result in zip(self.statements, self._results):
            baseline = sessions[id(statement.db)].sql(statement.sql)
            if not rows_close(canonical_rows(tag_result), canonical_rows(baseline)):
                agree = False
        self.verdict("tag_equals_rdbms", agree)
        self.verdict("plans_stayed_cached", self._cache_deltas()[1] == 0)

    def _cache_deltas(self) -> Tuple[int, int, int]:
        """Plan-cache (hits, misses, evictions) since the warm-up pass."""
        hits = misses = evictions = 0
        for database, before in zip(self.databases, self._cache_after_warmup):
            now = database.cache_stats()
            hits += now["hits"] - before["hits"]
            misses += now["misses"] - before["misses"]
            evictions += now["evictions"] - before["evictions"]
        return hits, misses, evictions

    def fingerprint(self) -> str:
        pinned = sorted(zip(self.kinds, self._first_digests)), sorted(self._first_totals.items())
        return rows_digest(pinned)

    def sizes(self) -> Dict[str, Any]:
        return {
            "statements": len(self.statements),
            "rows": sum(db.catalog.total_rows() for db in self.databases),
            "result_rows_per_pass": self._first_totals.get("result_rows", 0),
        }

    def close(self) -> None:
        for database in self.databases:
            database.close()


# ----------------------------------------------------------------------
class TpcWarm(AnalyticWorkload):
    name = "tpc_warm"
    nominal_pass_s = 0.66
    SCALE = 0.25
    QUICK_SCALE = 0.05

    def build(self) -> None:
        scale = self.QUICK_SCALE if self.quick else self.SCALE
        for prefix, generate, queries in (
            ("h", generate_tpch, tpch_queries()),
            ("ds", generate_tpcds, tpcds_queries()),
        ):
            catalog, load_seconds = shuffled_catalog(generate(scale), self.rng)
            self.add_database(
                catalog,
                load_seconds,
                [(f"{prefix}.{query.name}", query.sql, 0) for query in queries],
            )

    def layers(self, passes: int) -> None:
        super().layers(passes)
        # the paper's Fig. 13 ratio: the same list on the two baselines,
        # one warm-up and one timed pass each
        for engine, key in (("rdbms", "engine.pass_s"), ("spark", "distributed.pass_s")):
            sessions = {id(db): db.connect(engine=engine) for db in self.databases}
            shuffle_bytes = 0
            for timed in (False, True):
                started = time.perf_counter()
                with self.tracer.span(f"baseline.{engine}"):
                    for statement in self.statements:
                        result = sessions[id(statement.db)].sql(statement.sql)
                        if timed:
                            shuffle_bytes += result.metrics.total_network_bytes
                elapsed = time.perf_counter() - started
            self.layer[key] = elapsed
            if engine == "spark":
                self.layer["distributed.shuffle_bytes"] = shuffle_bytes


# ----------------------------------------------------------------------
WORDS = ("amber", "birch", "cedar", "dune", "ember", "fjord", "grove", "heath")

FANOUT_AGG_SQL = """
    SELECT p.P_NAME, COUNT(*) AS pairs,
           SUM(c1.C_PRICE * c2.C_QTY) AS volume, MAX(c3.C_PRICE) AS top_price
    FROM PARENT p, CHILD c1, CHILD c2, CHILD c3
    WHERE c1.C_PARENT = p.P_ID AND c2.C_PARENT = p.P_ID AND c3.C_PARENT = p.P_ID
      AND c1.C_QTY < c2.C_QTY
    GROUP BY p.P_NAME
"""
FANOUT_ROWS_SQL = """
    SELECT p.P_NAME, c1.C_ID AS first_id, c2.C_ID AS second_id, c3.C_ID AS third_id,
           c1.C_TAG AS first_tag, c2.C_PRICE AS second_price
    FROM PARENT p, CHILD c1, CHILD c2, CHILD c3
    WHERE c1.C_PARENT = p.P_ID AND c2.C_PARENT = p.P_ID AND c3.C_PARENT = p.P_ID
      AND c1.C_QTY > c2.C_QTY + 40 AND c2.C_PRICE > c3.C_PRICE + 300.0
"""
FANOUT_LIKE_SQL = """
    SELECT c1.C_TAG, COUNT(*) AS n, SUM(c2.C_PRICE) AS total
    FROM PARENT p, CHILD c1, CHILD c2, CHILD c3
    WHERE c1.C_PARENT = p.P_ID AND c2.C_PARENT = p.P_ID AND c3.C_PARENT = p.P_ID
      AND c1.C_TAG LIKE '%amber%'
    GROUP BY c1.C_TAG
"""


def fanout_catalog(parents: int, fanout: int, rng: random.Random) -> Tuple[Catalog, float, int]:
    """PARENT x CHILD star whose three-way self-join explodes to fanout^3.

    Every parent owns the same *multiset* of child tuples whatever the
    seed; the seed decides which C_ID carries which tuple and the load
    order.  Returns (catalog, load seconds, children per parent whose tag
    matches the LIKE statement).
    """
    parent_rows = [[index, f"{WORDS[index % len(WORDS)]}-{index:03d}"] for index in range(parents)]
    child_ids = list(range(parents * fanout))
    rng.shuffle(child_ids)
    child_rows = []
    like_matches = 0
    for parent in range(parents):
        for slot in range(fanout):
            tag = f"{WORDS[slot % 8]} {WORDS[(slot // 8 + slot) % 8]}"
            if parent == 0 and "amber" in tag:
                like_matches += 1
            child_rows.append(
                [
                    child_ids[parent * fanout + slot],
                    parent,
                    (slot * 7 + parent * 5) % 48 + 1,
                    round(5.0 + ((slot * 11 + parent * 3) % fanout) * 20.5, 2),
                    tag,
                ]
            )
    rng.shuffle(parent_rows)
    rng.shuffle(child_rows)
    catalog = Catalog("fanout")
    started = time.perf_counter()
    catalog.create(
        Schema(
            "PARENT",
            [Column("P_ID", DataType.INT, nullable=False), Column("P_NAME", DataType.STRING)],
            primary_key=["P_ID"],
        )
    ).extend(parent_rows)
    catalog.create(
        Schema(
            "CHILD",
            [
                Column("C_ID", DataType.INT, nullable=False),
                Column("C_PARENT", DataType.INT),
                Column("C_QTY", DataType.INT),
                Column("C_PRICE", DataType.FLOAT),
                Column("C_TAG", DataType.STRING),
            ],
            primary_key=["C_ID"],
            foreign_keys=[ForeignKey(("C_PARENT",), "PARENT", ("P_ID",))],
        )
    ).extend(child_rows)
    return catalog, time.perf_counter() - started, like_matches


class FanoutAgg(AnalyticWorkload):
    name = "fanout_agg"
    nominal_pass_s = 0.68
    PARENTS, FANOUT = 12, 24
    QUICK_PARENTS, QUICK_FANOUT = 2, 12

    def build(self) -> None:
        parents, fanout = (
            (self.QUICK_PARENTS, self.QUICK_FANOUT) if self.quick else (self.PARENTS, self.FANOUT)
        )
        catalog, load_seconds, like_matches = fanout_catalog(parents, fanout, self.rng)
        cube = parents * fanout**3
        self.add_database(
            catalog,
            load_seconds,
            [
                ("agg_residual", FANOUT_AGG_SQL, cube),
                ("rows_filtered", FANOUT_ROWS_SQL, cube),
                ("groupby_like", FANOUT_LIKE_SQL, parents * like_matches * fanout**2),
            ],
        )
        self.batch_rows = fanout**3

    def sizes(self) -> Dict[str, Any]:
        return {**super().sizes(), "rows_per_parent_batch": self.batch_rows}
