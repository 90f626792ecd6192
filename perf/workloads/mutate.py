"""The two in-process write workloads: ``mutate_churn`` and ``mutate_aggview``.

One script, two view sets.  A pass inserts customers and orders (singles
and batches), updates some of the new orders, then deletes by value
everything it inserted, so live rows are pass-neutral while tombstones
and the string dictionary grow.  Every operation is one WAL record;
``mutate_churn``'s list has exactly ``snapshot_every`` (256) of them and
set-up ends on a checkpoint, so each pass pays for exactly one automatic
snapshot instead of one on some passes and none on others.
"""

from __future__ import annotations

import datetime as _dt
import os
import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import Catalog, Database
from repro.workloads import generate_tpch
from repro.workloads.tpch import MARKET_SEGMENTS, ORDER_PRIORITIES, ORDER_STATUSES

from harness import canonical_rows, median, rows_close

from .base import (
    Workload,
    dictionary_entries,
    disk_bytes_written,
    rows_bytes,
    shuffled_catalog,
    timed_encode,
)

#: orders above this total appear in the delta-maintained join view; new
#: orders are priced so that exactly half do, and every update crosses it
PRICE_CUT = 100000.0

JOIN_VIEW = (
    "big_orders",
    "SELECT c.C_NAME, o.O_ORDERKEY, o.O_TOTALPRICE FROM CUSTOMER c, ORDERS o "
    f"WHERE o.O_CUSTKEY = c.C_CUSTKEY AND o.O_TOTALPRICE > {PRICE_CUT}",
)
AGGREGATE_VIEW = (
    "by_priority",
    "SELECT o.O_ORDERPRIORITY, COUNT(*) AS n, SUM(o.O_TOTALPRICE) AS total "
    "FROM ORDERS o GROUP BY o.O_ORDERPRIORITY",
)


@dataclass(frozen=True)
class Mix:
    """How many operations of each kind one pass holds."""

    customers: int  # single-row CUSTOMER inserts
    singles: int  # single-row ORDERS inserts
    batches: int  # multi-row ORDERS inserts ...
    batch_rows: int  # ... of this many rows
    updates: int  # single-row ORDERS updates (price crosses PRICE_CUT)
    single_deletes: int  # single-row ORDERS deletes
    delete_batch_rows: int  # the remaining orders leave in batches of this size
    customer_delete_rows: int  # and the customers in batches of this size

    @property
    def operations(self) -> int:
        remaining = self.singles - self.single_deletes + self.batches * self.batch_rows
        return (
            self.customers
            + self.singles
            + self.batches
            + self.updates
            + self.single_deletes
            + -(-remaining // self.delete_batch_rows)
            + -(-self.customers // self.customer_delete_rows)
        )


Op = Tuple[str, str, Any, Any]  # (kind, table, rows, replacement rows or None)


def build_ops(mix: Mix, seed: int, index: int, first_key: int, customers: int) -> List[Op]:
    """The operation list of pass ``index``: same shape every pass, fresh keys."""
    rng = random.Random(f"{seed}:{index}")
    stride = mix.customers + mix.singles + mix.batches * mix.batch_rows
    key = first_key + index * stride
    new_customers = [
        [
            key + slot,
            f"Customer#{key + slot:09d}",
            rng.randrange(25),
            round(1000.0 + 37.5 * slot, 2),
            MARKET_SEGMENTS[slot % len(MARKET_SEGMENTS)],
        ]
        for slot in range(mix.customers)
    ]

    def order(slot: int) -> List[Any]:
        # every fourth new order belongs to a customer inserted this pass,
        # so both sides of the join view see deltas
        if slot % 4 == 0 and new_customers:
            customer = new_customers[slot % len(new_customers)][0]
        else:
            customer = rng.randint(1, customers)
        band = 160000.0 if slot % 2 else 40000.0
        return [
            key + mix.customers + slot,
            customer,
            ORDER_STATUSES[slot % len(ORDER_STATUSES)],
            round(band + 11.25 * slot, 2),
            _dt.date(1995, 1, 1) + _dt.timedelta(days=(slot * 13) % 1400),
            ORDER_PRIORITIES[slot % len(ORDER_PRIORITIES)],
            slot % 2,
        ]

    singles = [order(slot) for slot in range(mix.singles)]
    batches = [
        [order(mix.singles + batch * mix.batch_rows + slot) for slot in range(mix.batch_rows)]
        for batch in range(mix.batches)
    ]
    rng.shuffle(singles)

    ops: List[Op] = [("insert_customer", "CUSTOMER", [row], None) for row in new_customers]
    ops += [("insert_order", "ORDERS", [row], None) for row in singles]
    ops += [("insert_orders_batch", "ORDERS", batch, None) for batch in batches]
    live = list(singles)
    for _ in range(mix.updates):
        slot = rng.randrange(len(live))
        old = live[slot]
        new = list(old)
        new[3] = round(old[3] + (120000.0 if old[3] < PRICE_CUT else -120000.0), 2)
        live[slot] = new
        ops.append(("update_order", "ORDERS", [old], [new]))
    rng.shuffle(live)
    ops += [("delete_order", "ORDERS", [row], None) for row in live[: mix.single_deletes]]
    remaining = live[mix.single_deletes :] + [row for batch in batches for row in batch]
    rng.shuffle(remaining)
    for start in range(0, len(remaining), mix.delete_batch_rows):
        ops.append(
            (
                "delete_orders_batch",
                "ORDERS",
                remaining[start : start + mix.delete_batch_rows],
                None,
            )
        )
    for start in range(0, len(new_customers), mix.customer_delete_rows):
        ops.append(
            (
                "delete_customers_batch",
                "CUSTOMER",
                new_customers[start : start + mix.customer_delete_rows],
                None,
            )
        )
    return ops


def run_ops(database: Database, ops: Sequence[Op], span: Any) -> Tuple[List[float], List[str]]:
    """Apply ``ops`` in order; returns (per-op latencies, one line per failed op)."""
    clock = time.perf_counter
    latencies: List[float] = []
    failures: List[str] = []
    for position, (kind, table, rows, replacements) in enumerate(ops):
        started = clock()
        try:
            with span(f"api.{kind}", position):
                if replacements is not None:
                    done = database.update_rows(table, rows, replacements)
                elif kind.startswith("insert"):
                    done = database.load_rows(table, rows)
                else:
                    done = database.delete_rows(table, rows)
        except Exception as exc:  # noqa: BLE001 — a failed operation is a result, not a crash
            failures.append(f"{kind}@{position}: {type(exc).__name__}: {exc}")
        else:
            if done != len(rows):
                failures.append(f"{kind}@{position}: applied {done} of {len(rows)} rows")
        latencies.append(clock() - started)
    return latencies, failures


class MutateChurn(Workload):
    name = "mutate_churn"
    nominal_pass_s = 0.62
    SCALE = 0.2
    VIEWS = (JOIN_VIEW,)
    MIX = Mix(
        customers=16, singles=104, batches=4, batch_rows=40, updates=73,
        single_deletes=48, delete_batch_rows=24, customer_delete_rows=8,
    )  # 256 operations = snapshot_every: one automatic snapshot per pass
    QUICK_SCALE = 0.05
    QUICK_MIX = Mix(
        customers=2, singles=8, batches=1, batch_rows=4, updates=5,
        single_deletes=4, delete_batch_rows=4, customer_delete_rows=2,
    )

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.mix = self.QUICK_MIX if self.quick else self.MIX
        self.scale = self.QUICK_SCALE if self.quick else self.SCALE
        self.database: Optional[Database] = None
        self.data_dir = os.path.join(self.workdir, "tenant")
        self._twin_count = 0
        self._ops: List[Op] = []
        self._maintenance: List[Dict[str, float]] = []
        self._disk_seen: Dict[str, int] = {}
        self._disk_bytes = 0
        self._user_bytes = 0
        self._live_before: Dict[str, int] = {}

    # -- building ---------------------------------------------------------
    def open_database(
        self, durable: bool, views: Sequence[Tuple[str, str]], data_dir: Optional[str] = None
    ) -> Tuple[Database, Dict[str, float]]:
        """A fresh tenant (shuffled TPC-H-like data, both engines live, views)
        and what building it cost, as layer metrics."""
        catalog, load_seconds = shuffled_catalog(
            generate_tpch(self.scale), random.Random(self.seed)
        )
        graph, encode_seconds = timed_encode(catalog)
        # flush policy, stated and fixed: buffered group-commit WAL
        # (wal_fsync=False), automatic snapshot every 256 records
        database = Database(
            catalog,
            engine="tag",
            graph=graph,
            data_dir=data_dir if durable else None,
            wal_fsync=False,
        )
        database.engine("tag")
        database.engine("rdbms")
        for view_name, sql in views:
            database.materialize(sql, name=view_name)
        return database, {
            "storage.load_encode_s": load_seconds,
            "tag.encode_s": encode_seconds,
            "tag.vertices": graph.vertex_count,
            "tag.edges": graph.edge_count,
        }

    def ops_for(self, index: int) -> List[Op]:
        return build_ops(self.mix, self.seed, index, self._first_key, self._customers)

    def setup(self) -> None:
        self.database, built = self.open_database(True, self.VIEWS, self.data_dir)
        self.layer.update(built)
        catalog = self.database.catalog
        self._customers = len(catalog.relation("CUSTOMER"))
        self._first_key = 10 * max(
            max(row[0] for row in catalog.relation("ORDERS").rows), self._customers
        )
        self._ops = self.ops_for(0)
        self.kinds = [op[0] for op in self._ops]
        self._live_before = {rel.name: len(rel) for rel in catalog.relations()}
        self.warm_up()
        # align the automatic-snapshot cadence with pass boundaries
        self.database.checkpoint()
        disk_bytes_written(self.data_dir, self._disk_seen)
        self._stats_before = self.database.durability_stats()
        self._dictionary_before = dictionary_entries(catalog)
        self._maintenance_mark = self._maintenance_now()

    # -- measuring --------------------------------------------------------
    def run_pass(self, index: int) -> List[float]:
        latencies, failures = run_ops(self.database, self._ops, self.tracer.span)
        self.failed_ops += len(failures)
        self.failures += failures
        return latencies

    def _maintenance_now(self) -> Dict[str, float]:
        counters = self.database.maintenance
        return {
            "delta_apply_s": counters.delta_apply_seconds,
            "view_refresh_s": counters.view_refresh_seconds,
            "views_recomputed": counters.views_recomputed,
        }

    def after_pass(self, index: int) -> None:
        catalog = self.database.catalog
        live = {rel.name: len(rel) for rel in catalog.relations()}
        self.verdict("live_rows_pass_neutral", live == self._live_before)
        if index > 0:
            now = self._maintenance_now()
            self._maintenance.append(
                {key: now[key] - self._maintenance_mark[key] for key in now}
            )
            self._maintenance_mark = now
            self._disk_bytes += disk_bytes_written(self.data_dir, self._disk_seen)
            self._user_bytes += sum(
                rows_bytes(rows) + rows_bytes(replacements or ())
                for _kind, _table, rows, replacements in self._ops
            )
        self._ops = self.ops_for(index + 1)

    def _twin_pass_seconds(
        self, durable: bool, views: Sequence[Tuple[str, str]], passes: int
    ) -> float:
        """Median pass time of the same operation lists on an ablated twin."""
        self._twin_count += 1
        twin, _built = self.open_database(
            durable, views, os.path.join(self.workdir, f"twin{self._twin_count}")
        )
        try:
            seconds: List[float] = []
            for index in range(passes + 1):
                if index == 1 and durable:
                    twin.checkpoint()
                latencies, _failures = run_ops(twin, self.ops_for(index), self.tracer.span)
                seconds.append(sum(latencies))
            return median(seconds[1:])  # pass 0 is the twin's warm-up
        finally:
            twin.close()

    def layers(self, passes: int) -> None:
        recent = self._maintenance[:passes]
        durable_s = median(self.op_seconds[1 : passes + 1])
        # ablation twins replay passes 0..n from fresh state, so they drift
        # (tombstones) exactly like the measured tenant's untraced passes did
        with self.tracer.span("twin.memory_only"):
            memory_s = self._twin_pass_seconds(False, self.VIEWS, passes)
        with self.tracer.span("twin.view_less"):
            viewless_s = self._twin_pass_seconds(True, (), passes)
        stats = self.database.durability_stats()
        entries = dictionary_entries(self.database.catalog)
        self.layer.update(
            {
                "incremental.delta_apply_ms": 1e3 * median([m["delta_apply_s"] for m in recent]),
                "incremental.view_refresh_ms": 1e3
                * median([m["view_refresh_s"] for m in recent]),
                "incremental.view_ablation_ms": 1e3 * (durable_s - viewless_s),
                "incremental.views_recomputed": median([m["views_recomputed"] for m in recent]),
                "incremental.full_rebuilds": self.database.maintenance.full_rebuilds,
                "durability.write_ms": 1e3 * (durable_s - memory_s),
                "durability.snapshots": stats["snapshots_written"]
                - self._stats_before["snapshots_written"],
                "durability.disk_bytes_per_user_byte": self._disk_bytes
                / max(self._user_bytes, 1),
                "durability.max_stall_ms": 1e3 * self.max_latency,
                "storage.dictionary_entries": entries,
                "storage.dictionary_growth": entries - self._dictionary_before,
            }
        )

    # -- checking ---------------------------------------------------------
    def check(self) -> None:
        database = self.database
        catalog = database.catalog
        self.verdict("no_full_rebuilds", database.maintenance.full_rebuilds == 0)
        views: Dict[str, List[Tuple[Any, ...]]] = {}
        session = database.connect()
        for view_name, sql in self.VIEWS:
            maintained = canonical_rows(database.query_view(view_name))
            views[view_name] = maintained
            self.verdict(
                "views_equal_cold_reexecution",
                rows_close(maintained, canonical_rows(session.sql(sql))),
            )
        orders = len(catalog.relation("ORDERS"))
        for engine in ("tag", "rdbms"):
            counted = database.connect(engine=engine).sql("SELECT COUNT(*) AS n FROM ORDERS o")
            self.verdict("engines_see_live_rows", counted.single_value() == orders)
        counts = {rel.name: len(rel) for rel in catalog.relations()}

        # a clean close, then recovery into an empty catalog of the same schema
        database.close()
        empty = Catalog(catalog.name)
        for relation in catalog.relations():
            empty.create(relation.schema)
        started = time.perf_counter()
        with self.tracer.span("durability.recover"):
            reopened = Database(empty, engine="tag", data_dir=self.data_dir, wal_fsync=False)
        self.layer["durability.recover_s"] = time.perf_counter() - started
        try:
            self.verdict(
                "reopened_row_counts", {rel.name: len(rel) for rel in empty.relations()} == counts
            )
            for view_name, rows in views.items():
                self.verdict(
                    "reopened_view_rows",
                    rows_close(canonical_rows(reopened.query_view(view_name)), rows),
                )
        finally:
            reopened.close()

    def sizes(self) -> Dict[str, Any]:
        catalog = self.database.catalog
        orders = catalog.relation("ORDERS")
        return {
            "operations_per_pass": len(self.kinds),
            "rows": catalog.total_rows(),
            "orders_live": len(orders),
            "orders_physical": orders.physical_count,
            "dictionary_entries": dictionary_entries(catalog),
            "views": [view_name for view_name, _sql in self.VIEWS],
        }

    def close(self) -> None:
        if self.database is not None:
            self.database.close()


class MutateAggview(MutateChurn):
    name = "mutate_aggview"
    nominal_pass_s = 0.62
    VIEWS = (JOIN_VIEW, AGGREGATE_VIEW)
    MIX = Mix(
        customers=4, singles=26, batches=1, batch_rows=10, updates=18,
        single_deletes=12, delete_batch_rows=12, customer_delete_rows=4,
    )  # 64 operations: an automatic snapshot every fourth pass
