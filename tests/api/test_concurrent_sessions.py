"""Thread-safety: concurrent sessions sharing one Database (cache + statistics).

Two (and more) sessions hammer the same parameterized statements from
separate threads.  Every thread must see only its own parameter binding
(no cross-talk through the shared plan cache) and the shared cache's
counters must stay consistent under the concurrent hits.
"""

import threading

import pytest

from conftest import graph_properties
from repro.api import Database

THREADS = 4
ITERATIONS = 25

#: nation key -> customer count in the mini catalog
EXPECTED_CUSTOMERS = {1: 2, 2: 2, 3: 1}

PARAMETERIZED_SQL = (
    "SELECT COUNT(*) AS n FROM CUSTOMER c, ORDERS o "
    "WHERE c.C_CUSTKEY = o.O_CUSTKEY AND c.C_NATIONKEY = :nation"
)
#: nation key -> order count through the join (customer 99 is dangling)
EXPECTED_ORDERS = {1: 2, 2: 2, 3: 1}


def run_in_threads(worker, count=THREADS):
    """Run ``worker(index)`` in ``count`` threads; re-raise any failure."""
    errors = []

    def wrapped(index):
        try:
            worker(index)
        except Exception as exc:  # pragma: no cover - surfaced via raise below
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestConcurrentSessions:
    def test_two_sessions_disjoint_bindings(self, mini_catalog):
        db = Database.from_catalog(mini_catalog)
        sessions = [db.connect() for _ in range(THREADS)]

        def worker(index):
            session = sessions[index]
            nation = (index % 3) + 1
            for _ in range(ITERATIONS):
                result = session.sql(
                    "SELECT COUNT(*) AS n FROM CUSTOMER c WHERE c.C_NATIONKEY = :nation",
                    params={"nation": nation},
                )
                assert result.single_value() == EXPECTED_CUSTOMERS[nation]

        run_in_threads(worker)
        stats = db.cache_stats()
        # one parameter-generic plan, shared by every thread and binding
        assert stats["entries"] == 1
        assert stats["misses"] + stats["hits"] == THREADS * ITERATIONS
        assert stats["hits"] >= THREADS * ITERATIONS - THREADS  # at most one miss per racer

    def test_concurrent_join_queries_share_cache_consistently(self, mini_catalog):
        db = Database.from_catalog(mini_catalog)
        statement = db.connect().prepare(PARAMETERIZED_SQL)

        def worker(index):
            nation = (index % 3) + 1
            for _ in range(ITERATIONS):
                result = statement.execute({"nation": nation})
                assert result.single_value() == EXPECTED_ORDERS[nation]

        run_in_threads(worker)
        stats = db.cache_stats()
        lookups = stats["hits"] + stats["misses"]
        assert lookups == THREADS * ITERATIONS
        assert stats["entries"] == 1
        # counters stay internally consistent under the lock
        assert stats["stores"] >= 1
        assert stats["evictions"] == 0

    def test_mixed_engines_concurrently(self, mini_catalog):
        """TAG + RDBMS sessions running together over one Database."""
        db = Database.from_catalog(mini_catalog)
        engines = ["tag", "rdbms", "tag", "rdbms"]

        def worker(index):
            session = db.connect(engine=engines[index])
            for _ in range(ITERATIONS):
                result = session.sql(
                    "SELECT COUNT(*) AS n FROM CUSTOMER c, ORDERS o "
                    "WHERE c.C_CUSTKEY = o.O_CUSTKEY AND o.O_TOTAL > :v",
                    params={"v": 15.0},
                )
                assert result.single_value() == 3

        run_in_threads(worker)

    def test_concurrent_statistics_reads_agree(self, mini_catalog):
        db = Database.from_catalog(mini_catalog)
        seen = []

        def worker(index):
            stats = db.statistics
            seen.append((stats.cardinality("ORDERS"), stats.distinct_count("ORDERS", "O_CUSTKEY")))

        run_in_threads(worker)
        assert set(seen) == {(6, 5)}

    def test_executors_sharing_a_graph_run_concurrently_without_a_lock(self, mini_catalog):
        """Run-scoped BSP state means shared-graph executors need no lock."""
        from repro.core import TagJoinExecutor
        from repro.sql import parse_and_bind
        from repro.tag import encode_catalog

        graph = encode_catalog(mini_catalog)
        before = graph_properties(graph)
        executors = [TagJoinExecutor(graph, mini_catalog) for _ in range(THREADS)]
        assert not hasattr(executors[0], "_execution_lock")
        assert not hasattr(graph, "_execution_lock")
        spec = parse_and_bind(
            "SELECT n.N_NAME, o.O_ORDERKEY FROM NATION n, CUSTOMER c, ORDERS o "
            "WHERE n.N_NATIONKEY = c.C_NATIONKEY AND c.C_CUSTKEY = o.O_CUSTKEY",
            mini_catalog,
        )
        baseline = executors[0].execute(spec).to_tuples()

        def worker(index):
            for _ in range(ITERATIONS):
                assert executors[index].execute(spec).to_tuples() == baseline

        run_in_threads(worker)
        # the shared graph accumulated no scratch residue from any run
        assert graph_properties(graph) == before

    def test_stale_executor_is_invalidated_by_note_data_change(self, mini_catalog_copy):
        """Out-of-band re-encoding retires executors bound to the old graph."""
        from repro.core import StaleEngineError

        db = Database.from_catalog(mini_catalog_copy)
        session = db.connect()
        stale = db.engine("tag")
        old_graph = db.tag_graph()
        assert session.sql("SELECT COUNT(*) AS n FROM ORDERS o").single_value() == 6

        # mutate behind the database's back, then declare it
        mini_catalog_copy.relation("ORDERS").insert([106, 10, 99.0, "HIGH"])
        db.note_data_change()
        # a directly captured executor fails loudly instead of serving the
        # stale encoding ...
        with pytest.raises(StaleEngineError):
            stale.execute_sql("SELECT COUNT(*) AS n FROM ORDERS o")
        # ... while the session transparently rebinds to a fresh executor
        # built over the re-encoded graph
        assert session.sql("SELECT COUNT(*) AS n FROM ORDERS o").single_value() == 7
        fresh = db.engine("tag")
        assert fresh is not stale
        assert fresh.graph is not old_graph
        assert fresh.graph is db.tag_graph()

    def test_load_rows_patches_captured_executor_in_place(self, mini_catalog_copy):
        """The delta write path keeps even directly captured executors live."""
        db = Database.from_catalog(mini_catalog_copy)
        session = db.connect()
        captured = db.engine("tag")
        old_graph = db.tag_graph()
        assert session.sql("SELECT COUNT(*) AS n FROM ORDERS o").single_value() == 6

        db.load_rows("ORDERS", [[106, 10, 99.0, "HIGH"]])
        # the executor was patched, not retired: same object, same graph,
        # and it already serves the appended rows
        assert db.engine("tag") is captured
        assert captured.execute_sql("SELECT COUNT(*) AS n FROM ORDERS o").single_value() == 7
        assert db.tag_graph() is old_graph
        assert session.sql("SELECT COUNT(*) AS n FROM ORDERS o").single_value() == 7

    def test_session_rebinds_when_engine_retired_mid_query(self, mini_catalog_copy):
        """A data change racing a session's execute triggers one transparent
        retry against the freshly built engine, not a StaleEngineError."""
        db = Database.from_catalog(mini_catalog_copy)
        session = db.connect()
        session.sql("SELECT COUNT(*) AS n FROM ORDERS o")  # build the engine
        # retire the resolved engine at the worst moment: after resolution,
        # before execution — emulated by retiring it directly
        db.engine("tag").retire("raced by a writer")
        assert session.sql("SELECT COUNT(*) AS n FROM ORDERS o").single_value() == 6

    def test_eviction_pressure_under_concurrency(self, mini_catalog):
        """A tiny cache being thrashed from several threads stays consistent."""
        db = Database.from_catalog(mini_catalog, plan_cache_entries=2)
        queries = [
            "SELECT COUNT(*) AS n FROM ORDERS o WHERE o.O_TOTAL > :v",
            "SELECT COUNT(*) AS n FROM CUSTOMER c WHERE c.C_NATIONKEY = :v",
            "SELECT COUNT(*) AS n FROM NATION n WHERE n.N_NATIONKEY = :v",
            "SELECT COUNT(*) AS n FROM ORDERS o WHERE o.O_ORDERKEY = :v",
        ]

        def worker(index):
            session = db.connect()
            for iteration in range(ITERATIONS):
                session.sql(queries[(index + iteration) % len(queries)], params={"v": 1})

        run_in_threads(worker)
        stats = db.cache_stats()
        assert len(db.plan_cache) <= 2
        assert stats["hits"] + stats["misses"] == THREADS * ITERATIONS
        assert stats["stores"] == stats["misses"]


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-v"])
