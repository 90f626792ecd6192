"""Concurrency stress: N threads x M sessions x parameterized TPC-H queries.

Marked ``stress`` so the heavier load runs in its own CI job
(``pytest -m stress``); the suite still finishes in well under a minute at
the tiny scale factor used here.  Every concurrent result set must equal
the serial baseline bit for bit, the shared plan cache's counters must
stay consistent under the load, and the shared graph must come out of the
hammering without a byte of scratch residue.
"""

import random
import threading

import pytest

from conftest import graph_properties
from repro.api import Database
from repro.workloads import tpch_workload

pytestmark = pytest.mark.stress

THREADS = 8
SESSIONS = 4
ITERATIONS = 6  # per thread, per query

#: parameterized TPC-H-style statements spanning the aggregation classes
STATEMENTS = (
    (
        "SELECT o.O_ORDERKEY, SUM(l.L_EXTENDEDPRICE) AS revenue "
        "FROM CUSTOMER c, ORDERS o, LINEITEM l "
        "WHERE c.C_MKTSEGMENT = :segment AND c.C_CUSTKEY = o.O_CUSTKEY "
        "AND l.L_ORDERKEY = o.O_ORDERKEY "
        "GROUP BY o.O_ORDERKEY",
        [{"segment": segment} for segment in ("BUILDING", "AUTOMOBILE", "MACHINERY")],
    ),
    (
        "SELECT COUNT(*) AS n FROM CUSTOMER c, ORDERS o "
        "WHERE c.C_CUSTKEY = o.O_CUSTKEY AND o.O_TOTALPRICE > :floor",
        [{"floor": value} for value in (100.0, 1000.0, 10000.0)],
    ),
    (
        "SELECT c.C_CUSTKEY, c.C_ACCTBAL FROM CUSTOMER c WHERE c.C_NATIONKEY = :nation",
        [{"nation": key} for key in (0, 1, 2)],
    ),
)


@pytest.fixture(scope="module")
def stress_db():
    workload = tpch_workload(scale=0.02)
    return Database.from_catalog(workload.catalog)


@pytest.fixture(scope="module")
def serial_baseline(stress_db):
    """Ground-truth result tuples for every (statement, binding) pair."""
    session = stress_db.connect()
    baseline = {}
    for sql, param_sets in STATEMENTS:
        for params in param_sets:
            key = (sql, tuple(sorted(params.items())))
            baseline[key] = session.sql(sql, params=params).to_tuples()
    return baseline


def hammer(worker, thread_count=THREADS):
    """Run ``worker(index)`` across threads; re-raise the first failure."""
    errors = []

    def wrapped(index):
        try:
            worker(index)
        except Exception as exc:  # pragma: no cover - surfaced via raise below
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,)) for i in range(thread_count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestConcurrentStress:
    def test_every_concurrent_result_equals_the_serial_baseline(
        self, stress_db, serial_baseline
    ):
        sessions = [stress_db.connect() for _ in range(SESSIONS)]
        before = graph_properties(stress_db.tag_graph())

        def worker(index):
            rng = random.Random(index)
            session = sessions[index % SESSIONS]
            tasks = [
                (sql, params)
                for sql, param_sets in STATEMENTS
                for params in param_sets
            ] * ITERATIONS
            rng.shuffle(tasks)
            for sql, params in tasks:
                key = (sql, tuple(sorted(params.items())))
                result = session.sql(sql, params=params)
                assert result.to_tuples() == serial_baseline[key]

        hammer(worker)
        # the immutable encoded graph took no scratch damage from the load
        assert graph_properties(stress_db.tag_graph()) == before

    def test_plan_cache_counters_stay_consistent_under_load(self, stress_db):
        before = stress_db.cache_stats()
        executions_per_thread = sum(len(param_sets) for _, param_sets in STATEMENTS)

        def worker(index):
            session = stress_db.connect()
            for sql, param_sets in STATEMENTS:
                for params in param_sets:
                    session.sql(sql, params=params)

        hammer(worker)
        after = stress_db.cache_stats()
        new_lookups = (after["hits"] + after["misses"]) - (
            before["hits"] + before["misses"]
        )
        assert new_lookups == THREADS * executions_per_thread
        # one parameter-generic plan per statement, however many bindings
        # and threads raced: stores never exceed misses, entries are bounded
        # by the distinct statements ever compiled
        assert after["stores"] == after["misses"]
        assert after["entries"] <= len(STATEMENTS)
        assert after["hits"] >= new_lookups - THREADS * len(STATEMENTS)

    def test_execute_many_matches_serial_under_stress(self, stress_db, serial_baseline):
        items = [
            (sql, params)
            for sql, param_sets in STATEMENTS
            for params in param_sets
        ] * ITERATIONS
        results = stress_db.execute_many(items, max_workers=THREADS)
        for (sql, params), result in zip(items, results):
            key = (sql, tuple(sorted(params.items())))
            assert result.to_tuples() == serial_baseline[key]

    def test_interleaved_explain_analyze_is_residue_free(self, stress_db, serial_baseline):
        """explain(analyze=True) runs the query; interleaved calls must not
        corrupt each other or the graph (the old shared-scratch bug)."""
        sql_a, params_a = STATEMENTS[0][0], STATEMENTS[0][1][0]
        sql_b, params_b = STATEMENTS[1][0], STATEMENTS[1][1][0]
        before = graph_properties(stress_db.tag_graph())

        def worker(index):
            session = stress_db.connect()
            sql, params = (sql_a, params_a) if index % 2 == 0 else (sql_b, params_b)
            for _ in range(ITERATIONS):
                plan = session.explain(sql, params=params, analyze=True)
                expected = len(serial_baseline[(sql, tuple(sorted(params.items())))])
                assert f"actual: {expected} rows" in plan

        hammer(worker)
        assert graph_properties(stress_db.tag_graph()) == before


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-v", "-m", "stress"])
