"""Plan cache and batch execution on the TPC-H-like workload (scale 0.03).

A repeated query must replay its compiled plan, a prepared statement must
compile once for every value of its parameters (the plan-cache
fingerprint renders parameters by name, not by value), and a concurrent
``execute_many`` batch must equal the serial loop in both worker modes.
``cross_check_plans=True`` also runs the heuristic plan beside the chosen
one and raises on a row mismatch, so every execution here compares two
plans' answers.  Engine agreement over the whole workload is
``test_engine_agreement.py``.
"""

import os

import pytest

from repro.api import Database
from repro.core.executor import TagJoinExecutor
from repro.sql import parse_and_bind
from repro.tag.encoder import encode_catalog
from repro.workloads import tpch_workload

SCALE = 0.03
REPEATS = 3
#: a parameterized Q3 variant: one prepared plan, executed per market segment
PARAMETERIZED_SQL = """
    SELECT o.O_ORDERKEY, o.O_ORDERDATE, o.O_SHIPPRIORITY,
           SUM(l.L_EXTENDEDPRICE) AS revenue
    FROM CUSTOMER c, ORDERS o, LINEITEM l
    WHERE c.C_MKTSEGMENT = :segment AND c.C_CUSTKEY = o.O_CUSTKEY
      AND l.L_ORDERKEY = o.O_ORDERKEY
    GROUP BY o.O_ORDERKEY, o.O_ORDERDATE, o.O_SHIPPRIORITY
"""
PARAMETER_SETS = (
    {"segment": "BUILDING"},
    {"segment": "AUTOMOBILE"},
    {"segment": "MACHINERY"},
    {"segment": "HOUSEHOLD"},
)
CONCURRENT_WORKERS = 4
CONCURRENT_BATCH = 32


@pytest.fixture(scope="module")
def workload():
    return tpch_workload(scale=SCALE)


@pytest.fixture(scope="module")
def graph(workload):
    return encode_catalog(workload.catalog)


@pytest.fixture
def database(workload, graph):
    """A fresh plan cache over the shared graph, cross-checking every plan."""
    return Database(
        workload.catalog, graph=graph, engine_options={"tag": {"cross_check_plans": True}}
    )


def test_repeated_query_hits_the_plan_cache(workload, graph):
    executor = TagJoinExecutor(graph, workload.catalog, cross_check_plans=True)
    spec = parse_and_bind(workload.query("q3").sql, workload.catalog, name="q3")
    first = executor.execute(spec).to_tuples()
    for _ in range(REPEATS - 1):
        assert executor.execute(spec).to_tuples() == first
    assert executor.plan_cache_stats()["hits"] >= REPEATS - 1


def test_prepared_statement_compiles_once_for_all_parameters(database):
    statement = database.connect().prepare(PARAMETERIZED_SQL, name="q3_parameterized")
    cold, *warm = [statement.execute(params).metrics for params in PARAMETER_SETS]
    assert cold.plan_cache_misses >= 1
    assert sum(metrics.plan_cache_hits for metrics in warm) == len(PARAMETER_SETS) - 1


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_execute_many_equals_the_serial_loop(database, mode):
    if mode == "process" and not hasattr(os, "fork"):
        pytest.skip("process mode needs os.fork")
    items = [
        (PARAMETERIZED_SQL, PARAMETER_SETS[index % len(PARAMETER_SETS)])
        for index in range(CONCURRENT_BATCH)
    ]
    session = database.connect()
    serial = [session.sql(sql, params=params).to_tuples() for sql, params in items]
    batch = database.execute_many(items, max_workers=CONCURRENT_WORKERS, mode=mode)
    assert [result.to_tuples() for result in batch] == serial
