"""The kernel's observable cost equals the reference program's, superstep by superstep.

The paper's cost model (Section 2) counts supersteps, messages and
per-vertex work.  The ``tag`` kernel runs a superstep as one loop over the
frontier and reports its totals in bulk; the ``tag_dict`` reference runs
``compute`` per vertex and accounts per ``send``.  Both execute the same
algorithm over the same plan, so every superstep must activate the same
vertices, send the same messages and charge the same compute units — and
with several workers, cross the same partition boundaries.  (Message
*bytes* legitimately differ: a dict row weighs more than a tuple row.)
"""

import pytest

from repro.api.database import Database
from repro.sql import parse_and_bind
from repro.workloads import tpcds_workload, tpch_workload

WORKLOADS = {"h": tpch_workload(scale=0.05, seed=7), "ds": tpcds_workload(scale=0.05, seed=7)}
QUERIES = [
    (prefix, query.name) for prefix, workload in WORKLOADS.items() for query in workload.queries
]


def _engines(num_workers):
    return {
        prefix: {
            name: Database(workload.catalog, num_workers=num_workers).engine(name)
            for name in ("tag", "tag_dict")
        }
        for prefix, workload in WORKLOADS.items()
    }


ONE_WORKER = _engines(1)
FOUR_WORKERS = _engines(4)


def _supersteps(engines, prefix, query_name):
    workload = WORKLOADS[prefix]
    query = workload.query(query_name)
    spec = parse_and_bind(query.sql, workload.catalog, name=query.name)
    return {
        name: engine.execute(spec).metrics.supersteps for name, engine in engines[prefix].items()
    }


def test_the_suite_covers_all_46_queries():
    assert len(QUERIES) == 46


@pytest.mark.parametrize("prefix,query_name", QUERIES)
def test_per_superstep_cost_equals_the_reference(prefix, query_name):
    steps = _supersteps(ONE_WORKER, prefix, query_name)
    cost = {
        name: [(s.active_vertices, s.messages_sent, s.compute_units) for s in series]
        for name, series in steps.items()
    }
    assert cost["tag"] == cost["tag_dict"]
    # one worker: nothing can cross a partition boundary
    assert all(s.network_messages == 0 and s.network_bytes == 0 for s in steps["tag"])


@pytest.mark.parametrize("prefix,query_name", QUERIES)
def test_cross_worker_messages_equal_the_reference(prefix, query_name):
    steps = _supersteps(FOUR_WORKERS, prefix, query_name)
    crossing = {
        name: [(s.messages_sent, s.network_messages) for s in series]
        for name, series in steps.items()
    }
    assert crossing["tag"] == crossing["tag_dict"]
    kernel = steps["tag"]
    # bytes follow messages: network traffic is a share of all traffic
    assert all(0 <= s.network_bytes <= s.message_bytes for s in kernel)
    assert all((s.network_bytes > 0) == (s.network_messages > 0) for s in kernel)
