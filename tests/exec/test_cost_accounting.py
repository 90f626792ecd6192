"""The kernel's observable cost equals the reference program's, superstep by superstep.

The paper's cost model (Section 2) counts supersteps, messages and
per-vertex work.  The ``tag`` kernel runs a superstep as one loop over the
frontier and reports its totals in bulk; the ``tag_dict`` reference runs
``compute`` per vertex and accounts per ``send``.  Both execute the same
algorithm over the same plan, so every superstep must activate the same
vertices, send the same messages and charge the same compute units — and
with several workers, cross the same partition boundaries.  That holds
where the kernel folds many vertices' rows before the aggregator sees
them (a single-relation plan, ``h-q1`` and ``h-q6`` here): each admitted
vertex is still charged one aggregator message.  Message *bytes*
legitimately differ: the kernel counts them from its compiled plan, the
byte model of ``repro.bsp.metrics``, and the reference sizes the Python
objects it sends.  So the kernel's bytes must not move when every table
is loaded in another order.
"""

import pytest

from repro.api.database import Database
from repro.relational import Catalog
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


def _reloaded_in_reverse(catalog):
    copy = Catalog(catalog.name)
    for relation in catalog.relations():
        copy.create(relation.schema).extend([list(row) for row in reversed(relation.rows)])
    return copy


REVERSED = {
    prefix: Database(_reloaded_in_reverse(workload.catalog)).engine("tag")
    for prefix, workload in WORKLOADS.items()
}


@pytest.mark.parametrize("prefix,query_name", QUERIES)
def test_message_bytes_do_not_depend_on_load_order(prefix, query_name):
    """The kernel counts bytes from its compiled plan, so reloading every
    table in reverse order moves no superstep's message bytes."""
    workload = WORKLOADS[prefix]
    spec = parse_and_bind(workload.query(query_name).sql, workload.catalog, name=query_name)
    loaded = ONE_WORKER[prefix]["tag"].execute(spec).metrics.supersteps
    reversed_ = REVERSED[prefix].execute(spec).metrics.supersteps
    assert [s.message_bytes for s in reversed_] == [s.message_bytes for s in loaded]
    assert [s.messages_sent for s in reversed_] == [s.messages_sent for s in loaded]
