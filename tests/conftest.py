"""Shared fixtures: small catalogs, TAG graphs and executors."""

from __future__ import annotations

import sys

import pytest

from repro.core import TagJoinExecutor
from repro.engine import RelationalExecutor
from repro.relational import Catalog, Column, DataType, ForeignKey, Relation, Schema
from repro.exec import program as kernel_program
from repro.tag import encode_catalog
from repro.tag.statistics import CatalogStatistics

#: The kernel's one remaining choice is made from table size, so suites
#: that must cover both sides of it pin ``COLUMNAR_THRESHOLD``: the shipped
#: value, 0 (every table a column batch) and "never" (every table tuples).
KERNEL_REGIMES = {"shipped": None, "columnar": 0, "tuples": sys.maxsize}


@pytest.fixture(params=list(KERNEL_REGIMES))
def kernel_regime(request, monkeypatch) -> str:
    """Run the requesting test once per table-size regime of the ``tag`` kernel."""
    threshold = KERNEL_REGIMES[request.param]
    if threshold is not None:
        monkeypatch.setattr(kernel_program, "COLUMNAR_THRESHOLD", threshold)
    return request.param


def graph_properties(graph):
    """A snapshot of every vertex record and of the adjacency index.

    Per-run scratch lives in the run's ``RunState``; taken before and after
    an execution, equal snapshots show the run wrote nothing onto the
    shared graph.
    """
    vertices = {
        vertex.vertex_id: (vertex.label, vertex.ordinal, vertex.index)
        for vertex in graph.vertices()
    }
    adjacency = {
        label: {source: list(targets) for source, targets in graph.adjacency(label).items()}
        for label in graph.edge_labels()
    }
    return vertices, adjacency


def assert_graphs_equal(patched, rebuilt):
    """A patched graph is indistinguishable from a cold re-encode.

    Same vertices and labels, each tuple vertex with the same index and
    reading the same row, ``relation[index - 1]`` — and the same
    label-first adjacency index, the graph's one edge store: the labels
    present (a label whose last edge went is dropped, never left as an
    empty entry), the sources under each, the targets of each source.
    Within one graph no list is empty and the lists add up to the edge
    count.
    """
    patched_ids = sorted(patched.vertex_ids())
    assert patched_ids == sorted(rebuilt.vertex_ids())
    assert patched.edge_count == rebuilt.edge_count
    assert patched.count_by_label() == rebuilt.count_by_label()
    for vertex_id in patched_ids:
        # tuple vertices carry their index; attribute vertices carry none
        vertex = patched.vertex(vertex_id)
        assert vertex.index == rebuilt.vertex(vertex_id).index, vertex_id
        if vertex.index:
            relation = patched.catalog.relation(vertex.label)
            codec = relation.encoded_store.codec
            encoded = patched.encoded_row(vertex).values()
            assert codec.decode_row(tuple(encoded)) == relation[vertex.index - 1], vertex_id
    assert sorted(patched.edge_labels()) == sorted(rebuilt.edge_labels())
    for label in patched.edge_labels():
        adjacency = patched.adjacency(label)
        assert adjacency, label
        assert {source: sorted(targets) for source, targets in adjacency.items()} == {
            source: sorted(targets) for source, targets in rebuilt.adjacency(label).items()
        }, label
    for graph in (patched, rebuilt):
        indexed = 0
        for label in graph.edge_labels():
            for source, targets in graph.adjacency(label).items():
                assert targets, (label, source)
                indexed += len(targets)
        assert indexed == graph.edge_count


def live_rows_by_scan(relation):
    """The relation's live rows, found by physical position, not by the store."""
    return [relation[p] for p in range(relation.physical_count) if relation.is_live(p)]


def assert_statistics_match_scan(catalog) -> None:
    """Every count the statistics view reads equals a scan of the live rows:
    rows per relation, and NDV and NULLs per column, raw and encoded alike."""
    statistics = CatalogStatistics(catalog)
    for relation in catalog:
        live = live_rows_by_scan(relation)
        assert statistics.cardinality(relation.name) == len(live), relation.name
        store = relation.encoded_store
        for position, column in enumerate(relation.schema.column_names):
            values = [row[position] for row in live]
            present = {value for value in values if value is not None}
            nulls = sum(value is None for value in values)
            assert relation.distinct_count(column) == len(present), (relation.name, column)
            assert statistics.distinct_count(relation.name, column) == max(1, len(present))
            assert store.null_count(column) == nulls, (relation.name, column)


def make_mini_catalog() -> Catalog:
    """NATION / CUSTOMER / ORDERS — the running example of the paper's Figure 1."""
    nation = Relation(
        Schema(
            "NATION",
            [Column("N_NATIONKEY", DataType.INT, nullable=False), Column("N_NAME", DataType.STRING)],
            primary_key=["N_NATIONKEY"],
        ),
        [[1, "USA"], [2, "FRANCE"], [3, "JAPAN"]],
    )
    customer = Relation(
        Schema(
            "CUSTOMER",
            [
                Column("C_CUSTKEY", DataType.INT, nullable=False),
                Column("C_NATIONKEY", DataType.INT),
                Column("C_ACCTBAL", DataType.FLOAT),
            ],
            primary_key=["C_CUSTKEY"],
            foreign_keys=[ForeignKey(("C_NATIONKEY",), "NATION", ("N_NATIONKEY",))],
        ),
        [[10, 1, 100.0], [11, 1, 250.0], [12, 2, 50.0], [13, 3, 75.0], [14, 2, 0.0]],
    )
    orders = Relation(
        Schema(
            "ORDERS",
            [
                Column("O_ORDERKEY", DataType.INT, nullable=False),
                Column("O_CUSTKEY", DataType.INT),
                Column("O_TOTAL", DataType.FLOAT),
                Column("O_PRIORITY", DataType.STRING),
            ],
            primary_key=["O_ORDERKEY"],
            foreign_keys=[ForeignKey(("O_CUSTKEY",), "CUSTOMER", ("C_CUSTKEY",))],
        ),
        [
            [100, 10, 50.0, "HIGH"],
            [101, 10, 20.0, "LOW"],
            [102, 12, 30.0, "HIGH"],
            [103, 13, 10.0, "LOW"],
            [104, 14, 5.0, "HIGH"],
            [105, 99, 7.0, "LOW"],  # dangling customer key
        ],
    )
    catalog = Catalog("mini")
    for relation in (nation, customer, orders):
        catalog.add(relation)
    return catalog


@pytest.fixture(scope="session")
def mini_catalog() -> Catalog:
    return make_mini_catalog()


@pytest.fixture()
def mini_catalog_copy() -> Catalog:
    """A fresh mini catalog safe to mutate (bulk loads, version bumps)."""
    return make_mini_catalog()


@pytest.fixture(scope="session")
def mini_graph(mini_catalog):
    return encode_catalog(mini_catalog)


@pytest.fixture()
def tag_executor(mini_graph, mini_catalog):
    return TagJoinExecutor(mini_graph, mini_catalog)


@pytest.fixture()
def rdbms_executor(mini_catalog):
    return RelationalExecutor(mini_catalog)


def brute_force_join_nco(catalog: Catalog):
    """Reference result for NATION ⋈ CUSTOMER ⋈ ORDERS on the mini catalog."""
    nation = catalog.relation("NATION").to_dicts()
    customer = catalog.relation("CUSTOMER").to_dicts()
    orders = catalog.relation("ORDERS").to_dicts()
    rows = []
    for n in nation:
        for c in customer:
            if c["C_NATIONKEY"] != n["N_NATIONKEY"]:
                continue
            for o in orders:
                if o["O_CUSTKEY"] != c["C_CUSTKEY"]:
                    continue
                rows.append((n["N_NAME"], c["C_CUSTKEY"], o["O_ORDERKEY"], o["O_TOTAL"]))
    return sorted(rows)
