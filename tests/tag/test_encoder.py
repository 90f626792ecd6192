"""TAG encoding tests, including a reconstruction of the paper's Figure 1."""

import gc
import tracemalloc

import pytest

from repro.relational import Catalog, Column, DataType, Relation, Schema
from repro.tag import (
    TagEncoder,
    TagStatistics,
    attribute_vertex_id,
    column_selectivity,
    edge_label,
    edge_label_degrees,
    encode_catalog,
    heavy_value_count,
    storage_comparison,
    tuple_vertex_id,
)
from repro.workloads import generate_tpch


def figure1_catalog() -> Catalog:
    """The NATION / CUSTOMER / ORDER instance of the paper's Figure 1 (simplified)."""
    nation = Relation(
        Schema("NATION", [Column("NATIONKEY", DataType.INT), Column("NAME", DataType.STRING)]),
        [[1, "USA"], [2, "FRANCE"]],
    )
    customer = Relation(
        Schema("CUSTOMER", [Column("CUSTKEY", DataType.INT), Column("NATIONKEY", DataType.INT)]),
        [[10, 1], [2, 2]],
    )
    order = Relation(
        Schema("ORDER_T", [Column("ORDERKEY", DataType.INT), Column("CUSTKEY", DataType.INT)]),
        [[2, 10], [3, 2]],
    )
    catalog = Catalog("figure1")
    for relation in (nation, customer, order):
        catalog.add(relation)
    return catalog


class TestEncoding:
    def test_tuple_vertices_one_per_tuple(self):
        graph = encode_catalog(figure1_catalog())
        assert len(graph.tuple_vertices_of("NATION")) == 2
        assert len(graph.tuple_vertices_of("CUSTOMER")) == 2
        assert len(graph.tuple_vertices_of("ORDER_T")) == 2

    def test_attribute_vertices_shared_across_relations_and_attributes(self):
        """The paper's key point: value 2 appears as NATIONKEY, CUSTKEY and
        ORDERKEY yet is represented by a single attribute vertex."""
        graph = encode_catalog(figure1_catalog())
        vertex_id = attribute_vertex_id(2)
        assert graph.has_vertex(vertex_id)
        labels = {label for label in graph.edge_labels() if graph.edge_targets(vertex_id, label)}
        assert labels == {
            "NATION.NATIONKEY",
            "CUSTOMER.NATIONKEY",
            "CUSTOMER.CUSTKEY",
            "ORDER_T.ORDERKEY",
            "ORDER_T.CUSTKEY",
        }

    def test_graph_is_bipartite(self):
        graph = encode_catalog(figure1_catalog())
        for label in graph.edge_labels():
            for source, targets in graph.adjacency(label).items():
                is_tuple = graph.is_tuple_vertex(graph.vertex(source))
                for target in targets:
                    assert is_tuple != graph.is_tuple_vertex(graph.vertex(target))

    def test_edges_labelled_with_relation_and_attribute(self):
        graph = encode_catalog(figure1_catalog())
        nation_vertex = graph.vertex(tuple_vertex_id("NATION", 1))
        labels = {
            label
            for label in graph.edge_labels()
            if graph.edge_targets(nation_vertex.vertex_id, label)
        }
        assert labels == {"NATION.NATIONKEY", "NATION.NAME"}
        assert edge_label("NATION", "NAME") == "NATION.NAME"

    def test_typed_attribute_vertices_distinct(self):
        """Integer 1 and string '1' live in different domains, hence different vertices."""
        assert attribute_vertex_id(1) != attribute_vertex_id("1")

    def test_join_through_shared_attribute_vertex(self, mini_graph):
        """Attribute vertices act as a join index: customer 10's key vertex
        reaches both its CUSTOMER tuple and its ORDERS tuples."""
        vertex_id = attribute_vertex_id(10)
        customers = mini_graph.edge_targets(vertex_id, "CUSTOMER.C_CUSTKEY")
        orders = mini_graph.edge_targets(vertex_id, "ORDERS.O_CUSTKEY")
        assert len(customers) == 1
        assert len(orders) == 2

    def test_floats_not_materialised(self, mini_graph, mini_catalog):
        for value in mini_catalog.relation("CUSTOMER").column_values("C_ACCTBAL"):
            assert mini_graph.attribute_vertex_for(value) is None

    def test_materialise_override(self):
        catalog = figure1_catalog()
        encoder = TagEncoder(materialise_overrides={("NATION", "NAME"): False})
        graph = encoder.encode(catalog)
        assert graph.attribute_vertex_for("USA") is None

    def test_duplicate_tuples_get_fresh_vertices(self):
        relation = Relation(
            Schema("R", [Column("A", DataType.INT)]),
            [[7], [7]],
        )
        catalog = Catalog("dups")
        catalog.add(relation)
        graph = encode_catalog(catalog)
        assert len(graph.tuple_vertices_of("R")) == 2
        assert graph.out_degree(attribute_vertex_id(7), "R.A") == 2

    def test_size_linear_in_database(self):
        """|V| + |E| grows linearly with the number of tuples (paper Section 3)."""
        small = Relation(Schema("R", [Column("A", DataType.INT), Column("B", DataType.INT)]),
                         [[i, i + 1000] for i in range(50)])
        large = Relation(Schema("R", [Column("A", DataType.INT), Column("B", DataType.INT)]),
                         [[i, i + 1000] for i in range(500)])
        small_cat, large_cat = Catalog("s"), Catalog("l")
        small_cat.add(small)
        large_cat.add(large)
        small_graph, large_graph = encode_catalog(small_cat), encode_catalog(large_cat)
        ratio = (large_graph.vertex_count + large_graph.edge_count) / (
            small_graph.vertex_count + small_graph.edge_count
        )
        assert 8 <= ratio <= 12  # ~10x data -> ~10x graph

    def test_edges_cost_no_object_of_their_own(self):
        """An edge is one target id in a label-first list, not an object:
        encoding allocates fewer tracked objects than it adds edges."""
        catalog = generate_tpch(0.05)
        gc.collect()
        before = len(gc.get_objects())
        graph = TagEncoder().encode(catalog)
        gc.collect()
        assert len(gc.get_objects()) - before < graph.edge_count

    def test_a_vertex_holds_no_copy_of_its_row(self):
        """A tuple vertex is a four-slot record naming its row by index;
        the row itself stays in the catalog, so encoding TPC-H 0.05 traces
        fewer than 1 200 bytes per vertex (about 1 415 with a per-vertex payload)."""
        catalog = generate_tpch(0.05)
        gc.collect()
        tracemalloc.start()
        try:
            graph = TagEncoder().encode(catalog)
            traced, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        vertex = graph.vertex(graph.tuple_vertices_of("LINEITEM")[0])
        assert not hasattr(vertex, "__dict__")
        assert traced / graph.vertex_count < 1200


class TestIncrementalMaintenance:
    def test_append_tuple_adds_local_edges_only(self, mini_catalog_copy):
        graph = encode_catalog(mini_catalog_copy)
        before_vertices = graph.vertex_count
        orders = mini_catalog_copy.relation("ORDERS")
        orders.insert([900, 10, 1.0, "HIGH"])
        vertex_id = graph.append_tuple(orders.schema, orders.physical_count)
        assert graph.has_vertex(vertex_id)
        # new orderkey vertex appears, existing custkey/priority vertices are reused
        assert graph.vertex_count <= before_vertices + 2
        assert graph.out_degree(attribute_vertex_id(10), "ORDERS.O_CUSTKEY") == 3

    def test_delete_tuple_removes_incident_edges(self, mini_catalog):
        graph = encode_catalog(mini_catalog)
        victim = graph.tuple_vertices_of("ORDERS")[0]
        edges_before = graph.edge_count
        graph.delete_tuple(victim)
        assert not graph.has_vertex(victim)
        assert graph.edge_count < edges_before

    def test_delete_requires_tuple_vertex(self, mini_graph):
        with pytest.raises(ValueError):
            mini_graph.delete_tuple(attribute_vertex_id(1))


class TestStatistics:
    def test_load_report_and_statistics(self, mini_catalog):
        graph = encode_catalog(mini_catalog)
        stats = TagStatistics.of(graph)
        assert stats.tuple_vertices == 3 + 5 + 6
        assert stats.attribute_vertices > 0
        assert stats.edges == graph.edge_count
        assert stats.total_bytes > 0
        assert stats.load_seconds >= 0

    def test_degree_statistics_detect_skew(self, mini_catalog):
        graph = encode_catalog(mini_catalog)
        degrees = edge_label_degrees(graph, "ORDERS", "O_CUSTKEY")
        assert sorted(degrees, reverse=True)[0] == 2  # customer 10 has two orders
        assert heavy_value_count(graph, "ORDERS", "O_CUSTKEY", threshold=1) == 1
        assert 0 < column_selectivity(graph, "ORDERS", "O_CUSTKEY") <= 1

    def test_storage_comparison_contains_both_sides(self, mini_catalog):
        graph = encode_catalog(mini_catalog)
        comparison = storage_comparison(graph, mini_catalog)
        assert comparison["relational_bytes"] > 0
        assert comparison["tag_bytes"] > comparison["tag_attribute_bytes"]
