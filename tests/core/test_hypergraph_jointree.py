"""Query hypergraphs, GYO acyclicity, fractional edge covers, join trees."""


import pytest

from repro.algebra import QueryBuilder
from repro.relational import Catalog, Column, DataType, Relation, Schema
from repro.core import (
    JoinTreeError,
    build_hypergraph,
    build_join_tree,
    connected_components,
    detect_simple_cycle,
    reroot,
)
from repro.workloads.synthetic import triangle_query


def chain_spec(length=3):
    builder = QueryBuilder("chain")
    for index in range(length):
        builder.table(f"R{index + 1}", f"r{index + 1}")
    for index in range(length - 1):
        builder.join(f"r{index + 1}", f"A{index + 1}", f"r{index + 2}", f"A{index + 1}")
    return builder.build()


class TestHypergraph:
    def test_join_variables_are_equivalence_classes(self):
        spec = (
            QueryBuilder("q")
            .table("R", "r").table("S", "s").table("T", "t")
            .join("r", "A", "s", "A")
            .join("s", "A", "t", "B")
            .build()
        )
        hypergraph = build_hypergraph(spec)
        assert len(hypergraph.variables) == 1
        variable = hypergraph.variables[0]
        assert variable.members == frozenset({("r", "A"), ("s", "A"), ("t", "B")})
        assert variable.column_of("t") == "B"
        assert variable.column_of("zzz") is None
        assert variable.aliases() == {"r", "s", "t"}

    def test_chain_is_acyclic(self):
        assert build_hypergraph(chain_spec(4)).is_acyclic()

    def test_triangle_is_cyclic(self):
        assert not build_hypergraph(triangle_query()).is_acyclic()

    def test_star_is_acyclic(self):
        spec = (
            QueryBuilder("star")
            .table("F", "f").table("D1", "d1").table("D2", "d2").table("D3", "d3")
            .join("f", "K1", "d1", "K1").join("f", "K2", "d2", "K2").join("f", "K3", "d3", "K3")
            .build()
        )
        assert build_hypergraph(spec).is_acyclic()

    def test_triangle_fractional_cover_is_three_halves(self):
        hypergraph = build_hypergraph(triangle_query())
        assert hypergraph.fractional_edge_cover_number() == pytest.approx(1.5, abs=1e-6)

    def test_chain_fractional_cover(self):
        # the hypergraph is over *join* variables (A1, A2); the middle
        # relation alone covers both, so the cover number is 1
        hypergraph = build_hypergraph(chain_spec(3))
        assert hypergraph.fractional_edge_cover_number() == pytest.approx(1.0, abs=1e-6)
        # a 4-chain needs the two inner relations
        hypergraph4 = build_hypergraph(chain_spec(4))
        assert hypergraph4.fractional_edge_cover_number() == pytest.approx(2.0, abs=1e-6)

    def test_connected_components(self):
        spec = (
            QueryBuilder("two")
            .table("R", "r").table("S", "s").table("T", "t")
            .join("r", "A", "s", "A")
            .build()
        )
        assert connected_components(spec) == [["r", "s"], ["t"]]

    def test_detect_simple_cycle(self):
        assert detect_simple_cycle(triangle_query()) is not None
        assert detect_simple_cycle(chain_spec(4)) is None


class TestJoinTree:
    def test_chain_tree_structure(self):
        spec = chain_spec(4)
        tree = build_join_tree(spec)
        assert tree.is_acyclic_query
        assert set(tree.aliases()) == {"r1", "r2", "r3", "r4"}
        assert len(tree.edges) == 3
        assert tree.residual_conditions == []
        # every alias reaches the root through its parents
        for alias in tree.aliases():
            while tree.parent[alias] is not None:
                alias = tree.parent[alias]
            assert alias == tree.root

    def test_single_relation_tree(self):
        spec = QueryBuilder("one").table("R", "r").build()
        tree = build_join_tree(spec)
        assert tree.root == "r"
        assert tree.edges == []

    def test_preferred_root(self):
        tree = build_join_tree(chain_spec(4), preferred_root="r3")
        assert tree.root == "r3"

    def test_reroot_preserves_edges(self):
        tree = build_join_tree(chain_spec(4))
        rerooted = reroot(tree, "r2")
        assert rerooted.root == "r2"
        assert len(rerooted.edges) == 3
        assert set(rerooted.aliases()) == set(tree.aliases())

    def test_reroot_unknown_alias(self):
        tree = build_join_tree(chain_spec(3))
        with pytest.raises(JoinTreeError):
            reroot(tree, "zzz")

    def test_cyclic_query_gets_spanning_tree_with_residuals(self):
        tree = build_join_tree(triangle_query())
        assert not tree.is_acyclic_query
        assert len(tree.edges) == 2
        assert len(tree.residual_conditions) == 1

    def test_transitive_equality_not_marked_residual(self):
        # r.A = s.A, s.A = t.A and the redundant r.A = t.A: the third
        # condition is enforced transitively through the shared variable
        spec = (
            QueryBuilder("transitive")
            .table("R", "r").table("S", "s").table("T", "t")
            .join("r", "A", "s", "A")
            .join("s", "A", "t", "A")
            .join("r", "A", "t", "A")
            .build()
        )
        tree = build_join_tree(spec)
        assert tree.residual_conditions == []

    def test_multi_attribute_join_residual(self):
        # R and S join on two attributes: one becomes the tree edge, the
        # other a residual condition, checked at the first collection merge
        # whose row holds both aliases
        spec = (
            QueryBuilder("multi")
            .table("R", "r").table("S", "s")
            .join("r", "A", "s", "A")
            .join("r", "B", "s", "B")
            .build()
        )
        tree = build_join_tree(spec)
        assert len(tree.edges) == 1
        assert len(tree.residual_conditions) == 1

    def test_disconnected_rejected(self):
        spec = QueryBuilder("x").table("R", "r").table("S", "s").build()
        with pytest.raises(JoinTreeError):
            build_join_tree(spec)


def two_key_catalog(a_values, b_values):
    """R and S, each with columns A and B holding the given value columns."""
    catalog = Catalog("two_keys")
    for name in ("R", "S"):
        schema = Schema(
            name,
            [
                Column("ID", DataType.INT, nullable=False),
                Column("A", DataType.INT, nullable=False),
                Column("B", DataType.INT, nullable=False),
            ],
            primary_key=["ID"],
        )
        rows = [[index, a, b] for index, (a, b) in enumerate(zip(a_values, b_values))]
        catalog.add(Relation(schema, rows))
    return catalog


def two_key_spec(first, second):
    return (
        QueryBuilder("two_keys")
        .table("R", "r").table("S", "s")
        .join("r", first, "s", first)
        .join("r", second, "s", second)
        .build()
    )


class TestRoutingKey:
    """A multi-key edge routes on its highest-NDV variable; ties keep condition order."""

    # A has 2 distinct values, B has 8
    CATALOG = two_key_catalog([index % 2 for index in range(8)], list(range(8)))

    @pytest.mark.parametrize("order", [("A", "B"), ("B", "A")])
    def test_routes_on_the_higher_ndv_variable_in_either_order(self, order):
        tree = build_join_tree(two_key_spec(*order), catalog=self.CATALOG)
        (edge,) = tree.edges
        assert (edge.child_column, edge.parent_column) == ("B", "B")
        (residual,) = tree.residual_conditions
        assert (residual.left_column, residual.right_column) == ("A", "A")

    @pytest.mark.parametrize("order", [("A", "B"), ("B", "A")])
    def test_ties_keep_condition_order(self, order):
        catalog = two_key_catalog(list(range(8)), list(range(8, 16)))
        tree = build_join_tree(two_key_spec(*order), catalog=catalog)
        (edge,) = tree.edges
        assert edge.child_column == order[0]
        (residual,) = tree.residual_conditions
        assert residual.left_column == order[1]

    @pytest.mark.parametrize("order", [("A", "B"), ("B", "A")])
    def test_without_a_catalog_the_first_condition_routes(self, order):
        (edge,) = build_join_tree(two_key_spec(*order)).edges
        assert edge.child_column == order[0]

    def test_a_column_without_attribute_vertices_never_routes(self):
        catalog = Catalog("floats")
        for name in ("R", "S"):
            schema = Schema(
                name,
                [
                    Column("ID", DataType.INT, nullable=False),
                    Column("A", DataType.INT, nullable=False),
                    Column("B", DataType.FLOAT, nullable=False),
                ],
                primary_key=["ID"],
            )
            catalog.add(Relation(schema, [[index, index % 2, index + 0.5] for index in range(8)]))
        (edge,) = build_join_tree(two_key_spec("B", "A"), catalog=catalog).edges
        assert edge.child_column == "A"

    def test_two_columns_of_one_alias_in_one_variable(self):
        # r.A = s.A and r.B = s.A put r.A and r.B in one variable: the edge
        # routes on one of r's columns, the other condition stays residual
        spec = (
            QueryBuilder("same_variable")
            .table("R", "r").table("S", "s")
            .join("r", "A", "s", "A")
            .join("r", "B", "s", "A")
            .build()
        )
        tree = build_join_tree(spec, catalog=self.CATALOG)
        (edge,) = tree.edges
        (residual,) = tree.residual_conditions
        routed = edge.child_column if edge.child == "r" else edge.parent_column
        assert routed == "A"
        assert (residual.left_alias, residual.left_column) == ("r", "B")
