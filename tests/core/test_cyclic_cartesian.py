"""Worst-case-optimal cycle queries and Cartesian products (paper Section 6)."""


import pytest

from repro.bsp import BSPEngine
from repro.core import CycleQueryProgram, CycleRelation, TriangleQueryProgram
from repro.core.cartesian import cartesian_product_rows
from repro.relational import Catalog
from repro.relational.relation import rows_to_multiset
from repro.tag import encode_catalog
from repro.workloads.synthetic import binary_relation, triangle_catalog


def brute_force_triangles(catalog):
    r = catalog.relation("R").rows
    s = catalog.relation("S").rows
    t = catalog.relation("T").rows
    out = []
    for a, b in r:
        for b2, c in s:
            if b != b2:
                continue
            for c2, a2 in t:
                if c == c2 and a == a2:
                    out.append((a, b, c))
    return rows_to_multiset(out)


def figure5_catalog():
    """The paper's Figure 5 triangle instance (one triangle: a1, b1, c1)."""
    catalog = Catalog("figure5")
    catalog.add(binary_relation("R", [(1, 10)], ("A", "B")))
    catalog.add(binary_relation("S", [(10, 100), (20, 100)], ("B", "C")))
    catalog.add(binary_relation("T", [(100, 1), (100, 2)], ("C", "A")))
    return catalog


class TestTriangle:
    def test_figure5_example(self):
        catalog = figure5_catalog()
        graph = encode_catalog(catalog)
        program = TriangleQueryProgram(graph, ("R", "A", "B"), ("S", "B", "C"), ("T", "C", "A"))
        rows = BSPEngine(graph).run(program)
        assert len(rows) == 1
        row = rows[0]
        assert (row["R.A"], row["R.B"], row["S.C"]) == (1, 10, 100)

    @pytest.mark.parametrize("theta", [None, 0.5, 10_000])
    def test_matches_brute_force_for_any_theta(self, theta):
        """Correctness is independent of the heavy/light threshold; theta only
        shifts work between the two stages (Section 6.1.2)."""
        catalog = triangle_catalog(rows_per_relation=60, domain=10, seed=3)
        graph = encode_catalog(catalog)
        program = TriangleQueryProgram(
            graph, ("R", "A", "B"), ("S", "B", "C"), ("T", "C", "A"), theta=theta
        )
        rows = BSPEngine(graph).run(program)
        produced = rows_to_multiset((row["R.A"], row["R.B"], row["S.C"]) for row in rows)
        assert produced == brute_force_triangles(catalog)

    def test_agm_message_bound(self):
        """With theta = sqrt(IN) the message count stays within c * IN^{3/2}."""
        catalog = triangle_catalog(rows_per_relation=120, domain=15, seed=5)
        graph = encode_catalog(catalog)
        engine = BSPEngine(graph)
        engine.run(
            TriangleQueryProgram(graph, ("R", "A", "B"), ("S", "B", "C"), ("T", "C", "A"))
        )
        total_input = sum(len(catalog.relation(name)) for name in ("R", "S", "T"))
        bound = 4 * total_input ** 1.5
        assert engine.last_metrics.total_messages <= bound

    def test_needs_three_relations(self):
        catalog = figure5_catalog()
        graph = encode_catalog(catalog)
        with pytest.raises(ValueError):
            CycleQueryProgram(graph, [CycleRelation("R", "R", "A", "B")])


class TestLongerCycles:
    @pytest.mark.parametrize("length", [4, 5])
    def test_n_cycle_matches_brute_force(self, length):
        from repro.workloads.synthetic import cycle_catalog
        from repro.engine import RelationalExecutor
        from repro.core import TagJoinExecutor

        catalog, spec = cycle_catalog(length=length, rows_per_relation=40, domain=8, seed=2)
        graph = encode_catalog(catalog)
        baseline = RelationalExecutor(catalog).execute(spec).to_tuples()
        wco = TagJoinExecutor(graph, catalog, use_wco_cycles=True).execute(spec).to_tuples()
        assert wco == baseline

    def test_pk_fk_cycle_low_message_count(self):
        """Section 6.1.1: with key-like joins the vanilla strategy stays linear."""
        # A=primary-key-like on both R and T: each A value occurs once
        catalog = Catalog("pkfk")
        catalog.add(binary_relation("R", [(i, i % 10) for i in range(100)], ("A", "B")))
        catalog.add(binary_relation("S", [(i % 10, i % 7) for i in range(100)], ("B", "C")))
        catalog.add(binary_relation("T", [(i % 7, i) for i in range(100)], ("C", "A")))
        graph = encode_catalog(catalog)
        engine = BSPEngine(graph)
        rows = engine.run(
            TriangleQueryProgram(graph, ("R", "A", "B"), ("S", "B", "C"), ("T", "C", "A"))
        )
        produced = rows_to_multiset((row["R.A"], row["R.B"], row["S.C"]) for row in rows)
        assert produced == brute_force_triangles(catalog)
        total_input = 300
        assert engine.last_metrics.total_messages <= 10 * total_input


class TestCartesianProducts:
    def test_row_level_product(self):
        left = [{"a": 1}, {"a": 2}]
        right = [{"b": 3}]
        assert cartesian_product_rows(left, right) == [{"a": 1, "b": 3}, {"a": 2, "b": 3}]
