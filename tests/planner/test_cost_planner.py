"""Unit tests for catalog statistics, the message cost model and root selection."""

import pytest

from repro.algebra import QueryBuilder, col, lit
from repro.algebra.expressions import Comparison, InList, IsNull
from repro.core import TagJoinExecutor, build_join_tree, enumerate_rootings
from repro.planner import CostBasedPlanner, CostModelConfig, MessageCostModel
from repro.sql import parse_and_bind
from repro.tag import encode_catalog
from repro.tag.statistics import CatalogStatistics

from tests.conftest import brute_force_join_nco, make_mini_catalog


def nco_spec():
    return (
        QueryBuilder("nco")
        .table("NATION", "n").table("CUSTOMER", "c").table("ORDERS", "o")
        .join("n", "N_NATIONKEY", "c", "C_NATIONKEY")
        .join("c", "C_CUSTKEY", "o", "O_CUSTKEY")
        .select_columns("n.N_NAME", "c.C_CUSTKEY", "o.O_ORDERKEY", "o.O_TOTAL")
        .build()
    )


class TestCatalogStatistics:
    def test_collect_cardinalities_and_ndv(self, mini_catalog):
        stats = CatalogStatistics.collect(mini_catalog)
        assert stats.cardinality("NATION") == 3
        assert stats.cardinality("CUSTOMER") == 5
        assert stats.cardinality("ORDERS") == 6
        # primary keys are all-distinct
        assert stats.distinct_count("ORDERS", "O_ORDERKEY") == 6
        # O_PRIORITY has two values: HIGH / LOW
        assert stats.distinct_count("ORDERS", "O_PRIORITY") == 2

    def test_equality_selectivity_uses_ndv(self, mini_catalog):
        stats = CatalogStatistics.collect(mini_catalog)
        assert stats.equality_selectivity("ORDERS", "O_PRIORITY") == pytest.approx(0.5)
        predicate = Comparison("=", col("o.O_PRIORITY"), lit("HIGH"))
        assert stats.predicate_selectivity("ORDERS", predicate) == pytest.approx(0.5)

    def test_in_list_selectivity(self, mini_catalog):
        stats = CatalogStatistics.collect(mini_catalog)
        predicate = InList(col("o.O_PRIORITY"), ("HIGH", "LOW"))
        assert stats.predicate_selectivity("ORDERS", predicate) == pytest.approx(1.0)

    def test_estimated_rows_applies_filters(self, mini_catalog):
        stats = CatalogStatistics.collect(mini_catalog)
        predicate = Comparison("=", col("o.O_PRIORITY"), lit("HIGH"))
        assert stats.estimated_rows("ORDERS", [predicate]) == pytest.approx(3.0)

    def test_view_reads_the_catalog_live(self, mini_catalog_copy):
        stats = CatalogStatistics.collect(mini_catalog_copy)
        mini_catalog_copy.relation("ORDERS").insert([106, 10, 5.0, None])
        assert stats.cardinality("ORDERS") == 7
        assert stats.distinct_count("ORDERS", "O_ORDERKEY") == 7
        assert stats.distinct_count("ORDERS", "O_PRIORITY") == 2

    def test_is_null_selectivity_reads_the_live_null_count(self, mini_catalog_copy):
        stats = CatalogStatistics.collect(mini_catalog_copy)
        orders = mini_catalog_copy.relation("ORDERS")
        is_null = IsNull(col("o.O_PRIORITY"))
        assert stats.predicate_selectivity("ORDERS", is_null) == 0.0
        orders.insert([106, 10, 5.0, None])
        orders.insert([107, 11, None, None])
        assert stats.predicate_selectivity("ORDERS", is_null) == pytest.approx(2 / 8)
        # O_TOTAL is a raw float column: its NULLs are counted too
        assert stats.predicate_selectivity("ORDERS", IsNull(col("o.O_TOTAL"))) == (
            pytest.approx(1 / 8)
        )
        orders.delete_positions([7])
        assert stats.predicate_selectivity("ORDERS", is_null) == pytest.approx(1 / 7)


class TestMessageCostModel:
    def test_reduction_cost_is_root_invariant(self, mini_catalog):
        spec = nco_spec()
        stats = CatalogStatistics.collect(mini_catalog)
        model = MessageCostModel(stats)
        tree = build_join_tree(spec)
        costs = [model.tree_cost(spec, rooted) for rooted in enumerate_rootings(tree)]
        reductions = {round(cost.reduction_messages, 6) for cost in costs}
        assert len(reductions) == 1  # every edge is traversed both ways regardless of root
        collections = {round(cost.collection_messages, 6) for cost in costs}
        assert len(collections) > 1  # the rooting decides the collection traffic

    def test_cross_worker_fraction_scales_cost(self, mini_catalog):
        spec = nco_spec()
        stats = CatalogStatistics.collect(mini_catalog)
        tree = build_join_tree(spec)
        single = MessageCostModel(stats, num_workers=1).tree_cost(spec, tree)
        distributed = MessageCostModel(stats, num_workers=4).tree_cost(spec, tree)
        assert single.cross_worker_fraction == 0.0
        assert distributed.cross_worker_fraction == pytest.approx(0.75)
        assert distributed.total > single.total

    def test_config_prices_are_respected(self, mini_catalog):
        spec = nco_spec()
        stats = CatalogStatistics.collect(mini_catalog)
        tree = build_join_tree(spec)
        cheap = MessageCostModel(
            stats, num_workers=2, config=CostModelConfig(cross_worker_message_cost=1.0)
        ).tree_cost(spec, tree)
        pricey = MessageCostModel(
            stats, num_workers=2, config=CostModelConfig(cross_worker_message_cost=10.0)
        ).tree_cost(spec, tree)
        assert pricey.total > cheap.total


class TestCostBasedPlanner:
    def test_chooses_cheapest_rooting(self, mini_catalog):
        spec = nco_spec()
        planner = CostBasedPlanner(mini_catalog)
        choice = planner.choose_root(spec)
        assert choice is not None
        assert choice.root in spec.aliases()
        by_alias = dict(choice.considered)
        assert len(by_alias) == 3
        assert by_alias[choice.root] == min(by_alias.values())

    def test_filters_shift_the_choice_inputs(self, mini_catalog):
        spec = nco_spec()
        planner = CostBasedPlanner(mini_catalog)
        unfiltered = planner.choose_root(spec)
        filtered_spec = nco_spec()
        filtered_spec.add_filter(
            "o", Comparison("=", col("o.O_ORDERKEY"), lit(100))
        )
        filtered = planner.choose_root(filtered_spec)
        assert filtered is not None and unfiltered is not None
        by_alias = dict(filtered.considered)
        # the near-empty ORDERS side now costs less than in the unfiltered plan
        assert by_alias["o"] < dict(unfiltered.considered)["o"]

    def test_abstains_on_single_table(self, mini_catalog):
        spec = QueryBuilder("single").table("NATION", "n").select_columns("n.N_NAME").build()
        assert CostBasedPlanner(mini_catalog).choose_root(spec) is None

    def test_abstains_when_group_by_dictates_root(self, mini_catalog):
        sql = (
            "SELECT c.C_CUSTKEY, SUM(o.O_TOTAL) AS total FROM CUSTOMER c, ORDERS o "
            "WHERE c.C_CUSTKEY = o.O_CUSTKEY GROUP BY c.C_CUSTKEY"
        )
        spec = parse_and_bind(sql, mini_catalog)
        assert CostBasedPlanner(mini_catalog).choose_root(spec) is None

    def test_planner_costs_read_the_catalog_live(self, mini_catalog_copy):
        planner = CostBasedPlanner(mini_catalog_copy)
        before = dict(planner.choose_root(nco_spec()).considered)
        mini_catalog_copy.relation("ORDERS").extend([[106 + i, 10, 5.0, "LOW"] for i in range(20)])
        assert planner.statistics.cardinality("ORDERS") == 26
        after = dict(planner.choose_root(nco_spec()).considered)
        assert after["c"] > before["c"]

    def test_max_candidates_caps_search(self, mini_catalog):
        spec = nco_spec()
        choice = CostBasedPlanner(mini_catalog, max_candidates=2).choose_root(spec)
        assert choice is not None
        assert choice.candidate_count == 2


class TestExecutorIntegration:
    def test_cost_based_matches_heuristic_and_brute_force(self):
        catalog = make_mini_catalog()
        graph = encode_catalog(catalog)
        spec = nco_spec()
        planned = TagJoinExecutor(graph, catalog).execute(spec)
        heuristic = TagJoinExecutor(
            graph, catalog, use_cost_based_planner=False, enable_plan_cache=False
        ).execute(spec)
        expected = [tuple(row) for row in brute_force_join_nco(catalog)]
        assert planned.to_tuples(["N_NAME", "C_CUSTKEY", "O_ORDERKEY", "O_TOTAL"]) == expected
        assert heuristic.to_tuples(["N_NAME", "C_CUSTKEY", "O_ORDERKEY", "O_TOTAL"]) == expected

    def test_cross_check_mode_executes_both_plans(self):
        catalog = make_mini_catalog()
        graph = encode_catalog(catalog)
        executor = TagJoinExecutor(graph, catalog, cross_check_plans=True)
        result = executor.execute(nco_spec())
        assert len(result.rows) == 5

    def test_last_plan_choice_is_exposed(self):
        catalog = make_mini_catalog()
        graph = encode_catalog(catalog)
        executor = TagJoinExecutor(graph, catalog)
        executor.execute(nco_spec())
        assert executor.last_plan_choice is not None
        assert executor.last_plan_choice.cost.total > 0
