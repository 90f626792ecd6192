"""End-to-end TAG-join executor tests against reference results."""

import pytest

from repro.algebra import AggFunc, Comparison, QueryBuilder, col, lit
from repro.algebra.logical import AggregationClass
from repro.core import ExecutionError, TagJoinExecutor
from repro.engine import RelationalExecutor
from repro.tag import encode_catalog
from repro.workloads.synthetic import (
    chain_catalog,
    cycle_catalog,
    many_to_many_catalog,
    star_catalog,
    triangle_catalog,
    triangle_query,
)
from tests.conftest import brute_force_join_nco, graph_properties


def join_spec():
    return (
        QueryBuilder("nco")
        .table("NATION", "n").table("CUSTOMER", "c").table("ORDERS", "o")
        .join("n", "N_NATIONKEY", "c", "C_NATIONKEY")
        .join("c", "C_CUSTKEY", "o", "O_CUSTKEY")
        .select_columns("n.N_NAME", "c.C_CUSTKEY", "o.O_ORDERKEY", "o.O_TOTAL")
        .build()
    )


class TestJoins:
    def test_three_way_join_matches_brute_force(self, tag_executor, mini_catalog):
        result = tag_executor.execute(join_spec())
        expected = brute_force_join_nco(mini_catalog)
        assert result.to_tuples(["N_NAME", "C_CUSTKEY", "O_ORDERKEY", "O_TOTAL"]) == [
            tuple(row) for row in expected
        ]

    def test_dangling_tuples_eliminated(self, tag_executor):
        """Order 105 references a missing customer and must not appear."""
        result = tag_executor.execute(join_spec())
        assert all(row["O_ORDERKEY"] != 105 for row in result.rows)

    def test_filter_pushdown(self, tag_executor, rdbms_executor):
        spec = join_spec()
        spec.add_filter("o", Comparison(">", col("o.O_TOTAL"), lit(15)))
        spec.add_filter("n", Comparison("=", col("n.N_NAME"), lit("USA")))
        tag_rows = tag_executor.execute(spec).to_tuples(["O_ORDERKEY"])
        baseline = rdbms_executor.execute(spec).to_tuples(["O_ORDERKEY"])
        assert tag_rows == baseline
        assert tag_rows == [(100,), (101,)]

    def test_two_relation_join(self, tag_executor, rdbms_executor):
        spec = (
            QueryBuilder("co")
            .table("CUSTOMER", "c").table("ORDERS", "o")
            .join("c", "C_CUSTKEY", "o", "O_CUSTKEY")
            .select_columns("c.C_CUSTKEY", "o.O_ORDERKEY")
            .build()
        )
        assert tag_executor.execute(spec).to_tuples() == rdbms_executor.execute(spec).to_tuples()

    def test_single_relation_scan_with_filter(self, tag_executor):
        spec = (
            QueryBuilder("scan")
            .table("ORDERS", "o")
            .where("o", Comparison(">=", col("o.O_TOTAL"), lit(20)))
            .select_columns("o.O_ORDERKEY")
            .build()
        )
        assert tag_executor.execute(spec).to_tuples() == [(100,), (101,), (102,)]

    def test_distinct(self, tag_executor):
        spec = (
            QueryBuilder("dd")
            .table("CUSTOMER", "c").table("ORDERS", "o")
            .join("c", "C_CUSTKEY", "o", "O_CUSTKEY")
            .select_columns("c.C_NATIONKEY")
            .distinct()
            .build()
        )
        assert sorted(tag_executor.execute(spec).to_tuples()) == [(1,), (2,), (3,)]

    def test_self_join(self, tag_executor, rdbms_executor):
        """Two aliases of ORDERS joined through the customer key."""
        spec = (
            QueryBuilder("self")
            .table("ORDERS", "o1").table("ORDERS", "o2")
            .join("o1", "O_CUSTKEY", "o2", "O_CUSTKEY")
            .where("o1", Comparison("=", col("o1.O_PRIORITY"), lit("HIGH")))
            .where("o2", Comparison("=", col("o2.O_PRIORITY"), lit("LOW")))
            .select_columns("o1.O_ORDERKEY", "o2.O_ORDERKEY")
            .build()
        )
        assert tag_executor.execute(spec).to_tuples() == rdbms_executor.execute(spec).to_tuples()

    def test_outer_join_rejected_by_multiway_executor(self, tag_executor):
        from repro.algebra import JoinType

        spec = (
            QueryBuilder("oj")
            .table("CUSTOMER", "c").table("ORDERS", "o")
            .join("c", "C_CUSTKEY", "o", "O_CUSTKEY", join_type=JoinType.LEFT_OUTER)
            .select_columns("c.C_CUSTKEY")
            .build()
        )
        with pytest.raises(ExecutionError):
            tag_executor.execute(spec)


class TestAggregation:
    def test_local_aggregation(self, tag_executor):
        spec = (
            QueryBuilder("la")
            .table("NATION", "n").table("CUSTOMER", "c").table("ORDERS", "o")
            .join("n", "N_NATIONKEY", "c", "C_NATIONKEY")
            .join("c", "C_CUSTKEY", "o", "O_CUSTKEY")
            .group_by("n", "N_NAME")
            .select(col("n.N_NAME"), "name")
            .aggregate(AggFunc.SUM, col("o.O_TOTAL"), "revenue")
            .aggregate(AggFunc.COUNT, None, "cnt")
            .build()
        )
        result = tag_executor.execute(spec)
        assert result.aggregation_class is AggregationClass.LOCAL
        rows = {row["name"]: (row["revenue"], row["cnt"]) for row in result.rows}
        assert rows == {"USA": (70.0, 2), "FRANCE": (35.0, 2), "JAPAN": (10.0, 1)}

    def test_global_aggregation(self, tag_executor, rdbms_executor):
        spec = (
            QueryBuilder("ga")
            .table("CUSTOMER", "c").table("ORDERS", "o")
            .join("c", "C_CUSTKEY", "o", "O_CUSTKEY")
            .group_by("c", "C_NATIONKEY").group_by("o", "O_PRIORITY")
            .select(col("c.C_NATIONKEY"), "nation")
            .select(col("o.O_PRIORITY"), "priority")
            .aggregate(AggFunc.SUM, col("o.O_TOTAL"), "total")
            .build()
        )
        result = tag_executor.execute(spec)
        assert result.aggregation_class is AggregationClass.GLOBAL
        assert sorted(result.to_tuples(["nation", "priority", "total"])) == sorted(
            rdbms_executor.execute(spec).to_tuples(["nation", "priority", "total"])
        )

    def test_scalar_aggregation(self, tag_executor):
        spec = (
            QueryBuilder("scalar")
            .table("CUSTOMER", "c").table("ORDERS", "o")
            .join("c", "C_CUSTKEY", "o", "O_CUSTKEY")
            .aggregate(AggFunc.COUNT, None, "cnt")
            .aggregate(AggFunc.MIN, col("o.O_TOTAL"), "lo")
            .aggregate(AggFunc.MAX, col("o.O_TOTAL"), "hi")
            .aggregate(AggFunc.AVG, col("o.O_TOTAL"), "avg")
            .build()
        )
        result = tag_executor.execute(spec)
        assert result.aggregation_class is AggregationClass.SCALAR
        row = result.rows[0]
        assert row["cnt"] == 5
        assert row["lo"] == 5.0 and row["hi"] == 50.0
        assert row["avg"] == pytest.approx((50 + 20 + 30 + 10 + 5) / 5)

    def test_scalar_aggregation_on_empty_input(self, tag_executor):
        spec = (
            QueryBuilder("empty")
            .table("ORDERS", "o")
            .where("o", Comparison(">", col("o.O_TOTAL"), lit(10_000)))
            .aggregate(AggFunc.COUNT, None, "cnt")
            .aggregate(AggFunc.SUM, col("o.O_TOTAL"), "total")
            .build()
        )
        result = tag_executor.execute(spec)
        assert result.rows[0]["cnt"] == 0

    def test_count_distinct(self, tag_executor, rdbms_executor):
        spec = (
            QueryBuilder("cd")
            .table("CUSTOMER", "c").table("ORDERS", "o")
            .join("c", "C_CUSTKEY", "o", "O_CUSTKEY")
            .group_by("o", "O_PRIORITY")
            .select(col("o.O_PRIORITY"), "priority")
            .aggregate(AggFunc.COUNT_DISTINCT, col("c.C_NATIONKEY"), "nations")
            .build()
        )
        assert sorted(tag_executor.execute(spec).to_tuples(["priority", "nations"])) == sorted(
            rdbms_executor.execute(spec).to_tuples(["priority", "nations"])
        )

    def test_lazy_vs_eager_partial_aggregation_same_result(self, mini_graph, mini_catalog):
        spec = (
            QueryBuilder("ga")
            .table("CUSTOMER", "c").table("ORDERS", "o")
            .join("c", "C_CUSTKEY", "o", "O_CUSTKEY")
            .group_by("c", "C_NATIONKEY").group_by("o", "O_PRIORITY")
            .select(col("c.C_NATIONKEY"), "nation").select(col("o.O_PRIORITY"), "priority")
            .aggregate(AggFunc.COUNT, None, "cnt")
            .build()
        )
        eager = TagJoinExecutor(mini_graph, mini_catalog, eager_partial_aggregation=True)
        lazy = TagJoinExecutor(mini_graph, mini_catalog, eager_partial_aggregation=False)
        eager_result = eager.execute(spec)
        lazy_result = lazy.execute(spec)
        assert sorted(eager_result.to_tuples()) == sorted(lazy_result.to_tuples())
        # eager pre-aggregation sends at most as many aggregator messages
        assert eager_result.metrics.total_messages <= lazy_result.metrics.total_messages


class TestCyclicAndSynthetic:
    def test_triangle_both_paths_match_baseline(self):
        catalog = triangle_catalog(rows_per_relation=80, domain=12)
        graph = encode_catalog(catalog)
        spec = triangle_query()
        baseline = RelationalExecutor(catalog).execute(spec).to_tuples()
        wco = TagJoinExecutor(graph, catalog, use_wco_cycles=True).execute(spec).to_tuples()
        tree = TagJoinExecutor(graph, catalog, use_wco_cycles=False).execute(spec).to_tuples()
        assert wco == baseline
        assert tree == baseline

    def test_four_cycle(self):
        catalog, spec = cycle_catalog(length=4, rows_per_relation=60, domain=10)
        graph = encode_catalog(catalog)
        baseline = RelationalExecutor(catalog).execute(spec).to_tuples()
        assert TagJoinExecutor(graph, catalog).execute(spec).to_tuples() == baseline

    def test_chain_query(self):
        catalog, spec = chain_catalog(relations=4, rows_per_relation=60, domain=15)
        graph = encode_catalog(catalog)
        baseline = RelationalExecutor(catalog).execute(spec).to_tuples()
        assert TagJoinExecutor(graph, catalog).execute(spec).to_tuples() == baseline

    def test_star_query_with_aggregation(self):
        catalog, spec = star_catalog(fact_rows=200, dimensions=3, dimension_rows=20)
        graph = encode_catalog(catalog)
        baseline = RelationalExecutor(catalog).execute(spec)
        tag = TagJoinExecutor(graph, catalog).execute(spec)
        assert sorted(tag.to_tuples(baseline.columns)) == sorted(
            baseline.to_tuples(baseline.columns)
        )

    def test_many_to_many_join(self):
        catalog = many_to_many_catalog(left_rows=60, right_rows=60, join_values=5)
        graph = encode_catalog(catalog)
        spec = (
            QueryBuilder("mm")
            .table("R", "r").table("S", "s")
            .join("r", "B", "s", "B")
            .select_columns("r.A", "s.C")
            .build()
        )
        baseline = RelationalExecutor(catalog).execute(spec).to_tuples()
        assert TagJoinExecutor(graph, catalog).execute(spec).to_tuples() == baseline

    def test_cartesian_product_of_components(self, tag_executor, rdbms_executor):
        spec = (
            QueryBuilder("cross")
            .table("NATION", "n").table("ORDERS", "o")
            .where("o", Comparison(">", col("o.O_TOTAL"), lit(25)))
            .select_columns("n.N_NAME", "o.O_ORDERKEY")
            .build()
        )
        tag_rows = tag_executor.execute(spec).to_tuples()
        assert len(tag_rows) == 3 * 2
        assert tag_rows == rdbms_executor.execute(spec).to_tuples()


class TestCostAccounting:
    def test_metrics_populated(self, tag_executor):
        result = tag_executor.execute(join_spec())
        assert result.metrics.total_messages > 0
        assert result.metrics.total_compute > 0
        assert result.metrics.superstep_count > 1
        assert result.metrics.wall_time_seconds > 0

    def test_acyclic_join_cost_linear_in_in_plus_out(self, mini_catalog, mini_graph):
        """Section 5.2.1: total communication is O(IN + OUT)."""
        executor = TagJoinExecutor(mini_graph, mini_catalog)
        result = executor.execute(join_spec())
        in_size = sum(len(mini_catalog.relation(name)) for name in ("NATION", "CUSTOMER", "ORDERS"))
        out_size = len(result.rows)
        assert result.metrics.total_messages <= 6 * (in_size + out_size)

    def test_distributed_mode_counts_network_traffic(self, mini_graph, mini_catalog):
        single = TagJoinExecutor(mini_graph, mini_catalog, num_workers=1).execute(join_spec())
        distributed = TagJoinExecutor(mini_graph, mini_catalog, num_workers=4).execute(join_spec())
        assert single.metrics.total_network_bytes == 0
        assert distributed.metrics.total_network_bytes > 0
        assert sorted(distributed.to_tuples()) == sorted(single.to_tuples())

    def test_selective_join_sends_fewer_messages(self, mini_graph, mini_catalog):
        executor = TagJoinExecutor(mini_graph, mini_catalog)
        unfiltered = executor.execute(join_spec())
        selective = join_spec()
        selective.add_filter("n", Comparison("=", col("n.N_NAME"), lit("JAPAN")))
        filtered = executor.execute(selective)
        assert filtered.metrics.total_messages < unfiltered.metrics.total_messages


class TestRunScopedExecution:
    """Run-scoped BSP state: concurrency, EXPLAIN ANALYZE hygiene, retirement."""

    def test_explain_analyze_leaves_no_residue_on_the_graph(self, mini_catalog):
        graph = encode_catalog(mini_catalog)
        before = graph_properties(graph)
        executor = TagJoinExecutor(graph, mini_catalog)
        plan = executor.explain(join_spec(), analyze=True)
        assert "actual:" in plan
        assert graph_properties(graph) == before

    def test_interleaved_explain_analyze_calls_do_not_corrupt_each_other(
        self, mini_catalog
    ):
        import threading

        graph = encode_catalog(mini_catalog)
        before = graph_properties(graph)
        executor = TagJoinExecutor(graph, mini_catalog)
        full = join_spec()
        selective = join_spec()
        selective.add_filter("n", Comparison("=", col("n.N_NAME"), lit("JAPAN")))
        expected = {
            id(full): len(executor.execute(full).rows),
            id(selective): len(executor.execute(selective).rows),
        }
        assert expected[id(full)] != expected[id(selective)]
        errors = []

        def worker(spec):
            try:
                for _ in range(10):
                    plan = executor.explain(spec, analyze=True)
                    assert f"actual: {expected[id(spec)]} rows" in plan
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(spec,))
            for spec in (full, selective, full, selective)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        assert graph_properties(graph) == before

    def test_concurrent_executes_on_one_executor_match_serial(self, mini_catalog):
        import threading

        executor = TagJoinExecutor(encode_catalog(mini_catalog), mini_catalog)
        baseline = executor.execute(join_spec()).to_tuples()
        results = [None] * 6

        def worker(index):
            results[index] = executor.execute(join_spec()).to_tuples()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(result == baseline for result in results)

    def test_retired_executor_raises_stale_engine_error(self, mini_catalog):
        from repro.core import StaleEngineError

        executor = TagJoinExecutor(encode_catalog(mini_catalog), mini_catalog)
        executor.execute(join_spec())
        executor.retire("test retirement")
        assert executor.retired
        with pytest.raises(StaleEngineError, match="test retirement"):
            executor.execute(join_spec())
        with pytest.raises(StaleEngineError):
            executor.explain(join_spec())

    def test_last_plan_choice_is_thread_local(self, mini_catalog):
        import threading

        executor = TagJoinExecutor(encode_catalog(mini_catalog), mini_catalog)
        executor.execute(join_spec())
        main_choice = executor.last_plan_choice
        assert main_choice is not None
        seen = {}

        def worker():
            seen["before"] = executor.last_plan_choice
            executor.execute(join_spec())
            seen["after"] = executor.last_plan_choice

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["before"] is None  # fresh thread starts with no verdict
        assert seen["after"] is not None
        assert executor.last_plan_choice is main_choice  # untouched by the thread
