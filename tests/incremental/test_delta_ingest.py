"""Delta ingest: the patched state must be indistinguishable from a rebuild.

Three layers of equivalence after ``Database.load_rows``:

* the in-place patched TAG graph matches a from-scratch re-encode of the
  grown catalog (vertices, edges, adjacency);
* the counts the statistics view reads match a scan of the live rows;
* the rdbms executor's patched PK/FK indexes match rebuilt ones.

Plus the acceptance property of delta ingest: after warm-up, a data-only
write followed by re-running a cached query causes *zero* plan
recompilations.
"""

from repro.api.database import Database
from repro.engine.indexes import build_indexes
from repro.tag.encoder import encode_catalog

from conftest import assert_graphs_equal, assert_statistics_match_scan, make_mini_catalog


NEW_ORDERS = [[106, 10, 99.0, "HIGH"], [107, 11, 98.0, "LOW"], [108, 12, 1.0, "HIGH"]]
NEW_CUSTOMERS = [[15, 3, 42.0], [16, 1, 17.5]]


class TestGraphDelta:
    def test_patched_graph_matches_reencode(self):
        db = Database(make_mini_catalog(), engine="tag")
        graph = db.tag_graph()
        db.load_rows("ORDERS", NEW_ORDERS)
        db.load_rows("CUSTOMER", NEW_CUSTOMERS)
        assert db.tag_graph() is graph  # patched, not replaced
        assert_graphs_equal(graph, encode_catalog(db.catalog))

    def test_load_report_accounting_matches_reencode(self):
        db = Database(make_mini_catalog(), engine="tag")
        graph = db.tag_graph()
        db.load_rows("ORDERS", NEW_ORDERS)
        rebuilt = encode_catalog(db.catalog)
        assert graph.load_report.tuple_vertices == rebuilt.load_report.tuple_vertices
        assert graph.load_report.attribute_vertices == rebuilt.load_report.attribute_vertices
        assert graph.load_report.edges == rebuilt.load_report.edges
        assert graph.load_report.tuple_bytes == rebuilt.load_report.tuple_bytes
        assert graph.load_report.attribute_bytes == rebuilt.load_report.attribute_bytes
        assert graph.load_report.edge_bytes == rebuilt.load_report.edge_bytes

    def test_shared_attribute_vertices_are_reused(self):
        db = Database(make_mini_catalog(), engine="tag")
        graph = db.tag_graph()
        attrs_before = len(list(graph.attribute_vertex_ids()))
        # priority "HIGH" and custkey 10 already have attribute vertices and
        # O_TOTAL (FLOAT) is not materialised; only orderkey 106 is new
        db.load_rows("ORDERS", [[106, 10, 123.25, "HIGH"]])
        attrs_after = len(list(graph.attribute_vertex_ids()))
        assert attrs_after == attrs_before + 1


class TestStatisticsDelta:
    def test_counts_after_inserts_match_a_scan(self):
        db = Database(make_mini_catalog(), engine="tag")
        db.load_rows("ORDERS", NEW_ORDERS)
        db.load_rows("CUSTOMER", NEW_CUSTOMERS)
        assert db.statistics.cardinality("ORDERS") == 9
        assert_statistics_match_scan(db.catalog)

    def test_planners_see_fresh_cardinalities_without_recollect(self):
        db = Database(make_mini_catalog(), engine="rdbms")
        engine = db.engine("rdbms")
        assert engine.planner.statistics.cardinality("ORDERS") == 6
        db.load_rows("ORDERS", NEW_ORDERS)
        # same executor, new counts
        assert db.engine("rdbms") is engine
        assert engine.planner.statistics.cardinality("ORDERS") == 9


class TestIndexDelta:
    def test_patched_indexes_match_rebuild(self):
        db = Database(make_mini_catalog(), engine="rdbms")
        engine = db.engine("rdbms")
        db.load_rows("ORDERS", NEW_ORDERS)
        db.load_rows("CUSTOMER", NEW_CUSTOMERS)
        rebuilt = build_indexes(db.catalog)
        patched = engine.indexes
        assert set(patched.hash_indexes) == set(rebuilt.hash_indexes)
        for key, rebuilt_index in rebuilt.hash_indexes.items():
            assert patched.hash_indexes[key]._buckets == rebuilt_index._buckets, key
        assert set(patched.sorted_indexes) == set(rebuilt.sorted_indexes)
        for key, rebuilt_index in rebuilt.sorted_indexes.items():
            mine = patched.sorted_indexes[key]
            assert mine._keys == rebuilt_index._keys, key
            assert mine._positions == rebuilt_index._positions, key


class TestPlanRetention:
    QUERY = "SELECT COUNT(*) AS n FROM CUSTOMER c, ORDERS o WHERE c.C_CUSTKEY = o.O_CUSTKEY"

    def test_zero_recompilations_after_data_only_write(self):
        db = Database(make_mini_catalog(), engine="tag")
        session = db.connect()
        assert session.sql(self.QUERY).single_value() == 5
        warm = db.plan_cache.stats
        misses_warm, stores_warm, hits_warm = warm.misses, warm.stores, warm.hits

        db.load_rows("ORDERS", NEW_ORDERS)  # all three join
        assert session.sql(self.QUERY).single_value() == 8
        assert db.plan_cache.stats.misses == misses_warm
        assert db.plan_cache.stats.stores == stores_warm
        assert db.plan_cache.stats.hits > hits_warm

    def test_every_engine_answers_fresh_after_delta(self):
        db = Database(make_mini_catalog(), engine="tag")
        for engine in ("tag", "rdbms", "spark"):
            assert db.connect(engine=engine).sql(self.QUERY).single_value() == 5
        db.load_rows("ORDERS", NEW_ORDERS)
        for engine in ("tag", "rdbms", "spark"):
            assert db.connect(engine=engine).sql(self.QUERY).single_value() == 8, engine

    def test_maintenance_counters_progress(self):
        db = Database(make_mini_catalog(), engine="tag")
        db.connect().sql(self.QUERY)
        db.load_rows("ORDERS", NEW_ORDERS)
        db.load_rows("ORDERS", [])
        maintenance = db.cache_stats()["maintenance"]
        assert maintenance["rows_applied"] == 3
        assert maintenance["deltas_applied"] == 1
        assert maintenance["empty_loads_ignored"] == 1
        assert maintenance["engines_patched"] == 1
        assert maintenance["plans_retained"] >= 1
        assert maintenance["last_delta_seconds"] > 0
