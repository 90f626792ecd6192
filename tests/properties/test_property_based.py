"""Property-based tests (hypothesis) on the core data structures and invariants."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra import AggFunc, QueryBuilder, col
from repro.algebra.logical import AggregateSpec
from repro.bsp import BSPEngine
from repro.core import JoinPair, TagJoinExecutor, TwoWayJoinProgram, build_hypergraph
from repro.core import operations as ops
from repro.engine import RelationalExecutor
from repro.relational import Catalog, Column, DataType, Relation, Schema
from repro.relational.relation import rows_to_multiset
from repro.tag import encode_catalog

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

pairs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)),
    min_size=0,
    max_size=25,
)


def _binary(name, rows, columns):
    schema = Schema(name, [Column(columns[0], DataType.INT), Column(columns[1], DataType.INT)])
    return Relation(schema, [list(row) for row in rows])


@SLOW
@given(r_rows=pairs, s_rows=pairs)
def test_two_way_join_matches_brute_force(r_rows, s_rows):
    """R(A,B) ⋈ S(B,C) computed vertex-centrically equals the nested-loop result."""
    catalog = Catalog("prop")
    catalog.add(_binary("R", r_rows, ("A", "B")))
    catalog.add(_binary("S", s_rows, ("B", "C")))
    graph = encode_catalog(catalog)
    program = TwoWayJoinProgram(graph, "R", "S", [JoinPair("B", "B")])
    rows = BSPEngine(graph).run(program)
    produced = rows_to_multiset(
        (row["R.A"], row["R.B"], row["S.B"], row["S.C"]) for row in rows
    )
    expected = rows_to_multiset(
        (a, b, b2, c) for a, b in r_rows for b2, c in s_rows if b == b2
    )
    assert produced == expected


@SLOW
@given(r_rows=pairs, s_rows=pairs)
def test_two_way_reduction_message_bound(r_rows, s_rows):
    """Section 4.1.2: reduction-phase messages never exceed min(IN, OUT) and the
    whole run stays within O(IN + OUT)."""
    catalog = Catalog("prop")
    catalog.add(_binary("R", r_rows, ("A", "B")))
    catalog.add(_binary("S", s_rows, ("B", "C")))
    graph = encode_catalog(catalog)
    engine = BSPEngine(graph)
    rows = engine.run(TwoWayJoinProgram(graph, "R", "S", [JoinPair("B", "B")]))
    in_size = len(r_rows) + len(s_rows)
    out_size = len(rows)
    if in_size == 0:
        return
    first_superstep = engine.last_metrics.supersteps[0].messages_sent
    # |R ⋉ S| + |S ⋉ R| is bounded by IN, and by 2·OUT (each joining tuple on
    # either side contributes at least one output row)
    if out_size:
        assert first_superstep <= min(in_size, 2 * out_size)
    else:
        assert first_superstep == 0
    assert engine.last_metrics.total_messages <= 3 * (in_size + out_size) + 3


@SLOW
@given(r_rows=pairs, s_rows=pairs, t_rows=pairs)
def test_three_relation_chain_matches_baseline(r_rows, s_rows, t_rows):
    """The full TAG-join executor agrees with the RDBMS baseline on chain joins."""
    catalog = Catalog("prop")
    catalog.add(_binary("R", r_rows, ("A", "B")))
    catalog.add(_binary("S", s_rows, ("B", "C")))
    catalog.add(_binary("T", t_rows, ("C", "D")))
    graph = encode_catalog(catalog)
    spec = (
        QueryBuilder("chain")
        .table("R", "r").table("S", "s").table("T", "t")
        .join("r", "B", "s", "B").join("s", "C", "t", "C")
        .select_columns("r.A", "s.B", "s.C", "t.D")
        .build()
    )
    tag_rows = TagJoinExecutor(graph, catalog).execute(spec).to_tuples()
    baseline = RelationalExecutor(catalog).execute(spec).to_tuples()
    assert tag_rows == baseline


@SLOW
@given(r_rows=pairs, s_rows=pairs, group_count=st.integers(min_value=1, max_value=4))
def test_local_aggregation_matches_baseline(r_rows, s_rows, group_count):
    """SUM/COUNT per group computed at attribute vertices equals the baseline."""
    catalog = Catalog("prop")
    catalog.add(_binary("R", [(a % group_count, b) for a, b in r_rows], ("G", "B")))
    catalog.add(_binary("S", s_rows, ("B", "C")))
    graph = encode_catalog(catalog)
    spec = (
        QueryBuilder("la")
        .table("R", "r").table("S", "s")
        .join("r", "B", "s", "B")
        .group_by("r", "G")
        .select(col("r.G"), "g")
        .aggregate(AggFunc.SUM, col("s.C"), "total")
        .aggregate(AggFunc.COUNT, None, "cnt")
        .build()
    )
    tag_result = TagJoinExecutor(graph, catalog).execute(spec)
    baseline = RelationalExecutor(catalog).execute(spec)
    assert sorted(tag_result.to_tuples(["g", "total", "cnt"])) == sorted(
        baseline.to_tuples(["g", "total", "cnt"])
    )


@given(
    values=st.lists(st.integers(min_value=-100, max_value=100) | st.none(), max_size=40),
    split=st.integers(min_value=0, max_value=40),
)
def test_partial_aggregate_merge_is_associative(values, split):
    """Partial aggregates can be split anywhere and merged without changing the result."""
    aggregates = [
        AggregateSpec(AggFunc.COUNT, None, "cnt"),
        AggregateSpec(AggFunc.SUM, col("r.X"), "total"),
        AggregateSpec(AggFunc.AVG, col("r.X"), "mean"),
        AggregateSpec(AggFunc.MIN, col("r.X"), "lo"),
        AggregateSpec(AggFunc.MAX, col("r.X"), "hi"),
    ]
    rows = [{"r.X": value} for value in values]
    split = min(split, len(rows))
    whole = ops.finalize_partial(ops.partial_of_rows(aggregates, rows), aggregates)
    merged = ops.finalize_partial(
        ops.merge_partials(
            ops.partial_of_rows(aggregates, rows[:split]),
            ops.partial_of_rows(aggregates, rows[split:]),
            aggregates,
        ),
        aggregates,
    )
    assert whole == merged


@given(rows=pairs)
def test_tag_encoding_size_linear_and_bipartite(rows):
    """|V| and |E| stay linear in the instance and edges only connect the two classes."""
    catalog = Catalog("prop")
    catalog.add(_binary("R", rows, ("A", "B")))
    graph = encode_catalog(catalog)
    assert len(graph.tuple_vertices_of("R")) == len(rows)
    distinct_values = {value for row in rows for value in row}
    assert graph.load_report.attribute_vertices <= len(distinct_values)
    assert graph.edge_count == 2 * 2 * len(rows)  # two columns, undirected
    for label in graph.edge_labels():
        for source, targets in graph.adjacency(label).items():
            is_tuple = graph.is_tuple_vertex(graph.vertex(source))
            for target in targets:
                assert is_tuple != graph.is_tuple_vertex(graph.vertex(target))


@SLOW
@given(r_rows=pairs, s_rows=pairs, t_rows=pairs)
def test_cost_based_plans_agree_on_random_acyclic_specs(r_rows, s_rows, t_rows):
    """Cost-based rooting returns exactly the heuristic/baseline rows (chain joins)."""
    catalog = Catalog("prop")
    catalog.add(_binary("R", r_rows, ("A", "B")))
    catalog.add(_binary("S", s_rows, ("B", "C")))
    catalog.add(_binary("T", t_rows, ("C", "D")))
    graph = encode_catalog(catalog)
    spec = (
        QueryBuilder("chain")
        .table("R", "r").table("S", "s").table("T", "t")
        .join("r", "B", "s", "B").join("s", "C", "t", "C")
        .select_columns("r.A", "s.B", "s.C", "t.D")
        .build()
    )
    # cross_check_plans re-executes with the heuristic root and raises on mismatch
    planned = TagJoinExecutor(graph, catalog, cross_check_plans=True).execute(spec)
    baseline = RelationalExecutor(catalog).execute(spec)
    assert planned.to_tuples() == baseline.to_tuples()


@SLOW
@given(r_rows=pairs, s_rows=pairs, t_rows=pairs)
def test_cost_based_plans_agree_on_random_cyclic_specs(r_rows, s_rows, t_rows):
    """Triangle queries through the join-tree path: planned == heuristic == baseline."""
    catalog = Catalog("prop")
    catalog.add(_binary("R", r_rows, ("A", "B")))
    catalog.add(_binary("S", s_rows, ("B", "C")))
    catalog.add(_binary("T", t_rows, ("C", "A")))
    graph = encode_catalog(catalog)
    spec = (
        QueryBuilder("triangle")
        .table("R", "r").table("S", "s").table("T", "t")
        .join("r", "B", "s", "B").join("s", "C", "t", "C").join("t", "A", "r", "A")
        .select_columns("r.A", "r.B", "s.C")
        .build()
    )
    # use_wco_cycles=False forces the spanning-tree fragment path the planner roots
    planned = TagJoinExecutor(
        graph, catalog, cross_check_plans=True, use_wco_cycles=False
    ).execute(spec)
    baseline = RelationalExecutor(catalog).execute(spec)
    assert planned.to_tuples() == baseline.to_tuples()


@SLOW
@given(r_rows=pairs, s_rows=pairs)
def test_plan_cache_hits_preserve_results(r_rows, s_rows):
    """Executing the same spec repeatedly through the cache never changes rows."""
    catalog = Catalog("prop")
    catalog.add(_binary("R", r_rows, ("A", "B")))
    catalog.add(_binary("S", s_rows, ("B", "C")))
    graph = encode_catalog(catalog)
    spec = (
        QueryBuilder("repeat")
        .table("R", "r").table("S", "s")
        .join("r", "B", "s", "B")
        .select_columns("r.A", "s.C")
        .build()
    )
    executor = TagJoinExecutor(graph, catalog)
    first = executor.execute(spec).to_tuples()
    second = executor.execute(spec).to_tuples()
    assert first == second
    stats = executor.plan_cache_stats()
    assert stats["hits"] >= 1


@pytest.fixture(scope="module")
def lp_solver_loaded():
    """Solve one cover before the timed examples: the first solve imports
    scipy's LP solver, which takes longer than hypothesis's deadline."""
    pair = QueryBuilder("warm").table("R0", "r0").table("R1", "r1").join("r0", "X", "r1", "X")
    build_hypergraph(pair.build()).fractional_edge_cover()


@given(st.data())
def test_hypergraph_cover_at_least_one_and_at_most_edge_count(lp_solver_loaded, data):
    """The fractional edge cover number lies between 1 and the relation count."""
    relation_count = data.draw(st.integers(min_value=2, max_value=5))
    builder = QueryBuilder("q")
    for index in range(relation_count):
        builder.table(f"R{index}", f"r{index}")
    for index in range(relation_count - 1):
        builder.join(f"r{index}", "X", f"r{index + 1}", "X")
    hypergraph = build_hypergraph(builder.build())
    cover = hypergraph.fractional_edge_cover_number()
    assert 1.0 - 1e-6 <= cover <= relation_count + 1e-6
