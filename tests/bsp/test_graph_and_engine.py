"""Tests for the BSP substrate: graph store, engine semantics, aggregators, metrics."""

import pytest

from conftest import graph_properties
from repro.bsp import (
    BSPEngine,
    BSPError,
    Graph,
    GraphError,
    GroupAggregator,
    HashPartitioner,
    RoundRobinPartitioner,
    SinglePartitioner,
    VertexProgram,
    payload_size_bytes,
)


def line_graph(n: int = 5) -> Graph:
    graph = Graph("line")
    for i in range(n):
        graph.add_vertex(f"v{i}", "node")
    for i in range(n - 1):
        graph.add_edge(f"v{i}", f"v{i+1}", "link", undirected=True)
    return graph


class TestGraph:
    def test_label_first_adjacency_tracks_every_mutation(self):
        graph = line_graph(4)
        graph.add_edge("v0", "v3", "jump")
        assert sorted(graph.edge_labels()) == ["jump", "link"]
        assert graph.adjacency("link")["v1"] == ["v0", "v2"]
        assert graph.adjacency("jump") == {"v0": ["v3"]}
        assert graph.edge_targets("v1", "link") == ["v0", "v2"]
        assert list(graph.edge_targets("v1", "jump")) == []
        assert graph.adjacency("nope") == {}

        # filtering a list down to nothing drops the entry, then the label
        assert graph.remove_edges_to("v1", "link", {"v0"}) == 1
        assert graph.adjacency("link")["v1"] == ["v2"]
        assert graph.remove_edges_to("v0", "jump", {"v3"}) == 1
        assert "jump" not in graph.edge_labels()
        assert graph.edge_targets("v0", "link") == ["v1"]
        assert graph.remove_edges_to("v0", "jump", {"v3"}) == 0
        assert graph.edge_count == 5

        # removing a vertex removes it as a source; single and batch agree
        graph.remove_vertex("v3")
        assert "v3" not in graph.adjacency("link")
        graph.remove_vertices(["v0", "v1", "v2"])
        assert graph.edge_labels() == []
        assert graph.edge_count == 0

    @pytest.mark.parametrize("victims", [1, 2, 9, 40])
    def test_ordered_removal_equals_the_filter(self, victims):
        """Bisecting a creation-ordered target list == filtering it (few
        victims bisect, many filter; the caller cannot tell which ran)."""

        def star() -> Graph:
            graph = Graph("star")
            graph.add_vertex("hub", "value")
            for i in range(40):
                graph.add_vertex(f"t{i}", "tuple")
                graph.add_edge(f"t{i}", "hub", "col", undirected=True)
            return graph

        dead = {f"t{(7 * i) % 40}" for i in range(victims)} | {"hub"}  # hub: never a target
        ordered, filtered = star(), star()
        assert ordered.remove_edges_to("hub", "col", dead, ordered=True) == victims
        assert filtered.remove_edges_to("hub", "col", dead) == victims
        assert ordered.edge_count == filtered.edge_count == 80 - victims
        if victims == 40:
            assert "hub" not in ordered.adjacency("col")
        else:
            survivors = [f"t{i}" for i in range(40) if f"t{i}" not in dead]
            assert ordered.adjacency("col")["hub"] == survivors
            assert filtered.adjacency("col")["hub"] == survivors

    def test_removal_validates_before_it_mutates_and_keeps_label_order(self):
        graph = line_graph(5)
        with pytest.raises(GraphError):
            graph.remove_vertices(["v1", "ghost"])
        assert graph.vertices_with_label("node") == ["v0", "v1", "v2", "v3", "v4"]
        graph.remove_vertices(["v3", "v1"])
        assert graph.vertices_with_label("node") == ["v0", "v2", "v4"]
        graph.add_vertex("v9", "node")
        assert graph.vertices_with_label("node") == ["v0", "v2", "v4", "v9"]
        graph.remove_vertices(["v0", "v2", "v4", "v9"])
        assert graph.vertices_with_label("node") == [] and graph.labels() == []

    def test_add_and_lookup(self):
        graph = line_graph()
        assert graph.vertex_count == 5
        assert graph.edge_count == 8  # 4 undirected edges = 8 directed
        assert graph.out_degree("v1", "link") == 2
        assert set(graph.edge_targets("v1", "link")) == {"v0", "v2"}
        assert graph.out_degree("v1", "jump") == 0
        assert graph.vertices_with_label("node") == [f"v{i}" for i in range(5)]

    def test_duplicate_vertex_rejected(self):
        graph = line_graph()
        with pytest.raises(GraphError):
            graph.add_vertex("v0", "node")

    def test_edge_requires_known_endpoints(self):
        graph = line_graph()
        with pytest.raises(GraphError):
            graph.add_edge("v0", "missing", "link")

    def test_unknown_vertex_lookup(self):
        with pytest.raises(GraphError):
            line_graph().vertex("nope")

    def test_label_index_and_counts(self):
        graph = line_graph()
        assert graph.count_by_label() == {"node": 5}
        assert graph.edge_labels() == ["link"]

    def test_remove_vertex(self):
        graph = line_graph()
        graph.remove_vertex("v4")
        assert graph.vertex_count == 4
        assert not graph.has_vertex("v4")


class _Broadcast(VertexProgram):
    """Superstep 0: 'v0' messages every vertex; superstep 1: recipients record."""

    def initial_active_vertices(self, graph):
        return ["v0"]

    def compute(self, vertex, messages, graph, context):
        if context.superstep == 0:
            for target in graph.vertex_ids():
                if target != vertex.vertex_id:
                    context.send(target, vertex.vertex_id)
        else:
            context.state(vertex)["got"] = list(messages)


class TestEngineSemantics:
    def test_messages_delivered_next_superstep_and_metrics(self):
        graph = line_graph(4)
        before = graph_properties(graph)
        engine = BSPEngine(graph)
        program = _Broadcast()
        engine.run(program)
        metrics = engine.last_metrics
        assert metrics.superstep_count == 2
        assert metrics.total_messages == 3
        assert metrics.supersteps[0].active_vertices == 1
        assert metrics.supersteps[1].active_vertices == 3
        assert program.run_state.peek("v2")["got"] == ["v0"]
        # nothing leaked onto the shared graph
        assert graph_properties(graph) == before

    def test_unknown_message_target_raises(self):
        graph = line_graph(2)
        engine = BSPEngine(graph)

        class Bad(VertexProgram):
            def compute(self, vertex, messages, graph, context):
                context.send("missing", 1)

        with pytest.raises(BSPError):
            engine.run(Bad())

    def test_unknown_aggregator_raises(self):
        graph = line_graph(2)
        engine = BSPEngine(graph)

        class Bad(VertexProgram):
            def compute(self, vertex, messages, graph, context):
                context.aggregate("nope", 1)

        with pytest.raises(BSPError):
            engine.run(Bad())

    def test_max_superstep_guard(self):
        graph = line_graph(2)
        engine = BSPEngine(graph, max_supersteps=3)

        class Forever(VertexProgram):
            def compute(self, vertex, messages, graph, context):
                context.send(vertex.vertex_id, "again")

        with pytest.raises(BSPError):
            engine.run(Forever())

    def test_network_messages_counted_across_partitions(self):
        graph = line_graph(6)
        single = BSPEngine(graph, SinglePartitioner())
        single.run(_Broadcast())
        assert single.last_metrics.total_network_messages == 0

        multi = BSPEngine(graph, HashPartitioner(3))
        multi.run(_Broadcast())
        assert multi.last_metrics.total_messages == 5
        assert 0 < multi.last_metrics.total_network_messages <= 5
        assert multi.last_metrics.total_network_bytes > 0

    def test_initial_messages(self):
        graph = line_graph(3)
        engine = BSPEngine(graph)

        class Recorder(VertexProgram):
            def initial_active_vertices(self, graph):
                return []

            def compute(self, vertex, messages, graph, context):
                context.state(vertex)["msgs"] = list(messages)

        recorder = Recorder()
        engine.run(recorder, initial_messages={"v1": ["hello"]})
        assert recorder.run_state.peek("v1")["msgs"] == ["hello"]


class _Accumulator(VertexProgram):
    """Counts, per vertex, how many supersteps it stayed active in run state."""

    def initial_active_vertices(self, graph):
        return ["v0"]

    def compute(self, vertex, messages, graph, context):
        state = context.state(vertex)
        state["ticks"] = state.get("ticks", 0) + 1
        if context.superstep < 2:
            context.send(vertex.vertex_id, "again")


class TestRunState:
    def test_fresh_state_per_run(self):
        from repro.bsp import RunState

        graph = line_graph(3)
        engine = BSPEngine(graph)
        first, second = _Accumulator(), _Accumulator()
        engine.run(first)
        engine.run(second)
        # each run accumulated independently from a clean slate
        assert first.run_state.peek("v0")["ticks"] == 3
        assert second.run_state.peek("v0")["ticks"] == 3
        assert first.run_state is not second.run_state
        assert isinstance(first.run_state, RunState)

    def test_concurrent_runs_on_one_graph_do_not_interfere(self):
        import threading

        graph = line_graph(3)
        before = graph_properties(graph)
        results = [None] * 8

        def worker(index):
            program = _Accumulator()
            BSPEngine(graph).run(program)
            results[index] = program.run_state.peek("v0")["ticks"]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == [3] * 8
        assert graph_properties(graph) == before

    def test_peek_never_allocates_and_of_does(self):
        from repro.bsp import RunState

        state = RunState()
        assert state.peek("v0") == {}
        assert len(state) == 0
        state.of("v0")["x"] = 1
        assert len(state) == 1
        assert state.peek("v0") == {"x": 1}
        assert list(state.touched_vertices()) == ["v0"]

    def test_of_accepts_vertex_objects(self):
        from repro.bsp import RunState

        graph = line_graph(2)
        state = RunState()
        vertex = graph.vertex("v1")
        state.of(vertex)["k"] = "v"
        assert state.peek("v1") == {"k": "v"}
        assert state.peek(vertex) == {"k": "v"}


class TestPartitioners:
    def test_hash_partitioner_deterministic_and_bounded(self):
        partitioner = HashPartitioner(4)
        assert partitioner.partition_of("abc") == partitioner.partition_of("abc")
        assert 0 <= partitioner.partition_of("abc") < 4

    def test_round_robin_balance(self):
        graph = line_graph(8)
        partitioner = RoundRobinPartitioner(4)
        load = partitioner.load(graph)
        assert load == [2, 2, 2, 2]

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)


class TestAggregators:
    def test_collect_and_group(self):
        group = GroupAggregator("g")
        group.accumulate(("x", 2))
        group.accumulate(("x", 3))
        group.accumulate(("y", 1))
        assert group.value() == {"x": 5, "y": 1}


class TestPayloadSizes:
    def test_scalar_sizes(self):
        assert payload_size_bytes(5) == 8
        assert payload_size_bytes("abcd") == 4
        assert payload_size_bytes(None) == 1
        assert payload_size_bytes(True) == 1

    def test_container_sizes(self):
        assert payload_size_bytes([1, 2, 3]) == 4 + 24
        assert payload_size_bytes({"a": 1}) == 4 + 1 + 8

    def test_large_lists_sampled(self):
        small = payload_size_bytes([1] * 8)
        large = payload_size_bytes([1] * 800)
        assert large == 4 + 800 * 8
        assert small == 4 + 8 * 8
