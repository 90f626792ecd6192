"""The superstep is the unit the engine hands a program: ``compute_superstep``.

Three things are pinned here.  The base-class default is still the
vertex-at-a-time loop (fresh message list, current vertex set); a program
that replaces it — the TAG-join kernel — still stops at the barrier on a
cancelled token or a ``bsp.superstep`` failpoint, and still cannot message
a vertex that does not exist; and the bulk accounting surface of
:class:`SuperstepContext` adds up exactly like per-message ``send`` and
per-value ``aggregate``.
"""

from types import SimpleNamespace

import pytest

from repro.bsp import BSPEngine, BSPError, Graph, HashPartitioner, VertexProgram
from repro.bsp.aggregators import GroupAggregator
from repro.bsp.engine import SuperstepContext
from repro.core import TagJoinExecutor
from repro.core.cancellation import CancellationToken, QueryCancelled, cancel_scope
from repro.durability import failpoints
from repro.durability.failpoints import FaultInjected
from repro.exec.program import TagJoinKernel
from repro.tag import encode_catalog

from conftest import make_mini_catalog

NCO_SQL = (
    "SELECT n.N_NAME, c.C_CUSTKEY, o.O_ORDERKEY FROM NATION n, CUSTOMER c, ORDERS o "
    "WHERE n.N_NATIONKEY = c.C_NATIONKEY AND c.C_CUSTKEY = o.O_CUSTKEY"
)


def fan_graph(n=6):
    graph = Graph("fan")
    for i in range(n):
        graph.add_vertex(f"v{i}", "node")
    return graph


# ----------------------------------------------------------------------
# the default: one compute() per active vertex
# ----------------------------------------------------------------------
class _Recorder(VertexProgram):
    """Superstep 0: v0 messages v1 and v2; every call is recorded."""

    def __init__(self):
        self.calls = []

    def initial_active_vertices(self, graph):
        return ["v0", "v3"]

    def compute(self, vertex, messages, graph, context):
        self.calls.append((context.superstep, vertex.vertex_id, messages, context._current_vertex))
        messages.append("scratch")  # programs may use the list as scratch
        if context.superstep == 0 and vertex.vertex_id == "v0":
            context.send("v1", "a")
            context.send("v2", "a")


class TestDefaultComputeSuperstep:
    def test_each_vertex_gets_a_fresh_list_and_is_the_current_vertex(self):
        graph = fan_graph()
        program = _Recorder()
        BSPEngine(graph).run(program)
        by_step = {}
        for superstep, vertex_id, messages, current in program.calls:
            by_step.setdefault(superstep, {})[vertex_id] = messages
            assert current is graph.vertex(vertex_id)
        assert set(by_step[0]) == {"v0", "v3"}
        assert set(by_step[1]) == {"v1", "v2"}
        # message-less vertices got their own empty list, not a shared one
        assert by_step[0]["v0"] == by_step[0]["v3"] == ["scratch"]
        assert by_step[0]["v0"] is not by_step[0]["v3"]
        assert by_step[1]["v1"] == ["a", "scratch"]

    def test_current_vertex_is_cleared_after_the_loop(self):
        seen = []

        class Probe(_Recorder):
            def after_superstep(self, superstep, graph, context):
                seen.append(context._current_vertex)

        BSPEngine(fan_graph()).run(Probe())
        assert seen == [None, None]

    def test_an_override_replaces_the_per_vertex_loop(self):
        frontiers = []

        class Bulk(VertexProgram):
            def initial_active_vertices(self, graph):
                return ["v0"]

            def compute_superstep(self, active, inbox, graph, context):
                frontiers.append((context.superstep, sorted(active), dict(inbox)))
                if context.superstep == 0:
                    for target in ("v1", "v2"):
                        context.outbox[target].append("x")
                    context.add_messages(2, 2)
                    context.charge(5)

        engine = BSPEngine(fan_graph())
        engine.run(Bulk())  # compute() is never called: it would raise
        assert frontiers == [(0, ["v0"], {}), (1, ["v1", "v2"], {"v1": ["x"], "v2": ["x"]})]
        first = engine.last_metrics.supersteps[0]
        assert (first.messages_sent, first.message_bytes, first.compute_units) == (2, 2, 5)


# ----------------------------------------------------------------------
# the bulk accounting surface
# ----------------------------------------------------------------------
class TestBulkAccounting:
    def test_bulk_totals_match_per_message_sends(self):
        graph = fan_graph()
        engine = BSPEngine(graph, HashPartitioner(3))
        payload = ("row", 1, 2.5)
        targets = [f"v{i}" for i in range(1, 6)]

        loop = SuperstepContext(engine, 0)
        loop._current_vertex = graph.vertex("v0")  # as the per-vertex default loop does
        for target in targets:
            loop.send(target, payload)

        bulk = SuperstepContext(engine, 0)
        size = loop._message_bytes // len(targets)
        home = engine.partition_of("v0")
        crossing = sum(1 for target in targets if engine.partition_of(target) != home)
        for target in targets:
            bulk.outbox[target].append(payload)
        bulk.add_messages(len(targets), len(targets) * size, crossing, crossing * size)

        assert dict(bulk.outbox) == dict(loop.outbox)
        assert bulk._messages_sent == loop._messages_sent == len(targets)
        assert bulk._message_bytes == loop._message_bytes
        assert bulk._network_messages == loop._network_messages > 0
        assert bulk._network_bytes == loop._network_bytes

    def test_bulk_aggregates_match_per_value_contributions(self):
        graph = fan_graph()
        engine = BSPEngine(graph, HashPartitioner(3))
        engine.register_aggregator(GroupAggregator("groups"))
        senders = ["v1", "v2", "v3", "v4"]
        values = [("k", 1), ("k", 2), ("j", 5), ("k", 4)]

        loop = SuperstepContext(engine, 0)
        for sender, value in zip(senders, values):
            loop._current_vertex = graph.vertex(sender)
            loop.aggregate("groups", value)

        bulk = SuperstepContext(engine, 0)
        size = loop._message_bytes // len(values)
        crossing = sum(1 for sender in senders if engine.partition_of(sender) != 0)
        bulk.add_aggregates("groups", values, 4, 4 * size, crossing, crossing * size)

        assert bulk._aggregator_inbox == loop._aggregator_inbox
        assert bulk._messages_sent == loop._messages_sent == 4
        assert bulk._message_bytes == loop._message_bytes
        assert bulk._network_messages == loop._network_messages > 0
        assert bulk._network_bytes == loop._network_bytes

    def test_folded_aggregates_are_charged_per_contributing_vertex(self):
        engine = BSPEngine(fan_graph())
        engine.register_aggregator(GroupAggregator("groups"))
        context = SuperstepContext(engine, 0)
        # four vertices' values folded into two groups before handing over
        context.add_aggregates("groups", [("k", 7), ("j", 5)], 4, 4 * 13)
        assert len(context._aggregator_inbox) == 2
        assert (context._messages_sent, context._message_bytes) == (4, 52)
        with pytest.raises(BSPError, match="unknown aggregator"):
            context.add_aggregates("missing", [("k", 1)], 1, 13)

    def test_an_outbox_entry_for_a_missing_vertex_raises_at_the_barrier(self):
        class Ghostly(VertexProgram):
            def initial_active_vertices(self, graph):
                return ["v0"]

            def compute_superstep(self, active, inbox, graph, context):
                context.outbox["ghost"].append("boo")
                context.add_messages(1, 3)

        with pytest.raises(BSPError, match="ghost"):
            BSPEngine(fan_graph()).run(Ghostly())


# ----------------------------------------------------------------------
# the kernel under the engine's contract
# ----------------------------------------------------------------------
@pytest.fixture()
def superstep_log(monkeypatch):
    """Record the kernel's ``compute_superstep`` calls; ``hooks`` run before each."""
    log = SimpleNamespace(calls=[], hooks=[])
    original = TagJoinKernel.compute_superstep

    def logging(self, active, inbox, graph, context):
        log.calls.append(context.superstep)
        for hook in log.hooks:
            hook(context.superstep)
        return original(self, active, inbox, graph, context)

    monkeypatch.setattr(TagJoinKernel, "compute_superstep", logging)
    return log


class TestKernelHonoursTheBarrier:
    def test_kernel_has_no_per_vertex_entry_points(self):
        for name in ("compute", "_receive", "_send"):
            assert name not in vars(TagJoinKernel)
        assert "compute_superstep" in vars(TagJoinKernel)

    def test_cancelled_token_stops_at_the_next_barrier(self, superstep_log):
        calls, hooks = superstep_log.calls, superstep_log.hooks
        catalog = make_mini_catalog()
        executor = TagJoinExecutor(encode_catalog(catalog), catalog)
        executor.execute_sql(NCO_SQL)
        full_run = len(calls)
        assert full_run > 3
        calls.clear()

        token = CancellationToken()
        hooks.append(lambda superstep: superstep == 1 and token.cancel("stop"))
        with cancel_scope(token), pytest.raises(QueryCancelled):
            executor.execute_sql(NCO_SQL)
        # cancelled during superstep 1: that superstep finished, no other began
        assert calls == [0, 1]

    def test_superstep_failpoint_stops_at_the_barrier(self, superstep_log):
        calls = superstep_log.calls
        catalog = make_mini_catalog()
        executor = TagJoinExecutor(encode_catalog(catalog), catalog)
        failpoints.install("bsp.superstep=raise@3")
        try:
            with pytest.raises(FaultInjected):
                executor.execute_sql(NCO_SQL)
        finally:
            failpoints.clear()
        assert calls == [0, 1]
        # disarmed, the same executor answers
        assert len(executor.execute_sql(NCO_SQL).rows) == 5

    def test_dangling_edge_target_raises_bsp_error(self):
        catalog = make_mini_catalog()
        graph = encode_catalog(catalog)
        # remove an attribute vertex behind the encoder's back: its tuple
        # vertices keep their (now dangling) edges to it
        victim = graph.attribute_vertex_for(10)
        assert victim is not None
        graph.remove_vertex(victim)
        executor = TagJoinExecutor(graph, catalog)
        with pytest.raises(BSPError, match="unknown vertex"):
            executor.execute_sql(NCO_SQL)
