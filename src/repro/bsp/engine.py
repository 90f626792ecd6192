"""The vertex-centric BSP execution engine (a Pregel-style simulator).

The engine drives a :class:`VertexProgram` over a :class:`~repro.bsp.graph.Graph`
in synchronous supersteps (paper Section 2):

* every active vertex runs ``compute`` with the messages delivered to it —
  the engine hands the program one superstep at a time
  (``compute_superstep``), whose default is that per-vertex loop and which
  a program may replace with a single loop over the frontier;
* messages sent during superstep *i* are delivered at superstep *i + 1*;
* a vertex deactivates at the end of a superstep and is reactivated only by
  an incoming message (the model used by the paper's Algorithm 2);
* global aggregator vertices collect values contributed during the
  superstep and expose them to the next one;
* a *master hook* (``before_superstep``) runs once per superstep on the
  coordinator — TAG-join uses it to pop the next traversal label from the
  plan stack, mirroring the query driver of a TigerGraph GSQL query.

The engine is single-process but partition-aware: a
:class:`~repro.bsp.partition.Partitioner` assigns vertices to workers and
the metrics distinguish intra-worker from cross-worker (network) messages,
which is what the paper's distributed experiments measure.

Per-run scratch state is **run-scoped**: each :meth:`BSPEngine.run` owns a
fresh :class:`RunState` mapping vertex ids to scratch dictionaries, exposed
to vertex programs as ``context.state(vertex)``.  Nothing a program writes
during a run ever lands on the shared :class:`~repro.bsp.graph.Graph`, so
any number of runs — including runs driven by different threads — may
execute concurrently over one immutable graph.  A :class:`BSPEngine`
instance itself is single-run plumbing (outbox, metrics); callers that
execute concurrently create one engine per run, which is exactly what
:class:`repro.core.executor.TagJoinExecutor` does.
"""

from __future__ import annotations

import time
from collections import defaultdict
from types import MappingProxyType
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from ..core.cancellation import check_cancelled
from ..durability.failpoints import maybe_fire
from .aggregators import Aggregator, AggregatorRegistry
from .graph import Graph, Vertex, VertexId
from .metrics import RunMetrics, payload_size_bytes
from .partition import Partitioner, SinglePartitioner


class BSPError(RuntimeError):
    """Raised for protocol violations (e.g. messaging an unknown vertex)."""


# immutable so a stray write through a peek() result raises instead of
# leaking into every RunState's view of every untouched vertex
_EMPTY_STATE: Mapping[str, Any] = MappingProxyType({})


class RunState:
    """Per-run vertex scratch state: ``vertex_id -> {key: value}``.

    One instance lives exactly as long as one :meth:`BSPEngine.run` and is
    never attached to the shared graph, which is what makes concurrent
    executions over a single graph safe: each run's marked edges, partial
    join tables and algorithm-specific scratch values are private to it.
    Entries are created lazily, so a run over a huge graph that touches a
    handful of vertices costs memory proportional to the touched set — and
    tearing a run down is dropping one object, not an :math:`O(|V|)` sweep
    over every vertex of the graph.
    """

    __slots__ = ("_by_vertex",)

    def __init__(self) -> None:
        self._by_vertex: Dict[VertexId, Dict[str, Any]] = {}

    def of(self, vertex: Union[Vertex, VertexId]) -> Dict[str, Any]:
        """The (lazily created) scratch dict of ``vertex`` for this run."""
        vertex_id = vertex.vertex_id if isinstance(vertex, Vertex) else vertex
        state = self._by_vertex.get(vertex_id)
        if state is None:
            state = self._by_vertex[vertex_id] = {}
        return state

    def peek(self, vertex: Union[Vertex, VertexId]) -> Mapping[str, Any]:
        """Read-only view: the vertex's scratch dict, or an empty mapping.

        Unlike :meth:`of` this never allocates, so result assembly can scan
        a whole graph without materialising entries for untouched vertices.
        (The empty mapping is immutable; use :meth:`of` to write.)
        """
        vertex_id = vertex.vertex_id if isinstance(vertex, Vertex) else vertex
        return self._by_vertex.get(vertex_id, _EMPTY_STATE)

    def touched_vertices(self) -> Iterator[VertexId]:
        """Ids of the vertices that acquired scratch state during the run."""
        return iter(self._by_vertex)

    def __len__(self) -> int:
        return len(self._by_vertex)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunState({len(self._by_vertex)} vertices touched)"


class SuperstepContext:
    """Per-superstep facade handed to ``VertexProgram.compute``.

    Provides message sending, aggregator access, run-scoped vertex state,
    cost charging and the current superstep number.  All communication
    accounting flows through this object.
    """

    def __init__(
        self,
        engine: "BSPEngine",
        superstep: int,
        run_state: Optional[RunState] = None,
    ) -> None:
        self.engine = engine
        self.superstep = superstep
        self.run_state = run_state if run_state is not None else RunState()
        #: the next superstep's inbox, ``target id -> [payloads]``.  A
        #: frontier-at-a-time program appends here directly and reports
        #: what it appended through :meth:`add_messages`; targets are
        #: checked against the graph at the barrier.
        self.outbox: Dict[VertexId, List[Any]] = defaultdict(list)
        self._aggregator_inbox: List[Tuple[str, Any]] = []
        self._messages_sent = 0
        self._message_bytes = 0
        self._network_messages = 0
        self._network_bytes = 0
        self._compute_units = 0
        self._current_vertex: Optional[Vertex] = None
        #: copied to the superstep's metrics (:attr:`SuperstepMetrics.phase`)
        self.phase: Optional[str] = None

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def send(self, target: VertexId, payload: Any) -> None:
        """Send ``payload`` to ``target``, delivered next superstep."""
        if not self.engine.graph.has_vertex(target):
            raise BSPError(f"message sent to unknown vertex {target!r}")
        self.outbox[target].append(payload)
        size = payload_size_bytes(payload)
        vertex, partition_of = self._current_vertex, self.engine.partition_of
        crossing = int(
            vertex is not None and partition_of(vertex.vertex_id) != partition_of(target)
        )
        self.add_messages(1, size, crossing, crossing * size)

    # ------------------------------------------------------------------
    # bulk surface for programs that implement ``compute_superstep``
    # ------------------------------------------------------------------
    def add_messages(
        self,
        messages: int,
        message_bytes: int,
        network_messages: int = 0,
        network_bytes: int = 0,
    ) -> None:
        """Account, once per superstep, for messages appended to :attr:`outbox`."""
        self._messages_sent += messages
        self._message_bytes += message_bytes
        self._network_messages += network_messages
        self._network_bytes += network_bytes

    def add_aggregates(
        self,
        name: str,
        values: List[Any],
        messages: int,
        message_bytes: int,
        network_messages: int = 0,
        network_bytes: int = 0,
    ) -> None:
        """Contribute ``values`` to the aggregator ``name`` and account, once
        per superstep, for the ``messages`` the contributing vertices sent it
        (more than ``len(values)`` when the program folded them first)."""
        if name not in self.engine.aggregators:
            raise BSPError(f"unknown aggregator {name!r}")
        self._aggregator_inbox.extend([(name, value) for value in values])
        self.add_messages(messages, message_bytes, network_messages, network_bytes)

    # ------------------------------------------------------------------
    # run-scoped vertex state
    # ------------------------------------------------------------------
    def state(self, vertex: Union[Vertex, VertexId]) -> Dict[str, Any]:
        """The scratch dict of ``vertex``, private to the current run.

        The returned dict lives in the run's :class:`RunState`, not on the
        shared graph, so concurrent runs over one graph never observe each
        other's scratch values and no cross-run reset is needed.
        """
        return self.run_state.of(vertex)

    # ------------------------------------------------------------------
    # aggregators
    # ------------------------------------------------------------------
    def aggregate(self, name: str, value: Any) -> None:
        """Contribute ``value`` to the global aggregator ``name``.

        Contributions are also charged as messages: the aggregator is a
        vertex whose id every vertex knows (Section 2), so talking to it is
        communication, and it is exactly the bottleneck the paper observes
        for global aggregation.  The aggregator lives on worker 0.
        """
        size = payload_size_bytes(value)
        vertex = self._current_vertex
        crossing = int(
            vertex is not None
            and self.engine.num_workers > 1
            and self.engine.partition_of(vertex.vertex_id) != 0
        )
        self.add_aggregates(name, [value], 1, size, crossing, crossing * size)

    # ------------------------------------------------------------------
    # cost accounting & control
    # ------------------------------------------------------------------
    def charge(self, units: int = 1) -> None:
        """Charge ``units`` of per-vertex computation (edge scans, joins...)."""
        self._compute_units += units


class VertexProgram:
    """User-defined vertex program (paper Section 2).

    Subclasses implement ``compute`` (or, to run a whole frontier in one
    loop, ``compute_superstep``); they may override the lifecycle hooks
    to drive multi-phase computations.  Cross-superstep per-vertex scratch
    values go through ``context.state(vertex)`` — the engine binds the
    run's :class:`RunState` to :attr:`run_state` before the first superstep
    so ``result`` can read what ``compute`` wrote.  One instance serves one
    run at a time: concurrent runs need one program (and one engine) each.
    """

    #: the scratch state of the run currently executing this program
    #: (bound by :meth:`BSPEngine.run`; None before the program has run)
    run_state: Optional[RunState] = None

    def initial_active_vertices(self, graph: Graph) -> Iterable[VertexId]:
        """Vertices active at superstep 0 (default: all)."""
        return graph.vertex_ids()

    def before_superstep(self, superstep: int, graph: Graph, context: SuperstepContext) -> None:
        """Master hook run once before each superstep's vertex computations."""

    def compute(
        self,
        vertex: Vertex,
        messages: List[Any],
        graph: Graph,
        context: SuperstepContext,
    ) -> None:
        """Per-vertex computation; must only touch local data and messages."""
        raise NotImplementedError

    def compute_superstep(
        self,
        active: Set[VertexId],
        inbox: Dict[VertexId, List[Any]],
        graph: Graph,
        context: SuperstepContext,
    ) -> None:
        """One superstep over the active frontier — the unit the engine runs.

        The default is the vertex-at-a-time loop: ``compute`` once per
        active vertex, in ``active`` order, with the messages delivered to
        it.  A program may replace it with one loop over the frontier (an
        edge-map), as long as each vertex still reads only its own data,
        its delivered messages and its own out-edges.
        """
        graph_vertex = graph.vertex
        inbox_get = inbox.get
        compute = self.compute
        for vertex_id in active:
            vertex = graph_vertex(vertex_id)
            context._current_vertex = vertex
            # vertices active without messages get a fresh empty list
            # (never a shared one: programs may use messages as scratch)
            compute(vertex, inbox_get(vertex_id) or [], graph, context)
        context._current_vertex = None

    def after_superstep(self, superstep: int, graph: Graph, context: SuperstepContext) -> None:
        """Master hook run after the superstep's vertex computations."""

    def result(self, graph: Graph, aggregators: AggregatorRegistry) -> Any:
        """Assemble the distributed output after termination (default: None)."""
        return None


class BSPEngine:
    """Runs vertex programs over a graph in synchronous supersteps."""

    def __init__(
        self,
        graph: Graph,
        partitioner: Optional[Partitioner] = None,
        max_supersteps: int = 10_000,
    ) -> None:
        self.graph = graph
        self.partitioner = partitioner or SinglePartitioner()
        self.max_supersteps = max_supersteps
        self.aggregators = AggregatorRegistry()
        self._partition_cache: Dict[VertexId, int] = {}

    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return self.partitioner.num_workers

    def partition_of(self, vertex_id: VertexId) -> int:
        partition = self._partition_cache.get(vertex_id)
        if partition is None:
            partition = self.partitioner.partition_of(vertex_id)
            self._partition_cache[vertex_id] = partition
        return partition

    def register_aggregator(self, aggregator: Aggregator) -> Aggregator:
        return self.aggregators.register(aggregator)

    # ------------------------------------------------------------------
    def run(
        self,
        program: VertexProgram,
        metrics: Optional[RunMetrics] = None,
        initial_messages: Optional[Dict[VertexId, List[Any]]] = None,
        run_state: Optional[RunState] = None,
    ) -> Any:
        """Execute ``program`` to completion and return ``program.result``.

        Args:
            program: the vertex program to run.
            metrics: optional metrics accumulator (a fresh one is created
                otherwise and attached to the return value via
                ``engine.last_metrics``).
            initial_messages: optional messages delivered at superstep 0 (in
                addition to the program's initial active set).
            run_state: the run's scratch state; a fresh, empty
                :class:`RunState` is created when omitted.  The graph itself
                is never written to, so no cross-run reset happens here.

        A program instance is **single-run**: the engine binds the run's
        state to ``program.run_state`` and programs accumulate results on
        themselves, so concurrent runs must each construct their own
        program (as :class:`repro.core.executor.TagJoinExecutor` does per
        query).  Sequential reuse of an instance re-binds cleanly.
        """
        run_state = run_state if run_state is not None else RunState()
        program.run_state = run_state
        run_metrics = metrics if metrics is not None else RunMetrics(
            label=type(program).__name__
        )
        start = time.perf_counter()

        inbox: Dict[VertexId, List[Any]] = defaultdict(list)
        if initial_messages:
            for vertex_id, payloads in initial_messages.items():
                inbox[vertex_id].extend(payloads)
        active: Set[VertexId] = set(program.initial_active_vertices(self.graph))
        active |= set(inbox)

        superstep = 0
        while superstep < self.max_supersteps:
            # the cooperative cancellation point: a deadline-exceeded or
            # cancelled query raises out of the barrier instead of running
            # to completion on an abandoned worker; also a chaos failpoint
            check_cancelled()
            maybe_fire("bsp.superstep")
            if not active and not inbox:
                break
            context = SuperstepContext(self, superstep, run_state)
            step_metrics = run_metrics.new_superstep(superstep)

            program.before_superstep(superstep, self.graph, context)

            step_metrics.active_vertices = len(active)
            program.compute_superstep(active, inbox, self.graph, context)

            program.after_superstep(superstep, self.graph, context)

            self._flush_aggregators(context)
            self._record(step_metrics, context, active_count=len(active))

            # barrier: messages sent now are delivered next superstep, and
            # only their recipients are active then (paper Section 2).  The
            # context is dropped right after, so its outbox *is* the next
            # inbox — no per-superstep copy of every message list.
            inbox = context.outbox
            if not self.graph.has_vertices(inbox.keys()):
                ghost = next(t for t in inbox if not self.graph.has_vertex(t))
                raise BSPError(f"message sent to unknown vertex {ghost!r}")
            active = set(inbox)
            superstep += 1
        else:
            raise BSPError(
                f"vertex program {type(program).__name__} exceeded "
                f"{self.max_supersteps} supersteps"
            )

        run_metrics.wall_time_seconds += time.perf_counter() - start
        self.last_metrics = run_metrics
        return program.result(self.graph, self.aggregators)

    # ------------------------------------------------------------------
    def _flush_aggregators(self, context: SuperstepContext) -> None:
        for name, value in context._aggregator_inbox:
            self.aggregators.get(name).accumulate(value)

    @staticmethod
    def _record(step_metrics, context: SuperstepContext, active_count: int) -> None:
        step_metrics.active_vertices = active_count
        step_metrics.phase = context.phase
        step_metrics.messages_sent += context._messages_sent
        step_metrics.message_bytes += context._message_bytes
        step_metrics.network_messages += context._network_messages
        step_metrics.network_bytes += context._network_bytes
        step_metrics.compute_units += context._compute_units
