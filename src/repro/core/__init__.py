"""TAG-join: the paper's core contribution (plans, vertex programs, executor).

The executor runs the kernel of :mod:`repro.exec.program` (engine ``tag``),
the dict-row reference :class:`TagJoinProgram` (engine ``tag_dict``) and,
for pure cycle queries, :class:`CycleQueryProgram`.  :class:`TwoWayJoinProgram`
is the paper's Section 4 building block, run directly by tests and the
A01 ablation.
"""

from .cartesian import cartesian_product_rows
from .compiler import CompiledFragment, CompileError, compile_fragment
from .cyclic import CycleQueryProgram, CycleRelation, TriangleQueryProgram
from .executor import ExecutionError, QueryResult, StaleEngineError, TagJoinExecutor
from .hypergraph import (
    Hypergraph,
    HypergraphError,
    JoinVariable,
    build_hypergraph,
    connected_components,
    detect_simple_cycle,
)
from .jointree import (
    JoinTree,
    JoinTreeError,
    TreeEdge,
    build_join_tree,
    enumerate_rootings,
    reroot,
)
from .operations import CallablePredicate
from .tag_plan import (
    PlanEdge,
    PlanNode,
    TagPlan,
    TraversalStep,
    build_tag_plan,
    full_schedule,
    generate_label_list,
    generate_steps,
    reduction_schedule,
)
from .twoway import JoinPair, TwoWayJoinProgram
from .vertex_program import (
    FragmentConfig,
    Phase,
    ScheduledStep,
    TagJoinProgram,
    build_schedule,
)

__all__ = [
    "CallablePredicate",
    "CompileError",
    "CompiledFragment",
    "CycleQueryProgram",
    "CycleRelation",
    "ExecutionError",
    "FragmentConfig",
    "Hypergraph",
    "HypergraphError",
    "JoinPair",
    "JoinTree",
    "JoinTreeError",
    "JoinVariable",
    "Phase",
    "PlanEdge",
    "PlanNode",
    "QueryResult",
    "ScheduledStep",
    "StaleEngineError",
    "TagJoinExecutor",
    "TagJoinProgram",
    "TagPlan",
    "TraversalStep",
    "TreeEdge",
    "TriangleQueryProgram",
    "TwoWayJoinProgram",
    "build_hypergraph",
    "build_join_tree",
    "build_schedule",
    "build_tag_plan",
    "cartesian_product_rows",
    "compile_fragment",
    "connected_components",
    "detect_simple_cycle",
    "enumerate_rootings",
    "full_schedule",
    "generate_label_list",
    "generate_steps",
    "reduction_schedule",
    "reroot",
]
