"""TAG traversal plans (paper Section 5.1) and step generation (Algorithm 1).

A TAG plan is a tree whose nodes are *relation nodes* (one per alias of the
join tree) and *attribute nodes* (one per join-tree edge, labelled with the
edge's join variable, plus an optional group-by attribute node used as the
plan root for local aggregation).  Plan edges connect an attribute node to
a relation node and carry the TAG graph edge label ``TABLE.column`` that
the vertex program sends messages along.

``generate_steps`` is the reproduction of Algorithm 1 (GenSteps): it
produces the connected bottom-up traversal of the plan starting from the
rightmost leaf.  The reduction phase runs these steps, then their reverse
(top-down), and the collection phase runs the bottom-up list again
(Algorithm 2).  The order of a node's children is the plan's: the
compiler picks it by estimated cost before building the plan
(:func:`repro.planner.cost.order_reduction`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..relational.catalog import Catalog
from .jointree import JoinTree, TreeEdge


class PlanError(ValueError):
    """Raised for malformed TAG plans."""


RELATION_NODE = "relation"
ATTRIBUTE_NODE = "attribute"


@dataclass(frozen=True)
class PlanNode:
    """A node of the TAG plan (relation or attribute)."""

    node_id: str
    kind: str  # RELATION_NODE or ATTRIBUTE_NODE
    alias: Optional[str] = None  # relation nodes: the query alias
    table: Optional[str] = None  # relation nodes: the base relation name
    variable_name: Optional[str] = None  # attribute nodes: display name

    @property
    def is_relation(self) -> bool:
        return self.kind == RELATION_NODE

    @property
    def is_attribute(self) -> bool:
        return self.kind == ATTRIBUTE_NODE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_relation:
            return f"PlanNode({self.alias}:{self.table})"
        return f"PlanNode(<{self.variable_name}>)"


@dataclass(frozen=True)
class PlanEdge:
    """An edge of the TAG plan between an attribute node and a relation node.

    ``label`` is the TAG graph edge label ``TABLE.column`` used for
    messaging in both directions (the TAG encoding is undirected).
    """

    edge_id: str
    attribute_node: str
    relation_node: str
    label: str
    column: str

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlanEdge({self.attribute_node} --{self.label}-- {self.relation_node})"


@dataclass(frozen=True)
class TraversalStep:
    """One traversal step: active vertices of ``source`` send along ``edge`` to ``target``."""

    edge: PlanEdge
    source: str
    target: str

    @property
    def label(self) -> str:
        return self.edge.label

    def reversed(self) -> "TraversalStep":
        return TraversalStep(self.edge, self.target, self.source)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Step({self.source} --{self.label}--> {self.target})"


@dataclass
class TagPlan:
    """The TAG traversal plan of one connected, tree-shaped query fragment."""

    nodes: Dict[str, PlanNode] = field(default_factory=dict)
    edges: List[PlanEdge] = field(default_factory=list)
    root: Optional[str] = None
    # adjacency: parent node id -> ordered child node ids
    children: Dict[str, List[str]] = field(default_factory=dict)
    parent: Dict[str, Optional[str]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def add_node(self, node: PlanNode, parent_id: Optional[str]) -> PlanNode:
        if node.node_id in self.nodes:
            raise PlanError(f"duplicate plan node {node.node_id!r}")
        self.nodes[node.node_id] = node
        self.children[node.node_id] = []
        self.parent[node.node_id] = parent_id
        if parent_id is None:
            if self.root is not None:
                raise PlanError("plan already has a root")
            self.root = node.node_id
        else:
            self.children[parent_id].append(node.node_id)
        return node

    def add_edge(self, edge: PlanEdge) -> PlanEdge:
        self.edges.append(edge)
        return edge

    def edge_between(self, node_a: str, node_b: str) -> PlanEdge:
        for edge in self.edges:
            endpoints = {edge.attribute_node, edge.relation_node}
            if endpoints == {node_a, node_b}:
                return edge
        raise PlanError(f"no plan edge between {node_a!r} and {node_b!r}")

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def node(self, node_id: str) -> PlanNode:
        return self.nodes[node_id]

    def relation_nodes(self) -> List[PlanNode]:
        return [node for node in self.nodes.values() if node.is_relation]

    def attribute_nodes(self) -> List[PlanNode]:
        return [node for node in self.nodes.values() if node.is_attribute]

    def rightmost_leaf(self) -> str:
        """The leaf reached by always following the last child (Algorithm 1's start)."""
        current = self.root
        if current is None:
            raise PlanError("plan has no root")
        while self.children[current]:
            current = self.children[current][-1]
        return current

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TagPlan(root={self.root}, {len(self.nodes)} nodes, {len(self.edges)} edges)"


# ----------------------------------------------------------------------
# plan construction from a join tree
# ----------------------------------------------------------------------
def relation_node_id(alias: str) -> str:
    return f"rel:{alias}"


def attribute_node_id(edge: TreeEdge) -> str:
    return f"attr:{edge.child}~{edge.parent}:{edge.variable.name}"


def build_tag_plan(
    tree: JoinTree,
    catalog: Catalog,
    alias_tables: Dict[str, str],
    group_by_root: Optional[Tuple[str, str]] = None,
) -> TagPlan:
    """Build a TAG plan from a join tree.

    Args:
        tree: rooted join tree over the query aliases.
        catalog: used only for validation of column names.
        alias_tables: alias -> base relation name.
        group_by_root: optional ``(alias, column)`` pair; when given, a
            fresh attribute node for that column is created *above* the
            root relation node and becomes the plan root.  This realises
            the paper's local-aggregation placement (Section 7, footnote 8):
            the GROUP BY attribute is the root so each of its attribute
            vertices ends up holding exactly its group's joined tuples.
    """
    plan = TagPlan()

    # optional group-by attribute root
    root_parent: Optional[str] = None
    if group_by_root is not None:
        group_alias, group_column = group_by_root
        if group_alias != tree.root:
            raise PlanError(
                "group_by_root alias must be the join tree root "
                f"({group_alias!r} != {tree.root!r})"
            )
        table = alias_tables[group_alias]
        _check_column(catalog, table, group_column)
        group_node = PlanNode(
            node_id=f"attr:groupby:{group_alias}.{group_column}",
            kind=ATTRIBUTE_NODE,
            variable_name=f"{group_alias}.{group_column}",
        )
        plan.add_node(group_node, parent_id=None)
        root_parent = group_node.node_id

    # relation node for the join tree root
    root_table = alias_tables[tree.root]
    root_node = PlanNode(
        node_id=relation_node_id(tree.root),
        kind=RELATION_NODE,
        alias=tree.root,
        table=root_table,
    )
    plan.add_node(root_node, parent_id=root_parent)
    if root_parent is not None:
        group_alias, group_column = group_by_root  # type: ignore[misc]
        plan.add_edge(
            PlanEdge(
                edge_id=f"pe:groupby:{group_alias}.{group_column}",
                attribute_node=root_parent,
                relation_node=root_node.node_id,
                label=f"{root_table}.{group_column}",
                column=group_column,
            )
        )

    # recursively attach children: child relation node hangs below a fresh
    # attribute node which hangs below the parent relation node
    def attach(parent_alias: str) -> None:
        for child_alias in tree.children(parent_alias):
            edge = tree.edge_to_parent(child_alias)
            if edge is None:
                raise PlanError(f"missing tree edge for {child_alias!r}")
            parent_table = alias_tables[parent_alias]
            child_table = alias_tables[child_alias]
            _check_column(catalog, parent_table, edge.parent_column)
            _check_column(catalog, child_table, edge.child_column)

            attr_node = PlanNode(
                node_id=attribute_node_id(edge),
                kind=ATTRIBUTE_NODE,
                variable_name=edge.variable.name,
            )
            plan.add_node(attr_node, parent_id=relation_node_id(parent_alias))
            plan.add_edge(
                PlanEdge(
                    edge_id=f"pe:{attr_node.node_id}:{parent_alias}",
                    attribute_node=attr_node.node_id,
                    relation_node=relation_node_id(parent_alias),
                    label=f"{parent_table}.{edge.parent_column}",
                    column=edge.parent_column,
                )
            )
            child_node = PlanNode(
                node_id=relation_node_id(child_alias),
                kind=RELATION_NODE,
                alias=child_alias,
                table=child_table,
            )
            plan.add_node(child_node, parent_id=attr_node.node_id)
            plan.add_edge(
                PlanEdge(
                    edge_id=f"pe:{attr_node.node_id}:{child_alias}",
                    attribute_node=attr_node.node_id,
                    relation_node=child_node.node_id,
                    label=f"{child_table}.{edge.child_column}",
                    column=edge.child_column,
                )
            )
            attach(child_alias)

    attach(tree.root)
    return plan


def _check_column(catalog: Catalog, table: str, column: str) -> None:
    schema = catalog.schema(table)
    if column not in schema:
        raise PlanError(f"relation {table!r} has no column {column!r}")


# ----------------------------------------------------------------------
# Algorithm 1: GenSteps — connected bottom-up traversal
# ----------------------------------------------------------------------
def generate_steps(plan: TagPlan) -> List[TraversalStep]:
    """Generate the connected bottom-up traversal of the plan (Algorithm 1).

    The returned list starts at the rightmost leaf and ends at the root,
    descending into sibling subtrees along the way so that every step
    starts from the node reached by the previous one.  A node's children
    are visited last to first, and each one off the path to the start
    leaf is descended into and returned from; the return sends only along
    the marks (a running semijoin, see
    :func:`repro.core.vertex_program.build_schedule`).  Reversing each
    step of the reversed list yields the top-down pass used by the
    reduction phase's second half.
    """
    if plan.root is None:
        raise PlanError("plan has no root")
    if len(plan.nodes) == 1:
        return []

    # forward Euler walk: entry pushes are descents, exit pushes are ascents
    walk: List[TraversalStep] = []

    def dfs(node_id: str, in_step: Optional[TraversalStep], on_rightmost: bool) -> None:
        if in_step is not None:
            walk.append(in_step)
        child_ids = plan.children[node_id]
        for index, child_id in enumerate(child_ids):
            edge = plan.edge_between(node_id, child_id)
            descend = TraversalStep(edge, source=node_id, target=child_id)
            dfs(child_id, descend, on_rightmost and index == len(child_ids) - 1)
        if in_step is not None and not on_rightmost:
            walk.append(in_step.reversed())

    dfs(plan.root, None, True)

    # the bottom-up list is the reverse walk with every step flipped
    return [step.reversed() for step in reversed(walk)]


def generate_label_list(plan: TagPlan) -> List[str]:
    """The list of edge labels driving the vertex program (paper Figure 4(c))."""
    return [step.label for step in generate_steps(plan)]


def reduction_schedule(plan: TagPlan) -> Tuple[List[TraversalStep], List[TraversalStep]]:
    """Bottom-up and top-down step lists of the reduction phase."""
    up_steps = generate_steps(plan)
    down_steps = [step.reversed() for step in reversed(up_steps)]
    return up_steps, down_steps


def full_schedule(plan: TagPlan) -> List[TraversalStep]:
    """Reduction (up + down) followed by collection (up again): Algorithm 2's drive list."""
    up_steps, down_steps = reduction_schedule(plan)
    return up_steps + down_steps + up_steps
