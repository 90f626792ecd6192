"""Join trees (GHD with single-relation bags) for TAG plans.

For acyclic queries the GYO elimination order yields a join tree directly
(paper Section 5.1).  For cyclic queries we follow the paper's two-step
TAG-join strategy in a simplified but sound form: a spanning tree of the
join graph drives the traversal, and the join conditions not represented
by spanning-tree edges ("residual" conditions, e.g. the cycle-closing edge
of TPC-H Q5) are checked during collection.  Pure cycle queries are
additionally recognised upstream and dispatched to the worst-case-optimal
algorithm of Section 6 (see :mod:`repro.core.cyclic`).

A tree edge whose two aliases share several join variables (a multi-key
join such as TPC-H Q9's PARTSUPP ⋈ LINEITEM on PARTKEY and SUPPKEY)
routes on the variable with the highest NDV — the one whose attribute
vertices split the join into the most buckets; the others become
residual conditions too.  The compiler checks every residual at the first
collection merge whose row holds all of its aliases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..algebra.logical import JoinCondition, QuerySpec
from ..relational.catalog import Catalog
from .hypergraph import Hypergraph, JoinVariable, alias_adjacency, build_hypergraph


class JoinTreeError(ValueError):
    """Raised when a join tree cannot be constructed."""


@dataclass
class TreeEdge:
    """A join-tree edge ``child -- parent`` connected through ``variable``."""

    child: str
    parent: str
    variable: JoinVariable

    @property
    def child_column(self) -> str:
        column = self.variable.column_of(self.child)
        if column is None:
            raise JoinTreeError(
                f"variable {self.variable.name} has no column for alias {self.child!r}"
            )
        return column

    @property
    def parent_column(self) -> str:
        column = self.variable.column_of(self.parent)
        if column is None:
            raise JoinTreeError(
                f"variable {self.variable.name} has no column for alias {self.parent!r}"
            )
        return column


@dataclass
class JoinTree:
    """A rooted join tree over the aliases of a query."""

    root: str
    parent: Dict[str, Optional[str]]
    edges: List[TreeEdge]
    residual_conditions: List[JoinCondition] = field(default_factory=list)
    is_acyclic_query: bool = True

    # ------------------------------------------------------------------
    def children(self, alias: str) -> List[str]:
        return [edge.child for edge in self.edges if edge.parent == alias]

    def edge_to_parent(self, alias: str) -> Optional[TreeEdge]:
        for edge in self.edges:
            if edge.child == alias:
                return edge
        return None

    def aliases(self) -> List[str]:
        return list(self.parent)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rendered = ", ".join(
            f"{edge.child}-[{edge.variable.name}]->{edge.parent}" for edge in self.edges
        )
        return f"JoinTree(root={self.root}, {rendered})"


def build_join_tree(
    spec: QuerySpec,
    hypergraph: Optional[Hypergraph] = None,
    preferred_root: Optional[str] = None,
    catalog: Optional[Catalog] = None,
) -> JoinTree:
    """Build a join tree for (the connected join graph of) ``spec``.

    Acyclic queries get a GYO-derived join tree; cyclic queries get a
    BFS spanning tree plus residual conditions.  ``preferred_root`` (an
    alias) re-roots the tree, which the executor uses to place the
    collection phase's final values where aggregation wants them.  With a
    ``catalog``, each edge routes on its highest-NDV join variable (see
    :func:`_choose_variable`); without one, on the first condition written.
    The planner and the compiler pass the same catalog, so the tree the
    planner costs is the tree that gets compiled.
    """
    hypergraph = hypergraph or build_hypergraph(spec)
    aliases = spec.aliases()
    if not aliases:
        raise JoinTreeError("query has no tables")
    if len(aliases) == 1:
        alias = aliases[0]
        return JoinTree(root=alias, parent={alias: None}, edges=[], residual_conditions=[])

    acyclic, elimination = hypergraph.gyo_reduction()
    if acyclic:
        tree = _tree_from_elimination(spec, hypergraph, elimination, catalog)
    else:
        tree = _spanning_tree(spec, hypergraph, catalog)
        tree.is_acyclic_query = False
    if preferred_root and preferred_root in tree.parent and preferred_root != tree.root:
        tree = reroot(tree, preferred_root)
    tree.residual_conditions = _uncovered_conditions(spec, tree)
    return tree


# ----------------------------------------------------------------------
# acyclic case: GYO elimination order -> join tree
# ----------------------------------------------------------------------
def _tree_from_elimination(
    spec: QuerySpec,
    hypergraph: Hypergraph,
    elimination: Sequence[Tuple[str, Optional[str]]],
    catalog: Optional[Catalog],
) -> JoinTree:
    parent: Dict[str, Optional[str]] = {}
    edges: List[TreeEdge] = []
    root = None
    for alias, witness in elimination:
        parent[alias] = witness
        if witness is None:
            root = alias
            continue
        variable = _choose_variable(spec, hypergraph, alias, witness, catalog)
        if variable is not None:
            edges.append(TreeEdge(child=alias, parent=witness, variable=variable))
        else:
            # ear with no shared variable (cross-product inside a "connected"
            # component should not happen; guard anyway)
            raise JoinTreeError(
                f"no shared join variable between {alias!r} and its witness {witness!r}"
            )
    if root is None:
        raise JoinTreeError("GYO elimination produced no root")
    return JoinTree(root=root, parent=parent, edges=edges)


# ----------------------------------------------------------------------
# cyclic case: spanning tree + residual conditions
# ----------------------------------------------------------------------
def _spanning_tree(
    spec: QuerySpec, hypergraph: Hypergraph, catalog: Optional[Catalog]
) -> JoinTree:
    adjacency = alias_adjacency(spec)
    aliases = spec.aliases()
    root = aliases[0]
    parent: Dict[str, Optional[str]] = {root: None}
    edges: List[TreeEdge] = []
    frontier = [root]
    while frontier:
        current = frontier.pop(0)
        for neighbour in sorted(adjacency[current]):
            if neighbour in parent:
                continue
            variable = _choose_variable(spec, hypergraph, neighbour, current, catalog)
            if variable is None:
                continue
            parent[neighbour] = current
            edges.append(TreeEdge(child=neighbour, parent=current, variable=variable))
            frontier.append(neighbour)
    missing = [alias for alias in aliases if alias not in parent]
    if missing:
        raise JoinTreeError(
            f"join graph is disconnected; aliases {missing} unreachable from {root!r} "
            "(split the query into connected components first)"
        )
    return JoinTree(root=root, parent=parent, edges=edges)


def _choose_variable(
    spec: QuerySpec,
    hypergraph: Hypergraph,
    child: str,
    parent: str,
    catalog: Optional[Catalog],
) -> Optional[JoinVariable]:
    """Pick the join variable the tree edge ``child -- parent`` routes on.

    The candidates are the variables backed by an explicit join condition
    between the two aliases, in condition order, then any other variable
    both hyperedges share (an equality the query implies), by name.  With
    a ``catalog`` the candidate with the highest :func:`routing_ndv` wins
    and ties keep candidate order; without one the first candidate does.
    """
    direct: List[JoinVariable] = []
    for condition in spec.join_conditions:
        if {condition.left_alias, condition.right_alias} == {child, parent}:
            for variable in hypergraph.variables:
                if (
                    variable.column_of(child) is not None
                    and variable.column_of(parent) is not None
                    and (condition.left_alias, condition.left_column) in variable.members
                ):
                    direct.append(variable)
    candidates = direct + sorted(
        (
            variable
            for variable in hypergraph.shared_variables(child, parent)
            if variable not in direct
            and variable.column_of(child) is not None
            and variable.column_of(parent) is not None
        ),
        key=lambda variable: variable.name,
    )
    if not candidates:
        return None
    if catalog is None or len(candidates) == 1:
        return candidates[0]
    alias_tables = spec.alias_map()
    # max() keeps the first of equal keys: ties keep candidate order
    return max(
        candidates,
        key=lambda variable: routing_ndv(catalog, alias_tables, variable, (child, parent)),
    )


def routing_ndv(
    catalog: Catalog,
    alias_tables: Dict[str, str],
    variable: JoinVariable,
    aliases: Sequence[str],
) -> int:
    """How many attribute vertices can route ``variable`` between ``aliases``.

    The minimum over the aliases of the column's exact distinct count
    (``Relation.distinct_count``, O(1) from the encoded store); a column
    without attribute vertices (floats, long text) routes nothing.
    """
    counts = []
    for alias in aliases:
        relation = catalog.relation(alias_tables[alias])
        column = variable.column_of(alias)
        if not relation.schema.column(column).materialise_as_vertex:
            return 0
        counts.append(relation.distinct_count(column))
    return min(counts)


# ----------------------------------------------------------------------
# rerooting & coverage
# ----------------------------------------------------------------------
def reroot(tree: JoinTree, new_root: str) -> JoinTree:
    """Re-root a join tree at ``new_root`` (edges keep their variables)."""
    if new_root not in tree.parent:
        raise JoinTreeError(f"unknown alias {new_root!r}")
    adjacency: Dict[str, List[TreeEdge]] = {alias: [] for alias in tree.parent}
    for edge in tree.edges:
        adjacency[edge.child].append(edge)
        adjacency[edge.parent].append(edge)
    parent: Dict[str, Optional[str]] = {new_root: None}
    edges: List[TreeEdge] = []
    frontier = [new_root]
    visited = {new_root}
    while frontier:
        current = frontier.pop(0)
        for edge in adjacency[current]:
            other = edge.parent if edge.child == current else edge.child
            if other in visited:
                continue
            visited.add(other)
            parent[other] = current
            edges.append(TreeEdge(child=other, parent=current, variable=edge.variable))
            frontier.append(other)
    return JoinTree(
        root=new_root,
        parent=parent,
        edges=edges,
        residual_conditions=list(tree.residual_conditions),
        is_acyclic_query=tree.is_acyclic_query,
    )


def enumerate_rootings(tree: JoinTree) -> List[JoinTree]:
    """Every rooting of ``tree``, in deterministic (alias-sorted) order.

    Re-rooting preserves the edge set, edge variables and residual-condition
    coverage, so each returned tree evaluates the same query; only the
    traversal (and therefore the message volume) differs.  This is the
    search space of :class:`repro.planner.planner.CostBasedPlanner`.
    """
    return [
        tree if alias == tree.root else reroot(tree, alias)
        for alias in sorted(tree.parent)
    ]


def _uncovered_conditions(spec: QuerySpec, tree: JoinTree) -> List[JoinCondition]:
    """Join conditions not enforced by the tree traversal.

    A condition ``a1.c1 = a2.c2`` (with join variable *v*) is enforced when
    ``a1`` and ``a2`` are connected in the subgraph of tree edges whose
    chosen variable is *v* (equality then holds transitively through the
    shared attribute vertices) and ``c1`` / ``c2`` are the columns those
    edges route on — a variable holding two columns of one alias routes on
    only one of them.  Everything else — the cycle-closing edge of a cyclic
    query, the non-routing keys of a multi-key edge — is checked by the
    compiled fragment at the first collection merge whose row holds both
    aliases.
    """
    residual: List[JoinCondition] = []
    for condition in spec.join_conditions:
        variable_edges = [
            edge
            for edge in tree.edges
            if (condition.left_alias, condition.left_column) in edge.variable.members
            and (condition.right_alias, condition.right_column) in edge.variable.members
        ]
        variable = variable_edges[0].variable if variable_edges else None
        if variable is not None and (
            variable.column_of(condition.left_alias) != condition.left_column
            or variable.column_of(condition.right_alias) != condition.right_column
        ):
            # the variable holds another column of one of the aliases, and
            # its edges route on that column, not on this condition's
            residual.append(condition)
            continue
        adjacency: Dict[str, Set[str]] = {}
        for edge in variable_edges:
            adjacency.setdefault(edge.child, set()).add(edge.parent)
            adjacency.setdefault(edge.parent, set()).add(edge.child)
        if _connected(adjacency, condition.left_alias, condition.right_alias):
            continue
        residual.append(condition)
    return residual


def _connected(adjacency: Dict[str, Set[str]], start: str, goal: str) -> bool:
    if start == goal:
        return True
    if start not in adjacency:
        return False
    seen = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for neighbour in adjacency.get(current, ()):
            if neighbour == goal:
                return True
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return False
