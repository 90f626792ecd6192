"""Query hypergraphs, acyclicity, fractional edge covers and the AGM bound.

A join query is viewed as a hypergraph whose vertices are *join variables*
(equivalence classes of ``alias.column`` pairs connected by equi-join
conditions) and whose hyperedges are the relation occurrences (aliases),
each containing the join variables it mentions.  This module provides:

* construction of the hypergraph from a :class:`~repro.algebra.logical.QuerySpec`;
* the GYO ear-removal test for (alpha-)acyclicity;
* fractional edge covers via linear programming and the AGM bound (paper
  Section 6.4.1).  Nothing in the engines solves the LP — the cyclic
  algorithm (:mod:`repro.core.cyclic`) splits on theta = sqrt(IN) instead —
  so scipy is imported on the first solve, not when this module loads,
  and a process that never asks for a cover never pays for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from ..algebra.logical import QuerySpec


class HypergraphError(ValueError):
    """Raised for malformed hypergraphs (e.g. unknown aliases)."""


@dataclass(frozen=True)
class JoinVariable:
    """An equivalence class of ``(alias, column)`` pairs joined by equality.

    The TAG plan creates one attribute node per join variable; in the TAG
    graph a join variable is realised by the attribute vertices shared by
    the participating columns.
    """

    members: FrozenSet[Tuple[str, str]]

    @property
    def name(self) -> str:
        """Stable display name: the lexicographically first member."""
        alias, column = min(self.members)
        return f"{alias}.{column}"

    def column_of(self, alias: str) -> Optional[str]:
        """The column of ``alias`` belonging to this variable (None if absent).

        When the variable holds several columns of ``alias`` (``a.X = b.K
        AND a.Y = b.K``), the first by name: the one a tree edge routes on.
        """
        columns = [column for member, column in self.members if member == alias]
        return min(columns, default=None)

    def aliases(self) -> Set[str]:
        return {alias for alias, _ in self.members}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Var({self.name}: {sorted(self.members)})"


class _UnionFind:
    """Union-find over (alias, column) pairs."""

    def __init__(self) -> None:
        self._parent: Dict[Tuple[str, str], Tuple[str, str]] = {}

    def find(self, item: Tuple[str, str]) -> Tuple[str, str]:
        parent = self._parent.setdefault(item, item)
        if parent == item:
            return item
        root = self.find(parent)
        self._parent[item] = root
        return root

    def union(self, left: Tuple[str, str], right: Tuple[str, str]) -> None:
        left_root, right_root = self.find(left), self.find(right)
        if left_root != right_root:
            self._parent[right_root] = left_root

    def groups(self) -> List[Set[Tuple[str, str]]]:
        by_root: Dict[Tuple[str, str], Set[Tuple[str, str]]] = {}
        for item in self._parent:
            by_root.setdefault(self.find(item), set()).add(item)
        return list(by_root.values())


@dataclass
class Hypergraph:
    """Hypergraph of a join query: variables plus alias -> variable-set edges."""

    variables: List[JoinVariable] = field(default_factory=list)
    edges: Dict[str, Set[JoinVariable]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def aliases(self) -> List[str]:
        return list(self.edges)

    def variables_of(self, alias: str) -> Set[JoinVariable]:
        try:
            return self.edges[alias]
        except KeyError:
            raise HypergraphError(f"unknown alias {alias!r}") from None

    def shared_variables(self, left_alias: str, right_alias: str) -> Set[JoinVariable]:
        return self.variables_of(left_alias) & self.variables_of(right_alias)

    # ------------------------------------------------------------------
    # acyclicity: GYO ear removal
    # ------------------------------------------------------------------
    def gyo_reduction(self) -> Tuple[bool, List[Tuple[str, Optional[str]]]]:
        """Run the GYO ear-removal algorithm.

        Returns ``(is_acyclic, elimination_order)`` where the elimination
        order is a list of ``(removed_alias, witness_alias)`` pairs; the
        witness is the hyperedge into which the ear was absorbed (None for
        the final remaining edge).  The elimination order doubles as a join
        tree: each ear's parent is its witness.
        """
        remaining: Dict[str, Set[JoinVariable]] = {
            alias: set(variables) for alias, variables in self.edges.items()
        }
        order: List[Tuple[str, Optional[str]]] = []
        changed = True
        while changed and len(remaining) > 1:
            changed = False
            for alias in list(remaining):
                variables = remaining[alias]
                # isolated variables (in no other edge) can be ignored
                exclusive = {
                    variable
                    for variable in variables
                    if all(
                        variable not in other_vars
                        for other_alias, other_vars in remaining.items()
                        if other_alias != alias
                    )
                }
                shared = variables - exclusive
                witness = None
                if not shared:
                    # edge disconnected from the rest: it is trivially an ear
                    witness_candidates = [a for a in remaining if a != alias]
                    witness = witness_candidates[0] if witness_candidates else None
                else:
                    for other_alias, other_vars in remaining.items():
                        if other_alias == alias:
                            continue
                        if shared <= other_vars:
                            witness = other_alias
                            break
                    if witness is None:
                        continue
                order.append((alias, witness))
                del remaining[alias]
                changed = True
                break
        if len(remaining) == 1:
            last_alias = next(iter(remaining))
            order.append((last_alias, None))
            return True, order
        return False, order

    def is_acyclic(self) -> bool:
        acyclic, _ = self.gyo_reduction()
        return acyclic

    # ------------------------------------------------------------------
    # fractional edge cover / AGM bound (paper Section 6.4.1)
    # ------------------------------------------------------------------
    def fractional_edge_cover(self) -> Dict[str, float]:
        """Minimum fractional edge cover weights via linear programming.

        Minimise sum of weights subject to: for every join variable, the
        total weight of hyperedges containing it is >= 1, weights >= 0.
        """
        from scipy.optimize import linprog  # ~40 MiB: loaded on the first solve only

        aliases = self.aliases
        if not aliases:
            return {}
        if not self.variables:
            # no join variables: each relation must still be "covered" once
            return {alias: 1.0 for alias in aliases}
        costs = np.ones(len(aliases))
        constraint_matrix = []
        for variable in self.variables:
            row = [-1.0 if variable in self.edges[alias] else 0.0 for alias in aliases]
            constraint_matrix.append(row)
        upper_bounds = [-1.0] * len(self.variables)
        result = linprog(
            costs,
            A_ub=np.array(constraint_matrix),
            b_ub=np.array(upper_bounds),
            bounds=[(0, None)] * len(aliases),
            method="highs",
        )
        if not result.success:
            raise HypergraphError(f"edge cover LP failed: {result.message}")
        return {alias: float(weight) for alias, weight in zip(aliases, result.x)}

    def fractional_edge_cover_number(self) -> float:
        return sum(self.fractional_edge_cover().values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Hypergraph({len(self.edges)} edges, {len(self.variables)} variables)"


def build_hypergraph(spec: QuerySpec) -> Hypergraph:
    """Construct the query hypergraph of a :class:`QuerySpec`.

    Join variables are the equivalence classes induced by the equi-join
    conditions; every alias becomes a hyperedge containing the variables of
    its columns that participate in some join condition.
    """
    union_find = _UnionFind()
    for condition in spec.join_conditions:
        left = (condition.left_alias, condition.left_column)
        right = (condition.right_alias, condition.right_column)
        union_find.union(left, right)
    variables = [JoinVariable(frozenset(group)) for group in union_find.groups()]
    variables.sort(key=lambda variable: variable.name)

    edges: Dict[str, Set[JoinVariable]] = {alias: set() for alias in spec.aliases()}
    for variable in variables:
        for alias, _column in variable.members:
            if alias in edges:
                edges[alias].add(variable)
    return Hypergraph(variables=variables, edges=edges)


def alias_adjacency(spec: QuerySpec) -> Dict[str, Set[str]]:
    """Adjacency of the *join graph* over aliases (one node per alias)."""
    adjacency: Dict[str, Set[str]] = {alias: set() for alias in spec.aliases()}
    for condition in spec.join_conditions:
        adjacency[condition.left_alias].add(condition.right_alias)
        adjacency[condition.right_alias].add(condition.left_alias)
    return adjacency


def connected_components(spec: QuerySpec) -> List[List[str]]:
    """Connected components of the join graph (each needs a Cartesian product)."""
    adjacency = alias_adjacency(spec)
    seen: Set[str] = set()
    components: List[List[str]] = []
    for alias in spec.aliases():
        if alias in seen:
            continue
        component = []
        frontier = [alias]
        seen.add(alias)
        while frontier:
            current = frontier.pop()
            component.append(current)
            for neighbour in adjacency[current]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        components.append(sorted(component))
    return components


def detect_simple_cycle(spec: QuerySpec) -> Optional[List[str]]:
    """If the join graph is one simple cycle over all aliases, return it in order.

    Used to dispatch pure cycle queries (triangle, n-way cycle) to the
    worst-case-optimal algorithm of Section 6.1/6.2.  Returns None when the
    query is not a single simple cycle.
    """
    adjacency = alias_adjacency(spec)
    aliases = spec.aliases()
    if len(aliases) < 3:
        return None
    if any(len(neighbours) != 2 for neighbours in adjacency.values()):
        return None
    # walk the cycle
    start = aliases[0]
    order = [start]
    previous, current = None, start
    while True:
        neighbours = [n for n in adjacency[current] if n != previous]
        if not neighbours:
            return None
        next_alias = neighbours[0]
        if next_alias == start:
            break
        order.append(next_alias)
        previous, current = current, next_alias
        if len(order) > len(aliases):
            return None
    return order if len(order) == len(aliases) else None
