"""Message-volume cost model for candidate join-tree rootings.

The model prices a rooted join tree by the number of BSP messages the
TAG-join vertex program will send while executing it (the paper's cost
measure, Section 2), split into the three traversal passes of Algorithm 2:

* **reduction, bottom-up + top-down** — every tree edge is traversed
  in each direction: tuples of the child relation message their attribute
  vertices, which forward one message per distinct value to the parent
  side (and symmetrically on the way down).  The root score prices each
  edge from the filtered cardinalities alone.  The real volume depends on
  the rooting and on the order of the walk: the bottom-up pass is a
  running semijoin, so every step carries only what the subtrees visited
  before left alive.  :func:`order_reduction` picks that order;
* **collection, bottom-up** — only child-to-parent messages are sent, and
  these carry joined rows (the heavy payloads), so the rooting decides how
  much row data travels.  Rooting at a large, already-filtered relation
  keeps its tuples stationary.

With ``num_workers > 1`` a hash partitioner scatters vertices uniformly,
so each message crosses a worker boundary with probability ``(W-1)/W``;
cross-worker messages are priced higher than intra-worker ones
(``CostModelConfig``), which is what makes the model partition-aware and
lets distributed configurations prefer rootings that move fewer rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..algebra.expressions import Expression
from ..algebra.logical import QuerySpec
from ..core.jointree import JoinTree
from ..tag.statistics import CatalogStatistics


@dataclass(frozen=True)
class CostModelConfig:
    """Unit prices and weights of the message cost model."""

    #: price of a message that stays on its worker
    intra_worker_message_cost: float = 1.0
    #: price of a message crossing a worker boundary (network traffic)
    cross_worker_message_cost: float = 4.0
    #: weight of collection-phase messages relative to reduction-phase ones
    #: (they carry joined rows instead of vertex ids)
    collection_payload_weight: float = 2.0


@dataclass
class PlanCost:
    """Estimated message volume of one rooted join tree."""

    root: str
    reduction_messages: float
    collection_messages: float
    cross_worker_fraction: float
    total: float
    per_edge: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, float]:
        return {
            "reduction_messages": self.reduction_messages,
            "collection_messages": self.collection_messages,
            "cross_worker_fraction": self.cross_worker_fraction,
            "total": self.total,
        }


class MessageCostModel:
    """Scores rooted join trees by estimated BSP message volume."""

    def __init__(
        self,
        statistics: CatalogStatistics,
        num_workers: int = 1,
        config: Optional[CostModelConfig] = None,
    ) -> None:
        self.statistics = statistics
        self.num_workers = max(1, num_workers)
        self.config = config or CostModelConfig()

    # ------------------------------------------------------------------
    @property
    def cross_worker_fraction(self) -> float:
        if self.num_workers <= 1:
            return 0.0
        return (self.num_workers - 1) / self.num_workers

    @property
    def unit_message_cost(self) -> float:
        """Expected price of one message under uniform hash partitioning."""
        fraction = self.cross_worker_fraction
        return (
            (1.0 - fraction) * self.config.intra_worker_message_cost
            + fraction * self.config.cross_worker_message_cost
        )

    # ------------------------------------------------------------------
    def estimated_rows(
        self, spec: QuerySpec, alias: str, filters: Dict[str, Sequence[Expression]]
    ) -> float:
        table = spec.alias_map()[alias]
        return max(1.0, self.statistics.estimated_rows(table, filters.get(alias, ())))

    def _edge_messages_towards(
        self,
        spec: QuerySpec,
        sender: str,
        sender_column: str,
        filters: Dict[str, Sequence[Expression]],
    ) -> float:
        """Messages flowing from ``sender``'s tuples through the shared attribute.

        Tuple vertices each send one message to their attribute vertex,
        and every active attribute vertex forwards one message per
        adjacent receiver tuple group — bounded by the column's distinct
        count and by the (filtered) sender cardinality.
        """
        table = spec.alias_map()[sender]
        rows = self.estimated_rows(spec, sender, filters)
        distinct = float(self.statistics.distinct_count(table, sender_column))
        return rows + min(distinct, rows)

    # ------------------------------------------------------------------
    def tree_cost(
        self,
        spec: QuerySpec,
        tree: JoinTree,
        filters: Optional[Dict[str, Sequence[Expression]]] = None,
    ) -> PlanCost:
        """Price one rooted join tree (reduction both ways, collection up)."""
        filters = filters or {}
        reduction = 0.0
        collection = 0.0
        per_edge: Dict[str, float] = {}
        for edge in tree.edges:
            up = self._edge_messages_towards(spec, edge.child, edge.child_column, filters)
            down = self._edge_messages_towards(spec, edge.parent, edge.parent_column, filters)
            reduction += up + down
            edge_collection = up * self.config.collection_payload_weight
            collection += edge_collection
            per_edge[f"{edge.child}->{edge.parent}"] = up + down + edge_collection
        total = (reduction + collection) * self.unit_message_cost
        return PlanCost(
            root=tree.root,
            reduction_messages=reduction,
            collection_messages=collection,
            cross_worker_fraction=self.cross_worker_fraction,
            total=total,
            per_edge=per_edge,
        )


def order_reduction(
    tree: JoinTree,
    spec: QuerySpec,
    statistics: CatalogStatistics,
    filters: Dict[str, Sequence[Expression]],
) -> Tuple[JoinTree, float]:
    """Order each alias's children for the cheapest bottom-up reduction.

    The bottom-up pass starts at the leaf reached through last children
    and visits an alias's other children last to first; as a running
    semijoin, a selective subtree visited early shrinks every later step.
    The walk is simulated per order.  Each alias keeps the share ``g`` of
    its tuples still alive, at the start leaf its filtered share ``f0 =
    est_rows / card``.  A move from X to Y sends ``alive_X = card_X * g_X``
    messages, which hit a share ``h = min(1, min(ndv_X, alive_X) /
    ndv_Y)`` of Y's join values.  On a first visit Y then receives
    ``card_Y * h`` messages and keeps ``g_Y = f0_Y * h``; on a return,
    ``card_Y * g_Y * h`` and ``g_Y * h``.  Each alias's child orders are
    searched exhaustively, root first, holding the others; ties keep the
    current order.  Returns the reordered tree and its estimated messages.
    """
    tables = spec.alias_map()
    card: Dict[str, float] = {}
    kept: Dict[str, float] = {}
    for alias in tree.parent:
        card[alias] = float(max(1, statistics.cardinality(tables[alias])))
        rows = max(1.0, statistics.estimated_rows(tables[alias], filters.get(alias, ())))
        kept[alias] = min(1.0, rows / card[alias])
    children: Dict[str, List[str]] = {alias: [] for alias in tree.parent}
    ndv: Dict[Tuple[str, str], int] = {}  # (alias, neighbour) -> NDV of the alias's column
    distinct = statistics.distinct_count
    for edge in tree.edges:
        children[edge.parent].append(edge.child)
        ndv[edge.child, edge.parent] = distinct(tables[edge.child], edge.child_column)
        ndv[edge.parent, edge.child] = distinct(tables[edge.parent], edge.parent_column)

    def up_pass_messages() -> float:
        alive_share: Dict[str, float] = {}
        total = 0.0

        def move(source: str, target: str) -> None:
            nonlocal total
            alive = card[source] * alive_share[source]
            hit = min(1.0, min(ndv[source, target], alive) / ndv[target, source])
            share = alive_share.get(target)  # None: a first visit reaches every tuple
            total += alive + card[target] * (1.0 if share is None else share) * hit
            alive_share[target] = (kept[target] if share is None else share) * hit

        def visit(alias: str, others: List[str]) -> None:
            for child in reversed(others):
                move(alias, child)
                visit(child, children[child])
                move(child, alias)

        path = [tree.root]
        while children[path[-1]]:
            path.append(children[path[-1]][-1])
        alive_share[path[-1]] = kept[path[-1]]
        for below, alias in zip(reversed(path), reversed(path[:-1])):
            visit(below, children[below][:-1])
            move(below, alias)
        visit(tree.root, children[tree.root][:-1])
        return total

    best = up_pass_messages()
    top_down = [tree.root]
    for alias in top_down:
        top_down.extend(children[alias])
    for alias in top_down:
        chosen = children[alias]
        # the first order is the current one; an alias of more than six
        # children is searched over its first 6! orders only
        for order in itertools.islice(itertools.permutations(chosen), 1, 720):
            children[alias] = list(order)
            cost = up_pass_messages()
            if cost < best * (1.0 - 1e-9):  # a tie, up to rounding, keeps the order
                best, chosen = cost, children[alias]
        children[alias] = chosen
    to_parent = {edge.child: edge for edge in tree.edges}
    edges = [to_parent[child] for alias in top_down for child in children[alias]]
    return replace(tree, edges=edges), best
