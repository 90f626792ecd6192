"""Cost-based root selection over the join-tree rootings of a query.

The GYO elimination (acyclic case) or BFS spanning tree (cyclic case)
fixes the join tree's *edge set*, and the catalog's exact NDVs fix each
edge's routing key; what remains free — and what the paper's
cost analysis shows matters — is the *rooting*, which decides the
collection-phase traversal.  The planner builds the tree once, re-roots it
at every candidate alias (re-rooting preserves edge variables and residual
coverage), scores each rooting with the message-volume model and returns
the cheapest, with deterministic alias-name tie-breaking so plans are
stable across runs.

The planner abstains (returns ``None``) when the rooting is dictated by
local aggregation (the GROUP BY attribute must root the plan, Section 7)
or when the query has fewer than two relations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..algebra.expressions import Expression
from ..algebra.logical import QuerySpec
from ..core.compiler import choose_group_by_root
from ..core.jointree import build_join_tree, enumerate_rootings
from ..relational.catalog import Catalog
from ..tag.statistics import CatalogStatistics
from .cost import MessageCostModel, PlanCost


@dataclass
class PlanChoice:
    """The planner's verdict for one query: the chosen root and its cost."""

    root: str
    cost: PlanCost
    considered: List[Tuple[str, float]] = field(default_factory=list)

    @property
    def candidate_count(self) -> int:
        return len(self.considered)


class CostBasedPlanner:
    """Chooses join-tree roots by estimated message volume.

    Costs read the catalog's live statistics view, so a planner can
    outlive any number of writes and catalog reloads.
    """

    def __init__(
        self,
        catalog: Catalog,
        num_workers: int = 1,
        max_candidates: int = 12,
    ) -> None:
        self.catalog = catalog
        self.num_workers = num_workers
        self.max_candidates = max(1, max_candidates)
        self.statistics = CatalogStatistics(catalog)

    def cost_model(self) -> MessageCostModel:
        return MessageCostModel(self.statistics, num_workers=self.num_workers)

    # ------------------------------------------------------------------
    def choose_root(
        self,
        spec: QuerySpec,
        extra_filters: Optional[Dict[str, List[Expression]]] = None,
    ) -> Optional[PlanChoice]:
        """The cheapest rooting of ``spec``'s join tree, or None to abstain."""
        aliases = spec.aliases()
        if len(aliases) < 2 or not spec.is_connected():
            return None
        if choose_group_by_root(spec, self.catalog) is not None:
            return None  # local aggregation dictates the root

        filters: Dict[str, Sequence[Expression]] = {}
        for alias in aliases:
            combined = list(spec.filters_for(alias))
            if extra_filters and alias in extra_filters:
                combined.extend(extra_filters[alias])
            if combined:
                filters[alias] = combined

        model = self.cost_model()
        # the compiler builds its tree from the same catalog, so the rooting
        # chosen here is costed over the edges (and routing keys) it compiles
        base_tree = build_join_tree(spec, catalog=self.catalog)
        rootings = {tree.root: tree for tree in enumerate_rootings(base_tree)}
        candidates = self._candidate_roots(spec, aliases, model, filters)

        best: Optional[PlanCost] = None
        considered: List[Tuple[str, float]] = []
        for alias in candidates:
            tree = rootings[alias]
            cost = model.tree_cost(spec, tree, filters)
            considered.append((alias, cost.total))
            if best is None or (cost.total, cost.root) < (best.total, best.root):
                best = cost
        if best is None:
            return None
        return PlanChoice(root=best.root, cost=best, considered=considered)

    # ------------------------------------------------------------------
    def _candidate_roots(
        self,
        spec: QuerySpec,
        aliases: Sequence[str],
        model: MessageCostModel,
        filters: Dict[str, Sequence[Expression]],
    ) -> List[str]:
        """Candidate rooting aliases, largest (filtered) relations first.

        Large relations make good roots — their rows stay put during
        collection — so when the query has more aliases than
        ``max_candidates``, the biggest ones are kept.
        """
        ranked = sorted(
            aliases,
            key=lambda alias: (-model.estimated_rows(spec, alias, filters), alias),
        )
        return ranked[: self.max_candidates]
