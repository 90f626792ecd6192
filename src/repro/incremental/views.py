"""Materialized views maintained by seminaïve delta re-runs.

A view registered through :meth:`repro.api.Database.materialize` stores
its result rows.  When a delta of new tuples lands, re-running the whole
query would scan everything again; instead the classic seminaïve
expansion (after *Modular Materialisation of Datalog Programs*) rewrites
the delta of an n-way join as a sum of n terms, each touching the new
tuples of exactly one alias::

    Δ(R₁ ⋈ … ⋈ Rₙ) = Σᵢ  old(R₁) ⋈ … ⋈ old(Rᵢ₋₁) ⋈ Δ(Rᵢ) ⋈ full(Rᵢ₊₁) ⋈ … ⋈ full(Rₙ)

(the old/full split prevents double counting when several aliases — or
the same table self-joined — grew in one write).  Tuple vertex ids encode
their 1-based insertion index, so "old", "Δ" and "full" are per-alias
*index windows*; each term compiles to the view's cached plan fragment
run with :class:`~repro.exec.program.TagJoinKernel`'s
``alias_ranges`` windows over only the relevant vertices — iterated
supersteps on the BSP engine, touching nothing outside the delta's join
neighbourhood.

Deletes maintain the same views by the mirrored telescoping (see
:func:`refresh_view_delete`): each term pins one alias to exactly the
deleted tuple vertices via sparse membership sets and bag-subtracts the
derived rows from the stored result — counting-based maintenance, run
against the pre-delete graph.

Views whose delta isn't expressible this way (aggregates, GROUP BY,
subqueries, outer joins, a disconnected join graph) fall back to a
recompute on write; the database reports them separately
(``views_recomputed`` vs ``views_refreshed``).  DISTINCT views keep the
*pre-distinct bag* — appends to a bag are local, while appends to a
deduplicated set would need to know the multiplicities — and deduplicate
at serve time.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..algebra.logical import QuerySpec
from ..algebra.parameters import spec_parameters
from ..bsp.engine import BSPEngine
from ..bsp.partition import SinglePartitioner
from ..relational.catalog import Catalog
from ..tag.encoder import TagGraph

__all__ = [
    "ViewError",
    "MaterializedView",
    "view_refresh_mode",
    "refresh_view_delta",
    "refresh_view_delete",
    "run_view_fragment",
]

#: Generous superstep budget for view fragments (a tree fragment needs
#: 2·depth + 1 supersteps; this bounds runaway plans, not normal ones).
VIEW_MAX_SUPERSTEPS = 10_000


class ViewError(ValueError):
    """Raised for queries that cannot back a materialized view."""


def view_refresh_mode(spec: QuerySpec) -> str:
    """``"delta"`` if the spec supports seminaïve windows, else ``"recompute"``.

    Parameterized queries are rejected outright: a view is one stored
    result set, while a parameterized query is a family of them.
    """
    if spec_parameters(spec):
        raise ViewError(
            "parameterized queries cannot be materialized; "
            "bind the parameters into the SQL first"
        )
    if not spec.tables:
        raise ViewError("a materialized view needs at least one table")
    if spec.subqueries or spec.aggregates or spec.group_by or spec.outer_joins:
        return "recompute"
    if not spec.is_connected():
        return "recompute"
    return "delta"


@dataclass
class MaterializedView:
    """One registered view: its query, stored rows, and refresh bookkeeping."""

    name: str
    sql: str
    spec: QuerySpec
    columns: List[str]
    mode: str  # "delta" | "recompute"
    #: for delta views: the pre-DISTINCT bag; for recompute views: the
    #: final rows as the executor produced them
    rows: List[Dict[str, Any]] = field(default_factory=list)
    #: per-relation tuple counts the stored rows reflect
    base_counts: Dict[str, int] = field(default_factory=dict)
    refresh_count: int = 0
    recompute_count: int = 0
    last_refresh_seconds: float = 0.0
    last_delta_rows: int = 0
    _compiled: Any = None
    _compiled_schema_version: int = -1

    # ------------------------------------------------------------------
    def result_rows(self) -> List[Dict[str, Any]]:
        """The rows the view serves (deduplicated here for DISTINCT)."""
        if self.mode == "delta" and self.spec.distinct:
            from ..core import operations as ops

            return ops.deduplicate(self.rows)
        return list(self.rows)

    def compiled_for(self, catalog: Catalog) -> Any:
        """The view's compiled fragment, recompiled only on schema change."""
        if self._compiled is None or self._compiled_schema_version != catalog.schema_version:
            from ..core.compiler import compile_fragment

            self._compiled = compile_fragment(self.spec, catalog)
            self._compiled_schema_version = catalog.schema_version
        return self._compiled

    def info(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "sql": self.sql,
            "mode": self.mode,
            "rows": len(self.rows),
            "distinct": self.spec.distinct,
            "refresh_count": self.refresh_count,
            "recompute_count": self.recompute_count,
            "last_refresh_seconds": round(self.last_refresh_seconds, 6),
            "last_delta_rows": self.last_delta_rows,
        }


# ----------------------------------------------------------------------
# fragment execution with per-alias windows
# ----------------------------------------------------------------------
def run_view_fragment(
    graph: TagGraph,
    compiled: Any,
    alias_ranges: Optional[Dict[str, Tuple[int, Optional[int]]]] = None,
    alias_members: Optional[Dict[str, Set[int]]] = None,
    alias_excluded: Optional[Dict[str, Set[int]]] = None,
) -> List[Dict[str, Any]]:
    """Run a compiled NONE-aggregation fragment, windowed per alias."""
    from ..exec.program import TagJoinKernel
    from ..storage.rewrite import decode_output_rows

    program = TagJoinKernel(
        graph,
        compiled.config,
        compiled.slotted,
        compiled.vectorized,
        alias_ranges=alias_ranges,
        alias_members=alias_members,
        alias_excluded=alias_excluded,
    )
    engine = BSPEngine(graph, SinglePartitioner(), max_supersteps=VIEW_MAX_SUPERSTEPS)
    engine.run(program)
    # view rows are served directly, so this is their result boundary:
    # the one dict per row, and pass-through codes decoded exactly once
    columns = compiled.slotted.output_columns
    rows = [dict(zip(columns, values)) for values in program.result_tuples()]
    return decode_output_rows(rows, compiled.output_decoders)


def refresh_view_delta(
    view: MaterializedView,
    graph: TagGraph,
    catalog: Catalog,
    changed: Dict[str, Tuple[int, int]],
) -> int:
    """Fold a write's delta into ``view.rows``; returns rows appended.

    Args:
        changed: ``relation -> (old_count, new_count)`` for every base
            relation that actually received rows in this write.  Counts
            are *physical* (tombstones included): tuple vertex indexes
            equal physical position + 1, so windows over vertex indexes
            only line up with physical coordinates.  Relations of the
            view absent from ``changed`` are treated as unchanged
            (old == full).
    """
    started = time.perf_counter()
    compiled = view.compiled_for(catalog)
    aliases = [(table_ref.alias, table_ref.table) for table_ref in view.spec.tables]
    appended = 0
    for i, (alias_i, table_i) in enumerate(aliases):
        window = changed.get(table_i)
        if window is None:
            continue  # Δᵢ is empty — the whole term vanishes
        ranges: Dict[str, Tuple[int, Optional[int]]] = {alias_i: (window[0], None)}
        for alias_j, table_j in aliases[:i]:
            old_count = changed.get(table_j)
            if old_count is not None:
                ranges[alias_j] = (0, old_count[0])
        delta_rows = run_view_fragment(graph, compiled, ranges)
        view.rows.extend(delta_rows)
        appended += len(delta_rows)

    for _alias, table in aliases:
        # physical, not live: base_counts mirror the tuple-counter space
        view.base_counts[table] = catalog.relation(table).physical_count
    view.refresh_count += 1
    view.last_delta_rows = appended
    view.last_refresh_seconds = time.perf_counter() - started
    return appended


def refresh_view_delete(
    view: MaterializedView,
    graph: TagGraph,
    catalog: Catalog,
    deleted: Dict[str, Set[int]],
) -> int:
    """Fold a delete out of ``view.rows``; returns rows removed.

    The deletion mirror of :func:`refresh_view_delta`.  Writing the
    post-delete state as ``(R₁−D₁) ⋈ … ⋈ (Rₙ−Dₙ)``, the removed result
    rows telescope exactly::

        old − new = Σᵢ (R₁−D₁) ⋈ … ⋈ (Rᵢ₋₁−Dᵢ₋₁) ⋈ Dᵢ ⋈ Rᵢ₊₁ ⋈ … ⋈ Rₙ

    Term *i* pins alias *i* to exactly the deleted tuples (a sparse
    *membership* set, not a window) and keeps earlier aliases on the
    already-deleted side via *exclusion* sets.  Membership and exclusion
    are evaluated per (vertex, alias) pair by the vertex program, so the
    identity holds even when the deleted table appears under several
    aliases (self-joins) — no DRed over-delete/re-derive pass is needed.

    MUST run against the *pre-delete* graph: terms with ``j > i`` read
    the full relations, deleted vertices included.

    Args:
        deleted: ``relation -> deleted tuple vertex indexes`` (1-based,
            i.e. physical position + 1) for every relation losing rows.
    """
    started = time.perf_counter()
    compiled = view.compiled_for(catalog)
    aliases = [(table_ref.alias, table_ref.table) for table_ref in view.spec.tables]
    removed_rows: List[Dict[str, Any]] = []
    for i, (alias_i, table_i) in enumerate(aliases):
        dead = deleted.get(table_i)
        if not dead:
            continue  # Dᵢ is empty — the whole term vanishes
        members = {alias_i: set(dead)}
        excluded: Dict[str, Set[int]] = {}
        for alias_j, table_j in aliases[:i]:
            dead_j = deleted.get(table_j)
            if dead_j:
                excluded[alias_j] = set(dead_j)
        removed_rows.extend(
            run_view_fragment(
                graph, compiled, alias_members=members, alias_excluded=excluded
            )
        )
    removed = len(removed_rows)
    if removed:
        view.rows = _bag_subtract(
            view.rows, removed_rows, compiled.slotted.output_columns
        )
    for _alias, table in aliases:
        view.base_counts[table] = catalog.relation(table).physical_count
    view.refresh_count += 1
    view.last_delta_rows = removed
    view.last_refresh_seconds = time.perf_counter() - started
    return removed


def _bag_subtract(
    rows: List[Dict[str, Any]], removed: List[Dict[str, Any]], columns: Sequence[str]
) -> List[Dict[str, Any]]:
    """``rows`` minus ``removed`` with bag (multiplicity) semantics.

    Rows are identified by their values in ``columns`` order (the view's
    compiled output columns, which every stored row carries).
    """
    key = itemgetter(*columns)
    pending = Counter(map(key, removed))
    outstanding = len(removed)
    kept: List[Dict[str, Any]] = []
    for position, row in enumerate(rows):
        if not outstanding:
            kept.extend(rows[position:])  # nothing left to remove: one slice
            break
        row_key = key(row)
        if pending.get(row_key, 0) > 0:
            pending[row_key] -= 1
            outstanding -= 1
        else:
            kept.append(row)
    return kept
