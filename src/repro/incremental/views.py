"""Materialized views maintained by one signed seminaïve delta.

A view registered through :meth:`repro.api.Database.materialize` stores
its result.  Re-running the whole query per write would scan everything
again.  Instead, the TAG encoding gives every tuple its own vertex, so a
write is a set ``Xᵢ`` of tuple vertices per relation, and the counting /
seminaïve expansion (after *Modular Materialisation of Datalog
Programs*) telescopes the change of an n-way join into n terms, each
touching the written tuples of exactly one alias::

    Δ(R₁ ⋈ … ⋈ Rₙ) = ±Σᵢ (R₁−X₁) ⋈ … ⋈ (Rᵢ₋₁−Xᵢ₋₁) ⋈ Xᵢ ⋈ Rᵢ₊₁ ⋈ … ⋈ Rₙ

evaluated on a graph that holds ``X``.  For an insert the ``Rᵢ`` are the
post-insert relations and the sum is added; for a delete they are the
pre-delete relations and the sum is removed.  The ``Rⱼ−Xⱼ`` split
prevents double counting when several aliases — or the same table
self-joined — were written at once.

:func:`refresh_view` is that identity, once.  Term *i* runs the view's
cached plan fragment with :class:`~repro.exec.program.TagJoinKernel`'s
per-alias tuple-index sets: alias *i* is pinned to ``Xᵢ`` by a *member*
set, earlier aliases over a touched relation drop ``Xⱼ`` by an
*exclusion* set.  Sets are tested per (vertex, alias) pair, so the
identity holds under self-joins without a DRed over-delete/re-derive
pass.  Each term runs as iterated supersteps on the BSP engine, touching
nothing outside the write's join neighbourhood.

A write that deletes and inserts (an update) calls it twice, because the
graph holds each half at a different moment: the delete terms before the
graph patch (they join the dead tuples against state that still contains
them), the insert terms after it (the new tuple vertices exist only
then).

Both calls produce an exact *bag* delta of fragment rows, which the
view folds into its stored state (:meth:`MaterializedView.fold`):

* ``"delta"`` views (connected join/filter/projection blocks) keep a
  keyed bag — output value tuple → multiplicity — so folding costs
  O(rows changed).  DISTINCT is applied at serve time: appends to a bag
  are local, while a deduplicated set would need the multiplicities.
* ``"aggregate"`` views (the same blocks with aggregates, grouped or
  global) run a *pre-aggregation fragment* — the same tables, joins and
  filters, projecting the GROUP BY columns, the non-aggregate outputs
  and each aggregate's argument — and fold its bag delta into per-group
  partial state: the row count, ``COUNT(col)`` non-NULL counts, ``SUM``
  and ``AVG`` as (sum, count), and ``MIN`` / ``MAX`` / ``COUNT
  DISTINCT`` as value → refcount maps.  Removing what was never folded
  in raises, which rolls the write back.  A group whose row count
  reaches 0 disappears; only touched groups are re-finalized.  A global
  aggregate over no rows serves what the engines return over empty
  input.

**Float SUM/AVG rule.**  A group's float sum is kept as Shewchuk exact
partials (the incremental form of :func:`math.fsum`), so the served value
is the correctly rounded sum of the *live multiset*: independent of write
order, exact under deletion, and bit-identical after recovery
re-materializes the view.  It may differ from a cold left-to-right
re-execution by a few ulps.  Integer sums stay Python ints.

Initial population and every rebuild fold the same fragment run without
restrictions (:func:`populate_view`).  Views whose delta isn't expressible
this way (subqueries, outer joins, a disconnected join graph) are
recomputed on write through the engine; the database reports them
separately (``views_recomputed`` vs ``views_refreshed``).
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..algebra.expressions import Expression
from ..algebra.logical import AggFunc, OutputColumn, QuerySpec
from ..algebra.parameters import spec_parameters
from ..bsp.engine import BSPEngine
from ..bsp.partition import SinglePartitioner
from ..relational.catalog import Catalog
from ..relational.types import NULL
from ..storage.columns import _release
from ..tag.encoder import TagGraph

__all__ = [
    "ViewError",
    "MaterializedView",
    "view_refresh_mode",
    "populate_view",
    "refresh_view",
    "run_view_fragment",
]

#: Generous superstep budget for view fragments (a tree fragment needs
#: 2·depth + 1 supersteps; this bounds runaway plans, not normal ones).
VIEW_MAX_SUPERSTEPS = 10_000

Row = Tuple[Any, ...]


class ViewError(ValueError):
    """Raised for queries that cannot back a materialized view."""


def view_refresh_mode(spec: QuerySpec) -> str:
    """``"delta"``, ``"aggregate"`` or ``"recompute"`` for ``spec``.

    Connected blocks without subqueries or outer joins are maintained
    from seminaïve bag deltas — as a keyed bag (``"delta"``) or, when
    they aggregate, as per-group partial state (``"aggregate"``).
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
    if spec.subqueries or spec.outer_joins or not spec.is_connected():
        return "recompute"
    # GROUP BY without aggregates is an ungrouped bag on every engine
    return "aggregate" if spec.aggregates else "delta"


# ----------------------------------------------------------------------
# per-group partial aggregate state
# ----------------------------------------------------------------------
def _grow(partials: List[float], x: float) -> None:
    """Add ``x`` to Shewchuk's non-overlapping ``partials`` exactly."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


class _Count:
    """``COUNT(col)``: the group's live non-NULL values."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def fold(self, value: Any, sign: int) -> None:
        self.count += sign
        if self.count < 0:
            raise ViewError("aggregate view state underflow: removed an unseen value")


class _Sum(_Count):
    """``SUM`` / ``AVG``: an exact running sum of the live non-NULL values.

    Ints add as Python ints; finite floats as exact partials; NaN and
    infinities are refcounted apart (their arithmetic is not invertible).
    """

    __slots__ = ("ints", "floats", "partials", "special")

    def __init__(self) -> None:
        super().__init__()
        self.ints: Any = 0
        self.floats = 0  # live float values: the served sum is a float iff any
        self.partials: List[float] = []
        self.special: Dict[str, int] = {}

    def fold(self, value: Any, sign: int) -> None:
        super().fold(value, sign)
        if not isinstance(value, float):
            self.ints = self.ints + value if sign > 0 else self.ints - value
            return
        self.floats += sign
        if math.isfinite(value):
            _grow(self.partials, value if sign > 0 else -value)
        elif sign > 0:
            self.special[repr(value)] = self.special.get(repr(value), 0) + 1
        else:
            _release(self.special, repr(value))

    def total(self) -> Any:
        if not self.floats:
            return self.ints
        special = self.special
        if special:
            if "nan" in special or ("inf" in special and "-inf" in special):
                return math.nan
            return math.inf if "inf" in special else -math.inf
        return math.fsum(self.partials + [self.ints] if self.ints else self.partials)


class _Values:
    """``MIN`` / ``MAX`` / ``COUNT DISTINCT``: live value → refcount."""

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: Dict[Any, int] = {}

    def fold(self, value: Any, sign: int) -> None:
        if sign > 0:
            self.values[value] = self.values.get(value, 0) + 1
        else:
            _release(self.values, value)


_STATE = {
    AggFunc.COUNT: _Count,
    AggFunc.SUM: _Sum,
    AggFunc.AVG: _Sum,
    AggFunc.MIN: _Values,
    AggFunc.MAX: _Values,
    AggFunc.COUNT_DISTINCT: _Values,
}


def _final(function: AggFunc, state: Any, rows: int) -> Any:
    """One aggregate's value from its state (``None`` state: COUNT(*))."""
    if state is None:
        return rows
    if function is AggFunc.COUNT:
        return state.count
    if function is AggFunc.SUM:
        return state.total()
    if function is AggFunc.AVG:
        return state.total() / state.count if state.count else NULL
    if function is AggFunc.COUNT_DISTINCT:
        return len(state.values)
    if not state.values:
        return NULL
    return min(state.values) if function is AggFunc.MIN else max(state.values)


class _Group:
    """One group's live row count, non-aggregate outputs and partials."""

    __slots__ = ("rows", "outputs", "states")

    def __init__(self, aggregates: Sequence[Tuple[AggFunc, Optional[int]]]) -> None:
        self.rows = 0
        self.outputs: Dict[Any, int] = {}
        self.states = [
            None if argument is None else _STATE[function]()
            for function, argument in aggregates
        ]


def _getter(indexes: Sequence[int]) -> Callable[[Row], Any]:
    """A hashable key of ``indexes`` for a fragment row."""
    if not indexes:
        return lambda row: ()
    return itemgetter(*indexes)


class _AggregateLayout:
    """How an aggregate view's fragment rows map onto groups and finals."""

    def __init__(self, spec: QuerySpec) -> None:
        expressions: List[Expression] = []

        def column(expression: Expression) -> int:
            for index, seen in enumerate(expressions):
                if seen == expression:
                    return index
            expressions.append(expression)
            return len(expressions) - 1

        group = [column(ref) for ref in spec.group_by]
        outputs = [column(output.expression) for output in spec.output]
        self.aggregates = [
            (aggregate.function, None if aggregate.argument is None else column(aggregate.argument))
            for aggregate in spec.aggregates
        ]
        #: the pre-aggregation fragment: same block, one column per
        #: distinct GROUP BY / output / argument expression
        self.fragment_spec = replace(
            spec,
            group_by=[],
            aggregates=[],
            distinct=False,
            output=[
                OutputColumn(expression, f"#{index}")
                for index, expression in enumerate(expressions)
            ],
        )
        self.group_key = _getter(group)
        self.output_values = _getter(outputs) if outputs else None
        self.output_aliases = [output.alias for output in spec.output]
        self.aggregate_aliases = [aggregate.alias for aggregate in spec.aggregates]
        from ..core import operations as ops

        #: what every engine serves for a global aggregate over no rows
        self.empty_row = (
            None
            if spec.group_by
            else ops.finalize_partial(ops.empty_partial(spec.aggregates), spec.aggregates)
        )

    def fold(self, group: _Group, row: Row, sign: int) -> None:
        group.rows += sign
        if group.rows < 0:
            raise ViewError("aggregate view state underflow: removed an unseen row")
        if self.output_values is not None:
            values = self.output_values(row)
            if sign > 0:
                group.outputs[values] = group.outputs.get(values, 0) + 1
            else:
                _release(group.outputs, values)
        for (_function, argument), state in zip(self.aggregates, group.states):
            if state is not None:
                value = row[argument]
                if value is not NULL:
                    state.fold(value, sign)

    def finalize(self, group: _Group) -> Dict[str, Any]:
        row: Dict[str, Any] = {}
        if self.output_values is not None:
            values = next(iter(group.outputs))  # every live row's, when grouped on
            if len(self.output_aliases) == 1:
                values = (values,)
            row.update(zip(self.output_aliases, values))
        for alias, (function, _argument), state in zip(
            self.aggregate_aliases, self.aggregates, group.states
        ):
            row[alias] = _final(function, state, group.rows)
        return row


# ----------------------------------------------------------------------
# the view
# ----------------------------------------------------------------------
@dataclass(eq=False)
class MaterializedView:
    """One registered view: its query, stored state, and refresh bookkeeping."""

    name: str
    sql: str
    spec: QuerySpec
    columns: List[str]
    mode: str  # "delta" | "aggregate" | "recompute"
    #: this view's identity within its database: drawn from a counter at
    #: materialize time, so a view re-created under the same name differs
    generation: int = 0
    #: recompute views: the rows as the engine produced them
    rows: List[Dict[str, Any]] = field(default_factory=list)
    #: delta views: the pre-DISTINCT bag, output value tuple -> multiplicity
    bag: Counter = field(default_factory=Counter)
    #: aggregate views: group key -> partial state, and its finalized row
    groups: Dict[Any, _Group] = field(default_factory=dict)
    finals: Dict[Any, Dict[str, Any]] = field(default_factory=dict)
    refresh_count: int = 0
    recompute_count: int = 0
    last_refresh_seconds: float = 0.0
    last_delta_rows: int = 0
    _layout: Optional[_AggregateLayout] = None
    _compiled: Any = None
    _compiled_schema_version: int = -1

    def __post_init__(self) -> None:
        #: every relation the view reads, subquery blocks included
        self.read_set = self.spec.read_set()
        if self.mode == "aggregate":
            self._layout = _AggregateLayout(self.spec)
            self.columns = self.spec.result_columns()

    @property
    def incremental(self) -> bool:
        """Whether writes fold bag deltas in (else: recompute per write)."""
        return self.mode != "recompute"

    @property
    def fragment_spec(self) -> QuerySpec:
        """The block whose fragment rows the view folds."""
        return self._layout.fragment_spec if self._layout is not None else self.spec

    # ------------------------------------------------------------------
    def fold(self, rows: Sequence[Row], sign: int) -> None:
        """Add (``sign`` 1) or remove (-1) a bag of fragment rows.

        Removing a row the state never held raises, so a maintenance bug
        rolls the write back instead of serving a wrong view.
        """
        if self._layout is None:
            if sign > 0:
                self.bag.update(rows)
            else:
                bag = self.bag
                for row in rows:
                    _release(bag, row)
            return
        layout, groups = self._layout, self.groups
        touched: Dict[Any, _Group] = {}
        for row in rows:
            key = layout.group_key(row)
            group = groups.get(key)
            if group is None:
                if sign < 0:
                    raise ViewError(f"view {self.name!r}: removing from absent group {key!r}")
                group = groups[key] = _Group(layout.aggregates)
            layout.fold(group, row, sign)
            touched[key] = group
        for key, group in touched.items():
            if group.rows:
                self.finals[key] = layout.finalize(group)
            else:
                del groups[key]
                del self.finals[key]

    def clear(self) -> None:
        """Drop the stored state ahead of a full repopulation."""
        self.rows, self.bag, self.groups, self.finals = [], Counter(), {}, {}

    def result_rows(self) -> List[Dict[str, Any]]:
        """Fresh row dicts of what the view serves."""
        if self.mode == "recompute":
            return [dict(row) for row in self.rows]
        if self._layout is not None:
            if not self.finals and self._layout.empty_row is not None:
                return [dict(self._layout.empty_row)]
            return [dict(row) for row in self.finals.values()]
        columns = self.columns
        if self.spec.distinct:
            return [dict(zip(columns, values)) for values in self.bag]
        return [
            dict(zip(columns, values))
            for values, multiplicity in self.bag.items()
            for _ in range(multiplicity)
        ]

    def served_count(self) -> int:
        """How many rows :meth:`result_rows` returns, without building them."""
        if self.mode == "recompute":
            return len(self.rows)
        if self._layout is not None:
            return len(self.finals) or int(self._layout.empty_row is not None)
        return len(self.bag) if self.spec.distinct else sum(self.bag.values())

    def compiled_for(self, catalog: Catalog) -> Any:
        """The view's compiled fragment, recompiled only on schema change."""
        if self._compiled is None or self._compiled_schema_version != catalog.schema_version:
            from ..core.compiler import compile_fragment

            self._compiled = compile_fragment(self.fragment_spec, catalog)
            self._compiled_schema_version = catalog.schema_version
        return self._compiled

    def info(self) -> Dict[str, Any]:
        info = {
            "name": self.name,
            "sql": self.sql,
            "mode": self.mode,
            "rows": self.served_count(),
            "distinct": self.spec.distinct,
            "refresh_count": self.refresh_count,
            "recompute_count": self.recompute_count,
            "last_refresh_seconds": round(self.last_refresh_seconds, 6),
            "last_delta_rows": self.last_delta_rows,
        }
        if self.mode == "aggregate":
            info["groups"] = len(self.groups)
        return info


# ----------------------------------------------------------------------
# fragment execution with per-alias member / exclusion sets
# ----------------------------------------------------------------------
def run_view_fragment(
    graph: TagGraph,
    compiled: Any,
    alias_members: Optional[Dict[str, Set[int]]] = None,
    alias_excluded: Optional[Dict[str, Set[int]]] = None,
) -> List[Row]:
    """Run a compiled NONE-aggregation fragment, restricted per alias.

    Returns decoded value tuples in ``compiled.slotted.output_columns``
    order — the keys of a view's bag.
    """
    from ..exec.program import TagJoinKernel

    program = TagJoinKernel(
        graph,
        compiled.config,
        compiled.slotted,
        compiled.vectorized,
        alias_members=alias_members,
        alias_excluded=alias_excluded,
    )
    engine = BSPEngine(graph, SinglePartitioner(), max_supersteps=VIEW_MAX_SUPERSTEPS)
    engine.run(program)
    rows = program.result_tuples()
    # view rows are served directly, so this is their result boundary:
    # pass-through codes are decoded exactly once
    decoders = [
        (index, compiled.output_decoders[column])
        for index, column in enumerate(compiled.slotted.output_columns)
        if column in compiled.output_decoders
    ]
    if not decoders:
        return list(rows)
    decoded = []
    for values in rows:
        values = list(values)
        for index, decode in decoders:
            values[index] = decode(values[index])
        decoded.append(tuple(values))
    return decoded


def populate_view(view: MaterializedView, graph: TagGraph, catalog: Catalog) -> None:
    """(Re)build an incremental view: fold one unrestricted fragment run."""
    compiled = view.compiled_for(catalog)
    view.clear()
    if view.mode == "delta":
        view.columns = list(compiled.slotted.output_columns)
    view.fold(run_view_fragment(graph, compiled), 1)
    view.recompute_count += 1


def refresh_view(
    view: MaterializedView,
    graph: TagGraph,
    catalog: Catalog,
    touched: Dict[str, Iterable[int]],
    sign: int,
) -> int:
    """Fold one signed delta term sum into the view; returns rows folded.

    Term *i* pins alias *i* to its relation's touched tuples, excludes
    them from every earlier alias over a touched relation, and lets later
    aliases see the full relation (see the module docstring).  ``graph``
    must hold the touched tuples: the pre-patch graph for deletes
    (``sign`` -1), the patched one for inserts (``sign`` 1).

    Args:
        touched: ``relation -> tuple vertex indexes`` (1-based, i.e.
            physical position + 1) for every relation the write touched;
            relations absent from it are unchanged.
    """
    started = time.perf_counter()
    compiled = view.compiled_for(catalog)
    touched_sets = {table: set(indexes) for table, indexes in touched.items()}
    aliases = [(table_ref.alias, table_ref.table) for table_ref in view.spec.tables]
    rows: List[Row] = []
    for i, (alias_i, table_i) in enumerate(aliases):
        members = touched_sets.get(table_i)
        if not members:
            continue  # Xᵢ is empty: the whole term vanishes
        excluded = {
            alias_j: touched_sets[table_j]
            for alias_j, table_j in aliases[:i]
            if touched_sets.get(table_j)
        }
        rows.extend(
            run_view_fragment(
                graph, compiled, alias_members={alias_i: members}, alias_excluded=excluded
            )
        )
    view.fold(rows, sign)
    view.refresh_count += 1
    view.last_delta_rows = len(rows)
    view.last_refresh_seconds = time.perf_counter() - started
    return len(rows)
