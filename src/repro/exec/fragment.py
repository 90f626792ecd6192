"""Compile a :class:`~repro.core.vertex_program.FragmentConfig` to slotted form.

The TAG-join collection phase is driven by a *statically known* schedule
(the Euler traversal of the plan), which means the shape of every
intermediate result table — which columns, in which order — is fully
determined at plan-compile time.  ``compile_slotted_fragment`` walks the
collection steps once, symbolically, propagating a :class:`RowSchema`
through the plan exactly as the vertex program will propagate row tables
at run time, and compiles each per-step merge, the residual conditions
checked right after it, every filter, the output list, the GROUP BY key
and the aggregate accumulators into slot-index closures.

A schema holds only live columns, not every column the query names: an
alias's own row carries the columns its
:attr:`~repro.core.vertex_program.FragmentConfig.required_columns` lists
(what a residual at a collection merge, an output, a GROUP BY key or an
aggregate argument reads), so it may be zero columns wide.  It carries
the tuple's ordinal as a provenance slot only when a later collection
step re-ascends onto the alias, which
:func:`~repro.core.vertex_program.carried_aliases` finds from the aliases
a table already carries.

The result rides along inside the cached
:class:`~repro.core.compiler.CompiledFragment`, so a plan-cache hit hands
back ready-to-run closures and the per-row work left at execution time is
tuple indexing.  What it names per alias are *columns*: the kernel binds
them to the relation's rows and code arrays at run start
(:meth:`~repro.relational.relation.Relation.encoded_reader`), never here —
a plan outlives the arrays it would otherwise hold.  Its one mutable part
is each :class:`AliasFilter`'s memo of verdicts by physical position.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from ..algebra.logical import AggFunc
from ..algebra.parameters import current_parameters, expression_parameters
from ..bsp.metrics import SLOT_BYTES
from ..relational.catalog import Catalog
from .expr import compile_predicates, slot_resolver
from .operations import (
    SlottedAggregates,
    compile_group_key,
    compile_output,
    compile_residual,
)
from .schema import RowSchema, SlottedRow


def provenance_key(alias: Optional[str]) -> str:
    """The hidden per-alias provenance column (same name as the reference program's)."""
    return f"__vid.{alias}"


class OwnRowSpec:
    """How one relation alias projects a tuple vertex into a slotted row:
    the values of ``columns`` read off its row, then its ordinal when
    ``provenance`` (a later collection step re-ascends onto the alias)."""

    __slots__ = ("alias", "columns", "provenance", "schema")

    def __init__(self, alias: str, columns: Tuple[str, ...], provenance: bool) -> None:
        self.alias = alias
        self.columns = columns
        self.provenance = provenance
        qualified = tuple(f"{alias}.{column}" for column in columns)
        self.schema = RowSchema(qualified + ((provenance_key(alias),) if provenance else ()))

    def describe(self) -> str:
        """What the alias's rows carry (EXPLAIN)."""
        carried = ", ".join(self.columns) or "no columns"
        return f"carries {carried}{' + provenance' if self.provenance else ''}"


#: verdict array entries: not judged yet, judged to pass, judged to fail
UNKNOWN, PASS, FAIL = 0, 1, 2


class AliasFilter:
    """An alias's pushed-down filters, slot-compiled over the values of
    ``columns`` (the table columns they reference, in table order), plus
    the memo of their verdicts by physical position.

    ``parameters`` names the query parameters the filters read.  The memo
    holds one ``bytearray`` of :data:`UNKNOWN` / :data:`PASS` /
    :data:`FAIL` under one key (see :meth:`verdicts`); the kernel fills it
    lazily and only ever appends to it (the module docstring of
    :mod:`repro.exec.program` says why that is sound).
    """

    __slots__ = ("columns", "test", "parameters", "_memo")

    def __init__(
        self,
        columns: Tuple[str, ...],
        test: Callable[[SlottedRow], bool],
        parameters: Tuple[str, ...],
    ) -> None:
        self.columns = columns
        self.test = test
        self.parameters = parameters
        self._memo: Optional[Tuple[Hashable, bytearray]] = None

    def bound_values(self) -> Tuple[Tuple[type, Any], ...]:
        """The ``(type, value)`` bound to each of :attr:`parameters` in this
        context (``(None, None)`` when unbound: the test raises then)."""
        bound = current_parameters() or {}
        return tuple(
            (type(bound[name]), bound[name]) if name in bound else (None, None)
            for name in self.parameters
        )

    def verdicts(self, key: Hashable) -> bytearray:
        """The verdict array for ``key``, installing a fresh one when the
        key moved.  An array another reader holds is never cleared, and a
        key that cannot be hashed (a mutable parameter value, which may
        change before the next run) gets an array no one else sees.
        Readers racing to install one key may each get an array of their
        own: every verdict in either is right, only reuse is lost."""
        try:
            hash(key)
        except TypeError:
            return bytearray()
        memo = self._memo
        if memo is not None and memo[0] == key:
            return memo[1]
        verdicts = bytearray()
        self._memo = (key, verdicts)
        return verdicts


@dataclass(frozen=True)
class CollectAction:
    """Compiled receive behaviour of one collection step.

    At an attribute node (``at_relation`` False) tables pass through.  At
    a relation node an incoming row meets the vertex's own row in one of
    two ways.  If its table does not carry the alias yet, the own row is
    appended.  If it does (an Euler re-ascent), ``prov_slot`` is the
    provenance column's slot in it: rows whose
    recorded contributor for this alias is a different vertex are
    dropped, mirroring the reference program's ``row.get(provenance,
    vid) == vid`` check, and the rest pass unchanged.
    """

    at_relation: bool = False
    prov_slot: Optional[int] = None
    #: AND of the residual conditions placed at this step, over the merged
    #: row (None: nothing to check here)
    check: Optional[Callable[[SlottedRow], bool]] = None


@dataclass
class SlottedFragment:
    """Everything the kernel's tuple-row form needs, compiled once per plan."""

    own: Dict[str, OwnRowSpec]  # alias -> own-row projection
    collect: Dict[int, CollectAction]  # schedule index -> compiled receive
    step_schemas: Dict[int, RowSchema]  # schedule index -> schema of the step's table
    #: schedule index of a collection step -> bytes of one row of the table
    #: it sends (the byte model of :mod:`repro.bsp.metrics`)
    sent_row_bytes: Dict[int, int]
    #: bytes of one aggregator message: group key, partial and sample row
    aggregate_bytes: int
    root_schema: RowSchema
    filters: Dict[str, AliasFilter]  # alias -> pushed-down filter
    output: Callable[[SlottedRow], Tuple[Any, ...]]
    output_columns: Tuple[str, ...]
    group_key: Callable[[SlottedRow], Tuple[Any, ...]]
    aggregates: Optional[SlottedAggregates]


def compile_slotted_fragment(config: Any, catalog: Catalog) -> SlottedFragment:
    """Derive the slotted execution plan of one fragment config.

    Raises ValueError for configs the compiler never produces and the
    kernel cannot run: open-ended ``required_columns`` (row shapes must be
    fixed at compile time), or a collection schedule that does not start
    at a relation node.
    """
    from ..core.vertex_program import carried_aliases  # local: avoid import cycle

    plan = config.plan
    schedule = config.schedule
    carried = carried_aliases(plan, schedule)
    # only the own rows of an alias some collection step re-ascends onto
    # carry a provenance slot
    targets = {index: plan.node(schedule[index].step.target) for index in carried}
    reascended = {
        target.alias
        for index, target in targets.items()
        if target.is_relation and target.alias in carried[index]
    }

    # 1. own-row projections (one fixed shape per alias)
    own: Dict[str, OwnRowSpec] = {}
    for node in plan.relation_nodes():
        alias = node.alias
        required = config.required_columns.get(alias)
        if required is None:
            raise ValueError(f"alias {alias!r} has open-ended required columns")
        table_columns = catalog.schema(config.alias_tables[alias]).column_names
        # keep only columns the tuple vertices actually store, in a fixed
        # deterministic order (mirrors project_tuple's membership filter)
        columns = tuple(sorted(column for column in required if column in table_columns))
        own[alias] = OwnRowSpec(alias, columns, alias in reascended)

    # 2. pushed-down filters, compiled against the tuple of the table
    #    columns they reference (a qualified reference names its column
    #    after the last dot)
    filters: Dict[str, AliasFilter] = {}
    for alias, predicates in config.filters.items():
        table = config.alias_tables.get(alias)
        referenced = {
            name.rpartition(".")[2] for predicate in predicates for name in predicate.columns()
        }
        columns = tuple(
            column
            for column in (catalog.schema(table).column_names if table else ())
            if column in referenced
        )
        schema = RowSchema(tuple(f"{alias}.{column}" for column in columns))
        compiled = compile_predicates(
            predicates, slot_resolver(schema), schema.context_builder()
        )
        if compiled is not None:
            parameters = sorted(
                {name for predicate in predicates for name in expression_parameters(predicate)}
            )
            filters[alias] = AliasFilter(columns, compiled, tuple(parameters))

    # 3. symbolic replay of the collection schedule: propagate schemas and
    #    compile one merge per step, exactly as rows will flow at run time
    schema_at: Dict[str, RowSchema] = {}
    collect: Dict[int, CollectAction] = {}
    step_schemas: Dict[int, RowSchema] = {}
    sent_row_bytes: Dict[int, int] = {}
    for index, aliases in carried.items():
        step = schedule[index].step
        source_node = plan.node(step.source)
        target_node = targets[index]
        source_schema = schema_at.get(step.source)
        if source_schema is None:
            if not source_node.is_relation:
                raise ValueError(f"collection step {index} starts at a valueless attribute node")
            source_schema = own[source_node.alias].schema
        sent_row_bytes[index] = SLOT_BYTES * len(source_schema)
        if not target_node.is_relation:
            action = CollectAction()
            schema = source_schema
        elif target_node.alias in aliases:
            # Euler re-ascent: the provenance filter guarantees the rows
            # came from this very vertex's own row, so they pass as they are
            prov_slot = source_schema.slot(provenance_key(target_node.alias))
            action = CollectAction(at_relation=True, prov_slot=prov_slot)
            schema = source_schema
        else:
            action = CollectAction(at_relation=True)
            schema = RowSchema(source_schema.columns + own[target_node.alias].schema.columns)
        check = compile_residual(config.step_residuals.get(index, ()), schema)
        if check is not None:
            action = replace(action, check=check)
        collect[index] = action
        step_schemas[index] = schema
        schema_at[step.target] = schema

    # 4. the root's table schema is what assembly sees
    root_schema = schema_at.get(config.root_node_id)
    if root_schema is None:
        root_node = plan.node(config.root_node_id)
        if not root_node.is_relation:
            raise ValueError("the plan root is an attribute node no collection step reaches")
        root_schema = own[root_node.alias].schema

    output = compile_output(config.output_columns, root_schema)
    output_columns = tuple(column.alias for column in config.output_columns)
    group_key = compile_group_key(config.group_by_columns, root_schema)
    aggregates = (
        SlottedAggregates(config.aggregates, root_schema) if config.aggregates else None
    )
    # an aggregator message: group key, partial (AVG's is a (sum, count)
    # pair, every other one value) and sample row
    partial_slots = sum(2 if spec.function is AggFunc.AVG else 1 for spec in config.aggregates)
    aggregate_slots = len(config.group_by_columns) + partial_slots + len(root_schema)

    return SlottedFragment(
        own=own,
        collect=collect,
        step_schemas=step_schemas,
        sent_row_bytes=sent_row_bytes,
        aggregate_bytes=SLOT_BYTES * aggregate_slots,
        root_schema=root_schema,
        filters=filters,
        output=output,
        output_columns=output_columns,
        group_key=group_key,
        aggregates=aggregates,
    )
