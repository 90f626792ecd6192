"""The reference TAG-join executor behind the ``tag_dict`` engine.

:class:`ReferenceTagJoinExecutor` shares everything with
:class:`~repro.core.executor.TagJoinExecutor` — dispatch, planner, plan
cache, subquery/cycle/Cartesian handling — except how one compiled
fragment runs: on the dict-row
:class:`~repro.core.vertex_program.TagJoinProgram`, which resolves every
column by name per row and shares no code with :mod:`repro.exec`.  That
independence is its whole purpose: the golden and differential suites
require the production kernel to equal it row for row.  It is an oracle,
not a production mode, and the only place ``TagJoinProgram`` is built.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

from ..algebra.logical import AggregationClass, QuerySpec
from ..bsp.metrics import RunMetrics
from ..storage.rewrite import decode_output_rows
from . import operations as ops
from .compiler import CompiledFragment
from .executor import QueryResult, TagJoinExecutor
from .vertex_program import (
    GLOBAL_GROUPS_AGGREGATOR,
    TagJoinProgram,
    register_group_aggregator,
)


class ReferenceTagJoinExecutor(TagJoinExecutor):
    """Evaluate fragments with the dict-row reference vertex program."""

    def _run_compiled(
        self,
        spec: QuerySpec,
        compiled: CompiledFragment,
        metrics: RunMetrics,
        raw_rows: bool = False,
        alias_members: Optional[Dict[str, FrozenSet[int]]] = None,
    ) -> QueryResult:
        config = compiled.config
        engine = self._make_engine()
        if compiled.aggregation_class in (AggregationClass.GLOBAL, AggregationClass.SCALAR):
            register_group_aggregator(engine, config.aggregates)

        program = TagJoinProgram(self.graph, config, alias_members)
        engine.run(program)
        metrics.merge(engine.last_metrics)

        if raw_rows or compiled.aggregation_class is AggregationClass.NONE:
            columns = [column.alias for column in config.output_columns]
            rows = program.output_rows
            if spec.distinct and not raw_rows:
                rows = ops.deduplicate(rows)
        else:
            columns = [column.alias for column in spec.output] + [
                aggregate.alias for aggregate in spec.aggregates
            ]
            if compiled.aggregation_class is AggregationClass.LOCAL:
                rows = program.local_groups
            else:
                # GLOBAL / SCALAR: finalize the partial aggregates gathered globally
                groups = engine.aggregators.get(GLOBAL_GROUPS_AGGREGATOR).value()
                rows = []
                for payload in groups.values():
                    # evaluate the *rewritten* outputs: the sample row context
                    # holds encoded values, which only the rewritten expressions
                    # read correctly (pass-through codes are decoded just below)
                    row = ops.evaluate_output_columns(config.output_columns, payload["sample"])
                    row.update(ops.finalize_partial(payload["partial"], config.aggregates))
                    rows.append(row)
                if compiled.aggregation_class is AggregationClass.SCALAR and not rows:
                    rows = [
                        ops.finalize_partial(
                            ops.empty_partial(config.aggregates), config.aggregates
                        )
                    ]
        decode_output_rows(rows, compiled.output_decoders)
        return QueryResult(rows, columns, metrics, compiled.aggregation_class)
