"""Compiled TAG-join execution: the production kernel behind ``engine="tag"``.

Intermediate result tables are shaped by compile-time :class:`RowSchema`
objects instead of dict-per-row name resolution:

* :mod:`repro.exec.schema` — column -> slot mapping;
* :mod:`repro.exec.expr` — slot-compiling expression evaluator (with a
  dict-context fallback for opaque predicates);
* :mod:`repro.exec.operations` — slotted aggregates, outputs, group keys;
* :mod:`repro.exec.fragment` — per-plan symbolic schedule replay producing
  a :class:`SlottedFragment`;
* :mod:`repro.exec.vectorized` — the columnar (struct-of-arrays) form of a
  table and its whole-batch operators;
* :mod:`repro.exec.program` — :class:`TagJoinKernel`, the one Algorithm-2
  vertex program: every table starts as tuple rows and converts to a
  column batch when its observed size reaches
  :data:`~repro.exec.program.COLUMNAR_THRESHOLD`.

The public query API is unchanged: results surface as dict rows.  The
dict-row :class:`~repro.core.vertex_program.TagJoinProgram` stays as the
independent reference, reachable as the ``tag_dict`` engine.
"""

from .expr import compile_expression, compile_predicates, slot_resolver
from .fragment import SlottedFragment, compile_slotted_fragment, provenance_key
from .operations import SlottedAggregates, compile_group_key, compile_output, deduplicate_rows
from .program import TagJoinKernel, register_group_aggregator
from .schema import RowSchema, SlotError

__all__ = [
    "RowSchema",
    "SlotError",
    "SlottedAggregates",
    "SlottedFragment",
    "TagJoinKernel",
    "compile_expression",
    "compile_group_key",
    "compile_output",
    "compile_predicates",
    "compile_slotted_fragment",
    "deduplicate_rows",
    "provenance_key",
    "register_group_aggregator",
    "slot_resolver",
]
