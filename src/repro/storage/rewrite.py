"""Rewrite query expressions to run directly on encoded columns.

The compiler calls into this module once per fragment (the single
chokepoint between logical predicates and the physical
``FragmentConfig``): filters, residuals, output columns and aggregate
arguments are rewritten so that the inner execution loop only ever sees
``int32`` codes, and plain string/date values appear exactly once — at
the public result boundary.

Correctness contract: every rewritten predicate must produce the
*identical* boolean the un-rewritten expression produces for **all**
inputs, including NULLs (``None`` from outer-join padding as well as the in-band
sentinels).  Composition under ``And``/``Or`` is then automatically
safe.  No node negates another: the binder pushes every ``NOT`` down to
the atoms (:func:`~repro.algebra.expressions.negate`), so a complemented
atom (``>=`` for ``NOT <``, a negated ``InList``/``Like``) is rewritten
like any other and, like any other, is False on NULL.

The hot rewrites (equality, IN, IS NULL, date ranges) produce ordinary
:class:`~repro.algebra.expressions.Comparison`/``InList`` nodes over
*interned* literal codes — query literals are added to the append-only
dictionary at rewrite time, so codes are compile-time-stable and cached
plans never go stale.  String ordering / LIKE / BETWEEN go through a
:class:`DictionaryPredicate` — a lazily grown boolean side table indexed
by code.  Everything else (cross-type comparisons, arithmetic over
encoded columns, parameters, subquery closures) falls back to explicit
decode-at-access (:class:`DecodeExpr` / :class:`DecodedContext`), which
is always correct.
"""

from __future__ import annotations

import datetime as _dt
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..algebra.expressions import (
    And,
    Arithmetic,
    Between,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    IsNull,
    Like,
    Literal,
    Or,
    like_regex,
)
from ..algebra.logical import AggregateSpec, OutputColumn
from ..algebra.parameters import ParameterRef
from .dictionary import NULL_CODE, StringDictionary
from .encoding import (
    CODE,
    DATE_NULL_SENTINEL,
    EPOCH_DAY,
    ColumnCodec,
    RelationCodec,
    _as_int,
    date_to_epoch_day,
)

#: Marker for an unqualified column name that matches several aliases, at
#: least one of them encoded — the rewriter cannot pick a codec and wraps
#: the expression in a :class:`DecodedContext` instead.
_AMBIGUOUS = object()

Decoder = Callable[[Any], Any]


# ----------------------------------------------------------------------
# expression nodes introduced by the rewrite
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DecodeExpr(Expression):
    """Decode an encoded operand at access time (the correct-always path)."""

    operand: Expression
    codec: ColumnCodec

    def evaluate(self, context: Any) -> Any:
        return self.codec.decode(self.operand.evaluate(context))

    def columns(self):
        return self.operand.columns()

    def __repr__(self) -> str:
        return f"Decode({self.operand!r})"


class CodeTable:
    """Lazily grown boolean side table: ``table[code] = predicate(value)``.

    Evaluating a string predicate over the dictionary once turns an
    arbitrary LIKE / range / BETWEEN into an O(1) integer lookup per row.
    The table extends itself when the dictionary has grown since the last
    use (delta ingest appends entries, it never rewrites them), and the
    published list is replaced atomically so readers never lock.  Its
    row-level analogue is the per-position verdict memo of a cached
    plan's alias filters (module docstring of :mod:`repro.exec.program`).
    """

    __slots__ = ("dictionary", "predicate", "description", "_table", "_np_table", "_lock")

    def __init__(
        self,
        dictionary: StringDictionary,
        predicate: Callable[[str], bool],
        description: str = "",
    ) -> None:
        self.dictionary = dictionary
        self.predicate = predicate
        self.description = description
        self._table: List[bool] = []
        self._np_table = None
        self._lock = threading.Lock()

    def _extend(self) -> None:
        with self._lock:
            dictionary = self.dictionary
            grown = list(self._table)
            predicate = self.predicate
            for code in range(len(grown), len(dictionary)):
                grown.append(bool(predicate(dictionary.value(code))))
            self._table = grown
            self._np_table = None

    def test(self, code: Any) -> bool:
        """Truth value for one code; NULL/padding/foreign codes are False."""
        index = _as_int(code)
        if index is None or index < 0:
            return False
        table = self._table
        if index >= len(table):
            self._extend()
            table = self._table
            if index >= len(table):
                return False
        return table[index]

    def mask(self, codes: Any):
        """Vectorized lookup: a boolean numpy mask for an int code array."""
        import numpy as np

        if len(self._table) < len(self.dictionary):
            self._extend()
        table = self._np_table
        if table is None or len(table) < len(self._table):
            table = np.asarray(self._table, dtype=bool)
            self._np_table = table
        codes = np.asarray(codes)
        if codes.dtype.kind not in "iu":
            return np.fromiter(
                (self.test(code) for code in codes.tolist()), dtype=bool, count=len(codes)
            )
        out = np.zeros(len(codes), dtype=bool)
        valid = (codes >= 0) & (codes < len(table))
        out[valid] = table[codes[valid]]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CodeTable({self.description})"


@dataclass(frozen=True)
class DictionaryPredicate(Expression):
    """A string predicate evaluated through a :class:`CodeTable`."""

    operand: Expression
    table: CodeTable

    def evaluate(self, context: Any) -> bool:
        return self.table.test(self.operand.evaluate(context))

    def columns(self):
        return self.operand.columns()

    def __repr__(self) -> str:
        return f"DictPred({self.operand!r}, {self.table.description})"


@dataclass(frozen=True, eq=False)
class DecodedContext(Expression):
    """Evaluate an opaque predicate against a fully decoded row context.

    The safety net for expression types the rewriter cannot rebuild —
    notably the :class:`~repro.core.operations.CallablePredicate` closures
    subquery compilation produces, which probe ``context.get(...)``
    directly.  The wrapper materialises a decoded copy of the context
    dict, restoring the un-rewritten semantics at interpretation cost.
    """

    inner: Expression
    decoders: Dict[str, Decoder]

    def evaluate(self, context: Any) -> Any:
        decoders = self.decoders
        decoded = {
            key: decoders[key](value) if key in decoders else value
            for key, value in context.items()
        }
        return self.inner.evaluate(decoded)

    def columns(self):
        return self.inner.columns()

    def __repr__(self) -> str:
        return f"DecodedContext({self.inner!r})"


# ----------------------------------------------------------------------
# the rewriter
# ----------------------------------------------------------------------
_FLIP = {"=": "=", "==": "==", "!=": "!=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
_NE_OPS = ("!=", "<>")
_EQ_OPS = ("=", "==")

#: Node types :meth:`FragmentRewriter._decode_subst` knows how to rebuild
#: with substituted operands.  Anything else gets a DecodedContext.
_REBUILDABLE = (
    Literal,
    ColumnRef,
    ParameterRef,
    Comparison,
    Arithmetic,
    And,
    Or,
    IsNull,
    InList,
    Between,
    Like,
)


def _is_plain_date(value: Any) -> bool:
    return isinstance(value, _dt.date) and not isinstance(value, _dt.datetime)


class FragmentRewriter:
    """Rewrites one fragment's expressions onto the encoded representation."""

    def __init__(self, alias_codecs: Dict[str, RelationCodec]) -> None:
        self.alias_codecs = alias_codecs
        self._qualified: Dict[str, ColumnCodec] = {}
        by_name: Dict[str, Any] = {}
        seen_alias: Dict[str, str] = {}
        for alias, codec in alias_codecs.items():
            for name, column_codec in codec.by_name.items():
                if column_codec.is_encoded:
                    self._qualified[f"{alias}.{name}"] = column_codec
                if name in seen_alias and seen_alias[name] != alias:
                    # same column name under several aliases: ambiguous if
                    # any occurrence is encoded, harmless otherwise
                    if column_codec.is_encoded or by_name.get(name) is not None:
                        by_name[name] = _AMBIGUOUS
                else:
                    seen_alias[name] = alias
                    by_name[name] = column_codec if column_codec.is_encoded else None
        self._by_name = by_name
        self.context_decoders: Dict[str, Decoder] = {
            qualified: codec.decode for qualified, codec in self._qualified.items()
        }

    @classmethod
    def for_catalog(
        cls, catalog: Any, alias_tables: Dict[str, str]
    ) -> Optional["FragmentRewriter"]:
        """A rewriter for the fragment's aliases, or None when there is
        nothing encoded to rewrite (all-numeric fragments skip the pass)."""
        encoding = getattr(catalog, "encoding", None)
        if encoding is None:
            return None
        alias_codecs: Dict[str, RelationCodec] = {}
        any_encoded = False
        for alias, table in alias_tables.items():
            codec = encoding.codec_for(catalog.schema(table))
            alias_codecs[alias] = codec
            any_encoded = any_encoded or codec.has_encoded
        if not any_encoded:
            return None
        return cls(alias_codecs)

    # -- column resolution --------------------------------------------
    def _codec_of(self, ref: ColumnRef, scope: Optional[str]) -> Any:
        """The ColumnCodec of an *encoded* ref, None for raw/unknown, or
        the ambiguity marker."""
        if ref.table is not None:
            codec = self.alias_codecs.get(ref.table)
            if codec is None:
                return None
            column_codec = codec.codec_for(ref.column)
            if column_codec is not None and column_codec.is_encoded:
                return column_codec
            return None
        if scope is not None:
            codec = self.alias_codecs.get(scope)
            if codec is not None:
                column_codec = codec.codec_for(ref.column)
                if column_codec is not None:
                    return column_codec if column_codec.is_encoded else None
        return self._by_name.get(ref.column)

    def _codec_of_qualified(self, qualified: str, scope: Optional[str]) -> Any:
        if "." in qualified:
            alias, column = qualified.split(".", 1)
            return self._codec_of(ColumnRef(column, alias), scope)
        return self._codec_of(ColumnRef(qualified), scope)

    def _touches_encoded(self, expression: Expression, scope: Optional[str]) -> bool:
        return any(
            self._codec_of_qualified(qualified, scope) is not None
            for qualified in expression.columns()
        )

    # -- decode-at-access substitution --------------------------------
    def _wrap(self, expression: Expression) -> Expression:
        return DecodedContext(expression, self.context_decoders)

    def _subst_ok(self, expression: Expression, scope: Optional[str]) -> bool:
        """Whether the tree can be rebuilt with per-ref decoders."""
        if isinstance(expression, ColumnRef):
            return self._codec_of(expression, scope) is not _AMBIGUOUS
        if isinstance(expression, (Literal, ParameterRef)):
            return True
        if isinstance(expression, (And, Or)):
            return all(self._subst_ok(op, scope) for op in expression.operands)
        if isinstance(expression, (IsNull, Like)):
            return self._subst_ok(expression.operand, scope)
        if isinstance(expression, (Comparison, Arithmetic)):
            return self._subst_ok(expression.left, scope) and self._subst_ok(
                expression.right, scope
            )
        if isinstance(expression, InList):
            return self._subst_ok(expression.operand, scope) and all(
                self._subst_ok(item, scope)
                for item in expression.values
                if isinstance(item, Expression)
            )
        if isinstance(expression, Between):
            return (
                self._subst_ok(expression.operand, scope)
                and self._subst_ok(expression.low, scope)
                and self._subst_ok(expression.high, scope)
            )
        return False  # unknown node type: needs the DecodedContext wrapper

    def _subst(self, expression: Expression, scope: Optional[str]) -> Expression:
        """Rebuild with every encoded ColumnRef wrapped in DecodeExpr."""
        if isinstance(expression, ColumnRef):
            codec = self._codec_of(expression, scope)
            if codec is None or codec is _AMBIGUOUS:
                return expression
            return DecodeExpr(expression, codec)
        if isinstance(expression, (Literal, ParameterRef)):
            return expression
        if isinstance(expression, And):
            return And([self._subst(op, scope) for op in expression.operands])
        if isinstance(expression, Or):
            return Or([self._subst(op, scope) for op in expression.operands])
        if isinstance(expression, IsNull):
            return IsNull(self._subst(expression.operand, scope), expression.negated)
        if isinstance(expression, Like):
            return Like(self._subst(expression.operand, scope), expression.pattern, expression.negated)
        if isinstance(expression, Comparison):
            return Comparison(
                expression.op,
                self._subst(expression.left, scope),
                self._subst(expression.right, scope),
            )
        if isinstance(expression, Arithmetic):
            return Arithmetic(
                expression.op,
                self._subst(expression.left, scope),
                self._subst(expression.right, scope),
            )
        if isinstance(expression, InList):
            return InList(
                self._subst(expression.operand, scope),
                tuple(
                    self._subst(item, scope) if isinstance(item, Expression) else item
                    for item in expression.values
                ),
                expression.negated,
            )
        if isinstance(expression, Between):
            return Between(
                self._subst(expression.operand, scope),
                self._subst(expression.low, scope),
                self._subst(expression.high, scope),
            )
        raise AssertionError(f"unsubstitutable node {type(expression).__name__}")

    def _decode_subst(self, expression: Expression, scope: Optional[str]) -> Expression:
        """The always-correct fallback: decode encoded refs at access."""
        if self._subst_ok(expression, scope):
            return self._subst(expression, scope)
        return self._wrap(expression)

    # -- the public rewrite entry points ------------------------------
    def rewrite(self, expression: Expression, scope: Optional[str] = None) -> Expression:
        """Rewrite one predicate (filter or residual)."""
        if isinstance(expression, (Literal, ParameterRef)):
            return expression
        if isinstance(expression, And):
            return And([self.rewrite(op, scope) for op in expression.operands])
        if isinstance(expression, Or):
            return Or([self.rewrite(op, scope) for op in expression.operands])
        if isinstance(expression, Comparison):
            return self._rewrite_comparison(expression, scope)
        if isinstance(expression, InList):
            return self._rewrite_in_list(expression, scope)
        if isinstance(expression, IsNull):
            return self._rewrite_is_null(expression, scope)
        if isinstance(expression, Between):
            return self._rewrite_between(expression, scope)
        if isinstance(expression, Like):
            return self._rewrite_like(expression, scope)
        if isinstance(expression, _REBUILDABLE):
            # ColumnRef / Arithmetic in predicate position, or anything
            # rebuildable without a faster form
            if self._touches_encoded(expression, scope):
                return self._decode_subst(expression, scope)
            return expression
        # unknown node types (subquery closures, ...) always get the
        # decoded view — their .columns() may understate what they read
        return self._wrap(expression)

    def rewrite_predicates(
        self, predicates: List[Expression], scope: Optional[str] = None
    ) -> List[Expression]:
        return [self.rewrite(predicate, scope) for predicate in predicates]

    def rewrite_filters(
        self, filters: Dict[str, List[Expression]]
    ) -> Dict[str, List[Expression]]:
        return {
            alias: self.rewrite_predicates(predicates, alias)
            for alias, predicates in filters.items()
        }

    def rewrite_output(self, output: OutputColumn) -> Tuple[OutputColumn, Optional[Decoder]]:
        """Rewrite one output column; returns (column, boundary decoder).

        Pass-through references to encoded columns keep flowing as codes —
        the returned decoder is applied exactly once, at the result
        boundary.  Computed outputs decode at access instead (their result
        is already a plain value).
        """
        expression = output.expression
        if isinstance(expression, ColumnRef):
            codec = self._codec_of(expression, None)
            if codec is _AMBIGUOUS:
                return OutputColumn(self._wrap(expression), output.alias), None
            if codec is None:
                return output, None
            return output, codec.decode
        if not isinstance(expression, _REBUILDABLE):
            return OutputColumn(self._wrap(expression), output.alias), None
        if not self._touches_encoded(expression, None):
            return output, None
        return OutputColumn(self._decode_subst(expression, None), output.alias), None

    def rewrite_outputs(
        self, outputs: List[OutputColumn]
    ) -> Tuple[List[OutputColumn], Dict[str, Decoder]]:
        rewritten: List[OutputColumn] = []
        decoders: Dict[str, Decoder] = {}
        for output in outputs:
            column, decoder = self.rewrite_output(output)
            rewritten.append(column)
            if decoder is not None:
                decoders[output.alias] = decoder
        return rewritten, decoders

    def rewrite_aggregate(self, aggregate: AggregateSpec) -> AggregateSpec:
        """Aggregate arguments always decode at access: MIN/MAX order on
        values, and NULL skipping keys on ``None``, not the sentinel."""
        argument = aggregate.argument
        if argument is None:
            return aggregate
        if not isinstance(argument, _REBUILDABLE):
            return AggregateSpec(aggregate.function, self._wrap(argument), aggregate.alias)
        if not self._touches_encoded(argument, None):
            return aggregate
        return AggregateSpec(
            aggregate.function, self._decode_subst(argument, None), aggregate.alias
        )

    def rewrite_aggregates(self, aggregates: List[AggregateSpec]) -> List[AggregateSpec]:
        return [self.rewrite_aggregate(aggregate) for aggregate in aggregates]

    # -- per-node fast forms ------------------------------------------
    def _rewrite_comparison(self, expression: Comparison, scope: Optional[str]) -> Expression:
        left, right = expression.left, expression.right
        op = expression.op
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            return self._col_vs_literal(expression, left, right.value, op, scope)
        if isinstance(right, ColumnRef) and isinstance(left, Literal):
            return self._col_vs_literal(expression, right, left.value, _FLIP[op], scope)
        if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
            return self._col_vs_col(expression, scope)
        if self._touches_encoded(expression, scope):
            return self._decode_subst(expression, scope)
        return expression

    def _col_vs_literal(
        self,
        expression: Comparison,
        ref: ColumnRef,
        literal: Any,
        op: str,
        scope: Optional[str],
    ) -> Expression:
        codec = self._codec_of(ref, scope)
        if codec is None:
            return expression
        if codec is _AMBIGUOUS:
            return self._wrap(expression)
        if codec.kind == CODE:
            if not isinstance(literal, str):
                # cross-type comparison: un-rewritten semantics via decode
                return self._decode_subst(expression, scope)
            if op in _EQ_OPS:
                return Comparison(op, ref, Literal(codec.dictionary.code_for(literal)))
            if op in _NE_OPS:
                # NULL != literal must stay False: guard on the sentinel
                return And(
                    [
                        Comparison("!=", ref, Literal(NULL_CODE)),
                        Comparison(op, ref, Literal(codec.dictionary.code_for(literal))),
                    ]
                )
            # string ordering: one pass over the dictionary, O(1) per row
            compare = {
                "<": lambda v: v < literal,
                "<=": lambda v: v <= literal,
                ">": lambda v: v > literal,
                ">=": lambda v: v >= literal,
            }[op]
            table = CodeTable(codec.dictionary, compare, f"{ref!r} {op} {literal!r}")
            return DictionaryPredicate(ref, table)
        # epoch-day dates
        if not _is_plain_date(literal):
            return self._decode_subst(expression, scope)
        days = Literal(date_to_epoch_day(literal))
        if op in _EQ_OPS or op in (">", ">="):
            # the sentinel is below every valid day: NULL fails naturally
            return Comparison(op, ref, days)
        # <, <=, !=: the sentinel would pass, so guard it out
        return And(
            [
                Comparison("!=", ref, Literal(DATE_NULL_SENTINEL)),
                Comparison(op, ref, days),
            ]
        )

    def _col_vs_col(self, expression: Comparison, scope: Optional[str]) -> Expression:
        left, right = expression.left, expression.right
        left_codec = self._codec_of(left, scope)
        right_codec = self._codec_of(right, scope)
        if left_codec is None and right_codec is None:
            return expression
        if left_codec is _AMBIGUOUS or right_codec is _AMBIGUOUS:
            return self._wrap(expression)
        if left_codec is None or right_codec is None or left_codec.kind != right_codec.kind:
            # mixed encoded/raw or mixed kinds: un-rewritten semantics via decode
            return self._decode_subst(expression, scope)
        op = expression.op
        sentinel = Literal(left_codec.null_sentinel)
        if left_codec.kind == CODE and op not in _EQ_OPS and op not in _NE_OPS:
            # string ordering across two columns: codes are not ordered
            return self._decode_subst(expression, scope)
        if op in _EQ_OPS:
            # equal non-sentinel codes imply both sides non-NULL
            return And([Comparison("!=", left, sentinel), Comparison(op, left, right)])
        return And(
            [
                Comparison("!=", left, sentinel),
                Comparison("!=", right, sentinel),
                Comparison(op, left, right),
            ]
        )

    def _rewrite_in_list(self, expression: InList, scope: Optional[str]) -> Expression:
        ref = expression.operand
        if not isinstance(ref, ColumnRef):
            if self._touches_encoded(expression, scope):
                return self._decode_subst(expression, scope)
            return expression
        codec = self._codec_of(ref, scope)
        if codec is None:
            return expression
        if codec is _AMBIGUOUS:
            return self._wrap(expression)
        if any(isinstance(item, Expression) for item in expression.values):
            # parameters inside the IN-list: decode at access
            return self._decode_subst(expression, scope)
        if codec.kind == CODE:
            # non-string items can never equal a string value: drop them
            codes = tuple(
                codec.dictionary.code_for(item)
                for item in expression.values
                if isinstance(item, str)
            )
        else:
            if any(isinstance(item, _dt.datetime) for item in expression.values):
                return self._decode_subst(expression, scope)
            codes = tuple(
                date_to_epoch_day(item)
                for item in expression.values
                if _is_plain_date(item)
            )
        membership = InList(ref, codes, expression.negated)
        if not expression.negated:
            # NULL codes are negative and never appear in ``codes``
            return membership
        # NULL NOT IN (...) must stay False: guard on the sentinel
        return And([Comparison("!=", ref, Literal(codec.null_sentinel)), membership])

    def _rewrite_is_null(self, expression: IsNull, scope: Optional[str]) -> Expression:
        ref = expression.operand
        if isinstance(ref, ColumnRef):
            codec = self._codec_of(ref, scope)
            if codec is None:
                return expression
            if codec is _AMBIGUOUS:
                return self._wrap(expression)
            sentinel = Literal(codec.null_sentinel)
            if expression.negated:
                # real NULLs carry the sentinel; padded rows carry None
                return And([Comparison("!=", ref, sentinel), IsNull(ref, negated=True)])
            return Or([Comparison("=", ref, sentinel), IsNull(ref)])
        if self._touches_encoded(expression, scope):
            return self._decode_subst(expression, scope)
        return expression

    def _rewrite_between(self, expression: Between, scope: Optional[str]) -> Expression:
        ref = expression.operand
        low, high = expression.low, expression.high
        if (
            not isinstance(ref, ColumnRef)
            or not isinstance(low, Literal)
            or not isinstance(high, Literal)
        ):
            if self._touches_encoded(expression, scope):
                return self._decode_subst(expression, scope)
            return expression
        codec = self._codec_of(ref, scope)
        if codec is None:
            return expression
        if codec is _AMBIGUOUS:
            return self._wrap(expression)
        if codec.kind == CODE:
            if not isinstance(low.value, str) or not isinstance(high.value, str):
                return self._decode_subst(expression, scope)
            low_value, high_value = low.value, high.value
            table = CodeTable(
                codec.dictionary,
                lambda v: low_value <= v <= high_value,
                f"{ref!r} BETWEEN {low_value!r} AND {high_value!r}",
            )
            return DictionaryPredicate(ref, table)
        if not _is_plain_date(low.value) or not _is_plain_date(high.value):
            return self._decode_subst(expression, scope)
        # the sentinel is below every valid range: NULL fails naturally
        return Between(
            ref,
            Literal(date_to_epoch_day(low.value)),
            Literal(date_to_epoch_day(high.value)),
        )

    def _rewrite_like(self, expression: Like, scope: Optional[str]) -> Expression:
        ref = expression.operand
        if not isinstance(ref, ColumnRef):
            if self._touches_encoded(expression, scope):
                return self._decode_subst(expression, scope)
            return expression
        codec = self._codec_of(ref, scope)
        if codec is None:
            return expression
        if codec is _AMBIGUOUS:
            return self._wrap(expression)
        if codec.kind != CODE:
            # LIKE over a date column stringifies the value: decode path
            return self._decode_subst(expression, scope)
        regex = like_regex(expression.pattern)
        negated = expression.negated
        if negated:
            predicate = lambda v: regex.fullmatch(v) is None  # noqa: E731
        else:
            predicate = lambda v: regex.fullmatch(v) is not None  # noqa: E731
        table = CodeTable(
            codec.dictionary,
            predicate,
            f"{ref!r} {'NOT ' if negated else ''}LIKE {expression.pattern!r}",
        )
        return DictionaryPredicate(ref, table)


# ----------------------------------------------------------------------
# boundary decoding
# ----------------------------------------------------------------------
def decode_output_rows(
    rows: List[Dict[str, Any]], decoders: Dict[str, Decoder]
) -> List[Dict[str, Any]]:
    """Decode pass-through encoded columns in result rows, in place.

    The single decode at the public boundary: every row dict produced by
    the fragment paths (kernel and reference) funnels through here
    before it reaches :class:`~repro.core.executor.QueryResult`.
    """
    if not decoders:
        return rows
    items = list(decoders.items())
    for row in rows:
        for name, decode in items:
            if name in row:
                row[name] = decode(row[name])
    return rows


__all__ = [
    "CodeTable",
    "DecodeExpr",
    "DecodedContext",
    "Decoder",
    "DictionaryPredicate",
    "FragmentRewriter",
    "decode_output_rows",
]
