"""Scalar and predicate expressions.

Expressions appear in WHERE clauses (selections pushed to attribute
vertices in the TAG-join reduction phase, paper Section 7), in SELECT lists
and in aggregate arguments.  They evaluate against a *row context*: a
mapping from qualified column names (``alias.column``) to values;
unqualified names are also resolvable when unambiguous.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..relational.types import NULL

RowContext = Dict[str, Any]


class ExpressionError(ValueError):
    """Raised for malformed expressions or unresolvable column references."""


class Expression:
    """Base class of all scalar / boolean expressions."""

    def evaluate(self, context: RowContext) -> Any:
        raise NotImplementedError

    def columns(self) -> FrozenSet[str]:
        """Qualified column names referenced by this expression."""
        return frozenset()

    # small algebra for composing predicates in builders and tests
    def __and__(self, other: "Expression") -> "Expression":
        return And([self, other])

    def __or__(self, other: "Expression") -> "Expression":
        return Or([self, other])

    def __invert__(self) -> "Expression":
        return negate(self)


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: Any

    def evaluate(self, context: RowContext) -> Any:
        return self.value

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


@dataclass(frozen=True)
class ColumnRef(Expression):
    """Reference to ``table_alias.column`` (alias may be None when unambiguous)."""

    column: str
    table: Optional[str] = None

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column

    def evaluate(self, context: RowContext) -> Any:
        key = self.qualified
        if key in context:
            return context[key]
        if self.table is None:
            # fall back to a unique suffix match: "col" matching "alias.col"
            matches = [k for k in context if k.endswith(f".{self.column}") or k == self.column]
            if len(matches) == 1:
                return context[matches[0]]
            if not matches:
                raise ExpressionError(f"unresolved column {self.column!r}")
            raise ExpressionError(f"ambiguous column {self.column!r}: {sorted(matches)}")
        raise ExpressionError(f"unresolved column {key!r}")

    def columns(self) -> FrozenSet[str]:
        return frozenset([self.qualified])

    def __repr__(self) -> str:
        return f"Col({self.qualified})"


_COMPARISONS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ARITHMETIC: Dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
}


@dataclass(frozen=True)
class Comparison(Expression):
    """Binary comparison; SQL three-valued logic (NULL operand -> False)."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARISONS:
            raise ExpressionError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, context: RowContext) -> bool:
        left = self.left.evaluate(context)
        right = self.right.evaluate(context)
        if left is NULL or right is NULL:
            return False
        return _COMPARISONS[self.op](left, right)

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class Arithmetic(Expression):
    """Binary arithmetic over numeric operands; NULL propagates."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _ARITHMETIC:
            raise ExpressionError(f"unknown arithmetic operator {self.op!r}")

    def evaluate(self, context: RowContext) -> Any:
        left = self.left.evaluate(context)
        right = self.right.evaluate(context)
        if left is NULL or right is NULL:
            return NULL
        return _ARITHMETIC[self.op](left, right)

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class And(Expression):
    operands: Tuple[Expression, ...]

    def __init__(self, operands: Sequence[Expression]) -> None:
        object.__setattr__(self, "operands", tuple(operands))

    def evaluate(self, context: RowContext) -> bool:
        return all(operand.evaluate(context) for operand in self.operands)

    def columns(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for operand in self.operands:
            result |= operand.columns()
        return result

    def __repr__(self) -> str:
        return " AND ".join(repr(operand) for operand in self.operands)


@dataclass(frozen=True)
class Or(Expression):
    operands: Tuple[Expression, ...]

    def __init__(self, operands: Sequence[Expression]) -> None:
        object.__setattr__(self, "operands", tuple(operands))

    def evaluate(self, context: RowContext) -> bool:
        return any(operand.evaluate(context) for operand in self.operands)

    def columns(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for operand in self.operands:
            result |= operand.columns()
        return result

    def __repr__(self) -> str:
        return "(" + " OR ".join(repr(operand) for operand in self.operands) + ")"


@dataclass(frozen=True)
class IsNull(Expression):
    operand: Expression
    negated: bool = False

    def evaluate(self, context: RowContext) -> bool:
        is_null = self.operand.evaluate(context) is NULL
        return not is_null if self.negated else is_null

    def columns(self) -> FrozenSet[str]:
        return self.operand.columns()


@dataclass(frozen=True)
class InList(Expression):
    """``expr IN (v1, v2, ...)``.

    Elements are plain literal values; an element may also be an
    :class:`Expression` (a query parameter inside the IN-list), evaluated
    against the row context like any other expression.
    """

    operand: Expression
    values: Tuple[Any, ...]
    negated: bool = False

    def __init__(self, operand: Expression, values: Iterable[Any], negated: bool = False) -> None:
        object.__setattr__(self, "operand", operand)
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "negated", negated)

    def evaluate(self, context: RowContext) -> bool:
        value = self.operand.evaluate(context)
        if value is NULL:
            return False
        result = any(
            value == (item.evaluate(context) if isinstance(item, Expression) else item)
            for item in self.values
        )
        return not result if self.negated else result

    def columns(self) -> FrozenSet[str]:
        result = self.operand.columns()
        for item in self.values:
            if isinstance(item, Expression):
                result |= item.columns()
        return result


@dataclass(frozen=True)
class Between(Expression):
    """``expr BETWEEN low AND high`` (inclusive)."""

    operand: Expression
    low: Expression
    high: Expression

    def evaluate(self, context: RowContext) -> bool:
        value = self.operand.evaluate(context)
        low = self.low.evaluate(context)
        high = self.high.evaluate(context)
        if value is NULL or low is NULL or high is NULL:
            return False
        return low <= value <= high

    def columns(self) -> FrozenSet[str]:
        return self.operand.columns() | self.low.columns() | self.high.columns()


@dataclass(frozen=True)
class Like(Expression):
    """SQL LIKE with ``%`` and ``_`` wildcards."""

    operand: Expression
    pattern: str
    negated: bool = False

    def __post_init__(self) -> None:
        # translated once here, not once per evaluated row
        object.__setattr__(self, "_regex", like_regex(self.pattern))

    def evaluate(self, context: RowContext) -> bool:
        value = self.operand.evaluate(context)
        if value is NULL:
            return False
        matched = self._regex.fullmatch(str(value)) is not None
        return not matched if self.negated else matched

    def columns(self) -> FrozenSet[str]:
        return self.operand.columns()


_COMPLEMENTS = {
    "=": "<>",
    "==": "<>",
    "!=": "=",
    "<>": "=",
    "<": ">=",
    ">=": "<",
    ">": "<=",
    "<=": ">",
}


def negate(expression: Expression) -> Expression:
    """``NOT expression`` in negation normal form: no node negates another.

    De Morgan over ``And``/``Or``, the complementary comparison, a flipped
    ``negated`` flag on ``InList``/``Like``/``IsNull``, ``x < low OR
    x > high`` for ``Between``, a flipped boolean literal (NULL stays
    NULL) and ``= FALSE`` for a bare column or parameter.  Every atom is
    False on NULL, so the result keeps exactly the rows SQL's WHERE keeps
    for ``NOT expression`` (UNKNOWN and FALSE both drop a row) and no
    evaluator needs a third truth value.  Raises :class:`ExpressionError`
    for anything else.
    """
    from .parameters import ParameterRef  # parameters imports this module

    if isinstance(expression, And):
        return Or([negate(operand) for operand in expression.operands])
    if isinstance(expression, Or):
        return And([negate(operand) for operand in expression.operands])
    if isinstance(expression, Comparison):
        return Comparison(_COMPLEMENTS[expression.op], expression.left, expression.right)
    if isinstance(expression, (InList, Like, IsNull)):
        return replace(expression, negated=not expression.negated)
    if isinstance(expression, Between):
        below = Comparison("<", expression.operand, expression.low)
        return Or([below, Comparison(">", expression.operand, expression.high)])
    if isinstance(expression, Literal) and expression.value is NULL:
        return expression
    if isinstance(expression, Literal) and isinstance(expression.value, bool):
        return Literal(not expression.value)
    if isinstance(expression, (ColumnRef, ParameterRef)):
        return Comparison("=", expression, Literal(False))
    raise ExpressionError(f"NOT is not defined over {expression!r}")


def like_regex(pattern: str):
    """Compile a SQL LIKE pattern (``%``/``_`` wildcards) to a regex.

    The single source of truth for LIKE semantics: both the interpreted
    :class:`Like` evaluation and the slot compiler's precompiled variant
    (:mod:`repro.exec.expr`) translate through here, so the two execution
    paths cannot diverge.  ``%`` and ``_`` match any character, a newline
    included, as in SQL.
    """
    import re

    regex_parts: List[str] = []
    for character in pattern:
        if character == "%":
            regex_parts.append(".*")
        elif character == "_":
            regex_parts.append(".")
        else:
            regex_parts.append(re.escape(character))
    return re.compile("".join(regex_parts), re.DOTALL)


# ----------------------------------------------------------------------
# convenience constructors used heavily by tests and the workload queries
# ----------------------------------------------------------------------
def col(name: str, table: Optional[str] = None) -> ColumnRef:
    """``col("O_CUSTKEY", "o")`` or ``col("o.O_CUSTKEY")``."""
    if table is None and "." in name:
        table, name = name.split(".", 1)
    return ColumnRef(name, table)


def lit(value: Any) -> Literal:
    return Literal(value)


def eq(left: Expression, right: Expression) -> Comparison:
    return Comparison("=", left, right)


def referenced_aliases(expression: Expression) -> FrozenSet[str]:
    """The aliases whose columns ``expression`` reads (qualified names only)."""
    return frozenset(
        qualified.split(".", 1)[0] for qualified in expression.columns() if "." in qualified
    )


def conjunction(predicates: Sequence[Expression]) -> Optional[Expression]:
    """AND together a list of predicates (None for an empty list)."""
    if not predicates:
        return None
    if len(predicates) == 1:
        return predicates[0]
    return And(list(predicates))


def split_conjuncts(predicate: Optional[Expression]) -> List[Expression]:
    """Flatten nested ANDs into a list of conjuncts."""
    if predicate is None:
        return []
    if isinstance(predicate, And):
        conjuncts: List[Expression] = []
        for operand in predicate.operands:
            conjuncts.extend(split_conjuncts(operand))
        return conjuncts
    return [predicate]
