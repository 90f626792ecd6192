"""Randomized cross-engine differential harness.

Hypothesis strategies generate :class:`QueryCase` objects — SQL text plus
parameter bindings covering joins along the dataset's FK chain, filters
with comparisons / IN / BETWEEN / LIKE / IS NULL and NOT over them,
residual column-column predicates, parameters, and GROUP BY / scalar
aggregates; the
``extra_equality_cases`` variant also adds a second ``=`` over a nullable
column between two aliases, which the TAG engines either route on or check
at a collection merge, and the ``subquery`` variant a correlated EXISTS /
NOT EXISTS / IN / NOT IN / scalar subquery, correlated on integer columns
(the nullable ``O_PRIO`` among them) — and
:func:`run_case` executes each across every execution path of the
reproduction:

============ ===================================================
engine       execution path
============ ===================================================
tag_dict     TAG-join, dict rows (the reference oracle)
tag          TAG-join kernel at the shipped columnar threshold
tag@columnar the same engine with the threshold pinned to 0
             (every table a column batch)
tag@tuples   ... and pinned to "never" (every table tuple rows)
tag@lookup   ``tag`` taking every forward lookup of a correlated
             subquery that can be taken, whether it pays or not
rdbms        iterator-model relational baseline
spark        distributed shuffle/broadcast baseline
============ ===================================================

Row *multiset* equality is asserted (ordering is not part of any engine's
contract), with floats rounded to 6 decimals across engine families and
**exact** equality required inside the TAG family.  A failing case raises
with a standalone, seed-free repro script embedded in the message, so a
falsifying example from CI can be replayed locally by copy-paste.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple
from unittest import mock

import datetime as dt

from hypothesis import assume
from hypothesis import strategies as st

from differential_dataset import build_catalog
from repro.api import Database
from repro.core import subquery as subquery_module
from repro.exec import program as kernel_program

ENGINE_NAMES = ("tag_dict", "tag", "rdbms", "spark")

#: the ``tag`` engine re-run with the kernel's size threshold pinned, so
#: every generated query also executes fully columnar and fully as tuples
#: however small or large its tables are
TAG_REGIMES = {"tag@columnar": 0, "tag@tuples": sys.maxsize}
TAG_FAMILY = ("tag_dict", "tag", *TAG_REGIMES, "tag@lookup")


def run_on_every_path(database: Database, sql: str, params: Optional[Dict[str, Any]] = None):
    """``{path name: QueryResult}`` over the engines plus the pinned ``tag`` regimes."""
    results = {
        engine: database.connect(engine=engine).sql(sql, params=params or None)
        for engine in ENGINE_NAMES
    }
    for name, threshold in TAG_REGIMES.items():
        with mock.patch.object(kernel_program, "COLUMNAR_THRESHOLD", threshold):
            results[name] = database.connect(engine="tag").sql(sql, params=params or None)
    with mock.patch.object(subquery_module, "lookup_pays", lambda *_: True):
        results["tag@lookup"] = database.connect(engine="tag").sql(sql, params=params or None)
    return results

#: FK edges of the dataset: (child table, child column, parent table, parent column)
FK_EDGES = (
    ("CUST", "C_REGION", "REGION", "R_ID"),
    ("ORD", "O_CUST", "CUST", "C_ID"),
    ("ITEM", "I_ORD", "ORD", "O_ID"),
)

#: per-table column typing used by the generators
INT_COLUMNS = {
    "REGION": ["R_ID"],
    "CUST": ["C_ID", "C_REGION"],
    "ORD": ["O_ID", "O_CUST", "O_PRIO"],
    "ITEM": ["I_ID", "I_ORD", "I_QTY"],
}
FLOAT_COLUMNS = {
    "REGION": [],
    "CUST": ["C_SCORE"],
    "ORD": ["O_TOTAL"],
    "ITEM": ["I_PRICE"],
}
STRING_COLUMNS = {
    "REGION": ["R_NAME"],
    # C_NOTE: high-cardinality unicode; O_REF: near-unique reference codes;
    # I_MEMO: all-NULL — predicates over them stress the dictionary paths
    "CUST": ["C_NAME", "C_TIER", "C_NOTE"],
    "ORD": ["O_STATUS", "O_REF"],
    "ITEM": ["I_TAG", "I_MEMO"],
}
DATE_COLUMNS = {"REGION": [], "CUST": ["C_SINCE"], "ORD": [], "ITEM": []}
NULLABLE_COLUMNS = {
    "REGION": [],
    "CUST": ["C_SCORE", "C_TIER"],
    "ORD": ["O_PRIO"],
    "ITEM": ["I_TAG", "I_MEMO"],
}
#: (outer table, column, inner table, column) a correlated subquery may
#: equate: the FK edges both ways, and every integer column with itself
CORRELATIONS = sorted(
    {edge for child, c_col, parent, p_col in FK_EDGES
     for edge in ((child, c_col, parent, p_col), (parent, p_col, child, c_col))}
    | {(table, column, table, column) for table, columns in INT_COLUMNS.items()
       for column in columns}
)
#: columns safe for GROUP BY keys (non-null, low-to-medium cardinality)
GROUPABLE_COLUMNS = {
    "REGION": ["R_ID", "R_NAME"],
    "CUST": ["C_REGION"],
    "ORD": ["O_STATUS", "O_CUST"],
    "ITEM": ["I_QTY"],
}

_CATALOG = build_catalog()

#: sample pools of actual column values, so generated literals frequently
#: select something (all-empty results would test very little)
VALUE_POOLS: Dict[Tuple[str, str], List[Any]] = {}
for _relation in _CATALOG.relations():
    for _column in _relation.schema.columns:
        _values = sorted(
            {value for value in _relation.column_values(_column.name) if value is not None},
            key=lambda value: (type(value).__name__, str(value)),
        )
        VALUE_POOLS[(_relation.name, _column.name)] = _values[:64]


@dataclass
class QueryCase:
    """One generated differential query: SQL text plus parameter bindings."""

    sql: str
    params: Dict[str, Any] = field(default_factory=dict)
    description: str = ""

    def repro_script(self) -> str:
        """A standalone script replaying this exact case across all engines."""
        return f'''# differential-harness repro (paste into a file at the repo root and run)
import sys
sys.path[:0] = ["src", "tests/differential"]
from differential_harness import make_database, run_on_every_path

sql = """{self.sql}"""
params = {self.params!r}
for path, result in run_on_every_path(make_database(), sql, params).items():
    print(path, len(result.rows), sorted(result.to_tuples())[:10])
'''


def sql_literal(value: Any) -> str:
    if isinstance(value, dt.date):
        return f"DATE '{value.isoformat()}'"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return repr(value)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def join_trees(
    draw, min_extra: int = 0
) -> List[Tuple[str, str, Optional[Tuple[str, str, str, str]]]]:
    """A connected alias tree along FK edges, of ``1 + min_extra`` to 4 aliases.

    Returns ``[(alias, table, join)]`` where ``join`` is
    ``(alias_column, other_alias, other_column, other_table)`` — None for
    the root.  Self-joins arise naturally when the same table is attached
    twice (two ITEM aliases under one ORD, say).
    """
    tables = ("REGION", "CUST", "ORD", "ITEM")
    root = draw(st.sampled_from(tables))
    aliases: List[Tuple[str, str, Optional[Tuple[str, str, str, str]]]] = [
        ("t0", root, None)
    ]
    extra = draw(st.integers(min_value=min_extra, max_value=3))
    for _ in range(extra):
        # candidate attachments: any FK edge touching any existing alias
        candidates = []
        for alias, table, _join in aliases:
            for child, child_col, parent, parent_col in FK_EDGES:
                if table == child:
                    candidates.append((parent, parent_col, alias, child_col))
                if table == parent:
                    candidates.append((child, child_col, alias, parent_col))
        new_table, new_column, other_alias, other_column = draw(
            st.sampled_from(sorted(set(candidates)))
        )
        other_table = next(t for a, t, _ in aliases if a == other_alias)
        aliases.append(
            (
                f"t{len(aliases)}",
                new_table,
                (new_column, other_alias, other_column, other_table),
            )
        )
    return aliases


@st.composite
def filter_predicates(draw, alias: str, table: str) -> Tuple[str, Optional[Any]]:
    """One WHERE predicate for an alias; returns (sql, parameter value or None).

    When a parameter value is returned, the SQL contains ``{param}`` where
    the caller must splice the parameter's name.  Sometimes the predicate
    is ``NOT (p)`` or ``NOT (p OR q)``: the binder rewrites it to the
    complemented atoms, which then take the code-space rewrites (date
    ranges, the string dictionary's side table, IN over codes) as any
    atom does.  ``q``'s parameter, if it drew one, is inlined as a literal.
    """
    predicate, value = draw(filter_atoms(alias, table))
    shape = draw(st.sampled_from(["atom", "atom", "atom", "not", "not_or"]))
    if shape == "atom":
        return predicate, value
    if shape == "not_or":
        other, other_value = draw(filter_atoms(alias, table))
        if other_value is not None:
            other = other.format(param=sql_literal(other_value))
        predicate = f"{predicate} OR {other}"
    return f"NOT ({predicate})", value


@st.composite
def filter_atoms(draw, alias: str, table: str) -> Tuple[str, Optional[Any]]:
    """One comparison / IN / BETWEEN / LIKE / IS NULL predicate (the last
    four sometimes with their own NOT), as :func:`filter_predicates`
    returns it."""
    kinds = ["compare_num", "in_list", "between"]
    if STRING_COLUMNS[table]:
        kinds += ["compare_str", "like"]
    if NULLABLE_COLUMNS[table]:
        kinds.append("is_null")
    if DATE_COLUMNS[table]:
        kinds.append("compare_date")
    kind = draw(st.sampled_from(kinds))

    def pool(column: str) -> List[Any]:
        values = VALUE_POOLS[(table, column)]
        if values:
            return values
        # empty pool (the all-NULL column): a typed never-matching literal
        return ["∅-no-match"] if column in STRING_COLUMNS[table] else [0]

    if kind == "is_null":
        column = draw(st.sampled_from(NULLABLE_COLUMNS[table]))
        negated = draw(st.booleans())
        return (f"{alias}.{column} IS {'NOT ' if negated else ''}NULL", None)

    if kind == "like":
        column = draw(st.sampled_from(STRING_COLUMNS[table]))
        value = str(draw(st.sampled_from(pool(column))))
        shape = draw(st.sampled_from(["prefix", "suffix", "infix", "underscore"]))
        if shape == "prefix":
            pattern = value[: max(1, len(value) // 2)] + "%"
        elif shape == "suffix":
            pattern = "%" + value[len(value) // 2 :]
        elif shape == "infix":
            pattern = "%" + value[1:-1] + "%" if len(value) > 2 else value
        else:
            pattern = "_" + value[1:] if value else "%"
        negated = draw(st.booleans())
        return (f"{alias}.{column} {'NOT ' if negated else ''}LIKE {sql_literal(pattern)}", None)

    if kind == "in_list":
        columns = INT_COLUMNS[table] + STRING_COLUMNS[table]
        column = draw(st.sampled_from(columns))
        values = pool(column)
        # the all-NULL column's pool is a single never-matching literal:
        # an IN list cannot draw 2 unique members from it
        members = draw(
            st.lists(
                st.sampled_from(values),
                min_size=min(2, len(values)),
                max_size=4,
                unique=True,
            )
        )
        # occasionally poison the list with a member of the *wrong* type:
        # SQL-wise it can simply never match, and every engine must agree
        # (this is exactly where dtype-promotion bugs hide)
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            # (positive literal: the SQL grammar has no unary minus)
            odd = "zz-no-match" if isinstance(members[0], int) else 987654
            members = members + [odd]
        negated = draw(st.booleans())
        rendered = ", ".join(sql_literal(member) for member in members)
        return (f"{alias}.{column} {'NOT ' if negated else ''}IN ({rendered})", None)

    if kind == "between":
        columns = INT_COLUMNS[table] + FLOAT_COLUMNS[table]
        column = draw(st.sampled_from(columns))
        values = pool(column)
        low, high = sorted(
            [draw(st.sampled_from(values)), draw(st.sampled_from(values))]
        )
        negated = draw(st.booleans())
        return (
            f"{alias}.{column} {'NOT ' if negated else ''}BETWEEN "
            f"{sql_literal(low)} AND {sql_literal(high)}",
            None,
        )

    if kind == "compare_str":
        column = draw(st.sampled_from(STRING_COLUMNS[table]))
        op = draw(st.sampled_from(["=", "!=", "<", ">="]))
        value = draw(st.sampled_from(pool(column)))
    elif kind == "compare_date":
        column = draw(st.sampled_from(DATE_COLUMNS[table]))
        op = draw(st.sampled_from(["<", "<=", ">", ">="]))
        value = draw(st.sampled_from(pool(column)))
    else:  # compare_num
        columns = INT_COLUMNS[table] + FLOAT_COLUMNS[table]
        column = draw(st.sampled_from(columns))
        op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
        value = draw(st.sampled_from(pool(column)))
    # numeric/string comparisons may become prepared-statement parameters
    parameterize = kind != "compare_date" and draw(st.booleans())
    if parameterize:
        return (f"{alias}.{column} {op} {{param}}", value)
    return (f"{alias}.{column} {op} {sql_literal(value)}", None)


#: the type families an extra equality may compare within
COLUMN_FAMILIES = (INT_COLUMNS, FLOAT_COLUMNS, STRING_COLUMNS)


@st.composite
def extra_equalities(draw, alias_tables: List[Tuple[str, str]]) -> str:
    """A second ``=`` between two aliases: ``a.N = b.C`` with ``N`` nullable.

    ``N`` is a nullable non-key column and ``C`` any column of its type
    family on another alias — one the tree already joins ``a`` to (a
    multi-key edge) or one it does not (a cycle-closing condition).  The
    TAG engines route on the condition when its NDV is the edge's highest
    and otherwise check it at a collection merge; either way NULL must
    never equal NULL.
    """
    candidates = []
    for alias_a, table_a in alias_tables:
        for column_a in NULLABLE_COLUMNS[table_a]:
            family = next(f for f in COLUMN_FAMILIES if column_a in f[table_a])
            for alias_b, table_b in alias_tables:
                if alias_b != alias_a:
                    candidates.extend(
                        f"{alias_a}.{column_a} = {alias_b}.{column_b}"
                        for column_b in family[table_b]
                    )
    assume(candidates)
    return draw(st.sampled_from(candidates))


def bind_parameter(predicate: str, value: Optional[Any], params: Dict[str, Any]) -> str:
    """Name ``value`` (if any) as the next parameter and splice it in."""
    if value is None:
        return predicate
    name = f"p{len(params)}"
    params[name] = value
    return predicate.format(param=f":{name}")


@st.composite
def subquery_predicates(
    draw, alias_tables: List[Tuple[str, str]], params: Dict[str, Any]
) -> str:
    """One correlated subquery predicate on an outer alias.

    The inner block correlates one :data:`CORRELATIONS` pair, sometimes
    joins a second relation along an FK edge (so the alias a forward
    lookup restricts need not start the inner traversal) and sometimes
    filters its correlated alias.
    """
    outer_alias, outer_table = draw(st.sampled_from(alias_tables))
    outer_column, inner_table, inner_column = draw(
        st.sampled_from([pair[1:] for pair in CORRELATIONS if pair[0] == outer_table])
    )
    tables = [f"{inner_table} s0"]
    where = [f"s0.{inner_column} = {outer_alias}.{outer_column}"]
    if draw(st.booleans()):
        new_table, new_column, other_column = draw(
            st.sampled_from(
                [(c, c_col, p_col) for c, c_col, p, p_col in FK_EDGES if p == inner_table]
                + [(p, p_col, c_col) for c, c_col, p, p_col in FK_EDGES if c == inner_table]
            )
        )
        tables.append(f"{new_table} s1")
        where.append(f"s1.{new_column} = s0.{other_column}")
    if draw(st.booleans()):
        where.append(bind_parameter(*draw(filter_predicates("s0", inner_table)), params))
    body = f"FROM {', '.join(tables)} WHERE {' AND '.join(where)}"

    kind = draw(st.sampled_from(["exists", "not_exists", "in", "not_in", "scalar"]))
    if kind in ("exists", "not_exists"):
        negated = "NOT " if kind == "not_exists" else ""
        return f"{negated}EXISTS (SELECT s0.{inner_column} {body})"
    if kind in ("in", "not_in"):
        probe = draw(st.sampled_from(INT_COLUMNS[outer_table]))
        member = draw(st.sampled_from(INT_COLUMNS[inner_table]))
        negated = "NOT " if kind == "not_in" else ""
        return f"{outer_alias}.{probe} {negated}IN (SELECT s0.{member} {body})"
    probe = draw(st.sampled_from(INT_COLUMNS[outer_table] + FLOAT_COLUMNS[outer_table]))
    argument = draw(st.sampled_from(INT_COLUMNS[inner_table] + FLOAT_COLUMNS[inner_table]))
    aggregate = draw(st.sampled_from(["AVG", "MIN", "MAX", "SUM"]))
    op = draw(st.sampled_from(["<", "<=", ">", ">=", "=", "!="]))
    return f"{outer_alias}.{probe} {op} (SELECT {aggregate}(s0.{argument}) {body})"


@st.composite
def query_cases(draw, extra_equality: bool = False, subquery: bool = False) -> QueryCase:
    """A complete differential query: joins + filters + projection/aggregates.

    ``extra_equality`` adds one :func:`extra_equalities` condition to a
    tree of at least two aliases, and ``subquery`` one
    :func:`subquery_predicates` conjunct; without them the draws (and so
    the cases a seed yields) are exactly those of the plain strategy.
    """
    tree = draw(join_trees(min_extra=1 if extra_equality else 0))
    alias_tables = [(alias, table) for alias, table, _ in tree]

    from_clause = ", ".join(f"{table} {alias}" for alias, table, _ in tree)
    where: List[str] = []
    params: Dict[str, Any] = {}
    for alias, _table, join in tree:
        if join is not None:
            column, other_alias, other_column, _other_table = join
            where.append(f"{alias}.{column} = {other_alias}.{other_column}")
    if extra_equality:
        where.append(draw(extra_equalities(alias_tables)))

    # per-alias filters
    filter_count = draw(st.integers(min_value=0, max_value=3))
    for _ in range(filter_count):
        alias, table = draw(st.sampled_from(alias_tables))
        predicate, value = draw(filter_predicates(alias, table))
        if value is not None:
            name = f"p{len(params)}"
            params[name] = value
            predicate = predicate.format(param=f":{name}")
        where.append(predicate)

    # cross-alias OR disjunction: cannot be pushed down to either alias, so
    # it lands in residual position and exercises the batch expression
    # compiler's literal comparison / IN / LIKE paths (single-alias filters
    # run per tuple vertex and would never reach them)
    if len(alias_tables) >= 2 and draw(st.booleans()):
        (alias_a, table_a), (alias_b, table_b) = draw(
            st.lists(st.sampled_from(alias_tables), min_size=2, max_size=2, unique=True)
        )
        disjuncts = []
        for alias_x, table_x in ((alias_a, table_a), (alias_b, table_b)):
            predicate, value = draw(filter_predicates(alias_x, table_x))
            if value is not None:
                name = f"p{len(params)}"
                params[name] = value
                predicate = predicate.format(param=f":{name}")
            disjuncts.append(predicate)
        where.append(f"({disjuncts[0]} OR {disjuncts[1]})")

    # residual column-column predicate across two aliases (same type family)
    if len(alias_tables) >= 2 and draw(st.booleans()):
        (alias_a, table_a), (alias_b, table_b) = draw(
            st.lists(st.sampled_from(alias_tables), min_size=2, max_size=2, unique=True)
        )
        float_a, float_b = FLOAT_COLUMNS[table_a], FLOAT_COLUMNS[table_b]
        int_a, int_b = INT_COLUMNS[table_a], INT_COLUMNS[table_b]
        if float_a and float_b and draw(st.booleans()):
            col_a, col_b = draw(st.sampled_from(float_a)), draw(st.sampled_from(float_b))
        else:
            col_a, col_b = draw(st.sampled_from(int_a)), draw(st.sampled_from(int_b))
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "!="]))
        where.append(f"{alias_a}.{col_a} {op} {alias_b}.{col_b}")

    if subquery:
        where.append(draw(subquery_predicates(alias_tables, params)))

    shape = draw(st.sampled_from(["plain", "plain", "group", "scalar"]))
    if shape == "plain":
        count = draw(st.integers(min_value=1, max_value=4))
        outputs = []
        for index in range(count):
            alias, table = draw(st.sampled_from(alias_tables))
            column = draw(
                st.sampled_from(
                    INT_COLUMNS[table]
                    + FLOAT_COLUMNS[table]
                    + STRING_COLUMNS[table]
                    + DATE_COLUMNS[table]
                )
            )
            outputs.append(f"{alias}.{column} AS c{index}")
        distinct = "DISTINCT " if draw(st.booleans()) else ""
        select = f"SELECT {distinct}{', '.join(outputs)}"
        group_clause = ""
    else:
        aggregates = []
        aggregate_count = draw(st.integers(min_value=1, max_value=3))
        for index in range(aggregate_count):
            alias, table = draw(st.sampled_from(alias_tables))
            numeric = INT_COLUMNS[table] + FLOAT_COLUMNS[table]
            choice = draw(
                st.sampled_from(["count_star", "count", "count_distinct", "sum", "avg", "min", "max"])
            )
            if choice == "count_star":
                aggregates.append(f"COUNT(*) AS a{index}")
                continue
            column = draw(st.sampled_from(numeric))
            if choice == "count":
                aggregates.append(f"COUNT({alias}.{column}) AS a{index}")
            elif choice == "count_distinct":
                aggregates.append(f"COUNT(DISTINCT {alias}.{column}) AS a{index}")
            else:
                aggregates.append(f"{choice.upper()}({alias}.{column}) AS a{index}")
        if shape == "group":
            group_count = draw(st.integers(min_value=1, max_value=2))
            keys = []
            for _ in range(group_count):
                alias, table = draw(st.sampled_from(alias_tables))
                column = draw(st.sampled_from(GROUPABLE_COLUMNS[table]))
                key = f"{alias}.{column}"
                if key not in keys:
                    keys.append(key)
            outputs = [f"{key} AS g{index}" for index, key in enumerate(keys)]
            select = f"SELECT {', '.join(outputs + aggregates)}"
            group_clause = f" GROUP BY {', '.join(keys)}"
        else:
            select = f"SELECT {', '.join(aggregates)}"
            group_clause = ""

    sql = f"{select} FROM {from_clause}"
    if where:
        sql += f" WHERE {' AND '.join(where)}"
    sql += group_clause
    return QueryCase(sql=sql, params=params, description=shape)


# ----------------------------------------------------------------------
# execution + comparison
# ----------------------------------------------------------------------
def make_database() -> Database:
    return Database(build_catalog())


def canonical_rows(result: Any, columns: List[str]) -> Counter:
    """Order-insensitive, float-rounded view of a result (multiset)."""
    rows = []
    for row in result.rows:
        values = []
        for column in columns:
            value = row.get(column)
            if isinstance(value, float):
                value = round(value, 6)
            values.append(value)
        rows.append(tuple(values))
    return Counter(rows)


def run_case(database: Database, case: QueryCase) -> None:
    """Execute ``case`` on every path and assert row-multiset equality."""
    results = run_on_every_path(database, case.sql, case.params)
    reference = results["tag"]
    columns = list(reference.columns)
    expected = canonical_rows(reference, columns)

    failures = []
    for engine, result in results.items():
        observed = canonical_rows(result, columns)
        if observed != expected:
            missing = expected - observed
            extra = observed - expected
            failures.append(
                f"{engine}: {sum(observed.values())} rows vs {sum(expected.values())} "
                f"(missing {list(missing)[:3]}, extra {list(extra)[:3]})"
            )
    # the TAG family must agree *exactly*, down to the float ulp
    tag_reference = results["tag"].to_tuples(columns)
    for engine in TAG_FAMILY:
        if results[engine].to_tuples(columns) != tag_reference:
            failures.append(f"{engine}: exact-equality mismatch inside the TAG family")
    if failures:
        raise AssertionError(
            "differential mismatch on:\n  "
            + case.sql
            + "\n  params: "
            + repr(case.params)
            + "\n  "
            + "\n  ".join(failures)
            + "\n--- repro script ---\n"
            + case.repro_script()
        )
