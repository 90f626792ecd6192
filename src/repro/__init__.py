"""repro — Vertex-centric Parallel Computation of SQL Queries.

A from-scratch Python reproduction of Smagulova & Deutsch, SIGMOD 2021:
the TAG encoding of relational databases as bipartite tuple/attribute
graphs and the TAG-join family of vertex-centric BSP algorithms for SQL
evaluation, together with the substrates the paper depends on (a Pregel
style BSP engine, an in-memory relational engine used as the RDBMS
baseline, a Spark-SQL-like distributed shuffle engine, and TPC-H / TPC-DS
style workload generators).

Quickstart::

    from repro import Catalog, Database

    catalog = ...                        # build or generate a Catalog
    db = Database.from_catalog(catalog)  # TAG encoding + stats + plan cache
    with db.connect() as session:
        result = session.sql(
            "SELECT ... FROM ... WHERE x = :v", params={"v": 42})
        print(session.explain("SELECT ..."))

Engines are selected by registry name (``Database(catalog, engine="rdbms")``
or per-session ``db.connect(engine="spark")``); all of them answer the same
queries with identical rows — ``repro.list_engines()`` enumerates the
registry.  The facade shares one plan cache across every engine and
session; direct executor construction remains available
as ``repro.core.TagJoinExecutor`` for callers that manage their own
encoding lifecycle.  For out-of-process access, :mod:`repro.serve`
provides an asyncio JSON-line query server plus ``repro.serve.client``.
"""

from .algebra import (
    AggFunc,
    AggregationClass,
    ColumnRef,
    Comparison,
    JoinCondition,
    ParameterError,
    QueryBuilder,
    QuerySpec,
    col,
    lit,
)
from .api import (
    Database,
    PreparedStatement,
    Session,
    available_engines,
    list_engines,
    register_engine,
)
from .bsp import BSPEngine, Graph, HashPartitioner, RunMetrics, SinglePartitioner
from .core import QueryResult
from .relational import Catalog, Column, DataType, ForeignKey, Relation, Schema
from .tag import TagEncoder, TagGraph, encode_catalog

__version__ = "1.2.0"


def connect(catalog: Catalog, engine: str = "tag", **kwargs) -> Session:
    """One-liner: wrap ``catalog`` in a Database and open a session on it."""
    return Database.from_catalog(catalog, engine=engine, **kwargs).connect()


__all__ = [
    "AggFunc",
    "AggregationClass",
    "BSPEngine",
    "Catalog",
    "Column",
    "ColumnRef",
    "Comparison",
    "DataType",
    "Database",
    "ForeignKey",
    "Graph",
    "HashPartitioner",
    "JoinCondition",
    "ParameterError",
    "PreparedStatement",
    "QueryBuilder",
    "QueryResult",
    "QuerySpec",
    "Relation",
    "RunMetrics",
    "Schema",
    "Session",
    "SinglePartitioner",
    "TagEncoder",
    "TagGraph",
    "available_engines",
    "col",
    "connect",
    "encode_catalog",
    "list_engines",
    "lit",
    "register_engine",
    "__version__",
]
