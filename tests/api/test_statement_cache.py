"""The statement cache: one SQL text is parsed and bound once per schema version.

``Session.prepare`` — and through it ``sql``, ``execute(text)`` and
``explain(text)`` — goes through ``Database.bind_statement``, keyed by
(engine, text, spec name, catalog schema version).  It caches bindings,
never results, so the cached spec must come out of every engine exactly
as it went in.
"""

import copy
import json
import sys
import threading

import pytest

import repro.sql
from repro.api import Database
from repro.relational import Column, DataType, Schema

JOIN_SQL = (
    "SELECT c.C_CUSTKEY, o.O_ORDERKEY FROM CUSTOMER c, ORDERS o "
    "WHERE c.C_CUSTKEY = o.O_CUSTKEY AND o.O_TOTAL > :floor"
)
#: correlated and uncorrelated subqueries: the inner blocks are where an
#: engine could be tempted to write to the spec it was handed
SUBQUERY_SQL = (
    "SELECT c.C_CUSTKEY FROM CUSTOMER c "
    "WHERE c.C_ACCTBAL > 10 "
    "AND EXISTS (SELECT o.O_ORDERKEY FROM ORDERS o WHERE o.O_CUSTKEY = c.C_CUSTKEY) "
    "AND c.C_NATIONKEY IN (SELECT n.N_NATIONKEY FROM NATION n WHERE n.N_NAME <> 'JAPAN') "
    "AND c.C_ACCTBAL >= (SELECT AVG(c2.C_ACCTBAL) FROM CUSTOMER c2 "
    "WHERE c2.C_NATIONKEY = c.C_NATIONKEY)"
)


@pytest.fixture()
def database(mini_catalog_copy):
    return Database(mini_catalog_copy)


@pytest.fixture()
def binds(monkeypatch):
    """Count the calls of ``repro.sql.parse_and_bind``."""
    calls = []
    real = repro.sql.parse_and_bind

    def counting(sql, catalog, name="query"):
        calls.append(sql)
        return real(sql, catalog, name=name)

    monkeypatch.setattr(repro.sql, "parse_and_bind", counting)
    return calls


def test_a_repeated_sql_call_binds_once(database, binds):
    session = database.connect()
    first = session.sql(JOIN_SQL, {"floor": 10.0})
    second = session.sql(JOIN_SQL, {"floor": 10.0})
    database.connect().sql(JOIN_SQL, {"floor": 25.0})
    session.execute(JOIN_SQL, {"floor": 10.0})
    session.explain(JOIN_SQL)
    assert binds == [JOIN_SQL]
    assert first.to_tuples() == second.to_tuples()


def test_prepare_returns_the_cached_binding(database):
    session = database.connect()
    one, two = session.prepare(JOIN_SQL), session.prepare(JOIN_SQL)
    assert one.spec is two.spec
    assert one.parameter_names == ["floor"] and one.parameter_types == {"floor": "float"}
    # each statement owns its copies of the parameter lists
    one.parameter_names.append("mutated")
    assert session.prepare(JOIN_SQL).parameter_names == ["floor"]


def test_creating_a_relation_rebinds(database, binds):
    session = database.connect()
    before = session.prepare(JOIN_SQL)
    database.catalog.create(Schema("EXTRA", [Column("E_ID", DataType.INT)]))
    after = session.prepare(JOIN_SQL)
    assert after.spec is not before.spec
    assert binds == [JOIN_SQL, JOIN_SQL]
    assert session.sql(JOIN_SQL, {"floor": 25.0}).to_tuples() == [(10, 100), (12, 102)]


def test_another_name_gets_its_own_spec_name(database):
    session = database.connect()
    first = session.prepare(JOIN_SQL, name="first")
    second = session.prepare(JOIN_SQL, name="second")
    assert (first.spec.name, second.spec.name) == ("first", "second")
    assert session.prepare(JOIN_SQL, name="first").spec is first.spec


def test_each_engine_gets_its_own_entry(database):
    tag = database.connect(engine="tag").prepare(JOIN_SQL)
    rdbms = database.connect(engine="rdbms").prepare(JOIN_SQL)
    assert tag.spec is not rdbms.spec
    assert database.connect(engine="rdbms").prepare(JOIN_SQL).spec is rdbms.spec


def test_two_threads_share_one_entry(database, binds):
    """Threads preparing one new text at once all get the entry kept."""
    threads_count = 4
    barrier = threading.Barrier(threads_count, timeout=10)
    specs = [None] * threads_count

    def worker(index):
        barrier.wait()
        specs[index] = database.connect().prepare(SUBQUERY_SQL).spec

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(threads_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(spec is specs[0] for spec in specs)
    assert 1 <= len(binds) <= threads_count
    assert database.connect().prepare(SUBQUERY_SQL).spec is specs[0]


def test_the_manifest_lists_every_statement(database, tmp_path):
    texts = [JOIN_SQL, SUBQUERY_SQL, "SELECT n.N_NAME FROM NATION n"]
    for engine in ("tag", "rdbms"):
        session = database.connect(engine=engine)
        for text in texts:
            session.prepare(text, name="a")
            session.prepare(text, name="b")
    path = database.flush_plan_manifest(str(tmp_path / "manifest.json"))
    with open(path) as handle:
        entries = json.load(handle)["entries"]
    listed = sorted((entry["engine"], entry["sql"]) for entry in entries)
    assert listed == sorted((engine, text) for engine in ("tag", "rdbms") for text in texts)


@pytest.mark.parametrize("sql", [JOIN_SQL, SUBQUERY_SQL], ids=["join", "subqueries"])
def test_no_engine_writes_to_the_cached_spec(database, sql):
    """Each engine's cached spec, run (and EXPLAIN ANALYZEd) on all four
    engines, still equals a deep copy taken before."""
    params = {"floor": 10.0} if ":floor" in sql else None
    engines = ("tag", "tag_dict", "rdbms", "spark")
    sessions = [database.connect(engine=engine) for engine in engines]
    cached = [session.prepare(sql, name="query").spec for session in sessions]
    before = copy.deepcopy(cached)
    answers = set()
    for session in sessions:
        answers.add(tuple(session.sql(sql, params).to_tuples()))
        for spec in cached:
            answers.add(tuple(session.execute(spec, params).to_tuples()))
            session.explain(spec, params, analyze=True)
    assert len(answers) == 1
    assert cached == before
    assert [session.prepare(sql, name="query").spec for session in sessions] == cached
