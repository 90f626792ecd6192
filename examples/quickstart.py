"""Quickstart: open a Database over a small catalog and run SQL through a Session.

Builds a tiny NATION / CUSTOMER / ORDERS database, wraps it in the
:class:`repro.Database` facade (which owns the query-independent TAG
encoding and one shared plan cache), and runs
plain, parameterized and EXPLAIN'd queries through a session — printing
results alongside the paper's cost measures (supersteps, messages,
per-vertex computation).

Run with:  python examples/quickstart.py
"""

from repro import Catalog, Column, Database, DataType, ForeignKey, Relation, Schema


def build_database() -> Catalog:
    catalog = Catalog("quickstart")
    catalog.add(
        Relation(
            Schema(
                "NATION",
                [Column("N_NATIONKEY", DataType.INT), Column("N_NAME", DataType.STRING)],
                primary_key=["N_NATIONKEY"],
            ),
            [[1, "USA"], [2, "FRANCE"], [3, "JAPAN"]],
        )
    )
    catalog.add(
        Relation(
            Schema(
                "CUSTOMER",
                [
                    Column("C_CUSTKEY", DataType.INT),
                    Column("C_NAME", DataType.STRING),
                    Column("C_NATIONKEY", DataType.INT),
                ],
                primary_key=["C_CUSTKEY"],
                foreign_keys=[ForeignKey(("C_NATIONKEY",), "NATION", ("N_NATIONKEY",))],
            ),
            [[10, "Ada", 1], [11, "Bob", 1], [12, "Cleo", 2], [13, "Dai", 3]],
        )
    )
    catalog.add(
        Relation(
            Schema(
                "ORDERS",
                [
                    Column("O_ORDERKEY", DataType.INT),
                    Column("O_CUSTKEY", DataType.INT),
                    Column("O_TOTAL", DataType.FLOAT),
                ],
                primary_key=["O_ORDERKEY"],
                foreign_keys=[ForeignKey(("O_CUSTKEY",), "CUSTOMER", ("C_CUSTKEY",))],
            ),
            [[100, 10, 120.0], [101, 10, 80.0], [102, 12, 42.0], [103, 13, 10.0]],
        )
    )
    return catalog


def main() -> None:
    catalog = build_database()
    print("1. relational catalog:", catalog)

    # the Database owns the TAG encoding (built once, query-independently,
    # paper Section 3) and a shared plan cache
    db = Database.from_catalog(catalog)
    print("2. database:", db)

    with db.connect() as session:
        print("\n3. a join with local aggregation (revenue per nation):")
        result = session.sql(
            """
            SELECT n.N_NAME AS nation, SUM(o.O_TOTAL) AS revenue, COUNT(*) AS orders
            FROM NATION n, CUSTOMER c, ORDERS o
            WHERE n.N_NATIONKEY = c.C_NATIONKEY AND c.C_CUSTKEY = o.O_CUSTKEY
            GROUP BY n.N_NAME
            """
        )
        for row in sorted(result.rows, key=lambda r: r["nation"]):
            print("   ", row)
        print("   cost:", result.metrics.summary())

        print("\n4. a prepared statement: one plan, many parameter values:")
        statement = session.prepare(
            "SELECT c.C_NAME FROM CUSTOMER c, ORDERS o "
            "WHERE c.C_CUSTKEY = o.O_CUSTKEY AND o.O_TOTAL > :floor"
        )
        for floor in (50.0, 100.0):
            names = sorted(row["C_NAME"] for row in statement.execute({"floor": floor}).rows)
            print(f"   orders above {floor:6.1f}: {names}")
        print("   shared plan cache:", db.cache_stats())

        print("\n5. EXPLAIN (the chosen rooted join tree + cost breakdown):")
        print(session.explain(statement.sql, params={"floor": 50.0}))

        print("\n6. the same query on the RDBMS baseline engine:")
        rdbms = db.connect(engine="rdbms")
        result = rdbms.sql(
            """
            SELECT c.C_NAME
            FROM CUSTOMER c
            WHERE NOT EXISTS (SELECT o.O_ORDERKEY FROM ORDERS o
                              WHERE o.O_CUSTKEY = c.C_CUSTKEY AND o.O_TOTAL < 50)
              AND EXISTS (SELECT o2.O_ORDERKEY FROM ORDERS o2 WHERE o2.O_CUSTKEY = c.C_CUSTKEY)
            """
        )
        print("   ", sorted(row["C_NAME"] for row in result.rows))


if __name__ == "__main__":
    main()
