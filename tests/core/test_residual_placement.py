"""Each join condition is checked where it first binds.

A multi-key tree edge routes on its highest-NDV join variable, the
planner costs the very tree the compiler compiles, and every residual
condition runs right after the first collection merge whose row holds all
of its aliases — in the kernel (tuple rows and column batches) and in the
dict-row reference alike — so no residual is left for result assembly.
"""

import sys
from unittest import mock

import pytest

from repro.api import Database
from repro.core import build_join_tree, reroot
from repro.core.vertex_program import Phase, TagJoinProgram
from repro.exec import program as kernel_program
from repro.exec.program import TagJoinKernel
from repro.relational import Catalog, Column, DataType, ForeignKey, Relation, Schema
from repro.sql import parse_and_bind
from repro.workloads import tpch_workload

TPCH = tpch_workload(scale=0.05, seed=7)
Q9 = TPCH.query("q9").sql


def edge_set(tree):
    return {(edge.child, edge.parent, edge.variable.name) for edge in tree.edges}


def compiled_fragment(database, sql):
    executor = database.engine("tag")
    spec = parse_and_bind(sql, database.catalog)
    return executor, spec, executor._compile(spec, {}, [])


def star_catalog(parents=3, fanout=6):
    catalog = Catalog("star")
    catalog.add(
        Relation(
            Schema(
                "PARENT",
                [Column("P_ID", DataType.INT, nullable=False), Column("P_NAME", DataType.STRING)],
                primary_key=["P_ID"],
            ),
            [[index, f"parent-{index}"] for index in range(parents)],
        )
    )
    catalog.add(
        Relation(
            Schema(
                "CHILD",
                [
                    Column("C_ID", DataType.INT, nullable=False),
                    Column("C_PARENT", DataType.INT, nullable=False),
                    Column("C_QTY", DataType.INT, nullable=False),
                ],
                primary_key=["C_ID"],
                foreign_keys=[ForeignKey(("C_PARENT",), "PARENT", ("P_ID",))],
            ),
            [
                [parent * fanout + slot, parent, (slot * 5 + parent) % 7]
                for parent in range(parents)
                for slot in range(fanout)
            ],
        )
    )
    return catalog


STAR_SQL = (
    "SELECT p.P_NAME, COUNT(*) AS pairs FROM PARENT p, CHILD c1, CHILD c2, CHILD c3 "
    "WHERE c1.C_PARENT = p.P_ID AND c2.C_PARENT = p.P_ID AND c3.C_PARENT = p.P_ID "
    "AND c1.C_QTY < c2.C_QTY GROUP BY p.P_NAME"
)
STAR_JOIN_SQL = (
    "SELECT COUNT(*) AS n FROM PARENT p, CHILD c1, CHILD c2, CHILD c3 "
    "WHERE c1.C_PARENT = p.P_ID AND c2.C_PARENT = p.P_ID AND c3.C_PARENT = p.P_ID "
    "AND c1.C_QTY < c2.C_QTY"
)


def first_merge_holding(compiled, aliases):
    """The first collection step whose table schema carries every alias."""
    for index, scheduled in enumerate(compiled.config.schedule):
        if scheduled.phase is not Phase.COLLECT:
            continue
        columns = compiled.slotted.step_schemas[index].columns
        if all(any(column.startswith(f"{alias}.") for column in columns) for alias in aliases):
            return index
    raise AssertionError(f"no collection step holds {aliases}")


class TestTree:
    def test_planner_costs_the_tree_that_gets_compiled(self):
        executor, spec, compiled = compiled_fragment(Database(TPCH.catalog), Q9)
        choice = executor.planner.choose_root(spec)
        planned = build_join_tree(spec, catalog=executor.planner.catalog)
        planned = reroot(planned, choice.root) if planned.root != choice.root else planned
        assert compiled.join_tree.root == choice.root
        assert edge_set(compiled.join_tree) == edge_set(planned)
        # PARTSUPP joins LINEITEM on PARTKEY (the higher NDV), not SUPPKEY
        assert ("ps", "l", "l.L_PARTKEY") in edge_set(compiled.join_tree)
        assert [repr(c) for c in compiled.join_tree.residual_conditions] == [
            "ps.PS_SUPPKEY = l.L_SUPPKEY"
        ]


class TestPlacement:
    def test_q9_suppkey_is_checked_at_the_first_merge_holding_ps_and_l(self):
        _, _, compiled = compiled_fragment(Database(TPCH.catalog), Q9)
        (check,) = compiled.residual_checks
        assert check.text == "ps.PS_SUPPKEY = l.L_SUPPKEY"
        assert check.step == first_merge_holding(compiled, ("ps", "l"))
        # the collection walk reaches l first, so that merge is the one into ps
        assert check.alias == "ps"
        target = compiled.config.schedule[check.step].step.target
        assert compiled.config.plan.node(target).alias == "ps"
        assert set(compiled.config.step_residuals) == {check.step}

    def test_cross_alias_predicate_is_checked_at_the_first_merge_holding_both(self):
        _, _, compiled = compiled_fragment(Database(star_catalog()), STAR_SQL)
        (check,) = compiled.residual_checks
        assert "c1.C_QTY" in check.text and "c2.C_QTY" in check.text
        assert check.step == first_merge_holding(compiled, ("c1", "c2"))
        assert compiled.slotted.collect[check.step].check is not None
        assert set(compiled.vectorized.checks) == {check.step}

    def test_single_alias_residual_becomes_a_pushed_down_filter(self):
        database = Database(star_catalog())
        _, _, compiled = compiled_fragment(
            database,
            "SELECT c1.C_ID FROM PARENT p, CHILD c1 WHERE c1.C_PARENT = p.P_ID AND 1 = 1",
        )
        (check,) = compiled.residual_checks
        assert check.step is None
        assert compiled.config.step_residuals == {}
        assert compiled.config.filters[check.alias]

    @pytest.mark.parametrize("threshold", [0, 128, sys.maxsize])
    def test_only_joined_rows_reach_assembly(self, monkeypatch, threshold):
        database = Database(star_catalog())
        expected = database.connect(engine="rdbms").sql(STAR_JOIN_SQL).single_value()
        reached = {"tag": 0, "tag_dict": 0}

        def spy(program_class, name):
            original = program_class._assemble

            def counting(self, *args):
                rows = args[-2]
                reached[name] += len(rows)
                return original(self, *args)

            monkeypatch.setattr(program_class, "_assemble", counting)

        spy(TagJoinKernel, "tag")
        spy(TagJoinProgram, "tag_dict")
        with mock.patch.object(kernel_program, "COLUMNAR_THRESHOLD", threshold):
            results = {
                name: database.connect(engine=name).sql(STAR_SQL).to_tuples()
                for name in reached
            }
        assert results["tag"] == results["tag_dict"]
        assert reached == {"tag": expected, "tag_dict": expected}


def test_explain_names_the_merge_that_checks_each_residual():
    executor = Database(TPCH.catalog).engine("tag")
    text = executor.explain(parse_and_bind(Q9, TPCH.catalog, name="q9"))
    assert "ps (PARTSUPP: 40 rows) via ps.PS_PARTKEY = l.L_PARTKEY" in text
    assert "residual conditions (each checked where it first binds):" in text
    assert "    ps.PS_SUPPKEY = l.L_SUPPKEY: checked at the merge into ps (superstep " in text
