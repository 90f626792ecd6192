"""What EXPLAIN shows of a statement with subqueries.

The filters a subquery predicate folds into exist only once its inner
block has run, so plain EXPLAIN shows the outer block without them and
says so.  EXPLAIN ANALYZE runs the statement first and shows the plan
that ran, those filters included, plus one line per subquery: the forward
lookup's keys and the inner tuples they reached, or why the inner block
ran in full (``repro.core.subquery``).
"""

import pytest

from repro.api import Database
from repro.sql import parse_and_bind
from repro.workloads import tpch_workload

WORKLOAD = tpch_workload(scale=0.05, seed=7)
DATABASE = Database(WORKLOAD.catalog)


def spec_of(name):
    return parse_and_bind(WORKLOAD.query(name).sql, WORKLOAD.catalog, name=name)


def explain(name, analyze, engine="tag"):
    return DATABASE.engine(engine).explain(spec_of(name), analyze=analyze)


def test_plain_explain_says_the_subquery_filters_are_not_shown():
    plan = explain("q4", analyze=False)
    assert "    o (ORDERS: 206 rows, 2 filters) carries O_ORDERPRIORITY\n" in plan
    assert plan.endswith(
        "  subquery predicates: 1 (evaluated first; the filters they fold into are not in "
        "the plan shown, EXPLAIN ANALYZE shows the plan that ran)"
    )
    assert "forward lookup" not in plan and "actual" not in plan


@pytest.mark.parametrize("engine", ["tag", "tag_dict"])
def test_analyze_shows_the_lookup_and_the_plan_that_ran(engine):
    plan = explain("q4", analyze=True, engine=engine)
    assert "    o (ORDERS: 206 rows, 3 filters) carries O_ORDERPRIORITY\n" in plan
    assert (
        "  subquery predicates: 1 (evaluated first, folded into the pushed-down filters shown)\n"
        "    forward lookup on l.L_ORDERKEY: 14 keys -> 45 of 626 LINEITEM tuples\n"
        "  actual: 5 rows, 8 supersteps, 98 messages, "
    ) in plan
    assert plan.endswith(
        "  actual messages by phase: reduce_up=13, reduce_down=13, collect=13, final=0, "
        "lookup=59"
    )


def test_analyze_renders_the_reduction_order_with_the_subquery_filter():
    """h.q21's NOT EXISTS filters ``l1``, which moves the reduction estimate."""
    assert "reduction order: n -> s -> l1 -> o (estimated 231.8 bottom-up messages)" in explain(
        "q21", analyze=False
    )
    plan = explain("q21", analyze=True)
    assert (
        "      l1 (LINEITEM: 626 rows, 2 filters) via l1.L_SUPPKEY = s.S_SUPPKEY "
        "carries no columns + provenance\n"
    ) in plan
    assert "reduction order: n -> s -> l1 -> o (estimated 161.3 bottom-up messages)" in plan
    assert (
        "    l3.L_ORDERKEY: inner block runs in full (estimated to reach 634 of 626 LINEITEM "
        "tuples, too many to pay)\n"
    ) in plan


def test_analyze_says_why_a_lookup_stopped_before_its_second_hop():
    plan = explain("q22", analyze=True)
    assert (
        "    o.O_CUSTKEY: inner block runs in full (17 keys reach 173 of 206 ORDERS tuples, "
        "too many to pay)\n"
    ) in plan
    assert plan.endswith(
        "reduce_up=0, reduce_down=0, collect=0, final=0, lookup=17"
    )


def test_analyze_says_an_uncorrelated_block_runs_in_full():
    plan = explain("q16", analyze=True)
    assert "    SUPPLIER: inner block runs in full (uncorrelated)\n" in plan
