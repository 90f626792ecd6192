"""Superstep phases, the reduction order and what EXPLAIN shows of them.

Each superstep of a TAG-join run records the phase of the step it sends
(``SuperstepMetrics.phase``): the bottom-up reduction, the top-down
reduction, collection, or the final superstep that assembles the output.
Both programs set it, so per-phase totals compare between ``tag`` and
``tag_dict``.  The compiler orders sibling subtrees by the estimated
messages of the bottom-up reduction
(:func:`repro.planner.cost.order_reduction`); EXPLAIN prints the order and
the estimate, and EXPLAIN ANALYZE the actual messages per phase.
"""

import itertools
from dataclasses import replace

import pytest

from repro.api import Database
from repro.core.vertex_program import PHASES
from repro.planner.cost import order_reduction
from repro.sql import parse_and_bind
from repro.tag.statistics import CatalogStatistics
from repro.workloads import tpch_workload

WORKLOAD = tpch_workload(scale=0.05, seed=7)
DATABASE = Database(WORKLOAD.catalog)


def spec_of(name):
    return parse_and_bind(WORKLOAD.query(name).sql, WORKLOAD.catalog, name=name)


@pytest.mark.parametrize("engine", ["tag", "tag_dict"])
def test_h_q8_messages_per_phase(engine):
    metrics = DATABASE.engine(engine).execute(spec_of("q8")).metrics
    assert metrics.messages_by_phase() == {
        "reduce_up": 426,
        "reduce_down": 326,
        "collect": 326,
        "final": 28,
    }


@pytest.mark.parametrize("name", ["q3", "q8", "q9"])
def test_phases_follow_the_schedule(name):
    executor = DATABASE.engine("tag")
    spec = spec_of(name)
    schedule = executor._compile(spec, {}, []).config.schedule
    phases = [step.phase for step in executor.execute(spec).metrics.supersteps]
    assert phases == [scheduled.phase.value for scheduled in schedule] + ["final"]


def test_a_single_relation_plan_is_one_final_superstep():
    metrics = DATABASE.engine("tag").execute(spec_of("q1")).metrics
    assert [step.phase for step in metrics.supersteps] == ["final"]


def test_explain_shows_the_reduction_order_and_the_phase_split():
    executor = DATABASE.engine("tag")
    spec = spec_of("q8")
    compiled = executor._compile(spec, {}, [])
    plan = executor.explain(spec, analyze=True)
    start = compiled.plan.node(compiled.config.schedule[0].step.source).alias
    assert f"reduction order: {start} -> " in plan
    assert f"(estimated {compiled.reduction_estimate:.1f} bottom-up messages)" in plan
    assert (
        "actual messages by phase: reduce_up=426, reduce_down=326, collect=326, final=28"
        in plan
    )
    assert PHASES == ("reduce_up", "reduce_down", "collect", "final")


def test_the_chosen_order_does_not_depend_on_the_order_handed_in():
    """h.q9's tree branches at one alias only, so the search over its
    children's orders is exhaustive: every input order reaches the same
    estimate, and the same input always gives the same tree."""
    executor = DATABASE.engine("tag")
    spec = spec_of("q9")
    tree = executor._compile(spec, {}, []).join_tree
    statistics = CatalogStatistics(WORKLOAD.catalog)
    filters = {alias: spec.filters_for(alias) for alias in spec.aliases()}
    root_edges = [edge for edge in tree.edges if edge.parent == tree.root]
    other_edges = [edge for edge in tree.edges if edge.parent != tree.root]
    assert len(root_edges) >= 3
    assert all(len(tree.children(edge.child)) <= 1 for edge in tree.edges)

    chosen = order_reduction(tree, spec, statistics, filters)
    estimates = set()
    for permutation in itertools.permutations(root_edges):
        shuffled = replace(tree, edges=list(permutation) + other_edges)
        ordered, estimate = order_reduction(shuffled, spec, statistics, filters)
        estimates.add(round(estimate, 6))
        again = order_reduction(shuffled, spec, statistics, filters)
        assert again[0].edges == ordered.edges
    assert estimates == {round(chosen[1], 6)}
