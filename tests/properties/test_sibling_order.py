"""The order of sibling subtrees cannot change what the reduction computes.

GenSteps leaves the order of a node's children free, and the compiler
picks it by estimated cost (:func:`repro.planner.cost.order_reduction`).
The bottom-up reduction is a running semijoin, so after it the plan root
holds exactly the root tuples that join every subtree, whichever subtree
went first (Yannakakis, VLDB 1981; the paper's Lemma 5.1).  For each
query, every order of the children of the topmost branching alias is
forced: the answers agree, the ``tag`` kernel costs what the ``tag_dict``
reference costs superstep by superstep, and the root's active count at
the end of the bottom-up pass is the same for every order.
"""

import itertools
import math
from dataclasses import replace

import pytest

from repro.api import Database
from repro.core.vertex_program import Phase
from repro.planner import cost
from repro.sql import parse_and_bind
from repro.tag import encode_catalog
from repro.workloads import tpcds_workload, tpch_workload

WORKLOADS = {"h": tpch_workload(scale=0.05, seed=7), "ds": tpcds_workload(scale=0.05, seed=7)}
QUERIES = [("h", "q9"), ("h", "q8"), ("h", "q5"), ("ds", "q65")]


def rows_close(left, right):
    """Equal sorted rows, floats within a relative 1e-9 (sums may be
    accumulated in another order)."""
    if len(left) != len(right):
        return False
    for left_row, right_row in zip(left, right):
        for a, b in zip(left_row, right_row):
            if isinstance(a, float) and isinstance(b, float):
                if not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif a != b:
                return False
    return True


def branching_alias(tree):
    """The first alias, top-down, with at least two children."""
    order = [tree.root]
    for alias in order:
        if len(tree.children(alias)) >= 2:
            return alias
        order.extend(tree.children(alias))
    raise AssertionError("the query's join tree has no branching alias")


def forcing(children):
    """An ``order_reduction`` stand-in that puts ``children`` in this order."""

    def order(tree, spec, statistics, filters):
        rank = {alias: index for index, alias in enumerate(children)}
        edges = sorted(tree.edges, key=lambda edge: rank.get(edge.child, -1))
        return replace(tree, edges=edges), 0.0

    return order


@pytest.mark.parametrize("prefix,query_name", QUERIES)
def test_sibling_order_does_not_change_the_reduction(prefix, query_name, monkeypatch):
    workload = WORKLOADS[prefix]
    spec = parse_and_bind(workload.query(query_name).sql, workload.catalog, name=query_name)
    graph = encode_catalog(workload.catalog)
    tree = Database(workload.catalog, graph=graph).engine("tag")._compile(spec, {}, []).join_tree
    alias = branching_alias(tree)

    answers, root_counts = [], set()
    for children in itertools.permutations(tree.children(alias)):
        monkeypatch.setattr(cost, "order_reduction", forcing(children))
        # a fresh database per order: its plan cache holds no other order
        database = Database(workload.catalog, graph=graph)
        engines = {name: database.engine(name) for name in ("tag", "tag_dict")}
        compiled = engines["tag"]._compile(spec, {}, [])
        assert compiled.join_tree.children(alias) == list(children)
        results = {name: engine.execute(spec) for name, engine in engines.items()}
        costs = {
            name: [
                (s.active_vertices, s.messages_sent, s.compute_units)
                for s in result.metrics.supersteps
            ]
            for name, result in results.items()
        }
        assert costs["tag"] == costs["tag_dict"], children
        assert results["tag"].to_tuples() == results["tag_dict"].to_tuples(), children
        answers.append(results["tag"].to_tuples())
        # superstep k receives schedule step k - 1: the last bottom-up step
        # is received by the plan root's vertices (none when a run ended
        # early because a frontier emptied)
        up_steps = sum(s.phase is Phase.REDUCE_UP for s in compiled.config.schedule)
        supersteps = results["tag"].metrics.supersteps
        root_counts.add(supersteps[up_steps].active_vertices if len(supersteps) > up_steps else 0)

    assert len(answers) >= 2
    assert all(rows_close(answer, answers[0]) for answer in answers)
    assert len(root_counts) == 1, root_counts
