"""Dangling tuples at a branching root cost only first crossings (Lemma 5.1).

The bottom-up reduction is a running semijoin: a step that crosses its
plan edge for the first time sends along every edge, and an ascent back
over an edge the pass has just descended sends only along the marks.  So
a root tuple that joins one child but not the other is pruned by the
subtree that misses it and never revived by the other one.

The instance is a star: R(60) ⋈ A(10) on ``a`` and R ⋈ B(7) on ``b``,
each R tuple joining exactly one A and one B tuple.  Then 30 R tuples are
added that join A but no B, or B but no A.  The answer stays the same 60
rows, and every superstep that neither receives nor sends a first
crossing activates the same vertices, sends the same messages of the same
bytes and charges the same compute units.  Both child orders are forced.
"""

import random
from dataclasses import replace

import pytest

from repro.api import Database
from repro.planner import cost
from repro.relational import Catalog, Column, DataType, Relation, Schema
from repro.sql import parse_and_bind

SQL = "SELECT r.ID, a.X, b.Y FROM R r, A a, B b WHERE r.a = a.a AND r.b = b.b"

#: shape -> the (a, b) of the i-th added R tuple: a value of A's domain
#: with a fresh b, or the other way round
ADDED_R = {
    "joins_a_only": lambda index: (index % 10, 1_000 + index),
    "joins_b_only": lambda index: (2_000 + index, index % 7),
}


def schema(name, columns):
    return Schema(name, [Column(column, DataType.INT, nullable=False) for column in columns])


def catalog(shape, added):
    rng = random.Random(11)
    r = [(index, rng.randrange(10), rng.randrange(7)) for index in range(60)]
    r += [(100 + index, *ADDED_R[shape](index)) for index in range(added)]
    star = Catalog("star")
    star.add(Relation(schema("R", ["ID", "a", "b"]), r))
    star.add(Relation(schema("A", ["a", "X"]), [(value, 10 * value) for value in range(10)]))
    star.add(Relation(schema("B", ["b", "Y"]), [(value, 7 * value) for value in range(7)]))
    return star


def forcing(children):
    """An ``order_reduction`` stand-in that gives R the children ``children``."""

    def order(tree, spec, statistics, filters):
        rank = {alias: index for index, alias in enumerate(children)}
        return replace(tree, edges=sorted(tree.edges, key=lambda edge: rank[edge.child])), 0.0

    return order


def run(shape, added):
    # the heuristic planner roots the tree at R, the first table
    options = {"tag": {"use_cost_based_planner": False}}
    executor = Database(catalog(shape, added), engine_options=options).engine("tag")
    spec = parse_and_bind(SQL, executor.catalog)
    schedule = executor._compile(spec, {}, []).config.schedule
    return schedule, executor.execute(spec)


@pytest.mark.parametrize("children", [("a", "b"), ("b", "a")])
@pytest.mark.parametrize("shape", sorted(ADDED_R))
def test_dangling_root_tuples_change_only_first_crossings(shape, children, monkeypatch):
    monkeypatch.setattr(cost, "order_reduction", forcing(children))
    schedule, base = run(shape, 0)
    grown_schedule, grown = run(shape, 30)
    assert grown_schedule == schedule
    assert schedule[0].step.source == f"rel:{children[-1]}"
    assert len(base.rows) == 60 and grown.to_tuples() == base.to_tuples()

    def cost_of(result, superstep):
        step = result.metrics.supersteps[superstep]
        return (step.active_vertices, step.messages_sent, step.message_bytes, step.compute_units)

    # superstep k receives schedule step k - 1 and sends step k
    first_crossing = [not scheduled.marked_only for scheduled in schedule] + [False]
    changed = []
    for superstep in range(1, len(schedule) + 1):
        if cost_of(grown, superstep) != cost_of(base, superstep):
            changed.append(superstep)
            assert first_crossing[superstep - 1] or first_crossing[superstep], superstep
    # the added root tuples show only when the start leaf's subtree
    # reaches them; the other subtree never revives them
    assert bool(changed) == (shape == f"joins_{children[-1]}_only")
