"""Dangling tuples cost only the bottom-up reduction (the paper's Lemma 5.1).

TAG-join's reduction is a vertex-centric Yannakakis semijoin pass: a tuple
that joins nothing is dropped before the top-down reduction and never
reaches collection.  So adding such tuples to every relation of a chain
join may change the supersteps that send the bottom-up reduction's steps,
and nothing after them: every later superstep activates the same
vertices, sends the same messages of the same bytes and charges the same
compute units.  Message bytes follow the plan's widths
(:mod:`repro.bsp.metrics`), which is what makes the byte part exact.

The instance is fixed: R(60) ⋈ S(50) ⋈ T(40), then 30 and 300 tuples added
to each relation.  The added tuples join nothing at all, or join one
another (R to S) but not T, or the added S tuples share one join value
with original tuples (B with R, or C with T) but not the other.  In the
two sharing shapes only the reduction's marks keep the added S tuples
out of the top-down pass and of collection.  A vertex sending along its
marked edges is charged for those edges only, so there too the compute
units after the reduction do not grow.
"""

import random

import pytest

from repro.api import Database
from repro.core.vertex_program import Phase
from repro.relational import Catalog, Column, DataType, Relation, Schema
from repro.sql import parse_and_bind

SQL = "SELECT r.A, s.B, t.D FROM R r, S s, T t WHERE r.B = s.B AND s.C = t.C"


def schema(name, columns):
    return Schema(name, [Column(column, DataType.INT, nullable=False) for column in columns])


#: shape -> the (B, C) of the i-th added S tuple.  Fresh values join
#: nothing; 10 000 + i is the B of the i-th added R tuple; i % 12 is in
#: the original R tuples' B domain and i % 10 in the T tuples' C domain.
ADDED_S = {
    "isolated": lambda index: (20_000 + index, 30_000 + index),
    "joined_to_each_other": lambda index: (10_000 + index, 30_000 + index),
    "sharing_b_with_the_chain": lambda index: (index % 12, 30_000 + index),
    "sharing_c_with_the_chain": lambda index: (20_000 + index, index % 10),
}


def catalog(added, shape):
    rng = random.Random(5)
    r = [(index, rng.randrange(12)) for index in range(60)]
    s = [(rng.randrange(12), rng.randrange(10)) for _ in range(50)]
    t = [(rng.randrange(10), index) for index in range(40)]
    r += [(1_000 + index, 10_000 + index) for index in range(added)]
    s += [ADDED_S[shape](index) for index in range(added)]
    t += [(40_000 + index, 2_000 + index) for index in range(added)]
    chain = Catalog("chain")
    chain.add(Relation(schema("R", ["A", "B"]), r))
    chain.add(Relation(schema("S", ["B", "C"]), s))
    chain.add(Relation(schema("T", ["C", "D"]), t))
    return chain


def run(added, shape):
    # the heuristic planner: the plan, and so the schedule, is the same for
    # every instance, whatever the statistics of the added tuples
    options = {"tag": {"use_cost_based_planner": False}}
    executor = Database(catalog(added, shape), engine_options=options).engine("tag")
    spec = parse_and_bind(SQL, executor.catalog)
    schedule = executor._compile(spec, {}, []).config.schedule
    result = executor.execute(spec)
    return schedule, result


@pytest.mark.parametrize("shape", sorted(ADDED_S))
@pytest.mark.parametrize("added", [30, 300])
def test_dangling_tuples_change_only_the_bottom_up_reduction(added, shape):
    schedule, base = run(0, shape)
    grown_schedule, grown = run(added, shape)
    assert [s.step.label for s in grown_schedule] == [s.step.label for s in schedule]
    assert grown.to_tuples() == base.to_tuples() and base.rows

    reduce_up = sum(1 for s in schedule if s.phase is Phase.REDUCE_UP)

    def after_reduction(result):
        return [
            (s.active_vertices, s.messages_sent, s.message_bytes, s.compute_units)
            for s in result.metrics.supersteps[reduce_up:]
        ]

    assert after_reduction(grown) == after_reduction(base)
    assert len(grown.metrics.supersteps) == len(base.metrics.supersteps) == len(schedule) + 1
    # the added start-relation tuples do show: they send the first step
    assert grown.metrics.supersteps[0].messages_sent == (
        base.metrics.supersteps[0].messages_sent + added
    )
