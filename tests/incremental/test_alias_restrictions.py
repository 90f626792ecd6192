"""Per-alias member sets and exclusion sets of the TAG-join kernel.

View refresh evaluates each delta term by restricting aliases to subsets
of their relation's tuple-index space.  The kernel reads a tuple's index
off the vertex (stored at encode time, never parsed back out of the id)
and, when the *start* alias is pinned to a member set, seeds the first
frontier from those indexes instead of scanning the relation.
"""

import pytest

from repro.core import TagJoinExecutor
from repro.exec.program import TagJoinKernel
from repro.incremental.views import run_view_fragment
from repro.sql import parse_and_bind
from repro.tag import encode_catalog

from conftest import make_mini_catalog

CO_SQL = (
    "SELECT c.C_CUSTKEY AS ck, o.O_ORDERKEY AS ok FROM CUSTOMER c, ORDERS o "
    "WHERE c.C_CUSTKEY = o.O_CUSTKEY"
)
# tuple index = physical position + 1
CUSTOMER_INDEX = {10: 1, 11: 2, 12: 3, 13: 4, 14: 5}
ORDER_INDEX = {100: 1, 101: 2, 102: 3, 103: 4, 104: 5, 105: 6}
FULL_JOIN = [(10, 100), (10, 101), (12, 102), (13, 103), (14, 104)]


@pytest.fixture()
def fragment():
    catalog = make_mini_catalog()
    graph = encode_catalog(catalog)
    compiled = TagJoinExecutor(graph, catalog)._compile(parse_and_bind(CO_SQL, catalog), {}, [])
    return graph, compiled


def run(graph, compiled, **restrictions):
    columns = compiled.slotted.output_columns
    ck, ok = columns.index("ck"), columns.index("ok")
    rows = run_view_fragment(graph, compiled, **restrictions)
    return sorted((values[ck], values[ok]) for values in rows)


def start_alias(graph, compiled):
    return TagJoinKernel(
        graph, compiled.config, compiled.slotted, compiled.vectorized
    )._start_node.alias


def test_tuple_vertices_carry_their_index(fragment):
    graph, _compiled = fragment
    assert graph.vertex("ORDERS_3").index == 3
    assert graph.vertex("CUSTOMER_5").index == 5
    assert graph.vertex(graph.attribute_vertex_for(10)).index == 0


@pytest.mark.parametrize("alias,index_of,column", [("c", CUSTOMER_INDEX, 0), ("o", ORDER_INDEX, 1)])
def test_members_and_exclusions_restrict_one_alias(fragment, alias, index_of, column):
    graph, compiled = fragment

    def expected(keep):
        return [row for row in FULL_JOIN if keep(index_of[row[column]])]

    assert run(graph, compiled) == FULL_JOIN
    # the tail of the load history: everything after index 2
    assert run(graph, compiled, alias_excluded={alias: {1, 2}}) == expected(lambda i: i > 2)
    assert run(graph, compiled, alias_members={alias: set(range(3, 8))}) == expected(
        lambda i: i > 2
    )
    # a contiguous slice of it
    assert run(graph, compiled, alias_members={alias: {2, 3}}) == expected(lambda i: 1 < i <= 3)
    assert run(graph, compiled, alias_members={alias: {1, 4}}) == expected(lambda i: i in (1, 4))
    assert run(graph, compiled, alias_excluded={alias: {1, 4}}) == expected(
        lambda i: i not in (1, 4)
    )
    assert run(
        graph, compiled, alias_members={alias: {1, 2, 3, 4}}, alias_excluded={alias: {3}}
    ) == expected(lambda i: i <= 4 and i != 3)
    assert run(graph, compiled, alias_members={alias: set()}) == []


def test_a_pinned_start_alias_seeds_the_frontier_without_a_label_scan(fragment, monkeypatch):
    graph, compiled = fragment
    start = start_alias(graph, compiled)
    index_of, column = (CUSTOMER_INDEX, 0) if start == "c" else (ORDER_INDEX, 1)
    expected = [row for row in FULL_JOIN if index_of[row[column]] in (1, 3)]

    def no_scan(label):
        raise AssertionError(f"label scan of {label!r}")

    monkeypatch.setattr(graph, "vertices_with_label", no_scan)
    assert run(graph, compiled, alias_members={start: {1, 3}}) == expected
    # the frontier is seeded in ascending tuple-index order
    kernel = TagJoinKernel(
        graph,
        compiled.config,
        compiled.slotted,
        compiled.vectorized,
        alias_members={start: {4, 77, 1, 3}},
    )
    table = "CUSTOMER" if start == "c" else "ORDERS"
    assert kernel.initial_active_vertices(graph) == [f"{table}_{i}" for i in (1, 3, 4)]
    # indexes naming no vertex (a tombstoned position, one never assigned) are skipped
    assert run(graph, compiled, alias_members={start: {1, 3, 77}}) == expected
    # a head and a tail of the load history, the tail's set reaching past
    # the last index the relation was assigned
    assert run(graph, compiled, alias_members={start: {1, 2, 3}}) == [
        row for row in FULL_JOIN if index_of[row[column]] <= 3
    ]
    assert run(graph, compiled, alias_members={start: set(range(4, 12))}) == [
        row for row in FULL_JOIN if index_of[row[column]] > 3
    ]


def test_an_unpinned_start_alias_still_scans_its_label(fragment):
    graph, compiled = fragment
    start = start_alias(graph, compiled)
    other = "o" if start == "c" else "c"
    index_of, column = (CUSTOMER_INDEX, 0) if other == "c" else (ORDER_INDEX, 1)
    # only the other alias is restricted; an exclusion alone pins nothing
    assert run(graph, compiled, alias_members={other: {2}}) == [
        row for row in FULL_JOIN if index_of[row[column]] == 2
    ]
    assert run(graph, compiled, alias_excluded={start: {1}}) == [
        row
        for row in FULL_JOIN
        if (CUSTOMER_INDEX[row[0]] if start == "c" else ORDER_INDEX[row[1]]) != 1
    ]
