"""Two-way vertex-centric joins (paper Section 4 and the Figure 2 example)."""

import pytest

from repro.bsp import BSPEngine
from repro.core import JoinPair, TwoWayJoinProgram
from repro.relational import Catalog, Column, DataType, Relation, Schema
from repro.relational.relation import rows_to_multiset
from repro.tag import encode_catalog


def make_catalog(r_rows, s_rows, r_cols=("A", "B"), s_cols=("B", "C"), nullable=True):
    r_schema = Schema("R", [Column(name, DataType.INT) for name in r_cols])
    s_schema = Schema("S", [Column(name, DataType.INT) for name in s_cols])
    catalog = Catalog("twoway")
    catalog.add(Relation(r_schema, r_rows))
    catalog.add(Relation(s_schema, s_rows))
    return catalog


def brute_force(r_rows, s_rows, pairs):
    result = []
    for r in r_rows:
        for s in s_rows:
            if all(r[i] is not None and r[i] == s[j] for i, j in pairs):
                result.append(tuple(r) + tuple(s))
    return rows_to_multiset(result)


# Figure 2 instance: R(A,B), S(B,C); b1 joins 3 R-tuples with 3 S-tuples,
# b2 and b3 are dangling.
FIGURE2_R = [[1, 10], [2, 10], [3, 10], [4, 20]]
FIGURE2_S = [[10, 100], [10, 101], [10, 102], [30, 103]]


class TestSingleAttributeJoin:
    def test_figure2_example(self):
        catalog = make_catalog(FIGURE2_R, FIGURE2_S)
        graph = encode_catalog(catalog)
        program = TwoWayJoinProgram(graph, "R", "S", [JoinPair("B", "B")])
        rows = BSPEngine(graph).run(program)
        assert len(rows) == 9  # 3 x 3 Cartesian product at the b1 vertex
        produced = rows_to_multiset(
            (row["R.A"], row["R.B"], row["S.B"], row["S.C"]) for row in rows
        )
        expected = brute_force(FIGURE2_R, FIGURE2_S, [(1, 0)])
        assert produced == expected

    def test_three_supersteps(self):
        catalog = make_catalog(FIGURE2_R, FIGURE2_S)
        graph = encode_catalog(catalog)
        engine = BSPEngine(graph)
        engine.run(TwoWayJoinProgram(graph, "R", "S", [JoinPair("B", "B")]))
        assert engine.last_metrics.superstep_count == 3

    def test_reduction_message_bound(self):
        """Superstep 1 sends at most min(IN, OUT) messages (paper Section 4.1.2)."""
        catalog = make_catalog(FIGURE2_R, FIGURE2_S)
        graph = encode_catalog(catalog)
        engine = BSPEngine(graph)
        engine.run(TwoWayJoinProgram(graph, "R", "S", [JoinPair("B", "B")]))
        in_size = len(FIGURE2_R) + len(FIGURE2_S)
        out_size = 9
        assert engine.last_metrics.supersteps[0].messages_sent <= min(in_size, out_size)

    def test_empty_join(self):
        catalog = make_catalog([[1, 1]], [[2, 5]])
        graph = encode_catalog(catalog)
        rows = BSPEngine(graph).run(TwoWayJoinProgram(graph, "R", "S", [JoinPair("B", "B")]))
        assert rows == []

    def test_factorized_output(self):
        catalog = make_catalog(FIGURE2_R, FIGURE2_S)
        graph = encode_catalog(catalog)
        program = TwoWayJoinProgram(graph, "R", "S", [JoinPair("B", "B")], factorized=True)
        factorized = BSPEngine(graph).run(program)
        assert len(factorized) == 1  # one join value contributes
        entry = factorized[0]
        assert len(entry["left"]) == 3 and len(entry["right"]) == 3
        # the factorized representation is lossless: expanding it gives OUT rows
        assert len(entry["left"]) * len(entry["right"]) == 9


class TestMultiAttributeJoin:
    def test_figure3_example(self):
        """Section 4.2 / Figure 3: tuples agreeing on B but not on A must not join."""
        r_rows = [[1, 10, 7], [2, 20, 8]]
        s_rows = [[1, 10, 9], [3, 20, 9]]
        catalog = make_catalog(r_rows, s_rows, ("A", "B", "C"), ("A", "B", "D"))
        graph = encode_catalog(catalog)
        program = TwoWayJoinProgram(
            graph, "R", "S", [JoinPair("B", "B"), JoinPair("A", "A")]
        )
        rows = BSPEngine(graph).run(program)
        assert len(rows) == 1
        assert rows[0]["R.A"] == 1 and rows[0]["S.D"] == 9

    def test_multi_attribute_matches_brute_force(self):
        r_rows = [[i % 3, i % 4, i] for i in range(30)]
        s_rows = [[i % 3, i % 4, i * 10] for i in range(25)]
        catalog = make_catalog(r_rows, s_rows, ("A", "B", "C"), ("A", "B", "D"))
        graph = encode_catalog(catalog)
        program = TwoWayJoinProgram(graph, "R", "S", [JoinPair("A", "A"), JoinPair("B", "B")])
        rows = BSPEngine(graph).run(program)
        produced = rows_to_multiset(
            (row["R.A"], row["R.B"], row["R.C"], row["S.A"], row["S.B"], row["S.D"])
            for row in rows
        )
        expected = brute_force(r_rows, s_rows, [(0, 0), (1, 1)])
        assert produced == expected

    def test_requires_at_least_one_pair(self):
        catalog = make_catalog(FIGURE2_R, FIGURE2_S)
        graph = encode_catalog(catalog)
        with pytest.raises(ValueError):
            TwoWayJoinProgram(graph, "R", "S", [])
