"""Unit tests for RowSchema, schema merging and the slotted helpers."""

import pytest

from repro.exec import RowSchema, SlotError, deduplicate_rows
from repro.exec.operations import compile_group_key, compile_output
from repro.algebra.logical import OutputColumn
from repro.algebra.expressions import Arithmetic, col, lit


class TestRowSchema:
    def test_slots_follow_declaration_order(self):
        schema = RowSchema(["c.C_CUSTKEY", "o.O_ORDERKEY", "o.O_TOTAL"])
        assert schema.slot("c.C_CUSTKEY") == 0
        assert schema.slot("o.O_TOTAL") == 2
        assert list(schema) == ["c.C_CUSTKEY", "o.O_ORDERKEY", "o.O_TOTAL"]
        assert len(schema) == 3

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SlotError):
            RowSchema(["a.x", "a.x"])

    def test_unknown_column_raises(self):
        schema = RowSchema(["a.x"])
        with pytest.raises(SlotError):
            schema.slot("a.y")
        assert schema.slot_or_none("a.y") is None

    def test_resolve_qualified_and_suffix(self):
        schema = RowSchema(["c.C_CUSTKEY", "o.O_ORDERKEY"])
        assert schema.resolve("C_CUSTKEY", "c") == 0
        # unqualified falls back to a unique suffix match, like ColumnRef
        assert schema.resolve("O_ORDERKEY") == 1

    def test_resolve_ambiguous_suffix_raises(self):
        schema = RowSchema(["a.KEY", "b.KEY"])
        with pytest.raises(SlotError):
            schema.resolve("KEY")

    def test_to_dict_round_trip(self):
        schema = RowSchema(["a.x", "a.y"])
        assert schema.to_dict((1, 2)) == {"a.x": 1, "a.y": 2}


class TestCompiledHelpers:
    def test_compile_output_plain_columns_uses_slots(self):
        schema = RowSchema(["a.x", "a.y", "a.z"])
        output = compile_output(
            [OutputColumn(col("a.z"), "z"), OutputColumn(col("a.x"), "x")], schema
        )
        assert output((1, 2, 3)) == (3, 1)

    def test_compile_output_single_column_returns_tuple(self):
        schema = RowSchema(["a.x"])
        output = compile_output([OutputColumn(col("a.x"), "x")], schema)
        assert output((7,)) == (7,)

    def test_compile_output_expression(self):
        schema = RowSchema(["a.x"])
        doubled = Arithmetic("*", col("a.x"), lit(2))
        output = compile_output([OutputColumn(doubled, "d")], schema)
        assert output((21,)) == (42,)

    def test_group_key_missing_column_is_none(self):
        schema = RowSchema(["a.x"])
        key = compile_group_key(["a.x", "a.gone"], schema)
        assert key((5,)) == (5, None)

    def test_group_key_all_present_uses_itemgetter(self):
        schema = RowSchema(["a.x", "a.y"])
        key = compile_group_key(["a.y", "a.x"], schema)
        assert key((1, 2)) == (2, 1)

    def test_deduplicate_rows_keeps_first_occurrence_order(self):
        rows = [(1, "a"), (2, "b"), (1, "a"), (3, "c"), (2, "b")]
        assert deduplicate_rows(rows) == [(1, "a"), (2, "b"), (3, "c")]
