"""Expression evaluation semantics (including SQL NULL behaviour)."""

import pytest

from repro.algebra import (
    And,
    Arithmetic,
    Between,
    ColumnRef,
    Comparison,
    ExpressionError,
    InList,
    IsNull,
    Like,
    Or,
    col,
    conjunction,
    eq,
    lit,
    negate,
    split_conjuncts,
)

ROW = {"r.A": 5, "r.B": "hello", "r.C": None, "s.A": 7}


class TestColumnRef:
    def test_qualified_lookup(self):
        assert col("r.A").evaluate(ROW) == 5

    def test_unqualified_unique_suffix(self):
        assert ColumnRef("B").evaluate(ROW) == "hello"

    def test_unqualified_ambiguous(self):
        with pytest.raises(ExpressionError):
            ColumnRef("A").evaluate(ROW)

    def test_unresolved(self):
        with pytest.raises(ExpressionError):
            col("r.MISSING").evaluate(ROW)

    def test_columns_reported(self):
        assert col("r.A").columns() == frozenset({"r.A"})


class TestComparisonsAndArithmetic:
    @pytest.mark.parametrize(
        "op,expected",
        [("=", False), ("!=", True), ("<", True), ("<=", True), (">", False), (">=", False)],
    )
    def test_comparison_ops(self, op, expected):
        assert Comparison(op, col("r.A"), col("s.A")).evaluate(ROW) is expected

    def test_null_comparison_is_false(self):
        assert Comparison("=", col("r.C"), lit(None)).evaluate(ROW) is False
        assert Comparison("<", col("r.C"), lit(10)).evaluate(ROW) is False

    def test_unknown_operator(self):
        with pytest.raises(ExpressionError):
            Comparison("~", col("r.A"), lit(1))

    @pytest.mark.parametrize("op,expected", [("+", 12), ("-", -2), ("*", 35), ("/", 5 / 7)])
    def test_arithmetic(self, op, expected):
        assert Arithmetic(op, col("r.A"), col("s.A")).evaluate(ROW) == expected

    def test_arithmetic_null_propagates(self):
        assert Arithmetic("+", col("r.C"), lit(1)).evaluate(ROW) is None

    def test_columns_union(self):
        expr = Comparison("=", col("r.A"), col("s.A"))
        assert expr.columns() == frozenset({"r.A", "s.A"})


class TestBooleanOperators:
    def test_and_or_not(self):
        true_cmp = Comparison(">", col("r.A"), lit(1))
        false_cmp = Comparison(">", col("r.A"), lit(100))
        assert And([true_cmp, true_cmp]).evaluate(ROW)
        assert not And([true_cmp, false_cmp]).evaluate(ROW)
        assert Or([false_cmp, true_cmp]).evaluate(ROW)
        assert negate(false_cmp).evaluate(ROW)

    def test_operator_overloads(self):
        true_cmp = Comparison(">", col("r.A"), lit(1))
        false_cmp = Comparison(">", col("r.A"), lit(100))
        assert (true_cmp & true_cmp).evaluate(ROW)
        assert (false_cmp | true_cmp).evaluate(ROW)
        assert (~false_cmp).evaluate(ROW)

    def test_negate_pushes_down_to_atoms(self):
        a, c = col("r.A"), col("r.C")
        assert negate(Comparison("<", a, lit(1))) == Comparison(">=", a, lit(1))
        assert negate(eq(a, lit(1)) | IsNull(c)) == And(
            [Comparison("<>", a, lit(1)), IsNull(c, negated=True)]
        )
        assert negate(InList(a, [1, 2])) == InList(a, [1, 2], negated=True)
        assert negate(Like(c, "x%", negated=True)) == Like(c, "x%")
        assert negate(Between(a, lit(1), lit(9))) == Or(
            [Comparison("<", a, lit(1)), Comparison(">", a, lit(9))]
        )
        assert negate(lit(True)) == lit(False) and negate(lit(None)) == lit(None)
        assert negate(c) == eq(c, lit(False))
        assert negate(negate(Comparison(">", a, lit(1)))) == Comparison(">", a, lit(1))
        with pytest.raises(ExpressionError):
            negate(Arithmetic("+", a, lit(1)))

    def test_negated_atoms_drop_null(self):
        # NOT over a NULL operand is UNKNOWN, which a WHERE clause drops
        c = col("r.C")
        for predicate in (eq(c, lit(1)), InList(c, [1]), Like(c, "%"), Between(c, lit(0), lit(9))):
            assert not predicate.evaluate(ROW)
            assert not negate(predicate).evaluate(ROW)

    def test_split_and_rebuild_conjuncts(self):
        a = Comparison(">", col("r.A"), lit(1))
        b = Comparison("<", col("r.A"), lit(10))
        c = Comparison("=", col("r.B"), lit("hello"))
        joined = conjunction([a, b, c])
        assert split_conjuncts(joined) == [a, b, c]
        assert conjunction([]) is None
        assert conjunction([a]) is a
        assert split_conjuncts(None) == []


class TestPredicates:
    def test_is_null(self):
        assert IsNull(col("r.C")).evaluate(ROW)
        assert not IsNull(col("r.A")).evaluate(ROW)
        assert IsNull(col("r.A"), negated=True).evaluate(ROW)

    def test_in_list(self):
        assert InList(col("r.A"), [1, 5, 9]).evaluate(ROW)
        assert not InList(col("r.A"), [1, 2]).evaluate(ROW)
        assert InList(col("r.A"), [1, 2], negated=True).evaluate(ROW)
        assert not InList(col("r.C"), [None]).evaluate(ROW)  # NULL never IN

    def test_between(self):
        assert Between(col("r.A"), lit(1), lit(10)).evaluate(ROW)
        assert not Between(col("r.A"), lit(6), lit(10)).evaluate(ROW)
        assert not Between(col("r.C"), lit(0), lit(10)).evaluate(ROW)

    @pytest.mark.parametrize(
        "pattern,expected",
        [("hello", True), ("he%", True), ("%llo", True), ("h_llo", True), ("%x%", False)],
    )
    def test_like(self, pattern, expected):
        assert Like(col("r.B"), pattern).evaluate(ROW) is expected

    def test_like_negated_and_null(self):
        assert Like(col("r.B"), "%x%", negated=True).evaluate(ROW)
        assert not Like(col("r.C"), "%").evaluate(ROW)

    def test_eq_helper(self):
        assert eq(lit(3), lit(3)).evaluate({})
