"""Tests for schemas, relations, catalogs and CSV round-trips."""

import os

import pytest

from repro.relational import (
    Catalog,
    CatalogError,
    Column,
    DataType,
    ForeignKey,
    Relation,
    Schema,
    SchemaError,
    read_catalog_csv,
    read_relation_csv,
    rows_to_multiset,
    write_catalog_csv,
    write_relation_csv,
)


def sample_schema() -> Schema:
    return Schema(
        "R",
        [
            Column("ID", DataType.INT, nullable=False),
            Column("NAME", DataType.STRING),
            Column("SCORE", DataType.FLOAT),
        ],
        primary_key=["ID"],
    )


class TestSchema:
    def test_positions_and_lookup(self):
        schema = sample_schema()
        assert schema.position("NAME") == 1
        assert schema.column("SCORE").dtype is DataType.FLOAT
        assert "ID" in schema
        assert schema.arity == 3

    def test_duplicate_column_rejected(self):
        with pytest.raises(SchemaError):
            Schema("R", [Column("A", DataType.INT), Column("A", DataType.INT)])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Schema("R", [])

    def test_unknown_pk_rejected(self):
        with pytest.raises(SchemaError):
            Schema("R", [Column("A", DataType.INT)], primary_key=["B"])

    def test_unknown_column_lookup(self):
        with pytest.raises(SchemaError):
            sample_schema().position("MISSING")

    def test_project_and_rename(self):
        schema = sample_schema()
        projected = schema.project(["NAME", "ID"])
        assert projected.column_names == ["NAME", "ID"]
        assert schema.rename("S").name == "S"

    def test_is_primary_key_single_column_only(self):
        schema = sample_schema()
        assert schema.is_primary_key("ID")
        assert not schema.is_primary_key("NAME")

    def test_foreign_key_arity_mismatch(self):
        with pytest.raises(SchemaError):
            ForeignKey(("A", "B"), "S", ("X",))

    def test_foreign_key_unknown_column(self):
        with pytest.raises(SchemaError):
            Schema(
                "R",
                [Column("A", DataType.INT)],
                foreign_keys=[ForeignKey(("MISSING",), "S", ("X",))],
            )


class TestRelation:
    def test_insert_and_len(self):
        relation = Relation(sample_schema(), [[1, "a", 1.0], [2, "b", 2.0]])
        assert len(relation) == 2
        assert relation[0] == (1, "a", 1.0)

    def test_insert_coerces(self):
        relation = Relation(sample_schema())
        relation.insert(["7", 123, "2.5"])
        assert relation[0] == (7, "123", 2.5)

    def test_arity_mismatch(self):
        relation = Relation(sample_schema())
        with pytest.raises(SchemaError):
            relation.insert([1, "a"])

    def test_null_in_non_nullable(self):
        relation = Relation(sample_schema())
        with pytest.raises(SchemaError):
            relation.insert([None, "a", 1.0])

    def test_from_dicts_infers_schema(self):
        relation = Relation.from_dicts("T", [{"x": 1, "y": "a"}, {"x": 2, "y": "b"}])
        assert relation.schema.column_names == ["x", "y"]
        assert relation.column_values("x") == [1, 2]

    def test_statistics(self):
        relation = Relation(sample_schema(), [[1, "a", 1.0], [2, "a", 2.0], [3, "b", 2.0]])
        assert relation.cardinality() == 3
        assert relation.distinct_count("NAME") == 2
        assert relation.value_frequencies("NAME") == {"a": 2, "b": 1}
        assert relation.data_size_bytes() > 0

    def test_bag_semantics(self):
        relation = Relation(sample_schema(), [[1, "a", 1.0], [1, "a", 1.0]])
        assert relation.as_multiset() == {(1, "a", 1.0): 2}
        other = Relation(sample_schema(), [[1, "a", 1.0], [1, "a", 1.0]])
        assert relation.same_bag(other)

    def test_delete_where(self):
        relation = Relation(sample_schema(), [[1, "a", 1.0], [2, "b", 2.0]])
        removed = relation.delete_where(lambda row: row[0] == 1)
        assert removed == 1
        assert len(relation) == 1

    def test_sample_deterministic(self):
        relation = Relation(sample_schema(), [[i, "x", float(i)] for i in range(20)])
        assert relation.sample(5, seed=1).rows == relation.sample(5, seed=1).rows

    def test_rows_to_multiset_helper(self):
        assert rows_to_multiset([(1, 2), (1, 2), (3, 4)]) == {(1, 2): 2, (3, 4): 1}


class TestCatalog:
    def test_add_and_lookup(self, mini_catalog):
        assert "NATION" in mini_catalog
        assert mini_catalog.relation("ORDERS").cardinality() == 6
        assert len(mini_catalog) == 3

    def test_duplicate_add_rejected(self, mini_catalog):
        with pytest.raises(CatalogError):
            mini_catalog.add(mini_catalog.relation("NATION"))

    def test_unknown_relation(self, mini_catalog):
        with pytest.raises(CatalogError):
            mini_catalog.relation("MISSING")

    def test_statistics(self, mini_catalog):
        stats = mini_catalog.statistics()
        assert stats["CUSTOMER"]["rows"] == 5
        assert mini_catalog.total_rows() == 3 + 5 + 6

    def test_fk_validation_reports_dangling(self, mini_catalog):
        violations = mini_catalog.validate_foreign_keys()
        # ORDERS row 105 references customer 99 which does not exist
        assert any("ORDERS" in violation for violation in violations)


class TestCsvIO:
    def test_relation_roundtrip(self, tmp_path):
        relation = Relation(sample_schema(), [[1, "a", 1.5], [2, "b", None]])
        path = os.path.join(tmp_path, "r.csv")
        write_relation_csv(relation, path)
        loaded = read_relation_csv(sample_schema(), path)
        assert loaded.same_bag(relation)

    def test_empty_string_null_and_escape_survive_a_catalog_roundtrip(self, tmp_path):
        rows = [
            [1, "", 1.0],
            [2, None, None],
            [3, "\\N", 2.0],
            [4, "\\\\N", 3.0],
            [5, "N", 4.0],
            [6, "a\\", 5.0],
        ]
        catalog = Catalog("csv")
        catalog.add(Relation(sample_schema(), rows))
        write_catalog_csv(catalog, str(tmp_path))
        loaded = read_catalog_csv([sample_schema()], str(tmp_path)).relation("R")
        assert [list(row) for row in loaded] == rows

    def test_catalog_roundtrip(self, tmp_path, mini_catalog):
        paths = write_catalog_csv(mini_catalog, str(tmp_path))
        assert set(paths) == {"NATION", "CUSTOMER", "ORDERS"}
        schemas = [mini_catalog.schema(name) for name in mini_catalog.relation_names]
        loaded = read_catalog_csv(schemas, str(tmp_path))
        for name in mini_catalog.relation_names:
            assert loaded.relation(name).same_bag(mini_catalog.relation(name))
