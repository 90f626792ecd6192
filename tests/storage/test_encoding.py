"""Unit tests of the storage encoding layer (dictionary, codecs, columns)."""

from __future__ import annotations

import datetime as dt

from repro.relational import Catalog, Column, DataType, Relation, Schema
from repro.storage import (
    CODE_BYTES,
    DATE_NULL_SENTINEL,
    MISSING_CODE,
    NULL_CODE,
    CatalogEncoding,
    ColumnCodec,
    EncodedColumn,
    StringDictionary,
    date_to_epoch_day,
    epoch_day_to_date,
    kind_of,
)
from repro.relational.types import NULL


class TestStringDictionary:
    def test_codes_are_dense_and_stable(self):
        d = StringDictionary()
        a = d.code_for("alpha")
        b = d.code_for("beta")
        assert (a, b) == (0, 1)
        # append-only: re-interning never reassigns
        d.code_for("gamma")
        assert d.code_for("alpha") == a
        assert d.value(b) == "beta"

    def test_empty_string_is_a_real_entry(self):
        d = StringDictionary()
        code = d.code_for("")
        assert code >= 0
        assert code not in (NULL_CODE, MISSING_CODE)
        assert d.value(code) == ""

    def test_lookup_only_misses_distinctly_from_null(self):
        d = StringDictionary()
        d.code_for("present")
        assert d.code_of("absent") == MISSING_CODE
        assert MISSING_CODE != NULL_CODE

    def test_intern_amortises_bytes(self):
        d = StringDictionary()
        _, added_first = d.intern("héllo")
        _, added_again = d.intern("héllo")
        assert added_first == len("héllo".encode("utf-8"))
        assert added_again == 0
        assert d.size_bytes == added_first


class TestColumnCodec:
    def test_kind_mapping(self):
        assert kind_of(DataType.STRING) == "code"
        assert kind_of(DataType.TEXT) == "code"
        assert kind_of(DataType.DATE) == "epoch_day"
        assert kind_of(DataType.INT) == "raw"
        assert kind_of(DataType.FLOAT) == "raw"

    def test_string_roundtrip_keeps_empty_and_null_distinct(self):
        codec = ColumnCodec(DataType.STRING, StringDictionary())
        empty = codec.encode("")
        null = codec.encode(NULL)
        assert null == NULL_CODE
        assert empty != null
        assert codec.decode(empty) == ""
        assert codec.decode(null) is NULL

    def test_decode_is_idempotent(self):
        codec = ColumnCodec(DataType.STRING, StringDictionary())
        code = codec.encode("value")
        decoded = codec.decode(code)
        assert decoded == "value"
        # a second boundary decode must not re-interpret the string
        assert codec.decode(decoded) == "value"

    def test_date_roundtrip_and_sentinel(self):
        codec = ColumnCodec(DataType.DATE, StringDictionary())
        day = dt.date(1997, 7, 1)
        encoded = codec.encode(day)
        assert encoded == date_to_epoch_day(day)
        assert codec.decode(encoded) == day
        assert codec.encode(NULL) == DATE_NULL_SENTINEL
        assert codec.decode(DATE_NULL_SENTINEL) is NULL
        assert epoch_day_to_date(0) == dt.date(1970, 1, 1)

    def test_encode_with_bytes_amortises_dictionary_growth(self):
        codec = ColumnCodec(DataType.STRING, StringDictionary())
        _, first = codec.encode_with_bytes("amortised")
        _, second = codec.encode_with_bytes("amortised")
        assert first == CODE_BYTES + len("amortised")
        assert second == CODE_BYTES

    def test_encode_lookup_never_grows_the_dictionary(self):
        dictionary = StringDictionary()
        codec = ColumnCodec(DataType.STRING, dictionary)
        assert codec.encode_lookup("never-seen") == MISSING_CODE
        assert len(dictionary) == 0


class TestEncodedColumn:
    def test_validity_ndv_and_null_count(self):
        codec = ColumnCodec(DataType.STRING, StringDictionary())
        column = EncodedColumn("s", codec)
        for value in ("a", NULL, "b", "a", ""):
            column.append(value)
        assert len(column) == 5
        assert column.null_count == 1
        assert column.ndv == 3  # 'a', 'b', '' — NULL not a value
        bitmap = column.validity_bitmap
        bits = [(bitmap[i // 8] >> (i % 8)) & 1 for i in range(5)]
        assert bits == [1, 0, 1, 1, 1]
        assert column.codes[1] == NULL_CODE


class TestCatalogEncoding:
    def test_codes_shared_across_relations(self):
        """Code equality must mean value equality catalog-wide."""
        encoding = CatalogEncoding()
        left = Schema("L", [Column("name", DataType.STRING)])
        right = Schema("R", [Column("label", DataType.STRING)])
        left_codec = encoding.codec_for(left).by_name["name"]
        right_codec = encoding.codec_for(right).by_name["label"]
        assert left_codec.encode("shared") == right_codec.encode("shared")

    def test_catalog_binds_encoded_store(self):
        catalog = Catalog("enc")
        relation = Relation(
            Schema("T", [Column("k", DataType.INT), Column("s", DataType.STRING)]),
            [[1, "x"], [2, NULL], [3, "x"]],
        )
        catalog.add(relation)
        store = relation.encoded_store
        assert store is not None
        assert relation.distinct_count("s") == 1
        assert store.column("s").null_count == 1
        # delta ingest appends codes without rewriting the dictionary
        before = len(catalog.encoding.dictionary)
        relation.insert([4, "y"])
        assert len(catalog.encoding.dictionary) == before + 1
        assert relation.distinct_count("s") == 2
