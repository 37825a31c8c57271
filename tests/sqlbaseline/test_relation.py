"""Unit tests for the relational storage layer."""

import pytest

from repro.sqlbaseline import Relation, RelationalDatabase, SchemaError


class TestRelation:
    def test_insert_and_scan(self):
        r = Relation("V", ["vid", "label"])
        r.insert(("n1", "A"))
        r.insert_many([("n2", "B"), ("n3", "A")])
        assert len(r) == 3
        assert [row for _, row in r.scan()] == [
            ("n1", "A"), ("n2", "B"), ("n3", "A"),
        ]

    def test_arity_checked(self):
        r = Relation("V", ["vid", "label"])
        with pytest.raises(SchemaError):
            r.insert(("only-one",))

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Relation("T", ["a", "a"])

    def test_column_position(self):
        r = Relation("V", ["vid", "label"])
        assert r.column_position("label") == 1
        with pytest.raises(SchemaError):
            r.column_position("missing")

    def test_index_lookup(self):
        r = Relation("V", ["vid", "label"])
        r.insert_many([("n1", "A"), ("n2", "B"), ("n3", "A")])
        r.create_index("label")
        assert sorted(r.index_lookup("label", "A")) == [0, 2]
        assert r.index_lookup("label", "Z") == []
        with pytest.raises(SchemaError):
            r.index_lookup("vid", "n1")  # not indexed

    def test_index_maintained_on_insert(self):
        r = Relation("V", ["vid", "label"])
        r.create_index("label")
        r.insert(("n1", "A"))
        assert r.index_lookup("label", "A") == [0]


class TestDatabase:
    def test_create_and_lookup(self):
        db = RelationalDatabase()
        db.create_table("T", ["a"])
        assert db.has_table("T")
        assert db.tables() == ["T"]
        assert db.table("T").columns == ["a"]

    def test_duplicate_table_rejected(self):
        db = RelationalDatabase()
        db.create_table("T", ["a"])
        with pytest.raises(SchemaError):
            db.create_table("T", ["b"])

    def test_drop(self):
        db = RelationalDatabase()
        db.create_table("T", ["a"])
        db.drop_table("T")
        assert not db.has_table("T")
        with pytest.raises(SchemaError):
            db.drop_table("T")
