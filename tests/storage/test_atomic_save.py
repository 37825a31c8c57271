"""Atomic text saves: a crashed save never destroys the previous file."""

import os

import pytest

from repro.core import Graph, GraphCollection
from repro.storage.serializer import (
    load_collection,
    load_graph,
    save_collection,
    save_graph,
)


def make_graph(tag: str) -> Graph:
    g = Graph("g")
    g.add_node("a", label=tag)
    g.add_node("b", label="B")
    g.add_edge("a", "b")
    return g


class TestAtomicSave:
    def test_save_graph_roundtrip_and_no_temp_left(self, tmp_path):
        path = tmp_path / "g.gql"
        save_graph(make_graph("one"), path)
        assert load_graph(path).node("a")["label"] == "one"
        assert [p.name for p in tmp_path.iterdir()] == ["g.gql"]

    def test_crash_during_replace_keeps_old_file(self, tmp_path,
                                                 monkeypatch):
        """If the rename never happens, the old contents survive intact
        and the temp file is cleaned up — no torn half-written file."""
        path = tmp_path / "g.gql"
        save_graph(make_graph("old"), path)
        before = path.read_text(encoding="utf-8")

        def exploding_replace(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            save_graph(make_graph("new"), path)
        monkeypatch.undo()
        assert path.read_text(encoding="utf-8") == before
        assert load_graph(path).node("a")["label"] == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["g.gql"]

    def test_crash_during_write_keeps_old_file(self, tmp_path,
                                               monkeypatch):
        """A failure while writing the temp file (disk full, kill) also
        leaves the old file byte-identical."""
        path = tmp_path / "c.gql"
        save_collection(GraphCollection([make_graph("old")]), path)
        before = path.read_bytes()

        def exploding_fsync(fd):
            raise OSError("simulated crash during fsync")

        monkeypatch.setattr(os, "fsync", exploding_fsync)
        with pytest.raises(OSError):
            save_collection(GraphCollection([make_graph("new")]), path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.gql"]

    def test_save_collection_overwrites_atomically(self, tmp_path):
        path = tmp_path / "c.gql"
        save_collection(GraphCollection([make_graph("one")]), path)
        save_collection(
            GraphCollection([make_graph("two"), make_graph("three")]), path)
        back = load_collection(path)
        assert len(back) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["c.gql"]
