"""Unit tests for the store's log: framing, commits, recovery, compaction."""

import os

import pytest

from repro.core import Graph
from repro.storage.faults import CrashPoint, SimulatedCrash
from repro.storage.graphstore import GraphStore
from repro.storage.wal import (
    MAGIC,
    ChecksumError,
    RecoveryResult,
    StorageError,
    WriteAheadLog,
    frame,
)


def graph(name: str = "g", nodes: int = 3) -> Graph:
    g = Graph(name)
    for i in range(nodes):
        g.add_node(f"v{i}", label="AB"[i % 2])
    for i in range(nodes - 1):
        g.add_edge(f"v{i}", f"v{i + 1}")
    return g


class TestFraming:
    def test_append_scan_roundtrip(self, tmp_path):
        path = str(tmp_path / "t.log")
        payloads = [b"first", b"", b"\xAB" * 5000]
        with WriteAheadLog(path, fsync="never") as log:
            for payload in payloads:
                log.commit(payload)
            assert log.appends == 3
        with WriteAheadLog(path, fsync="never") as log:
            assert log.frames() == payloads
            assert log.recovery.frames == 3
            assert not log.recovery.torn_tail
        assert os.path.getsize(path) == len(MAGIC) + sum(
            len(frame(p)) for p in payloads)

    def test_torn_tail_is_cut_on_reopen(self, tmp_path):
        path = str(tmp_path / "t.log")
        with WriteAheadLog(path, fsync="never") as log:
            log.commit(b"one")
            log.commit(b"two")
            valid = log.size
        with open(path, "ab") as handle:
            handle.write(frame(b"three")[:7])  # a torn append
        with WriteAheadLog(path, fsync="never") as log:
            assert log.recovery.torn_tail
            assert log.recovery.torn_bytes == 7
            assert log.size == valid == os.path.getsize(path)
            # the next append starts where the committed frames end
            log.commit(b"three")
        with WriteAheadLog(path, fsync="never") as log:
            assert log.frames() == [b"one", b"two", b"three"]

    def test_corrupt_frame_is_refused(self, tmp_path):
        """A complete frame that fails its CRC is damage, not a torn
        tail: open raises and leaves every byte where it was."""
        path = str(tmp_path / "t.log")
        with WriteAheadLog(path, fsync="never") as log:
            log.commit(b"x" * 100)
            log.commit(b"y" * 100)
        with open(path, "r+b") as handle:
            handle.seek(len(MAGIC) + 40)  # inside the first payload
            handle.write(b"\xff")
        before = open(path, "rb").read()
        with pytest.raises(ChecksumError, match="checksum"):
            WriteAheadLog(path, fsync="never")
        assert open(path, "rb").read() == before

    def test_missing_file_scans_empty(self, tmp_path):
        path = str(tmp_path / "absent.log")
        with WriteAheadLog(path, fsync="never") as log:
            assert log.frames() == []
            assert log.recovery.clean
        assert open(path, "rb").read() == MAGIC
        assert not os.path.exists(path + ".tmp")


class TestStoreFile:
    """The log file is the whole store: created on first open, reopened
    and appended to, scanned in commit order."""

    def test_create_and_reopen(self, tmp_path):
        path = str(tmp_path / "test.db")
        with WriteAheadLog(path, fsync="never") as log:
            log.commit(b"x" * 4096)
        assert open(path, "rb").read(len(MAGIC)) == MAGIC
        with WriteAheadLog(path, fsync="never") as log:
            assert log.frames() == [b"x" * 4096]
            assert log.recovery.clean

    def test_bad_magic(self, tmp_path):
        """A file in the retired page format is refused, not misread."""
        path = tmp_path / "bad.db"
        old = b"GQLP" + b"\x00" * 4096
        path.write_bytes(old)
        with pytest.raises(StorageError, match="bad magic"):
            WriteAheadLog(str(path), fsync="never")
        assert path.read_bytes() == old

    def test_scan_order(self, tmp_path):
        path = str(tmp_path / "r.db")
        payloads = [f"rec{i}".encode() for i in range(50)]
        with WriteAheadLog(path, fsync="never") as log:
            for payload in payloads:
                log.commit(payload)
            assert log.frames() == payloads
        with WriteAheadLog(path, fsync="never") as log:
            assert log.frames() == payloads

    def test_reopen_and_append(self, tmp_path):
        path = str(tmp_path / "r.db")
        with WriteAheadLog(path, fsync="never") as log:
            log.commit(b"first")
        with WriteAheadLog(path, fsync="never") as log:
            log.commit(b"second")
            assert log.frames() == [b"first", b"second"]
        with WriteAheadLog(path, fsync="never") as log:
            assert log.frames() == [b"first", b"second"]
            assert log.recovery.frames == 2


class TestTransactions:
    def test_commit_persists_and_logs(self, tmp_path):
        path = str(tmp_path / "s.db")
        store = GraphStore(path, fsync="never")
        before = store.wal.size
        store.save_document("doc", [graph("a"), graph("b")])
        assert store.wal.appends == 1  # one frame per transaction
        assert store.wal.size > before
        assert len(store.wal.frames()) == 1
        store.close(checkpoint=False)
        with GraphStore(path, fsync="never") as reopened:
            assert [g.name for g in reopened.load_documents()["doc"]] == [
                "a", "b"]

    def test_abort_discards_pending(self, tmp_path):
        """A transaction that fails while being encoded writes nothing:
        the whole frame is built before the one append."""
        path = str(tmp_path / "s.db")
        store = GraphStore(path, fsync="never")
        store.save_document("doc", [graph()])
        size = store.wal.size
        bad = graph("bad")
        bad.add_node("huge", big=2 ** 70)
        with pytest.raises(StorageError, match="64-bit"):
            store.save_document("doc", [graph("ok"), bad])
        assert store.wal.size == size == os.path.getsize(path)
        assert store.wal.appends == 1
        store.close(checkpoint=False)

    def test_frames_count_commits(self, tmp_path):
        path = str(tmp_path / "s.db")
        store = GraphStore(path, fsync="never")
        for i in range(3):
            store.save_document(f"g{i}", [graph(f"g{i}")])
        store.close(checkpoint=False)
        reopened = GraphStore(path, fsync="never")
        assert reopened.recovery.frames == 3
        reopened.close()  # compacts to one frame
        with GraphStore(path, fsync="never") as store:
            assert store.recovery.frames == 1
            assert [g.name for document in store.load_documents().values()
                    for g in document] == ["g0", "g1", "g2"]

    def test_failed_append_leaves_no_partial_frame(self, tmp_path):
        """After an append fails part-way, the next commit starts at the
        committed end, so the partial bytes never sit mid-log."""
        path = str(tmp_path / "s.db")
        store = GraphStore(path, fsync="never")

        def half_then_fail(data):
            store.wal._file.write(data[:len(data) // 2])
            raise OSError("disk full")

        store.wal._append = half_then_fail
        with pytest.raises(OSError):
            store.save_document("lost", [graph("lost")])
        del store.wal._append
        store.save_document("kept", [graph("kept")])
        store.close(checkpoint=False)
        with GraphStore(path, fsync="never") as reopened:
            assert reopened.recovery.clean
            assert [g.name for document in reopened.load_documents().values()
                    for g in document] == ["kept"]


class TestRecovery:
    def test_recover_replays_committed(self, tmp_path):
        path = str(tmp_path / "s.db")
        store = GraphStore(path, fsync="never")
        store.save_document("doc", [graph("a", 2)])
        store.save_document("doc", [graph("a", 5)])
        store.close(checkpoint=False)
        reopened = GraphStore(path, fsync="never")
        assert isinstance(reopened.recovery, RecoveryResult)
        assert reopened.recovery.ran and reopened.recovery.frames == 2
        (back,) = reopened.load_documents()["doc"]
        assert back.equals(graph("a", 5))
        reopened.close()

    def test_uncommitted_records_discarded(self, tmp_path):
        """A frame cut short never applies; the frames before it do."""
        path = str(tmp_path / "s.db")
        store = GraphStore(path, fsync="never")
        store.save_document("doc", [graph("a", 2)])
        size = store.wal.size
        store.save_document("doc", [graph("a", 9)])
        store.close(checkpoint=False)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 10)
        reopened = GraphStore(path, fsync="never")
        assert reopened.recovery.torn_tail
        assert reopened.recovery.frames == 1
        (back,) = reopened.load_documents()["doc"]
        assert back.equals(graph("a", 2))
        assert os.path.getsize(path) == size
        reopened.close()

    def test_recovery_truncates_wal_and_is_idempotent(self, tmp_path):
        path = str(tmp_path / "s.db")
        with WriteAheadLog(path, fsync="never") as log:
            log.commit(b"kept")
        with open(path, "ab") as handle:
            handle.write(b"\x00" * 32)  # an extension whose data never landed
        with WriteAheadLog(path, fsync="never") as first:
            assert first.recovery.torn_bytes == 32
        with WriteAheadLog(path, fsync="never") as second:
            assert second.recovery.clean
            assert second.frames() == [b"kept"]

    def test_checkpoint_truncates(self, tmp_path):
        """Compaction rewrites the log as one snapshot frame of the live
        documents: superseded snapshots and member records go."""
        path = str(tmp_path / "s.db")
        store = GraphStore(path, fsync="never")
        for nodes in (2, 4, 6):
            store.save_document("doc", [graph("a", nodes), graph("b")])
        store.save_members("doc", [(1, graph("b", 7))])
        store.save_document("other", [graph("c")])
        live = store.load_documents()
        before = store.wal.size
        freed = store.checkpoint()
        assert freed == before - store.wal.size > 0
        assert store.wal.size == os.path.getsize(path)
        assert len(store.wal.frames()) == 1
        assert not os.path.exists(path + ".tmp")
        compacted = store.load_documents()
        assert list(compacted) == list(live)
        for name, members in live.items():
            for got, want in zip(compacted[name], members):
                assert got.equals(want) and got.version == want.version
        store.close(checkpoint=False)

    def test_checkpoint_of_an_empty_store_keeps_the_header(self, tmp_path):
        path = str(tmp_path / "s.db")
        with GraphStore(path, fsync="never") as store:
            assert store.checkpoint() == 0
        assert open(path, "rb").read() == MAGIC


class TestNoSideFile:
    """The log is the store: one file at the store path, nothing beside it."""

    def test_bare_write_commits_to_the_wal(self, tmp_path):
        path = str(tmp_path / "s.db")
        with GraphStore(path, fsync="commit") as store:
            store.save_document("doc", [graph()])
            assert store.wal.path == path
            assert store.wal.size == os.path.getsize(path)
        assert sorted(os.listdir(tmp_path)) == ["s.db"]


class TestCrashPoint:
    def test_counts_and_trips(self):
        crash = CrashPoint(3)
        sink = []
        crash.write(sink.append, b"one")
        crash.write(sink.append, b"two")
        with pytest.raises(SimulatedCrash):
            crash.write(sink.append, b"three")
        assert crash.tripped
        # dead-process semantics: everything after the crash raises too
        with pytest.raises(SimulatedCrash):
            crash.write(sink.append, b"four")
        with pytest.raises(SimulatedCrash):
            crash.barrier(lambda: None)
        assert sink[:2] == [b"one", b"two"]

    def test_torn_write_persists_prefix(self):
        crash = CrashPoint(1, tear=True, seed=5)
        sink = []
        with pytest.raises(SimulatedCrash):
            crash.write(sink.append, b"0123456789")
        persisted = b"".join(sink)
        assert persisted == b"0123456789"[:len(persisted)]
        assert len(persisted) < 10

    def test_graphstore_crash_then_recover(self, tmp_path):
        """A mid-commit crash loses the in-flight save, never the prior one."""
        g1 = Graph("g")
        g1.add_node("a", label="A")
        g2 = Graph("g")
        g2.add_node("a", label="A")
        g2.add_node("b", label="B")
        g2.add_edge("a", "b")
        path = str(tmp_path / "s.db")
        with GraphStore(path, fsync="never") as store:
            store.save_document("doc", [g1])
            assert store.wal.crashpoint is None
        crash = CrashPoint(crash_after=1, seed=3)
        store = GraphStore(path, fsync="never", crashpoint=crash)
        with pytest.raises(SimulatedCrash):
            store.save_document("doc", [g2])
        recovered = GraphStore(path, fsync="never")
        docs = recovered.load_documents()
        back = docs["doc"][0]
        assert back.equals(g1) or back.equals(g2)  # prefix contract
        assert back.version in (g1.version, g2.version)
        recovered.close()

    @pytest.mark.parametrize("point", [1, 2, 3, 4])
    def test_compaction_crash_keeps_old_or_new_file(self, tmp_path, point):
        """The temp write, its fsync, the rename and the directory fsync
        are each a crash point; every one leaves a whole store."""
        path = str(tmp_path / "s.db")
        store = GraphStore(path, fsync="commit")
        store.save_document("doc", [graph("a", 2)])
        store.save_document("doc", [graph("a", 4)])
        store.close(checkpoint=False)
        crash = CrashPoint(crash_after=point, seed=point)
        store = GraphStore(path, fsync="commit", crashpoint=crash)
        with pytest.raises(SimulatedCrash):
            store.checkpoint()
        with GraphStore(path, fsync="never") as reopened:
            assert reopened.recovery.clean
            assert reopened.recovery.frames == (1 if point == 4 else 2)
            (back,) = reopened.load_documents()["doc"]
            assert back.equals(graph("a", 4))
