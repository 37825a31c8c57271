"""Unit tests for the write-ahead log, transactions, and recovery."""

import struct

import pytest

from repro.core import Graph
from repro.storage.faults import CrashPoint, SimulatedCrash
from repro.storage.graphstore import GraphStore
from repro.storage.pager import PAGE_SIZE, PageFile, StorageError
from repro.storage.wal import (
    REC_BEGIN,
    REC_COMMIT,
    REC_PAGE,
    RecoveryResult,
    WriteAheadLog,
    recover,
    scan_wal,
    wal_path_for,
)


class TestFraming:
    def test_append_scan_roundtrip(self, tmp_path):
        path = str(tmp_path / "t.wal")
        image = b"\xAB" * PAGE_SIZE
        with WriteAheadLog(path, fsync="never") as wal:
            wal.append(REC_BEGIN, 7)
            wal.append(REC_PAGE, 7, struct.pack("<I", 5) + image)
            wal.append(REC_COMMIT, 7)
        scan = scan_wal(path)
        assert [r.kind for r in scan.records] == [REC_BEGIN, REC_PAGE,
                                                  REC_COMMIT]
        assert [r.txn for r in scan.records] == [7, 7, 7]
        assert scan.records[1].page_no == 5
        assert scan.records[1].data == image
        assert [r.lsn for r in scan.records] == [1, 2, 3]
        assert not scan.torn_tail

    def test_torn_tail_is_cut_on_reopen(self, tmp_path):
        path = str(tmp_path / "t.wal")
        with WriteAheadLog(path, fsync="never") as wal:
            wal.append(REC_BEGIN, 1)
            wal.append(REC_COMMIT, 1)
        with open(path, "ab") as handle:
            handle.write(b"\x13\x37garbage torn tail")
        scan = scan_wal(path)
        assert scan.torn_tail
        assert len(scan.records) == 2
        # reopening truncates the torn tail and appends after it
        with WriteAheadLog(path, fsync="never") as wal:
            assert wal.size == scan.valid_bytes
            wal.append(REC_BEGIN, 2)
        assert len(scan_wal(path).records) == 3

    def test_corrupt_record_stops_scan(self, tmp_path):
        path = str(tmp_path / "t.wal")
        with WriteAheadLog(path, fsync="never") as wal:
            wal.append(REC_BEGIN, 1)
            offset = wal.size
            wal.append(REC_PAGE, 1, struct.pack("<I", 2) + b"x" * PAGE_SIZE)
        with open(path, "r+b") as handle:
            handle.seek(offset + 40)  # inside the second record's body
            handle.write(b"\xff")
        scan = scan_wal(path)
        assert len(scan.records) == 1  # CRC rejects the flipped record
        assert scan.torn_tail

    def test_missing_file_scans_empty(self, tmp_path):
        scan = scan_wal(str(tmp_path / "absent.wal"))
        assert scan.records == []
        assert not scan.torn_tail


class TestTransactions:
    def test_commit_persists_and_logs(self, tmp_path):
        pf = PageFile(str(tmp_path / "p.db"))
        page = pf.allocate_page()  # header update = its own implicit txn
        commits_before = sum(
            r.kind == REC_COMMIT for r in scan_wal(pf.wal.path).records)
        pf.begin()
        pf.write_page(page, b"A" * PAGE_SIZE)
        pf.commit()
        assert pf.read_page(page) == b"A" * PAGE_SIZE
        records = scan_wal(pf.wal.path).records
        assert sum(r.kind == REC_COMMIT
                   for r in records) == commits_before + 1
        assert any(r.kind == REC_PAGE and r.page_no == page
                   for r in records)
        pf.close()

    def test_abort_discards_pending(self, tmp_path):
        pf = PageFile(str(tmp_path / "p.db"))
        page = pf.allocate_page()
        pf.begin()
        pf.write_page(page, b"B" * PAGE_SIZE)
        assert pf.read_page(page) == b"B" * PAGE_SIZE  # read-your-writes
        pf.abort()
        assert pf.read_page(page) == b"\x00" * PAGE_SIZE
        pf.close()

    def test_implicit_transaction_outside_begin(self, tmp_path):
        """No write can bypass the WAL: a bare write_page auto-commits."""
        pf = PageFile(str(tmp_path / "p.db"))
        page = pf.allocate_page()
        before = pf.store_version
        pf.write_page(page, b"C" * PAGE_SIZE)
        assert pf.store_version == before + 1
        kinds = [r.kind for r in scan_wal(pf.wal.path).records]
        assert REC_COMMIT in kinds
        pf.close()

    def test_store_version_counts_commits(self, tmp_path):
        path = tmp_path / "p.db"
        pf = PageFile(str(path))
        page = pf.allocate_page()
        for i in range(3):
            pf.begin()
            pf.write_page(page, bytes([i]) * PAGE_SIZE)
            pf.commit()
        version = pf.store_version
        pf.close()
        reopened = PageFile(str(path))
        assert reopened.store_version == version
        reopened.close()

    def test_nested_begin_rejected(self, tmp_path):
        pf = PageFile(str(tmp_path / "p.db"))
        pf.begin()
        with pytest.raises(StorageError):
            pf.begin()
        pf.abort()
        pf.close()


class TestRecovery:
    def test_recover_replays_committed(self, tmp_path):
        path = str(tmp_path / "p.db")
        pf = PageFile(path)
        page = pf.allocate_page()
        pf.begin()
        pf.write_page(page, b"D" * PAGE_SIZE)
        pf.commit()
        pf.close()
        # clobber the committed page behind the pager's back (as if the
        # page write never reached the disk); the WAL still holds the
        # commit, so recovery must restore the page image
        with open(path, "r+b") as handle:
            handle.seek(page * PAGE_SIZE)
            handle.write(b"\x00" * PAGE_SIZE)
        result = recover(path)
        assert isinstance(result, RecoveryResult)
        assert result.replayed_transactions >= 1
        reopened = PageFile(path)
        assert reopened.read_page(page) == b"D" * PAGE_SIZE
        reopened.close()

    def test_uncommitted_records_discarded(self, tmp_path):
        path = str(tmp_path / "p.db")
        wal_path = wal_path_for(path)
        pf = PageFile(path)
        page = pf.allocate_page()
        pf.begin()
        pf.write_page(page, b"E" * PAGE_SIZE)
        pf.commit()
        pf.close()
        # append a BEGIN + PAGE without a COMMIT (a crash mid-commit)
        with WriteAheadLog(wal_path, fsync="never") as wal:
            txn = wal.begin()
            wal.append(REC_BEGIN, txn)
            wal.append(REC_PAGE, txn,
                       struct.pack("<I", page) + b"Z" * PAGE_SIZE)
        result = recover(path)
        assert result.discarded_records == 2
        reopened = PageFile(path)
        assert reopened.read_page(page) == b"E" * PAGE_SIZE
        reopened.close()

    def test_recovery_truncates_wal_and_is_idempotent(self, tmp_path):
        path = str(tmp_path / "p.db")
        pf = PageFile(path)
        page = pf.allocate_page()
        pf.write_page(page, b"F" * PAGE_SIZE)
        pf.close()
        first = recover(path)
        assert scan_wal(wal_path_for(path)).records == []
        second = recover(path)
        assert second.clean
        assert second.replayed_transactions == 0
        del first

    def test_checkpoint_truncates(self, tmp_path):
        pf = PageFile(str(tmp_path / "p.db"))
        page = pf.allocate_page()
        pf.write_page(page, b"G" * PAGE_SIZE)
        assert pf.wal.size > 0
        freed = pf.checkpoint()
        assert freed > 0
        assert pf.wal.size == 0
        assert pf.read_page(page) == b"G" * PAGE_SIZE
        pf.close()

    def test_checkpoint_inside_transaction_rejected(self, tmp_path):
        pf = PageFile(str(tmp_path / "p.db"))
        pf.begin()
        with pytest.raises(StorageError):
            pf.checkpoint()
        pf.abort()
        pf.close()


class TestEveryPageFileIsLogged:
    """A bare ``PageFile`` owns its log: writes reach ``<path>.wal`` and
    opening replays it, with no WAL or ``recover()`` call by the caller."""

    def test_bare_write_commits_to_the_wal(self, tmp_path):
        path = str(tmp_path / "p.db")
        pf = PageFile(path)
        page = pf.allocate_page()
        pf.write_page(page, b"H" * PAGE_SIZE)
        pf.close()
        records = scan_wal(path + ".wal").records
        assert any(r.kind == REC_COMMIT for r in records)
        assert any(r.kind == REC_PAGE and r.page_no == page
                   for r in records)

    def test_open_replays_a_committed_page(self, tmp_path):
        path = str(tmp_path / "p.db")
        pf = PageFile(path)
        page = pf.allocate_page()
        pf.write_page(page, b"I" * PAGE_SIZE)
        pf.close()
        with open(path, "r+b") as handle:  # the page write never landed
            handle.seek(page * PAGE_SIZE)
            handle.write(b"\x00" * PAGE_SIZE)
        reopened = PageFile(path)
        assert reopened.recovery.replayed_transactions >= 1
        assert reopened.read_page(page) == b"I" * PAGE_SIZE
        reopened.close()


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
            ops_for_first = store.pagefile.crashpoint  # none attached
        assert ops_for_first is None
        crash = CrashPoint(crash_after=2, seed=3)
        store = GraphStore(path, fsync="never", crashpoint=crash)
        with pytest.raises(SimulatedCrash):
            store.save_document("doc", [g2])
        recovered = GraphStore(path, fsync="never")
        docs = recovered.load_documents()
        back = docs["doc"][0]
        assert back.equals(g1) or back.equals(g2)  # prefix contract
        assert back.version in (g1.version, g2.version)
        recovered.close()
