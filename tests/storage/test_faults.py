"""Fault injection, page checksums and file-validation error paths.

The smoke test at the bottom drives the whole storage stack through a
FaultyPageFile at an injected read-fault rate taken from the
``REPRO_FAULT_RATE`` environment variable (default 5%), which is how the
CI fault-injection job runs it.
"""

import os
import struct

import pytest

from repro.core import Graph
from repro.storage import (
    ChecksumError,
    FaultyPageFile,
    GraphStore,
    StorageError,
    TransientIOError,
)
from repro.storage.pager import (
    PAGE_SIZE,
    PageFile,
    RecordFile,
    SlottedPage,
)

FAULT_RATE = float(os.environ.get("REPRO_FAULT_RATE", "0.05"))


def rich_graph(name="g", nodes=40) -> Graph:
    graph = Graph(name)
    for i in range(nodes):
        graph.add_node(f"v{i}", label=f"L{i % 5}", weight=i * 1.5)
    for i in range(nodes - 1):
        graph.add_edge(f"v{i}", f"v{i + 1}")
    return graph


class TestPageChecksum:
    def test_roundtrip_verifies(self):
        page = SlottedPage()
        page.insert(b"hello")
        image = page.to_bytes()
        reloaded = SlottedPage(image)
        assert reloaded.read(0) == b"hello"

    def test_bit_flip_detected(self):
        page = SlottedPage()
        page.insert(b"some record payload")
        image = bytearray(page.to_bytes())
        image[100] ^= 0x40  # one flipped bit anywhere in the page
        with pytest.raises(ChecksumError, match="checksum"):
            SlottedPage(bytes(image))

    def test_verification_can_be_skipped(self):
        page = SlottedPage()
        page.insert(b"x")
        image = bytearray(page.to_bytes())
        image[50] ^= 1
        SlottedPage(bytes(image), verify=False)  # no raise

    def test_all_zero_page_is_fresh(self):
        page = SlottedPage(b"\x00" * PAGE_SIZE)
        assert page.slot_count == 0
        assert page.insert(b"first") == 0


class TestFileValidation:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.db"
        path.write_bytes(b"NOPE" + b"\x00" * (PAGE_SIZE - 4))
        with pytest.raises(StorageError, match="bad magic"):
            PageFile(str(path))

    def test_short_header(self, tmp_path):
        path = tmp_path / "tiny.db"
        path.write_bytes(b"GQ")
        with pytest.raises(StorageError, match="truncated header"):
            PageFile(str(path))

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "trunc.db"
        with PageFile(str(path)) as pagefile:
            pagefile.allocate_page()
            pagefile.allocate_page()
        with open(path, "r+b") as handle:
            handle.truncate(PAGE_SIZE + 10)  # header says 3 pages
        with pytest.raises(StorageError, match="truncated"):
            PageFile(str(path))

    def test_zero_page_count(self, tmp_path):
        path = tmp_path / "zero.db"
        header = struct.pack("<4sII", b"GQLP", 0, 0xFFFFFFFF)
        path.write_bytes(header.ljust(PAGE_SIZE, b"\x00"))
        with pytest.raises(StorageError, match="at least the header"):
            PageFile(str(path))


class TestFaultInjection:
    def test_rates_validated(self, tmp_path):
        with pytest.raises(ValueError, match="read_error_rate"):
            FaultyPageFile(str(tmp_path / "f.db"), read_error_rate=1.5)

    def test_transient_faults_are_raised_and_counted(self, tmp_path):
        pagefile = FaultyPageFile(str(tmp_path / "f.db"),
                                  read_error_rate=1.0, seed=3)
        pagefile.allocate_page()
        with pytest.raises(TransientIOError, match="injected"):
            pagefile.read_page(1)
        assert pagefile.stats.read_faults == 1

    def test_suspended_disables_injection(self, tmp_path):
        pagefile = FaultyPageFile(str(tmp_path / "f.db"),
                                  read_error_rate=1.0, seed=3)
        pagefile.allocate_page()
        with pagefile.suspended():
            pagefile.read_page(1)  # no raise

    def test_write_fault_raises(self, tmp_path):
        pagefile = FaultyPageFile(str(tmp_path / "f.db"),
                                  write_error_rate=1.0, seed=3)
        with pytest.raises(StorageError, match="injected write"):
            pagefile.write_page(0, b"\x00" * PAGE_SIZE)

    def test_torn_write_detected_by_crc(self, tmp_path):
        pagefile = FaultyPageFile(str(tmp_path / "torn.db"),
                                  torn_write_rate=1.0, seed=5)
        page_no = pagefile.allocate_page()
        page = SlottedPage()
        page.insert(b"A" * 2000)
        page.insert(b"B" * 1500)
        pagefile.write_page(page_no, page.to_bytes())
        assert pagefile.stats.torn_pages == 1
        with pagefile.suspended():
            raw = pagefile.read_page(page_no)
        with pytest.raises(ChecksumError):
            SlottedPage(raw)

    def test_bit_flip_on_read_detected_by_crc(self, tmp_path):
        pagefile = FaultyPageFile(str(tmp_path / "rot.db"),
                                  corrupt_read_rate=1.0, seed=7)
        page_no = pagefile.allocate_page()
        page = SlottedPage()
        page.insert(b"precious data")
        with pagefile.suspended():
            pagefile.write_page(page_no, page.to_bytes())
        raw = pagefile.read_page(page_no)
        assert pagefile.stats.bit_flips == 1
        with pytest.raises(ChecksumError):
            SlottedPage(raw)

    def test_header_page_exempt_by_default(self, tmp_path):
        pagefile = FaultyPageFile(str(tmp_path / "h.db"),
                                  corrupt_read_rate=1.0, seed=9)
        raw = pagefile.read_page(0)
        with pagefile.suspended():
            clean = pagefile.read_page(0)
        assert raw == clean  # page 0 was not bit-flipped


class TestRetries:
    def test_recordfile_rides_over_transient_faults(self, tmp_path):
        pagefile = FaultyPageFile(str(tmp_path / "retry.db"),
                                  read_error_rate=0.4, seed=13)
        records = RecordFile(pagefile, max_retries=10, retry_backoff=0.0)
        ids = [records.insert(f"record-{i}".encode()) for i in range(50)]
        for i, record_id in enumerate(ids):
            assert records.read(record_id) == f"record-{i}".encode()
        assert pagefile.stats.read_faults > 0
        assert records.retries_performed >= pagefile.stats.read_faults

    def test_backoff_schedule_doubles(self, tmp_path):
        """The injected sleep sees exactly 1ms, 2ms, 4ms, ... — the
        documented bounded-exponential schedule, no wall clock burned."""
        pagefile = FaultyPageFile(str(tmp_path / "sched.db"),
                                  read_error_rate=1.0, seed=13)
        pagefile.allocate_page()
        delays = []
        records = RecordFile(pagefile, max_retries=5, retry_backoff=0.001,
                             sleep=delays.append)
        with pytest.raises(TransientIOError):
            records.read((1, 0))
        assert delays == [0.001, 0.002, 0.004, 0.008, 0.016]

    def test_zero_backoff_never_sleeps(self, tmp_path):
        pagefile = FaultyPageFile(str(tmp_path / "nosleep.db"),
                                  read_error_rate=1.0, seed=13)
        pagefile.allocate_page()
        delays = []
        records = RecordFile(pagefile, max_retries=3, retry_backoff=0.0,
                             sleep=delays.append)
        with pytest.raises(TransientIOError):
            records.read((1, 0))
        assert delays == []

    def test_retry_budget_is_bounded(self, tmp_path):
        pagefile = FaultyPageFile(str(tmp_path / "hard.db"),
                                  read_error_rate=1.0, seed=13)
        pagefile.allocate_page()
        records = RecordFile(pagefile, max_retries=3, retry_backoff=0.0)
        with pytest.raises(TransientIOError):
            records.read((1, 0))
        # first attempt + 3 retries
        assert pagefile.stats.read_faults == 4


class TestFaultSmoke:
    """The CI fault-injection job: storage stack at REPRO_FAULT_RATE."""

    def test_graphstore_roundtrip_under_read_faults(self, tmp_path,
                                                    monkeypatch):
        def faulty(path, **_options):
            return FaultyPageFile(path, read_error_rate=FAULT_RATE, seed=11)

        monkeypatch.setattr("repro.storage.graphstore.PageFile", faulty)
        graph = rich_graph(nodes=120)
        path = str(tmp_path / "smoke.db")
        with GraphStore(path) as store:
            store.records.retry_backoff = 0.0
            store.save(graph)
            (loaded,) = store.load_all()
        assert loaded.equals(graph)
        pagefile = store.pagefile
        if FAULT_RATE > 0:
            assert pagefile.stats.read_faults > 0

    def test_recordfile_workload_under_read_faults(self, tmp_path):
        pagefile = FaultyPageFile(str(tmp_path / "wl.db"),
                                  read_error_rate=FAULT_RATE, seed=17)
        records = RecordFile(pagefile, retry_backoff=0.0)
        payloads = {records.insert(os.urandom(64)): i for i in range(200)}
        scanned = list(records.scan())
        assert len(scanned) == len(payloads)
