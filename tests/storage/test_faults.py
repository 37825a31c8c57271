"""Fault injection, frame checksums and file-validation error paths.

The smoke tests at the bottom drive the whole storage stack through a
FaultyLog at an injected read-fault rate taken from the
``REPRO_FAULT_RATE`` environment variable (default 5%), which is how the
CI fault-injection job runs them.
"""

import os

import pytest

from repro.core import Graph
from repro.storage import (
    ChecksumError,
    FaultyLog,
    GraphStore,
    StorageError,
    TransientIOError,
)
from repro.storage.wal import MAGIC, WriteAheadLog

FAULT_RATE = float(os.environ.get("REPRO_FAULT_RATE", "0.05"))


def rich_graph(name="g", nodes=40) -> Graph:
    graph = Graph(name)
    for i in range(nodes):
        graph.add_node(f"v{i}", label=f"L{i % 5}", weight=i * 1.5)
    for i in range(nodes - 1):
        graph.add_edge(f"v{i}", f"v{i + 1}")
    return graph


def log_with(path, *payloads) -> str:
    with WriteAheadLog(str(path), fsync="never") as log:
        for payload in payloads:
            log.commit(payload)
    return str(path)


class TestFrameChecksum:
    def test_roundtrip_verifies(self, tmp_path):
        path = log_with(tmp_path / "ok.db", b"hello", b"world")
        with WriteAheadLog(path, fsync="never") as log:
            assert log.frames() == [b"hello", b"world"]

    def test_bit_flip_detected(self, tmp_path):
        """A payload bit flip in a committed frame that is not the last
        raises on open, and the file is left untouched."""
        path = log_with(tmp_path / "flip.db", b"some record payload",
                        b"the last frame")
        image = bytearray(open(path, "rb").read())
        image[len(MAGIC) + 12 + 3] ^= 0x40
        open(path, "wb").write(bytes(image))
        with pytest.raises(ChecksumError, match="checksum"):
            WriteAheadLog(path, fsync="never")
        assert open(path, "rb").read() == bytes(image)

    def test_damaged_length_is_not_cut_as_a_torn_tail(self, tmp_path):
        """A flipped length that would run past the end of the file is
        caught by the length check instead of being cut."""
        path = log_with(tmp_path / "len.db", b"a" * 50, b"b" * 50)
        image = bytearray(open(path, "rb").read())
        image[len(MAGIC) + 4 + 2] ^= 0x01  # the first frame's length
        open(path, "wb").write(bytes(image))
        with pytest.raises(ChecksumError, match="length"):
            WriteAheadLog(path, fsync="never")
        assert open(path, "rb").read() == bytes(image)

    def test_zero_tail_is_cut(self, tmp_path):
        """Zeros after the last frame (an extension whose data never
        landed) are a torn tail, never a frame."""
        path = log_with(tmp_path / "zero.db", b"kept")
        with open(path, "ab") as handle:
            handle.write(b"\x00" * 100)
        with WriteAheadLog(path, fsync="never") as log:
            assert log.recovery.torn_bytes == 100
            assert log.frames() == [b"kept"]


class TestFileValidation:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.db"
        path.write_bytes(b"graph g { node a; };\n")
        with pytest.raises(StorageError, match="bad magic"):
            WriteAheadLog(str(path))
        # a foreign file is never cut or rewritten
        assert path.read_bytes() == b"graph g { node a; };\n"

    def test_short_header(self, tmp_path):
        path = tmp_path / "tiny.db"
        path.write_bytes(b"GQ")
        with pytest.raises(StorageError, match="truncated header"):
            WriteAheadLog(str(path))

    def test_truncated_file(self, tmp_path):
        """A file cut inside its last frame keeps every whole frame."""
        path = log_with(tmp_path / "trunc.db", b"one", b"two" * 40)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 30)
        with WriteAheadLog(path, fsync="never") as log:
            assert log.recovery.torn_tail
            assert log.frames() == [b"one"]


class TestFaultInjection:
    def test_rates_validated(self, tmp_path):
        with pytest.raises(ValueError, match="read_error_rate"):
            FaultyLog(str(tmp_path / "f.db"), read_error_rate=1.5)

    def test_transient_faults_are_raised_and_counted(self, tmp_path):
        log = FaultyLog(str(tmp_path / "f.db"), seed=3, fsync="never")
        log.read_error_rate = 1.0
        log.max_retries = 0
        with pytest.raises(TransientIOError, match="injected"):
            log.frames()
        assert log.stats.read_faults == 1

    def test_open_reads_through_the_fault_injector(self, tmp_path):
        """Opening is the log's read path too: a store whose every read
        faults cannot be opened, after the bounded retries."""
        path = log_with(tmp_path / "f.db", b"frame")
        with pytest.raises(TransientIOError):
            FaultyLog(path, read_error_rate=1.0, seed=3, fsync="never")

    def test_suspended_disables_injection(self, tmp_path):
        log = FaultyLog(str(tmp_path / "f.db"), seed=3, fsync="never")
        log.read_error_rate = 1.0
        with log.suspended():
            assert log.frames() == []  # no raise

    def test_write_fault_raises(self, tmp_path):
        log = FaultyLog(str(tmp_path / "f.db"), write_error_rate=1.0,
                        seed=3, fsync="never")
        with pytest.raises(StorageError, match="injected write"):
            log.commit(b"payload")
        assert log.size == os.path.getsize(log.path) == len(MAGIC)

    def test_torn_write_detected_by_crc(self, tmp_path):
        """A torn final append is cut on the next open; the frames
        before it survive."""
        path = str(tmp_path / "torn.db")
        log = FaultyLog(path, torn_write_rate=1.0, seed=5, fsync="never")
        with log.suspended():
            log.commit(b"A" * 2000)
        log.commit(b"B" * 1500)
        assert log.stats.torn_appends == 1
        log.close()
        with WriteAheadLog(path, fsync="never") as reopened:
            assert reopened.recovery.torn_tail
            assert reopened.frames() == [b"A" * 2000]

    def test_bit_flip_on_read_detected_by_crc(self, tmp_path):
        path = log_with(tmp_path / "rot.db", b"precious data" * 20)
        log = FaultyLog(path, seed=7, fsync="never")
        log.corrupt_read_rate = 1.0
        with pytest.raises(ChecksumError):
            log.frames()
        assert log.stats.bit_flips == 1
        with log.suspended():  # the file itself is intact
            assert log.frames() == [b"precious data" * 20]

    def test_header_page_exempt_by_default(self, tmp_path):
        """Bit flips spare the magic unless corrupt_header is set."""
        path = str(tmp_path / "h.db")
        log = FaultyLog(path, corrupt_read_rate=1.0, seed=9, fsync="never")
        assert log.read() == MAGIC  # nothing after the header to flip
        log.corrupt_header = True
        assert log.read() != MAGIC


class PatientLog(FaultyLog):
    """Retries set before the open's own read."""

    max_retries = 10
    retry_backoff = 0.0


class TestRetries:
    def test_open_rides_over_transient_faults(self, tmp_path):
        path = log_with(tmp_path / "retry.db",
                        *(f"record-{i}".encode() for i in range(50)))
        log = PatientLog(path, read_error_rate=0.4, seed=13, fsync="never")
        assert log.recovery.frames == 50
        for _ in range(20):
            assert log.frames() == [f"record-{i}".encode()
                                    for i in range(50)]
        assert log.stats.read_faults > 0
        assert log.retries_performed == log.stats.read_faults

    def test_backoff_schedule_doubles(self, tmp_path):
        """The injected sleep sees exactly 1ms, 2ms, 4ms, 8ms, 16ms — the
        documented bounded-exponential schedule, no wall clock burned."""
        log = FaultyLog(str(tmp_path / "sched.db"), seed=13, fsync="never")
        log.read_error_rate = 1.0
        delays = []
        log.sleep = delays.append
        with pytest.raises(TransientIOError):
            log.frames()
        assert delays == [0.001, 0.002, 0.004, 0.008, 0.016]

    def test_zero_backoff_never_sleeps(self, tmp_path):
        log = FaultyLog(str(tmp_path / "nosleep.db"), seed=13,
                        fsync="never")
        log.read_error_rate = 1.0
        log.retry_backoff = 0.0
        delays = []
        log.sleep = delays.append
        with pytest.raises(TransientIOError):
            log.frames()
        assert delays == []

    def test_retry_budget_is_bounded(self, tmp_path):
        log = FaultyLog(str(tmp_path / "hard.db"), seed=13, fsync="never")
        log.read_error_rate = 1.0
        log.max_retries = 3
        log.retry_backoff = 0.0
        with pytest.raises(TransientIOError):
            log.frames()
        # first attempt + 3 retries
        assert log.stats.read_faults == 4


class TestFaultSmoke:
    """The CI fault-injection job: storage stack at REPRO_FAULT_RATE."""

    def test_graphstore_roundtrip_under_read_faults(self, tmp_path,
                                                    monkeypatch):
        logs = []

        def faulty(path, **options):
            log = FaultyLog(path, read_error_rate=FAULT_RATE, seed=11,
                            **options)
            log.retry_backoff = 0.0
            logs.append(log)
            return log

        monkeypatch.setattr("repro.storage.graphstore.WriteAheadLog",
                            faulty)
        graph = rich_graph(nodes=120)
        path = str(tmp_path / "smoke.db")
        with GraphStore(path, fsync="never") as store:
            store.save_document("doc", [graph])
            for _ in range(40):
                (loaded,) = store.load_documents()["doc"]
                assert loaded.equals(graph)
        with GraphStore(path, fsync="never") as store:
            (loaded,) = store.load_documents()["doc"]
        assert loaded.equals(graph)
        if FAULT_RATE > 0:
            assert sum(log.stats.read_faults for log in logs) > 0

    def test_log_workload_under_read_faults(self, tmp_path):
        path = str(tmp_path / "wl.db")
        log = FaultyLog(path, read_error_rate=FAULT_RATE, seed=17,
                        fsync="never")
        log.retry_backoff = 0.0
        payloads = [os.urandom(64) for _ in range(200)]
        for payload in payloads:
            log.commit(payload)
        for _ in range(20):
            assert log.frames() == payloads
        log.close()
