"""Page-based physical storage for graph data (Section 7 direction).

The paper's first future-research direction asks how to *"store graphs on
disks for efficient storage and fast retrieval"*, including *"how to
decompose the large graph into small chunks and preserve locality"*.
This module is a working answer at the classic-textbook level:

* :class:`PageFile` — an append-only file of fixed-size pages behind a
  header page, every write logged (:mod:`repro.storage.wal`);
* :class:`SlottedPage` — variable-length records inside a page through a
  slot directory (forward-growing records, backward-growing slots);
* :class:`RecordFile` — record ids ``(page, slot)`` over a page file,
  with insert / read and full-scan.

:mod:`repro.storage.graphstore` builds graph persistence and the BFS
clustering heuristic on top.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from typing import Callable, Dict, Iterator, List, Optional, Tuple

PAGE_SIZE = 4096
_MAGIC = b"GQLP"
# magic, page_count, free_list_head, store_version (u64, appended by the
# durability work — old files read zeros out of the header padding).
# Pages are never freed, so the free-list head is always written as _NO_PAGE.
_HEADER_FMT = "<4sIIQ"
_NO_PAGE = 0xFFFFFFFF


class StorageError(RuntimeError):
    """Raised on corrupt files or invalid record ids."""


class TransientIOError(StorageError):
    """A read fault that may succeed on retry (injected or environmental).

    :class:`RecordFile` retries these with bounded exponential backoff;
    anything still failing after the retry budget surfaces as-is.
    """


class ChecksumError(StorageError):
    """A page image failed its CRC32 verification (torn write, bit rot)."""


class PageFile:
    """A logged, append-only file of fixed-size pages with a header.

    Page 0 is the header; data pages start at 1 and are only ever
    appended.  Opening runs :func:`~repro.storage.wal.recover` on the
    write-ahead log at ``<path>.wal`` (its result is :attr:`recovery`)
    and then appends to that log.

    Every write after the header written at creation is transactional
    under a **no-steal** policy: between :meth:`begin` and
    :meth:`commit`, images accumulate in a pending buffer (reads see
    them — read-your-writes), commit frames them into the WAL, fsyncs it
    (the durability point), and only then writes the pages.  A write
    outside :meth:`begin` is its own one-write transaction.  A crash at
    any step leaves either the old state (commit record never became
    durable) or a state the WAL replay repairs.  ``store_version`` in
    the header counts committed transactions and is what lets
    :class:`~repro.core.graph.Graph` versions stay monotone across
    recoveries.  *fsync* is the policy of both files (``always`` /
    ``commit`` / ``never``).
    """

    def __init__(self, path: str, fsync: str = "never") -> None:
        # wal.py imports this module's PAGE_SIZE / StorageError
        from .wal import WriteAheadLog, recover, wal_path_for

        self.path = path
        self.fsync_policy = fsync
        #: optional :class:`~repro.storage.faults.CrashPoint` guarding
        #: raw file writes and fsyncs
        self.crashpoint = None
        self.store_version = 0
        self._txn: Optional[int] = None
        self._pending: Dict[int, bytes] = {}
        #: what opening found and repaired in the log
        self.recovery = recover(path, sync=fsync != "never")
        create = not os.path.exists(path) or os.path.getsize(path) == 0
        # unbuffered, like the WAL: an abandoned handle (crash) must
        # never hold page bytes that could flush after recovery ran
        self._file = open(path, "r+b" if not create else "w+b",
                          buffering=0)
        if create:
            # the one write outside the log: there is nothing to recover
            # yet, and an empty file is simply created again on reopen
            self._page_count = 1
            self._raw_write(0, self._header_image())
        else:
            self._read_header()
        self.wal = WriteAheadLog(wal_path_for(path), fsync=fsync)

    # -- header -----------------------------------------------------------------

    def _header_image(self) -> bytes:
        header = struct.pack(_HEADER_FMT, _MAGIC, self._page_count,
                             _NO_PAGE, self.store_version)
        return header.ljust(PAGE_SIZE, b"\x00")[:PAGE_SIZE]

    def _write_header(self) -> None:
        self.write_page(0, self._header_image())

    def _read_header(self) -> None:
        header_size = struct.calcsize(_HEADER_FMT)
        self._file.seek(0)
        raw = self._file.read(header_size)
        if len(raw) < header_size:
            raise StorageError(
                f"{self.path}: truncated header ({len(raw)} bytes, "
                f"need {header_size}); not a page file or badly damaged"
            )
        magic, page_count, _free_head, version = struct.unpack(
            _HEADER_FMT, raw)
        if magic != _MAGIC:
            raise StorageError(
                f"{self.path}: bad magic {magic!r} (expected {_MAGIC!r}); "
                "not a page file"
            )
        if page_count < 1:
            raise StorageError(
                f"{self.path}: header declares {page_count} pages; "
                "a page file has at least the header page"
            )
        actual = os.path.getsize(self.path)
        expected = page_count * PAGE_SIZE
        if actual < expected:
            raise StorageError(
                f"{self.path}: header declares {page_count} pages "
                f"({expected} bytes) but the file holds only {actual} bytes; "
                "the file is truncated"
            )
        self._page_count = page_count
        self.store_version = version

    # -- page access ---------------------------------------------------------------

    @property
    def num_pages(self) -> int:
        """Total pages including the header."""
        return self._page_count

    def read_page(self, page_no: int) -> bytes:
        """Read one page (header page 0 included).

        Inside a transaction, pages this transaction has written are
        served from the pending buffer (read-your-writes)."""
        if page_no >= self._page_count:
            raise StorageError(f"page {page_no} out of range")
        pending = self._pending.get(page_no)
        if pending is not None:
            return pending
        self._file.seek(page_no * PAGE_SIZE)
        data = self._file.read(PAGE_SIZE)
        if len(data) != PAGE_SIZE:
            raise StorageError(f"short read on page {page_no}")
        return data

    def _raw_write(self, page_no: int, data: bytes) -> None:
        """Write bytes at a page offset, through the crash injector."""
        self._file.seek(page_no * PAGE_SIZE)
        if self.crashpoint is not None:
            self.crashpoint.write(self._file.write, data)
        else:
            self._file.write(data)

    def write_page(self, page_no: int, data: bytes) -> None:
        """Write one full page into the open transaction's pending
        buffer (outside one, an implicit single-write transaction wraps
        it, so no page write can ever bypass the log)."""
        if len(data) != PAGE_SIZE:
            raise StorageError("page data must be exactly PAGE_SIZE bytes")
        if page_no >= self._page_count:
            raise StorageError(f"page {page_no} out of range")
        if self._txn is None:
            self.begin()
            self._pending[page_no] = bytes(data)
            self.commit()
        else:
            self._pending[page_no] = bytes(data)

    def allocate_page(self) -> int:
        """Append a zeroed page and return its number."""
        page_no = self._page_count
        self._page_count += 1
        # physical zero-extension happens immediately even inside a
        # transaction: reserving space is harmless to recover from (an
        # uncommitted extension just leaves fresh all-zero pages behind)
        self._raw_write(page_no, b"\x00" * PAGE_SIZE)
        self._write_header()
        return page_no

    # -- durability -----------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        """Whether a WAL transaction is open."""
        return self._txn is not None

    def begin(self) -> int:
        """Open a WAL transaction; page writes buffer until commit."""
        if self._txn is not None:
            raise StorageError("transaction already open (no nesting)")
        self._txn = self.wal.begin()
        return self._txn

    def commit(self) -> int:
        """Make the open transaction durable, then write its pages.

        Sequence: stamp the bumped ``store_version`` into the pending
        header image, frame BEGIN/pages/COMMIT into the WAL and fsync it
        (the durability point), then flush the pending pages and the
        file.  Returns the commit LSN.
        """
        if self._txn is None:
            raise StorageError("commit without an open transaction")
        self.store_version += 1
        self._write_header()  # lands in the pending buffer
        txn, self._txn = self._txn, None
        pending, self._pending = self._pending, {}
        try:
            lsn = self.wal.log_transaction(txn, pending)
            for page_no in sorted(pending):
                self._raw_write(page_no, pending[page_no])
            self.flush()
        except BaseException:
            # a failed commit (crash injection, disk error) must not
            # leave half a version bump behind in memory
            self.store_version -= 1
            raise
        return lsn

    def abort(self) -> None:
        """Drop the open transaction's buffered writes.

        The WAL never receives a COMMIT for the transaction id, so
        recovery discards anything already framed.  The in-memory page
        count may run ahead of the committed header; that only
        over-reserves zero pages, which reopening resolves.
        """
        self._txn = None
        self._pending = {}

    def flush(self) -> None:
        """Flush buffered writes; fsync unless the policy is ``never``."""
        self._file.flush()
        if self.fsync_policy != "never":
            if self.crashpoint is not None:
                self.crashpoint.barrier(
                    lambda: os.fsync(self._file.fileno()))
            else:
                os.fsync(self._file.fileno())

    def checkpoint(self) -> int:
        """Sync the page file, then truncate the WAL; returns bytes freed.

        Everything the log was protecting is durably in the pages after
        the sync, so the log restarts empty.
        """
        if self._txn is not None:
            raise StorageError("cannot checkpoint inside a transaction")
        self.flush()
        return self.wal.truncate()

    def close(self) -> None:
        """Flush and close the page file and its WAL.

        An open transaction is aborted, not committed: close during an
        exception unwind must not make half-applied work durable.
        """
        if self._txn is not None:
            self.abort()
        self._file.flush()
        self._file.close()
        self.wal.close()

    def __enter__(self) -> "PageFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# slotted page layout:
#   [u16 slot_count][u16 free_offset][u32 crc32] ...records...   ...slots...
# each slot: [u16 offset][u16 length].
# The CRC32 covers the whole page image with the crc field zeroed; it is
# stamped by to_bytes() (i.e. on every write-out) and verified when a
# page image is parsed, so torn writes and bit flips are detected at
# read time instead of surfacing as garbled records later.
_PAGE_HEADER = struct.Struct("<HHI")
_SLOT = struct.Struct("<HH")
_CRC_OFFSET = 4  # byte offset of the u32 crc within the page header


class SlottedPage:
    """Variable-length records within one page via a slot directory."""

    def __init__(self, data: Optional[bytes] = None, verify: bool = True) -> None:
        if data is None:
            self._buf = bytearray(PAGE_SIZE)
            self.slot_count = 0
            self.free_offset = _PAGE_HEADER.size
            self._store_header()
        else:
            self._buf = bytearray(data)
            if not any(self._buf):
                # a freshly allocated, never-written page: treat as empty
                self.slot_count = 0
                self.free_offset = _PAGE_HEADER.size
                self._store_header()
                return
            self.slot_count, self.free_offset, stored_crc = (
                _PAGE_HEADER.unpack_from(self._buf, 0)
            )
            if verify and stored_crc != self._compute_crc():
                raise ChecksumError(
                    f"page checksum mismatch (stored {stored_crc:#010x}, "
                    f"computed {self._compute_crc():#010x}); the page was "
                    "torn or corrupted"
                )

    def _compute_crc(self) -> int:
        """CRC32 of the page image with the crc field zeroed."""
        crc = zlib.crc32(self._buf[:_CRC_OFFSET])
        crc = zlib.crc32(b"\x00\x00\x00\x00", crc)
        return zlib.crc32(self._buf[_CRC_OFFSET + 4:], crc) & 0xFFFFFFFF

    def _store_header(self, crc: int = 0) -> None:
        _PAGE_HEADER.pack_into(self._buf, 0, self.slot_count,
                               self.free_offset, crc)

    def _slot_position(self, slot: int) -> int:
        return PAGE_SIZE - (slot + 1) * _SLOT.size

    def _read_slot(self, slot: int) -> Tuple[int, int]:
        if slot >= self.slot_count:
            raise StorageError(f"slot {slot} out of range")
        return _SLOT.unpack_from(self._buf, self._slot_position(slot))

    def free_space(self) -> int:
        """Bytes available for one more record (including its slot)."""
        directory_start = PAGE_SIZE - self.slot_count * _SLOT.size
        return max(0, directory_start - self.free_offset - _SLOT.size)

    def insert(self, record: bytes) -> Optional[int]:
        """Insert a record; returns its slot or None when full."""
        if len(record) > self.free_space():
            return None
        offset = self.free_offset
        self._buf[offset:offset + len(record)] = record
        slot = self.slot_count
        self.slot_count += 1
        self.free_offset = offset + len(record)
        _SLOT.pack_into(self._buf, self._slot_position(slot), offset,
                        len(record))
        self._store_header()
        return slot

    def read(self, slot: int) -> bytes:
        """Read a record by slot."""
        offset, length = self._read_slot(slot)
        return bytes(self._buf[offset:offset + length])

    def records(self) -> Iterator[Tuple[int, bytes]]:
        """Iterate ``(slot, record)`` pairs."""
        for slot in range(self.slot_count):
            yield (slot, self.read(slot))

    def to_bytes(self) -> bytes:
        """The raw page image, with a freshly stamped CRC32."""
        self._store_header(crc=self._compute_crc())
        return bytes(self._buf)


RecordId = Tuple[int, int]  # (page number, slot)

#: Usable record payload bound (page minus header minus one slot).
MAX_RECORD = PAGE_SIZE - _PAGE_HEADER.size - _SLOT.size


class RecordFile:
    """Record-id addressed storage over a :class:`PageFile`.

    Reads retry on :class:`TransientIOError` with bounded exponential
    backoff (*max_retries* attempts beyond the first, starting at
    *retry_backoff* seconds and doubling), so a storage layer with
    sporadic read faults — see :class:`repro.storage.faults.FaultyPageFile`
    — still serves records; persistent faults surface after the budget.

    *sleep* is the delay function the backoff uses; tests inject a fake
    to assert the schedule (1ms, 2ms, 4ms, ...) without burning
    wall-clock time.
    """

    def __init__(
        self,
        pagefile: PageFile,
        max_retries: int = 5,
        retry_backoff: float = 0.001,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.pagefile = pagefile
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.sleep = sleep
        self.retries_performed = 0
        self._data_pages: List[int] = [
            p for p in range(1, pagefile.num_pages)
        ]
        self._last_page: Optional[int] = (
            self._data_pages[-1] if self._data_pages else None
        )

    def _read_page(self, page_no: int) -> bytes:
        """Read one page, retrying transient faults with backoff."""
        attempt = 0
        while True:
            try:
                return self.pagefile.read_page(page_no)
            except TransientIOError:
                if attempt >= self.max_retries:
                    raise
                if self.retry_backoff > 0:
                    self.sleep(self.retry_backoff * (2 ** attempt))
                attempt += 1
                self.retries_performed += 1

    def insert(self, record: bytes) -> RecordId:
        """Append a record, allocating pages as needed."""
        if len(record) > MAX_RECORD:
            raise StorageError(
                f"record of {len(record)} bytes exceeds page capacity"
            )
        if self._last_page is not None:
            page = SlottedPage(self._read_page(self._last_page))
            slot = page.insert(record)
            if slot is not None:
                self.pagefile.write_page(self._last_page, page.to_bytes())
                return (self._last_page, slot)
        page_no = self.pagefile.allocate_page()
        self._data_pages.append(page_no)
        self._last_page = page_no
        page = SlottedPage()
        slot = page.insert(record)
        assert slot is not None
        self.pagefile.write_page(page_no, page.to_bytes())
        return (page_no, slot)

    def read(self, record_id: RecordId) -> bytes:
        """Read a record by id."""
        page_no, slot = record_id
        page = SlottedPage(self._read_page(page_no))
        return page.read(slot)

    def scan(self) -> Iterator[Tuple[RecordId, bytes]]:
        """Iterate all records in page order."""
        for page_no in self._data_pages:
            page = SlottedPage(self._read_page(page_no))
            for slot, record in page.records():
                yield ((page_no, slot), record)
