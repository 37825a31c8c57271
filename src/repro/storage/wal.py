"""Write-ahead logging and crash recovery for the page storage layer.

PR 1 gave the storage layer corruption *detection* (per-page CRC32,
open-time validation); this module turns detection into *repair*.  The
design is the classic redo-only WAL with a **no-steal** buffer policy:

* during a transaction, page writes stay in memory
  (:attr:`~repro.storage.pager.PageFile` pending buffer) — the page file
  on disk is never touched by an uncommitted transaction;
* at commit, the transaction's page images are framed into the log
  (``BEGIN``, one ``PAGE`` record per touched page, ``COMMIT``), the log
  is fsynced (policy permitting), and only then are the pages written to
  the page file;
* on open, :func:`recover` replays the page images of every transaction
  whose ``COMMIT`` record survived, and discards uncommitted records and
  the torn tail (a record whose CRC fails or whose frame is cut short);
* a **checkpoint** fsyncs the page file and truncates the log to empty —
  everything the log protected is now safely in the pages.

Log records are CRC-framed and LSN-stamped::

    [u32 crc][u32 payload_len][u64 lsn][u8 kind][u64 txn] payload
    kind=PAGE payload: [u32 page_no][page image]
    kind=BEGIN/COMMIT payload: empty

The CRC covers everything after itself (frame fields + payload), so a
partial append — the crash mode this module exists for — is recognized
and cut off instead of being replayed as garbage.

Fsync policy (``always`` / ``commit`` / ``never``) controls when the log
forces data to disk: every append, only on commit records, or never
(fast, for tests and simulated-crash harnesses where the "disk" is the
file content itself).
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..obs.trace import span as trace_span
from .pager import PAGE_SIZE

#: Fsync policies accepted by the WAL and the page file.
FSYNC_ALWAYS = "always"
FSYNC_COMMIT = "commit"
FSYNC_NEVER = "never"
FSYNC_POLICIES = (FSYNC_ALWAYS, FSYNC_COMMIT, FSYNC_NEVER)

REC_BEGIN = 1
REC_PAGE = 2
REC_COMMIT = 3

_FRAME = struct.Struct("<IIQBQ")  # crc32, payload_len, lsn, kind, txn
_PAGE_NO = struct.Struct("<I")
_MAX_PAYLOAD = _PAGE_NO.size + PAGE_SIZE

#: Conventional WAL path for a page file at *path*.
WAL_SUFFIX = ".wal"


def wal_path_for(path: str) -> str:
    """The conventional WAL path next to a page file."""
    return path + WAL_SUFFIX


def check_fsync_policy(policy: str) -> str:
    """Validate an fsync policy name and return it."""
    if policy not in FSYNC_POLICIES:
        raise ValueError(
            f"unknown fsync policy {policy!r} "
            f"(expected one of {', '.join(FSYNC_POLICIES)})"
        )
    return policy


@dataclass
class WalRecord:
    """One decoded log record."""

    lsn: int
    kind: int
    txn: int
    page_no: Optional[int] = None
    data: bytes = b""


@dataclass
class WalScan:
    """The valid prefix of a log file plus what was cut off."""

    records: List[WalRecord] = field(default_factory=list)
    valid_bytes: int = 0
    torn_bytes: int = 0

    @property
    def torn_tail(self) -> bool:
        """Whether the file ended in a torn (unparseable) record."""
        return self.torn_bytes > 0


def _frame(lsn: int, kind: int, txn: int, payload: bytes) -> bytes:
    body = _FRAME.pack(0, len(payload), lsn, kind, txn)[4:] + payload
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return struct.pack("<I", crc) + body


def scan_wal(path: str) -> WalScan:
    """Parse a log file up to the first torn or corrupt record.

    Everything before the tear is returned; the tear itself and anything
    after it (unreachable once one record is unframeable) is counted in
    ``torn_bytes`` and will be discarded by recovery.
    """
    scan = WalScan()
    if not os.path.exists(path):
        return scan
    raw = open(path, "rb").read()
    offset = 0
    while offset < len(raw):
        if offset + _FRAME.size > len(raw):
            break
        crc, length, lsn, kind, txn = _FRAME.unpack_from(raw, offset)
        end = offset + _FRAME.size + length
        if length > _MAX_PAYLOAD or end > len(raw):
            break
        if zlib.crc32(raw[offset + 4:end]) & 0xFFFFFFFF != crc:
            break
        payload = raw[offset + _FRAME.size:end]
        record = WalRecord(lsn=lsn, kind=kind, txn=txn)
        if kind == REC_PAGE:
            if length < _PAGE_NO.size:
                break
            (record.page_no,) = _PAGE_NO.unpack_from(payload, 0)
            record.data = payload[_PAGE_NO.size:]
            if len(record.data) != PAGE_SIZE:
                break
        scan.records.append(record)
        offset = end
    scan.valid_bytes = offset
    scan.torn_bytes = len(raw) - offset
    return scan


class WriteAheadLog:
    """An append-only, CRC-framed redo log for one page file.

    Appends happen at commit time (the page file's no-steal buffer hands
    over the final image of every touched page), so the log holds whole
    transactions back to back.  A crash mid-append leaves a torn tail
    that :func:`scan_wal` cuts off.
    """

    def __init__(self, path: str, fsync: str = FSYNC_COMMIT) -> None:
        self.path = path
        self.fsync_policy = check_fsync_policy(fsync)
        #: optional :class:`~repro.storage.faults.CrashPoint`
        self.crashpoint = None
        self.appends = 0
        scan = scan_wal(path)
        self._next_lsn = (scan.records[-1].lsn + 1) if scan.records else 1
        self._next_txn = (max((r.txn for r in scan.records), default=0) + 1)
        # unbuffered: the file's contents must always equal what was
        # written, even when a (simulated or real) crash abandons this
        # handle — a userspace buffer would make "committed" records
        # vanish, or flush stale bytes long after recovery ran
        self._file = open(path, "r+b" if os.path.exists(path) else "w+b",
                          buffering=0)
        # position after the valid prefix: a torn tail left by a crash is
        # overwritten by the next append instead of blocking it
        self._file.seek(scan.valid_bytes)
        self._file.truncate()

    # -- writing --------------------------------------------------------------

    def _write(self, data: bytes) -> None:
        if self.crashpoint is not None:
            self.crashpoint.write(self._file.write, data)
        else:
            self._file.write(data)
        self.appends += 1

    def _sync(self) -> None:
        with trace_span("wal.fsync"):
            self._file.flush()
            if self.crashpoint is not None:
                self.crashpoint.barrier(
                    lambda: os.fsync(self._file.fileno()))
            else:
                os.fsync(self._file.fileno())

    def append(self, kind: int, txn: int, payload: bytes = b"") -> int:
        """Append one framed record; returns its LSN."""
        lsn = self._next_lsn
        self._next_lsn += 1
        with trace_span("wal.append") as sp:
            data = _frame(lsn, kind, txn, payload)
            self._write(data)
            if self.fsync_policy == FSYNC_ALWAYS:
                self._sync()
            sp.incr("bytes", len(data))
        return lsn

    def begin(self) -> int:
        """Allocate a transaction id (the BEGIN marker is framed at
        commit, when the transaction's pages are known)."""
        txn = self._next_txn
        self._next_txn += 1
        return txn

    def log_transaction(self, txn: int,
                        pages: Dict[int, bytes]) -> int:
        """Frame one whole transaction: BEGIN, its pages, COMMIT.

        Returns the COMMIT record's LSN.  The commit fsync (policy
        ``always``/``commit``) is the durability point: once it
        returns, recovery will replay this transaction.
        """
        with trace_span("wal.commit") as sp:
            self.append(REC_BEGIN, txn)
            for page_no in sorted(pages):
                self.append(REC_PAGE, txn,
                            _PAGE_NO.pack(page_no) + pages[page_no])
            lsn = self.append(REC_COMMIT, txn)
            if self.fsync_policy in (FSYNC_ALWAYS, FSYNC_COMMIT):
                self._sync()
            sp.incr("pages", len(pages))
        return lsn

    # -- maintenance ----------------------------------------------------------

    @property
    def size(self) -> int:
        """Bytes currently in the log file."""
        self._file.flush()
        return os.path.getsize(self.path)

    def truncate(self) -> int:
        """Drop every record (the checkpoint step); returns bytes freed.

        Only call after the page file has been flushed and fsynced —
        truncating earlier would discard the only copy of committed
        changes that have not reached the pages yet.
        """
        with trace_span("wal.checkpoint") as sp:
            freed = self.size
            self._file.seek(0)
            self._file.truncate()
            if self.fsync_policy != FSYNC_NEVER:
                self._sync()
            sp.incr("bytes_freed", freed)
        return freed

    def close(self) -> None:
        """Flush and close the log file."""
        self._file.flush()
        self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class RecoveryResult:
    """What :func:`recover` found and did."""

    ran: bool = False
    wal_records: int = 0
    replayed_transactions: int = 0
    replayed_pages: int = 0
    discarded_records: int = 0
    torn_tail: bool = False
    wal_bytes: int = 0
    last_lsn: int = 0

    @property
    def clean(self) -> bool:
        """Whether the store needed no repair at all."""
        return self.replayed_transactions == 0 and self.discarded_records == 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (service ``stats`` / CLI ``--json``)."""
        return {
            "ran": self.ran,
            "clean": self.clean,
            "wal_records": self.wal_records,
            "replayed_transactions": self.replayed_transactions,
            "replayed_pages": self.replayed_pages,
            "discarded_records": self.discarded_records,
            "torn_tail": self.torn_tail,
            "wal_bytes": self.wal_bytes,
            "last_lsn": self.last_lsn,
        }


def recover(path: str, wal_path: Optional[str] = None,
            sync: bool = True) -> RecoveryResult:
    """Replay committed transactions into the page file, then truncate.

    Safe to run on a clean store (no-op), after a crash at any write
    boundary (torn WAL tail, torn page flush, missing page file), and
    repeatedly (replay is idempotent: it rewrites full page images).
    Must run *before* the page file is opened for validation — a crash
    between commit and page flush can leave pages, or the header itself,
    torn until the replay repairs them.
    """
    wal_path = wal_path if wal_path is not None else wal_path_for(path)
    result = RecoveryResult(ran=True)
    scan = scan_wal(wal_path)
    result.wal_records = len(scan.records)
    result.torn_tail = scan.torn_tail
    result.wal_bytes = scan.valid_bytes + scan.torn_bytes
    if scan.records:
        result.last_lsn = scan.records[-1].lsn
    committed = {r.txn for r in scan.records if r.kind == REC_COMMIT}
    replayed: List[Tuple[int, bytes]] = []
    replayed_txns = set()
    for record in scan.records:
        if record.kind == REC_PAGE and record.txn in committed:
            replayed.append((record.page_no, record.data))
            replayed_txns.add(record.txn)
        elif record.txn not in committed:
            result.discarded_records += 1
    result.replayed_transactions = len(replayed_txns)
    result.replayed_pages = len(replayed)
    if replayed:
        mode = "r+b" if os.path.exists(path) else "w+b"
        with open(path, mode) as pages:
            pages.seek(0, os.SEEK_END)
            length = pages.tell()
            for page_no, image in replayed:
                offset = page_no * PAGE_SIZE
                if offset > length:
                    # pages between the old end and this one are fresh
                    # allocations whose zero-fill never hit the disk
                    pages.seek(length)
                    pages.write(b"\x00" * (offset - length))
                pages.seek(offset)
                pages.write(image)
                length = max(length, offset + PAGE_SIZE)
            pages.flush()
            if sync:
                os.fsync(pages.fileno())
    if os.path.exists(wal_path) and result.wal_bytes:
        # the post-recovery checkpoint: everything replayable is now in
        # the pages (or was uncommitted garbage), so the log restarts
        with open(wal_path, "r+b") as log:
            log.truncate(0)
            log.flush()
            if sync:
                os.fsync(log.fileno())
    return result
