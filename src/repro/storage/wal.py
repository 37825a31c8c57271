"""The durable store's one file: an append-only log of CRC-framed
transactions.

The paper's Section 7 asks how graphs should live on disk.  Every served
path loads a document whole into memory, so the store keeps no page
layout: it is a single file, a magic header followed by one frame per
committed transaction::

    file  := MAGIC frame*
    frame := [u32 crc][u32 len][u32 len_crc] payload

``crc`` covers the payload and ``len_crc`` the length field, so a
damaged length is caught before it is trusted.  The payload is the
transaction's logical records back to back, as
:mod:`repro.storage.graphstore` encodes them.  A frame whose checks hold
is committed: there are no begin or commit records and no transaction
ids.

* **Commit** is one ``write`` of one frame, then (fsync policy
  ``commit``) one fsync — the durability point.
* **Open is recovery.**  The file is read once (a transient read fault
  is retried with bounded doubling backoff) and scanned.  A final frame
  cut short — a torn append — is cut off, and so is a tail of zeros (an
  extension whose data never landed).  A complete frame that fails a
  check is corruption of committed data wherever it sits: open raises
  :class:`ChecksumError` and leaves the file as it is, so damage is
  never silently cut as if it were a torn tail.
* **Checkpoint is compaction** (:meth:`WriteAheadLog.compact`): the live
  state is written as one frame to ``path + ".tmp"``, fsynced, renamed
  over ``path``, and the directory fsynced.  A crash at any point leaves
  the old file or the new one.  Creating a store installs the bare
  header the same way.

Fsync policy ``commit`` syncs at every commit and compaction; ``never``
skips every sync (tests, and crash harnesses whose "disk" is the file
content itself).
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs.trace import span as trace_span

#: Fsync policies accepted by the log.
FSYNC_COMMIT = "commit"
FSYNC_NEVER = "never"
FSYNC_POLICIES = (FSYNC_COMMIT, FSYNC_NEVER)

#: The first bytes of every store file (format version 1).
MAGIC = b"GQLSTOR1"

_FRAME = struct.Struct("<III")  # payload crc, payload length, length crc
_LENGTH = struct.Struct("<I")
#: Largest payload a frame can declare.
MAX_PAYLOAD = 0xFFFFFFFF


class StorageError(RuntimeError):
    """Raised on corrupt or foreign files and on unencodable data."""


class TransientIOError(StorageError):
    """A read fault that may succeed on retry (injected or environmental).

    The log's read retries these with bounded exponential backoff;
    anything still failing after the retry budget surfaces as-is.
    """


class ChecksumError(StorageError):
    """A complete frame failed its CRC32 check (bit rot, overwrite)."""


def check_fsync_policy(policy: str) -> str:
    """Validate an fsync policy name and return it."""
    if policy not in FSYNC_POLICIES:
        raise ValueError(
            f"unknown fsync policy {policy!r} "
            f"(expected one of {', '.join(FSYNC_POLICIES)})"
        )
    return policy


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def frame(payload: bytes) -> bytes:
    """One committed transaction as it sits in the file."""
    if len(payload) > MAX_PAYLOAD:
        raise StorageError(
            f"transaction of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD}-byte frame limit")
    length = _LENGTH.pack(len(payload))
    return (_LENGTH.pack(_crc(payload)) + length
            + _LENGTH.pack(_crc(length)) + payload)


def scan(data: bytes, path: str = "log") -> Tuple[List[bytes], int]:
    """The committed frame payloads of a whole file image, and the
    offset where they end (a torn tail, if any, starts there).

    Raises :class:`StorageError` for a file that is not a store and
    :class:`ChecksumError` for a complete frame that fails a check.
    """
    if len(data) < len(MAGIC):
        raise StorageError(
            f"{path}: truncated header ({len(data)} bytes, need "
            f"{len(MAGIC)}); not a store file or badly damaged")
    if data[:len(MAGIC)] != MAGIC:
        raise StorageError(
            f"{path}: bad magic {data[:len(MAGIC)]!r} (expected "
            f"{MAGIC!r}); not a store file")
    frames: List[bytes] = []
    offset = len(MAGIC)
    end = len(data)
    while offset < end:
        body = offset + _FRAME.size
        if body > end:
            break  # a torn header
        crc, length, length_crc = _FRAME.unpack_from(data, offset)
        if _crc(data[offset + 4:offset + 8]) != length_crc:
            if not any(data[offset:]):
                break  # zero fill: the append's data never landed
            raise ChecksumError(
                f"{path}: frame at byte {offset} has a damaged length "
                "field")
        if body + length > end:
            break  # cut short: a torn append
        payload = data[body:body + length]
        if _crc(payload) != crc:
            raise ChecksumError(
                f"{path}: frame at byte {offset} failed its checksum "
                f"(stored {crc:#010x}, computed {_crc(payload):#010x})")
        frames.append(payload)
        offset = body + length
    return frames, offset


@dataclass
class RecoveryResult:
    """What opening the log found and repaired."""

    ran: bool = False
    #: committed frames found
    frames: int = 0
    #: bytes of torn tail cut off
    torn_bytes: int = 0
    #: file bytes after the cut
    log_bytes: int = 0

    @property
    def torn_tail(self) -> bool:
        """Whether the file ended in a torn append."""
        return self.torn_bytes > 0

    @property
    def clean(self) -> bool:
        """Whether open cut nothing."""
        return not self.torn_tail

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (service ``stats`` / CLI ``--json``)."""
        return {
            "ran": self.ran,
            "clean": self.clean,
            "frames": self.frames,
            "torn_tail": self.torn_tail,
            "torn_bytes": self.torn_bytes,
            "log_bytes": self.log_bytes,
        }


class WriteAheadLog:
    """The store file: open (recovery), commit, compaction.

    *crashpoint* (a :class:`~repro.storage.faults.CrashPoint`) guards
    every write, fsync and rename for the crash-fuzz harness.  Reads go
    through :meth:`read`, appends through :meth:`_append`: the one read
    and one append path that :class:`~repro.storage.faults.FaultyLog`
    injects faults into.
    """

    #: retries of a transient read fault beyond the first attempt
    max_retries = 5
    #: first backoff in seconds; each retry doubles it (0 never sleeps)
    retry_backoff = 0.001
    #: the delay function of the backoff (tests record the schedule)
    sleep = staticmethod(time.sleep)

    def __init__(self, path: str, fsync: str = FSYNC_COMMIT,
                 crashpoint=None) -> None:
        self.path = path
        self.fsync_policy = check_fsync_policy(fsync)
        self.crashpoint = crashpoint
        #: frames appended through this handle
        self.appends = 0
        self.retries_performed = 0
        self._failed_append = False
        if not os.path.exists(path) or os.path.getsize(path) == 0:
            self._install(MAGIC)
        data = self.read()
        frames, end = scan(data, path)
        #: what opening found and repaired
        self.recovery = RecoveryResult(ran=True, frames=len(frames),
                                       torn_bytes=len(data) - end,
                                       log_bytes=end)
        # unbuffered: the file's contents must always equal what was
        # written, even when a (simulated or real) crash abandons this
        # handle
        self._file = open(path, "r+b", buffering=0)
        if end < len(data):
            self._file.truncate(end)
            self._sync(self._file)
        self._file.seek(end)
        self._size = end

    # -- the one read path ------------------------------------------------------

    def _read_file(self) -> bytes:
        with open(self.path, "rb") as handle:
            return handle.read()

    def read(self) -> bytes:
        """The whole file, retrying transient faults with backoff
        (``retry_backoff`` seconds, doubling, at most ``max_retries``
        times)."""
        attempt = 0
        while True:
            try:
                return self._read_file()
            except TransientIOError:
                if attempt >= self.max_retries:
                    raise
                if self.retry_backoff > 0:
                    self.sleep(self.retry_backoff * (2 ** attempt))
                attempt += 1
                self.retries_performed += 1

    def frames(self) -> List[bytes]:
        """Every committed frame's payload, in log order."""
        return scan(self.read(), self.path)[0]

    # -- the one append path ------------------------------------------------------

    def _write(self, write: Callable[[bytes], object], data: bytes) -> None:
        if self.crashpoint is not None:
            self.crashpoint.write(write, data)
        else:
            write(data)

    def _append(self, data: bytes) -> None:
        self._write(self._file.write, data)

    def commit(self, payload: bytes) -> None:
        """Append one transaction as one frame and (policy ``commit``)
        fsync it: once this returns, every later open applies it."""
        data = frame(payload)
        with trace_span("wal.commit") as sp:
            if self._failed_append:
                # the failed append may have left a prefix behind: the
                # next frame must start at the committed end
                self._file.truncate(self._size)
                self._file.seek(self._size)
                self._failed_append = False
            with trace_span("wal.append"):
                try:
                    self._append(data)
                except BaseException:
                    self._failed_append = True
                    raise
            self._size += len(data)
            self.appends += 1
            self._sync(self._file)
            sp.incr("bytes", len(data))

    # -- syncs, renames and compaction ----------------------------------------------

    def _guard(self, step: Callable[[], object]) -> None:
        if self.crashpoint is not None:
            self.crashpoint.barrier(step)
        else:
            step()

    def _sync(self, handle) -> None:
        if self.fsync_policy == FSYNC_NEVER:
            return
        with trace_span("wal.fsync"):
            self._guard(lambda: os.fsync(handle.fileno()))

    def _install(self, contents: bytes) -> None:
        """Atomically make *contents* the whole file: temp write, fsync,
        rename, directory fsync."""
        temp = self.path + ".tmp"
        with open(temp, "wb", buffering=0) as handle:
            self._write(handle.write, contents)
            self._sync(handle)
        self._guard(lambda: os.replace(temp, self.path))
        if self.fsync_policy != FSYNC_NEVER:
            directory = os.open(os.path.dirname(self.path) or ".",
                                os.O_RDONLY)
            try:
                self._guard(lambda: os.fsync(directory))
            finally:
                os.close(directory)

    def compact(self, payload: Optional[bytes]) -> int:
        """Replace the file with the header plus one frame holding
        *payload* (no frame for ``None``); returns bytes freed."""
        with trace_span("wal.checkpoint") as sp:
            before = self._size
            contents = MAGIC + (frame(payload) if payload is not None
                                else b"")
            self._install(contents)
            self._file.close()
            self._file = open(self.path, "r+b", buffering=0)
            self._file.seek(len(contents))
            self._size = len(contents)
            sp.incr("bytes_freed", before - self._size)
        return before - self._size

    # -- maintenance ----------------------------------------------------------

    @property
    def size(self) -> int:
        """Bytes in the store file."""
        return self._size

    def close(self) -> None:
        """Close the file."""
        self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
