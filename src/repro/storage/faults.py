"""Storage fault injection: exercising the corruption and recovery paths.

A durable store's corruption handling is only trustworthy if the error
paths actually run.  :class:`FaultyLog` wraps the store's log
(:class:`~repro.storage.wal.WriteAheadLog`) with deterministic, seeded
fault injection on its one read path and its one append path:

* **transient read faults** (*read_error_rate*) — raise
  :class:`~repro.storage.wal.TransientIOError`; each call re-rolls, so
  the log's retrying read recovers;
* **write faults** (*write_error_rate*) — raise
  :class:`~repro.storage.wal.StorageError` before touching the file;
* **torn appends** (*torn_write_rate*) — silently persist only a prefix
  of the frame, the classic partial-write failure; the next open cuts
  it as a torn tail;
* **bit flips** (*corrupt_read_rate*) — flip one random bit in the data
  a read returns (the file itself stays intact), modelling bus or media
  bit rot; the frame CRC catches it and open raises
  :class:`~repro.storage.wal.ChecksumError`.

The file header (the magic) is exempt from bit flips by default so a
harnessed file stays recognisable; set ``corrupt_header=True`` to remove
even that mercy.

Usage::

    log = FaultyLog(path, read_error_rate=0.05, seed=7)
    log.frames()          # the retrying read rides over the 5% faults
    log.stats.read_faults # how many faults were injected

:class:`CrashPoint` is the other half: it kills the write path at a
chosen operation for the crash-fuzz harness.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from .wal import MAGIC, StorageError, TransientIOError, WriteAheadLog


class SimulatedCrash(StorageError):
    """The write path was killed by a :class:`CrashPoint`.

    Models a power cut / SIGKILL: the operation in flight may have
    persisted only a prefix, and **nothing after it runs** — every
    further guarded operation raises again, like a dead process.  The
    harness abandons the live objects and reopens the files through
    recovery, exactly as a restarted process would.
    """


class CrashPoint:
    """Kill the storage write path after N guarded operations.

    Each file write, fsync and rename counts as one operation.
    Operations ``1..crash_after-1`` proceed normally; operation
    ``crash_after`` crashes: a *write* persists only a seeded-random
    prefix (``tear=True``, the torn-write case — possibly the empty
    prefix) before :class:`SimulatedCrash` is raised, a *barrier* (an
    fsync or a rename) raises before it runs.  A budget larger than the
    workload never trips — which is how a harness counts a workload's
    total operations.
    """

    def __init__(self, crash_after: int, tear: bool = True,
                 seed: int = 0) -> None:
        if crash_after < 1:
            raise ValueError("crash_after must be >= 1")
        self.crash_after = crash_after
        self.tear = tear
        self.ops = 0
        self.tripped = False
        self._rng = random.Random(seed)

    def _arm(self) -> bool:
        """Count one operation; True when this one must crash."""
        if self.tripped:
            raise SimulatedCrash("process already crashed")
        self.ops += 1
        if self.ops >= self.crash_after:
            self.tripped = True
            return True
        return False

    def write(self, write: Callable[[bytes], object], data: bytes) -> None:
        """Guard one file write (the crashing write tears first)."""
        if not self._arm():
            write(data)
            return
        if self.tear and data:
            prefix = data[:self._rng.randrange(0, len(data))]
        else:
            prefix = b"" if self.tear else data
        if prefix:
            write(prefix)
        raise SimulatedCrash(
            f"simulated crash on write op {self.ops} "
            f"({len(prefix)}/{len(data)} bytes persisted)"
        )

    def barrier(self, step: Callable[[], object]) -> None:
        """Guard one fsync or rename (the crashing barrier never runs
        it)."""
        if self._arm():
            raise SimulatedCrash(
                f"simulated crash on barrier op {self.ops}")
        step()


@dataclass
class FaultStats:
    """Counters of injected faults (for assertions in tests)."""

    read_faults: int = 0
    write_faults: int = 0
    torn_appends: int = 0
    bit_flips: int = 0

    @property
    def total(self) -> int:
        """All injected faults."""
        return (self.read_faults + self.write_faults
                + self.torn_appends + self.bit_flips)


class FaultyLog(WriteAheadLog):
    """A :class:`WriteAheadLog` with seeded, configurable fault
    injection, armed from the open's first read on."""

    def __init__(
        self,
        path: str,
        read_error_rate: float = 0.0,
        write_error_rate: float = 0.0,
        torn_write_rate: float = 0.0,
        corrupt_read_rate: float = 0.0,
        corrupt_header: bool = False,
        seed: int = 0,
        **log_options,
    ) -> None:
        for name, rate in (("read_error_rate", read_error_rate),
                           ("write_error_rate", write_error_rate),
                           ("torn_write_rate", torn_write_rate),
                           ("corrupt_read_rate", corrupt_read_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        self.read_error_rate = read_error_rate
        self.write_error_rate = write_error_rate
        self.torn_write_rate = torn_write_rate
        self.corrupt_read_rate = corrupt_read_rate
        self.corrupt_header = corrupt_header
        self.stats = FaultStats()
        self._rng = random.Random(seed)
        self._armed = True
        super().__init__(path, **log_options)

    @contextmanager
    def suspended(self):
        """Temporarily disable injection (test setup/verification)."""
        was_armed = self._armed
        self._armed = False
        try:
            yield self
        finally:
            self._armed = was_armed

    # -- injected I/O ---------------------------------------------------------

    def _read_file(self) -> bytes:
        if self._armed and self._rng.random() < self.read_error_rate:
            self.stats.read_faults += 1
            raise TransientIOError(
                f"injected transient read fault on {self.path}")
        data = super()._read_file()
        start = 0 if self.corrupt_header else len(MAGIC)
        if (self._armed and len(data) > start
                and self._rng.random() < self.corrupt_read_rate):
            self.stats.bit_flips += 1
            position = self._rng.randrange(start, len(data))
            flipped = bytearray(data)
            flipped[position] ^= 1 << self._rng.randrange(8)
            return bytes(flipped)
        return data

    def _append(self, data: bytes) -> None:
        if self._armed and self._rng.random() < self.write_error_rate:
            self.stats.write_faults += 1
            raise StorageError(f"injected write failure on {self.path}")
        if self._armed and self._rng.random() < self.torn_write_rate:
            # a torn append: only a prefix of the frame reaches the
            # disk, and the caller is not told — exactly how a power cut
            # mid-write looks.  The next open cuts it.
            self.stats.torn_appends += 1
            super()._append(data[:self._rng.randrange(1, len(data))])
            return
        super()._append(data)
