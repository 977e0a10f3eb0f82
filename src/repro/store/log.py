"""Append-only record log with checksum framing and torn-tail recovery.

Every tier of the store is one of these files.  A record is::

    <length:u32le> <crc32(payload):u32le> <payload:canonical JSON>

Canonical JSON (sorted keys, compact separators, ascii) makes the byte
stream a pure function of the record sequence — the crash-replay suite
leans on that to assert prefix consistency and byte-identical rebuilds.

Recovery happens at open: the file is scanned record by record and
truncated at the first frame whose length or checksum does not hold.
Everything before that point is served; nothing after it ever is.  A
torn tail is therefore indistinguishable from a clean log that simply
stopped earlier — the write-ahead contract.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from typing import Any, Iterator

from repro.store.faults import StorageFault

_HEADER = struct.Struct("<II")

#: Upper bound on a single record's payload, as a corruption guard: a torn
#: header can otherwise decode as a multi-gigabyte length and defeat the
#: scan.  Pages in the simulated web are a few KB; 16 MiB is generous.
MAX_RECORD_BYTES = 16 * 1024 * 1024


def encode_record(record: dict[str, Any]) -> bytes:
    """Frame one record as bytes (header + canonical JSON payload)."""
    payload = json.dumps(
        record, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def scan_records(data: bytes) -> tuple[list[dict[str, Any]], int]:
    """Decode ``data``, returning ``(records, good_end)``.

    ``good_end`` is the offset of the first byte that is not part of a
    complete, checksum-valid record — the truncation point for recovery.
    """
    records: list[dict[str, Any]] = []
    offset = 0
    size = len(data)
    while offset + _HEADER.size <= size:
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if length > MAX_RECORD_BYTES or end > size:
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            break
        try:
            record = json.loads(payload.decode("ascii"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            break
        if not isinstance(record, dict):
            break
        records.append(record)
        offset = end
    return records, offset


class RecordLog:
    """One append-only framed log file.

    ``fsync=False`` (the default) flushes to the OS after every append but
    leaves durability to the page cache — the store's crash model injects
    faults *above* the OS write, so recovery guarantees are identical in
    either mode; fsync only narrows the window against real power loss.

    Only a record count stays in memory: :attr:`records` and iteration
    rescan the file (replay at open, compaction, rebuild and tests read
    them), so appends retain nothing however long the process runs.
    """

    def __init__(
        self,
        path: str,
        fsync: bool = False,
        fault: StorageFault | None = None,
    ) -> None:
        self.path = path
        self.fsync = fsync
        self._fault = fault
        self._lock = threading.Lock()
        self._count, self.torn_bytes = self._recover()
        self._handle = open(path, "ab")

    def _read(self) -> bytes:
        try:
            with open(self.path, "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return b""

    def _recover(self) -> tuple[int, int]:
        """Scan the file, truncate any torn tail; returns ``(records,
        torn bytes)``."""
        data = self._read()
        records, good_end = scan_records(data)
        torn = len(data) - good_end
        if torn:
            with open(self.path, "r+b") as handle:
                handle.truncate(good_end)
        return len(records), torn

    @property
    def records(self) -> list[dict[str, Any]]:
        """All durable records, oldest first, read back from the file."""
        with self._lock:
            data = self._read()
        return scan_records(data)[0]

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.records)

    def append(self, record: dict[str, Any]) -> dict[str, Any]:
        """Append one record durably; raises StorageCrash on a torn write."""
        frame = encode_record(record)
        with self._lock:
            if self._fault is not None:
                self._fault.write(self._handle, frame)
            else:
                self._handle.write(frame)
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())
            self._count += 1
        return record

    def rewrite(self, records: list[dict[str, Any]]) -> None:
        """Atomically replace the log's contents (compaction path).

        Written to a temp file and renamed over the original, so a crash
        during compaction leaves either the old log or the new one —
        never a mix.  Not routed through the fault layer: compaction is
        an offline maintenance action in this codebase.
        """
        tmp = self.path + ".tmp"
        with self._lock:
            with open(tmp, "wb") as handle:
                for record in records:
                    handle.write(encode_record(record))
                handle.flush()
                os.fsync(handle.fileno())
            self._handle.close()
            os.replace(tmp, self.path)
            self._handle = open(self.path, "ab")
            self._count = len(records)

    def size_bytes(self) -> int:
        """Current on-disk size of the log."""
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()
