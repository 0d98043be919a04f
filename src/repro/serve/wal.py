"""Segmented, checksummed write-ahead log for the ingestion service.

Durability contract: an event the service *accepted* (admitted, sequenced)
is appended here before it is buffered, so a process crash loses at most
the record being written when the power went — never a whole in-memory
window.  Recovery (:meth:`repro.serve.service.IngestionService.recover`)
replays the un-applied suffix against the latest maintainer checkpoint.

Format
------
A log is a directory of segments ``wal-<NNNNNNNN>.log``.  Each segment
starts with a fixed header::

    magic b"RWAL" | version u8 | base_seq u64   (big-endian)

followed by length-prefixed, checksummed records::

    payload_len u32 | crc32(payload) u32 | payload bytes

The payload is compact JSON (debuggable with ``strings``/``jq``, and JSON
round-trips ints, floats and strings exactly — which the recovery
determinism check relies on).  Record types, via the ``"t"`` key:

``ev``
    an accepted event: monotonic sequence id ``q``, kind ``k`` (``ins`` /
    ``del``), endpoints ``u``/``v``, optional timestamp ``ts``;
``cm``
    a window commit: the seq range ``[f, l]`` that just applied as one
    batch (the watermark that makes replay idempotent), the window index
    ``w``, the service's *cumulative* logical meters ``tot`` and the
    cluster shape ``ep``.  Logs written while window sizes were adaptive
    also carry a controller snapshot ``ctl``, which recovery ignores;
``ck``
    a maintainer checkpoint: applied watermark ``q``, the checkpoint
    file's name ``file`` (relative to the log directory), plus the same
    ``tot``/``w`` bookkeeping as a commit;
``qr``
    a quarantined (poison) operation: its seq ``q`` and the reason —
    replay must skip it exactly like the live run did.

Torn tails vs corruption: a short or checksum-failing record at the *end
of the last segment* is the record being appended when the process died —
recovery truncates it and carries on.  The same damage anywhere else means
the log was corrupted after the fact and raises
:class:`~repro.errors.WALError`.

``fsync`` policy: ``"always"`` syncs every record (maximum durability,
slowest), ``"commit"`` (default) syncs on control records — an event may
be lost with the window it belonged to, never a committed window —
``"never"`` leaves flushing to the OS (crash-consistent, not
power-fail-safe).
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import WALError, WorkloadError

MAGIC = b"RWAL"
VERSION = 1
_HEADER = struct.Struct(">4sBQ")  # magic, version, base_seq
_RECORD = struct.Struct(">II")  # payload length, crc32

FSYNC_POLICIES = ("always", "commit", "never")
#: record types that the ``commit`` fsync policy forces to disk
CONTROL_TYPES = ("cm", "ck", "qr")


@dataclass(frozen=True)
class WALRecord:
    """One decoded record plus where it lives (segment path, offset)."""

    payload: Dict[str, Any]
    segment: str
    offset: int

    @property
    def type(self) -> str:
        return self.payload.get("t", "?")


@dataclass
class ScanResult:
    """Everything a full scan learned about a log directory."""

    records: List[WALRecord]
    #: next sequence id to assign (max seen + 1; 1 for an empty log)
    next_seq: int
    #: segment file to keep appending to (None for an empty directory)
    tail_segment: Optional[str]
    #: bytes cut off a torn tail record (0 when the log ended cleanly)
    truncated_bytes: int


class WriteAheadLog:
    """Appender + scanner over one log directory.

    ``segment_bytes`` bounds how large a segment may grow before the next
    append rotates to a fresh file — recovery reads segments in name order,
    and bounded segments keep the torn-tail scan and future compaction
    cheap.
    """

    def __init__(self, directory: str, segment_bytes: int = 1 << 20,
                 fsync: str = "commit"):
        if fsync not in FSYNC_POLICIES:
            raise WorkloadError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if segment_bytes < 256:
            raise WorkloadError(
                f"segment_bytes must be >= 256, got {segment_bytes}"
            )
        self.directory = directory
        self.segment_bytes = segment_bytes
        self.fsync = fsync
        self._handle = None
        self._segment_path: Optional[str] = None
        self._segment_index = 0
        os.makedirs(directory, exist_ok=True)

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    def append(self, payload: Dict[str, Any]) -> None:
        """Append one record (rotating segments as needed)."""
        body = json.dumps(payload, separators=(",", ":"),
                          sort_keys=True).encode("utf-8")
        base_seq = int(payload.get("q", payload.get("l", 0)))
        handle = self._writable_handle(base_seq)
        handle.write(_RECORD.pack(len(body), zlib.crc32(body)))
        handle.write(body)
        handle.flush()
        if self.fsync == "always" or (
            self.fsync == "commit" and payload.get("t") in CONTROL_TYPES
        ):
            os.fsync(handle.fileno())
        if handle.tell() >= self.segment_bytes:
            self._close_handle()  # next append opens a fresh segment

    def close(self) -> None:
        self._close_handle()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _writable_handle(self, base_seq: int):
        if self._handle is None:
            self._segment_index += 1
            path = os.path.join(
                self.directory, f"wal-{self._segment_index:08d}.log"
            )
            if os.path.exists(path):
                # resume appending to the segment a previous scan handed us
                self._handle = open(path, "r+b")
                self._handle.seek(0, os.SEEK_END)
                if self._handle.tell() < _HEADER.size:
                    # the torn tail ate into the header itself — rewrite it
                    self._handle.truncate(0)
                    self._handle.write(_HEADER.pack(MAGIC, VERSION, base_seq))
                    self._handle.flush()
            else:
                self._handle = open(path, "wb")
                self._handle.write(_HEADER.pack(MAGIC, VERSION, base_seq))
                self._handle.flush()
            self._segment_path = path
        return self._handle

    def _close_handle(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            if self.fsync != "never":
                os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None
            self._segment_path = None

    # ------------------------------------------------------------------
    # scanning / recovery
    # ------------------------------------------------------------------
    def segments(self) -> List[str]:
        """Segment paths in append order."""
        names = sorted(
            name for name in os.listdir(self.directory)
            if name.startswith("wal-") and name.endswith(".log")
        )
        return [os.path.join(self.directory, name) for name in names]

    def scan(self) -> ScanResult:
        """Read every record, truncating a torn tail, and position the
        appender after the last good record."""
        records: List[WALRecord] = []
        truncated = 0
        segments = self.segments()
        for index, path in enumerate(segments):
            is_last = index == len(segments) - 1
            segment_records, cut = _read_segment(path, allow_torn=is_last)
            records.extend(segment_records)
            truncated += cut
        next_seq = 1
        for record in records:
            if record.type == "ev":
                next_seq = max(next_seq, int(record.payload["q"]) + 1)
        tail = segments[-1] if segments else None
        if tail is not None:
            # future appends continue in the tail segment
            self._segment_index = int(
                os.path.basename(tail)[len("wal-"):-len(".log")]
            ) - 1
            self._close_handle()
        return ScanResult(
            records=records, next_seq=next_seq,
            tail_segment=tail, truncated_bytes=truncated,
        )

    def iter_records(self) -> Iterator[WALRecord]:
        """Yield every record without mutating appender state (read-only
        audits; recovery uses :meth:`scan`)."""
        segments = self.segments()
        for index, path in enumerate(segments):
            segment_records, _ = _read_segment(
                path, allow_torn=index == len(segments) - 1, truncate=False
            )
            for record in segment_records:
                yield record


def _read_segment(
    path: str, allow_torn: bool, truncate: bool = True
) -> Tuple[List[WALRecord], int]:
    """Decode one segment; returns (records, torn bytes truncated)."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < _HEADER.size:
        if allow_torn:
            return [], _maybe_truncate(path, 0, len(blob), truncate)
        raise WALError(path, f"segment shorter than its header ({len(blob)}B)")
    magic, version, _base = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise WALError(path, f"bad magic {magic!r} (not a WAL segment)")
    if version != VERSION:
        raise WALError(
            path, f"unsupported segment version {version} (this build "
            f"reads {VERSION})"
        )
    records: List[WALRecord] = []
    offset = _HEADER.size
    while offset < len(blob):
        if offset + _RECORD.size > len(blob):
            return records, _torn(path, offset, len(blob), allow_torn,
                                  truncate, "short record header")
        length, crc = _RECORD.unpack_from(blob, offset)
        start = offset + _RECORD.size
        end = start + length
        if end > len(blob):
            return records, _torn(path, offset, len(blob), allow_torn,
                                  truncate, "short record payload")
        body = blob[start:end]
        if zlib.crc32(body) != crc:
            return records, _torn(path, offset, len(blob), allow_torn,
                                  truncate, "checksum mismatch")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WALError(
                path, f"undecodable record at offset {offset}: {exc}"
            ) from exc
        records.append(WALRecord(payload=payload, segment=path, offset=offset))
        offset = end
    return records, 0


def _torn(path: str, offset: int, total: int, allow_torn: bool,
          truncate: bool, what: str) -> int:
    if not allow_torn:
        raise WALError(
            path, f"{what} at offset {offset} in a sealed segment "
            "(corruption, not a torn tail)"
        )
    return _maybe_truncate(path, offset, total, truncate)


def _maybe_truncate(path: str, offset: int, total: int, truncate: bool) -> int:
    if truncate:
        with open(path, "r+b") as handle:
            handle.truncate(offset)
    return total - offset
