"""The write-ahead log: append-only, checksummed, fsync-controlled records.

File layout::

    [8s magic "UVWAL001"][u16 format][u16 reserved][u32 reserved]   header
    [u32 payload_len][u32 crc32][u64 lsn][u8 op][payload bytes]     record *

Every record carries a log sequence number (LSN) assigned by the single
writer -- the engine's update path -- and a CRC-32 over ``(lsn, op,
payload)``.  Insert payloads reuse the snapshot codec's bit-exact object
encoding (:func:`repro.storage.codec.encode_entry`), so a replayed insert
reconstructs the identical IEEE-754 doubles the acknowledged insert carried;
delete payloads are just the object id.

Durability contract: :meth:`WriteAheadLog.append` returns only after the
record reached the file (and, under the default ``"always"`` fsync policy,
after ``os.fsync``).  An update is *acknowledged* only after its append
returned, which is what makes "zero lost acknowledged updates" a checkable
property after kill -9 -- see :mod:`repro.wal.recovery`.

A crash can leave a *torn tail*: a final record whose header, payload, or
checksum is incomplete.  :func:`scan_wal` stops at the first torn or corrupt
record and reports how many trailing bytes it ignored; reopening the log for
appending truncates that tail so new records extend the last durable one.

A torn tail is *not* the only way a log can break: a flipped bit in the
middle of the file corrupts a record that acknowledged durable data.  The
two cases demand opposite responses -- truncating a torn tail loses nothing
promised, truncating mid-log corruption silently drops acknowledged updates
-- so :func:`scan_wal` distinguishes them by *resynchronising*: after the
first broken record it searches forward for a later record that still
checksums (with a later LSN).  Finding one proves the break is mid-log
corruption; the scan reports it and opening the log for appending raises
:class:`CorruptRecordError` instead of truncating.
"""

from __future__ import annotations

import logging
import os
import struct
import time
import zlib
from dataclasses import dataclass, field
from typing import BinaryIO, List, Optional, Tuple, TYPE_CHECKING

from repro.storage.codec import decode_entry, encode_entry
from repro.uncertain.objects import UncertainObject

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime dependency
    from repro.faults.plan import FaultInjector

logger = logging.getLogger("repro.wal")

#: File magic + format version of the log header.
WAL_MAGIC = b"UVWAL001"
WAL_FORMAT = 1

#: Logged operations.
OP_INSERT = 1
OP_DELETE = 2
OP_NAMES = {OP_INSERT: "insert", OP_DELETE: "delete"}

#: fsync policies: ``"always"`` syncs every append (the durability default);
#: ``"batch"`` leaves syncing to explicit :meth:`WriteAheadLog.sync` calls
#: (group commit -- the caller decides the acknowledgement boundary).
FSYNC_ALWAYS = "always"
FSYNC_BATCH = "batch"
FSYNC_POLICIES = (FSYNC_ALWAYS, FSYNC_BATCH)

_HEADER = struct.Struct("<8sHHI")
_RECORD = struct.Struct("<IIQB")
_CRC_PREFIX = struct.Struct("<QB")
_OID = struct.Struct("<q")

HEADER_SIZE = _HEADER.size
RECORD_HEADER_SIZE = _RECORD.size


class WalError(RuntimeError):
    """The log is unusable: wrong magic, newer format, or a broken append."""


class CorruptRecordError(WalError):
    """A WAL record in the *middle* of the log failed its checksum.

    Distinct from a torn tail: intact records follow the broken one, so the
    damage is bit rot (or an overwrite), not a crash mid-append -- and the
    broken record once acknowledged durable data.  Truncating here would
    silently drop acknowledged updates, so opening the log refuses instead;
    ``repro wal-inspect`` shows the damage and the runbook in
    :doc:`docs/operations` covers recovery.
    """


@dataclass(frozen=True)
class WalRecord:
    """One durable update: ``(lsn, op, payload)`` as read from or written to disk."""

    lsn: int
    op: int
    payload: bytes

    @property
    def op_name(self) -> str:
        """Human name of the operation (``"insert"`` / ``"delete"``)."""
        return OP_NAMES.get(self.op, f"op-{self.op}")


@dataclass(frozen=True)
class WalScan:
    """Result of reading a log file front to back.

    Attributes:
        records: every intact record, in file (= LSN) order.
        valid_bytes: file prefix covered by the header plus intact records.
        torn_bytes: trailing bytes past ``valid_bytes`` that could not be
            read as a record (a crash mid-append; zero on a clean log).
        torn_reason: why the scan stopped early (empty on a clean log).
        resync_offset: byte offset of the first intact record found *after*
            the break, or ``None`` when none exists.  A successful resync is
            the proof that the break is mid-log corruption rather than a
            torn tail (see :attr:`is_corrupt`).
        resync_lsn: LSN of the record at ``resync_offset``.
    """

    records: List[WalRecord] = field(default_factory=list)
    valid_bytes: int = 0
    torn_bytes: int = 0
    torn_reason: str = ""
    resync_offset: Optional[int] = None
    resync_lsn: Optional[int] = None

    @property
    def last_lsn(self) -> int:
        """LSN of the last intact record (0 for an empty log)."""
        return self.records[-1].lsn if self.records else 0

    @property
    def is_corrupt(self) -> bool:
        """Whether the break is mid-log corruption (not just a torn tail)."""
        return self.resync_offset is not None


# ---------------------------------------------------------------------- #
# payload codecs
# ---------------------------------------------------------------------- #
def encode_insert(obj: UncertainObject) -> bytes:
    """Insert payload: the snapshot codec's bit-exact object encoding."""
    return encode_entry(obj)


def decode_insert(payload: bytes) -> UncertainObject:
    """Inverse of :func:`encode_insert`."""
    try:
        entry = decode_entry(payload)
    except (ValueError, struct.error) as exc:
        raise WalError(f"corrupt insert payload: {exc}") from exc
    if not isinstance(entry, UncertainObject):
        raise WalError(
            f"insert payload decoded to {type(entry).__name__}, "
            f"not an UncertainObject"
        )
    return entry


def encode_delete(oid: int) -> bytes:
    """Delete payload: the object id as a little-endian i64."""
    return _OID.pack(oid)


def decode_delete(payload: bytes) -> int:
    """Inverse of :func:`encode_delete`."""
    if len(payload) != _OID.size:
        raise WalError(f"delete payload has {len(payload)} bytes, expected {_OID.size}")
    oid: int = _OID.unpack(payload)[0]
    return oid


# ---------------------------------------------------------------------- #
# record codec
# ---------------------------------------------------------------------- #
def encode_record(lsn: int, op: int, payload: bytes) -> bytes:
    """One framed record: length/checksum header followed by the payload."""
    crc = zlib.crc32(_CRC_PREFIX.pack(lsn, op) + payload)
    return _RECORD.pack(len(payload), crc, lsn, op) + payload


def scan_wal(path: str) -> WalScan:
    """Read a log file, stopping at the first torn or corrupt record.

    The whole file is read into memory (logs are bounded by checkpoint
    truncation, so this stays small).  Raises :class:`WalError` only for a
    file that is not a WAL at all (bad magic) or is newer than this library;
    a torn tail -- the expected crash artifact -- is reported, not raised.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) == 0:
        return WalScan(records=[], valid_bytes=0, torn_bytes=0, torn_reason="empty file")
    if len(data) < HEADER_SIZE:
        return WalScan(
            records=[], valid_bytes=0, torn_bytes=len(data),
            torn_reason="truncated header",
        )
    magic, wal_format, _, _ = _HEADER.unpack_from(data, 0)
    if magic != WAL_MAGIC:
        raise WalError(f"{path} is not a write-ahead log (bad magic {magic!r})")
    if wal_format > WAL_FORMAT:
        raise WalError(
            f"{path} uses WAL format {wal_format}, newer than this library "
            f"(supports up to {WAL_FORMAT})"
        )

    records: List[WalRecord] = []
    offset = HEADER_SIZE
    last_lsn: Optional[int] = None
    torn_reason = ""
    while offset < len(data):
        remaining = len(data) - offset
        if remaining < RECORD_HEADER_SIZE:
            torn_reason = "truncated record header"
            break
        length, crc, lsn, op = _RECORD.unpack_from(data, offset)
        if remaining < RECORD_HEADER_SIZE + length:
            torn_reason = "truncated record payload"
            break
        start = offset + RECORD_HEADER_SIZE
        payload = data[start:start + length]
        if zlib.crc32(_CRC_PREFIX.pack(lsn, op) + payload) != crc:
            torn_reason = "checksum mismatch"
            break
        if op not in OP_NAMES:
            torn_reason = f"unknown op {op}"
            break
        if last_lsn is not None and lsn != last_lsn + 1:
            torn_reason = f"LSN {lsn} does not follow {last_lsn}"
            break
        records.append(WalRecord(lsn=lsn, op=op, payload=bytes(payload)))
        last_lsn = lsn
        offset += RECORD_HEADER_SIZE + length
    resync_offset: Optional[int] = None
    resync_lsn: Optional[int] = None
    if torn_reason and offset < len(data):
        resync_offset, resync_lsn = _find_resync(data, offset + 1, last_lsn or 0)
    return WalScan(
        records=records,
        valid_bytes=offset,
        torn_bytes=len(data) - offset,
        torn_reason=torn_reason,
        resync_offset=resync_offset,
        resync_lsn=resync_lsn,
    )


def _find_resync(data: bytes, start: int,
                 last_lsn: int) -> Tuple[Optional[int], Optional[int]]:
    """Search forward from ``start`` for an intact record past a break.

    A hit must parse as a record with a known op, an LSN strictly after the
    last good one, a payload that fits in the file, and a matching CRC --
    the checksum covers ``(lsn, op, payload)``, so a false positive in
    arbitrary damage is a ~2^-32 event.  Returns ``(offset, lsn)`` or
    ``(None, None)``.
    """
    for offset in range(start, len(data) - RECORD_HEADER_SIZE + 1):
        length, crc, lsn, op = _RECORD.unpack_from(data, offset)
        if op not in OP_NAMES or not last_lsn < lsn <= last_lsn + (1 << 32):
            continue
        if length > len(data) - offset - RECORD_HEADER_SIZE:
            continue
        payload = data[offset + RECORD_HEADER_SIZE:
                       offset + RECORD_HEADER_SIZE + length]
        if zlib.crc32(_CRC_PREFIX.pack(lsn, op) + payload) == crc:
            return offset, lsn
    return None, None


class WriteAheadLog:
    """Single-writer appender over one log file.

    Opening an existing log scans it, truncates any torn tail, and positions
    the write cursor after the last durable record; the records found are
    kept on :attr:`records_at_open` so recovery does not scan twice.  The
    engine serializes appends under its update lock -- the log itself adds
    no locking.
    """

    def __init__(self, path: str, fsync: str = FSYNC_ALWAYS,
                 injector: Optional["FaultInjector"] = None) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {fsync!r} "
                f"(known: {', '.join(FSYNC_POLICIES)})"
            )
        self.path = os.fspath(path)
        self.fsync_policy = fsync
        self.records_at_open: List[WalRecord] = []
        self._file: Optional[BinaryIO] = None
        self._last_lsn = 0
        self._appended = 0
        self._unsynced = 0
        self._injector = injector
        if not os.path.exists(self.path) or os.path.getsize(self.path) < HEADER_SIZE:
            # Fresh log (or a create() torn mid-header): write a clean header.
            self._file = open(self.path, "wb")
            self._file.write(_HEADER.pack(WAL_MAGIC, WAL_FORMAT, 0, 0))
            self._file.flush()
            os.fsync(self._file.fileno())
        else:
            scan = scan_wal(self.path)
            if scan.is_corrupt:
                raise CorruptRecordError(
                    f"{self.path}: record at byte {scan.valid_bytes} is broken "
                    f"({scan.torn_reason}) but an intact record follows at byte "
                    f"{scan.resync_offset} (LSN {scan.resync_lsn}) -- mid-log "
                    f"corruption, refusing to truncate acknowledged records; "
                    f"run `repro wal-inspect` and see docs/operations.md"
                )
            self.records_at_open = scan.records
            self._last_lsn = scan.last_lsn
            self._file = open(self.path, "r+b")
            if scan.torn_bytes:
                logger.warning(
                    "%s: truncating %d-byte torn tail at byte offset %d (%s); "
                    "last good LSN is %d",
                    self.path, scan.torn_bytes, scan.valid_bytes,
                    scan.torn_reason, scan.last_lsn,
                )
            # Drop the torn tail so appends extend the last durable record.
            self._file.truncate(scan.valid_bytes)
            self._file.seek(scan.valid_bytes)

    # ------------------------------------------------------------------ #
    # appending
    # ------------------------------------------------------------------ #
    def append(self, op: int, payload: bytes, lsn: Optional[int] = None) -> int:
        """Write one record and return its LSN.

        Under the ``"always"`` policy the record is fsynced before this
        returns -- the caller may acknowledge the update afterwards.  Under
        ``"batch"`` the caller owns the acknowledgement boundary via
        :meth:`sync`.
        """
        if self._file is None:
            raise WalError("the log is closed")
        if op not in OP_NAMES:
            raise ValueError(f"unknown WAL op {op!r}")
        if lsn is None:
            lsn = self._last_lsn + 1
        elif lsn <= self._last_lsn:
            raise WalError(f"LSN {lsn} is not past the last written LSN {self._last_lsn}")
        record = encode_record(lsn, op, payload)
        fail_fsync = False
        if self._injector is not None:
            record, fail_fsync = self._apply_append_fault(record)
        self._file.write(record)
        self._file.flush()
        if fail_fsync:
            raise OSError("injected fsync failure on WAL append")
        if self.fsync_policy == FSYNC_ALWAYS:
            os.fsync(self._file.fileno())
        else:
            self._unsynced += 1
        self._last_lsn = lsn
        self._appended += 1
        return lsn

    def _apply_append_fault(self, record: bytes) -> Tuple[bytes, bool]:
        """Apply any scheduled fault to one encoded record (drills only).

        Returns the (possibly corrupted) bytes to write plus whether the
        post-write fsync should fail.  Torn and short writes emulate a crash
        mid-append: the partial bytes are flushed, the handle is closed so no
        later append can extend the garbage, and the append raises -- exactly
        the state a real crash leaves, so the update is never acknowledged.
        """
        assert self._injector is not None and self._file is not None
        fault = self._injector.fire("wal.append")
        if fault is None:
            return record, False
        if fault.kind == "latency":
            time.sleep(fault.arg)
            return record, False
        if fault.kind == "fsync_fail":
            return record, True
        if fault.kind == "io_error":
            raise OSError("injected WAL write error")
        if fault.kind == "crc_flip":
            # Silent on-disk corruption: the record is written and the append
            # acknowledged, but the stored CRC is wrong.  The next scan must
            # detect it -- this is the fault the resync logic exists for.
            damaged = bytearray(record)
            damaged[4] ^= 0x01  # low byte of the crc32 field
            return bytes(damaged), False
        if fault.kind in ("torn_write", "short_write"):
            cut = (RECORD_HEADER_SIZE if fault.kind == "short_write"
                   else self._injector.rng("wal.append").randrange(1, len(record)))
            self._file.write(record[:cut])
            self._file.flush()
            self._file.close()
            self._file = None
            raise OSError(f"injected {fault.kind} after {cut} of {len(record)} bytes")
        raise ValueError(f"unknown WAL fault kind {fault.kind!r}")

    def sync(self) -> int:
        """fsync buffered records (the ``"batch"`` group-commit boundary).

        Returns how many appends the sync made durable.
        """
        if self._file is None:
            raise WalError("the log is closed")
        os.fsync(self._file.fileno())
        synced, self._unsynced = self._unsynced, 0
        return synced

    # ------------------------------------------------------------------ #
    # truncation (checkpointing)
    # ------------------------------------------------------------------ #
    def truncate_through(self, base_lsn: int) -> int:
        """Drop every record with ``lsn <= base_lsn`` (post-checkpoint step).

        Survivors are rewritten into a temporary file that atomically
        replaces the log, so a crash mid-truncation leaves either the old or
        the new file fully intact -- never a half-truncated one.  Returns the
        number of dropped records.
        """
        if self._file is None:
            raise WalError("the log is closed")
        self._file.flush()
        os.fsync(self._file.fileno())
        scan = scan_wal(self.path)
        kept = [record for record in scan.records if record.lsn > base_lsn]
        dropped = len(scan.records) - len(kept)
        compact_path = self.path + ".compact"
        with open(compact_path, "wb") as out:
            out.write(_HEADER.pack(WAL_MAGIC, WAL_FORMAT, 0, 0))
            for record in kept:
                out.write(encode_record(record.lsn, record.op, record.payload))
            out.flush()
            os.fsync(out.fileno())
        self._file.close()
        os.replace(compact_path, self.path)
        self._file = open(self.path, "r+b")
        self._file.seek(0, os.SEEK_END)
        # Every surviving record was fsynced into the compact file above, so
        # nothing is pending a group commit any more.
        self._unsynced = 0
        if base_lsn > self._last_lsn:
            self._last_lsn = base_lsn
        return dropped

    # ------------------------------------------------------------------ #
    # introspection / lifecycle
    # ------------------------------------------------------------------ #
    @property
    def last_lsn(self) -> int:
        """LSN of the last written (or recovered) record."""
        return self._last_lsn

    @property
    def appended(self) -> int:
        """Records appended through this handle (excludes recovered ones)."""
        return self._appended

    @property
    def closed(self) -> bool:
        return self._file is None

    def close(self) -> None:
        """Flush, fsync, and release the file handle (idempotent)."""
        if self._file is None:
            return
        self._file.flush()
        os.fsync(self._file.fileno())
        self._file.close()
        self._file = None
