"""Pluggable page stores: where disk pages actually live.

The :class:`~repro.storage.disk.DiskManager` counts I/O; a :class:`PageStore`
is the substrate underneath it that holds page contents.  Three
implementations cover the library's lifecycle:

* :class:`MemoryPageStore` -- the historical dict-backed simulator.  Pages are
  live Python objects; nothing survives the process.
* :class:`FilePageStore` -- one file, fixed-size page slots, a binary header,
  and an optional metadata tail (a JSON header and typed columns).  A built
  diagram saved into this format is a durable artifact that a later process
  can reopen.
* :class:`MmapPageStore` -- the same file format opened read-mostly through
  ``mmap`` for cold-start serving: nothing is decoded until a page is first
  read, and updates go to an in-memory overlay that leaves the snapshot file
  untouched.

Invariant (machine-checked by ``repro.lint``'s *counted-io* rule): query
and backend code never calls ``load_page``/``store_page``/``delete_page``
directly -- every page touch goes through the
:class:`~repro.storage.disk.DiskManager`, because the paper's reported
metric is *counted* page accesses and the buffer pool invalidates frames on
the manager's write path.  A store reached behind the manager's back would
silently uncount I/O and serve stale frames.  Durability of live updates is
deliberately *not* this layer's job: snapshot files are immutable once
written; the write-ahead log (:mod:`repro.wal`) owns crash safety and folds
into the next snapshot generation at checkpoint time.

File layout (little-endian)::

    [0, 64)                      header: magic, version, slot size,
                                 slot count, next page id, meta offset/len,
                                 meta CRC-32, whole-file CRC-32 (version 2)
    [64, 64 + slots*slot_bytes)  page slots: status byte, capacity,
                                 payload length, payload CRC-32 (version 2),
                                 encoded entries
    [meta_offset, +meta_len)     metadata tail (diagram snapshot state):
                                 magic ``UVCOLS01``, JSON length (u32),
                                 4 zero bytes, the UTF-8 JSON header, zero
                                 padding to 8 bytes, then the column section

The JSON header holds the O(1) fields and a ``columns`` directory: one
``name: [dtype, *shape]`` per column, in section order, each column padded
to 8 bytes.  A column name is the dotted path of the key it fills in the
decoded metadata (``rtree.entry_box``), so :meth:`PageStore.read_meta`
returns one dict whose per-object state is read-only NumPy arrays over the
tail's bytes -- no per-object JSON is parsed.  A tail that is one JSON object
(snapshots saved before the column section existed) still reads.

Slot index equals page id (the disk manager allocates ids densely), so a page
read is one ``seek`` -- or one slice of the mapped buffer -- plus a decode.

Corruption safety (format version 2): every slot carries a CRC-32 of its
payload, the metadata tail (JSON header and columns) carries its own CRC-32
in the header, checked on every read of it, and a
*sealed* snapshot (one finished by :meth:`FilePageStore.write_meta`, which
is how every save ends) carries a whole-file CRC-32.  A checksum mismatch
raises :class:`CorruptSnapshotError` -- a flipped bit is loud, never a
silently different query answer.  Version-1 files (no checksums) remain
readable; :func:`verify_snapshot_file` falls back to a structural decode
sweep for them.
"""

from __future__ import annotations

import abc
import json
import mmap
import os
import struct
import zlib
from typing import Any, BinaryIO, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.storage.codec import Column, decode_page, encode_page
from repro.storage.page import Page

MAGIC = b"UVSNAP01"
FORMAT_VERSION = 2
HEADER_SIZE = 64
_HEADER = struct.Struct("<8sHHIQQQQ")  # magic, version, flags, slot_bytes,
#                                        slot_count, next_page_id, meta_offset, meta_len
_HEADER_CRCS = struct.Struct("<II")    # meta_crc, file_crc (version 2; zero on v1)
_CRCS_OFFSET = _HEADER.size            # the two CRC words sit in the header padding
_FILE_CRC_OFFSET = _CRCS_OFFSET + 4    # byte offset of the whole-file CRC word
_SLOT_HEADER_V1 = struct.Struct("<BII")   # status, capacity, payload_len
_SLOT_HEADER_V2 = struct.Struct("<BIII")  # status, capacity, payload_len, payload_crc
_SLOT_LIVE = 1
_SLOT_EMPTY = 0


_META_MAGIC = b"UVCOLS01"
_META_PREFIX = struct.Struct("<8sI4x")  # magic, JSON header length, padding
_COLUMN_DTYPES = ("<i4", "<i8", "<f8")


def _slot_header(version: int) -> struct.Struct:
    """The slot-header layout of a format version."""
    return _SLOT_HEADER_V2 if version >= 2 else _SLOT_HEADER_V1

DEFAULT_SLOT_BYTES = 8192
"""Default page-slot size.

Twice the simulated 4 KB page: encoded entries carry tags and length
prefixes, so a full page's payload can exceed its nominal byte size.
"""


class PageStoreError(RuntimeError):
    """Base error of the page-store layer."""


class PageOverflowError(PageStoreError):
    """An encoded page payload does not fit in the store's fixed slot size."""


class ReadOnlyStoreError(PageStoreError):
    """A mutation was attempted on a store that cannot persist it."""


class CorruptSnapshotError(PageStoreError):
    """A snapshot file failed a structural or checksum check.

    Raised for a bad magic, a checksum mismatch (per-page, metadata, or
    whole-file), an internally inconsistent header, or page bytes that no
    longer decode.  The structured degradation contract of the storage
    layer: corruption is *detected and raised*, never served as a silently
    different answer.  Live deployments quarantine the offending generation
    and fall back to the previous one (see
    :func:`repro.engine.snapshot.open_live_engine`).
    """


class PageStore(abc.ABC):
    """Persistence substrate for fixed-size pages, keyed by page id.

    The disk manager performs the I/O *accounting*; stores only move page
    contents.  ``store_page`` persists/replaces a page, ``load_page`` returns
    a fresh (or shared, for the memory store) :class:`Page`, and the metadata
    hooks carry the JSON snapshot state of a saved diagram.
    """

    #: registry key of the store kind (``"memory"`` / ``"file"`` / ``"mmap"``)
    kind: str = ""

    #: ``False`` for read-mostly stores that keep mutations in an in-memory
    #: overlay and never touch their backing file (serving a snapshot must
    #: not be able to corrupt it).
    writable: bool = True

    #: ``True`` when :meth:`load_page` keeps no per-call mutable state (no
    #: shared file position), so concurrent reader *threads* on one store
    #: object cannot interleave into corrupted pages.  Independent of this
    #: flag, any number of *processes* may each open their own store on the
    #: same snapshot path: read-only opens never write the file, and every
    #: ``load_page`` decodes a fresh :class:`Page` from immutable bytes --
    #: the multi-process serving guarantee :mod:`repro.serve` relies on.
    thread_safe_reads: bool = False

    @abc.abstractmethod
    def store_page(self, page: Page) -> None:
        """Persist ``page`` (replacing any previous content for its id)."""

    @abc.abstractmethod
    def load_page(self, page_id: int) -> Page:
        """Materialise one page.

        Raises:
            KeyError: for an id that was never stored or has been deleted.
        """

    @abc.abstractmethod
    def delete_page(self, page_id: int) -> None:
        """Drop one page (no-op for unknown ids)."""

    @abc.abstractmethod
    def page_ids(self) -> List[int]:
        """Sorted ids of all live pages."""

    @abc.abstractmethod
    def next_page_id(self) -> int:
        """Smallest id never handed out (used to seed the allocator)."""

    # metadata ----------------------------------------------------------- #
    @abc.abstractmethod
    def read_meta(self) -> Optional[Dict[str, Any]]:
        """The metadata, or ``None`` when absent (see :func:`encode_meta`)."""

    @abc.abstractmethod
    def write_meta(self, meta: Dict[str, Any]) -> None:
        """Persist the metadata: JSON values and NumPy columns (:func:`encode_meta`)."""

    # lifecycle ---------------------------------------------------------- #
    def flush(self) -> None:
        """Force buffered state to the backing medium (default: no-op)."""

    def close(self) -> None:
        """Release resources (default: flush)."""
        self.flush()

    def __contains__(self, page_id: int) -> bool:
        return page_id in set(self.page_ids())

    def __len__(self) -> int:
        return len(self.page_ids())


# ---------------------------------------------------------------------- #
# memory
# ---------------------------------------------------------------------- #
class MemoryPageStore(PageStore):
    """The historical in-process simulator: pages live in a dict.

    ``load_page`` returns the *same* object that was stored, so in-place page
    mutation (how the indexes maintain their leaf lists) behaves exactly as
    it did before stores existed.
    """

    kind = "memory"
    thread_safe_reads = True  # dict lookups; no shared cursor

    def __init__(self) -> None:
        self._pages: Dict[int, Page] = {}
        self._meta: Optional[Dict[str, Any]] = None

    def store_page(self, page: Page) -> None:
        self._pages[page.page_id] = page

    def load_page(self, page_id: int) -> Page:
        return self._pages[page_id]

    def delete_page(self, page_id: int) -> None:
        self._pages.pop(page_id, None)

    def page_ids(self) -> List[int]:
        return sorted(self._pages)

    def next_page_id(self) -> int:
        return max(self._pages, default=-1) + 1

    def read_meta(self) -> Optional[Dict[str, Any]]:
        return self._meta

    def write_meta(self, meta: Dict[str, Any]) -> None:
        self._meta = meta

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._pages

    def __len__(self) -> int:
        return len(self._pages)


# ---------------------------------------------------------------------- #
# file
# ---------------------------------------------------------------------- #
class FilePageStore(PageStore):
    """A real file-backed store: fixed-size slots addressed by page id.

    :meth:`create` makes a fresh read-write file (the live store of a build).
    :meth:`open` reopens an existing snapshot and defaults to **read-only**:
    the file is never written; mutations (live updates on a reopened engine)
    go to an in-memory overlay, so serving a snapshot can never corrupt it.
    Pass ``writable=True`` only to edit a snapshot file in place.

    On a writable store, page contents are authoritative on disk after
    :meth:`flush` / :meth:`close` (the disk manager flushes its working set
    through here when a diagram is saved).

    Reads go through the handle's shared file cursor (seek + read), so one
    store object must not be shared between reader threads
    (``thread_safe_reads`` stays ``False``); multiple *processes* each
    opening the same snapshot read-only remain safe -- every process owns
    its handle and the file is never written.  Use the mmap store for
    cursor-free reads.
    """

    kind = "file"

    def __init__(self, path: str, handle: BinaryIO, slot_bytes: int,
                 slot_count: int, next_id: int, capacities: Dict[int, int],
                 writable: bool = True,
                 format_version: int = FORMAT_VERSION,
                 meta_crc: int = 0, file_crc: int = 0) -> None:
        self.path = path
        self._file = handle
        self.slot_bytes = slot_bytes
        self._slot_count = slot_count
        self._next_id = next_id
        # page_id -> capacity for live slots (the in-memory slot directory)
        self._capacities = capacities
        self.writable = writable
        #: on-disk layout version; an opened v1 snapshot stays v1 (its slot
        #: headers have no CRC word, so slot offsets must not change).
        self.format_version = format_version
        self._slot_header = _slot_header(format_version)
        self._meta_crc = meta_crc
        self._file_crc = file_crc
        # Read-only mode keeps mutations here, never in the file.
        self._overlay: Dict[int, Page] = {}
        self._deleted: Set[int] = set()
        self._meta_cache: Optional[Dict[str, Any]] = None

    # -- construction ---------------------------------------------------- #
    @classmethod
    def create(cls, path: str, slot_bytes: int = DEFAULT_SLOT_BYTES) -> "FilePageStore":
        """Create (truncating) a new page file."""
        if slot_bytes <= _SLOT_HEADER_V2.size:
            raise ValueError("slot_bytes is too small to hold a slot header")
        handle = open(path, "w+b")
        store = cls(path, handle, slot_bytes, slot_count=0, next_id=0, capacities={})
        store._write_header(meta_offset=0, meta_len=0)
        return store

    @classmethod
    def open(cls, path: str, writable: bool = False) -> "FilePageStore":
        """Open an existing page file (read-only overlay mode by default)."""
        handle = open(path, "r+b" if writable else "rb")
        header = _read_header(handle)
        slot_struct = _slot_header(header.version)
        capacities = {}
        for slot in range(header.slot_count):
            handle.seek(HEADER_SIZE + slot * header.slot_bytes)
            raw = handle.read(slot_struct.size)
            if len(raw) < slot_struct.size:
                raise CorruptSnapshotError(
                    f"page file truncated inside slot {slot}"
                )
            status, capacity = slot_struct.unpack(raw)[:2]
            if status == _SLOT_LIVE:
                capacities[slot] = capacity
            elif status != _SLOT_EMPTY:
                raise CorruptSnapshotError(
                    f"page {slot}: unknown slot status byte {status}"
                )
        return cls(path, handle, header.slot_bytes, header.slot_count,
                   header.next_id, capacities, writable=writable,
                   format_version=header.version,
                   meta_crc=header.meta_crc, file_crc=header.file_crc)

    # -- page access ----------------------------------------------------- #
    def store_page(self, page: Page) -> None:
        if not self.writable:
            self._overlay[page.page_id] = page
            self._deleted.discard(page.page_id)
            self._next_id = max(self._next_id, page.page_id + 1)
            return
        payload = encode_page(page)
        if self._slot_header.size + len(payload) > self.slot_bytes:
            raise PageOverflowError(
                f"page {page.page_id} needs {len(payload)} payload bytes but slots "
                f"hold {self.slot_bytes - self._slot_header.size}; recreate the "
                f"store with a larger slot_bytes"
            )
        self._unseal()
        self._ensure_slot(page.page_id)
        self._file.seek(self._slot_offset(page.page_id))
        self._file.write(self._pack_slot(_SLOT_LIVE, page.capacity, payload))
        self._file.write(payload)
        self._capacities[page.page_id] = page.capacity
        self._next_id = max(self._next_id, page.page_id + 1)

    def load_page(self, page_id: int) -> Page:
        if page_id in self._overlay:
            return self._overlay[page_id]
        if page_id in self._deleted or page_id not in self._capacities:
            raise KeyError(page_id)
        self._file.seek(self._slot_offset(page_id))
        fields = self._slot_header.unpack(self._file.read(self._slot_header.size))
        status, capacity, payload_len = fields[0], fields[1], fields[2]
        if status != _SLOT_LIVE:  # pragma: no cover - directory/file mismatch
            raise KeyError(page_id)
        payload_crc = fields[3] if self.format_version >= 2 else None
        return _checked_decode(page_id, capacity, self._file.read(payload_len),
                               payload_crc)

    def delete_page(self, page_id: int) -> None:
        if not self.writable:
            self._overlay.pop(page_id, None)
            self._deleted.add(page_id)
            return
        if page_id not in self._capacities:
            return
        self._unseal()
        self._file.seek(self._slot_offset(page_id))
        self._file.write(self._pack_slot(_SLOT_EMPTY, 0, b""))
        del self._capacities[page_id]

    def page_ids(self) -> List[int]:
        ids = (set(self._capacities) | set(self._overlay)) - self._deleted
        return sorted(ids)

    def __contains__(self, page_id: int) -> bool:
        if page_id in self._overlay:
            return True
        return page_id in self._capacities and page_id not in self._deleted

    def __len__(self) -> int:
        return len((set(self._capacities) | set(self._overlay)) - self._deleted)

    def next_page_id(self) -> int:
        return self._next_id

    # -- metadata -------------------------------------------------------- #
    def read_meta(self) -> Optional[Dict[str, Any]]:
        if self._meta_cache is not None:
            return self._meta_cache
        header = _read_header(self._file)
        if header.meta_offset == 0 or header.meta_len == 0:
            return None
        self._file.seek(header.meta_offset)
        blob = self._file.read(header.meta_len)
        self._meta_cache = _checked_meta(blob, header)
        return self._meta_cache

    def write_meta(self, meta: Dict[str, Any]) -> None:
        """Append the metadata blob after the slot region and seal the file.

        Every save ends here, so this is where a version-2 snapshot gets its
        metadata CRC and whole-file CRC: blob, then a header carrying the
        meta CRC with a zeroed file-CRC word, then the file CRC computed over
        the whole file (with its own word zeroed) and written last.  Any
        partial write leaves either a zero file CRC (unsealed: verification
        falls back to the structural sweep) or a mismatch (detected).
        """
        if not self.writable:
            raise ReadOnlyStoreError(
                "this store serves its snapshot read-only; save() the engine "
                "to a (new) path instead"
            )
        blob = encode_meta(meta)
        meta_offset = self._slots_end()
        self._file.truncate(meta_offset)
        self._file.seek(meta_offset)
        self._file.write(blob)
        self._meta_crc = zlib.crc32(blob)
        self._file_crc = 0
        self._write_header(meta_offset=meta_offset, meta_len=len(blob))
        if self.format_version >= 2:
            self._file.flush()
            self._file_crc = _file_crc_of(self._file)
            self._write_header(meta_offset=meta_offset, meta_len=len(blob))
        self._meta_cache = decode_meta(blob)

    # -- lifecycle ------------------------------------------------------- #
    def flush(self) -> None:
        if not self.writable:
            return
        self._write_header_preserving_meta()
        self._file.flush()

    def close(self) -> None:
        if not self._file.closed:
            self.flush()
            self._file.close()

    # -- plumbing -------------------------------------------------------- #
    def _slot_offset(self, page_id: int) -> int:
        return HEADER_SIZE + page_id * self.slot_bytes

    def _slots_end(self) -> int:
        return HEADER_SIZE + self._slot_count * self.slot_bytes

    def _pack_slot(self, status: int, capacity: int, payload: bytes) -> bytes:
        if self.format_version >= 2:
            return _SLOT_HEADER_V2.pack(status, capacity, len(payload),
                                        zlib.crc32(payload))
        return _SLOT_HEADER_V1.pack(status, capacity, len(payload))

    def _unseal(self) -> None:
        """Drop a stale whole-file CRC before mutating sealed page bytes."""
        if self._file_crc == 0:
            return
        self._file_crc = 0
        self._file.seek(_FILE_CRC_OFFSET)
        self._file.write(b"\x00\x00\x00\x00")

    def _ensure_slot(self, page_id: int) -> None:
        """Grow the slot region to cover ``page_id``, displacing any meta tail."""
        if page_id < self._slot_count:
            return
        header = _read_header(self._file)
        new_count = page_id + 1
        new_end = HEADER_SIZE + new_count * self.slot_bytes
        if header.meta_offset:
            # Pages grew past the saved snapshot: drop the (now stale) meta
            # tail; the next save() writes a fresh one.
            self._file.truncate(header.meta_offset)
            self._meta_cache = None
            self._meta_crc = 0
        # Zero-fill the new slots so their status bytes read as empty.
        self._file.seek(0, os.SEEK_END)
        current_end = self._file.tell()
        if current_end < new_end:
            self._file.write(b"\x00" * (new_end - current_end))
        self._slot_count = new_count
        self._write_header(meta_offset=0, meta_len=0)

    def _write_header(self, meta_offset: int, meta_len: int) -> None:
        header = _HEADER.pack(
            MAGIC, self.format_version, 0, self.slot_bytes,
            self._slot_count, self._next_id, meta_offset, meta_len,
        )
        padded = bytearray(header.ljust(HEADER_SIZE, b"\x00"))
        if self.format_version >= 2:
            _HEADER_CRCS.pack_into(padded, _CRCS_OFFSET,
                                   self._meta_crc, self._file_crc)
        self._file.seek(0)
        self._file.write(bytes(padded))

    def _write_header_preserving_meta(self) -> None:
        header = _read_header(self._file)
        self._write_header(meta_offset=header.meta_offset, meta_len=header.meta_len)


class _Header(NamedTuple):
    """Parsed page-file header."""

    version: int
    slot_bytes: int
    slot_count: int
    next_id: int
    meta_offset: int
    meta_len: int
    meta_crc: int
    file_crc: int


def _parse_header(raw: bytes) -> _Header:
    """Parse and validate the first :data:`HEADER_SIZE` bytes of a page file."""
    if len(raw) < HEADER_SIZE:
        raise CorruptSnapshotError("not a repro page file: truncated header")
    magic, version, _, slot_bytes, slot_count, next_id, meta_offset, meta_len = (
        _HEADER.unpack(raw[:_HEADER.size])
    )
    meta_crc, file_crc = _HEADER_CRCS.unpack_from(raw, _CRCS_OFFSET)
    if magic != MAGIC:
        raise CorruptSnapshotError("not a repro page file: bad magic")
    if version < 1:
        raise CorruptSnapshotError(f"corrupt page-file header: version {version}")
    if version == 1 and (meta_crc or file_crc):
        # Version-1 headers are zero-padded past the struct; non-zero CRC
        # words under a version-1 tag mean the version field itself was
        # corrupted on a checksummed file -- parsing v2 slots with the v1
        # layout would shift every payload by four bytes.
        raise CorruptSnapshotError(
            "corrupt page-file header: version/checksum disagreement"
        )
    if version > FORMAT_VERSION:
        raise PageStoreError(f"unsupported page-file version {version}")
    return _Header(version, slot_bytes, slot_count, next_id,
                   meta_offset, meta_len, meta_crc, file_crc)


def _read_header(handle: BinaryIO) -> _Header:
    """Parse a page-file header from an open handle."""
    handle.seek(0)
    return _parse_header(handle.read(HEADER_SIZE))


def _checked_decode(page_id: int, capacity: int, payload: bytes,
                    expected_crc: Optional[int]) -> Page:
    """Decode one slot payload, converting any failure into a structured error."""
    if expected_crc is not None and zlib.crc32(payload) != expected_crc:
        raise CorruptSnapshotError(
            f"page {page_id}: payload checksum mismatch "
            f"(stored {expected_crc:#010x}, computed {zlib.crc32(payload):#010x})"
        )
    try:
        return decode_page(page_id, capacity, payload)
    except Exception as exc:  # noqa: BLE001 - re-raised as a structured error
        raise CorruptSnapshotError(
            f"page {page_id}: payload does not decode ({type(exc).__name__}: {exc})"
        ) from exc


def _checked_meta(blob: bytes, header: _Header) -> Dict[str, Any]:
    """Parse the metadata tail, verifying its CRC on checksummed files."""
    if len(blob) < header.meta_len:
        raise CorruptSnapshotError("page file truncated inside the metadata blob")
    if header.version >= 2 and zlib.crc32(blob) != header.meta_crc:
        raise CorruptSnapshotError(
            f"metadata checksum mismatch (stored {header.meta_crc:#010x}, "
            f"computed {zlib.crc32(blob):#010x})"
        )
    try:
        return decode_meta(blob)
    except (ValueError, KeyError, TypeError, AttributeError, struct.error) as exc:
        raise CorruptSnapshotError(f"metadata blob does not parse: {exc}") from exc


def encode_meta(meta: Dict[str, Any]) -> bytes:
    """The metadata tail of ``meta``: a JSON header, then its NumPy columns.

    Every :class:`~repro.storage.codec.Column` among the (nested) dict
    values goes to the binary section -- int32, int64 or float64,
    little-endian -- named by its dotted key path in the header's
    ``columns`` directory; everything else must be JSON.
    """
    columns: List[Tuple[str, np.ndarray]] = []
    header = _lift_columns(meta, "", columns)
    if "columns" in header:
        raise ValueError("'columns' is reserved for the column directory")
    directory: Dict[str, List[Any]] = {}
    body: List[bytes] = []
    for name, column in columns:
        dtype = column.dtype.newbyteorder("<").str
        if dtype not in _COLUMN_DTYPES:
            raise ValueError(f"column {name!r} has unsupported dtype {column.dtype}")
        directory[name] = [dtype, *column.shape]
        data = np.ascontiguousarray(column, dtype=dtype).tobytes()
        body.append(data + b"\x00" * (-len(data) % 8))
    header["columns"] = directory
    text = json.dumps(header, separators=(",", ":")).encode("utf-8")
    prefix = _META_PREFIX.pack(_META_MAGIC, len(text))
    padding = b"\x00" * (-(len(prefix) + len(text)) % 8)
    return b"".join([prefix, text, padding, *body])


def decode_meta(blob: bytes) -> Dict[str, Any]:
    """Inverse of :func:`encode_meta`; each column views ``blob``, read-only.

    A tail without the column magic is the JSON object earlier snapshots
    wrote.
    """
    if not blob.startswith(_META_MAGIC):
        meta = json.loads(blob.decode("utf-8"))
        if not isinstance(meta, dict):
            raise ValueError("metadata blob is not a JSON object")
        return meta
    _, length = _META_PREFIX.unpack_from(blob, 0)
    start = _META_PREFIX.size
    meta = json.loads(blob[start:start + length].decode("utf-8"))
    if not isinstance(meta, dict):
        raise ValueError("metadata header is not a JSON object")
    offset = start + length
    offset += -offset % 8
    for name, spec in meta.pop("columns").items():
        if spec[0] not in _COLUMN_DTYPES:
            raise ValueError(f"column {name!r} has unsupported dtype {spec[0]!r}")
        dtype = np.dtype(spec[0])
        shape = tuple(int(extent) for extent in spec[1:])
        count = int(np.prod(shape))
        column = np.frombuffer(blob, dtype, count, offset).reshape(shape)
        offset += count * dtype.itemsize
        offset += -offset % 8
        *parents, key = name.split(".")
        target = meta
        for parent in parents:
            target = target[parent]
        target[key] = Column(column)
    if offset != len(blob):
        raise ValueError(f"column section ends at {offset}, the tail at {len(blob)}")
    return meta


def _lift_columns(state: Dict[str, Any], prefix: str,
                  columns: List[Tuple[str, np.ndarray]]) -> Dict[str, Any]:
    """``state`` without its arrays, which are appended to ``columns`` by path."""
    plain: Dict[str, Any] = {}
    for key, value in state.items():
        if isinstance(value, Column):
            if "." in str(key):
                raise ValueError(f"column key {key!r} contains a '.'")
            columns.append((f"{prefix}{key}", value.array))
        elif isinstance(value, dict):
            plain[key] = _lift_columns(value, f"{prefix}{key}.", columns)
        else:
            plain[key] = value
    return plain


def meta_sections(path: str) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """File offsets ``(start, end)`` of a snapshot's JSON header and columns.

    For a tail that is one JSON object the column section is empty.
    """
    with open(path, "rb") as handle:
        header = _read_header(handle)
        handle.seek(header.meta_offset)
        prefix = handle.read(_META_PREFIX.size)
    end = header.meta_offset + header.meta_len
    if not prefix.startswith(_META_MAGIC):
        return (header.meta_offset, end), (end, end)
    _, length = _META_PREFIX.unpack(prefix)
    start = header.meta_offset + _META_PREFIX.size
    columns = start + length
    columns += -(columns - header.meta_offset) % 8
    return (start, start + length), (columns, end)


def _file_crc_of(handle: BinaryIO) -> int:
    """CRC-32 of the whole file with the file-CRC header word zeroed.

    The word's own bytes are excluded (treated as zero) so the checksum can
    live inside the region it covers.
    """
    handle.seek(0)
    head = bytearray(handle.read(HEADER_SIZE))
    if len(head) >= _FILE_CRC_OFFSET + 4:
        head[_FILE_CRC_OFFSET:_FILE_CRC_OFFSET + 4] = b"\x00\x00\x00\x00"
    crc = zlib.crc32(bytes(head))
    while True:
        chunk = handle.read(1 << 20)
        if not chunk:
            return crc
        crc = zlib.crc32(chunk, crc)


# ---------------------------------------------------------------------- #
# mmap (read-mostly serving)
# ---------------------------------------------------------------------- #
class MmapPageStore(PageStore):
    """Serve a snapshot through a memory-mapped, read-mostly view.

    Opening is O(header): pages are decoded lazily from the mapped buffer on
    first access, so a cold process starts answering queries without paying
    for a full deserialisation pass.  Live updates after opening go to an
    in-memory overlay; the snapshot file itself is never modified, which is
    what makes one snapshot safely shareable between serving processes.

    Concurrent-access guarantees (what :mod:`repro.serve` builds on):

    * **across processes** -- the file is mapped ``ACCESS_READ`` and never
      written through, so N processes mapping the same snapshot share one
      set of physical pages (the page cache) and cannot corrupt each other;
      opening is also O(header) per process, so worker fleets start cheap.
    * **within a process** -- :meth:`load_page` is stateless: it addresses
      the map with absolute offsets (``unpack_from`` / slicing, no shared
      file cursor) and decodes a *fresh* :class:`Page` from an immutable
      bytes copy, so concurrent reader threads are safe too
      (``thread_safe_reads``).
    """

    kind = "mmap"
    writable = False
    thread_safe_reads = True  # absolute-offset reads; no shared cursor

    def __init__(self, path: str) -> None:
        self.path = path
        self._file = open(path, "rb")
        self._header = _read_header(self._file)
        self.format_version = self._header.version
        self._slot_header = _slot_header(self._header.version)
        self.slot_bytes = self._header.slot_bytes
        self._slot_count = self._header.slot_count
        self._next_id = self._header.next_id
        self._meta_offset = self._header.meta_offset
        self._meta_len = self._header.meta_len
        self._map = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        self._overlay: Dict[int, Page] = {}
        self._deleted: Set[int] = set()
        self._meta_cache: Optional[Dict[str, Any]] = None

    def store_page(self, page: Page) -> None:
        self._overlay[page.page_id] = page
        self._deleted.discard(page.page_id)
        self._next_id = max(self._next_id, page.page_id + 1)

    def load_page(self, page_id: int) -> Page:
        if page_id in self._overlay:
            return self._overlay[page_id]
        if page_id in self._deleted or not 0 <= page_id < self._slot_count:
            raise KeyError(page_id)
        offset = HEADER_SIZE + page_id * self.slot_bytes
        try:
            fields = self._slot_header.unpack_from(self._map, offset)
        except struct.error as exc:
            raise CorruptSnapshotError(
                f"page file truncated inside slot {page_id}"
            ) from exc
        status, capacity, payload_len = fields[0], fields[1], fields[2]
        if status != _SLOT_LIVE:
            raise KeyError(page_id)
        payload_crc = fields[3] if self.format_version >= 2 else None
        start = offset + self._slot_header.size
        payload = bytes(self._map[start:start + payload_len])
        if len(payload) < payload_len:
            raise CorruptSnapshotError(f"page file truncated inside slot {page_id}")
        return _checked_decode(page_id, capacity, payload, payload_crc)

    def delete_page(self, page_id: int) -> None:
        self._overlay.pop(page_id, None)
        self._deleted.add(page_id)

    def page_ids(self) -> List[int]:
        ids = set(self._overlay)
        for slot in range(self._slot_count):
            if slot in ids or slot in self._deleted:
                continue
            status = self._map[HEADER_SIZE + slot * self.slot_bytes]
            if status == _SLOT_LIVE:
                ids.add(slot)
        return sorted(ids)

    def __contains__(self, page_id: int) -> bool:
        if page_id in self._overlay:
            return True
        if page_id in self._deleted or not 0 <= page_id < self._slot_count:
            return False
        return self._map[HEADER_SIZE + page_id * self.slot_bytes] == _SLOT_LIVE

    def next_page_id(self) -> int:
        return self._next_id

    def read_meta(self) -> Optional[Dict[str, Any]]:
        if self._meta_cache is not None:
            return self._meta_cache
        if self._meta_offset == 0 or self._meta_len == 0:
            return None
        blob = bytes(self._map[self._meta_offset:self._meta_offset + self._meta_len])
        self._meta_cache = _checked_meta(blob, self._header)
        return self._meta_cache

    def write_meta(self, meta: Dict[str, Any]) -> None:
        raise ReadOnlyStoreError(
            "mmap stores are read-mostly; save() the engine to a new path instead"
        )

    def close(self) -> None:
        self._map.close()
        self._file.close()


# ---------------------------------------------------------------------- #
# factories
# ---------------------------------------------------------------------- #
STORE_KINDS = ("memory", "file", "mmap")


def create_page_store(kind: str, path: Optional[str] = None,
                      slot_bytes: int = DEFAULT_SLOT_BYTES) -> PageStore:
    """A fresh, empty store for *building* a diagram.

    ``"mmap"`` is rejected here: it serves existing snapshots (use
    :func:`open_page_store`), it cannot host a build.
    """
    kind = kind.lower()
    if kind == "memory":
        return MemoryPageStore()
    if kind == "file":
        if not path:
            raise ValueError("the file page store needs a store_path")
        return FilePageStore.create(path, slot_bytes=slot_bytes)
    if kind == "mmap":
        raise ValueError(
            "the mmap store is read-mostly and cannot host a build; "
            "build with store='file' (or save a snapshot) and open it with mmap"
        )
    raise ValueError(f"unknown page store kind: {kind!r} (known: {', '.join(STORE_KINDS)})")


def open_page_store(kind: str, path: str, verify: bool = False) -> PageStore:
    """Open an existing snapshot file as a store of the requested kind.

    ``"memory"`` eagerly loads every page into a dict (fully in-memory
    serving); ``"file"`` and ``"mmap"`` stay lazy.  With ``verify=True`` the
    whole snapshot is checksummed (or structurally swept, for version-1
    files) before the store is returned, so corruption surfaces at open time
    as :class:`CorruptSnapshotError` rather than mid-query.
    """
    kind = kind.lower()
    if verify:
        verify_snapshot_file(path)
    if kind == "file":
        return FilePageStore.open(path)
    if kind == "mmap":
        return MmapPageStore(path)
    if kind == "memory":
        source = FilePageStore.open(path)
        try:
            memory = MemoryPageStore()
            for page_id in source.page_ids():
                memory.store_page(source.load_page(page_id))
            meta = source.read_meta()
            if meta is not None:
                memory.write_meta(meta)
            return memory
        finally:
            source.close()
    raise ValueError(f"unknown page store kind: {kind!r} (known: {', '.join(STORE_KINDS)})")


def verify_snapshot_file(path: str) -> None:
    """Check a snapshot file end to end; raise :class:`CorruptSnapshotError`.

    A *sealed* version-2 snapshot (nonzero whole-file CRC -- how every save
    finishes) is verified by a single streaming CRC pass over the file,
    which covers every header field, slot byte, and the metadata blob: any
    single flipped bit is caught.  Unsealed version-2 files and version-1
    files (no checksums) fall back to a structural sweep that decodes every
    live page (verifying per-page CRCs where present) and parses the
    metadata.
    """
    try:
        with open(path, "rb") as handle:
            header = _parse_header(handle.read(HEADER_SIZE))
            if header.version >= 2 and header.file_crc:
                actual = _file_crc_of(handle)
                if actual != header.file_crc:
                    raise CorruptSnapshotError(
                        f"whole-file checksum mismatch for {path} "
                        f"(stored {header.file_crc:#010x}, computed {actual:#010x})"
                    )
                return
    except OSError as exc:
        raise CorruptSnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    _sweep_snapshot(path)


def _sweep_snapshot(path: str) -> None:
    """Structurally decode every live page and the metadata of a snapshot."""
    try:
        store = FilePageStore.open(path)
    except (OSError, struct.error) as exc:
        raise CorruptSnapshotError(f"cannot open snapshot {path}: {exc}") from exc
    try:
        for page_id in store.page_ids():
            store.load_page(page_id)
        store.read_meta()
    except (struct.error, KeyError) as exc:
        raise CorruptSnapshotError(
            f"snapshot {path} is structurally inconsistent: {exc}"
        ) from exc
    finally:
        store.close()


def write_snapshot_file(path: str, pages: Iterable[Page], meta: Dict[str, Any],
                        slot_bytes: Optional[int] = None,
                        next_page_id: Optional[int] = None) -> None:
    """Write a complete snapshot (pages + meta) to ``path`` in one pass.

    Slots are auto-sized to the largest encoded page when ``slot_bytes`` is
    omitted, so saving never fails on an oversized page the way a live
    fixed-slot store can.  ``next_page_id`` preserves the source allocator's
    cursor so ids of freed pages are not handed out again after reopening.
    """
    encoded: List[Tuple[int, int, bytes]] = [
        (page.page_id, page.capacity, encode_page(page)) for page in pages
    ]
    if slot_bytes is None:
        largest = max((len(blob) for _, _, blob in encoded), default=0)
        slot_bytes = max(DEFAULT_SLOT_BYTES, _SLOT_HEADER_V2.size + largest)
    for page_id, _, blob in encoded:
        if _SLOT_HEADER_V2.size + len(blob) > slot_bytes:
            raise PageOverflowError(
                f"page {page_id} does not fit in {slot_bytes}-byte slots"
            )
    # All ids are known up front, so the slot region is laid out in one
    # sequential pass: empty header-sized gaps for missing ids, one write per
    # slot, no per-page header rewrites.
    store = FilePageStore.create(path, slot_bytes=slot_bytes)
    try:
        by_id = {page_id: (capacity, blob) for page_id, capacity, blob in encoded}
        slot_count = max(by_id, default=-1) + 1
        # Empty slots (freed page ids) are seeked over, not written: their
        # zero bytes read back as _SLOT_EMPTY and the filesystem can keep
        # them as holes, so churned id spaces don't inflate the on-disk size.
        store._file.truncate(HEADER_SIZE + slot_count * slot_bytes)
        for page_id in sorted(by_id):
            capacity, blob = by_id[page_id]
            store._file.seek(HEADER_SIZE + page_id * slot_bytes)
            store._file.write(_SLOT_HEADER_V2.pack(_SLOT_LIVE, capacity, len(blob),
                                                   zlib.crc32(blob)))
            store._file.write(blob)
            store._capacities[page_id] = capacity
        store._slot_count = slot_count
        store._next_id = max(slot_count, next_page_id or 0)
        store.write_meta(meta)
    finally:
        store.close()
