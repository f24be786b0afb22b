"""Binary codec for disk-page payloads.

The persistent page stores (:mod:`repro.storage.pagestore`) keep page
contents as bytes; this module translates between the entry objects the
indexes put on pages and a compact binary form.  Three entry families get a
typed fast path -- UV-index leaf entries, R-tree leaf entries, and full
uncertain objects with their pdfs -- and anything else falls back to a
pickled blob, so third-party page contents survive a save/open round trip as
well.

All floats travel as IEEE-754 doubles (``struct`` format ``d``), which makes
decoding bit-exact: an engine reopened from a snapshot answers queries with
the same probabilities as the engine that was saved.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, List

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.storage.page import Page
from repro.uncertain.objects import UncertainObject
from repro.uncertain.pdf import (
    HistogramPdf,
    TruncatedGaussianPdf,
    UncertaintyPdf,
    UniformPdf,
)

# Entry tags -------------------------------------------------------------- #
_TAG_PICKLE = 0
_TAG_UV_ENTRY = 1        # <oid, cx, cy, r>
_TAG_RTREE_LEAF = 2      # <oid, xmin, ymin, xmax, ymax>
# Tag 3 held the retired uniform grid's <oid, cx, cy, r> cell tuples; never
# reuse it for a different layout.
_TAG_OBJECT = 4          # <oid, cx, cy, r, pdf>

# Pdf tags (payload of _TAG_OBJECT) --------------------------------------- #
_PDF_UNIFORM = 1
_PDF_GAUSSIAN = 2        # + sigma
_PDF_HISTOGRAM = 3       # + bar count + masses

_U64 = struct.Struct("<q")
_CIRCLE = struct.Struct("<3d")
_RECT = struct.Struct("<4d")
_LEN = struct.Struct("<I")
_DOUBLE = struct.Struct("<d")
_U16 = struct.Struct("<H")


def encode_entry(entry: Any) -> bytes:
    """Encode one page entry, preferring the typed layouts over pickle."""
    from repro.core.uv_index import UVIndexEntry
    from repro.rtree.node import RTreeEntry

    if isinstance(entry, UVIndexEntry):
        return bytes([_TAG_UV_ENTRY]) + _U64.pack(entry.oid) + _pack_circle(entry.mbc)
    if isinstance(entry, RTreeEntry) and entry.oid is not None and entry.child is None:
        return (
            bytes([_TAG_RTREE_LEAF])
            + _U64.pack(entry.oid)
            + _RECT.pack(entry.mbr.xmin, entry.mbr.ymin, entry.mbr.xmax, entry.mbr.ymax)
        )
    if isinstance(entry, UncertainObject):
        pdf_blob = _encode_pdf(entry.pdf)
        if pdf_blob is not None:
            return (
                bytes([_TAG_OBJECT])
                + _U64.pack(entry.oid)
                + _pack_circle(entry.region)
                + pdf_blob
            )
    return bytes([_TAG_PICKLE]) + pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)


def decode_entry(blob: bytes) -> Any:
    """Inverse of :func:`encode_entry`."""
    from repro.core.uv_index import UVIndexEntry
    from repro.rtree.node import RTreeEntry

    tag = blob[0]
    body = blob[1:]
    if tag == _TAG_PICKLE:
        return pickle.loads(body)
    if tag == _TAG_UV_ENTRY:
        (oid,) = _U64.unpack_from(body, 0)
        return UVIndexEntry(oid=oid, mbc=_unpack_circle(body, _U64.size))
    if tag == _TAG_RTREE_LEAF:
        (oid,) = _U64.unpack_from(body, 0)
        xmin, ymin, xmax, ymax = _RECT.unpack_from(body, _U64.size)
        return RTreeEntry(mbr=Rect(xmin, ymin, xmax, ymax), oid=oid)
    if tag == _TAG_OBJECT:
        (oid,) = _U64.unpack_from(body, 0)
        region = _unpack_circle(body, _U64.size)
        pdf = _decode_pdf(body, _U64.size + _CIRCLE.size, region.radius)
        return UncertainObject(oid, region, pdf)
    raise ValueError(f"unknown page-entry tag: {tag}")


def encode_page(page: Page) -> bytes:
    """Serialize a whole page: entry count followed by length-prefixed entries."""
    parts = [_LEN.pack(len(page.entries))]
    for entry in page.entries:
        blob = encode_entry(entry)
        parts.append(_LEN.pack(len(blob)))
        parts.append(blob)
    return b"".join(parts)


def decode_page(page_id: int, capacity: int, payload: bytes) -> Page:
    """Rebuild a :class:`Page` from :func:`encode_page` output."""
    (count,) = _LEN.unpack_from(payload, 0)
    offset = _LEN.size
    entries: List[Any] = []
    for _ in range(count):
        (length,) = _LEN.unpack_from(payload, offset)
        offset += _LEN.size
        entries.append(decode_entry(payload[offset:offset + length]))
        offset += length
    return Page(page_id=page_id, capacity=capacity, entries=entries)


# ---------------------------------------------------------------------- #
# JSON snapshot helpers (shared by every structure that serializes rects)
# ---------------------------------------------------------------------- #
def rect_state(rect: Rect) -> List[float]:
    """A rectangle as the canonical ``[xmin, ymin, xmax, ymax]`` JSON list."""
    return [rect.xmin, rect.ymin, rect.xmax, rect.ymax]


def rect_from_state(state) -> Rect:
    """Inverse of :func:`rect_state`."""
    return Rect(state[0], state[1], state[2], state[3])


# ---------------------------------------------------------------------- #
# helpers
# ---------------------------------------------------------------------- #
def _pack_circle(circle: Circle) -> bytes:
    return _CIRCLE.pack(circle.center.x, circle.center.y, circle.radius)


def _unpack_circle(buffer: bytes, offset: int) -> Circle:
    cx, cy, r = _CIRCLE.unpack_from(buffer, offset)
    return Circle(Point(cx, cy), r)


def _encode_pdf(pdf: Any) -> "bytes | None":
    """Typed encoding for the built-in pdf families; ``None`` when unknown."""
    if type(pdf) is UniformPdf:
        return bytes([_PDF_UNIFORM])
    if type(pdf) is TruncatedGaussianPdf:
        return bytes([_PDF_GAUSSIAN]) + _DOUBLE.pack(pdf.sigma)
    if type(pdf) is HistogramPdf:
        return (
            bytes([_PDF_HISTOGRAM])
            + _U16.pack(pdf.bars)
            + struct.pack(f"<{pdf.bars}d", *pdf.masses)
        )
    return None


def _decode_pdf(buffer: bytes, offset: int, radius: float):
    tag = buffer[offset]
    offset += 1
    if tag == _PDF_UNIFORM:
        return UniformPdf(radius)
    if tag == _PDF_GAUSSIAN:
        (sigma,) = _DOUBLE.unpack_from(buffer, offset)
        return TruncatedGaussianPdf(radius, sigma)
    if tag == _PDF_HISTOGRAM:
        (bars,) = _U16.unpack_from(buffer, offset)
        masses = struct.unpack_from(f"<{bars}d", buffer, offset + _U16.size)
        # Restore the stored (already normalised) masses verbatim instead of
        # re-running the constructor's normalisation, which could perturb the
        # last ulp and break bit-identical probability parity after reopening.
        pdf = HistogramPdf.__new__(HistogramPdf)
        UncertaintyPdf.__init__(pdf, radius)
        pdf.masses = list(masses)
        pdf.bars = bars
        return pdf
    raise ValueError(f"unknown pdf tag: {tag}")
