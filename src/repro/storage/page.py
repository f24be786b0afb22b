"""Disk pages.

A page is a fixed-capacity container of opaque entries.  Both the UV-index
leaf lists (``<ID, MBC, pointer>`` tuples, Section V-A) and the R-tree leaf
nodes live on pages; the capacity is derived from a 4 KB page size and a
configurable per-entry size, matching the paper's setup (4 KB pages, R-tree
fanout 100).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List

PAGE_SIZE_BYTES = 4096
"""Default page size used throughout the library (the paper uses 4 KB pages)."""

DEFAULT_ENTRY_SIZE_BYTES = 40
"""Default serialized size of one leaf entry (id + MBC + pointer)."""


@dataclass
class Page:
    """A fixed-capacity disk page.

    Attributes:
        page_id: identifier assigned by the :class:`~repro.storage.disk.DiskManager`.
        capacity: maximum number of entries that fit in the page.
        entries: the stored entries (opaque to the storage layer).
    """

    page_id: int
    capacity: int
    entries: List[Any] = field(default_factory=list)

    def is_full(self) -> bool:
        """Return ``True`` when no further entry fits."""
        return len(self) >= self.capacity

    def remaining(self) -> int:
        """Number of additional entries the page can hold."""
        return self.capacity - len(self)

    def add(self, entry: Any) -> None:
        """Append ``entry``.

        Raises:
            OverflowError: if the page is already full.
        """
        if self.is_full():
            raise OverflowError(f"page {self.page_id} is full (capacity {self.capacity})")
        self.entries.append(entry)

    def __len__(self) -> int:
        return len(self.entries)


def entries_per_page(entry_size_bytes: int = DEFAULT_ENTRY_SIZE_BYTES,
                     page_size_bytes: int = PAGE_SIZE_BYTES) -> int:
    """Number of entries of the given size that fit in one page (at least one)."""
    if entry_size_bytes <= 0:
        raise ValueError("entry size must be positive")
    return max(1, page_size_bytes // entry_size_bytes)
