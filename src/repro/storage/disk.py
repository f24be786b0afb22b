"""The disk manager: page allocation, counted access, pluggable persistence.

Historically pages were held in a Python dictionary; "reading" or "writing" a
page only bumped the I/O counters.  The manager now fronts a pluggable
:class:`~repro.storage.pagestore.PageStore` -- the dict-backed simulator, a
real file with fixed-size page slots, or a memory-mapped read-mostly view --
while preserving the quantity the paper actually reports: the *number* of
page accesses each index performs per query or per construction.

Loaded pages are kept in a working set (``_cache``) so in-place page mutation
-- how the indexes maintain their leaf lists -- behaves identically over
every store; :meth:`flush` writes the working set back to the store, which is
what makes a built diagram durable on file-backed stores.

An optional integrated :class:`~repro.storage.buffer.BufferPool` sits on the
counted read path: hits are served without an I/O, misses count one read and
admit the page.  ``write_page`` and ``free_page`` invalidate the matching
pool frame, so splits and live updates can never leave a stale page behind.

A shard disk also counts into its deployment's fleet-wide counter
(:attr:`DiskManager.fleet_stats`), so a router reads fleet I/O from one
:class:`IOStats` rather than summing every shard's.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.storage.page import DEFAULT_ENTRY_SIZE_BYTES, PAGE_SIZE_BYTES, Page, entries_per_page
from repro.storage.pagestore import MemoryPageStore, PageStore
from repro.storage.stats import IOStats


class DiskManager:
    """Allocates fixed-size pages and counts accesses.

    Args:
        entry_size_bytes: serialized size of one entry, used to derive the
            per-page capacity.
        page_size_bytes: page size (4 KB by default, as in the paper).
        store: the persistence substrate; defaults to the in-memory
            simulator, preserving the historical behaviour.  Pass a
            :class:`~repro.storage.pagestore.FilePageStore` opened on a
            snapshot to serve a previously built diagram.
        buffer_pages: capacity of the integrated LRU buffer pool; zero (the
            default) disables caching, so every counted read hits the store.
    """

    def __init__(
        self,
        entry_size_bytes: int = DEFAULT_ENTRY_SIZE_BYTES,
        page_size_bytes: int = PAGE_SIZE_BYTES,
        store: Optional[PageStore] = None,
        buffer_pages: int = 0,
    ):
        if buffer_pages < 0:
            raise ValueError("buffer_pages must be non-negative")
        self.page_capacity = entries_per_page(entry_size_bytes, page_size_bytes)
        self.page_size_bytes = page_size_bytes
        self.entry_size_bytes = entry_size_bytes
        self.stats = IOStats()
        #: a deployment-wide counter this disk also counts into (set by a
        #: shard router over every shard disk); ``None`` elsewhere
        self.fleet_stats: Optional[IOStats] = None
        self.store: PageStore = store if store is not None else MemoryPageStore()
        self._cache: Dict[int, Page] = {}
        # Serialises store loads: every page is decoded once, and a store
        # reading through one file cursor is never entered by two threads.
        self._load_lock = threading.Lock()
        self._next_page_id = self.store.next_page_id()
        self.buffer_pool = None
        if buffer_pages > 0:
            from repro.storage.buffer import BufferPool

            self.buffer_pool = BufferPool(self, capacity=buffer_pages)

    # ------------------------------------------------------------------ #
    # page lifecycle
    # ------------------------------------------------------------------ #
    def allocate_page(self, capacity: int | None = None) -> Page:
        """Allocate a new empty page and return it."""
        page = Page(self._next_page_id, capacity or self.page_capacity)
        self._cache[page.page_id] = page
        self.store.store_page(page)
        self._next_page_id += 1
        self.stats.pages_allocated += 1
        if self.fleet_stats is not None:
            self.fleet_stats.pages_allocated += 1
        return page

    def free_page(self, page_id: int) -> None:
        """Release a page (e.g. when a UV-index leaf splits and drops its list).

        The matching buffer-pool frame is invalidated so a freed (and later
        reallocated) id can never serve stale content from the cache.
        """
        self._cache.pop(page_id, None)
        self.store.delete_page(page_id)
        if self.buffer_pool is not None:
            self.buffer_pool.invalidate(page_id)

    # ------------------------------------------------------------------ #
    # access (counted)
    # ------------------------------------------------------------------ #
    def read_page(self, page_id: int) -> Page:
        """Read a page, counting one I/O (unless the buffer pool has it).

        Raises:
            KeyError: for an unknown page id.
        """
        if self.buffer_pool is not None:
            cached = self.buffer_pool.lookup(page_id)
            if cached is not None:
                self.stats.cache_hits += 1
                if self.fleet_stats is not None:
                    self.fleet_stats.cache_hits += 1
                return cached
        page = self._materialise(page_id)
        self.stats.page_reads += 1
        if self.fleet_stats is not None:
            self.fleet_stats.page_reads += 1
        if self.buffer_pool is not None:
            self.stats.cache_misses += 1
            if self.fleet_stats is not None:
                self.fleet_stats.cache_misses += 1
            self.buffer_pool.admit(page_id, page)
        return page

    def write_page(self, page: Page) -> None:
        """Write a page back, counting one I/O and refreshing the pool frame."""
        self.stats.page_writes += 1
        if self.fleet_stats is not None:
            self.fleet_stats.page_writes += 1
        self._cache[page.page_id] = page
        self.store.store_page(page)
        self._next_page_id = max(self._next_page_id, page.page_id + 1)
        if self.buffer_pool is not None:
            # Coherence: drop any stale frame, then admit the fresh page.
            self.buffer_pool.invalidate(page.page_id)
            self.buffer_pool.admit(page.page_id, page, count_miss=False)

    # ------------------------------------------------------------------ #
    # inspection (not counted -- used by tests and reports)
    # ------------------------------------------------------------------ #
    def peek_page(self, page_id: int) -> Page:
        """Access a page without counting I/O (for assertions and reports)."""
        return self._materialise(page_id)

    def _materialise(self, page_id: int) -> Page:
        """The live working-set object for a page, loading from the store once."""
        page = self._cache.get(page_id)
        if page is None:
            with self._load_lock:
                page = self._cache.get(page_id)
                if page is None:
                    page = self.store.load_page(page_id)
                    self._cache[page_id] = page
        return page

    @property
    def page_count(self) -> int:
        """Number of live pages."""
        return len(self.store)

    @property
    def next_page_id(self) -> int:
        """The id the next allocation will receive."""
        return self._next_page_id

    def total_entries(self) -> int:
        """Total number of entries across all live pages."""
        return sum(len(self._materialise(pid)) for pid in self.store.page_ids())

    def reset_stats(self) -> IOStats:
        """Reset the I/O counters, returning the counters prior to the reset."""
        before = self.stats.snapshot()
        self.stats.reset()
        return before

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def rebind_store(self, store: PageStore) -> PageStore:
        """Swap the backing store, returning the old one (caller closes it).

        Used after saving a read-only-served engine over its own snapshot
        path: the rewritten file may have a different slot layout, so the
        old handle's cached geometry must not be consulted again.  The
        working set (and the id allocator) carries over unchanged.
        """
        old = self.store
        self.store = store
        self._next_page_id = max(self._next_page_id, store.next_page_id())
        return old

    def flush(self) -> None:
        """Write the working set back to the store and flush the store.

        In-place page mutations (leaf maintenance) only live in the working
        set until this runs; file-backed stores are authoritative afterwards.
        """
        for page in self._cache.values():
            self.store.store_page(page)
        self.store.flush()

    def close(self) -> None:
        """Flush and release the backing store."""
        self.flush()
        self.store.close()
