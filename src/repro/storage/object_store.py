"""Disk-resident store of the objects' uncertainty information.

Both indexes (UV-index and R-tree) only keep *references* to objects; the
uncertainty region and pdf of an object live on disk and must be fetched
before qualification probabilities can be computed.  The object store packs
objects onto pages and serves lookups through the counting
:class:`~repro.storage.disk.DiskManager`, so "object retrieval" I/O and time
(Figure 6(c)) can be measured for both indexes in the same way.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.storage.codec import RestoredOnFirstRead, int_column
from repro.storage.disk import DiskManager
from repro.uncertain.objects import UncertainObject


class ObjectStore:
    """Maps object ids to disk pages holding their full uncertainty information.

    Args:
        disk: the disk manager used for page allocation and counted reads.
        objects_per_page: how many full object descriptions fit in a page.
            The default assumes ~200 bytes per object (region + 20-bar
            histogram pdf) on a 4 KB page.
    """

    _page_of_object = RestoredOnFirstRead("_restore_directory")

    def __init__(self, disk: DiskManager, objects_per_page: int = 20):
        if objects_per_page < 1:
            raise ValueError("objects_per_page must be positive")
        self.disk = disk
        self.objects_per_page = objects_per_page
        self._page_of_object: Dict[int, int] = {}
        self._tail_page_id: "int | None" = None

    # ------------------------------------------------------------------ #
    # loading
    # ------------------------------------------------------------------ #
    def bulk_load(self, objects: Sequence[UncertainObject]) -> None:
        """Pack the objects onto pages in id order.

        Later calls (live insertions) keep filling the last page before
        allocating a new one, so insert/delete churn does not grow the page
        count without bound.
        """
        page = None
        if self._tail_page_id is not None and self._tail_page_id in self.disk.store:
            tail = self.disk.peek_page(self._tail_page_id)
            if not tail.is_full():
                page = tail
        for obj in objects:
            if page is None or page.is_full():
                page = self.disk.allocate_page(capacity=self.objects_per_page)
            page.add(obj)
            self._page_of_object[obj.oid] = page.page_id
        if page is not None:
            self._tail_page_id = page.page_id

    def remove(self, oid: int) -> bool:
        """Drop one object from its page (freeing the page when emptied)."""
        page_id = self._page_of_object.pop(oid, None)
        if page_id is None:
            return False
        page = self.disk.peek_page(page_id)
        page.entries = [obj for obj in page.entries if obj.oid != oid]
        if not page.entries:
            self.disk.free_page(page_id)
            if self._tail_page_id == page_id:
                self._tail_page_id = None
        return True

    # ------------------------------------------------------------------ #
    # retrieval (counted I/O)
    # ------------------------------------------------------------------ #
    def fetch(self, oid: int) -> UncertainObject:
        """Fetch one object, reading its page (one I/O)."""
        page = self.disk.read_page(self._page_of_object[oid])
        for obj in page.entries:
            if obj.oid == oid:
                return obj
        raise KeyError(f"object {oid} missing from its page")

    def fetch_many(self, oids: Iterable[int]) -> List[UncertainObject]:
        """Fetch several objects, reading each distinct page once."""
        wanted = list(oids)
        needed_pages: Dict[int, List[int]] = {}
        for oid in wanted:
            needed_pages.setdefault(self._page_of_object[oid], []).append(oid)
        found: Dict[int, UncertainObject] = {}
        for page_id, page_oids in needed_pages.items():
            page = self.disk.read_page(page_id)
            lookup = {obj.oid: obj for obj in page.entries}
            for oid in page_oids:
                found[oid] = lookup[oid]
        return [found[oid] for oid in wanted]

    def __contains__(self, oid: int) -> bool:
        return oid in self._page_of_object

    def __len__(self) -> int:
        return len(self._page_of_object)

    def __iter__(self) -> Iterator[int]:
        """The stored object ids (the page directory; no page is read)."""
        return iter(self._page_of_object)

    # ------------------------------------------------------------------ #
    # persistence (diagram snapshots)
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> Dict[str, object]:
        """The id -> page directory as two columns (objects stay on pages)."""
        if "_page_of_object" not in self.__dict__:
            return dict(self._directory_state)
        return {
            "objects_per_page": self.objects_per_page,
            "oids": int_column(list(self._page_of_object)),
            "pages": int_column(list(self._page_of_object.values())),
        }

    @classmethod
    def from_snapshot(cls, state: Dict, disk: DiskManager) -> "ObjectStore":
        """Rebind a store to already-persisted object pages.

        The directory is rebuilt from its columns on first use.
        """
        store = cls(disk, objects_per_page=state["objects_per_page"])
        del store.__dict__["_page_of_object"]  # unset until _restore_directory
        store._directory_state = state
        store._restore_lock = threading.Lock()
        return store

    def _restore_directory(self) -> None:
        with self._restore_lock:
            if "_page_of_object" not in self.__dict__:
                state = self._directory_state
                self._page_of_object = dict(
                    zip(state["oids"].array.tolist(), state["pages"].array.tolist()))


class ObjectMap(Dict[int, UncertainObject]):
    """``oid -> object`` over an object store, one page decoded at a time.

    A reopened engine's ``by_id``: it starts empty, knowing only which page
    holds each object, and the first lookup of an object decodes its whole
    page through the uncounted :meth:`DiskManager.peek_page` path (the page
    joins the disk's working set, so a later counted read of it decodes
    nothing).  A decoded object is a plain ``dict`` lookup.  Membership and
    ``len`` read the page directory, ``get`` decodes the object's page, and
    iteration, ``keys`` / ``values`` / ``items`` and comparison decode every
    remaining page first.
    Updates go through ``map[oid] = obj`` and ``del map[oid]``.  Decoding
    and updates are serialised by one lock, so concurrent first touches
    decode each page once.
    """

    #: objects not decoded yet -> their page, copied from the store's
    #: directory on first use.  Decoding stores an object before unlisting
    #: it, and __contains__ reads this map first, so a concurrent reader
    #: never misses an object in flight.
    _pending = RestoredOnFirstRead("_restore_pending")

    def __init__(self, store: ObjectStore) -> None:
        super().__init__()
        self._store = store
        self._disk = store.disk
        self._lock = threading.Lock()
        self._restore_lock = threading.Lock()

    def _restore_pending(self) -> None:
        with self._restore_lock:
            if "_pending" not in self.__dict__:
                self._pending: Dict[int, int] = dict(self._store._page_of_object)

    def __missing__(self, oid: int) -> UncertainObject:
        with self._lock:
            page_id = self._pending.get(oid)
            if page_id is not None:
                self._decode(page_id)
        return dict.__getitem__(self, oid)

    def _decode(self, page_id: int) -> None:
        pending = self._pending
        for obj in self._disk.peek_page(page_id).entries:
            if obj.oid in pending:
                dict.__setitem__(self, obj.oid, obj)
                del pending[obj.oid]

    def decode_all(self) -> None:
        """Decode every page still holding an undecoded object."""
        with self._lock:
            for page_id in sorted(set(self._pending.values())):
                self._decode(page_id)

    def __contains__(self, oid: object) -> bool:
        return oid in self._pending or dict.__contains__(self, oid)

    def __len__(self) -> int:
        with self._lock:
            return dict.__len__(self) + len(self._pending)

    def __setitem__(self, oid: int, obj: UncertainObject) -> None:
        with self._lock:
            dict.__setitem__(self, oid, obj)
            self._pending.pop(oid, None)

    def __delitem__(self, oid: int) -> None:
        with self._lock:
            if self._pending.pop(oid, None) is None:
                dict.__delitem__(self, oid)

    def __iter__(self) -> Iterator[int]:
        self.decode_all()
        return dict.__iter__(self)

    def __eq__(self, other: object) -> bool:
        self.decode_all()
        return dict.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    def keys(self) -> Any:
        self.decode_all()
        return dict.keys(self)

    def values(self) -> Any:
        self.decode_all()
        return dict.values(self)

    def items(self) -> Any:
        self.decode_all()
        return dict.items(self)

    def get(self, oid: int, default: Optional[UncertainObject] = None) -> Any:
        return self[oid] if oid in self else default
