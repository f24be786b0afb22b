"""Unit tests for the page-store layer: codec, file format, mmap serving."""

import pytest

from repro.core.uv_index import UVIndexEntry
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.rtree.node import RTreeEntry
from repro.storage.codec import decode_entry, decode_page, encode_entry, encode_page
from repro.storage.disk import DiskManager
from repro.storage.page import Page
from repro.storage.pagestore import (
    FilePageStore,
    MemoryPageStore,
    MmapPageStore,
    PageOverflowError,
    PageStoreError,
    ReadOnlyStoreError,
    create_page_store,
    open_page_store,
    write_snapshot_file,
)
from repro.uncertain.objects import UncertainObject
from repro.uncertain.pdf import HistogramPdf


class TestCodec:
    def roundtrip(self, entry):
        return decode_entry(encode_entry(entry))

    def test_uv_index_entry(self):
        entry = UVIndexEntry(oid=7, mbc=Circle(Point(1.5, -2.25), 3.125))
        back = self.roundtrip(entry)
        assert back.oid == 7
        assert back.mbc == entry.mbc

    def test_rtree_leaf_entry(self):
        entry = RTreeEntry(mbr=Rect(0.0, 1.0, 2.0, 3.0), oid=42)
        back = self.roundtrip(entry)
        assert back.oid == 42
        assert back.mbr == entry.mbr
        assert back.child is None

    def test_oid_circle_tuple_round_trips_through_pickle(self):
        """Tag 3 (the retired grid-cell tuple) is gone: such a tuple is a
        generic entry now."""
        entry = (13, Circle(Point(4.0, 5.0), 6.0))
        assert encode_entry(entry)[0] == 0
        assert self.roundtrip(entry) == entry

    def test_retired_tag_3_is_refused(self):
        blob = bytes([3]) + bytes(8 + 24)
        with pytest.raises(ValueError, match="unknown page-entry tag: 3"):
            decode_entry(blob)

    def test_uncertain_object_pdf_families(self):
        for obj in [
            UncertainObject.uniform(1, Point(10.0, 20.0), 5.0),
            UncertainObject.gaussian(2, Point(-1.0, 2.0), 4.0),
            UncertainObject.gaussian(3, Point(0.0, 0.0), 4.0, sigma=0.7),
            UncertainObject(4, Circle(Point(3.0, 3.0), 2.0),
                            HistogramPdf(2.0, [0.1, 0.2, 0.3, 0.4])),
        ]:
            back = self.roundtrip(obj)
            assert back.oid == obj.oid
            assert back.region == obj.region
            assert type(back.pdf) is type(obj.pdf)
            # bit-identical radial mass -> identical probabilities after reopen
            for r in (0.0, 0.5, 1.0, 1.9, 5.0):
                assert back.pdf.radial_cdf(r) == obj.pdf.radial_cdf(r)

    def test_histogram_masses_restored_verbatim(self):
        pdf = HistogramPdf(2.0, [0.1, 0.2, 0.3, 0.4])
        obj = UncertainObject(9, Circle(Point(0.0, 0.0), 2.0), pdf)
        back = self.roundtrip(obj)
        assert back.pdf.masses == pdf.masses

    def test_pickle_fallback(self):
        entry = {"arbitrary": [1, 2, 3]}
        assert self.roundtrip(entry) == entry

    def test_page_roundtrip(self):
        page = Page(5, capacity=4, entries=[(1, Circle(Point(0, 0), 1.0)), "weird"])
        back = decode_page(5, 4, encode_page(page))
        assert back.page_id == 5
        assert back.capacity == 4
        assert back.entries == page.entries


class TestFilePageStore:
    def _page(self, pid, payload):
        return Page(pid, capacity=8, entries=list(payload))

    def test_store_load_delete_reopen(self, tmp_path):
        path = str(tmp_path / "pages.uv")
        store = FilePageStore.create(path)
        store.store_page(self._page(0, ["a", "b"]))
        store.store_page(self._page(1, ["c"]))
        store.store_page(self._page(3, []))  # gap at id 2
        assert store.load_page(1).entries == ["c"]
        store.delete_page(1)
        with pytest.raises(KeyError):
            store.load_page(1)
        assert store.page_ids() == [0, 3]
        assert store.next_page_id() == 4
        store.close()

        reopened = FilePageStore.open(path)
        assert reopened.page_ids() == [0, 3]
        assert reopened.load_page(0).entries == ["a", "b"]
        assert reopened.next_page_id() == 4
        reopened.close()

    def test_meta_roundtrip_and_growth_invalidation(self, tmp_path):
        path = str(tmp_path / "pages.uv")
        store = FilePageStore.create(path)
        store.store_page(self._page(0, ["x"]))
        store.write_meta({"answer": 42})
        assert store.read_meta() == {"answer": 42}
        # Growing the slot region past the meta tail drops the stale meta.
        store.store_page(self._page(1, ["y"]))
        store.close()
        reopened = FilePageStore.open(path)
        assert reopened.read_meta() is None
        assert reopened.load_page(1).entries == ["y"]
        reopened.close()

    def test_slot_overflow_raises(self, tmp_path):
        store = FilePageStore.create(str(tmp_path / "pages.uv"), slot_bytes=64)
        with pytest.raises(PageOverflowError):
            store.store_page(self._page(0, ["long entry " * 50]))
        store.close()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00" * 128)
        with pytest.raises(PageStoreError):
            FilePageStore.open(str(path))


class TestMmapPageStore:
    def test_lazy_read_and_overlay(self, tmp_path):
        path = str(tmp_path / "snap.uv")
        pages = [Page(0, 4, ["a"]), Page(1, 4, ["b"])]
        write_snapshot_file(path, pages, {"k": "v"})
        store = MmapPageStore(path)
        assert store.read_meta() == {"k": "v"}
        assert store.load_page(1).entries == ["b"]
        assert store.page_ids() == [0, 1]
        # updates go to the overlay, never the file
        size_before = (tmp_path / "snap.uv").stat().st_size
        store.store_page(Page(2, 4, ["new"]))
        store.delete_page(0)
        assert store.load_page(2).entries == ["new"]
        with pytest.raises(KeyError):
            store.load_page(0)
        assert store.page_ids() == [1, 2]
        assert (tmp_path / "snap.uv").stat().st_size == size_before
        with pytest.raises(ReadOnlyStoreError):
            store.write_meta({"nope": 1})
        store.close()


class TestFactories:
    def test_create_kinds(self, tmp_path):
        assert isinstance(create_page_store("memory"), MemoryPageStore)
        assert isinstance(
            create_page_store("file", str(tmp_path / "f.uv")), FilePageStore
        )
        with pytest.raises(ValueError):
            create_page_store("file")  # missing path
        with pytest.raises(ValueError):
            create_page_store("mmap", str(tmp_path / "m.uv"))  # builds not allowed
        with pytest.raises(ValueError):
            create_page_store("bogus")

    def test_open_memory_loads_eagerly(self, tmp_path):
        path = str(tmp_path / "snap.uv")
        write_snapshot_file(path, [Page(0, 4, ["a"])], {"k": 1}, next_page_id=7)
        store = open_page_store("memory", path)
        assert isinstance(store, MemoryPageStore)
        assert store.load_page(0).entries == ["a"]
        assert store.read_meta() == {"k": 1}

    def test_snapshot_preserves_next_page_id(self, tmp_path):
        path = str(tmp_path / "snap.uv")
        write_snapshot_file(path, [Page(0, 4, [])], {}, next_page_id=11)
        store = open_page_store("file", path)
        assert store.next_page_id() == 11
        store.close()


class TestDiskManagerOverStores:
    def test_file_backed_disk_roundtrip(self, tmp_path):
        path = str(tmp_path / "disk.uv")
        disk = DiskManager(store=FilePageStore.create(path))
        page = disk.allocate_page(capacity=4)
        page.add((1, Circle(Point(0, 0), 1.0)))
        disk.close()  # flushes the in-place mutation

        served = DiskManager(store=FilePageStore.open(path))
        assert served.peek_page(page.page_id).entries == [(1, Circle(Point(0, 0), 1.0))]
        assert served.next_page_id == disk.next_page_id

    def test_free_page_invalidates_buffer_pool(self):
        disk = DiskManager(buffer_pages=4)
        page = disk.allocate_page(capacity=4)
        disk.read_page(page.page_id)  # miss, admitted
        assert disk.read_page(page.page_id) is page  # hit
        assert disk.stats.cache_hits == 1
        disk.free_page(page.page_id)
        with pytest.raises(KeyError):
            disk.read_page(page.page_id)

    def test_write_page_refreshes_stale_frame(self):
        disk = DiskManager(buffer_pages=4)
        page = disk.allocate_page(capacity=4)
        disk.read_page(page.page_id)
        replacement = Page(page.page_id, capacity=4, entries=["fresh"])
        disk.write_page(replacement)
        assert disk.read_page(page.page_id).entries == ["fresh"]

    def test_buffer_pool_hits_skip_read_count_and_latency(self):
        disk = DiskManager(buffer_pages=2)
        page = disk.allocate_page(capacity=4)
        disk.read_page(page.page_id)
        before = disk.stats.page_reads
        disk.read_page(page.page_id)
        assert disk.stats.page_reads == before
        assert disk.stats.cache_hits == 1
        assert disk.stats.cache_misses == 1
        assert disk.stats.cache_hit_ratio == pytest.approx(0.5)
