"""Unit tests for the simulated storage layer (pages, disk, buffer, stats, object store)."""

import pytest

from repro.geometry.point import Point
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.object_store import ObjectStore
from repro.storage.page import Page, entries_per_page
from repro.storage.stats import IOStats, TimingBreakdown
from repro.uncertain.objects import UncertainObject


class TestPage:
    def test_capacity_enforced(self):
        page = Page(0, capacity=2)
        page.add("a")
        page.add("b")
        assert page.is_full()
        with pytest.raises(OverflowError):
            page.add("c")

    def test_remaining(self):
        page = Page(0, capacity=3)
        page.add("a")
        assert page.remaining() == 2
        assert len(page) == 1

    def test_entries_per_page(self):
        assert entries_per_page(40, 4096) == 102
        assert entries_per_page(8192, 4096) == 1
        with pytest.raises(ValueError):
            entries_per_page(0)


class TestDiskManager:
    def test_allocation_and_read_write_counting(self):
        disk = DiskManager()
        page = disk.allocate_page()
        assert disk.stats.pages_allocated == 1
        assert disk.stats.page_reads == 0
        disk.read_page(page.page_id)
        disk.write_page(page)
        assert disk.stats.page_reads == 1
        assert disk.stats.page_writes == 1
        assert disk.stats.total_io == 2

    def test_peek_does_not_count(self):
        disk = DiskManager()
        page = disk.allocate_page()
        disk.peek_page(page.page_id)
        assert disk.stats.page_reads == 0

    def test_read_unknown_page_raises(self):
        disk = DiskManager()
        with pytest.raises(KeyError):
            disk.read_page(99)

    def test_free_page(self):
        disk = DiskManager()
        page = disk.allocate_page()
        disk.free_page(page.page_id)
        assert disk.page_count == 0
        with pytest.raises(KeyError):
            disk.read_page(page.page_id)

    def test_reset_stats_returns_previous(self):
        disk = DiskManager()
        page = disk.allocate_page()
        disk.read_page(page.page_id)
        before = disk.reset_stats()
        assert before.page_reads == 1
        assert disk.stats.page_reads == 0

    def test_total_entries(self):
        disk = DiskManager()
        page = disk.allocate_page(capacity=4)
        page.add(1)
        page.add(2)
        assert disk.total_entries() == 2

    def test_retired_read_latency_knob_is_gone(self):
        with pytest.raises(TypeError):
            DiskManager(read_latency=0.01)


class TestIOStats:
    def test_snapshot_and_delta(self):
        stats = IOStats()
        stats.page_reads = 5
        snap = stats.snapshot()
        stats.page_reads = 9
        delta = stats.delta(snap)
        assert delta.page_reads == 4

    def test_reset_preserves_allocations(self):
        stats = IOStats(page_reads=3, page_writes=2, pages_allocated=7)
        stats.reset()
        assert stats.page_reads == 0
        assert stats.pages_allocated == 7

    def test_as_dict(self):
        stats = IOStats(page_reads=1, page_writes=2, pages_allocated=3)
        assert stats.as_dict() == {
            "page_reads": 1,
            "page_writes": 2,
            "pages_allocated": 3,
            "cache_hits": 0,
            "cache_misses": 0,
        }

    def test_cache_counters_reset_and_ratio(self):
        stats = IOStats(cache_hits=3, cache_misses=1)
        assert stats.cache_hit_ratio == pytest.approx(0.75)
        stats.reset()
        assert stats.cache_hits == 0
        assert stats.cache_misses == 0
        assert IOStats().cache_hit_ratio == 0.0


class TestTimingBreakdown:
    def test_accumulation_and_fractions(self):
        timing = TimingBreakdown()
        timing.add("a", 1.0)
        timing.add("a", 1.0)
        timing.add("b", 2.0)
        assert timing.get("a") == pytest.approx(2.0)
        assert timing.total() == pytest.approx(4.0)
        assert timing.fractions()["b"] == pytest.approx(0.5)

    def test_empty_fractions(self):
        assert TimingBreakdown().fractions() == {}

    def test_merge(self):
        a = TimingBreakdown({"x": 1.0})
        b = TimingBreakdown({"x": 2.0, "y": 3.0})
        a.merge(b)
        assert a.get("x") == pytest.approx(3.0)
        assert a.get("y") == pytest.approx(3.0)


class TestBufferPool:
    def test_cache_hit_avoids_disk_read(self):
        disk = DiskManager()
        page = disk.allocate_page()
        pool = BufferPool(disk, capacity=2)
        pool.get_page(page.page_id)
        pool.get_page(page.page_id)
        assert disk.stats.page_reads == 1
        assert pool.hits == 1
        assert pool.misses == 1
        assert pool.hit_ratio == pytest.approx(0.5)

    def test_lru_eviction(self):
        disk = DiskManager()
        pages = [disk.allocate_page() for _ in range(3)]
        pool = BufferPool(disk, capacity=2)
        pool.get_page(pages[0].page_id)
        pool.get_page(pages[1].page_id)
        pool.get_page(pages[2].page_id)  # evicts page 0
        pool.get_page(pages[0].page_id)  # miss again
        assert disk.stats.page_reads == 4

    def test_zero_capacity_disables_caching(self):
        disk = DiskManager()
        page = disk.allocate_page()
        pool = BufferPool(disk, capacity=0)
        pool.get_page(page.page_id)
        pool.get_page(page.page_id)
        assert disk.stats.page_reads == 2

    def test_invalidate(self):
        disk = DiskManager()
        page = disk.allocate_page()
        pool = BufferPool(disk, capacity=2)
        pool.get_page(page.page_id)
        pool.invalidate(page.page_id)
        pool.get_page(page.page_id)
        assert disk.stats.page_reads == 2

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            BufferPool(DiskManager(), capacity=-1)


class TestObjectStore:
    def _objects(self, count):
        return [
            UncertainObject.uniform(i, Point(float(i), float(i)), 1.0)
            for i in range(count)
        ]

    def test_fetch_single(self):
        disk = DiskManager()
        store = ObjectStore(disk, objects_per_page=4)
        store.bulk_load(self._objects(10))
        obj = store.fetch(7)
        assert obj.oid == 7
        assert disk.stats.page_reads == 1

    def test_fetch_many_reads_each_page_once(self):
        disk = DiskManager()
        store = ObjectStore(disk, objects_per_page=4)
        store.bulk_load(self._objects(10))
        disk.reset_stats()
        objs = store.fetch_many([0, 1, 2, 3])  # same page
        assert [o.oid for o in objs] == [0, 1, 2, 3]
        assert disk.stats.page_reads == 1
        objs = store.fetch_many([0, 9])  # two pages
        assert disk.stats.page_reads == 3

    def test_contains_and_len(self):
        store = ObjectStore(DiskManager(), objects_per_page=4)
        store.bulk_load(self._objects(5))
        assert 3 in store
        assert 99 not in store
        assert len(store) == 5

    def test_invalid_objects_per_page(self):
        with pytest.raises(ValueError):
            ObjectStore(DiskManager(), objects_per_page=0)
