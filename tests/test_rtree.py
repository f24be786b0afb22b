"""Unit tests for the R-tree substrate (bulk load, insertion, range, k-NN)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference.rtree_split import quadratic_split as reference_split

from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.rtree.tree import RTree, quadratic_split
from repro.storage.disk import DiskManager
from repro.uncertain.objects import UncertainObject


def make_objects(count, seed=0, radius=5.0, extent=1000.0):
    rng = np.random.default_rng(seed)
    return [
        UncertainObject.uniform(
            i,
            Point(float(rng.uniform(radius, extent - radius)),
                  float(rng.uniform(radius, extent - radius))),
            radius,
        )
        for i in range(count)
    ]


class TestBulkLoad:
    def test_all_objects_present(self):
        objects = make_objects(120)
        tree = RTree.bulk_load(objects, fanout=10)
        assert tree.size == 120
        assert sorted(tree.all_object_ids()) == list(range(120))

    def test_tree_height_grows_with_size(self):
        small = RTree.bulk_load(make_objects(8), fanout=10)
        large = RTree.bulk_load(make_objects(500), fanout=10)
        assert small.height <= large.height
        assert large.height >= 3

    def test_leaf_mbrs_cover_objects(self):
        objects = make_objects(50)
        tree = RTree.bulk_load(objects, fanout=8)
        root_mbr = tree.root.mbr()
        for obj in objects:
            assert root_mbr.contains_rect(obj.mbr())

    def test_empty_bulk_load(self):
        tree = RTree.bulk_load([])
        assert tree.size == 0
        assert tree.all_object_ids() == []

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RTree(fanout=2)
        with pytest.raises(ValueError):
            RTree(fill_factor=0.1)


class TestDynamicInsert:
    def test_insert_then_query(self):
        tree = RTree(fanout=4)
        objects = make_objects(60, seed=3)
        for obj in objects:
            tree.insert(obj)
        assert tree.size == 60
        assert sorted(tree.all_object_ids()) == list(range(60))

    def test_insert_matches_brute_force_range(self):
        tree = RTree(fanout=5)
        objects = make_objects(80, seed=4)
        for obj in objects:
            tree.insert(obj)
        window = Rect(200.0, 200.0, 500.0, 600.0)
        expected = sorted(o.oid for o in objects if o.mbr().intersects(window))
        assert sorted(tree.range_query(window)) == expected


class TestQuadraticSplit:
    """The array kernel returns exactly the groups of the per-Rect reference."""

    @settings(max_examples=60, deadline=None)
    @given(
        fanout=st.sampled_from([4, 5, 8, 16, 33, 100]),
        grid=st.sampled_from([2, 3, 10, 1000]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_same_groups_as_reference(self, fanout, grid, seed):
        # Grid-snapped corners: a coarse grid makes equal wastes, equal
        # enlargements, duplicate and degenerate boxes the common case.
        rng = np.random.default_rng(seed)
        low = rng.integers(0, grid, size=(fanout + 1, 2))
        extent = rng.integers(0, grid, size=(fanout + 1, 2))
        boxes = np.hstack([low, low + extent]).astype(float) * (1000.0 / grid)
        min_fill = max(1, fanout // 3)
        expected = reference_split([Rect(*row) for row in boxes], min_fill)
        assert quadratic_split(boxes, min_fill) == expected

    def test_inserts_build_the_same_tree_as_the_reference_split(self, monkeypatch):
        objects = make_objects(150, seed=21, radius=20.0)

        def pages(tree):
            return sorted(
                (pid, [e.oid for e in tree.disk.peek_page(pid).entries])
                for pid in tree.disk.store.page_ids()
            )

        fast = RTree(fanout=6)
        for obj in objects:
            fast.insert(obj)
        monkeypatch.setattr(
            "repro.rtree.tree.quadratic_split",
            lambda boxes, min_fill: reference_split(
                [Rect(*row) for row in boxes], min_fill
            ),
        )
        slow = RTree(fanout=6)
        for obj in objects:
            slow.insert(obj)
        assert fast.snapshot_state() == slow.snapshot_state()
        assert pages(fast) == pages(slow)


class TestRangeQueries:
    def test_window_query_matches_brute_force(self):
        objects = make_objects(200, seed=1)
        tree = RTree.bulk_load(objects, fanout=12)
        for window in (Rect(0, 0, 250, 250), Rect(400, 100, 900, 500), Rect(990, 990, 1000, 1000)):
            expected = sorted(o.oid for o in objects if o.mbr().intersects(window))
            assert sorted(tree.range_query(window)) == expected

    def test_circular_range_matches_brute_force(self):
        objects = make_objects(200, seed=2)
        tree = RTree.bulk_load(objects, fanout=12)
        center = Point(500.0, 500.0)
        radius = 220.0
        expected = sorted(
            o.oid
            for o in objects
            if o.mbr().min_distance_to_point(center) <= radius
        )
        assert sorted(tree.circular_range_query(center, radius)) == expected

    def test_circular_range_with_center_filter(self):
        objects = make_objects(100, seed=5)
        tree = RTree.bulk_load(objects, fanout=12)
        center = Point(500.0, 500.0)
        radius = 300.0

        def only_centers_inside(oid, mbr):
            return center.distance_to(mbr.center) <= radius

        result = tree.circular_range_query(center, radius, center_filter=only_centers_inside)
        expected = sorted(
            o.oid for o in objects if center.distance_to(o.center) <= radius
        )
        assert sorted(result) == expected


class TestKnn:
    def test_knn_matches_brute_force(self):
        objects = make_objects(150, seed=7)
        tree = RTree.bulk_load(objects, fanout=10)
        query = Point(321.0, 654.0)
        got = tree.knn(query, 10)
        expected = sorted(objects, key=lambda o: o.mbr().min_distance_to_point(query))[:10]
        assert [oid for oid, _ in got] and len(got) == 10
        got_dists = [d for _, d in got]
        expected_dists = [o.mbr().min_distance_to_point(query) for o in expected]
        assert got_dists == pytest.approx(expected_dists)

    def test_knn_k_larger_than_dataset(self):
        objects = make_objects(5)
        tree = RTree.bulk_load(objects, fanout=10)
        assert len(tree.knn(Point(0, 0), 50)) == 5

    def test_knn_zero(self):
        tree = RTree.bulk_load(make_objects(5))
        assert tree.knn(Point(0, 0), 0) == []

    def test_knn_results_sorted(self):
        objects = make_objects(60, seed=9)
        tree = RTree.bulk_load(objects, fanout=8)
        got = tree.knn(Point(10.0, 10.0), 15)
        dists = [d for _, d in got]
        assert dists == sorted(dists)


class TestIOAccounting:
    def test_leaf_reads_counted(self):
        disk = DiskManager()
        objects = make_objects(300, seed=11)
        tree = RTree.bulk_load(objects, disk=disk, fanout=10)
        disk.reset_stats()
        tree.range_query(Rect(0, 0, 1000, 1000))
        # A full scan must read every leaf exactly once.
        _, leaves = tree.node_count()
        assert disk.stats.page_reads == leaves

    def test_point_ish_query_reads_few_leaves(self):
        disk = DiskManager()
        objects = make_objects(300, seed=12)
        tree = RTree.bulk_load(objects, disk=disk, fanout=10)
        disk.reset_stats()
        tree.range_query(Rect(500, 500, 501, 501))
        _, leaves = tree.node_count()
        assert disk.stats.page_reads < leaves
