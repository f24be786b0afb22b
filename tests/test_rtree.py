"""Unit tests for the R-tree substrate (bulk load, insertion, range, k-NN)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from reference import rtree_walks
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
        result = tree.circular_range_query(center, radius, center_radius=radius)
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


class TestArrayWalksMatchTheScalarWalks:
    """``knn`` and ``circular_range_query`` test node arrays, yet return the
    per-entry walks' ids and distances in their order (``tests/reference``)
    and read the same leaves."""

    # Centres on a coarse lattice and few radii: duplicate MBRs and equal
    # distances from lattice query points are the common case, not the rare.
    lattice = st.tuples(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=8),
        st.sampled_from([0.0, 5.0, 50.0]),
    )

    @staticmethod
    def tree_of(cells, fanout, packed):
        objects = [
            UncertainObject.uniform(oid, Point(100.0 * ix, 100.0 * iy), r)
            for oid, (ix, iy, r) in enumerate(cells)
        ]
        if packed:
            return RTree.bulk_load(objects, fanout=fanout)
        tree = RTree(fanout=fanout)
        for obj in objects:
            tree.insert(obj)
        return tree

    @staticmethod
    def counted(tree, walk, *args):
        before = tree.disk.stats.page_reads
        result = walk(*args)
        return result, tree.disk.stats.page_reads - before

    @settings(max_examples=150, deadline=None)
    # A centre exactly ``center_radius`` away, and equal distances from
    # duplicate MBRs spread over several leaves.
    @example(cells=[(0, 0, 0.0), (1, 0, 0.0), (0, 1, 0.0), (2, 2, 0.0)], fanout=4,
             packed=True, query=(0, 0, 0.0), k=4, radius=100.0, center_radius=100.0)
    @example(cells=[(1, 1, 5.0)] * 12 + [(3, 3, 5.0)] * 12, fanout=4, packed=False,
             query=(2, 2, 0.0), k=20, radius=250.0, center_radius=300.0)
    @given(
        cells=st.lists(lattice, max_size=90),
        fanout=st.sampled_from([4, 5, 12, 100]),
        packed=st.booleans(),
        query=st.tuples(st.integers(-1, 9), st.integers(-1, 9), st.sampled_from([0.0, 50.0, 37.5])),
        k=st.integers(min_value=0, max_value=95),
        radius=st.sampled_from([0.0, 50.0, 100.0, 141.4213562373095, 250.0, 2000.0]),
        center_radius=st.sampled_from([None, 0.0, 100.0, 300.0]),
    )
    def test_same_answers_in_the_same_order_with_the_same_reads(
        self, cells, fanout, packed, query, k, radius, center_radius
    ):
        tree = self.tree_of(cells, fanout, packed)
        point = Point(100.0 * query[0] + query[2], 100.0 * query[1])
        for _ in range(2):  # cold, then with the node arrays cached
            assert self.counted(tree, tree.knn, point, k) == self.counted(
                tree, rtree_walks.knn, tree, point, k
            )
            assert self.counted(
                tree, tree.circular_range_query, point, radius, center_radius
            ) == self.counted(
                tree, rtree_walks.circular_range_query, tree, point, radius, center_radius
            )

    def test_an_insert_refreshes_the_cached_arrays(self):
        tree = self.tree_of([(i % 5, i // 5, 5.0) for i in range(30)], 6, packed=False)
        point = Point(250.0, 250.0)
        assert tree.knn(point, 40) == rtree_walks.knn(tree, point, 40)
        tree.insert(UncertainObject.uniform(99, Point(250.0, 250.0), 5.0))
        assert tree.knn(point, 40) == rtree_walks.knn(tree, point, 40)
        assert tree.knn(point, 1) == [(99, 0.0)]
        assert sorted(tree.circular_range_query(point, 0.0)) == [99]
