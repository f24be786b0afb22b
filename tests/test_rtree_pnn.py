"""Tests for the branch-and-prune PNN baseline over the R-tree."""

import numpy as np
import pytest

from reference.candidates import mbr_to_mbc
from repro.core.uv_cell import answer_objects_brute_force
from repro.geometry.point import Point
from repro.rtree.pnn import RTreePNN
from repro.rtree.tree import RTree
from repro.storage.disk import DiskManager
from repro.storage.object_store import ObjectStore
from repro.uncertain.objects import UncertainObject


def make_objects(count, seed=0, radius=30.0, extent=1000.0):
    rng = np.random.default_rng(seed)
    return [
        UncertainObject.gaussian(
            i,
            Point(float(rng.uniform(radius, extent - radius)),
                  float(rng.uniform(radius, extent - radius))),
            radius,
        )
        for i in range(count)
    ]


class TestMbrToMbc:
    def test_roundtrip_through_mbr(self):
        obj = UncertainObject.uniform(1, Point(10.0, 20.0), 7.5)
        mbc = mbr_to_mbc(obj.mbr())
        assert mbc.center.is_close(obj.center)
        assert mbc.radius == pytest.approx(obj.radius)


class TestCandidateRetrieval:
    def test_candidates_superset_of_answers(self):
        objects = make_objects(100, seed=1)
        tree = RTree.bulk_load(objects, fanout=8)
        pnn = RTreePNN(tree, objects=objects)
        query = Point(400.0, 400.0)
        candidate_ids = set(pnn.retrieve_candidates(query).oids.tolist())
        expected = set(answer_objects_brute_force(objects, query))
        assert expected <= candidate_ids

    def test_answer_set_matches_brute_force(self):
        objects = make_objects(120, seed=2)
        tree = RTree.bulk_load(objects, fanout=8)
        pnn = RTreePNN(tree, objects=objects)
        rng = np.random.default_rng(0)
        for _ in range(15):
            q = Point(float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
            result = pnn.query(q, compute_probabilities=False)
            assert sorted(result.answer_ids) == answer_objects_brute_force(objects, q)


class TestFullQuery:
    def test_probabilities_sum_to_one(self):
        objects = make_objects(60, seed=3, radius=60.0)
        tree = RTree.bulk_load(objects, fanout=8)
        pnn = RTreePNN(tree, objects=objects)
        result = pnn.query(Point(500.0, 500.0))
        assert result.answers
        assert result.total_probability() == pytest.approx(1.0, abs=1e-6)
        assert result.answers == result.sorted_by_probability()

    def test_io_and_timing_recorded(self):
        disk = DiskManager()
        objects = make_objects(150, seed=4)
        store = ObjectStore(disk)
        store.bulk_load(objects)
        tree = RTree.bulk_load(objects, disk=disk, fanout=8)
        pnn = RTreePNN(tree, object_store=store)
        result = pnn.query(Point(250.0, 750.0))
        assert result.io is not None
        assert result.io.page_reads > 0
        assert result.timing is not None
        assert set(result.timing.buckets) == {"index", "object_retrieval", "probability"}

    def test_requires_store_or_objects(self):
        tree = RTree.bulk_load(make_objects(5))
        with pytest.raises(ValueError):
            RTreePNN(tree)

    def test_single_object_dataset(self):
        objects = make_objects(1, seed=5)
        tree = RTree.bulk_load(objects, fanout=8)
        pnn = RTreePNN(tree, objects=objects)
        result = pnn.query(Point(10.0, 10.0))
        assert result.answer_ids == [0]
        assert result.answers[0].probability == pytest.approx(1.0)
