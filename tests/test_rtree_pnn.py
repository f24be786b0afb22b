"""Tests for the branch-and-prune PNN baseline over the R-tree."""

import numpy as np
import pytest

from reference.candidates import mbr_to_mbc
from repro import DiagramConfig, QueryEngine
from repro.core.uv_cell import answer_objects_brute_force
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.queries.spec import PNNQuery
from repro.rtree.pnn import branch_and_prune_candidates
from repro.rtree.tree import RTree
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


def rtree_engine(objects):
    domain = Rect(0.0, 0.0, 1000.0, 1000.0)
    return QueryEngine.build(objects, domain, DiagramConfig(backend="rtree", rtree_fanout=8))


class TestCandidateRetrieval:
    def test_candidates_superset_of_answers(self):
        objects = make_objects(100, seed=1)
        tree = RTree.bulk_load(objects, fanout=8)
        query = Point(400.0, 400.0)
        candidate_ids = set(branch_and_prune_candidates(tree, query).oids.tolist())
        expected = set(answer_objects_brute_force(objects, query))
        assert expected <= candidate_ids

    def test_answer_set_matches_brute_force(self):
        objects = make_objects(120, seed=2)
        engine = rtree_engine(objects)
        rng = np.random.default_rng(0)
        for _ in range(15):
            q = Point(float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
            result = engine.execute(PNNQuery(q, compute_probabilities=False))
            assert sorted(result.answer_ids) == answer_objects_brute_force(objects, q)


class TestFullQuery:
    def test_probabilities_sum_to_one(self):
        objects = make_objects(60, seed=3, radius=60.0)
        result = rtree_engine(objects).execute(PNNQuery(Point(500.0, 500.0)))
        assert result.answers
        assert result.total_probability() == pytest.approx(1.0, abs=1e-6)
        assert result.answers == result.sorted_by_probability()

    def test_io_and_timing_recorded(self):
        objects = make_objects(150, seed=4)
        result = rtree_engine(objects).execute(PNNQuery(Point(250.0, 750.0)))
        assert result.io is not None
        assert result.io.page_reads > 0
        assert result.timing is not None
        assert set(result.timing.buckets) == {"index", "object_retrieval", "probability"}

    def test_requires_objects(self):
        with pytest.raises(ValueError):
            rtree_engine([])

    def test_single_object_dataset(self):
        objects = make_objects(1, seed=5)
        result = rtree_engine(objects).execute(PNNQuery(Point(10.0, 10.0)))
        assert result.answer_ids == [0]
        assert result.answers[0].probability == pytest.approx(1.0)
