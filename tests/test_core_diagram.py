"""Tests for a UV-index engine as a whole diagram: build, lookups, queries."""

import pytest

from repro import QueryEngine
from repro.core.uv_cell import answer_objects_brute_force
from repro.engine.planner import STRATEGY_RTREE
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.queries.spec import PNNQuery, RangeQuery


def _answers(engine, q, strategy="primary"):
    query = PNNQuery(q, compute_probabilities=False)
    return engine.explain(query, force_strategy=strategy).result


class TestBuild:
    def test_build_rejects_empty_dataset(self, small_domain):
        with pytest.raises(ValueError):
            QueryEngine.build([], small_domain)

    def test_build_records_construction_stats(self, small_diagram):
        stats = small_diagram.construction_stats
        assert stats is not None
        assert stats.method == "ic"
        assert stats.objects == len(small_diagram)

    def test_len_and_object_lookup(self, small_diagram, small_objects):
        assert len(small_diagram) == len(small_objects)
        assert small_diagram.object(3).oid == 3
        with pytest.raises(KeyError):
            small_diagram.object(999)

    def test_index_statistics_exposed(self, small_diagram):
        stats = small_diagram.statistics()
        assert stats["objects"] == float(len(small_diagram))


class TestQueries:
    def test_pnn_and_rtree_agree(self, small_diagram, small_objects):
        queries = [Point(120.0, 430.0), Point(555.0, 666.0), Point(900.0, 100.0)]
        for q in queries:
            uv = sorted(_answers(small_diagram, q).answer_ids)
            rt = sorted(_answers(small_diagram, q, STRATEGY_RTREE).answer_ids)
            bf = answer_objects_brute_force(small_objects, q)
            assert uv == bf
            assert rt == bf

    def test_answer_objects_shortcut(self, small_diagram, small_objects):
        q = Point(321.0, 654.0)
        assert sorted(_answers(small_diagram, q).answer_ids) == (
            answer_objects_brute_force(small_objects, q)
        )

    def test_pattern_queries(self, small_diagram, small_domain):
        oid = small_diagram.objects[0].oid
        area = small_diagram.uv_cell_area(oid)
        assert 0.0 < area <= small_domain.area()
        extent = small_diagram.uv_cell_extent(oid)
        assert extent is not None
        partitions = small_diagram.execute(RangeQuery(Rect(0.0, 0.0, 400.0, 400.0)))
        assert partitions.partitions

    def test_medium_diagram_consistency(self, medium_diagram, medium_dataset, medium_queries):
        objects, _ = medium_dataset
        for q in medium_queries[:8]:
            uv = sorted(_answers(medium_diagram, q).answer_ids)
            assert uv == answer_objects_brute_force(objects, q)

    def test_uv_index_fewer_reads_than_rtree(self, medium_diagram, medium_queries):
        """The headline I/O claim of Figure 6(b), at small scale: the
        UV-index needs no more leaf reads than the R-tree baseline."""
        uv_io = 0
        rtree_io = 0
        for q in medium_queries[:10]:
            uv_io += _answers(medium_diagram, q).io.page_reads
            rtree_io += _answers(medium_diagram, q, STRATEGY_RTREE).io.page_reads
        assert uv_io <= rtree_io
