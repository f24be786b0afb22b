"""Tests for PNN evaluation over the UV-index and the pattern-analysis queries."""

import numpy as np
import pytest

from repro.core.pattern import PatternAnalyzer
from repro.core.pnn import uv_index_candidates
from repro.core.uv_cell import answer_objects_brute_force
from repro.engine import QueryEngine
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.queries.candidates import min_max_prune
from repro.queries.spec import PNNQuery


class TestUVIndexPNN:
    def test_matches_brute_force(self, small_diagram, small_objects):
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = Point(float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
            result = small_diagram.execute(PNNQuery(q, compute_probabilities=False))
            got = sorted(result.answer_ids)
            assert got == answer_objects_brute_force(small_objects, q)

    def test_probabilities_sum_to_one(self, small_diagram):
        result = small_diagram.execute(PNNQuery(Point(430.0, 520.0)))
        assert result.answers
        assert result.total_probability() == pytest.approx(1.0, abs=1e-6)

    def test_probabilities_ranked_sensibly(self, small_objects, small_diagram):
        # Query right at an object's centre: that object should be the most
        # probable nearest neighbour.
        target = small_objects[4]
        result = small_diagram.execute(PNNQuery(target.center))
        assert result.top() is not None
        assert result.top().oid == target.oid

    def test_timing_and_io_recorded(self, small_diagram):
        result = small_diagram.execute(PNNQuery(Point(100.0, 200.0)))
        assert result.io is not None
        assert result.io.page_reads >= 1
        assert result.timing is not None
        assert result.timing.total() > 0.0

    def test_requires_objects(self, small_domain):
        with pytest.raises(ValueError):
            QueryEngine.build([], small_domain)

    def test_leaf_candidates_without_the_store(self, small_diagram, small_objects):
        q = Point(500.0, 500.0)
        answers = min_max_prune(q, uv_index_candidates(small_diagram.index, q))
        assert sorted(answers) == answer_objects_brute_force(small_objects, q)


class TestPatternAnalyzer:
    def test_uv_cell_area_positive_and_bounded(self, small_diagram, small_objects, small_domain):
        analyzer = PatternAnalyzer(small_diagram.index)
        for obj in small_objects:
            area = analyzer.uv_cell_area(obj.oid)
            assert 0.0 < area <= small_domain.area() + 1e-6

    def test_uv_cell_areas_cover_domain(self, small_diagram, small_objects, small_domain):
        analyzer = PatternAnalyzer(small_diagram.index)
        total = sum(analyzer.uv_cell_area(obj.oid) for obj in small_objects)
        assert total >= small_domain.area() * 0.99

    def test_uv_cell_extent_contains_object(self, small_diagram, small_objects):
        analyzer = PatternAnalyzer(small_diagram.index)
        for obj in small_objects[:5]:
            extent = analyzer.uv_cell_extent(obj.oid)
            assert extent is not None
            assert extent.contains_point(obj.center)

    def test_cell_leaf_regions_nonempty(self, small_diagram, small_objects):
        analyzer = PatternAnalyzer(small_diagram.index)
        regions = analyzer.uv_cell_leaf_regions(small_objects[0].oid)
        assert regions

    def test_partitions_in_region(self, small_diagram, small_domain):
        analyzer = PatternAnalyzer(small_diagram.index)
        window = Rect(100.0, 100.0, 500.0, 500.0)
        result = analyzer.partitions_in(window)
        assert result.partitions
        for partition in result.partitions:
            assert partition.region.intersects(window)
            assert partition.object_count >= 0
            if partition.region.area() > 0:
                assert partition.density == pytest.approx(
                    partition.object_count / partition.region.area()
                )
        assert result.io.page_reads >= 1
        assert result.seconds >= 0.0
        assert result.total_objects() >= 1

    def test_larger_window_returns_at_least_as_many_partitions(self, small_diagram):
        analyzer = PatternAnalyzer(small_diagram.index)
        small_window = Rect(400.0, 400.0, 500.0, 500.0)
        big_window = Rect(100.0, 100.0, 900.0, 900.0)
        assert len(analyzer.partitions_in(big_window).partitions) >= len(
            analyzer.partitions_in(small_window).partitions
        )

    def test_precomputed_counts_skip_io(self, small_diagram):
        analyzer = PatternAnalyzer(small_diagram.index, precompute=True)
        before = small_diagram.index.disk.stats.snapshot()
        analyzer.partitions_in(Rect(0.0, 0.0, 1000.0, 1000.0))
        delta = small_diagram.index.disk.stats.delta(before)
        assert delta.page_reads == 0

    def test_density_histogram(self, small_diagram):
        analyzer = PatternAnalyzer(small_diagram.index)
        histogram = analyzer.density_histogram(Rect(0.0, 0.0, 1000.0, 1000.0), bins=5)
        assert len(histogram) == 5
        assert sum(histogram) > 0
