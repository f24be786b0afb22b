"""Tests for UV-edges and their outside regions."""

import pytest

from repro.core.uv_edge import UVEdge
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.uncertain.objects import UncertainObject


def objects_pair(gap=100.0, r_i=10.0, r_j=20.0):
    o_i = UncertainObject.uniform(1, Point(0.0, 0.0), r_i)
    o_j = UncertainObject.uniform(2, Point(gap, 0.0), r_j)
    return o_i, o_j


class TestConstruction:
    def test_requires_distinct_objects(self):
        o_i, _ = objects_pair()
        with pytest.raises(ValueError):
            UVEdge.between(o_i, o_i)

    def test_exists_for_disjoint_regions(self):
        edge = UVEdge.between(*objects_pair())
        assert edge.exists()

    def test_void_for_overlapping_regions(self):
        edge = UVEdge.between(*objects_pair(gap=25.0, r_i=15.0, r_j=15.0))
        assert not edge.exists()
        # A void edge never excludes anything.
        assert not edge.in_outside_region(Point(24.0, 0.0))
        assert edge.edge_value(Point(24.0, 0.0)) < 0
        assert not edge.rect_in_outside_region(Rect(0, 0, 10, 10))


class TestOutsideRegionSemantics:
    def test_points_near_competitor_excluded(self):
        o_i, o_j = objects_pair()
        edge = UVEdge.between(o_i, o_j)
        q = Point(100.0, 0.0)  # at O_j's centre
        assert edge.in_outside_region(q)
        # Symmetric check against raw distances.
        assert o_i.min_distance(q) > o_j.max_distance(q)

    def test_points_near_owner_included(self):
        o_i, o_j = objects_pair()
        edge = UVEdge.between(o_i, o_j)
        q = Point(5.0, 5.0)
        assert not edge.in_outside_region(q)
        assert o_i.min_distance(q) <= o_j.max_distance(q)

    def test_edge_value_zero_on_the_edge(self):
        o_i, o_j = objects_pair()
        edge = UVEdge.between(o_i, o_j)
        assert edge.hyperbola is not None
        for t in (-1.0, 0.0, 1.0):
            assert edge.edge_value(edge.hyperbola.point_at(t)) == pytest.approx(0.0, abs=1e-9)

    def test_membership_equivalence_with_distance_inequality(self):
        o_i, o_j = objects_pair(gap=80.0, r_i=5.0, r_j=12.0)
        edge = UVEdge.between(o_i, o_j)
        probes = [
            Point(x, y)
            for x in (-50.0, 0.0, 30.0, 60.0, 90.0, 130.0)
            for y in (-40.0, 0.0, 25.0, 70.0)
        ]
        for p in probes:
            geometric = edge.in_outside_region(p)
            distances = o_j.max_distance(p) < o_i.min_distance(p)
            assert geometric == distances


class TestFourPointTest:
    def test_rect_deep_in_outside_region(self):
        o_i, o_j = objects_pair()
        edge = UVEdge.between(o_i, o_j)
        rect = Rect(95.0, -5.0, 105.0, 5.0)  # around O_j
        assert edge.rect_in_outside_region(rect)

    def test_rect_on_owner_side(self):
        o_i, o_j = objects_pair()
        edge = UVEdge.between(o_i, o_j)
        rect = Rect(-5.0, -5.0, 5.0, 5.0)
        assert not edge.rect_in_outside_region(rect)

    def test_rect_straddling_edge(self):
        o_i, o_j = objects_pair()
        edge = UVEdge.between(o_i, o_j)
        # A huge rectangle covering both objects cannot be fully outside.
        rect = Rect(-50.0, -50.0, 150.0, 50.0)
        assert not edge.rect_in_outside_region(rect)

    def test_conservativeness_of_four_point_test(self):
        """If the 4-point test says "fully outside", every sampled interior
        point really is in the outside region (Lemma 4 direction)."""
        o_i, o_j = objects_pair(gap=60.0, r_i=8.0, r_j=8.0)
        edge = UVEdge.between(o_i, o_j)
        rect = Rect(55.0, -10.0, 80.0, 10.0)
        if edge.rect_in_outside_region(rect):
            for p in rect.sample_grid(6):
                assert edge.in_outside_region(p, tol=-1e-9)
