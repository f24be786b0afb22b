"""Tests for possible regions and their refinement."""

import pytest
from reference.possible_region import ScalarPossibleRegion

from repro.core.possible_region import PossibleRegion
from repro.core.uv_cell import build_exact_uv_cell
from repro.core.uv_edge import UVEdge
from repro.datasets import generate_uniform_objects
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.uncertain.objects import UncertainObject


DOMAIN = Rect(0.0, 0.0, 1000.0, 1000.0)


def obj(oid, x, y, r=20.0):
    return UncertainObject.uniform(oid, Point(x, y), r)


class TestInitialState:
    def test_starts_as_domain(self):
        region = PossibleRegion(obj(0, 500, 500), DOMAIN)
        assert region.area() == pytest.approx(DOMAIN.area())
        assert region.contains(Point(10.0, 990.0))
        assert not region.is_empty()

    def test_max_distance_from_center(self):
        region = PossibleRegion(obj(0, 0.0 + 20.0, 20.0), DOMAIN)
        # Farthest domain corner from (20, 20) is (1000, 1000).
        expected = Point(20.0, 20.0).distance_to(Point(1000.0, 1000.0))
        assert region.max_distance_from_center() == pytest.approx(expected)


class TestRefinement:
    def test_refine_shrinks_region(self):
        owner = obj(0, 300.0, 500.0)
        other = obj(1, 700.0, 500.0)
        region = PossibleRegion(owner, DOMAIN)
        changed = region.refine(other)
        assert changed
        assert region.area() < DOMAIN.area()
        assert 1 in region.contributors

    def test_refine_keeps_owner_region_inside(self):
        owner = obj(0, 300.0, 500.0, r=30.0)
        region = PossibleRegion(owner, DOMAIN)
        for i, (x, y) in enumerate([(700, 500), (300, 100), (300, 900), (50, 500)], start=1):
            region.refine(obj(i, float(x), float(y)))
        # Every point of the owner's uncertainty region is trivially a point
        # where the owner can be the NN, so it must stay in the region.
        for p in owner.region.sample_boundary(16):
            assert region.contains(p)
        assert region.contains(owner.center)

    def test_refine_by_self_is_noop(self):
        owner = obj(0, 300.0, 500.0)
        region = PossibleRegion(owner, DOMAIN)
        assert not region.refine(owner)
        assert region.area() == pytest.approx(DOMAIN.area())

    def test_refine_with_overlapping_object_is_noop(self):
        owner = obj(0, 300.0, 500.0, r=60.0)
        overlapping = obj(1, 330.0, 500.0, r=60.0)
        region = PossibleRegion(owner, DOMAIN)
        assert not region.refine(overlapping)
        assert region.area() == pytest.approx(DOMAIN.area())

    def test_refine_with_distant_object_is_noop_after_shrinking(self):
        owner = obj(0, 200.0, 200.0)
        near = obj(1, 300.0, 200.0)
        region = PossibleRegion(owner, DOMAIN)
        region.refine(near)
        area_after_near = region.area()
        # An object far outside the current region's reach cannot shrink it
        # further than marginally (it may still cut a corner of the domain).
        far = obj(2, 980.0, 980.0)
        region.refine(far)
        assert region.area() <= area_after_near + 1e-9

    def test_refine_all_reports_effective_objects(self):
        owner = obj(0, 500.0, 500.0)
        others = [obj(1, 600.0, 500.0), obj(2, 400.0, 500.0), obj(3, 505.0, 500.0, r=40.0)]
        region = PossibleRegion(owner, DOMAIN)
        effective = region.refine_all(others)
        assert 1 in effective and 2 in effective
        assert 3 not in effective  # overlaps the owner, no UV-edge

    def test_semantics_of_refined_region(self):
        """After refining by a set of objects, a point is kept iff no outside
        region of those objects contains it (up to boundary sampling error)."""
        owner = obj(0, 400.0, 400.0)
        others = [obj(1, 700.0, 400.0), obj(2, 400.0, 800.0), obj(3, 150.0, 250.0)]
        region = PossibleRegion(owner, DOMAIN, arc_samples=24, edge_samples=10)
        region.refine_all(others)
        edges = [UVEdge.between(owner, other) for other in others]
        for p in DOMAIN.sample_grid(12):
            excluded = any(e.in_outside_region(p) for e in edges)
            margin = min(abs(e.edge_value(p)) for e in edges)
            if margin < 5.0:
                continue  # too close to a boundary for a sampled polygon
            assert region.contains(p) == (not excluded)


class TestProvenance:
    def test_boundary_objects_identifies_shapers(self):
        owner = obj(0, 400.0, 500.0)
        near = obj(1, 600.0, 500.0)
        far = obj(2, 900.0, 900.0)
        region = PossibleRegion(owner, DOMAIN, arc_samples=20)
        region.refine_all([near, far])
        r_objects = region.boundary_objects([near, far])
        assert 1 in r_objects

    def test_boundary_objects_empty_for_unrefined_region(self):
        owner = obj(0, 400.0, 500.0)
        region = PossibleRegion(owner, DOMAIN)
        assert region.boundary_objects([obj(1, 800.0, 800.0)]) == []

    def test_convex_hull_vertices_cover_region(self):
        owner = obj(0, 400.0, 500.0)
        region = PossibleRegion(owner, DOMAIN)
        region.refine_all([obj(1, 600.0, 500.0), obj(2, 200.0, 300.0)])
        hull = region.convex_hull_vertices()
        assert len(hull) >= 3
        from repro.geometry.hull import point_in_convex_hull

        for vertex in region.polygon.vertices:
            assert point_in_convex_hull(vertex, hull, tol=1e-6)


class TestSameAsTheScalarRegion:
    """Algorithm 1 over the array kernel against the per-``Point`` region of
    ``tests/reference``: the same ring, measurements and r-objects."""

    @pytest.mark.parametrize("diameter", [40.0, 300.0])
    def test_exact_cells_match(self, diameter):
        objects, domain = generate_uniform_objects(40, diameter=diameter, seed=5)
        for owner in objects[:10]:
            others = [o for o in objects if o.oid != owner.oid]
            region = PossibleRegion(owner, domain, arc_samples=10)
            reference = ScalarPossibleRegion(owner, domain, arc_samples=10)
            assert region.refine_all(others) == reference.refine_all(others)
            assert region.polygon.vertices == reference.polygon.vertices
            assert region.area() == reference.polygon.area()
            assert region.contributors == reference.contributors
            assert region.max_distance_from_center() == reference.max_distance_from_center()
            assert region.convex_hull_vertices() == reference.convex_hull_vertices()
            expected = reference.boundary_objects(others)
            assert region.boundary_objects(others) == expected
            cell = build_exact_uv_cell(owner, objects, domain)
            assert cell.r_objects == expected
            assert cell.polygon.vertices == reference.polygon.vertices

    def test_refining_twice_with_the_same_object_changes_nothing(self):
        # Every vertex the first clip produced lies on the edge: the second
        # clip decides inside the scalar re-check band throughout.
        owner, other = obj(0, 300.0, 500.0), obj(1, 700.0, 500.0)
        region = PossibleRegion(owner, DOMAIN)
        reference = ScalarPossibleRegion(owner, DOMAIN)
        assert region.refine(other) and reference.refine(other)
        assert region.refine(other) == reference.refine(other)
        assert region.polygon.vertices == reference.polygon.vertices

    def test_polygon_is_rebuilt_after_a_clip(self):
        owner = obj(0, 300.0, 500.0)
        region = PossibleRegion(owner, DOMAIN)
        before = region.polygon
        assert region.polygon is before
        region.refine(obj(1, 700.0, 500.0))
        assert region.polygon is not before
        assert region.polygon.area() == region.area() < before.area()
