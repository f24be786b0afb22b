"""Unit tests for half-plane clipping, the scalar smooth-constraint clip kept
as the oracle, and the array kernel that must reproduce it exactly."""

import math

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from reference.clipping import clip_polygon_by_constraint, clip_polygon_by_uv_edge

from repro.core.uv_edge import UVEdge
from repro.geometry import region_kernel
from repro.geometry.clipping import clip_polygon_halfplane, clip_polygon_to_rect
from repro.geometry.hyperbola import Hyperbola
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rectangle import Rect
from repro.uncertain.objects import UncertainObject


def square(size: float = 10.0) -> Polygon:
    return Polygon.from_rect(Rect(0.0, 0.0, size, size))


class TestHalfPlaneClipping:
    def test_clip_keeps_half_of_square(self):
        # Keep x <= 5.
        clipped = clip_polygon_halfplane(square(), 1.0, 0.0, -5.0)
        assert clipped.area() == pytest.approx(50.0)
        assert clipped.contains_point(Point(2.0, 5.0))
        assert not clipped.contains_point(Point(7.0, 5.0))

    def test_clip_no_effect_when_polygon_inside(self):
        clipped = clip_polygon_halfplane(square(), 1.0, 0.0, -100.0)
        assert clipped.area() == pytest.approx(100.0)

    def test_clip_everything_removed(self):
        clipped = clip_polygon_halfplane(square(), 1.0, 0.0, 100.0)
        assert clipped.is_empty()

    def test_diagonal_halfplane(self):
        # Keep x + y <= 10 over the 10x10 square: half the area.
        clipped = clip_polygon_halfplane(square(), 1.0, 1.0, -10.0)
        assert clipped.area() == pytest.approx(50.0)

    def test_clip_empty_polygon(self):
        assert clip_polygon_halfplane(Polygon.empty(), 1.0, 0.0, -5.0).is_empty()

    def test_clip_to_rect(self):
        clipped = clip_polygon_to_rect(square(), 2.0, 3.0, 6.0, 8.0)
        assert clipped.area() == pytest.approx(4.0 * 5.0)


class TestConstraintClipping:
    """The oracle itself (``tests/reference/clipping.py``) clips sensibly."""

    def test_circle_constraint_without_arc_sampler_is_conservative(self):
        # Keep points outside the circle of radius 5 around the origin
        # (constraint <= 0 means keep => use distance-based sign).  Without an
        # arc sampler the removed boundary is replaced by a straight chord,
        # which may only *over*-approximate the kept region (never lose area
        # that should be kept).
        def constraint(p: Point) -> float:
            return 5.0 - p.norm()  # positive inside the circle -> removed

        clipped = clip_polygon_by_constraint(square(), constraint, edge_samples=16)
        removed = 100.0 - clipped.area()
        quarter_disk = math.pi * 25.0 / 4.0
        chord_triangle = 12.5
        assert chord_triangle - 1e-6 <= removed <= quarter_disk + 1e-6
        # Every point that should be kept is still kept.
        for p in (Point(8.0, 8.0), Point(6.0, 1.0), Point(1.0, 6.0)):
            assert clipped.contains_point(p)

    def test_circle_constraint_with_arc_sampler_is_accurate(self):
        def constraint(p: Point) -> float:
            return 5.0 - p.norm()

        def arc_sampler(start: Point, end: Point):
            a0 = math.atan2(start.y, start.x)
            a1 = math.atan2(end.y, end.x)
            return [
                Point(5.0 * math.cos(a0 + (a1 - a0) * k / 17.0),
                      5.0 * math.sin(a0 + (a1 - a0) * k / 17.0))
                for k in range(1, 17)
            ]

        clipped = clip_polygon_by_constraint(
            square(), constraint, arc_sampler=arc_sampler, edge_samples=16
        )
        removed = 100.0 - clipped.area()
        assert removed == pytest.approx(math.pi * 25.0 / 4.0, rel=0.02)

    def test_constraint_with_no_effect(self):
        clipped = clip_polygon_by_constraint(square(), lambda p: -1.0)
        assert clipped.area() == pytest.approx(100.0)

    def test_constraint_removing_everything(self):
        clipped = clip_polygon_by_constraint(square(), lambda p: 1.0)
        assert clipped.is_empty()

    def test_halfplane_as_constraint_matches_exact_clip(self):
        def constraint(p: Point) -> float:
            return p.x - 5.0

        clipped = clip_polygon_by_constraint(square(), constraint, edge_samples=8)
        assert clipped.area() == pytest.approx(50.0, rel=1e-6)

    def test_uv_edge_clip_with_arc_sampler(self):
        # Clip the square by the outside region of a UV-edge and check that
        # the kept side contains the owner and excludes the point nearest to
        # the competing object.
        edge = Hyperbola.uv_edge(Point(2.0, 5.0), 0.5, Point(8.0, 5.0), 0.5)
        assert edge is not None

        clipped = clip_polygon_by_constraint(
            square(),
            edge.edge_value,
            arc_sampler=lambda a, b: edge.arc_between(a, b, count=16),
            edge_samples=8,
        )
        assert clipped.area() < 100.0
        assert clipped.contains_point(Point(2.0, 5.0))       # owner side kept
        assert not clipped.contains_point(Point(9.5, 5.0))   # competitor side removed
        # Boundary vertices introduced by the clip lie on the UV-edge.
        on_edge = [
            v for v in clipped.vertices if abs(edge.edge_value(v)) < 1e-6
        ]
        assert len(on_edge) >= 10

    def test_clipping_never_increases_area(self):
        poly = square()
        constraints = [
            lambda p: p.x - 7.0,
            lambda p: 3.0 - p.y,
            lambda p: (p.x - 5.0) ** 2 + (p.y - 5.0) ** 2 - 9.0,
        ]
        area = poly.area()
        for constraint in constraints:
            poly = clip_polygon_by_constraint(poly, constraint, edge_samples=10)
            assert poly.area() <= area + 1e-9
            area = poly.area()


def ring_of(polygon: Polygon):
    vertices = polygon.vertices
    return [v.x for v in vertices], [v.y for v in vertices]


class TestRegionKernel:
    """``region_kernel.clip`` returns exactly the oracle's vertices."""

    GRID = 8  # centres and radii snap to 1000 / GRID: degenerate pairs are common

    # Centres may lie a few steps outside the domain: an owner out there can
    # lose the whole square to one competitor (the emptied outcome).
    circles = st.tuples(
        st.integers(min_value=-3, max_value=GRID + 3),
        st.integers(min_value=-3, max_value=GRID + 3),
        st.integers(min_value=0, max_value=3),
    )

    @classmethod
    def make_object(cls, oid, circle):
        step = 1000.0 / cls.GRID
        ix, iy, ir = circle
        # Radii in half steps, so that circles a whole number of steps apart
        # are tangent, nested or overlapping as often as they are disjoint.
        return UncertainObject.uniform(oid, Point(ix * step, iy * step), ir * step / 2.0)

    @settings(max_examples=300, deadline=None)
    @given(
        owner=circles,
        others=st.lists(circles, min_size=1, max_size=5),
        first_corner=st.integers(min_value=0, max_value=3),
        edge_samples=st.integers(min_value=1, max_value=16),
        arc_samples=st.integers(min_value=0, max_value=12),
    )
    def test_same_vertices_as_the_scalar_clip(
        self, owner, others, first_corner, edge_samples, arc_samples
    ):
        # The subject starts as the domain listed from any of its corners (so
        # the walk begins inside or outside the constraint and the wrap-around
        # arc is hit), then as whatever the previous clips left: arcs and all.
        corners = Rect(0.0, 0.0, 1000.0, 1000.0).corners()
        polygon = Polygon(corners[first_corner:] + corners[:first_corner])
        xs, ys = ring_of(polygon)
        owner_obj = self.make_object(0, owner)
        for oid, circle in enumerate(others, start=1):
            edge = UVEdge.between(owner_obj, self.make_object(oid, circle))
            if not edge.exists():  # tangent, overlapping, nested, coincident
                continue
            expected = clip_polygon_by_uv_edge(polygon, edge, arc_samples, edge_samples)
            got = region_kernel.clip(xs, ys, edge.hyperbola, edge_samples, arc_samples)
            if got is None:
                event("untouched")
                assert expected is polygon
                continue
            event("clipped" if got[0] else "emptied")
            assert expected is not polygon
            assert (got[0], got[1]) == ring_of(expected)
            assert got[2] == expected.area()
            polygon = expected
            xs, ys = got[0], got[1]
            if not xs:
                break

    def test_untouched_and_emptied_outcomes(self):
        xs, ys = ring_of(Polygon.from_rect(Rect(0.0, 0.0, 100.0, 100.0)))
        far = Hyperbola.uv_edge(Point(50.0, 50.0), 5.0, Point(5000.0, 50.0), 5.0)
        assert region_kernel.clip(xs, ys, far, 6, 12) is None
        # The owner sits far outside the square, the competitor inside it.
        hostile = Hyperbola.uv_edge(Point(5000.0, 50.0), 5.0, Point(50.0, 50.0), 5.0)
        assert region_kernel.clip(xs, ys, hostile, 6, 12) == ([], [], 0.0)
        assert region_kernel.clip([], [], far, 6, 12) is None

    def test_values_inside_the_band_come_from_the_scalar_formula(self, monkeypatch):
        edge = Hyperbola.uv_edge(Point(200.0, 500.0), 50.0, Point(800.0, 500.0), 50.0)
        on_edge = [edge.point_at(t) for t in (-1.0, -0.3, 0.0, 0.4, 1.2)]
        off_edge = [Point(100.0, 100.0), Point(900.0, 480.0)]
        points = on_edge + off_edge
        gx = np.array([p.x for p in points])
        gy = np.array([p.y for p in points])
        scalar = [edge.edge_value(p) for p in points]
        k = len(on_edge)
        values = region_kernel.edge_values(edge, gx, gy)
        assert values[:k].tolist() == scalar[:k]  # inside the band: bit-equal
        assert values[k:].tolist() == pytest.approx(scalar[k:], abs=1e-10)

        # Which entries were recomputed: exactly those that decide.
        monkeypatch.setattr(Hyperbola, "edge_value", lambda edge, p: 7.0)
        around_zero = region_kernel.edge_values(edge, gx, gy)
        assert around_zero[:k].tolist() == [7.0] * k
        assert 7.0 not in around_zero[k:]
        around_last = region_kernel.edge_values(edge, gx, gy, around=abs(scalar[-1]))
        assert (around_last == 7.0).tolist() == [False] * (len(points) - 1) + [True]
