"""Property-based tests (hypothesis) for the geometry kernel."""

import math

from hypothesis import given, settings, strategies as st
from reference.clipping import clip_polygon_by_constraint

from repro.geometry.circle import Circle, min_bounding_circle
from repro.geometry.clipping import clip_polygon_halfplane
from repro.geometry.hull import convex_hull, point_in_convex_hull
from repro.geometry.hyperbola import Hyperbola
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rectangle import Rect


coords = st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False, allow_infinity=False)
radii = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coords, coords)


@settings(max_examples=60, deadline=None)
@given(points, points)
def test_distance_symmetry(a, b):
    assert a.distance_to(b) == b.distance_to(a)


@settings(max_examples=60, deadline=None)
@given(points, points)
def test_distance_non_negative_and_identity(a, b):
    assert a.distance_to(b) >= 0.0
    assert a.distance_to(a) == 0.0


@settings(max_examples=60, deadline=None)
@given(points, points)
def test_midpoint_equidistant(a, b):
    mid = a.midpoint(b)
    assert math.isclose(mid.distance_to(a), mid.distance_to(b), abs_tol=1e-6)


@settings(max_examples=60, deadline=None)
@given(points, points, points)
def test_triangle_inequality(a, b, c):
    assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-9


@settings(max_examples=50, deadline=None)
@given(points, radii, points)
def test_circle_min_max_distance_bracket_center_distance(center, radius, q):
    circle = Circle(center, radius)
    dist = center.distance_to(q)
    assert circle.min_distance(q) <= dist + 1e-9
    assert circle.max_distance(q) >= dist - 1e-9
    assert circle.max_distance(q) - circle.min_distance(q) <= 2 * radius + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.lists(points, min_size=1, max_size=40))
def test_min_bounding_circle_covers_points(pts):
    circle = min_bounding_circle(pts)
    for p in pts:
        assert circle.contains_point(p, tol=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.lists(points, min_size=3, max_size=40))
def test_convex_hull_contains_all_points(pts):
    hull = convex_hull(pts)
    for p in pts:
        assert point_in_convex_hull(p, hull, tol=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(points, min_size=3, max_size=12),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-500.0, max_value=500.0),
)
def test_halfplane_clip_never_grows(pts, a, b, c):
    polygon = Polygon(convex_hull(pts))
    clipped = clip_polygon_halfplane(polygon, a, b, c)
    assert clipped.area() <= polygon.area() + 1e-6
    for v in clipped.vertices:
        assert a * v.x + b * v.y + c <= 1e-6


@settings(max_examples=30, deadline=None)
@given(points, st.floats(min_value=10.0, max_value=300.0))
def test_constraint_clip_subset_of_original(center, radius):
    polygon = Polygon.from_rect(Rect(-400.0, -400.0, 400.0, 400.0))

    def constraint(p: Point) -> float:
        return radius - p.distance_to(center)  # remove inside of the circle

    clipped = clip_polygon_by_constraint(polygon, constraint, edge_samples=8)
    assert clipped.area() <= polygon.area() + 1e-6
    # Points that are clearly kept by the constraint and inside the original
    # polygon must remain inside the clipped polygon.
    for probe in polygon.bounding_rect().sample_grid(6):
        if constraint(probe) < -radius * 0.2 and polygon.contains_point(probe):
            assert clipped.contains_point(probe)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=-200, max_value=200), st.floats(min_value=-200, max_value=200),
    st.floats(min_value=0.0, max_value=40.0),
    st.floats(min_value=-200, max_value=200), st.floats(min_value=-200, max_value=200),
    st.floats(min_value=0.0, max_value=40.0),
    st.floats(min_value=-300, max_value=300), st.floats(min_value=-300, max_value=300),
)
def test_uv_edge_membership_matches_distances(xi, yi, ri, xj, yj, rj, px, py):
    ci, cj, p = Point(xi, yi), Point(xj, yj), Point(px, py)
    edge = Hyperbola.uv_edge(ci, ri, cj, rj)
    dist_min_i = max(0.0, p.distance_to(ci) - ri)
    dist_max_j = p.distance_to(cj) + rj
    if edge is None:
        # Overlapping regions: the outside region is empty, i.e. no point can
        # make O_j certainly closer than O_i.
        assert ci.distance_to(cj) <= ri + rj + 1e-9
        assert dist_min_i <= dist_max_j + 1e-9
    else:
        assert edge.in_outside_region(p) == (dist_min_i > dist_max_j)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.5, max_value=30.0),
    st.floats(min_value=0.5, max_value=30.0),
    st.floats(min_value=70.0, max_value=400.0),
    st.floats(min_value=-3.0, max_value=3.0),
)
def test_uv_edge_branch_points_satisfy_equation4(ri, rj, gap, t):
    """Points of the parametric branch satisfy dist(p,ci) - dist(p,cj) = ri + rj."""
    ci, cj = Point(0.0, 0.0), Point(gap, 0.0)
    edge = Hyperbola.uv_edge(ci, ri, cj, rj)
    assert edge is not None
    p = edge.point_at(t)
    assert math.isclose(p.distance_to(ci) - p.distance_to(cj), ri + rj, abs_tol=1e-6)
