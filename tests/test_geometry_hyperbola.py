"""Unit tests for the hyperbolic UV-edges (Equation 5 of the paper)."""

import math

import pytest

from repro.geometry.hyperbola import Hyperbola
from repro.geometry.point import Point


def make_edge(ci=None, ri=1.0, cj=None, rj=2.0):
    edge = Hyperbola.uv_edge(
        ci if ci is not None else Point(0, 0),
        ri,
        cj if cj is not None else Point(10, 0),
        rj,
    )
    assert edge is not None
    return edge


class TestConstruction:
    def test_nonexistent_when_regions_overlap(self):
        assert Hyperbola.uv_edge(Point(0, 0), 3.0, Point(4, 0), 2.0) is None
        assert Hyperbola.uv_edge(Point(0, 0), 1.0, Point(0, 0), 1.0) is None

    def test_exists_when_regions_disjoint(self):
        assert Hyperbola.uv_edge(Point(0, 0), 1.0, Point(10, 0), 2.0) is not None

    def test_coincident_centres_never_exist(self):
        # Regression for the guard simplification: `c <= a` alone must keep
        # covering focal_distance == 0, including the zero-radius corner
        # where both a and c are exactly 0 (the old code had a separate
        # `focal_distance == 0.0` test).
        assert Hyperbola.uv_edge(Point(3, 4), 0.0, Point(3, 4), 0.0) is None
        assert Hyperbola.uv_edge(Point(3, 4), 0.0, Point(3, 4), 2.0) is None
        assert Hyperbola.uv_edge(Point(-1, 2), 1.5, Point(-1, 2), 0.0) is None

    def test_parameters(self):
        edge = make_edge()
        assert edge.a == pytest.approx(1.5)       # (r_i + r_j) / 2
        c = 5.0                                    # dist / 2
        assert edge.b == pytest.approx(math.sqrt(c * c - edge.a * edge.a))
        assert edge.center == Point(5.0, 0.0)


class TestBranchGeometry:
    def test_points_on_branch_satisfy_distance_equation(self):
        edge = make_edge()
        for t in (-2.0, -0.7, 0.0, 0.4, 1.3, 2.5):
            p = edge.point_at(t)
            dist_min_i = p.distance_to(edge.focus_i) - edge.radius_i
            dist_max_j = p.distance_to(edge.focus_j) + edge.radius_j
            assert dist_min_i == pytest.approx(dist_max_j, abs=1e-9)

    def test_rotated_configuration(self):
        edge = make_edge(ci=Point(2, 3), ri=0.5, cj=Point(7, 9), rj=1.0)
        for t in (-1.0, 0.0, 1.0):
            p = edge.point_at(t)
            assert edge.edge_value(p) == pytest.approx(0.0, abs=1e-9)
            assert edge.implicit_value(p) == pytest.approx(0.0, abs=1e-7)

    def test_vertex_is_closest_branch_point_to_owner(self):
        edge = make_edge()
        vertex = edge.vertex()
        assert vertex.distance_to(edge.focus_i) < edge.point_at(1.0).distance_to(edge.focus_i)
        assert vertex.distance_to(edge.focus_i) < edge.point_at(-1.0).distance_to(edge.focus_i)

    def test_to_local_roundtrip(self):
        edge = make_edge(ci=Point(1, 1), ri=0.5, cj=Point(4, 5), rj=0.5)
        p = Point(2.3, -0.7)
        assert edge.to_world(edge.to_local(p)).is_close(p, tol=1e-9)


class TestMembership:
    def test_outside_region_side(self):
        edge = make_edge()
        # A point close to O_j is in the outside region: O_j certainly closer.
        assert edge.in_outside_region(Point(9.5, 0.0))
        # A point close to O_i is not.
        assert not edge.in_outside_region(Point(0.5, 0.0))

    def test_edge_value_matches_distance_semantics(self):
        edge = make_edge()
        q = Point(8.0, 2.0)
        dist_min_i = max(0.0, q.distance_to(edge.focus_i) - edge.radius_i)
        dist_max_j = q.distance_to(edge.focus_j) + edge.radius_j
        assert edge.edge_value(q) == pytest.approx(dist_min_i - dist_max_j)

    def test_edge_value_inside_owner_region_negative(self):
        edge = make_edge()
        assert edge.edge_value(Point(0.2, 0.1)) < 0
